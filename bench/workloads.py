"""The three benchmark workloads: their inputs, their ops and each op's check.

A workload is a list of CLI invocations (ops), run in order as one round.
Inputs are made from the workload seed with the program's own scenario
generator and written as instance files; the program receives only those
files and command lines.  Every op carries a check against the independent
reference in ``refcheck``.

Why each workload exists (see README.md for the layer table):

- io_mixed: JSON read/write and scenario generation dominate, while the
  kernel and solver do little.  n in {9, 36, 81} at base demand, far from
  the feasibility boundary.
- near_boundary: load-map evaluations and solver iterations dominate, and
  I/O is about 3%.  n=36 at 0.9, 0.99 and 0.999 of the boundary; it carries
  the known failures of plain iteration at 0.999.
- scale_study: coefficients rebuilt per scale, the Perron root recomputed,
  bisection and the sweep's thread pool.  n in {36, 81}; per n one sweep,
  and boundary and compare on two rotated copies each.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import refcheck
from loadcouple import cli, netmodel, scenario

DEMAND_BITS_PER_USER = 80_000.0  # base demand: 14-26 plain iterations, boundary near scale 6-11
USERS_PER_CELL = scenario.ScenarioSpec.users_per_cell_area
SECTORS = scenario.ScenarioSpec.sectors_per_site
NEAR_FRACTIONS = (0.9, 0.99, 0.999)
SWEEP_SCALES = 32
BOUNDARY_TOL = 1e-6  # the CLI's default --tol for ``boundary``
COMPARE_TOL = 1e-4  # compare_configs' boundary tolerance, not settable from the CLI
INTERVAL_WIDTH = 1e-3

# Sites per instance (cells = 3 x sites) at each size; "smoke" is for the benchmark's own tests.
SIZES = {
    "full": {"io_mixed": (3, 12, 27), "near_boundary": (12,), "scale_study": (12, 27)},
    "smoke": {"io_mixed": (3,), "near_boundary": (3,), "scale_study": (3,)},
}
# Seconds one full-size round took at the commit that defined the benchmark (2-core
# container); ``--seconds`` is turned into a round count with it, so a run's work is
# fixed by its arguments and not by the program's speed.
NOMINAL_ROUND_S = {"io_mixed": 18.0, "near_boundary": 18.0, "scale_study": 26.0}
# Times an op runs per round.  The costly ops (the failing 0.999 solves, the
# sweeps) run once, so a round of 20-25 s still holds dozens of samples of the
# cheap ops: the median and tail latency are order statistics of many like
# samples, not the larger of two noisy ones.  The counts differ between groups
# of ops so that the median and the tail fall in the middle of a group of like
# ops (io_mixed: the n=36 solve and bounds group, then the n=81 generate group;
# near_boundary: the Newton group, then the 0.9 default group; scale_study:
# the n=81 boundary group, then the n=81 compare group) and not on the edge
# between two groups, where one noisy sample moves the quantile by the whole gap.
IO_REPEAT = {9: 12, 36: 10, 81: 10}
NEAR_NEWTON_REPEAT = 20
NEAR_REPEAT = {0.9: 10, 0.99: 2, 0.999: 1}  # default and interval-stop solves
SCALE_REPEAT = {36: 3, 81: 5}
WORKLOADS = tuple(NOMINAL_ROUND_S)


@dataclass
class Op:
    label: str
    kind: str
    argv: list[str]
    # (exit code, captured stdout) -> (unconverged, problems); see refcheck
    check: Callable[[int, str], tuple[bool, list[str]]]
    repeat: int = 1  # runs per round


def schedule(ops: list[Op]) -> list[Op]:
    """One round: cycle through the ops, each until it has run ``repeat`` times."""
    cycles = max(op.repeat for op in ops)
    return [op for cycle in range(cycles) for op in ops if cycle < op.repeat]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    manifest: dict = field(default_factory=dict)


@dataclass
class OpResult:
    label: str
    kind: str
    exit_code: object
    wall_s: float
    unconverged: bool = False
    problems: list[str] = field(default_factory=list)
    @property
    def failed(self) -> bool:
        """Unexpected exit code, an unconverged solve or row, or a failed check."""
        return self.unconverged or bool(self.problems)


def run_cli(argv: list[str]) -> tuple[object, float, str]:
    """One closed-loop op: ``cli.main(argv)`` in-process, stdout captured, wall time measured."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects a command line this way
        code = exc.code
    except Exception:  # the benchmark keeps running; the op counts as failed
        code = "exception: " + traceback.format_exc(limit=3).replace("\n", " | ")
    return code, perf_counter() - start, out.getvalue()


def run_op(op: Op) -> OpResult:
    code, wall, stdout = run_cli(op.argv)
    result = OpResult(op.label, op.kind, code, wall)
    if not isinstance(code, int):
        result.problems.append(f"exit {code}")
        return result
    try:
        result.unconverged, result.problems = op.check(code, stdout)
    except Exception as exc:  # a malformed output must not stop the run
        result.problems.append(f"check raised {exc!r}")
    return result


class References:
    """Reference per instance file, keyed by content hash so a rewrite of identical bytes is parsed once."""

    def __init__(self):
        self._by_digest: dict[str, tuple[tuple[int, int] | None, refcheck.Reference | None]] = {}

    def entry(self, path: Path) -> tuple[tuple[int, int] | None, refcheck.Reference | None]:
        """(cells, pixels) counts and reference of the file, or (None, None) if it does not parse."""
        data = path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if digest not in self._by_digest:
            try:
                doc = json.loads(data)
                counts = (len(doc["cells"]), len(doc["pixels"]))
                self._by_digest[digest] = (counts, refcheck.Reference(doc))
            except (ValueError, KeyError, TypeError):
                self._by_digest[digest] = (None, None)
        return self._by_digest[digest]

    def get(self, path: Path) -> refcheck.Reference:
        ref = self.entry(path)[1]
        if ref is None:
            raise ValueError(f"{path.name} is not a readable instance")
        return ref


def _spec(sites: int, rng_seed: int) -> scenario.ScenarioSpec:
    return scenario.ScenarioSpec(num_sites=sites, demand_bits_per_user=DEMAND_BITS_PER_USER,
                                 rng_seed=rng_seed)


def _seed(rng) -> int:
    return int(rng.integers(2**31))


def _rotation(rng, n: int) -> tuple[int, float]:
    return int(rng.integers(1, n + 1)), float(rng.integers(0, 360))


def _io_mixed(seed: int, work: Path, sites_list, refs: References) -> tuple[list[Op], list[Op]]:
    rng = np.random.default_rng([seed, 1])
    ops = []
    for sites in sites_list:
        n = SECTORS * sites
        m = n * USERS_PER_CELL
        spec, net, rot = work / f"spec_{n}.json", work / f"net_{n}.json", work / f"rot_{n}.json"
        spec.write_text(json.dumps({"num_sites": sites, "demand_bits_per_user": DEMAND_BITS_PER_USER,
                                    "rng_seed": _seed(rng)}))
        cell, azimuth = _rotation(rng, n)

        def generated(path, n=n, m=m):
            return lambda code, out: refcheck.check_generate(code, refs.entry(path)[0], n, m)

        block = [
            Op(f"generate n={n}", "generate", ["generate", "--spec", str(spec), "--out", str(net)],
               generated(net)),
            Op(f"generate --rotate n={n}", "generate",
               ["generate", "--spec", str(spec), "--out", str(rot), "--rotate", f"{cell}:{azimuth:g}"],
               generated(rot)),
            Op(f"solve n={n}", "solve", ["solve", "--instance", str(net)],
               lambda code, out, net=net: refcheck.check_solve(code, out, refs.get(net))),
            Op(f"feasibility n={n}", "feasibility", ["feasibility", "--instance", str(rot)],
               lambda code, out, rot=rot: refcheck.check_feasibility(code, out, refs.get(rot))),
            Op(f"bounds n={n}", "bounds", ["bounds", "--instance", str(net)],
               lambda code, out, net=net: refcheck.check_bounds(code, out, refs.get(net))),
        ]
        for op in block:
            op.repeat = IO_REPEAT.get(n, 1)
        ops += block
    return ops, ops[:5]


def _near_boundary(seed: int, work: Path, sites_list, refs: References) -> tuple[list[Op], list[Op]]:
    rng = np.random.default_rng([seed, 2])
    (sites,) = sites_list
    instance = scenario.generate(_spec(sites, _seed(rng)))
    base = work / "base.json"
    netmodel.save_instance(instance, base)
    boundary = refs.get(base).boundary
    ops = []
    for fraction in NEAR_FRACTIONS:
        path = work / f"at_{fraction}.json"
        netmodel.save_instance(instance.with_demand_scale(fraction * boundary), path)
        for label, extra, width in (("default", [], None),
                                    ("newton", ["--method", "newton"], None),
                                    ("interval", ["--interval-width", repr(INTERVAL_WIDTH)], INTERVAL_WIDTH)):
            repeat = NEAR_NEWTON_REPEAT if label == "newton" else NEAR_REPEAT[fraction]
            ops.append(Op(f"solve {label} at {fraction} of boundary", "solve",
                          ["solve", "--instance", str(path), *extra],
                          lambda code, out, path=path, width=width:
                          refcheck.check_solve(code, out, refs.get(path), width), repeat))
    warmup = [op for op in ops if op.label == f"solve newton at {NEAR_FRACTIONS[0]} of boundary"]
    return ops, warmup


def _scale_study(seed: int, work: Path, sites_list, refs: References) -> tuple[list[Op], list[Op]]:
    rng = np.random.default_rng([seed, 3])
    ops, warmup = [], []
    for sites in sites_list:
        n = SECTORS * sites
        instance = scenario.generate(_spec(sites, _seed(rng)))
        net = work / f"net_{n}.json"
        netmodel.save_instance(instance, net)
        # two copies, each with one sector rotated, so repeated boundary and compare ops
        # alternate between distinct inputs
        rotated = [work / f"rot{k}_{n}.json" for k in (1, 2)]
        for path in rotated:
            netmodel.save_instance(scenario.rotate_sector(instance, *_rotation(rng, n)), path)
        boundary = refs.get(net).boundary
        scales = f"{0.1 * boundary!r}:{1.2 * boundary!r}:{SWEEP_SCALES}"
        ops.append(Op(f"sweep n={n}", "sweep", ["sweep", "--instance", str(net), "--scales", scales],
                      lambda code, out, net=net: refcheck.check_sweep(code, out, refs.get(net))))
        for path in (net, rotated[0]):
            ops.append(Op(f"boundary {path.stem}", "boundary",
                          ["boundary", "--instance", str(path), "--lo", "0.5", "--hi", "64"],
                          lambda code, out, path=path:
                          refcheck.check_boundary(code, out, refs.get(path), BOUNDARY_TOL),
                          SCALE_REPEAT.get(n, 1)))
        for path in rotated:
            ops.append(Op(f"compare net_{n} {path.stem}", "compare", ["compare", "--a", str(net), "--b", str(path)],
                          lambda code, out, net=net, path=path:
                          refcheck.check_compare(code, out, refs.get(net), refs.get(path), COMPARE_TOL),
                          SCALE_REPEAT.get(n, 1)))
        if not warmup:
            warmup = [Op("warm-up sweep", "sweep",
                         ["sweep", "--instance", str(net), "--scales", f"{0.1 * boundary!r}:{0.5 * boundary!r}:3"],
                         lambda code, out: (False, [])), ops[1]]
    return ops, warmup


_BUILDERS = {"io_mixed": _io_mixed, "near_boundary": _near_boundary, "scale_study": _scale_study}


def build(name: str, seed: int, work: Path, size: str = "full") -> Workload:
    """Write the workload's inputs into ``work``, warm up, and return its ops.

    Everything here counts as set-up: input generation, file writes and one
    untimed pass over a few small ops so lazy initialisation is done before
    the first timed op.
    """
    refs = References()
    ops, warmup = _BUILDERS[name](seed, work, SIZES[size][name], refs)
    for op in warmup:
        run_cli(op.argv)
    sites = SIZES[size][name]
    return Workload(name, ops, {
        "n": [SECTORS * s for s in sites],
        "M": [SECTORS * s * USERS_PER_CELL for s in sites],
        "ops_per_round": len(schedule(ops)),
    })


def input_bytes(work: Path) -> int:
    """Bytes of every instance and spec file in the work directory."""
    return sum(p.stat().st_size for p in work.glob("*.json"))
