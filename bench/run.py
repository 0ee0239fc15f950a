"""Benchmark of the loadcouple CLI: one closed-loop client driving ``cli.main``.

Run from the root of a checkout:

    python3 bench/run.py --workload io_mixed --seed 1 --seconds 20 --trace 0

A single thread in one process sends each op (one CLI command line) only
after the previous one returned, with the program's JSON and CSV I/O
included.  Every op's output is checked against the independent reference in
``refcheck``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced rounds and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
(manifest, every op, and for traced runs every span) goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibrate
import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # the tail latency is the highest percentile with this many samples beyond it
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# ``workloads`` imports loadcouple, which is importable only once main() has checked
# src/ and put it on sys.path; so it is imported inside the functions that use it.


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(kind: str) -> dict[str, str]:
    """Names and units of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    return {metric["name"]: metric["unit"] for metric in _spec()[kind]}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="closed-loop benchmark of the loadcouple CLI")
    parser.add_argument("--workload", required=True,
                        choices=[workload["name"] for workload in _spec()["workloads"]])
    parser.add_argument("--seed", type=int, required=True, help="makes every input; same seed, same inputs")
    parser.add_argument("--seconds", type=float, required=True,
                        help="sets the work: rounds = round(seconds / nominal round time), at least 1")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def rounds_for(workload: str, seconds: float, ops_per_round: int) -> int:
    """Rounds a run makes: fixed by its arguments, never fewer than the tail percentile needs."""
    import workloads
    needed = -(-(TAIL_BEYOND + 1) // ops_per_round)
    return max(1, needed, round(seconds / workloads.NOMINAL_ROUND_S[workload]))


def tail(walls: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest nearest-rank percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(walls)
    rank = len(ordered) - TAIL_BEYOND
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def _import_in_fresh_interpreter() -> None:
    """Import the CLI in a new interpreter, as every command a user runs does."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import loadcouple.cli"], env=env, check=True, timeout=120)


def _git_commit():
    if not (ROOT / ".git").exists():  # a plain copy; git would report an enclosing repository
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def manifest(args, threads_env) -> dict:
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        # unset during the run, so sweeps use os.cpu_count() workers as users get them
        "LOADCOUPLE_THREADS": None,
        "LOADCOUPLE_THREADS_in_caller_env": threads_env,
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def setup(name: str, seed: int, work: Path, size: str):
    """Set up SETUP_REPEATS times; return the last workload and the median set-up seconds.

    Like op times, set-up times are divided by the mean calibration slowdown
    measured around them.
    """
    import workloads
    times, built, slowdowns = [], None, calibrate.samples()
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        _import_in_fresh_interpreter()
        built = workloads.build(name, seed, work, size)
        times.append(perf_counter() - start)
        slowdowns += calibrate.samples()
    return built, statistics.median(times) / statistics.fmean(slowdowns)


def run_round(ops, results: list, tracer=None) -> tuple[float, float]:
    """One round of the schedule: (summed op wall time, mean calibration slowdown).

    The calibration kernel runs before the first op and after every op,
    outside the timed region, so the slowdown averages the machine's speed
    over the round.
    """
    import workloads
    slowdowns = calibrate.samples()
    wall = 0.0
    for op in workloads.schedule(ops):
        if tracer is not None:
            tracer.op = len(results)
        result = workloads.run_op(op)
        results.append(result)
        wall += result.wall_s
        slowdowns += calibrate.samples()
    return wall, statistics.fmean(slowdowns)


def end_to_end(results, slowdown: float, setup_s: float) -> tuple[dict, dict]:
    walls = [r.wall_s for r in results]
    ok = sum(1 for r in results if not r.failed)
    percentile, tail_s = tail(walls)
    values = {
        # the client waits on the program for exactly the sum of op times;
        # checks and calibration run between ops and are not counted
        "ops_per_s": ok / sum(walls) * slowdown,
        "latency_p50_ms": 1e3 * statistics.median(walls) / slowdown,
        "latency_tail_ms": 1e3 * tail_s / slowdown,
        "ok_frac": ok / len(results),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"latency_tail_percentile": percentile, "latency_samples": len(walls),
             "failed_frac": 1.0 - values["ok_frac"], "slowdown": slowdown,
             "wall_ops_per_s": ok / sum(walls), "wall_latency_p50_ms": 1e3 * statistics.median(walls),
             "wall_latency_tail_ms": 1e3 * tail_s}
    return values, notes


def traced_measure(workload, pairs: int, results: list):
    """Alternate untraced and traced rounds.

    Returns the spans, the untraced and the traced op time at reference speed,
    the traced ops' summed wall time, and the untraced sweeps' time at
    reference speed.  A span's op id is the op's index in ``results``.
    """
    tracer = tracing.Tracer()
    untraced_s = traced_s = traced_wall = sweeps_s = 0.0
    for _ in range(pairs):
        first = len(results)
        wall, slowdown = run_round(workload.ops, results)
        untraced_s += wall / slowdown
        sweeps_s += sum(r.wall_s for r in results[first:] if r.kind == "sweep") / slowdown
        with tracer:
            wall, slowdown = run_round(workload.ops, results, tracer)
        tracer.op = None
        traced_s += wall / slowdown
        traced_wall += wall
    return tracer.spans, untraced_s, traced_s, traced_wall, sweeps_s


def serial_ratio(workload, results: list, default_s: float) -> float:
    """``default_s``, sweep time with default threads, over the same sweeps on one thread."""
    sweeps = [op for op in workload.ops if op.kind == "sweep"]
    if not sweeps:
        return 0.0
    os.environ["LOADCOUPLE_THREADS"] = "1"
    try:
        wall, slowdown = run_round(sweeps, results)
    finally:
        del os.environ["LOADCOUPLE_THREADS"]
    return default_s / (wall / slowdown)


def per_layer(spans, rounds: int, op_wall_s: float, untraced_s: float, traced_s: float,
              serial: float) -> tuple[dict, dict]:
    """Per-layer metrics per traced round, and diagnostics for the record."""
    stats = tracing.analyse(spans)
    calls, self_s = stats["calls"], stats["self_s"]

    def per_round_ms(*names):
        return 1e3 * sum(self_s.get(n, 0.0) for n in names) / rounds

    def per_round_calls(name):
        return calls.get(name, 0) / rounds

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for metric in metric_units("per_layer"):
        name, _, leaf = metric.rpartition(".")
        if leaf == "self_ms":
            out[metric] = per_round_ms(name)
        elif leaf == "calls":
            out[metric] = per_round_calls(name)
    solves = ("solver.solve", "solver.solve_with_interval_stop")
    out["solver.solve.self_ms"] = per_round_ms(*solves)
    map_calls = calls.get("coupling.load_function", 0)
    ops_traced = calls.get("cli.main", 0)
    out.update({
        "netmodel.bytes_read": stats["bytes_read"] / rounds,
        "netmodel.bytes_written": stats["bytes_written"] / rounds,
        "analysis.coefficients_per_question": ratio(calls.get("coupling.coefficients", 0), ops_traced),
        "coupling.load_function.us_per_call": ratio(1e6 * self_s.get("coupling.load_function", 0.0), map_calls),
        "coupling.load_function.computed_bytes_per_call": ratio(stats["map_eval_bytes"], map_calls),
        "linfeas.spectral_radius.used_frac": ratio(stats["radius_used"],
                                                   calls.get("linfeas.spectral_radius", 0)),
        "solver.iterations": stats["iterations"] / rounds,
        "solver.unconverged": stats["unconverged"] / rounds,
        "solver.map_evals_per_iteration": ratio(stats["map_evals_in_solve"], stats["iterations"]),
        "analysis.demand_sweep.parallelism": ratio(stats["sweep_child_s"], stats["sweep_wall_s"]),
        "analysis.demand_sweep.serial_ratio": serial,
        "analysis.verdicts_per_boundary": ratio(stats["boundary_verdicts"],
                                                calls.get("analysis.feasibility_boundary", 0)),
        "trace.overhead_frac": (traced_s - untraced_s) / untraced_s,
        "trace.self_sum_frac": sum(self_s.values()) / op_wall_s,
    })
    extra = {"thread_overlap_frac": stats["overlap_s"] / op_wall_s,
             "spans": len(spans), "calls_per_round": {k: v / rounds for k, v in sorted(calls.items())},
             "self_ms_per_round": {k: 1e3 * v / rounds for k, v in sorted(self_s.items())}}
    return out, extra


def run(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """One benchmark run; returns the full record (result line under ``"result"``)."""
    import workloads
    work = WORK_DIR / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload, setup_s = setup(name, seed, work, size)
        rounds = rounds_for(name, seconds, len(workloads.schedule(workload.ops)))
        results, record = [], {}
        if not trace:
            wall = weighted = 0.0
            for _ in range(rounds):
                round_wall, slowdown = run_round(workload.ops, results)
                wall += round_wall
                weighted += round_wall * slowdown
            values, notes = end_to_end(results, weighted / wall, setup_s)
            units = metric_units("end_to_end")
        else:
            pairs = max(1, rounds // 2)
            spans, untraced_s, traced_s, traced_wall, sweeps_s = traced_measure(workload, pairs, results)
            serial = serial_ratio(workload, results, sweeps_s / pairs)
            values, notes = per_layer(spans, pairs, traced_wall, untraced_s, traced_s, serial)
            units = metric_units("per_layer")
            record["spans_file"] = str(_write_spans(name, seed, spans))
            rounds = pairs
        record["manifest"] = {**workload.manifest, "rounds": rounds, "input_json_bytes": workloads.input_bytes(work)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(1 for r in results if r.failed)
    wrong = [r for r in results if r.problems]
    record.update({
        "notes": notes,
        "ops": [vars(r) for r in results],
        "result": {
            "correct": not wrong,
            "attempted": len(results),
            "failed": failed,
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        },
    })
    return record


def _write_spans(name, seed, spans) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{name}-seed{seed}-spans.json"
    path.write_text(json.dumps({"fields": ["id", "parent", "op", "name", "start_s", "end_s", "extra"],
                                "spans": spans}))
    return path


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "loadcouple" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'loadcouple'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # users run sweeps with the variable unset; the manifest keeps what the environment had
    threads_env = os.environ.pop("LOADCOUPLE_THREADS", None)
    import loadcouple
    if Path(loadcouple.__file__).resolve().parent != (SRC / "loadcouple").resolve():
        print(f"error: imported loadcouple from {loadcouple.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    record["manifest"] = {**manifest(args, threads_env), args.workload: record["manifest"]}
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, default=str))

    result = record["result"]
    print("manifest: " + json.dumps(record["manifest"], sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    for key, value in record["notes"].items():
        if not isinstance(value, dict):
            print(f"{args.workload} {key} = {value:.6g}")
    for r in record["ops"]:
        if r["problems"] or r["unconverged"]:
            print(f"failed op: {r['label']} exit={r['exit_code']} "
                  f"{'unconverged ' if r['unconverged'] else ''}{'; '.join(r['problems'])}")
    print(f"record: {out_path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
