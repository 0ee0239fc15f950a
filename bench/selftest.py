"""Tests of the benchmark itself, at smoke size.

    python3 -m pytest bench/selftest.py

The file name keeps it out of the repository's tier-1 suite, which collects
``test_*.py`` only.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import refcheck  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from loadcouple import netmodel, scenario  # noqa: E402

SMOKE_SEED = 7


@pytest.fixture(scope="module")
def traced_twice():
    return [run.run(name, SMOKE_SEED, 0, True, size="smoke")
            for name in workloads.WORKLOADS for _ in range(2)]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_workload_runs_at_smoke_size(name):
    record = run.run(name, SMOKE_SEED, 0, False, size="smoke")
    result = record["result"]
    assert result["correct"], [r["problems"] for r in record["ops"] if r["problems"]]
    assert result["attempted"] > run.TAIL_BEYOND
    assert set(result["metrics"]) == set(run.metric_units("end_to_end"))
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert json.loads(json.dumps(result)) == result


def test_same_seed_gives_identical_counts_and_exit_codes(traced_twice):
    exact = [name for name in run.metric_units("per_layer")
             if name.endswith(".calls") or name in ("solver.iterations", "solver.unconverged")]
    for first, second in zip(traced_twice[::2], traced_twice[1::2]):
        for name in exact:
            assert first["result"]["metrics"][name] == second["result"]["metrics"][name], name
        assert [r["exit_code"] for r in first["ops"]] == [r["exit_code"] for r in second["ops"]]


def test_traced_run_reports_every_layer_metric_and_self_times_add_up(traced_twice):
    for record in traced_twice:
        metrics = record["result"]["metrics"]
        assert set(metrics) == set(run.metric_units("per_layer"))
        # sum of self times = traced op wall (minus the client's own few microseconds)
        # plus the time pool-thread spans overlap one another
        unattributed = metrics["trace.self_sum_frac"]["value"] - record["notes"]["thread_overlap_frac"]
        assert abs(unattributed - 1.0) < 0.01


def test_tracer_removes_every_wrapper(traced_twice):
    import loadcouple

    modules = [loadcouple] + [sys.modules[f"loadcouple.{layer}"] for layer in tracing.LAYERS]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    method = netmodel.NetworkInstance.__dict__["with_demand_scale"]
    tracer = tracing.Tracer()
    with tracer:
        assert netmodel.NetworkInstance.__dict__["with_demand_scale"] is not method
        assert sys.modules["loadcouple.coupling"].load_function is not before[
            ("loadcouple.coupling", "load_function")]
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert netmodel.NetworkInstance.__dict__["with_demand_scale"] is method


def test_pool_thread_spans_name_the_sweep_as_cause(traced_twice):
    record = traced_twice[2 * workloads.WORKLOADS.index("scale_study")]
    spans = json.loads(Path(record["spans_file"]).read_text())["spans"]
    by_id = {s[0]: s for s in spans}
    sweep_ids = {s[0] for s in spans if s[3] == "analysis.demand_sweep"}
    scaled = [s for s in spans if s[3] == "netmodel.with_demand_scale"
              and by_id[s[1]][3] == "analysis.demand_sweep"]
    assert scaled and all(s[1] in sweep_ids for s in scaled)


@pytest.fixture
def work_dir():
    path = run.WORK_DIR / "selftest"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_checker_counts_a_perturbed_solve(work_dir):
    instance = scenario.generate(scenario.ScenarioSpec(num_sites=3, demand_bits_per_user=80_000.0,
                                                       rng_seed=SMOKE_SEED))
    path = work_dir / "net.json"
    netmodel.save_instance(instance, path)
    ref = refcheck.Reference(json.loads(path.read_text()))
    code, _, stdout = workloads.run_cli(["solve", "--instance", str(path)])
    assert refcheck.check_solve(code, stdout, ref) == (False, [])

    lines = stdout.splitlines()
    fields = lines[2].split(",")
    fields[1] = repr(float(fields[1]) * (1.0 + 1e-6))  # rho_star of the first cell
    perturbed = "\n".join(lines[:2] + [",".join(fields)] + lines[3:]) + "\n"
    unconverged, problems = refcheck.check_solve(code, perturbed, ref)
    assert not unconverged and problems

    op = workloads.Op("perturbed", "solve", ["solve", "--instance", str(path)],
                      lambda c, out: refcheck.check_solve(c, perturbed, ref))
    result = workloads.run_op(op)
    assert result.exit_code == 0 and result.failed


def test_tail_is_highest_percentile_with_ten_beyond():
    percentile, value = run.tail([float(k) for k in range(1, 41)])
    assert (percentile, value) == (75.0, 30.0)
