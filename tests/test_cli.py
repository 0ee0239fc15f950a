import csv
import functools
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from helpers import frozen_two_cell, random_instance
from loadcouple import (
    ScenarioSpec,
    SolverConfig,
    asymptotic_linearization,
    coefficients,
    generate,
    load_function,
    load_instance,
    save_instance,
    solve,
    solver,
)
from loadcouple.cli import main

SEED = 141421


def _write_instance(tmp_path, instance, name="inst.json"):
    path = tmp_path / name
    save_instance(instance, path)
    return path


def _read_csv(path):
    lines = path.read_text().splitlines()
    comment = lines[0] if lines[0].startswith("#") else None
    body = lines[1:] if comment else lines
    rows = list(csv.reader(body))
    return comment, rows[0], rows[1:]


def test_solve_writes_parse_exact_csv(tmp_path):
    instance = frozen_two_cell()
    inst = _write_instance(tmp_path, instance)
    out = tmp_path / "solve.csv"
    assert main(["solve", "--instance", str(inst), "--out", str(out)]) == 0
    comment, header, rows = _read_csv(out)
    assert "status=converged" in comment
    assert header == ["cell_id", "rho_star", "rho_lower", "rho_upper", "residual"]
    # compare against a solve of the file's contents: saving can nudge a gain
    # by an ulp, so the original in-memory instance is not the right oracle
    report = solve(load_instance(inst))
    assert len(rows) == 2
    for i, row in enumerate(rows):
        assert int(row[0]) == i + 1
        # 17 significant digits: the text parses back to the exact double
        assert float(row[1]) == report.fixed_point[i]
        assert float(row[2]) == report.lower[i]
        assert float(row[3]) == report.upper[i]


def test_solve_stdout_when_no_out(tmp_path, capsys):
    inst = _write_instance(tmp_path, frozen_two_cell())
    assert main(["solve", "--instance", str(inst)]) == 0
    captured = capsys.readouterr().out
    assert captured.startswith("# status=converged")
    assert "cell_id,rho_star" in captured


def test_solve_newton_method_flag(tmp_path):
    inst = _write_instance(tmp_path, frozen_two_cell())
    out = tmp_path / "newton.csv"
    assert main(["solve", "--instance", str(inst), "--method", "newton",
                 "--tol", "1e-12", "--out", str(out)]) == 0
    _, _, rows = _read_csv(out)
    expected = solve(load_instance(inst), SolverConfig(method="newton", tol_residual=1e-12))
    for i, row in enumerate(rows):
        assert float(row[1]) == expected.fixed_point[i]


def test_solve_infeasible_exit_code(tmp_path):
    rng = np.random.default_rng(SEED)
    inst = _write_instance(tmp_path, random_instance(rng, 3, 4, radius_target=1.5))
    out = tmp_path / "infeasible.csv"
    assert main(["solve", "--instance", str(inst), "--out", str(out)]) == 3
    comment, header, rows = _read_csv(out)
    assert "status=infeasible" in comment
    assert "linear_status=" in comment
    for row in rows:
        assert row[1:] == ["n/a", "n/a", "n/a", "n/a"]


def test_solve_iteration_limit_exit_code(tmp_path):
    rng = np.random.default_rng(SEED + 1)
    inst = _write_instance(tmp_path, random_instance(rng, 4, 5, radius_target=0.9))
    out = tmp_path / "partial.csv"
    assert main(["solve", "--instance", str(inst), "--max-iter", "2",
                 "--out", str(out)]) == 4
    comment, _, rows = _read_csv(out)
    assert "status=max_iter_exceeded" in comment
    assert all(row[1] != "n/a" for row in rows)


def test_solve_interval_width_flag(tmp_path):
    rng = np.random.default_rng(SEED + 2)
    inst = _write_instance(tmp_path, random_instance(rng, 3, 5, radius_target=0.7))
    out = tmp_path / "interval.csv"
    assert main(["solve", "--instance", str(inst), "--interval-width", "1e-5",
                 "--out", str(out)]) == 0
    _, _, rows = _read_csv(out)
    for row in rows:
        assert float(row[3]) - float(row[1]) <= 1e-5


@pytest.mark.parametrize("fraction", [0.9, 0.99, 0.999])
def test_solve_newton_interval_low_end_is_sub_solution(tmp_path, fraction):
    """The interval stop's rho_star column is a certified sub-solution: f(rho) >= rho."""
    instance = generate(ScenarioSpec(num_sites=3, rng_seed=7, demand_bits_per_user=80_000.0))
    slope = asymptotic_linearization(coefficients(instance)).slope
    boundary = 1.0 / np.max(np.abs(np.linalg.eigvals(slope)))
    inst = _write_instance(tmp_path, instance.with_demand_scale(fraction * boundary))
    out = tmp_path / "interval.csv"
    assert main(["solve", "--instance", str(inst), "--method", "newton",
                 "--interval-width", "1e-3", "--out", str(out)]) == 0
    comment, _, rows = _read_csv(out)
    assert "status=converged" in comment
    rho, upper = (np.array([float(row[k]) for row in rows]) for k in (1, 3))
    assert np.all(load_function(coefficients(load_instance(inst)), rho) >= rho)
    assert np.all(rho <= upper) and np.max(upper - rho) <= 1e-3


def test_feasibility_command(tmp_path, capsys):
    rng = np.random.default_rng(SEED + 3)
    good = _write_instance(tmp_path, random_instance(rng, 3, 4, radius_target=0.5), "good.json")
    bad = _write_instance(tmp_path, random_instance(rng, 3, 4, radius_target=1.5), "bad.json")
    assert main(["feasibility", "--instance", str(good)]) == 0
    assert capsys.readouterr().out.startswith("feasible")
    assert main(["feasibility", "--instance", str(bad)]) == 3
    out = capsys.readouterr().out
    assert out.startswith("infeasible")
    assert "spectral radius" in out


def test_sweep_csv_layout(tmp_path):
    rng = np.random.default_rng(SEED + 4)
    instance = random_instance(rng, 3, 4, radius_target=1.0)
    inst = _write_instance(tmp_path, instance)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--instance", str(inst), "--scales", "0.4:1.6:4",
                 "--out", str(out)]) == 0
    comment, header, rows = _read_csv(out)
    assert comment == "# scales=0.4:1.6:4"
    assert header == (["scale", "feasible", "spectral_radius", "status"]
                      + [f"rho_star_{i}" for i in (1, 2, 3)]
                      + [f"rho_lower_{i}" for i in (1, 2, 3)])
    assert [float(r[0]) for r in rows] == [0.4, 0.8, 1.2000000000000002, 1.6]
    assert [r[1] for r in rows] == ["1", "1", "0", "0"]
    assert rows[0][3] == "converged" and rows[-1][3] == "n/a"
    assert rows[-1][4] == "n/a"


def test_sweep_output_ignores_thread_env(tmp_path, monkeypatch):
    rng = np.random.default_rng(SEED + 5)
    inst = _write_instance(tmp_path, random_instance(rng, 3, 4, radius_target=0.8))
    outputs = []
    for value in (None, "1", "4", "zero"):
        if value is None:
            monkeypatch.delenv("LOADCOUPLE_THREADS", raising=False)
        else:
            monkeypatch.setenv("LOADCOUPLE_THREADS", value)
        out = tmp_path / f"sweep-{value}.csv"
        assert main(["sweep", "--instance", str(inst), "--scales", "0.2:1.0:5",
                     "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert all(o == outputs[0] for o in outputs)


def test_sweep_exit_code_flags_unconverged_rows(tmp_path, monkeypatch):
    rng = np.random.default_rng(SEED + 9)
    inst = _write_instance(tmp_path, random_instance(rng, 3, 4, radius_target=1.0))
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--instance", str(inst), "--scales", "0.9999:0.99995:2", "--out", str(out)]
    # this close to 1/rho(A) every row, the cold first one included, converges
    assert main(argv) == 0
    _, _, rows = _read_csv(out)
    assert [row[3] for row in rows] == ["converged", "converged"]
    # a budget of one iteration leaves a row unconverged: exit 4, CSV still written
    monkeypatch.setattr(solver, "SolverConfig", functools.partial(solver.SolverConfig, max_iter=1))
    out.unlink()
    assert main(argv) == 4
    _, _, rows = _read_csv(out)
    assert len(rows) == 2 and rows[0][3] == "max_iter_exceeded"


def test_boundary_command(tmp_path, capsys):
    rng = np.random.default_rng(SEED + 6)
    inst = _write_instance(tmp_path, random_instance(rng, 3, 4, radius_target=0.5))
    assert main(["boundary", "--instance", str(inst), "--lo", "1.0", "--hi", "8.0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("boundary scale ")
    scale = float(out.split()[2])
    assert 1.0 < scale < 8.0
    # precondition violations surface as the infeasibility exit code
    assert main(["boundary", "--instance", str(inst), "--lo", "4.0", "--hi", "8.0"]) == 3


def test_compare_command(tmp_path, capsys):
    rng = np.random.default_rng(SEED + 7)
    base = random_instance(rng, 3, 4, radius_target=0.6)
    a = _write_instance(tmp_path, base, "a.json")
    b = _write_instance(tmp_path, base.with_demand_scale(1.25), "b.json")
    out = tmp_path / "compare.csv"
    assert main(["compare", "--a", str(a), "--b", str(b), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("a_dominates")
    comment, header, rows = _read_csv(out)
    assert comment.startswith("# verdict=a_dominates boundary_a=")
    assert header[0] == "cell_id" and len(rows) == 3
    for row in rows:
        assert float(row[1]) < float(row[2])  # a's loads are lower cell by cell here


def test_bounds_command(tmp_path):
    rng = np.random.default_rng(SEED + 8)
    instance = random_instance(rng, 4, 5, radius_target=0.6)
    inst = _write_instance(tmp_path, instance)
    out = tmp_path / "bounds.csv"
    assert main(["bounds", "--instance", str(inst), "--out", str(out)]) == 0
    _, header, rows = _read_csv(out)
    assert header == ["cell_id", "rho_star", "rho_lower", "rho_upper",
                      "lower_gap_pct", "upper_gap_pct"]
    for row in rows:
        assert float(row[2]) <= float(row[1]) <= float(row[3]) + 1e-9
        assert float(row[4]) >= 0.0 and float(row[5]) >= 0.0
    # infeasible instances are a failure for this command
    heavy = _write_instance(tmp_path, instance.with_demand_scale(3.0), "heavy.json")
    assert main(["bounds", "--instance", str(heavy)]) == 3


def test_generate_and_rotate(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"users_per_cell_area": 4, "rng_seed": 3,
                                "shadow_sigma_db": 3.0}))
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    out_rot = tmp_path / "rot.json"
    assert main(["generate", "--spec", str(spec), "--out", str(out_a)]) == 0
    assert main(["generate", "--spec", str(spec), "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert main(["generate", "--spec", str(spec), "--out", str(out_rot),
                 "--rotate", "1:180"]) == 0
    doc = json.loads(out_rot.read_text())
    assert doc["cells"][0]["azimuth_deg"] == 180.0
    assert doc["cells"][1]["azimuth_deg"] == 120.0
    # rotating a cell that does not exist is invalid input
    assert main(["generate", "--spec", str(spec), "--out", str(out_rot),
                 "--rotate", "99:0"]) == 2
    assert main(["generate", "--spec", str(spec), "--out", str(out_rot),
                 "--rotate", "1-180"]) == 2


def test_invalid_inputs_exit_2(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["solve", "--instance", str(missing)]) == 2
    assert main(["feasibility", "--instance", str(missing)]) == 2

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["solve", "--instance", str(garbled)]) == 2

    instance = frozen_two_cell()
    broken = tmp_path / "broken.json"
    save_instance(instance, broken)
    doc = json.loads(broken.read_text())
    doc["pixels"][0]["demand_bits"] = -5.0
    broken.write_text(json.dumps(doc))
    assert main(["solve", "--instance", str(broken)]) == 2

    stale = tmp_path / "stale.json"
    save_instance(instance, stale)
    doc = json.loads(stale.read_text())
    doc["version"] = 2
    stale.write_text(json.dumps(doc))
    assert main(["solve", "--instance", str(stale)]) == 2

    good = tmp_path / "good.json"
    save_instance(instance, good)
    assert main(["sweep", "--instance", str(good), "--scales", "0:1:3"]) == 2
    assert main(["sweep", "--instance", str(good), "--scales", "1:2"]) == 2
    assert main(["boundary", "--instance", str(good), "--lo", "2", "--hi", "1"]) == 2
    assert main(["boundary", "--instance", str(good), "--lo", "1", "--hi", "2", "--tol", "0"]) == 2

    badspec = tmp_path / "badspec.json"
    badspec.write_text(json.dumps({"carrier_mhz": 2000}))
    assert main(["generate", "--spec", str(badspec), "--out", str(tmp_path / "x.json")]) == 2


@pytest.mark.parametrize("field,value", [
    ("users_per_cell_area", 2.5),
    ("rng_seed", 1.5),
    ("num_sites", True),
    ("tx_power_dbm", False),
    ("carrier_ghz", "2"),
    ("wraparound", "no"),
    ("wraparound", 0),
])
def test_generate_rejects_mistyped_spec_field(tmp_path, capsys, field, value):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"users_per_cell_area": 4, field: value}))
    assert main(["generate", "--spec", str(spec), "--out", str(tmp_path / "x.json")]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def _set_num_resource_units(doc):
    doc["num_resource_units"] = 100.7


def _set_cell_id(doc):
    doc["cells"][1]["id"] = 2.6


def _set_pixel_id(doc):
    doc["pixels"][0]["id"] = True


def _set_serving_pair(doc):
    doc["serving"][0] = [1, 1.5]


@pytest.mark.parametrize("mutate", [_set_num_resource_units, _set_cell_id, _set_pixel_id,
                                    _set_serving_pair])
def test_solve_rejects_non_integer_instance_field(tmp_path, capsys, mutate):
    path = _write_instance(tmp_path, frozen_two_cell())
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))
    assert main(["solve", "--instance", str(path)]) == 2
    assert "must be of type int" in capsys.readouterr().err


@pytest.mark.parametrize("where,field,value", [
    ("cells", "power_per_ru_w", True),
    ("cells", "x_m", "60"),
    ("cells", "y_m", float("nan")),
    ("cells", "azimuth_deg", False),
    ("pixels", "demand_bits", "60"),
    ("pixels", "x_m", float("nan")),
    ("pixels", "y_m", True),
    (None, "noise_power_w", float("nan")),
    (None, "rate_scale", "1"),
    (None, "gains_db", [["-70.0", -70.0, -70.0, -70.0], [-70.0] * 4]),
    (None, "gains_db", [[-70.0] * 4, [-70.0, -70.0, True, -70.0]]),
    (None, "wrap_periods_m", [["750", "0"], [True, "866"]]),
    (None, "wrap_periods_m", [[750.0, 0.0], [True, 866.0]]),
])
def test_solve_rejects_non_float_instance_field(tmp_path, capsys, where, field, value):
    path = _write_instance(tmp_path, frozen_two_cell())
    doc = json.loads(path.read_text())
    (doc if where is None else doc[where][0])[field] = value
    path.write_text(json.dumps(doc))  # a nan is written as the JSON extension NaN
    assert main(["solve", "--instance", str(path)]) == 2
    err = capsys.readouterr().err
    assert field in err and "must be of type float" in err


def test_unknown_command_is_argparse_error():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.skipif(shutil.which("loadcouple") is None, reason="entry point not installed")
def test_console_script_smoke(tmp_path):
    inst = _write_instance(tmp_path, frozen_two_cell())
    proc = subprocess.run(
        ["loadcouple", "feasibility", "--instance", str(inst)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("feasible")


def test_module_entry_point(tmp_path):
    inst = _write_instance(tmp_path, frozen_two_cell())
    proc = subprocess.run(
        [sys.executable, "-m", "loadcouple.cli", "feasibility", "--instance", str(inst)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("feasible")
