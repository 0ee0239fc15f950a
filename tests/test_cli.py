import argparse
import contextlib
import csv
import dataclasses
import functools
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import loadcouple
from helpers import build_instance, frozen_two_cell, random_instance
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
    validate,
)
from loadcouple.cli import _build_parser, main

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
    expected = solve(load_instance(inst), SolverConfig(tol_residual=1e-12))
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


def test_compare_without_perron_root_reports_infinite_boundaries(tmp_path, capsys):
    nilpotent = build_instance([[1e-7, 1e-7], [1e-8, 1e-8]], demands=[10, 20], powers=[1, 1],
                               noise=1e-9)
    inst = _write_instance(tmp_path, nilpotent)
    out = tmp_path / "compare.csv"
    assert main(["compare", "--a", str(inst), "--b", str(inst), "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("equal (boundary a inf, b inf)")
    comment, _, _ = _read_csv(out)
    assert comment == "# verdict=equal boundary_a=inf boundary_b=inf"


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


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _stdout_digest(argv) -> str:
    """sha256 of one CLI run's exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return _sha256(f"{code}\n{out.getvalue()}".encode())


FROZEN_COMMANDS = [
    ("solve", []),
    ("feasibility", []),
    ("bounds", []),
    ("sweep", ["--scales", "1:16:8"]),
    ("boundary", ["--lo", "0.01", "--hi", "100"]),
]

# sha256 of every instance file ``generate`` writes for the seed-7 scenarios
# with 9 and 36 cells (80 kbit per user), unrotated and with cell 2 turned
# to 45 degrees, and of every command's exit code and stdout on them; the
# sweep crosses the feasibility boundary of both sizes
FROZEN_FILES = {
    "n9": "a724209a0c37ef5eba55bafbd98af7ffe17dbdc69c3c2e5bdbffa2b48fe04b33",
    "n9_rot": "9ce0e43e08fde82430edc7f53172e8c00cdaaf85025a935c7f15a1446c8d4f24",
    "n36": "05bc6e3bf89bf9145b06b237804cdef2b603806483ac057bddec752d252051ef",
    "n36_rot": "c535e2b36dada001f12a5f22d248b6654a224c3bda1eb6665ba75a0be98ff532",
}
FROZEN_STDOUT = {
    "n9 solve": "ef9356173c37b1598f8424d22a007afe52ad606134fc0f68405946453d5c0ed2",
    "n9 feasibility": "20e65291ccad69561e4c1ffca5b74346c5cf8f39777040c184f41241a6db536f",
    "n9 bounds": "c40fbc0970684cc50bffd8680bc14f74827e15bb4744cb88bd176617f75ff7d6",
    "n9 sweep": "3afd9f326ff47f268a80b79438500f6c920939bfcbc3b01150c5227c4a623f3b",
    "n9 boundary": "048e8472aadecbc8d91f630ffdd4a3e7732b4595e3179964942c9bb36c1587df",
    "n9_rot solve": "ad4e83a5202402372e2ae3e9d4aefc8ed712f591e510b85edc1f4309a5b53431",
    "n9_rot feasibility": "37cf64ef6a49bfed7768b6ea581508b810624e02867dceda7761b5dcb0db0c3c",
    "n9_rot bounds": "d8fc7f18189b07a2b6fc55f9e5644ba1a22187c4561ec2bf3559c032d0a9c371",
    "n9_rot sweep": "86469b69e211077758628170c9ceab7cfb3c3b9d14a786e5f7478775ad4b7a99",
    "n9_rot boundary": "effd99f38fab5a08ac1a401f3d2d1844ea57626f8d127cbcd13ffce8393839f3",
    "n9 compare": "3467429a628c4af7c6802533129cd5e27ccc394a306506fb51c6229d3601ce7f",
    "n36 solve": "cc79730438401a01edc1bcc8b18d35514755427e63b82a044380f9e9f300a117",
    "n36 feasibility": "622cb05e6a92dd26d1b7a326d98fa54f568c2ef900814c18825ce47d877f749b",
    "n36 bounds": "7fb241a7c60271ee20195ef65f45cfcf42f0ea9f302b2ff92791db0a9921911b",
    "n36 sweep": "6dd0ed20caf80bf7070000a4eb39c6bab8a4ebc343814e3383745b3507304575",
    "n36 boundary": "5816ca67f76f729da4a67aebb6f5c8c4a11a33bde7136e7b4fd1f5cb783b0ad9",
    "n36_rot solve": "e55c006ecbf228aabe17f3c92b7b656d01fcbb35eeb5f57dc56250853e0bc1aa",
    "n36_rot feasibility": "c08b4196688a8d818db5c74f6d1e170a7daf0d97be8b91e1fd0848ef30970086",
    "n36_rot bounds": "10abe3c4a3db59f48c22fab7743d44d1f6dadfc64d6765355d6100a5d08495fa",
    "n36_rot sweep": "1240a604838ac655e4237ff6a02d00d2240340e5967b0ff7a8ecd491ef670b63",
    "n36_rot boundary": "5d001589ee2412fc24194eca3b701d19cc875d208012067858c55bbd13ef66f4",
    "n36 compare": "3ea173b4bf895d13f7c7a5213db104f2f3b3f8742eac7cedfd365c4e49778048",
}


@pytest.fixture(scope="module")
def frozen_outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("frozen")
    files, stdout = {}, {}
    for name, sites in (("n9", 3), ("n36", 12)):
        spec = root / f"{name}_spec.json"
        spec.write_text(json.dumps({"num_sites": sites, "rng_seed": 7,
                                    "demand_bits_per_user": 80_000.0}))
        paths = [root / f"{name}.json", root / f"{name}_rot.json"]
        for path, rotate in zip(paths, ([], ["--rotate", "2:45"])):
            _stdout_digest(["generate", "--spec", str(spec), "--out", str(path), *rotate])
            files[path.stem] = _sha256(path.read_bytes())
            for command, extra in FROZEN_COMMANDS:
                stdout[f"{path.stem} {command}"] = _stdout_digest(
                    [command, "--instance", str(path), *extra])
        stdout[f"{name} compare"] = _stdout_digest(
            ["compare", "--a", str(paths[0]), "--b", str(paths[1])])
    return files, stdout


def test_generate_writes_frozen_files(frozen_outputs):
    assert frozen_outputs[0] == FROZEN_FILES


def test_cli_stdout_is_frozen(frozen_outputs):
    assert frozen_outputs[1] == FROZEN_STDOUT


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
    for width in ("0", "-1", "nan"):
        assert main(["solve", "--instance", str(good), "--interval-width", width]) == 2
    assert main(["sweep", "--instance", str(good), "--scales", "0:1:3"]) == 2
    assert main(["sweep", "--instance", str(good), "--scales", "1:2"]) == 2
    assert main(["boundary", "--instance", str(good), "--lo", "2", "--hi", "1"]) == 2
    assert main(["boundary", "--instance", str(good), "--lo", "1", "--hi", "2", "--tol", "0"]) == 2
    # s*(1 -+ delta) rounds to s* itself, so no two verdicts can certify the boundary
    assert main(["boundary", "--instance", str(good), "--lo", "1", "--hi", "10", "--tol", "1e-16"]) == 2

    badspec = tmp_path / "badspec.json"
    badspec.write_text(json.dumps({"carrier_mhz": 2000}))
    assert main(["generate", "--spec", str(badspec), "--out", str(tmp_path / "x.json")]) == 2


@pytest.mark.parametrize("scales", ["1:inf:3", "-inf:1:2", "nan:1:2", "1:nan:2"])
def test_sweep_rejects_non_finite_scales_with_one_error_line(tmp_path, capsys, scales):
    path = _write_instance(tmp_path, frozen_two_cell())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["sweep", "--instance", str(path), f"--scales={scales}"]) == 2
    assert caught == []
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "finite" in err, err


def _set_gain_db(doc):
    doc["gains_db"][0][0] = 1e300


MALFORMED = {
    "cells=5": lambda doc: doc.update(cells=5),
    "pixels=null": lambda doc: doc.update(pixels=None),
    "serving=null": lambda doc: doc.update(serving=None),
    "num_resource_units=10**400": lambda doc: doc.update(num_resource_units=10**400),
    # orjson reads a literal of 2**64 or more as a float, here 2**64 exactly
    "num_resource_units=2**64+1": lambda doc: doc.update(num_resource_units=2**64 + 1),
    "power_per_ru_w=5e-324": lambda doc: doc["cells"][0].update(power_per_ru_w=5e-324),
    "gains_db=1e300": _set_gain_db,
    # valid numbers whose coefficients' reciprocals overflow in the load map
    "noise_power_w=5e-324": lambda doc: doc.update(noise_power_w=5e-324),
    "rate_scale=5e-324": lambda doc: doc.update(rate_scale=5e-324),
    "power_per_ru_w=1e308": lambda doc: doc["cells"][0].update(power_per_ru_w=1e308),
    # True == 1 in Python
    "version=true": lambda doc: doc.update(version=True),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_instance_exits_2_with_one_error_line(tmp_path, capsys, case):
    rng = np.random.default_rng(SEED + 30)
    path = _write_instance(tmp_path, random_instance(rng, 3, 2, radius_target=0.5))
    doc = json.loads(path.read_text())
    MALFORMED[case](doc)
    path.write_text(json.dumps(doc))
    for command, extra in (("solve", []), ("feasibility", []), ("sweep", ["--scales", "0.5:1:2"]),
                           ("boundary", ["--lo", "0.1", "--hi", "10"]), ("bounds", [])):
        assert main([command, "--instance", str(path), *extra]) == 2, command
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (command, err)


@pytest.fixture(scope="module")
def fuzz_doc(tmp_path_factory):
    """A small valid n=3 instance file, parsed: the document every mutation starts from."""
    rng = np.random.default_rng(SEED + 31)
    path = tmp_path_factory.mktemp("fuzz") / "base.json"
    save_instance(random_instance(rng, 3, 2, radius_target=0.5), path)
    return json.loads(path.read_text())


# every top-level field, every field of one cell and one pixel, one gain row and
# one gain, one serving pair and both its entries
FUZZ_PATHS = ([(key,) for key in ("version", "noise_power_w", "num_resource_units", "rate_scale",
                                  "cells", "pixels", "gains_db", "serving")]
              + [("cells", 0, key) for key in ("id", "power_per_ru_w", "x_m", "y_m", "azimuth_deg")]
              + [("pixels", 0, key) for key in ("id", "demand_bits", "x_m", "y_m")]
              + [("cells", 0), ("pixels", 0), ("gains_db", 0), ("gains_db", 0, 0),
                 ("serving", 0), ("serving", 0, 0), ("serving", 0, 1)])
DELETE = object()
# other JSON types, subnormal, huge and out-of-range numbers, and deletion
FUZZ_VALUES = [None, True, False, "1", [], {}, 0, -1, 1, 2, 1.5, 5e-324, -5e-324, 1e-300,
               1e300, 1e308, -1e308, 10**400, DELETE]
FUZZ_COMMANDS = [("solve", []), ("feasibility", []), ("sweep", ["--scales", "0.5:1:2"]),
                 ("boundary", ["--lo", "0.1", "--hi", "10"]), ("bounds", [])]


@settings(max_examples=100)
@given(path=st.sampled_from(FUZZ_PATHS), value=st.sampled_from(FUZZ_VALUES))
def test_mutated_schema_field_exits_cleanly_property(tmp_path_factory, fuzz_doc, path, value):
    """One field set to another type or an extreme number, or deleted: a documented exit, no warning.

    Exit 0 comes with an empty stderr, and only from an instance that
    validates and has finite coefficients; exit 2, 3 or 4 with one
    ``error:`` line or none.  An exception escaping ``main`` fails the test.
    """
    doc = json.loads(json.dumps(fuzz_doc))
    *parents, last = path
    owner = functools.reduce(lambda node, key: node[key], parents, doc)
    if value is DELETE:
        del owner[last]
    else:
        owner[last] = value
    instance = tmp_path_factory.getbasetemp() / "fuzz.json"
    instance.write_text(json.dumps(doc))
    for command, extra in FUZZ_COMMANDS:
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = main([command, "--instance", str(instance), *extra])
        assert not caught, (command, [str(w.message) for w in caught])
        assert code in (0, 2, 3, 4), (command, code)
        err = err.getvalue()
        assert err == "" or (code != 0 and err.startswith("error: ") and err.count("\n") == 1), \
            (command, code, err)
        if code == 0:
            loaded = load_instance(instance)
            assert validate(loaded) == [], command
            cc = coefficients(loaded)
            arrays = [getattr(cc, f.name) for f in dataclasses.fields(cc)]
            assert all(np.all(np.isfinite(a)) for a in arrays if isinstance(a, np.ndarray)), command


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


def test_generate_rejects_a_spec_whose_instance_cannot_be_written(tmp_path, capsys):
    """A duration of 1e20 s gives 2**64 or more resource units, more than a file can carry."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"num_sites": 1, "users_per_cell_area": 2, "duration_s": 1e20}))
    assert main(["generate", "--spec", str(spec), "--out", str(tmp_path / "x.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "64-bit" in err
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
    ("cells", "power_per_ru_w", float("inf")),
    ("cells", "x_m", float("-inf")),
    (None, "gains_db", [[float("inf"), -70.0, -70.0, -70.0], [-70.0] * 4]),
    (None, "gains_db", [[-70.0] * 4, [-70.0, float("-inf"), -70.0, -70.0]]),
])
def test_solve_rejects_non_float_instance_field(tmp_path, capsys, where, field, value):
    path = _write_instance(tmp_path, frozen_two_cell())
    doc = json.loads(path.read_text())
    (doc if where is None else doc[where][0])[field] = value
    path.write_text(json.dumps(doc))  # nan and inf are written as the JSON extensions NaN, Infinity
    assert main(["solve", "--instance", str(path)]) == 2
    err = capsys.readouterr().err
    assert field in err and "must be of type float" in err


def test_unknown_command_is_argparse_error():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_solve_method_takes_only_the_full_names(tmp_path):
    inst = _write_instance(tmp_path, frozen_two_cell())
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--instance", str(inst), "--method", "fp"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--instance", str(inst), "--method", "fixed_point"])
    assert exc.value.code == 2


def _readme_usage():
    """Subcommand -> {--flag: the word after it} from the README's command line block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    usage = {}
    for line in block.splitlines():
        words = line.split()
        if words[:1] == ["loadcouple"]:
            command = usage.setdefault(words[1], {})
        for flag, value in re.findall(r"(--[\w-]+)(?:\s+([^\s\[\]]+))?", line):
            command[flag] = value
    return usage


def test_readme_usage_matches_parser():
    """The README's usage block names the parser's subcommands, flags and choices."""
    usage = _readme_usage()
    parser = _build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert set(usage) == set(commands)
    for name, sub in commands.items():
        options = {flag: action for action in sub._actions for flag in action.option_strings
                   if flag.startswith("--") and flag != "--help"}
        assert set(usage[name]) == set(options), name
        for flag, action in options.items():
            if action.choices is not None:
                assert set(usage[name][flag].split("|")) == set(action.choices), (name, flag)


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


def test_cli_import_loads_no_scipy():
    """Every command pays the CLI's imports before it reads a byte; scipy is not among them."""
    src = str(Path(loadcouple.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, loadcouple.cli; "
                               "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_every_exported_name_resolves():
    assert len(set(loadcouple.__all__)) == len(loadcouple.__all__)
    missing = [name for name in loadcouple.__all__ if not hasattr(loadcouple, name)]
    assert not missing
