import argparse
import contextlib
import csv
import dataclasses
import functools
import hashlib
import inspect
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import frozen
import loadcouple
from helpers import build_instance, csv_row_reference, frozen_two_cell, random_instance
from loadcouple import (
    ScenarioSpec,
    SolverConfig,
    asymptotic_linearization,
    coefficients,
    feasibility_boundary,
    generate,
    linfeas,
    load_function,
    load_instance,
    load_scenario_spec,
    save_instance,
    solve,
    solver,
    validate,
)
from loadcouple.cli import _build_parser, _csv_row, main

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


def test_sweep_output_ignores_thread_env(tmp_path, capsys):
    # a sweep stacks its rows' products, which OpenBLAS would split among its threads
    # in a way that moves last bits; the stacks run on one thread, so the count does not
    # show: this process's sweep prints the bytes of subprocesses on 1 and 2 threads
    n81 = _write_instance(tmp_path, generate(ScenarioSpec(num_sites=27, rng_seed=7, demand_bits_per_user=80_000.0)),
                          "n81.json")
    src = str(Path(loadcouple.__file__).parents[1])
    for scales in ("0.5:4:12", "0.1:4:32"):  # the longer grid moved bits on two threads, unpinned
        capsys.readouterr()
        assert main(["sweep", "--instance", str(n81), "--scales", scales]) == 0
        stdouts = [capsys.readouterr().out.encode()]
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            proc = subprocess.run([sys.executable, "-m", "loadcouple.cli", "sweep", "--instance", str(n81),
                                   "--scales", scales], capture_output=True, env=env)
            assert proc.returncode == 0, proc.stderr
            stdouts.append(proc.stdout)
        assert stdouts[1] == stdouts[0] and stdouts[2] == stdouts[0], scales


def test_sweep_exit_code_flags_unconverged_rows(tmp_path, monkeypatch):
    rng = np.random.default_rng(SEED + 9)
    inst = _write_instance(tmp_path, random_instance(rng, 3, 4, radius_target=1.0))
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--instance", str(inst), "--scales", "0.9999:0.99995:2", "--out", str(out)]
    # this close to 1/rho(A) every row converges from its own asymptotic solution
    assert main(argv) == 0
    _, _, rows = _read_csv(out)
    assert [row[3] for row in rows] == ["converged", "converged"]
    # a budget of one iteration leaves a row unconverged: exit 4, CSV still written
    monkeypatch.setattr(solver, "SolverConfig", functools.partial(solver.SolverConfig, max_iter=1))
    out.unlink()
    assert main(argv) == 4
    _, _, rows = _read_csv(out)
    assert len(rows) == 2 and rows[0][3] == "max_iter_exceeded"


def test_bounds_and_compare_exit_code_flags_unconverged_solves(tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(SEED + 9)
    instance = random_instance(rng, 3, 4, radius_target=1.0)
    a = _write_instance(tmp_path, instance.with_demand_scale(0.9999), "a.json")
    b = _write_instance(tmp_path, instance.with_demand_scale(0.99995), "b.json")
    bounds, compare = tmp_path / "bounds.csv", tmp_path / "compare.csv"
    argvs = [["bounds", "--instance", str(a), "--out", str(bounds)],
             ["compare", "--a", str(a), "--b", str(b), "--out", str(compare)]]
    assert [main(argv) for argv in argvs] == [0, 0]
    stdout = capsys.readouterr().out
    # a budget of one iteration leaves the solves unconverged: exit 4, CSV and stdout still written
    monkeypatch.setattr(solver, "SolverConfig", functools.partial(solver.SolverConfig, max_iter=1))
    assert solve(load_instance(a)).status == "max_iter_exceeded"
    for path in (bounds, compare):
        path.unlink()
    assert [main(argv) for argv in argvs] == [4, 4]
    # the boundaries need no solve, so compare prints the same ones
    assert capsys.readouterr().out.split(" (")[1] == stdout.split(" (")[1]
    for path in (bounds, compare):
        _, _, rows = _read_csv(path)
        assert len(rows) == 3 and all(row[1] != "n/a" for row in rows)


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


def test_generated_instances_never_take_the_dense_eigenvalue_solve(tmp_path, monkeypatch, capsys):
    """Every command reads the Perron root of the seed-7 n=36 files from the Perron iteration."""
    instance = generate(ScenarioSpec(num_sites=12, rng_seed=7, demand_bits_per_user=80_000.0))
    a = _write_instance(tmp_path, instance, "n36.json")
    b = _write_instance(tmp_path, loadcouple.rotate_sector(instance, 2, 45.0), "n36_rot.json")

    def no_eigvals(matrix):
        raise np.linalg.LinAlgError("the dense eigenvalue solve was called")

    monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
    for argv in (["solve", "--instance", str(a)], ["feasibility", "--instance", str(a)],
                 ["sweep", "--instance", str(a), "--scales", "1:16:8"],
                 ["boundary", "--instance", str(a), "--lo", "0.01", "--hi", "100"],
                 ["compare", "--a", str(a), "--b", str(b)]):
        assert main(argv) == 0, argv
    assert "spectral radius 0.15303198818935" in capsys.readouterr().out


def test_every_command_on_one_file_computes_one_perron_root(tmp_path, monkeypatch):
    """The five commands that print or divide by rho(A), run on one file in one process, compute it once.

    Each load returns the instance the first one parsed, whose model keeps the radius.
    """
    path = _write_instance(tmp_path, random_instance(np.random.default_rng(SEED + 70), 4, 5, radius_target=0.7))
    radii = []
    original = linfeas.spectral_radius
    monkeypatch.setattr(linfeas, "spectral_radius", lambda matrix: radii.append(1) or original(matrix))
    for argv in (["solve", "--instance", str(path)], ["feasibility", "--instance", str(path)],
                 ["sweep", "--instance", str(path), "--scales", "1:2:3"],
                 ["boundary", "--instance", str(path), "--lo", "0.5", "--hi", "4"],
                 ["compare", "--a", str(path), "--b", str(path)]):
        assert main(argv) == 0, argv
    assert len(radii) == 1


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


@pytest.mark.parametrize("azimuth", ["nan", "inf"])
def test_generate_rejects_a_non_finite_rotation(tmp_path, capsys, azimuth):
    spec, out = tmp_path / "spec.json", tmp_path / "out.json"
    spec.write_text(json.dumps({"num_sites": 3, "rng_seed": 7}))
    assert main(["generate", "--spec", str(spec), "--out", str(out), "--rotate", f"1:{azimuth}"]) == 2
    assert "azimuth_deg must be finite, got non-finite values" in capsys.readouterr().err
    assert not out.exists()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# sha256 of every instance file ``generate`` writes for the seed-7 scenarios
# with 9 and 36 cells (80 kbit per user), unrotated and with cell 2 turned
# to 45 degrees, and with 9 cells overloaded (1.6 Mbit per user), and of
# every command's exit code and stdout on them, with the files parsed (cold)
# and then found among the loaded instances (warm; see tests/frozen.py, which
# also compares two versions before a re-pin); the sweep crosses the
# feasibility boundary of both sizes, and the overloaded file gives every
# table's infeasible rows: exit 3 from solve, feasibility and bounds, a sweep
# of infeasible scales, and a compare with one side infeasible
FROZEN_FILES = {
    "n9": "a724209a0c37ef5eba55bafbd98af7ffe17dbdc69c3c2e5bdbffa2b48fe04b33",
    "n9_rot": "9ce0e43e08fde82430edc7f53172e8c00cdaaf85025a935c7f15a1446c8d4f24",
    "n36": "05bc6e3bf89bf9145b06b237804cdef2b603806483ac057bddec752d252051ef",
    "n36_rot": "c535e2b36dada001f12a5f22d248b6654a224c3bda1eb6665ba75a0be98ff532",
    "n9_over": "6fb1e69416f4bb57617495998f2f25bc8225aa9b7334299d6ab2138fee09f827",
}
FROZEN_STDOUT = {
    "n9 solve": "1682be1ab357a6568f803741f7563fbe313a473b68d52e03d4be968e8ae71735",
    "n9 feasibility": "dbe4104ae1dc8f5c453c522ce5b00020564553407f584e1f2062a426dec4dc7f",
    "n9 bounds": "a5a3ee06d64a6238f75052668759db93dfee2f269b1b7b5b0211a85ccd9f8150",
    "n9 sweep": "302e95038fcc518c2c390f279e3447b478eedb3c35604cf02c3d4084118b95f8",
    "n9 boundary": "cd65c5d47ed3158c4c8c3c11899a092cc09a4ca90942335262306257c28944ff",
    "n9_rot solve": "65c591890dc3f44d3e012329249242a601908ec34dc57157607c5a0e2d7ea847",
    "n9_rot feasibility": "953ec07cce0b8af205e74b16ad3ecc53027fefca4ebd1d87e3d895517d4b2585",
    "n9_rot bounds": "60a50a2b7cdc330ed7e8115d1bc27a81b701902daaabb9dfe265a002e3d009d9",
    "n9_rot sweep": "69a652f2d00e99b465552e3099defe3e2c4e51777b3681eaf18c2dbe42046dae",
    "n9_rot boundary": "9ad2f9934bfb6faa73c63175fdbfb360644dcf6635dcea6eb5937b4c108cff16",
    "n9 compare": "5f3f06e2f35f937ecf774e737756c353a3d7f9b5a7ef6108c70f292da9891f9a",
    "n36 solve": "d1a2d4feb7843e0c3cd87b4c06b37713d4276afb9bbbb77d8f60513cca42a5df",
    "n36 feasibility": "f71d56987e20a9f5b76023c5e3c127279eb14baa6bc31f30b8258c7b49343aff",
    "n36 bounds": "2f7f3313e6cf8f826bb08146cf086a44e76413cd8c78c41f8925a8ed6e6cf257",
    "n36 sweep": "20772a8d78072e1d8badf699f85e4acfb0be900bdafe8d107349590c043af0e8",
    "n36 boundary": "12916d3490cada831a769025f68546aaa0d457fafa67435ba4eec0acc3dbe6b7",
    "n36_rot solve": "4e615c459142d410bb88a9e5e24cbff933a256c65b9c9522a41af358bc805483",
    "n36_rot feasibility": "4fa0cfb3b955b4495d6b683fe00968617abe3b7734deafce28164a8298d4165c",
    "n36_rot bounds": "1f929432a7d5b153364c3c3175463b6cda07c09bcfc99e32b72f70002189824f",
    "n36_rot sweep": "991a268ffd05583657486d8db1f4228b6dbbcdb9e5e975d53db5614436967c94",
    "n36_rot boundary": "3992b2ec6bf184a5d03aad684f4c6835bbe4d1540e834fd57ef0af5ae944686e",
    "n36 compare": "6703e565c6fad49232529a8bd67ec82fcde2c3e62323cfc43c497ee48a90502d",
    "n9_over solve": "ae12269f293a824d80a5f631b4b89c32c3a7ec519aadcc0e02aaf20fd117fc7d",
    "n9_over feasibility": "f642b201ebdc0223afaf7aa3e4ab1b28b3f95006da70f3b6072b743bd58e440e",
    "n9_over bounds": "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
    "n9_over sweep": "07f5051998d62f9a93c5ed75158a3fba5fbf48e3f58cb5ce413a86f53d40eb31",
    "n9_over boundary": "7936779f9566fb4a7fc11dbd919b544a562663fa70d9a813a04725922e6cf1f7",
    "n9_over compare": "99637cd4f721215776670d6fc41cf9952deb9231ac4d3da15804394d239ffb24",
}
# the stderr of every frozen output that writes any; every other output's is empty
FROZEN_STDERR = {
    "n9_over bounds": "error: no bound quality on an infeasible instance\n",
}


@pytest.fixture(scope="module")
def frozen_dumps():
    return frozen.dump()


@pytest.fixture(scope="module")
def frozen_dump(frozen_dumps):
    return frozen_dumps[0]


def test_generate_writes_frozen_files(frozen_dumps):
    for dumped in frozen_dumps:
        assert dumped["files"] == FROZEN_FILES


def test_cli_stdout_is_frozen(frozen_dumps):
    cold, warm = frozen_dumps
    for dumped in (cold, warm):
        digests = {key: _sha256(f"{o['code']}\n{o['stdout']}".encode())
                   for key, o in dumped["outputs"].items()}
        assert digests == FROZEN_STDOUT
        assert {key: o["stderr"] for key, o in dumped["outputs"].items() if o["stderr"]} == FROZEN_STDERR
    assert warm["outputs"] == cold["outputs"]


def test_frozen_diff_of_a_cold_and_a_warm_dump_shows_no_change(frozen_dumps, tmp_path, capsys):
    """The cold run parses every load and the warm run none, finding instances by the files' stat signatures."""
    cold, warm = (dumped["loads"] for dumped in frozen_dumps)
    assert cold == {"parse": 31, "content": 0, "signature": 0}
    assert warm["parse"] == 0 and warm["content"] + warm["signature"] == 31
    if loadcouple.netmodel._TRUSTS_SIGNATURES:
        assert warm["signature"] > 0
    paths = [tmp_path / "cold.json", tmp_path / "warm.json"]
    for dumped, path in zip(frozen_dumps, paths):
        path.write_text(json.dumps(dumped))
    capsys.readouterr()
    assert frozen.main(["diff", *map(str, paths)]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith("# 0 of 33 outputs differ: 0 of ") and line.endswith(", 0 text changes")


def test_frozen_diff_counts_moved_numbers_and_text_changes(frozen_dump, tmp_path, capsys):
    assert frozen.compare(frozen_dump, frozen_dump) == {}
    key = "n9 solve"
    out = frozen_dump["outputs"][key]["stdout"]
    total = len(frozen.NUMBER.findall(out))

    def with_output(**fields):
        return {**frozen_dump, "outputs": {**frozen_dump["outputs"], key: {**frozen_dump["outputs"][key], **fields}}}

    def bumped(match):  # one ulp up: its last printed digits change
        return with_output(stdout=out[:match.start()] + f"{np.nextafter(float(match.group()), np.inf):.17g}"
                           + out[match.end():])

    # the first long number is the residual in the "# key=value" comment
    first = next(m for m in frozen.NUMBER.finditer(out) if len(m.group()) > 15)
    moved = bumped(first)
    (change,) = frozen.compare(frozen_dump, moved).values()
    assert (change.moved, change.numbers, change.text) == (1, total, False)
    assert 0 < change.max_rel < 1e-14
    assert change.labels == ("residual",)
    # cell 2's lower load, labelled by its CSV header column
    row = out.index("\n2,")
    lower = list(frozen.NUMBER.finditer(out, row, out.index("\n", row + 1)))[2]
    (change,) = frozen.compare(frozen_dump, bumped(lower)).values()
    assert (change.moved, change.labels) == (1, ("rho_lower",))
    texted = with_output(stdout=out.replace("status=converged", "status=max_iter_exceeded"))
    assert frozen.compare(frozen_dump, texted) == {key: frozen.Change(0, total, 0.0, True)}
    errored = with_output(stderr="error: something else\n")
    assert frozen.compare(frozen_dump, errored) == {key: frozen.Change(0, total, 0.0, True)}
    paths = []
    for name, dump in (("a", frozen_dump), ("b", moved), ("c", texted), ("d", errored)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(dump))
    capsys.readouterr()
    assert frozen.main(["diff", str(paths[0]), str(paths[0])]) == 0
    assert capsys.readouterr().out.startswith("# 0 of 33 outputs differ")
    assert frozen.main(["diff", str(paths[0]), str(paths[1])]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith(f"{key}: 1 of {total} numbers moved") and line.endswith("(residual x1)")
    assert frozen.main(["diff", str(paths[0]), str(paths[2])]) == 1
    capsys.readouterr()
    assert frozen.main(["diff", str(paths[0]), str(paths[3])]) == 1
    assert capsys.readouterr().out.splitlines()[0] == f"{key}: 0 of {total} numbers moved, max rel 0  TEXT CHANGED"


def test_invalid_inputs_exit_2(tmp_path, capsys):
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
    capsys.readouterr()
    assert main(["solve", "--instance", str(broken)]) == 2
    assert capsys.readouterr().err == (f"error: {broken}: invalid instance: pixel_demand_negative: "
                                       "pixel 1: demand_bits must be finite and >= 0, got -5.0\n")

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


@pytest.mark.parametrize("scales", ["1:inf:3", "-inf:1:2", "nan:1:2", "1:nan:2", "1:16:1"])
def test_sweep_rejects_non_finite_scales_with_one_error_line(tmp_path, capsys, scales):
    path = _write_instance(tmp_path, frozen_two_cell())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["sweep", "--instance", str(path), f"--scales={scales}"]) == 2
    assert caught == []
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "finite" in err, err


@pytest.mark.parametrize("scales", ["1:2:2\n", " 1:2:2"])
def test_sweep_rejects_whitespace_in_scales_with_one_error_line(tmp_path, capsys, scales):
    """int() and float() would strip it, and the comment line would echo it, an empty line included."""
    path, out = _write_instance(tmp_path, frozen_two_cell()), tmp_path / "sweep.csv"
    assert main(["sweep", "--instance", str(path), f"--scales={scales}", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "whitespace" in err, err
    assert not out.exists()


# every kind of field a table row holds: cell ids and feasible flags, floats of both
# types at every magnitude (NaN, infinities, signed zeros and subnormals included),
# missing values and solve statuses
CSV_FIELDS = st.one_of(
    st.integers(),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e-300]),
    st.floats().map(np.float64),
    st.none(),
    st.sampled_from([solver.CONVERGED, solver.MAX_ITER_EXCEEDED, solver.INFEASIBLE]),
)


@given(st.lists(CSV_FIELDS, min_size=1, max_size=200))
@example([1, 0.30000000000000004, 0.29, math.nan, 3.3333333333333335, math.nan])  # bounds, no start_upper
def test_csv_row_prints_each_field_as_the_field_rule_does_property(row):
    assert _csv_row(row) == csv_row_reference(row)


def _profiler_events(argv) -> int:
    """Python ``call`` and ``c_call`` events in one in-process ``main(argv)``: a cost that machine load does not move."""
    events = 0

    def count(frame, event, arg):
        nonlocal events
        events += event in ("call", "c_call")

    with contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(count)
        try:
            code = main(argv)
        finally:
            sys.setprofile(None)
    assert code == 0
    return events


@pytest.fixture(scope="module")
def seed7_n36(tmp_path_factory):
    path = tmp_path_factory.mktemp("seed7") / "n36.json"
    save_instance(generate(ScenarioSpec(num_sites=12, rng_seed=7, demand_bits_per_user=80_000.0)), path)
    return str(path)


# counted at n=36: 1747, 3792 and 3206 events with one _fmt call per printed value and np.dot per
# cell's GEMV, 906, 1864 and 1976 without; solve's bound leaves 20% slack, the others 25%
@pytest.mark.parametrize("command, bound", [("solve", 1100), ("sweep", 2330), ("compare", 2470)])
def test_a_warm_table_command_makes_few_interpreter_calls(seed7_n36, command, bound):
    """A warm command spends its calls in its kernels: no Python call per printed value or per cell's GEMV."""
    argv = {"solve": ["solve", "--instance", seed7_n36],
            "sweep": ["sweep", "--instance", seed7_n36, "--scales", "1:16:8"],
            "compare": ["compare", "--a", seed7_n36, "--b", seed7_n36]}[command]
    _profiler_events(argv)  # loads the file, builds the model and the parser
    events = _profiler_events(argv)
    assert events <= bound, events


@contextlib.contextmanager
def _address_space_capped(slack=1 << 30):
    """The process may map at most ``slack`` bytes more while inside, so no oversized array is ever backed.

    numpy refuses these sizes by itself on a host that does not overcommit;
    the cap makes a host that does refuse them too.  Where there is no
    ``resource`` module or no ``/proc/self/statm``, the block runs uncapped.
    """
    try:
        import resource
        mapped = int(Path("/proc/self/statm").read_text().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    except (ImportError, OSError):
        yield
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = mapped + slack if hard == resource.RLIM_INFINITY else min(hard, mapped + slack)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.mark.parametrize("command", ["generate", "sweep"])
def test_an_input_too_large_to_allocate_exits_2_with_one_error_line(tmp_path, capsys, command):
    """A spec of 1e15 users per cell (128 PiB of draws) and a grid of 1e11 scales (800 GB): no traceback."""
    if command == "generate":
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"num_sites": 3, "users_per_cell_area": 1000000000000000}))
        argv = ["generate", "--spec", str(spec), "--out", str(tmp_path / "x.json")]
    else:
        path = _write_instance(tmp_path, frozen_two_cell())
        argv = ["sweep", "--instance", str(path), "--scales", "0.5:4:99999999999"]
    with _address_space_capped():
        code = main(argv)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1, err
    assert not (tmp_path / "x.json").exists()


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
    # periods that span no plane: collinear, and zero
    "wrap_periods_m=collinear": lambda doc: doc.update(wrap_periods_m=[[1000, 0], [2000, 0]]),
    "wrap_periods_m=zero": lambda doc: doc.update(wrap_periods_m=[[0, 0], [0, 0]]),
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


def _drop_last_pixel_gain(doc):
    for row in doc["gains_db"]:
        row.pop()


def _rename_azimuth(doc):
    doc["cells"][1]["azimuth"] = doc["cells"][1].pop("azimuth_deg")


def _rename_power(doc):
    doc["cells"][0]["power_per_ru"] = doc["cells"][0].pop("power_per_ru_w")


class _Repeating(dict):
    """A JSON object that ``json.dumps`` writes with its ``key`` once more, last."""

    def __init__(self, obj, key):
        super().__init__(obj)
        self.key = key

    def items(self):
        return [*super().items(), (self.key, self[self.key])]


def _repeat_in(block, k, key):
    """The mutation that writes ``key`` twice in ``doc[block][k]``."""
    def mutate(doc):
        doc[block][k] = _Repeating(doc[block][k], key)
    return mutate


# blocks of a shape only the gate rejects, fields the format does not define or
# that a cell or pixel lacks or mistypes, keys written twice and a top level that
# is not an object; the error each gives.  A mutation may return the document to
# write in place of the one it got.
REJECTED_BLOCKS = {
    "gains_db 3 x 5": (_drop_last_pixel_gain,
                       "invalid instance: gain_shape_mismatch: gains shape (3, 5) does not match (3, 6)"),
    "wrap_periods_m 2 x 3": (lambda doc: doc.update(wrap_periods_m=[[1000, 0, 0], [0, 1000, 0]]),
                             "invalid instance: geometry_shape_mismatch: wrap_periods must be of shape (2, 2), "
                             "got (2, 3)"),
    "top-level wrap_periods": (lambda doc: doc.update(wrap_periods=[[1000, 0], [0, 1000]]),
                               "unknown field 'wrap_periods'"),
    "cell azimuth": (_rename_azimuth, "cells[1]: unknown field 'azimuth'"),
    "pixel demand": (lambda doc: doc["pixels"][2].update(demand=1.0), "pixels[2]: unknown field 'demand'"),
    "cell power renamed": (_rename_power, "cells[0]: missing required field 'power_per_ru_w'"),
    "pixel x_m string": (lambda doc: doc["pixels"][3].update(x_m="1"),
                         "pixels[3]: x_m must be of type float, got '1'"),
    "top-level noise_power_w twice": (lambda doc: _Repeating(doc, "noise_power_w"),
                                      "duplicate field 'noise_power_w'"),
    "cell x_m twice": (_repeat_in("cells", 2, "x_m"), "cells[2]: duplicate field 'x_m'"),
    "pixel demand_bits twice": (_repeat_in("pixels", 4, "demand_bits"), "pixels[4]: duplicate field 'demand_bits'"),
    "top level [1, 2]": (lambda doc: [1, 2], "top level must be an object"),
}


@pytest.mark.parametrize("case", list(REJECTED_BLOCKS))
def test_misshaped_block_or_unknown_field_exits_2_naming_it(tmp_path, capsys, case):
    rng = np.random.default_rng(SEED + 30)
    path = _write_instance(tmp_path, random_instance(rng, 3, 2, radius_target=0.5))
    doc = json.loads(path.read_text())
    mutate, message = REJECTED_BLOCKS[case]
    path.write_text(json.dumps(mutate(doc) or doc))
    for command in ("solve", "feasibility"):
        assert main([command, "--instance", str(path)]) == 2, command
        assert capsys.readouterr().err == f"error: {path}: {message}\n", command


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
            assert validate(loaded) is None, command
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
    assert err.startswith("error: invalid instance: resource_units_nonpositive: ") and err.count("\n") == 1
    assert not (tmp_path / "x.json").exists()


# each exited 1 with a traceback, wrote a file that every other command rejects, took the last of
# two values of one field, or named neither the field nor the file; the text each error must name.
# A surrogate escape is written as the byte it escapes, here 0xff.
UNGENERATABLE_SPECS = {
    '{"tx_power_dbm": 4000}': "cell_power_nonpositive",  # 10 ** 397 W overflowed
    '{"bandwidth_mhz": 1e308}': "'bandwidth_mhz' gives inf resource blocks",  # round(inf)
    '{"duration_s": 1e308}': "'duration_s' gives inf milliseconds",
    '{"bandwidth_mhz": 0.01}': "'bandwidth_mhz' gives 0.05 resource blocks",  # divided by 0 blocks
    '{"antenna_gain_dbi": 5000}': "gain_nonpositive",
    '{"inter_site_distance_m": 1e308}': "gain_nonpositive",
    '{"carrier_ghz": 1e-300}': "gain_nonpositive",
    '{"duration_s": 1e-6}': "'duration_s' gives 0.001 milliseconds",
    '{"num_sites": 3, "rng_seed": 7, "num_sites": 12}': "'num_sites' given more than once",
    '{"rng_seed": -1}': "spec.json: scenario field 'rng_seed' must be >= 0",
    '{"num_sites": ' + "[" * 1000 + "]" * 1000 + "}": "spec.json: JSON nested too deeply to read",
    '{"num_sites": "\udcff"}': "spec.json: not valid UTF-8 at byte 15",
    '{"rng_seed": ' + "1" * 5000 + "}": f"spec.json: JSON integer has more than {sys.get_int_max_str_digits()} digits",
}


@pytest.mark.parametrize("text", list(UNGENERATABLE_SPECS))
def test_generate_rejects_a_spec_with_one_error_line_and_writes_nothing(tmp_path, capsys, text):
    spec, out = tmp_path / "spec.json", tmp_path / "x.json"
    spec.write_bytes(text.encode(errors="surrogateescape"))
    assert main(["generate", "--spec", str(spec), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and UNGENERATABLE_SPECS[text] in err, err
    assert not out.exists()


@pytest.mark.parametrize("command,field,value", [
    ("generate", "num_sites", "a" * 100_000),
    ("generate", "num_sites", json.loads("[" * 900 + "]" * 900)),
    ("generate", "duration_s", list(range(10_000))),
    ("solve", "noise_power_w", "1" * 100_000),
], ids=["long_string", "deep_list", "long_list", "instance_long_string"])
def test_a_mistyped_field_gives_a_short_error_line_naming_the_field(tmp_path, capsys, command, field, value):
    """The error shows the value abbreviated: at most a few dozen characters of it."""
    if command == "generate":
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({field: value}))
        argv = ["generate", "--spec", str(path), "--out", str(tmp_path / "x.json")]
    else:
        path = _write_instance(tmp_path, frozen_two_cell())
        doc = json.loads(path.read_text())
        doc[field] = value
        path.write_text(json.dumps(doc))
        argv = ["solve", "--instance", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err[:300]
    assert f"{field}' must be of type" in err or f"{field} must be of type" in err, err[:300]
    assert len(err.encode()) < len(str(path)) + 150, err


def test_generate_reports_a_rule_broken_at_every_cell_once(tmp_path, capsys):
    """All 243 cells' powers overflow: one entry names the first cell and counts the others."""
    spec, out = tmp_path / "spec.json", tmp_path / "x.json"
    spec.write_text(json.dumps({"num_sites": 81, "tx_power_dbm": 4000}))
    assert main(["generate", "--spec", str(spec), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == ("error: invalid instance: cell_power_nonpositive: cell 1: power_per_ru must be positive "
                   "and finite, got inf (and 242 more)\n")
    assert len(err.encode()) < 200
    assert not out.exists()


_FLOAT_SPEC_FIELDS = [f.name for f in dataclasses.fields(ScenarioSpec) if f.type == "float"]
# the ends of the float range, the smallest subnormal and a power or gain of 4000 dB
_EXTREMES = st.sampled_from([1e308, -1e308, 5e-324, -5e-324, 4000.0, -4000.0, 0.0, 1e-300])


# what a spec field's value may be drawn from: every JSON scalar, and the extremes
_SPEC_VALUES = st.one_of(st.integers(), st.integers(-2**53, 2**53).map(float), st.floats(), st.booleans(),
                         st.text(max_size=3), st.none(), _EXTREMES)


@settings(max_examples=300, deadline=None)
@given(doc=st.dictionaries(st.sampled_from([f.name for f in dataclasses.fields(ScenarioSpec)]), _SPEC_VALUES))
@example(doc={"num_sites": "3"})
@example(doc={"wraparound": 1})
@example(doc={"num_sites": 4.0, "rng_seed": -1})
def test_a_spec_built_in_python_and_one_read_from_a_file_agree_property(doc):
    """``ScenarioSpec(**doc)`` and the spec file of ``doc`` give equal specs, or the same SchemaError."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_text(json.dumps(doc))
        try:
            built = ScenarioSpec(**doc)
        except loadcouple.SchemaError as exc:
            with pytest.raises(loadcouple.SchemaError) as info:
                load_scenario_spec(path)
            assert str(info.value) == f"{path}: {exc}"
        else:
            assert load_scenario_spec(path) == built


@st.composite
def _extreme_specs(draw):
    """A small spec with up to four of its float fields at an extreme."""
    doc = {"num_sites": draw(st.integers(1, 4)), "sectors_per_site": draw(st.integers(1, 3)),
           "users_per_cell_area": draw(st.integers(1, 3)), "rng_seed": draw(st.integers(0, 2**32))}
    for name in draw(st.sets(st.sampled_from(_FLOAT_SPEC_FIELDS), max_size=4)):
        doc[name] = draw(_EXTREMES)
    return doc


@settings(max_examples=50, deadline=None)
@given(doc=_extreme_specs())
@example(doc={"tx_power_dbm": 4000.0})
def test_generate_writes_a_file_that_loads_or_exits_2_property(doc):
    """Exit 0 with a file that loads, or exit 2 with one ``error:`` line and no file; no warning, no traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        spec, out = Path(tmp) / "spec.json", Path(tmp) / "out.json"
        spec.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["generate", "--spec", str(spec), "--out", str(out)])
        err = err.getvalue()
        if code == 0:
            assert err == ""
            load_instance(out)
        else:
            assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, (code, err)
            assert not out.exists()


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


def test_parser_defaults_are_the_librarys():
    """``solve`` stops where SolverConfig does, and ``boundary`` certifies as feasibility_boundary does."""
    parser = _build_parser()
    args = parser.parse_args(["solve", "--instance", "net.json"])
    assert (args.tol, args.max_iter) == (SolverConfig().tol_residual, SolverConfig().max_iter)
    args = parser.parse_args(["boundary", "--instance", "net.json", "--lo", "1", "--hi", "2"])
    assert args.tol == inspect.signature(feasibility_boundary).parameters["tol"].default


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


def _fresh_python(code: str) -> str:
    """Standard output of ``code`` run in a new interpreter that imports this checkout's package."""
    src = str(Path(loadcouple.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_loads_no_scipy():
    """Every command pays the CLI's imports before it reads a byte; scipy is not among them."""
    assert _fresh_python("import sys, loadcouple.cli; "
                         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))") == "[]\n"


def test_cli_import_builds_no_parser():
    assert _fresh_python("import argparse\n"
                         "built = []\n"
                         "init = argparse.ArgumentParser.__init__\n"
                         "argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(init(self, *a, **k))\n"
                         "import loadcouple.cli\n"
                         "print(len(built))") == "0\n"


def test_main_builds_its_parser_once_per_process(tmp_path, monkeypatch):
    """The first main() call builds the parser and its 7 subparsers; later calls reuse them."""
    inst = _write_instance(tmp_path, frozen_two_cell())
    _build_parser.cache_clear()
    built, init = [], argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *args, **kwargs: built.append(init(self, *args, **kwargs)))
    for command in ("feasibility", "solve", "bounds"):
        assert main([command, "--instance", str(inst)]) == 0
    assert len(built) == 8


def test_reused_parser_keeps_no_state_from_earlier_calls(tmp_path, capsys):
    inst = _write_instance(tmp_path, frozen_two_cell())

    def outputs():
        assert main(["feasibility", "--instance", str(inst)]) == 0
        assert main(["solve", "--instance", str(inst)]) == 0
        return capsys.readouterr().out.encode()

    _build_parser.cache_clear()
    with pytest.raises(SystemExit) as exc:
        main(["solve"])  # argparse rejects it: --instance is required
    assert exc.value.code == 2
    assert main(["sweep", "--instance", str(inst), "--scales", "1:0:3"]) == 2
    capsys.readouterr()
    after_errors = outputs()
    _build_parser.cache_clear()
    assert outputs() == after_errors


def test_every_exported_name_resolves():
    assert len(set(loadcouple.__all__)) == len(loadcouple.__all__)
    missing = [name for name in loadcouple.__all__ if not hasattr(loadcouple, name)]
    assert not missing
