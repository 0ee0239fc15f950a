"""Acceptance battery: twelve numbered end-to-end checks.

Run with ``pytest -s`` to get one PASS/FAIL line per criterion.  The shared
corpus holds 200 randomized feasible instances (2..12 cells, 5..50 pixels per
cell, coupling-matrix radius capped at 0.85 so tangent bounds stay solvable);
it is built once per module and reused across criteria.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from loadcouple import analysis, coupling, linfeas, scenario, solver
from helpers import (
    affine,
    cell_hessian,
    eig_radius,
    fd_hessian_entry,
    fd_jacobian,
    fixed_point_iteration,
    hessian_entry,
    lower_bound,
    random_instance,
    solve_from,
    tangent_linearization,
    two_cell_instance,
    upper_bound,
)

SEED = 20260814
CORPUS_SIZE = 200


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} [{label}]: FAIL")
        raise
    print(f"criterion {number:2d} [{label}]: PASS")


def _tight():
    # 1e-12 residual keeps the iterate-vs-truth error far below the 1e-8
    # agreement tolerances even when the contraction rate nears 1
    return solver.SolverConfig(tol_residual=1e-12)


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(SEED)
    instances = []
    for _ in range(CORPUS_SIZE):
        num_cells = int(rng.integers(2, 13))
        per_cell = int(rng.integers(5, 51))
        radius = float(rng.uniform(0.25, 0.85))
        instances.append(random_instance(rng, num_cells, per_cell, radius_target=radius))
    return instances


@pytest.fixture(scope="module")
def fixed_points(corpus):
    cache = {}

    def get(idx):
        if idx not in cache:
            report = solver.solve(corpus[idx], _tight())
            assert report.status == solver.CONVERGED
            cache[idx] = report.fixed_point
        return cache[idx]

    return get


def test_01_both_methods_converge_and_agree(corpus):
    with criterion(1, "fixed-point correctness, 200 instances, < 60 s"):
        started = time.perf_counter()
        for inst in corpus:
            newton = solver.solve(inst, _tight())
            assert newton.status == solver.CONVERGED
            cc = coupling.coefficients(inst)
            plain, _, _, converged = fixed_point_iteration(cc, newton.lower, 1e-12)
            assert converged
            for rho in (plain, newton.fixed_point):
                residual = np.max(np.abs(rho - coupling.load_function(cc, rho)))
                assert residual <= 1e-10 * (1.0 + np.max(rho))
            assert np.max(np.abs(plain - newton.fixed_point)) <= 1e-8
        assert time.perf_counter() - started < 60.0


def test_02_fixed_point_unique_across_starts(corpus):
    with criterion(2, "uniqueness from 10 starts on 20 instances"):
        rng = np.random.default_rng(SEED + 2)
        for inst in corpus[:20]:
            ends = []
            for _ in range(10):
                start = rng.uniform(0.0, 3.0, size=inst.num_cells)
                report = solve_from(inst, start, solver.SolverConfig(tol_residual=1e-12))
                assert report.status == solver.CONVERGED
                ends.append(report.fixed_point)
            stacked = np.stack(ends)
            spread = np.max(stacked, axis=0) - np.min(stacked, axis=0)
            assert np.max(spread) <= 1e-8


def test_03_linear_verdict_matches_nonlinear_solvability(corpus):
    with criterion(3, "linear feasibility == nonlinear solvability"):
        for inst in corpus:
            slope = coupling.asymptotic_linearization(coupling.coefficients(inst)).slope
            boundary_scale = 1.0 / eig_radius(slope)
            for mult in (0.5, 0.9, 1.1, 2.0):
                scaled = inst.with_demand_scale(mult * boundary_scale)
                verdict, _ = linfeas.feasibility_check(scaled)
                cc = coupling.coefficients(scaled)
                _, _, _, converged = fixed_point_iteration(
                    cc,
                    np.zeros(inst.num_cells),
                    tol_residual=1e-10,
                    max_iter=100_000,
                )
                assert verdict == converged


def test_04_bounds_sandwich_the_fixed_point(corpus, fixed_points):
    with criterion(4, "lower bound <= fixed point <= tangent bound"):
        for idx, inst in enumerate(corpus):
            rho_star = fixed_points(idx)
            lower = lower_bound(inst)
            upper = upper_bound(inst, lower)
            assert upper is not None
            assert np.all(rho_star - lower >= -1e-9)
            assert np.all(upper - rho_star >= -1e-9)


def test_05_derivatives_match_finite_differences(corpus):
    with criterion(5, "analytic derivatives vs finite differences"):
        rng = np.random.default_rng(SEED + 5)
        for _ in range(50):
            inst = corpus[int(rng.integers(len(corpus)))]
            cc = coupling.coefficients(inst)
            n = inst.num_cells
            rho = rng.uniform(0.05, 1.5, size=n)
            jac = coupling.jacobian(cc, rho)
            approx = fd_jacobian(cc, rho)
            off = ~np.eye(n, dtype=bool)
            rel = np.abs(jac - approx)[off] / np.abs(jac)[off]
            assert np.max(rel) <= 1e-5
            cell = int(rng.integers(n))
            others = [k for k in range(n) if k != cell]
            for _ in range(4):
                k = others[int(rng.integers(len(others)))]
                h = others[int(rng.integers(len(others)))]
                exact = hessian_entry(cc, cell, k, h, rho)
                # eps balances truncation against roundoff in the double
                # difference; 3e-4 keeps both a decade under the tolerance
                second = fd_hessian_entry(cc, cell, k, h, rho, eps=3e-4)
                assert abs(exact - second) <= 1e-4 * abs(exact)


def test_06_loads_strictly_concave(corpus):
    with criterion(6, "negative-definite curvature and midpoint concavity"):
        rng = np.random.default_rng(SEED + 6)
        picks = [int(i) for i in rng.choice(len(corpus), size=20, replace=False)]
        for t in range(100):
            inst = corpus[picks[t % 20]]
            cc = coupling.coefficients(inst)
            n = inst.num_cells
            rho = rng.uniform(0.0, 2.0, size=n)
            for cell in range(n):
                top = np.max(np.linalg.eigvalsh(cell_hessian(cc, cell, rho)))
                assert top < 0.0
        for t in range(1000):
            inst = corpus[picks[t % 20]]
            cc = coupling.coefficients(inst)
            n = inst.num_cells
            first = rng.uniform(0.0, 2.0, size=n)
            second = rng.uniform(0.0, 2.0, size=n)
            mid = coupling.load_function(cc, 0.5 * (first + second))
            avg = 0.5 * (
                coupling.load_function(cc, first) + coupling.load_function(cc, second)
            )
            assert np.all(mid - avg >= -1e-12 * (1.0 + np.max(np.abs(mid))))


def test_07_jacobian_flattens_to_asymptotic_slope(corpus):
    with criterion(7, "jacobian at huge load matches asymptotic slope"):
        rng = np.random.default_rng(SEED + 7)
        for idx in rng.choice(len(corpus), size=20, replace=False):
            inst = corpus[int(idx)]
            cc = coupling.coefficients(inst)
            n = inst.num_cells
            slope = coupling.asymptotic_linearization(cc).slope
            jac = coupling.jacobian(cc, np.full(n, 1e6))
            off = ~np.eye(n, dtype=bool)
            rel = np.abs(jac - slope)[off] / slope[off]
            assert np.max(rel) <= 1e-4


def test_08_affine_envelope_brackets_the_map(corpus):
    with criterion(8, "asymptotic line below the map, tangent above"):
        rng = np.random.default_rng(SEED + 8)
        for idx in rng.choice(len(corpus), size=20, replace=False):
            inst = corpus[int(idx)]
            cc = coupling.coefficients(inst)
            n = inst.num_cells
            base = coupling.asymptotic_linearization(cc)
            tangent = tangent_linearization(cc, rng.uniform(0.05, 1.5, size=n))
            for _ in range(50):
                rho = rng.uniform(0.0, 3.0, size=n)
                value = coupling.load_function(cc, rho)
                below = affine(base, rho)
                above = affine(tangent, rho)
                slack = 1e-12 * (1.0 + np.max(np.abs(value)))
                assert np.all(value - below >= -slack)
                assert np.all(above - value >= -slack)


def test_09_two_cell_closed_form_and_boundary():
    with criterion(9, "two-cell closed form and boundary flip"):
        rng = np.random.default_rng(SEED + 9)
        for _ in range(100):
            inst = two_cell_instance(rng, radius_target=float(rng.uniform(0.1, 0.9)))
            system = coupling.asymptotic_linearization(coupling.coefficients(inst))
            outcome = linfeas.solve_linear(system)
            assert outcome.status == linfeas.FEASIBLE
            h12, h21 = system.slope[0, 1], system.slope[1, 0]
            f0 = system.offset
            det = 1.0 - h12 * h21
            expected = [
                (f0[0] + f0[1] * h12) / det,
                (f0[1] + f0[0] * h21) / det,
            ]
            np.testing.assert_allclose(outcome.solution, expected, rtol=1e-12)
            # slopes scale linearly with demand, so the product crosses 1 at
            # exactly 1/sqrt(h12*h21); the certified boundary must be that scale
            analytic = 1.0 / math.sqrt(h12 * h21)
            cert = analysis.feasibility_boundary(
                inst, lo=0.5 * analytic, hi=2.0 * analytic, tol=1e-8
            )
            assert abs(cert.scale - analytic) <= 1e-6


def test_10_no_admissible_point_beats_fixed_point_total(corpus, fixed_points):
    with criterion(10, "total load is maximized at the fixed point"):
        rng = np.random.default_rng(SEED + 10)
        # rejection sampling thins out exponentially with dimension, so run
        # the volume check on the twenty smallest instances
        by_size = sorted(
            range(len(corpus)),
            key=lambda i: (corpus[i].num_cells, corpus[i].num_pixels),
        )
        chosen = by_size[:20]
        per_instance = 100_000 // 20
        for idx in chosen:
            inst = corpus[idx]
            rho_star = fixed_points(idx)
            cc = coupling.coefficients(inst)
            tangent = tangent_linearization(cc, rho_star)
            box = rho_star + 0.25 * (1.0 + rho_star)
            budget = np.sum(rho_star) + 1e-9
            accepted = 0
            for _ in range(400):
                draws = rng.uniform(0.0, 1.0, size=(50_000, box.size)) * box
                # cheap necessary condition: members satisfy rho <= f(rho)
                # <= tangent(rho), so the affine test prunes non-members and
                # every survivor still gets the exact membership check
                envelope = draws @ tangent.slope.T + tangent.offset
                np.testing.assert_allclose(
                    envelope[0], affine(tangent, draws[0]), rtol=1e-12
                )
                for row in draws[np.all(draws <= envelope, axis=1)]:
                    if np.all(row <= coupling.load_function(cc, row)):
                        accepted += 1
                        assert np.sum(row) <= budget
                        if accepted == per_instance:
                            break
                if accepted == per_instance:
                    break
            assert accepted == per_instance


def test_11_scenario_rotation_comparison():
    with criterion(11, "rotating one sector degrades the layout, < 30 s"):
        started = time.perf_counter()
        spec = scenario.ScenarioSpec(rng_seed=2, demand_bits_per_user=80_000)
        base = scenario.generate(spec)
        rotated = scenario.rotate_sector(base, 1, 90.0)
        first = solver.solve(base, _tight())
        second = solver.solve(rotated, _tight())
        assert first.status == solver.CONVERGED
        assert second.status == solver.CONVERGED
        cert_base = analysis.feasibility_boundary(base, lo=1.0, hi=64.0)
        cert_rot = analysis.feasibility_boundary(rotated, lo=1.0, hi=64.0)
        assert cert_base.scale > cert_rot.scale
        # cells 8 and 9 (ids, so indices 7 and 8) pick up the displaced users
        assert second.fixed_point[7] > first.fixed_point[7]
        assert second.fixed_point[8] > first.fixed_point[8]
        table = analysis.bound_quality(base)
        loaded = table.report.fixed_point != 0.0
        assert np.all(table.upper_gap_pct[loaded] < 10.0)
        assert np.all(table.upper_gap_pct[loaded] < table.lower_gap_pct[loaded])
        assert time.perf_counter() - started < 30.0


def test_12_scaled_fixed_points_sit_below_the_map(corpus, fixed_points):
    with criterion(12, "f(lambda * rho_star) > lambda * rho_star"):
        for idx, inst in enumerate(corpus):
            rho_star = fixed_points(idx)
            cc = coupling.coefficients(inst)
            for lam in np.linspace(0.1, 0.9, 9):
                shrunk = lam * rho_star
                assert np.all(coupling.load_function(cc, shrunk) > shrunk)
