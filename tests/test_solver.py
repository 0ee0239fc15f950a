import math

import numpy as np
import pytest

from helpers import (
    FROZEN_TWO_CELL_FIXED_POINT,
    build_instance,
    frozen_two_cell,
    random_instance,
)
from loadcouple import (
    SolverConfig,
    coefficients,
    fixed_point_iteration,
    linfeas,
    load_function,
    lower_bound,
    solve,
    solve_with_interval_stop,
    upper_bound,
)

SEED = 16180


@pytest.mark.parametrize("method", ["fixed_point", "newton"])
def test_frozen_two_cell_fixed_point(method):
    """Pin the solution of a hand-built instance against a long-run oracle.

    The expected vector comes from a million plain iterations of the load
    map and is confirmed by a 40-digit arbitrary precision computation.
    """
    instance = frozen_two_cell()
    report = solve(instance, SolverConfig(method=method, tol_residual=1e-13))
    assert report.status == "converged"
    np.testing.assert_allclose(report.fixed_point, FROZEN_TWO_CELL_FIXED_POINT, rtol=1e-11)
    assert report.iterations > 0
    assert report.residual <= 1e-13 * (1.0 + np.max(np.abs(report.fixed_point)))


def test_residual_criterion_is_relative():
    rng = np.random.default_rng(SEED)
    instance = random_instance(rng, 4, 6, radius_target=0.6)
    report = solve(instance, SolverConfig(tol_residual=1e-10))
    cc = coefficients(instance)
    residual = np.max(np.abs(report.fixed_point - load_function(cc, report.fixed_point)))
    assert residual <= 1e-10 * (1.0 + np.max(np.abs(report.fixed_point)))


def test_single_cell_converges_without_iterating():
    # no interference: the lower bound already is the fixed point
    gains = np.array([[1e-7, 3e-8]])
    instance = build_instance(gains, demands=[5.0, 2.0], powers=[1.0], noise=1e-9)
    report = solve(instance)
    assert report.status == "converged"
    assert report.iterations == 0
    np.testing.assert_allclose(report.fixed_point, lower_bound(instance), rtol=0)


def test_infeasible_reported_without_iterations():
    rng = np.random.default_rng(SEED + 1)
    instance = random_instance(rng, 3, 4, radius_target=1.4)
    report = solve(instance)
    assert report.status == "infeasible"
    assert report.iterations == 0
    assert report.fixed_point is None
    assert report.lower is None and report.upper is None
    assert math.isnan(report.residual)
    assert report.linear.status in ("infeasible_negative", "singular")
    assert report.linear.spectral_radius > 1.0 - 1e-6


def test_iteration_from_lower_bound_ascends_monotonically():
    rng = np.random.default_rng(SEED + 2)
    instance = random_instance(rng, 4, 5, radius_target=0.7)
    cc = coefficients(instance)
    rho = lower_bound(instance)
    for _ in range(200):
        advanced = load_function(cc, rho)
        assert np.all(advanced >= rho - 1e-13 * (1.0 + np.abs(rho)))
        rho = advanced
    report = solve(instance)
    np.testing.assert_allclose(rho, report.fixed_point, rtol=1e-8)


def test_unique_fixed_point_from_random_starts():
    rng = np.random.default_rng(SEED + 3)
    for _ in range(3):
        n = int(rng.integers(2, 6))
        instance = random_instance(rng, n, 4, radius_target=float(rng.uniform(0.3, 0.8)))
        solutions = []
        for _ in range(5):
            start = rng.uniform(0.0, 3.0, n)
            report = solve(instance, SolverConfig(method="newton", start=start))
            assert report.status == "converged"
            solutions.append(report.fixed_point)
        for other in solutions[1:]:
            np.testing.assert_allclose(solutions[0], other, rtol=1e-8, atol=1e-10)


def test_newton_matches_fixed_point_near_boundary():
    # at spectral radius 0.995 the residual test leaves an error inflated by
    # the contraction conditioning, hence the looser agreement tolerance
    rng = np.random.default_rng(SEED + 4)
    instance = random_instance(rng, 4, 5, radius_target=0.995)
    fp = solve(instance, SolverConfig(method="fixed_point", tol_residual=1e-12,
                                      max_iter=500_000))
    newton = solve(instance, SolverConfig(method="newton", tol_residual=1e-12))
    assert fp.status == "converged" and newton.status == "converged"
    assert newton.iterations < fp.iterations
    np.testing.assert_allclose(fp.fixed_point, newton.fixed_point, rtol=1e-6)


def test_max_iter_exceeded_reports_partial_state():
    rng = np.random.default_rng(SEED + 5)
    instance = random_instance(rng, 4, 5, radius_target=0.9)
    report = solve(instance, SolverConfig(max_iter=3))
    assert report.status == "max_iter_exceeded"
    assert report.iterations == 3
    assert report.fixed_point is not None
    assert report.residual > 0.0


def test_bounds_enclose_every_refresh():
    rng = np.random.default_rng(SEED + 6)
    instance = random_instance(rng, 4, 5, radius_target=0.6)
    truth = solve(instance, SolverConfig(tol_residual=1e-12)).fixed_point
    cc = coefficients(instance)
    rho = lower_bound(instance)
    for _ in range(40):
        assert np.all(rho <= truth + 1e-10)
        upper = upper_bound(instance, rho)
        if upper is not None:
            assert np.all(upper >= truth - 1e-9)
        rho = load_function(cc, rho)


def test_report_carries_certified_interval():
    rng = np.random.default_rng(SEED + 7)
    instance = random_instance(rng, 5, 5, radius_target=0.5)
    report = solve(instance)
    assert report.status == "converged"
    assert np.all(report.lower <= report.fixed_point + 1e-12)
    assert np.all(report.fixed_point <= report.upper + 1e-9)
    assert report.trace[-1].iteration == report.iterations
    widths = [entry.interval_width for entry in report.trace if np.isfinite(entry.interval_width)]
    assert widths and widths[-1] <= widths[0]


def test_interval_stop_reaches_requested_width():
    rng = np.random.default_rng(SEED + 8)
    instance = random_instance(rng, 4, 6, radius_target=0.8)
    truth = solve(instance, SolverConfig(tol_residual=1e-12)).fixed_point
    report = solve_with_interval_stop(instance, max_interval_width=1e-6)
    assert report.status == "converged"
    assert np.max(report.upper - report.fixed_point) <= 1e-6
    assert np.all(report.fixed_point <= truth + 1e-9)
    assert np.all(report.upper >= truth - 1e-9)


def test_interval_stop_infinite_width_returns_first_certificate():
    rng = np.random.default_rng(SEED + 9)
    instance = random_instance(rng, 3, 5, radius_target=0.4)
    report = solve_with_interval_stop(instance, max_interval_width=math.inf)
    assert report.status == "converged"
    assert report.upper is not None
    assert report.iterations == 0


def test_warm_start_converges_immediately():
    rng = np.random.default_rng(SEED + 10)
    instance = random_instance(rng, 4, 5, radius_target=0.7)
    cold = solve(instance)
    warm = solve(instance, SolverConfig(start=cold.fixed_point))
    assert warm.status == "converged"
    assert warm.iterations <= 2
    np.testing.assert_allclose(warm.fixed_point, cold.fixed_point, rtol=1e-9)


def test_plain_iteration_diverges_when_infeasible():
    rng = np.random.default_rng(SEED + 11)
    instance = random_instance(rng, 3, 4, radius_target=1.3)
    cc = coefficients(instance)
    rho, residual, iterations, converged = fixed_point_iteration(
        cc, np.zeros(3), 1e-10, 50_000
    )
    assert not converged
    assert residual > 1.0 or not np.all(np.isfinite(rho)) or iterations == 50_000


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        SolverConfig(method="bisection")
    with pytest.raises(ValueError):
        SolverConfig(tol_residual=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    with pytest.raises(ValueError):
        SolverConfig(bound_refresh_every=0)


def test_perron_root_computed_once_per_solve(monkeypatch):
    """Only the reported feasibility verdict pays for a spectral radius.

    Tangent refreshes and Newton steps solve linear systems too, but nothing
    reads their radius, so they must not compute one.
    """
    calls = []
    original = linfeas.spectral_radius

    def counting(matrix):
        calls.append(matrix)
        return original(matrix)

    monkeypatch.setattr(linfeas, "spectral_radius", counting)
    instance = random_instance(np.random.default_rng(SEED + 50), 4, 5, radius_target=0.95)
    runs = [
        lambda: solve(instance),
        lambda: solve(instance, SolverConfig(method="newton")),
        lambda: solve_with_interval_stop(instance, 1e-6),
    ]
    for run in runs:
        calls.clear()
        report = run()
        assert report.status == "converged" and report.upper is not None
        assert report.iterations > 1
        assert len(calls) == 1
    calls.clear()
    assert upper_bound(instance, report.fixed_point) is not None
    assert calls == []
