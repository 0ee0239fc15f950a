import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    FROZEN_TWO_CELL_FIXED_POINT,
    build_instance,
    frozen_two_cell,
    lower_bound,
    random_instance,
    upper_bound,
)
from loadcouple import (
    SolverConfig,
    coefficients,
    coupling,
    demand_sweep,
    fixed_point_iteration,
    jacobian,
    linfeas,
    load_function,
    solve,
)

SEED = 16180


@pytest.mark.parametrize("method", ["fixed_point", "newton"])
def test_frozen_two_cell_fixed_point(method):
    """Pin the solution of a hand-built instance against a long-run oracle.

    The expected vector comes from a million plain iterations of the load
    map and is confirmed by a 40-digit arbitrary precision computation.  Both
    :func:`solve` and the paper's plain iteration, from the same start, must
    reproduce it.
    """
    instance = frozen_two_cell()
    if method == "newton":
        report = solve(instance, SolverConfig(tol_residual=1e-13))
        assert report.status == "converged"
        rho, residual, iterations = report.fixed_point, report.residual, report.iterations
    else:
        rho, residual, iterations, converged = fixed_point_iteration(
            coefficients(instance), lower_bound(instance), tol_residual=1e-13)
        assert converged
    np.testing.assert_allclose(rho, FROZEN_TWO_CELL_FIXED_POINT, rtol=1e-11)
    assert iterations > 0
    assert residual <= 1e-13 * (1.0 + np.max(np.abs(rho)))


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
            report = solve(instance, SolverConfig(start=start))
            assert report.status == "converged"
            solutions.append(report.fixed_point)
        for other in solutions[1:]:
            np.testing.assert_allclose(solutions[0], other, rtol=1e-8, atol=1e-10)


def test_newton_matches_fixed_point_near_boundary():
    # at spectral radius 0.995 the residual test leaves an error inflated by
    # the contraction conditioning, hence the looser agreement tolerance
    rng = np.random.default_rng(SEED + 4)
    instance = random_instance(rng, 4, 5, radius_target=0.995)
    plain, _, plain_iterations, converged = fixed_point_iteration(
        coefficients(instance), lower_bound(instance), 1e-12, 500_000)
    newton = solve(instance, SolverConfig(tol_residual=1e-12))
    assert converged and newton.status == "converged"
    assert newton.iterations < plain_iterations
    np.testing.assert_allclose(plain, newton.fixed_point, rtol=1e-6)


@pytest.mark.parametrize("scale", [1e-300, 1e-308, 1e-320])
def test_tiny_demand_is_the_zero_demand_limit(scale):
    # the rate per demand budget / demand would overflow here; capped, it is the zero-demand limit
    instance = frozen_two_cell().with_demand_scale(scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = solve(instance)
        feasible, outcome = linfeas.feasibility_check(instance)
        (row,) = demand_sweep(frozen_two_cell(), [scale])
    assert report.status == "converged" and feasible and row.solve_status == "converged"
    for loads in (report.fixed_point, report.lower, report.upper, outcome.solution, row.rho_star):
        assert np.all(loads >= 0.0) and np.max(loads) <= 1e-290


def test_max_iter_exceeded_reports_partial_state():
    rng = np.random.default_rng(SEED + 5)
    instance = random_instance(rng, 4, 5, radius_target=0.9)
    report = solve(instance, SolverConfig(max_iter=1))
    assert report.status == "max_iter_exceeded"
    assert report.iterations == 1
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
    report = solve(instance, SolverConfig(interval_width=1e-6))
    assert report.status == "converged"
    assert np.max(report.upper - report.fixed_point) <= 1e-6
    assert np.all(report.fixed_point <= truth + 1e-9)
    assert np.all(report.upper >= truth - 1e-9)


def test_interval_stop_infinite_width_returns_first_certificate():
    rng = np.random.default_rng(SEED + 9)
    instance = random_instance(rng, 3, 5, radius_target=0.4)
    report = solve(instance, SolverConfig(interval_width=math.inf))
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
        SolverConfig(tol_residual=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    for width in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            SolverConfig(interval_width=width)


def test_perron_root_computed_once_per_solve(monkeypatch):
    """A spectral radius is computed only when the report's radius is read, and once.

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
    for config in (None, SolverConfig(interval_width=1e-6)):
        calls.clear()
        report = solve(instance, config)
        assert report.status == "converged" and report.upper is not None
        assert report.iterations > 1
        assert len(calls) == 0
    for _ in range(2):
        assert report.linear.spectral_radius == pytest.approx(0.95, rel=1e-12)
    assert len(calls) == 1
    calls.clear()
    assert upper_bound(instance, report.fixed_point) is not None
    assert calls == []


def _stop_distance(cc, rho, tol):
    """How far a point meeting the residual stop rule may lie from the fixed point."""
    inverse = np.linalg.inv(np.eye(len(rho)) - jacobian(cc, rho))
    return np.max(np.sum(np.abs(inverse), axis=1)) * tol * (1.0 + np.max(rho))


@settings(max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), num_cells=st.integers(2, 6),
       radius_target=st.floats(0.3, 0.999))
def test_interval_stop_certifies_both_ends_property(seed, num_cells, radius_target):
    """Both ends of the interval stop are certified by evaluation.

    The low end is a sub-solution (f(lo) >= lo) and the upper end a
    super-solution (f(hi) <= hi), from the default start and from a warm
    start 5% above the fixed point.  Up to 0.99 of the boundary, where its
    rate keeps it within the iteration budget, the paper's plain iteration
    must also land within the stop distances of the Newton solve.
    """
    instance = random_instance(np.random.default_rng(seed), num_cells, 3, radius_target)
    cc = coefficients(instance)
    newton = solve(instance)
    assert newton.status == "converged"
    if radius_target <= 0.99:
        plain, _, _, converged = fixed_point_iteration(cc, newton.lower, 1e-10, 100_000)
        assert converged
        gap = np.max(np.abs(plain - newton.fixed_point))
        assert gap <= (_stop_distance(cc, plain, 1e-10)
                       + _stop_distance(cc, newton.fixed_point, 1e-10))
    for start in (None, 1.05 * newton.fixed_point):
        for width in (1e-3, 1e-6):
            config = SolverConfig(start=start, interval_width=width)
            report = solve(instance, config)
            assert report.status == "converged"
            lo, hi = report.fixed_point, report.upper
            slack = 1e-12 * (1.0 + np.max(hi))
            assert np.all(load_function(cc, lo) >= lo - slack)
            assert np.all(load_function(cc, hi) <= hi + slack)
            assert np.all(lo <= hi)
            if report.residual > config.tol_residual * (1.0 + np.max(hi)):  # stopped by width
                assert np.max(hi - lo) <= width


@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), num_cells=st.integers(2, 6),
       radius_target=st.floats(0.3, 0.999))
def test_fixed_point_does_not_depend_on_start_property(seed, num_cells, radius_target):
    """Solves from the default start, from 0 and from twice the fixed point agree.

    A start of 0 is raised to the asymptotic solution, so it must give the
    default solve; the start 2 rho* approaches from above.  Each pair may
    differ by at most the sum of the distances their residual stops allow.
    """
    instance = random_instance(np.random.default_rng(seed), num_cells, 3, radius_target)
    cc = coefficients(instance)
    default = solve(instance)
    assert default.status == "converged"
    points = [default.fixed_point]
    for start in (np.zeros(num_cells), 2.0 * default.fixed_point):
        report = solve(instance, SolverConfig(start=start))
        assert report.status == "converged"
        points.append(report.fixed_point)
    for i, a in enumerate(points):
        for b in points[i + 1:]:
            assert np.max(np.abs(a - b)) <= _stop_distance(cc, a, 1e-10) + _stop_distance(cc, b, 1e-10)


@pytest.mark.parametrize("radius_target", [0.99, 0.999])
def test_report_ordering_is_exact_near_boundary(radius_target):
    rng = np.random.default_rng(SEED + 60)
    instance = random_instance(rng, 5, 4, radius_target=radius_target)
    for config in (None, SolverConfig(interval_width=1e-6)):
        report = solve(instance, config)
        assert report.status == "converged"
        assert np.all(report.lower <= report.fixed_point)
        assert np.all(report.fixed_point <= report.upper)


def test_newton_fallbacks_are_counted(monkeypatch):
    """A singular Newton system falls back to plain ascent, and says so."""
    rng = np.random.default_rng(SEED + 61)
    instance = random_instance(rng, 4, 5, radius_target=0.6)
    assert solve(instance).fallbacks == 0
    # every Newton system I - J is the zero matrix
    monkeypatch.setattr(coupling, "jacobian", lambda cc, rho: np.eye(cc.num_cells))
    report = solve(instance)
    assert report.status == "converged"
    assert report.iterations > 0
    assert report.fallbacks == report.iterations


def test_newton_iteration_factors_once(monkeypatch):
    """A default solve evaluates the Jacobian once per iteration and no separate tangent bound."""
    jacobians, tangents = [], []
    original_jacobian, original_tangent = coupling.jacobian, linfeas.tangent_bound
    monkeypatch.setattr(coupling, "jacobian", lambda cc, rho: jacobians.append(1) or original_jacobian(cc, rho))
    monkeypatch.setattr(linfeas, "tangent_bound", lambda cc, anchor: tangents.append(1) or original_tangent(cc, anchor))
    instance = random_instance(np.random.default_rng(SEED + 62), 4, 5, radius_target=0.99)
    for config in (None, SolverConfig(interval_width=1e-6)):
        jacobians.clear()
        report = solve(instance, config)
        assert report.status == "converged" and report.iterations > 1
        assert len(jacobians) <= len(report.trace) == report.iterations + 1
        assert tangents == []
