import dataclasses
import hashlib
import math
import warnings
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    FROZEN_TWO_CELL_FIXED_POINT,
    build_instance,
    fixed_point_iteration,
    frozen_two_cell,
    lower_bound,
    random_instance,
    solve_from,
    upper_bound,
)
from loadcouple import (
    ScenarioSpec,
    SolverConfig,
    asymptotic_linearization,
    coefficients,
    coupling,
    demand_sweep,
    generate,
    jacobian,
    linfeas,
    load_function,
    load_instance,
    netmodel,
    save_instance,
    solve,
    solver,
    spectral_radius,
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
    assert linfeas.model(instance).spectral_radius > 1.0 - 1e-6


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
            report = solve_from(instance, start)
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
    assert report.status == "converged" and feasible and row.report.status == "converged"
    for loads in (report.fixed_point, report.lower, report.upper, outcome.solution, row.report.fixed_point):
        assert np.all(loads >= 0.0) and np.max(loads) <= 1e-290


def test_max_iter_exceeded_reports_partial_state():
    rng = np.random.default_rng(SEED + 5)
    instance = random_instance(rng, 4, 5, radius_target=0.9)
    report = solve(instance, SolverConfig(max_iter=1))
    assert report.status == "max_iter_exceeded"
    assert report.iterations == 1
    assert report.fixed_point is not None
    assert report.residual > 0.0


@pytest.mark.parametrize("max_iter", [1, 2])
def test_max_iter_exceeded_reports_the_residual_of_the_point_it_returns(monkeypatch, max_iter):
    """No step past the last trace entry: one map evaluation per entry, the last at the returned point."""
    instance = random_instance(np.random.default_rng(SEED + 5), 4, 5, radius_target=0.9)
    evaluate, evaluations = coupling.load_function, []
    monkeypatch.setattr(coupling, "load_function",
                        lambda cc, rho, *args, **kwargs: evaluations.extend(np.atleast_2d(rho))
                        or evaluate(cc, rho, *args, **kwargs))
    report = solve(instance, SolverConfig(max_iter=max_iter))
    assert report.status == "max_iter_exceeded"
    assert len(evaluations) == len(report.trace) == max_iter + 1
    rho = report.fixed_point
    assert np.array_equal(evaluations[-1], rho)
    assert report.residual == np.max(np.abs(load_function(coefficients(instance), rho) - rho))


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
    warm = solve_from(instance, cold.fixed_point)
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


def test_config_is_frozen_and_max_iter_is_a_whole_number():
    """A config is valid by construction: no field is assigned later, and ``max_iter`` is an int >= 1."""
    config = SolverConfig()
    for name, value in (("max_iter", -5), ("tol_residual", math.nan), ("interval_width", 1e-6)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, name, value)
    for max_iter in (2.5, math.inf, True, -1, "3"):
        with pytest.raises(ValueError, match="max_iter"):
            SolverConfig(max_iter=max_iter)
    assert SolverConfig(max_iter=np.int64(3)).max_iter == 3


def test_perron_root_computed_once_per_solve(monkeypatch):
    """A spectral radius is computed only when the model's radius is read, and once.

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
        assert linfeas.model(instance).spectral_radius == pytest.approx(0.95, rel=1e-12)
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
            config = SolverConfig(interval_width=width)
            report = solve_from(instance, start, config)
            assert report.status == "converged"
            lo, hi = report.fixed_point, report.upper
            slack = 1e-12 * (1.0 + np.max(hi))
            assert np.all(load_function(cc, lo) >= lo - slack)
            assert np.all(load_function(cc, hi) <= hi + slack)
            assert np.all(lo <= hi)
            if report.residual > config.tol_residual * (1.0 + np.max(hi)):  # stopped by width
                assert np.max(hi - lo) <= width


def _boundary_fraction_scales(instance):
    """The demand scales 0.1, 0.5, 0.9, 0.99 and 0.999 of ``instance``'s boundary, each feasible."""
    model = linfeas.model(instance)
    scales = [fraction / model.spectral_radius for fraction in (0.1, 0.5, 0.9, 0.99, 0.999)]
    assert all(linfeas.solve_linear(model.system, s).status == "feasible" for s in scales)
    return scales


@settings(max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), num_cells=st.integers(2, 6), noise_exponent=st.floats(-8.0, 0.0),
       width=st.sampled_from([1e-3, 1e-6, None]))
@example(seed=1, num_cells=3, noise_exponent=-8.0, width=1e-3)
@example(seed=1, num_cells=3, noise_exponent=-8.0, width=None)
def test_lockstep_interval_stop_certifies_each_row_property(seed, num_cells, noise_exponent, width):
    """A stack of rows under either stop certifies each row's bracket and agrees with its lone solve.

    The grid runs from 0.1 to 0.999 of the boundary, on instances whose
    noise can be low enough that the tangent system at the asymptotic
    solution is unusable: in one round, rows that lift their low end (after
    a Newton step, at a super-solution) then share the stacked LU with rows
    that do not (at the start, or after a plain step).  The explicit example
    has such a round.  Each row's low end is a sub-solution and its upper
    end a super-solution, both by evaluation, and its upper end is its solve
    alone's within rtol 1e-9.  The low ends can differ by more: where a lift
    candidate sits at the fixed point within rounding, whether it passes
    f(x) >= x can differ between the stack and the lone solve, and the one
    that passes ends with the narrower bracket.  So each low end is only
    checked to lie below the other solve's upper end.  Under the residual
    stop (``width`` None) the low end is ``lower``, and the fixed point
    lies between the two ends.
    """
    instance = random_instance(np.random.default_rng(seed), num_cells, 3, 0.9)
    instance = dataclasses.replace(instance, noise_power=instance.noise_power * 10.0 ** noise_exponent)
    scales = _boundary_fraction_scales(instance)
    config = SolverConfig(interval_width=width)
    for s, report in zip(scales, solver.solve_scales(instance, scales, config)):
        cc, (alone,) = linfeas.model(instance).coefficients, solver.solve_scales(instance, [s], config)
        a = cc.rates([s])
        assert report.status == alone.status == "converged"
        lo, hi = (report.fixed_point if width is not None else report.lower), report.upper
        slack = 1e-12 * (1.0 + np.max(hi))
        assert np.all(load_function(cc, lo, a) >= lo - slack)
        assert np.all(load_function(cc, hi, a) <= hi + slack)
        assert np.all(lo <= hi)
        if width is None:
            assert np.all(lo <= report.fixed_point) and np.all(report.fixed_point <= hi)
        np.testing.assert_allclose(hi, alone.upper, rtol=1e-9, atol=0)
        assert np.all(lo <= alone.upper + slack) and np.all(alone.fixed_point <= hi + slack)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the interval stop's low end depends on whether a lift candidate "
                          "within rounding of the fixed point passes f(x) >= x")
def test_lockstep_interval_stop_low_end_is_the_lone_solves():
    """A stacked row's certified low end is its solve alone's, within rtol 1e-9.

    At 0.99 of the boundary the stack's last lift candidate fails
    f(x) >= x and the lone solve's, equal within rounding, passes.  Both
    stop on the residual rule at iteration 3: the stacked row reports
    ``converged`` with a final trace width of 2.1e-4 against the lone
    solve's 3.7e-13, and the low ends differ by 1.4e-6 relative.
    """
    instance = random_instance(np.random.default_rng(0), 3, 3, 0.9)
    instance = dataclasses.replace(instance, noise_power=instance.noise_power * 1e-2)
    scales = _boundary_fraction_scales(instance)
    config = SolverConfig(interval_width=1e-6)
    for s, report in zip(scales, solver.solve_scales(instance, scales, config)):
        (alone,) = solver.solve_scales(instance, [s], config)
        assert report.status == alone.status == "converged"
        np.testing.assert_allclose(report.fixed_point, alone.fixed_point, rtol=1e-9, atol=0)


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
        report = solve_from(instance, start)
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
        if config is None and report.fallbacks == 0:  # the last Newton iterate is the upper end
            assert np.array_equal(report.upper, report.fixed_point)


def test_newton_fallbacks_are_counted(monkeypatch):
    """A singular Newton system falls back to plain ascent, and says so."""
    rng = np.random.default_rng(SEED + 61)
    instance = random_instance(rng, 4, 5, radius_target=0.6)
    assert solve(instance).fallbacks == 0
    # every Newton system I - J is the zero matrix; the solver forms it in the stack it is handed
    monkeypatch.setattr(coupling, "jacobian", lambda cc, rho, *args: np.tile(np.eye(cc.num_cells), (len(rho), 1, 1)))
    report = solve(instance)
    assert report.status == "converged"
    assert report.iterations > 0
    assert report.fallbacks == report.iterations


def test_newton_iteration_factors_once(monkeypatch):
    """A solve takes one Jacobian and one LU per step, and solves no linear system beyond its verdict.

    Under the residual stop a solve steps at every iterate but its last,
    which is its upper end, so reading ``upper`` runs no kernel; the
    interval stop reads the bound at every iterate, the last included.  The
    verdict is the instance's model's: the first solve takes it, a second
    solve of the same instance reads it.
    """
    jacobians, systems, linear_solves = [], [], []
    original_jacobian, original_lu, original_solve_linear = (coupling.jacobian, linfeas._lu_solve_stack,
                                                             linfeas.solve_linear)
    monkeypatch.setattr(coupling, "jacobian", lambda cc, rho, *args: jacobians.extend(np.atleast_2d(rho))
                        or original_jacobian(cc, rho, *args))
    monkeypatch.setattr(linfeas, "_lu_solve_stack", lambda lhs, rhs: systems.extend(lhs) or original_lu(lhs, rhs))
    monkeypatch.setattr(linfeas, "solve_linear",
                        lambda system: linear_solves.append(1) or original_solve_linear(system))
    instance = random_instance(np.random.default_rng(SEED + 62), 4, 5, radius_target=0.99)
    for config, verdicts, last in ((None, 1, 0), (SolverConfig(interval_width=1e-6), 0, 1)):
        jacobians.clear()
        systems.clear()
        linear_solves.clear()
        report = solve(instance, config)
        assert report.status == "converged" and report.iterations > 1
        assert len(jacobians) == len(report.trace) - 1 + last == report.iterations + last
        assert len(systems) == report.iterations + last + verdicts
        assert len(linear_solves) == verdicts  # the feasibility verdict, taken by the first solve only
        jacobians.clear()
        systems.clear()
        for _ in range(2):
            assert report.upper is not None
        assert not jacobians and not systems


@pytest.mark.parametrize("num_sites", [3, 12])
def test_newton_never_evaluates_the_map_twice_at_one_point(monkeypatch, num_sites):
    """The map is evaluated once per iterate, and never twice at one point."""
    instance = generate(ScenarioSpec(num_sites=num_sites, rng_seed=7, demand_bits_per_user=80_000.0))
    boundary = 1.0 / spectral_radius(asymptotic_linearization(coefficients(instance)).slope)
    points = []
    evaluate = coupling.load_function

    def recording(cc, rho, *args, **kwargs):
        points.extend(row.tobytes() for row in np.atleast_2d(rho))
        return evaluate(cc, rho, *args, **kwargs)

    monkeypatch.setattr(coupling, "load_function", recording)
    for fraction in (0.5, 0.9, 0.99, 0.999):
        points.clear()
        report = solve(instance.with_demand_scale(fraction * boundary))
        assert report.status == "converged" and report.iterations >= 2, fraction
        assert len(points) == report.iterations + 1, fraction
        assert len(set(points)) == len(points), fraction


# sha256 of fixed_point, upper and start_upper (their tobytes, in that
# order) and the iteration count, for the seed-7 n=36 scenario at
# near_boundary's fractions of its boundary, under the residual stop (None)
# and interval_width=1e-6: the solver's bits where Newton does its work.
# The same bits come from the generated instance and from its saved file,
# parsed (cold) and then found among the loaded instances (warm).
NEAR_BOUNDARY_DIGESTS = {
    (0.9, None): (4, "3662b612205283c9249c023c48017d14cd7bacb704a0cf1158ab8246a06e8c58"),
    (0.9, 1e-6): (3, "2e88a44748560ba3bf7fd5d3d6a087648cd4c1b0f95c61293585eed340d371de"),
    (0.99, None): (3, "c0e8cc52f0d720c43770f13df45d19ae80a622629ef4df115592e5ea3c1d38d8"),
    (0.99, 1e-6): (3, "bb1980dd72125c739f9e62378fbcb56850a97de06dc531ec95dc314edf023818"),
    (0.999, None): (3, "46f63c834f6c7529d40a238cdd4e135af491b774a9f008be791e4fe4d8c4429e"),
    (0.999, 1e-6): (3, "2453eb89fff07b9e953ab79a554bbd7be6d7d00c09dff19aacb85e96fd5011c0"),
}


def test_solver_output_is_frozen_near_the_boundary(tmp_path, monkeypatch):
    generated = generate(ScenarioSpec(num_sites=12, rng_seed=7, demand_bits_per_user=80_000))
    path = tmp_path / "n36.json"
    save_instance(generated, path)
    monkeypatch.setattr(netmodel, "_LOADED", OrderedDict())
    for instance in (generated, load_instance(path), load_instance(path)):
        boundary = 1.0 / spectral_radius(asymptotic_linearization(coefficients(instance)).slope)
        got = {}
        for fraction, width in NEAR_BOUNDARY_DIGESTS:
            report = solve(instance.with_demand_scale(fraction * boundary), SolverConfig(interval_width=width))
            assert report.status == "converged"
            digest = hashlib.sha256(report.fixed_point.tobytes())
            digest.update(report.upper.tobytes())
            digest.update(report.start_upper.tobytes())
            got[fraction, width] = (report.iterations, digest.hexdigest())
        assert got == NEAR_BOUNDARY_DIGESTS
    assert len(netmodel._LOADED) == 1


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), num_cells=st.integers(2, 8), pixels_per_cell=st.integers(1, 4),
       noise_exponent=st.floats(-8.0, 0.0), radius_target=st.floats(0.3, 0.9999))
def test_newton_descends_from_above_property(seed, num_cells, pixels_per_cell, noise_exponent,
                                             radius_target):
    """Newton from above: super-solutions, decreasing, one evaluation each and one Jacobian per step.

    On low-noise instances, where the tangent system at the asymptotic
    solution can be unusable, every plain step comes before the first
    tangent step.  Every iterate after it is a super-solution, f(x) <= x,
    and each is below the one before, both within rounding.  Under the
    residual stop the map is evaluated once per iterate and the Jacobian
    once per step; a start that already meets the stop takes one for its
    start bound.  Starts: the default, 0 (raised to the default) and 2 rho*
    from above.
    """
    instance = random_instance(np.random.default_rng(seed), num_cells, pixels_per_cell, radius_target)
    instance = dataclasses.replace(instance, noise_power=instance.noise_power * 10.0 ** noise_exponent)
    default = solve(instance)
    points, values, jacobians = [], [], []
    evaluate, differentiate = coupling.load_function, coupling.jacobian

    def recording(cc, rho, *args, **kwargs):
        result = evaluate(cc, rho, *args, **kwargs)
        points.extend(np.atleast_2d(rho))
        values.extend(np.atleast_2d(result[0] if kwargs.get("terms") else result))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coupling, "load_function", recording)
        patch.setattr(coupling, "jacobian", lambda cc, rho, *args: jacobians.extend(np.atleast_2d(rho))
                      or differentiate(cc, rho, *args))
        for start in (None, np.zeros(num_cells), 2.0 * default.fixed_point):
            for log in (points, values, jacobians):
                log.clear()
            report = solve_from(instance, start)
            assert report.status == "converged"
            assert len(points) == report.iterations + 1
            assert len(jacobians) == max(report.iterations, 1)
            plain = report.fallbacks
            for before, after in zip(values[:plain], points[1:plain + 1]):
                assert np.array_equal(after, before)  # a plain step, rho <- f(rho)
            for k in range(plain + 1, len(points)):
                x = points[k]
                slack = 1e-12 * (1.0 + np.max(x))
                assert np.all(values[k] <= x + slack)
                if k > plain + 1:
                    assert np.all(x <= points[k - 1] + slack)
