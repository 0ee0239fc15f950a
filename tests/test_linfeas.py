import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    build_instance,
    eig_radius,
    lower_bound,
    random_instance,
    two_cell_instance,
    upper_bound,
)
from loadcouple import (
    LinearizedSystem,
    asymptotic_linearization,
    coefficients,
    feasibility_check,
    fixed_point_iteration,
    linfeas,
    load_function,
    solve,
    solve_linear,
    solver,
    spectral_radius,
    tangent_linearization,
)

SEED = 2718


def _affine(slope, offset, anchor=None):
    slope = np.asarray(slope, dtype=np.float64)
    offset = np.asarray(offset, dtype=np.float64)
    if anchor is None:
        anchor = np.zeros_like(offset)
    return LinearizedSystem(slope=slope, anchor=np.asarray(anchor, dtype=np.float64),
                            offset=offset)


def test_two_cell_closed_form():
    rng = np.random.default_rng(SEED)
    for _ in range(25):
        instance = two_cell_instance(rng, radius_target=float(rng.uniform(0.1, 0.9)))
        system = asymptotic_linearization(coefficients(instance))
        outcome = solve_linear(system)
        assert outcome.status == "feasible"
        h12, h21 = system.slope[0, 1], system.slope[1, 0]
        f0 = system.offset
        expected0 = (f0[0] + f0[1] * h12) / (1.0 - h12 * h21)
        expected1 = (f0[1] + f0[0] * h21) / (1.0 - h12 * h21)
        np.testing.assert_allclose(outcome.solution, [expected0, expected1], rtol=1e-12)


def test_infeasible_when_coupling_product_exceeds_one():
    outcome = solve_linear(_affine([[0.0, 2.0], [0.8, 0.0]], [0.1, 0.1]))
    assert outcome.status == "infeasible_negative"
    assert outcome.solution is None
    assert outcome.spectral_radius > 1.0


def test_singular_on_the_boundary():
    for slope in ([[0.0, 1.0], [1.0, 0.0]], [[0.0, 2.0], [0.5, 0.0]]):
        outcome = solve_linear(_affine(slope, [0.1, 0.2]))
        assert outcome.status == "singular"
        assert outcome.solution is None
        np.testing.assert_allclose(outcome.spectral_radius, 1.0, atol=1e-8)


def test_nan_slope_is_singular_not_feasible():
    outcome = solve_linear(_affine([[np.nan]], [0.1]))
    assert outcome.status == "singular"
    assert outcome.solution is None


@pytest.mark.parametrize("gains", [[[1e-7, 1e-7], [1e-8, 1e-8]], [[1e-8, 1e-8], [1e-7, 1e-7]]])
def test_nilpotent_slope_is_feasible_at_any_scale_in_both_cell_orders(gains):
    """One cell serves both pixels, so rho(A) = 0 and every demand scale is feasible.

    With the serving cell second, partial pivoting leaves a pivot of about
    1/s, which is small but not zero, so the system is not singular.
    """
    instance = build_instance(gains, demands=[10, 20], powers=[1, 1], noise=1e-9)
    system = asymptotic_linearization(coefficients(instance))
    assert spectral_radius(system.slope) == 0.0
    for scale in (1e14, 1e16, 1e20):
        feasible, outcome = linfeas.feasibility(system, scale)
        assert feasible and outcome.status == "feasible", scale
        assert np.all(np.isfinite(outcome.solution))


def test_zero_slope_returns_offset():
    offset = np.array([0.3, 0.0, 1.2])
    outcome = solve_linear(_affine(np.zeros((3, 3)), offset))
    assert outcome.status == "feasible"
    assert np.array_equal(outcome.solution, offset)
    assert outcome.spectral_radius == 0.0
    assert outcome.reducible


def test_anchor_shifts_solution():
    # rho = H (rho - anchor) + offset has solution (I-H)^-1 (offset - H anchor)
    slope = np.array([[0.0, 0.5], [0.25, 0.0]])
    anchor = np.array([1.0, 1.0])
    offset = np.array([2.0, 2.0])
    outcome = solve_linear(_affine(slope, offset, anchor))
    expected = np.linalg.solve(np.eye(2) - slope, offset - slope @ anchor)
    np.testing.assert_allclose(outcome.solution, expected, rtol=1e-14)


def test_feasibility_matches_eigenvalue_oracle():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(30):
        target = float(rng.choice([0.3, 0.7, 0.95, 1.05, 1.4, 2.0]))
        instance = random_instance(rng, int(rng.integers(2, 7)), 4, radius_target=target)
        feasible, outcome = feasibility_check(instance)
        slope = asymptotic_linearization(coefficients(instance)).slope
        assert feasible == (eig_radius(slope) < 1.0)
        assert feasible == (outcome.status == "feasible")


def test_spectral_radius_matches_eigvals():
    """Known radii, and a Collatz-Wielandt bracket around the radius of irreducible matrices.

    For A >= 0 and any v > 0, min_i (Av)_i / v_i <= rho(A) <= max_i (Av)_i / v_i
    (Horn & Johnson, Matrix Analysis, 2nd ed., section 8.1), however v was
    computed.  The bracket closes on the Perron vector of an irreducible A,
    so a narrow bracket checks the radius without trusting the eigenvalue solve.
    Random matrices and the asymptotic slopes of random networks both pass.
    """
    rng = np.random.default_rng(SEED + 2)
    known = [
        (np.zeros((1, 1)), 0.0),
        (np.array([[0.0, 2.0], [0.5, 0.0]]), 1.0),
        (np.diag([0.2, 0.9, 0.4]), 0.9),
        (np.triu(rng.uniform(0.0, 1.0, (5, 5)), k=1), 0.0),  # nilpotent
    ]
    for m, radius in known:
        assert spectral_radius(m) == pytest.approx(radius, rel=1e-14, abs=1e-14)
    matrices = [rng.uniform(0.0, 1.0, (8, 8))]
    for _ in range(20):
        n = int(rng.integers(2, 10))
        m = rng.uniform(0.0, 1.0, (n, n))
        m[rng.uniform(size=(n, n)) < 0.3] = 0.0  # sprinkle reducibility
        matrices.append(m)

    def irreducible(m):
        return bool(np.all(np.linalg.matrix_power(np.eye(len(m)) + (m > 0), len(m) - 1) > 0))

    matrices = [m for m in matrices if irreducible(m)]
    assert len(matrices) >= 10
    slope_rng = np.random.default_rng(SEED + 3)
    slopes = [asymptotic_linearization(coefficients(random_instance(
        slope_rng, int(slope_rng.integers(2, 9)), 5))).slope for _ in range(10)]
    assert all(irreducible(m) for m in slopes)
    for m in matrices + slopes:
        values, vectors = np.linalg.eig(m)
        perron = np.abs(vectors[:, np.argmax(np.abs(values))])
        ratios = (m @ perron) / perron
        lo, hi = float(np.min(ratios)), float(np.max(ratios))
        radius = spectral_radius(m)
        # the eigenvalue solve is backward stable: its rounding is a few n eps ||A||
        rounding = 4 * len(m) * np.finfo(float).eps * np.linalg.norm(m, np.inf)
        assert lo - rounding <= radius <= hi + rounding
        assert hi - lo <= 1e-12 * radius


@settings(max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), num_cells=st.integers(2, 6),
       radius_target=st.floats(0.3, 0.95), margin=st.sampled_from([0.02, 0.1]))
def test_verdict_matches_solvability_property(seed, num_cells, radius_target, margin):
    """The LU verdict is feasible exactly where the load map has a fixed point.

    Just below 1/rho(A) the verdict is feasible and the solve converges
    between its bounds; just above, the verdict is infeasible and plain
    iteration from zero diverges.
    """
    instance = random_instance(np.random.default_rng(seed), num_cells, 3, radius_target)
    cc = coefficients(instance)
    system = asymptotic_linearization(cc)
    boundary = 1.0 / eig_radius(system.slope)

    assert linfeas.feasibility(system, (1.0 - margin) * boundary)[0]
    below = cc.scaled((1.0 - margin) * boundary)
    report = solver.solve_coefficients(below)
    assert report.status == "converged"
    assert np.all(report.lower <= report.fixed_point) and np.all(report.fixed_point <= report.upper)

    assert not linfeas.feasibility(system, (1.0 + margin) * boundary)[0]
    above = cc.scaled((1.0 + margin) * boundary)
    rho, _, steps, converged = fixed_point_iteration(above, np.zeros(num_cells))
    assert not converged and steps < 10_000 and np.max(rho) > solver.DIVERGENCE_LIMIT


def test_reducible_flag_for_isolated_cell():
    # cell 2 serves nothing, so its slope row is all zero
    gains = np.array([[1e-7, 9e-8], [1e-8, 2e-8]])
    instance = build_instance(gains, demands=[5.0, 5.0], powers=[1.0, 1.0], noise=1e-9)
    _, outcome = feasibility_check(instance)
    assert outcome.reducible
    assert outcome.status == "feasible"


def test_irreducible_corpus_not_flagged():
    rng = np.random.default_rng(SEED + 4)
    instance = random_instance(rng, 4, 5, radius_target=0.5)
    _, outcome = feasibility_check(instance)
    assert not outcome.reducible


def test_lower_bound_below_fixed_point():
    rng = np.random.default_rng(SEED + 5)
    for _ in range(10):
        instance = random_instance(rng, int(rng.integers(2, 6)), 4,
                                   radius_target=float(rng.uniform(0.2, 0.8)))
        lower = lower_bound(instance)
        report = solve(instance)
        assert report.status == "converged"
        assert np.all(lower <= report.fixed_point + 1e-12)


def test_lower_bound_exact_for_decoupled_cell():
    gains = np.array([[1e-7, 3e-8]])
    instance = build_instance(gains, demands=[5.0, 2.0], powers=[1.0], noise=1e-9)
    cc = coefficients(instance)
    lower = lower_bound(instance)
    np.testing.assert_allclose(lower, load_function(cc, np.zeros(1)), rtol=0)


def test_lower_bound_raises_when_infeasible():
    rng = np.random.default_rng(SEED + 6)
    instance = random_instance(rng, 3, 4, radius_target=1.5)
    with pytest.raises(ValueError):
        lower_bound(instance)


def test_upper_bound_fixed_when_anchored_at_fixed_point():
    rng = np.random.default_rng(SEED + 7)
    instance = random_instance(rng, 4, 5, radius_target=0.6)
    report = solve(instance)
    upper = upper_bound(instance, report.fixed_point)
    np.testing.assert_allclose(upper, report.fixed_point, rtol=1e-9)


def test_upper_bound_above_fixed_point():
    rng = np.random.default_rng(SEED + 8)
    for _ in range(10):
        instance = random_instance(rng, int(rng.integers(2, 6)), 4,
                                   radius_target=float(rng.uniform(0.2, 0.7)))
        report = solve(instance)
        upper = upper_bound(instance, lower_bound(instance))
        if upper is None:
            # tangent system unsolvable this far from the fixed point; legal
            continue
        assert np.all(upper >= report.fixed_point - 1e-9)


def test_upper_bound_none_when_tangent_diverges():
    # almost no noise: the map is much steeper at zero than its asymptotic
    # slope, so the tangent system at the origin has spectral radius > 1
    rng = np.random.default_rng(SEED + 9)
    instance = random_instance(rng, 4, 5, radius_target=0.9)
    cc = coefficients(instance)
    tangent = tangent_linearization(cc, np.zeros(4))
    if eig_radius(tangent.slope) > 1.0:
        assert upper_bound(instance, np.zeros(4)) is None
    else:
        pytest.skip("seed produced a solvable tangent at zero")


def test_fixed_point_between_bounds():
    rng = np.random.default_rng(SEED + 10)
    instance = random_instance(rng, 5, 6, radius_target=0.7)
    report = solve(instance)
    lower = lower_bound(instance)
    upper = upper_bound(instance, report.fixed_point)
    assert np.all(lower <= report.fixed_point + 1e-12)
    assert np.all(report.fixed_point <= upper + 1e-9)
    # plain iteration from zero lands on the same point
    rho, _, _, converged = fixed_point_iteration(
        coefficients(instance), np.zeros(5), 1e-12, 100_000
    )
    assert converged
    np.testing.assert_allclose(rho, report.fixed_point, rtol=1e-8, atol=1e-12)
