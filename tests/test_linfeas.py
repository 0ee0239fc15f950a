import itertools
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import (
    DIVERGENCE_LIMIT,
    build_instance,
    eig_radius,
    fixed_point_iteration,
    lower_bound,
    random_instance,
    tangent_linearization,
    two_cell_instance,
    upper_bound,
)
from loadcouple import (
    LinearizedSystem,
    asymptotic_linearization,
    coefficients,
    feasibility_check,
    linfeas,
    load_function,
    solve,
    solve_linear,
    solver,
    spectral_radius,
)

SEED = 2718


def _affine(slope, offset, anchor=None):
    """The system rho = slope @ (rho - anchor) + offset, the anchor folded into the offset."""
    slope = np.asarray(slope, dtype=np.float64)
    offset = np.asarray(offset, dtype=np.float64)
    if anchor is not None:
        offset = offset - slope @ np.asarray(anchor, dtype=np.float64)
    return LinearizedSystem(slope=slope, offset=offset)


def _bare_model(system) -> linfeas.Model:
    """A model of a bare affine system: its radius and reducible flag read only the slope."""
    return linfeas.Model(coefficients=None, system=system)


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
    system = _affine([[0.0, 2.0], [0.8, 0.0]], [0.1, 0.1])
    outcome = solve_linear(system)
    assert outcome.status == "infeasible_negative"
    assert outcome.solution is None
    assert spectral_radius(system.slope) > 1.0


def test_singular_on_the_boundary():
    for slope in ([[0.0, 1.0], [1.0, 0.0]], [[0.0, 2.0], [0.5, 0.0]]):
        outcome = solve_linear(_affine(slope, [0.1, 0.2]))
        assert outcome.status == "singular"
        assert outcome.solution is None
        np.testing.assert_allclose(spectral_radius(np.array(slope)), 1.0, atol=1e-8)


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
        outcome = solve_linear(system, scale)
        assert outcome.status == "feasible", scale
        assert np.all(np.isfinite(outcome.solution))


def test_zero_slope_returns_offset():
    offset = np.array([0.3, 0.0, 1.2])
    system = _affine(np.zeros((3, 3)), offset)
    outcome = solve_linear(system)
    assert outcome.status == "feasible"
    assert np.array_equal(outcome.solution, offset)
    model = _bare_model(system)
    assert model.spectral_radius == 0.0
    assert model.reducible


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


def _irreducible(m) -> bool:
    """(I + pattern)^(n-1) is positive exactly when every cell reaches every other."""
    return bool(np.all(np.linalg.matrix_power(np.eye(len(m)) + (m > 0), len(m) - 1) > 0))


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

    matrices = [m for m in matrices if _irreducible(m)]
    assert len(matrices) >= 10
    slope_rng = np.random.default_rng(SEED + 3)
    slopes = [asymptotic_linearization(coefficients(random_instance(
        slope_rng, int(slope_rng.integers(2, 9)), 5))).slope for _ in range(10)]
    assert all(_irreducible(m) for m in slopes)
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


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12),
       pattern=st.sampled_from(["dense", "sparse", "cyclic"]), decades=st.integers(0, 4),
       magnitude=st.integers(-8, 8))
def test_spectral_radius_lies_in_a_collatz_wielandt_bracket_property(seed, n, pattern, decades, magnitude):
    """For irreducible A >= 0 the radius sits in the bracket of the Perron vector within a few n eps.

    A weighted cycle through every cell makes A irreducible; alone it is
    periodic, the sparse pattern adds about 30% of the other entries and the
    dense one all.  Nonzero entries spread over ``decades`` decades around
    10**magnitude.  The bracket min(Av/v) <= rho <= max(Av/v) holds for any
    v > 0; v is numpy's eigenvector of the eigenvalue of largest real part,
    which is rho, and the ratios are taken in extended precision.  The
    radius may sit below the bracket by its own ratios' rounding, about
    (n + 1) eps, and above it by as much again plus the iteration's stopping
    width, 8 eps.
    """
    rng = np.random.default_rng(seed)
    pattern_mask = {"dense": np.ones((n, n), dtype=bool), "sparse": rng.uniform(size=(n, n)) < 0.3,
                    "cyclic": np.zeros((n, n), dtype=bool)}[pattern]
    cells = rng.permutation(n)
    pattern_mask[cells, np.roll(cells, 1)] = True
    m = pattern_mask * 10.0 ** (magnitude + rng.uniform(0, decades, (n, n)))
    values, vectors = np.linalg.eig(m)
    v = np.abs(vectors[:, np.argmax(values.real)])
    assume(np.all(v > 0))
    ratios = (m.astype(np.longdouble) @ v.astype(np.longdouble)) / v
    radius = spectral_radius(m)
    slack = (2 * n + 10) * np.finfo(float).eps * radius
    assert float(ratios.min()) - slack <= radius <= float(ratios.max()) + slack


@pytest.mark.parametrize("m", [
    np.zeros((1, 1)),
    np.array([[0.7]]),
    np.zeros((3, 3)),
    np.diag([0.2, 0.9, 0.4]),  # reducible: no cell reaches another
    np.triu(np.full((4, 4), 0.5), k=1),  # nilpotent
    np.array([[0.5, 0.3, 0.0], [0.2, 0.1, 0.0], [0.4, 0.4, 0.6]]),  # block triangular
    np.array([[-0.2, 0.5], [0.5, 0.0]]),  # a negative entry: the radius is |-0.2/2 - sqrt(0.26)|
    # irreducible, but the step solves land just below the root and give z < 0
    np.array([[2.0, 0.008], [0.0004, 9.0]]),
], ids=["zero_1x1", "1x1", "zero", "diagonal", "nilpotent", "block_triangular", "negative_entry",
        "z_not_positive"])
def test_spectral_radius_outside_the_perron_path_is_the_eigenvalue_solve(m):
    assert linfeas._perron_root(m) is None
    assert spectral_radius(m) == float(np.max(np.abs(np.linalg.eigvals(m)), initial=0.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_spectral_radius_of_a_non_finite_matrix_raises(bad):
    with pytest.raises(np.linalg.LinAlgError):
        spectral_radius(np.array([[0.0, bad], [0.5, 0.0]]))


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

    assert solve_linear(system, (1.0 - margin) * boundary).status == "feasible"
    (report,) = solver.solve_scales(instance, [(1.0 - margin) * boundary])
    assert report.status == "converged"
    assert np.all(report.lower <= report.fixed_point) and np.all(report.fixed_point <= report.upper)

    assert solve_linear(system, (1.0 + margin) * boundary).status != "feasible"
    above = cc.rates([(1.0 + margin) * boundary])
    rho, _, steps, converged = fixed_point_iteration(cc, np.zeros(num_cells), a=above)
    assert not converged and steps < 10_000 and np.max(rho) > DIVERGENCE_LIMIT


def test_lu_solve_two_columns_match_two_one_column_solves():
    rng = np.random.default_rng(SEED + 11)
    lhs = np.eye(5) - rng.uniform(0.0, 0.15, (5, 5))
    rhs = rng.uniform(-1.0, 1.0, (5, 2))
    both = linfeas._lu_solve(lhs, rhs)
    assert both.shape == (5, 2)
    for k in range(2):
        np.testing.assert_allclose(both[:, k], linfeas._lu_solve(lhs, rhs[:, k]), rtol=1e-12)


def test_lu_solve_exact_zero_pivot_is_none_without_warning():
    # pytest turns warnings into errors (pyproject.toml), so a warning from the solve fails here
    assert linfeas._lu_solve(np.array([[1.0, -1.0], [-1.0, 1.0]]), np.array([0.1, 0.2])) is None


def test_lu_solve_stack_is_each_lone_solve_and_falls_back_on_a_zero_pivot():
    """A stacked solve gives each system's lone bits; a zero pivot in one leaves the others solved."""
    rng = np.random.default_rng(SEED + 12)
    lhs = np.eye(4) - rng.uniform(0.0, 0.2, (3, 4, 4))
    rhs = rng.uniform(-1.0, 1.0, (3, 4, 1))
    for stack in (lhs, np.stack([lhs[0], np.ones((4, 4)), lhs[2]])):
        solved = linfeas._lu_solve_stack(stack, rhs)
        for one_lhs, one_rhs, x in zip(stack, rhs, solved):
            alone = linfeas._lu_solve(one_lhs, one_rhs)
            assert (x is None) == (alone is None) and (x is None or np.array_equal(x, alone))
        assert (solved[1] is None) == (stack is not lhs)


def test_one_blas_thread_pins_nested_and_concurrent_blocks_and_restores_the_count():
    """While any block is inside, OpenBLAS runs on one thread; the last to leave restores the count."""
    calls = linfeas._openblas_thread_calls()
    if calls is None:
        pytest.skip("numpy's OpenBLAS has no thread-count setter")
    get, set_ = calls
    before, interval = get(), sys.getswitchinterval()
    seen, errors = [], []

    def work():
        try:
            for _ in range(200):
                with linfeas._one_blas_thread:
                    with linfeas._one_blas_thread:
                        seen.append(get())
        except Exception as exc:  # reported below: a thread's exception would go unseen
            errors.append(exc)

    try:
        set_(2)
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads) and not errors
        assert len(seen) == 8 * 200 and set(seen) == {1}
        assert get() == 2
    finally:
        sys.setswitchinterval(interval)
        set_(before)


def _nilpotent(m) -> bool:
    """A nonnegative matrix is nilpotent exactly when its pattern's n-th power is zero."""
    return not np.any(np.linalg.matrix_power((m > 0).astype(np.int64), len(m)))


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), num_cells=st.integers(2, 6), reducible=st.booleans(),
       side=st.sampled_from([-1.0, 1.0]), delta=st.floats(1e-6, 1e-1))
def test_permuting_cells_permutes_the_verdict_property(seed, num_cells, reducible, side, delta):
    """Renumbering the cells renumbers the LU verdict and the solution at (1 -+ delta)/rho(A).

    The slopes have a zero diagonal, as coupling slopes do, and are either
    dense or reducible: a random group of cells gets no coupling from the
    others.  Nilpotent and block-triangular slopes at huge scales are left to
    the tests below.
    """
    rng = np.random.default_rng(seed)
    slope = rng.uniform(0.1, 1.0, (num_cells, num_cells))
    np.fill_diagonal(slope, 0.0)
    if reducible:
        group = rng.permutation(num_cells) < rng.integers(1, num_cells)
        slope[np.ix_(group, ~group)] = 0.0
    assume(not _nilpotent(slope))
    offset = rng.uniform(0.1, 1.0, num_cells)
    order = rng.permutation(num_cells)
    scale = (1.0 + side * delta) / eig_radius(slope)

    outcome = solve_linear(_affine(slope, offset), scale)
    permuted = solve_linear(_affine(slope[np.ix_(order, order)], offset[order]), scale)
    assert permuted.status == outcome.status
    if outcome.status == "feasible":
        np.testing.assert_allclose(permuted.solution, outcome.solution[order], rtol=1e-6)


def test_nilpotent_verdict_does_not_depend_on_cell_order():
    """rho(A) = 0, so every scale is feasible; the solution spans many orders of magnitude.

    With a strictly triangular slope of n cells, the load vector at scale s
    has components from about s up to s**n, so a backward-stable solve in a
    non-triangular cell order may return a small component with the wrong
    sign.  The verdict solves in Frobenius block order, which is triangular.
    """
    rng = np.random.default_rng(SEED + 12)
    for num_cells in (3, 4, 5):
        slope = np.triu(rng.uniform(0.1, 1.0, (num_cells, num_cells)), k=1)
        offset = rng.uniform(0.1, 1.0, num_cells)
        for scale in (1e10, 1e16, 1e20):
            verdicts = {solve_linear(_affine(slope[np.ix_(order, order)], offset[order]), scale).status
                        for order in map(list, itertools.permutations(range(num_cells)))}
            # the identity order is triangular, so its solve is a positive back substitution
            assert verdicts == {"feasible"}, (num_cells, scale, verdicts)


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), num_cells=st.integers(3, 6), nilpotent=st.booleans(),
       scale=st.sampled_from([1e10, 1e16, 1e20]))
def test_permuting_block_triangular_cells_permutes_the_solution_property(seed, num_cells, nilpotent, scale):
    """A block-triangular slope at scale s is feasible in every cell order, with the solution permuted.

    The cells split into strongly connected blocks, each coupled to every
    later block with positive entries of order one, so the loads span about
    s to s**blocks.  Each diagonal block has radius below 1/s, which keeps
    every scale up to s feasible; nilpotent slopes have one cell per block
    and a zero diagonal block.
    """
    rng = np.random.default_rng(seed)
    if nilpotent:
        blocks = [[i] for i in range(num_cells)]
    else:
        cuts = sorted(rng.choice(range(1, num_cells), rng.integers(0, num_cells - 1), replace=False))
        blocks = [range(lo, hi) for lo, hi in zip([0, *cuts], [*cuts, num_cells])]
    slope = np.triu(rng.uniform(0.1, 1.0, (num_cells, num_cells)), k=1)
    for block in blocks:
        if len(block) > 1:
            inner = rng.uniform(0.1, 1.0, (len(block), len(block)))
            np.fill_diagonal(inner, 0.0)
            slope[np.ix_(block, block)] = inner * (rng.uniform(0.1, 0.9) / (scale * eig_radius(inner)))
    offset = rng.uniform(0.1, 1.0, num_cells)
    order = rng.permutation(num_cells)

    outcome = solve_linear(_affine(slope, offset), scale)
    permuted = solve_linear(_affine(slope[np.ix_(order, order)], offset[order]), scale)
    assert (outcome.status, permuted.status) == ("feasible", "feasible")
    np.testing.assert_allclose(permuted.solution, outcome.solution[order], rtol=1e-9)


def test_reducible_flag_for_isolated_cell():
    # cell 2 serves nothing, so its slope row is all zero
    gains = np.array([[1e-7, 9e-8], [1e-8, 2e-8]])
    instance = build_instance(gains, demands=[5.0, 5.0], powers=[1.0, 1.0], noise=1e-9)
    _, outcome = feasibility_check(instance)
    assert linfeas.model(instance).reducible
    assert outcome.status == "feasible"


def test_cyclic_slope_is_not_flagged_reducible():
    # zero entries off the diagonal, yet 1 -> 3 -> 2 -> 1 links every cell to every other
    slope = np.array([[0.0, 0.3, 0.0], [0.0, 0.0, 0.3], [0.3, 0.0, 0.0]])
    assert not _bare_model(_affine(slope, np.ones(3))).reducible


@given(seed=st.integers(0, 2**32 - 1), num_cells=st.integers(1, 8),
       density=st.sampled_from([0.0, 0.15, 0.3, 0.5, 0.8, 1.0]))
def test_reducible_flag_means_not_strongly_connected_property(seed, num_cells, density):
    rng = np.random.default_rng(seed)
    slope = rng.uniform(0.1, 1.0, (num_cells, num_cells)) * (rng.uniform(size=(num_cells, num_cells)) < density)
    assert _bare_model(_affine(slope, np.ones(num_cells))).reducible == (not _irreducible(slope))


def test_irreducible_corpus_not_flagged():
    rng = np.random.default_rng(SEED + 4)
    instance = random_instance(rng, 4, 5, radius_target=0.5)
    assert not linfeas.model(instance).reducible


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
