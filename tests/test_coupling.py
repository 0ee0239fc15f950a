import math

import numpy as np
import pytest

from helpers import (
    SYMMETRIC_PAIR_LOAD,
    areas,
    affine,
    build_instance,
    cell_hessian,
    fd_hessian_entry,
    fd_jacobian,
    hessian_entry,
    pixel_loop_reference,
    random_instance,
    symmetric_pair_instance,
)
from loadcouple import (
    LinearizedSystem,
    asymptotic_linearization,
    coefficients,
    jacobian,
    load_function,
    tangent_linearization,
)

SEED = 31415
JAC_RTOL = 1e-5
HESS_RTOL = 1e-4


def test_coefficient_values_single_pixel_each():
    # two cells, one pixel each; every coefficient is checkable by hand
    gains = np.array([[2e-7, 5e-8], [4e-8, 3e-7]])
    instance = build_instance(gains, demands=[50.0, 20.0], powers=[2.0, 1.0],
                              noise=1e-8, num_resource_units=10, rate_scale=5.0)
    cc = coefficients(instance)
    assert cc.num_cells == 2
    assert list(instance.server_of) == [0, 1]
    # one pixel per cell: packed position i is cell i's pixel
    assert list(cc.starts) == [0, 1, 2]
    # budget per demand: num_resource_units * rate_scale / demand
    assert cc.a[0] == 10 * 5.0 / 50.0
    assert cc.a[1] == 10 * 5.0 / 20.0
    # interference relative to own received power
    assert cc.rel[1, 0] == (1.0 * 4e-8) / (2.0 * 2e-7)
    assert cc.rel[0, 1] == (2.0 * 5e-8) / (1.0 * 3e-7)
    assert cc.rel[0, 0] == 0.0
    assert cc.rel[1, 1] == 0.0
    # noise relative to own received power
    assert cc.noise[0] == 1e-8 / (2.0 * 2e-7)
    assert cc.noise[1] == 1e-8 / (1.0 * 3e-7)


def test_coefficients_skip_zero_demand_pixels():
    gains = np.array([[1e-7, 2e-7, 5e-8], [4e-8, 3e-8, 1e-7]])
    instance = build_instance(gains, demands=[10.0, 0.0, 5.0], powers=[1.0, 1.0], noise=1e-9)
    cc = coefficients(instance)
    assert list(cc.pixel) == [0, 2]  # pixel 1 dropped despite being served
    assert list(cc.cell_of) == [0, 1]


def test_sinr_matches_direct_formula():
    rng = np.random.default_rng(SEED)
    instance = random_instance(rng, 4, 5)
    cc = coefficients(instance)
    powers = instance.power_per_ru
    rho = rng.uniform(0.0, 1.0, 4)
    sinr = 1.0 / (rho @ cc.rel + cc.noise)
    for i in range(4):
        for j in areas(instance.server_of, 4)[i]:
            pos = int(np.flatnonzero(cc.pixel == j)[0])
            assert cc.cell_of[pos] == i
            interference = sum(
                powers[k] * instance.gains[k, j] * rho[k] for k in range(4) if k != i
            )
            expected = powers[i] * instance.gains[i, j] / (interference + instance.noise_power)
            np.testing.assert_allclose(sinr[pos], expected, rtol=1e-12)


def test_sinr_at_zero_load_is_inverse_rel_noise():
    rng = np.random.default_rng(SEED + 1)
    instance = random_instance(rng, 3, 4)
    cc = coefficients(instance)
    sinr = 1.0 / (np.zeros(3) @ cc.rel + cc.noise)
    np.testing.assert_allclose(sinr, 1.0 / cc.noise, rtol=1e-14)


def test_load_symmetric_pair_matches_high_precision():
    instance = symmetric_pair_instance()
    cc = coefficients(instance)
    value = load_function(cc, np.array([1.0, 1.0]))
    # both components equal ln(2) / ln(1 + 1/(0.5 + 0.1)), frozen at 50 digits
    np.testing.assert_allclose(value, SYMMETRIC_PAIR_LOAD, rtol=1e-15)
    assert value[0] == value[1]


def test_load_single_cell_is_constant():
    gains = np.array([[1e-7, 3e-8]])
    instance = build_instance(gains, demands=[5.0, 2.0], powers=[1.0], noise=1e-9,
                              num_resource_units=4, rate_scale=2.0)
    cc = coefficients(instance)
    expected = 0.0
    for j in range(2):
        a = 4 * 2.0 / instance.demand_bits[j]
        c = 1e-9 / gains[0, j]
        expected += math.log(2) / (a * math.log1p(1.0 / c))
    for rho in ([0.0], [0.5], [123.0]):
        np.testing.assert_allclose(load_function(cc, np.array(rho)), expected, rtol=1e-14)


def test_load_zero_demand_cell_is_zero():
    gains = np.array([[1e-7, 2e-8], [3e-8, 9e-8]])
    instance = build_instance(gains, demands=[10.0, 0.0], powers=[1.0, 1.0], noise=1e-9)
    cc = coefficients(instance)
    out = load_function(cc, np.array([0.7, 0.7]))
    assert out[1] == 0.0
    assert out[0] > 0.0


def test_load_strictly_increasing_in_other_cells():
    rng = np.random.default_rng(SEED + 3)
    for _ in range(10):
        instance = random_instance(rng, int(rng.integers(2, 6)), 4)
        n = instance.num_cells
        cc = coefficients(instance)
        lo = rng.uniform(0.0, 0.5, n)
        hi = lo + rng.uniform(0.05, 0.5, n)
        f_lo, f_hi = load_function(cc, lo), load_function(cc, hi)
        assert np.all(f_hi > f_lo)


def test_jacobian_matches_central_differences():
    rng = np.random.default_rng(SEED + 4)
    for _ in range(10):
        instance = random_instance(rng, int(rng.integers(2, 7)), int(rng.integers(2, 8)))
        cc = coefficients(instance)
        rho = rng.uniform(0.05, 1.0, instance.num_cells)
        np.testing.assert_allclose(
            jacobian(cc, rho), fd_jacobian(cc, rho), rtol=JAC_RTOL, atol=1e-11
        )


def test_jacobian_diagonal_zero_offdiagonal_positive():
    rng = np.random.default_rng(SEED + 5)
    instance = random_instance(rng, 5, 6)
    jac = jacobian(coefficients(instance), rng.uniform(0.0, 1.0, 5))
    assert np.all(np.diag(jac) == 0.0)
    off = jac[~np.eye(5, dtype=bool)]
    assert np.all(off > 0.0)


def test_jacobian_decreases_with_load():
    # each entry shrinks as interference rises: the map flattens out
    rng = np.random.default_rng(SEED + 6)
    instance = random_instance(rng, 4, 5)
    cc = coefficients(instance)
    j_low = jacobian(cc, np.full(4, 0.1))
    j_high = jacobian(cc, np.full(4, 0.9))
    off = ~np.eye(4, dtype=bool)
    assert np.all(j_high[off] < j_low[off])


def test_jacobian_far_out_matches_asymptotic_slope():
    rng = np.random.default_rng(SEED + 7)
    for _ in range(5):
        instance = random_instance(rng, int(rng.integers(2, 6)), 4)
        n = instance.num_cells
        cc = coefficients(instance)
        slope = asymptotic_linearization(cc).slope
        jac = jacobian(cc, np.full(n, 1e6))
        off = ~np.eye(n, dtype=bool)
        np.testing.assert_allclose(jac[off], slope[off], rtol=1e-4)


def test_jacobian_dominates_asymptotic_slope():
    # the map is concave and increasing, so its slope sits above the limit slope
    rng = np.random.default_rng(SEED + 8)
    instance = random_instance(rng, 4, 6)
    cc = coefficients(instance)
    slope = asymptotic_linearization(cc).slope
    for rho_level in (0.0, 0.4, 2.0):
        jac = jacobian(cc, np.full(4, rho_level))
        off = ~np.eye(4, dtype=bool)
        assert np.all(jac[off] >= slope[off])


def test_hessian_entry_matches_second_differences():
    rng = np.random.default_rng(SEED + 9)
    for _ in range(5):
        n = int(rng.integers(3, 6))
        instance = random_instance(rng, n, 4)
        cc = coefficients(instance)
        rho = rng.uniform(0.2, 0.8, n)
        i = int(rng.integers(0, n))
        others = [k for k in range(n) if k != i]
        k = others[int(rng.integers(0, len(others)))]
        h = others[int(rng.integers(0, len(others)))]
        np.testing.assert_allclose(
            hessian_entry(cc, i, k, h, rho),
            fd_hessian_entry(cc, i, k, h, rho),
            rtol=HESS_RTOL, atol=1e-9,
        )


def test_hessian_entries_negative_and_own_axis_zero():
    rng = np.random.default_rng(SEED + 10)
    instance = random_instance(rng, 4, 5)
    cc = coefficients(instance)
    for _ in range(25):
        rho = rng.uniform(0.0, 1.5, 4)
        for i in range(4):
            for k in range(4):
                for h in range(4):
                    value = hessian_entry(cc, i, k, h, rho)
                    if k == i or h == i:
                        assert value == 0.0
                    else:
                        assert value < 0.0


def test_cell_hessian_matches_entries_and_is_symmetric():
    rng = np.random.default_rng(SEED + 11)
    instance = random_instance(rng, 5, 4)
    cc = coefficients(instance)
    rho = rng.uniform(0.1, 1.0, 5)
    for i in range(5):
        others = [k for k in range(5) if k != i]
        block = cell_hessian(cc, i, rho)
        assert block.shape == (4, 4)
        np.testing.assert_allclose(block, block.T, rtol=1e-13)
        for r, k in enumerate(others):
            for c, h in enumerate(others):
                np.testing.assert_allclose(
                    block[r, c], hessian_entry(cc, i, k, h, rho), rtol=1e-13
                )


def test_cell_hessian_negative_definite():
    rng = np.random.default_rng(SEED + 12)
    for _ in range(5):
        n = int(rng.integers(2, 7))
        instance = random_instance(rng, n, 5)
        cc = coefficients(instance)
        for _ in range(5):
            rho = rng.uniform(0.0, 2.0, n)
            for i in range(n):
                eigs = np.linalg.eigvalsh(cell_hessian(cc, i, rho))
                assert np.max(eigs) < 0.0


def test_midpoint_concavity():
    rng = np.random.default_rng(SEED + 13)
    instance = random_instance(rng, 4, 6)
    cc = coefficients(instance)
    for _ in range(200):
        x = rng.uniform(0.0, 2.0, 4)
        y = rng.uniform(0.0, 2.0, 4)
        mid = load_function(cc, 0.5 * (x + y))
        avg = 0.5 * (load_function(cc, x) + load_function(cc, y))
        assert np.all(mid >= avg - 1e-12)


def test_asymptotic_linearization_values():
    # single pixel per cell: slope entries are ln(2) * b / a exactly
    gains = np.array([[2e-7, 5e-8], [4e-8, 3e-7]])
    instance = build_instance(gains, demands=[50.0, 20.0], powers=[2.0, 1.0],
                              noise=1e-8, num_resource_units=10, rate_scale=5.0)
    cc = coefficients(instance)
    system = asymptotic_linearization(cc)
    assert np.all(system.anchor == 0.0)
    b_01 = (1.0 * 4e-8) / (2.0 * 2e-7)
    b_10 = (2.0 * 5e-8) / (1.0 * 3e-7)
    np.testing.assert_allclose(system.slope[0, 1], math.log(2) * b_01 / 1.0, rtol=1e-14)
    np.testing.assert_allclose(system.slope[1, 0], math.log(2) * b_10 / 2.5, rtol=1e-14)
    np.testing.assert_allclose(system.offset, load_function(cc, np.zeros(2)), rtol=0)


def test_linearizations_bracket_the_map():
    rng = np.random.default_rng(SEED + 14)
    for _ in range(5):
        n = int(rng.integers(2, 6))
        instance = random_instance(rng, n, 4)
        cc = coefficients(instance)
        below = asymptotic_linearization(cc)
        anchor = rng.uniform(0.1, 1.0, n)
        above = tangent_linearization(cc, anchor)
        for _ in range(50):
            rho = rng.uniform(0.0, 2.0, n)
            f = load_function(cc, rho)
            scale = 1.0 + np.abs(f)
            assert np.all(affine(below, rho) <= f + 1e-12 * scale)
            assert np.all(affine(above, rho) >= f - 1e-12 * scale)


def test_tangent_is_exact_at_anchor():
    rng = np.random.default_rng(SEED + 15)
    instance = random_instance(rng, 4, 5)
    cc = coefficients(instance)
    anchor = rng.uniform(0.1, 1.0, 4)
    system = tangent_linearization(cc, anchor)
    assert np.array_equal(affine(system, anchor), load_function(cc, anchor))


def test_evaluate_hand_case():
    system = LinearizedSystem(
        slope=np.array([[0.0, 0.5], [0.25, 0.0]]),
        anchor=np.array([1.0, 2.0]),
        offset=np.array([3.0, 4.0]),
    )
    np.testing.assert_allclose(affine(system, np.array([5.0, 6.0])), [5.0, 5.0], rtol=0)


def test_empty_area_gives_zero_row_and_offset():
    # cell 2 loses both pixels to cell 1: its load is identically zero
    gains = np.array([[1e-7, 9e-8], [1e-8, 2e-8]])
    instance = build_instance(gains, demands=[5.0, 5.0], powers=[1.0, 1.0], noise=1e-9)
    assert list(instance.server_of) == [0, 0]
    cc = coefficients(instance)
    system = asymptotic_linearization(cc)
    assert np.all(system.slope[1, :] == 0.0)
    assert system.offset[1] == 0.0
    assert system.slope[0, 1] > 0.0


def _instance_with_empty_cell(rng, n, empty):
    """Random n-cell instance where cell ``empty`` serves only zero-demand pixels.

    Besides those, some pixels of busy cells carry zero demand and some
    zero-demand pixels have no serving cell at all.
    """
    m = 6 * n
    gains = 10.0 ** rng.uniform(-9.0, -6.0, (n, m))
    demands = rng.uniform(1.0, 4.0, m)
    server_of = rng.choice([i for i in range(n) if i != empty], m)
    server_of[:2] = empty
    server_of[5:7] = -1
    demands[:7] = 0.0
    powers = 10.0 ** rng.uniform(-0.3, 0.3, n)
    return build_instance(gains, demands, powers, noise=1e-9, server_of=server_of)


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_packed_kernels_match_pixel_loop(where):
    rng = np.random.default_rng(SEED + 40)
    for _ in range(5):
        n = int(rng.integers(3, 7))
        empty = {"first": 0, "middle": n // 2, "last": n - 1}[where]
        instance = _instance_with_empty_cell(rng, n, empty)
        cc = coefficients(instance)
        assert cc.starts[empty] == cc.starts[empty + 1]
        rho = rng.uniform(0.0, 2.0, n)
        load, jac, slope, offset = pixel_loop_reference(instance, rho)
        np.testing.assert_allclose(load_function(cc, rho), load, rtol=1e-12)
        np.testing.assert_allclose(jacobian(cc, rho), jac, rtol=1e-12)
        asym = asymptotic_linearization(cc)
        np.testing.assert_allclose(asym.slope, slope, rtol=1e-12)
        np.testing.assert_allclose(asym.offset, offset, rtol=1e-12)
        assert load[empty] == 0.0 and not np.any(jac[empty]) and not np.any(slope[empty])


def test_per_cell_fields_are_views_of_packed_arrays():
    rng = np.random.default_rng(SEED + 41)
    instance = _instance_with_empty_cell(rng, 4, 1)
    cc = coefficients(instance)
    for per_cell, packed in ((cc.rate_per_demand, cc.a), (cc.rel_interference, cc.rel),
                             (cc.rel_noise, cc.noise)):
        assert len(per_cell) == 4
        assert all(np.shares_memory(view, packed) for view in per_cell if view.size)
        assert sum(view.nbytes for view in per_cell) == packed.nbytes
    for i in range(4):
        assert list(cc.pixel[cc.starts[i]:cc.starts[i + 1]]) == [
            j for j in areas(instance.server_of, 4)[i] if instance.demand_bits[j] > 0]


def test_scaled_matches_rebuilt_coefficients():
    rng = np.random.default_rng(SEED + 42)
    instance = _instance_with_empty_cell(rng, 4, 2)
    cc = coefficients(instance)
    for s in (0.0, 0.3, 1.0, 7.5):
        scaled, rebuilt = cc.scaled(s), coefficients(instance.with_demand_scale(s))
        for name in ("pixel", "cell_of", "starts", "rel", "noise"):
            np.testing.assert_array_equal(getattr(scaled, name), getattr(rebuilt, name))
        # a / s against a / (demand * s): the two roundings differ by an ulp or two
        np.testing.assert_allclose(scaled.a, rebuilt.a, rtol=1e-15)
        rho = rng.uniform(0.0, 1.0, 4)
        np.testing.assert_allclose(load_function(scaled, rho), load_function(rebuilt, rho),
                                   rtol=1e-14)
    for bad in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            cc.scaled(bad)
