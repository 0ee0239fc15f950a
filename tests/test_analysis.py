import dataclasses
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import build_instance, eig_radius, random_instance, two_cell_instance
from loadcouple import (
    NetworkInstance,
    PreconditionError,
    asymptotic_linearization,
    bound_quality,
    coefficients,
    compare_configs,
    coupling,
    demand_sweep,
    feasibility_boundary,
    feasibility_check,
    linfeas,
    load_function,
    solve,
)

SEED = 57721


def _slope_radius(instance):
    return eig_radius(asymptotic_linearization(coefficients(instance)).slope)


def test_sweep_splits_at_the_boundary():
    rng = np.random.default_rng(SEED)
    instance = random_instance(rng, 4, 5, radius_target=1.0)
    # radius scales linearly with demand, so the boundary sits at scale 1
    scales = np.linspace(0.2, 1.8, 9)
    rows = demand_sweep(instance, scales)
    assert [row.scale for row in rows] == list(scales)
    for row in rows:
        if row.scale < 0.995:
            assert row.feasible and row.solve_status == "converged"
            assert row.rho_star is not None and row.rho_lower is not None
            assert np.all(row.rho_lower <= row.rho_star + 1e-12)
        elif row.scale > 1.005:
            assert not row.feasible
            assert row.rho_star is None and row.solve_status is None


def test_sweep_loads_grow_with_demand():
    rng = np.random.default_rng(SEED + 1)
    instance = random_instance(rng, 4, 5, radius_target=0.9)
    rows = demand_sweep(instance, np.linspace(0.2, 1.0, 5))
    for prev, cur in zip(rows, rows[1:]):
        assert np.all(cur.rho_star > prev.rho_star)
        assert cur.spectral_radius > prev.spectral_radius


def test_sweep_radius_is_linear_in_scale():
    rng = np.random.default_rng(SEED + 2)
    instance = random_instance(rng, 5, 4, radius_target=0.5)
    rows = demand_sweep(instance, [0.25, 0.5, 1.0, 1.6])
    per_unit = [row.spectral_radius / row.scale for row in rows]
    np.testing.assert_allclose(per_unit, per_unit[0], rtol=1e-6)


def test_sweep_small_scale_limit_matches_zero_load():
    rng = np.random.default_rng(SEED + 3)
    instance = random_instance(rng, 4, 5, radius_target=0.8)
    offset_at_unit_scale = load_function(coefficients(instance), np.zeros(4))
    (row,) = demand_sweep(instance, [1e-5])
    # the map at tiny loads is steeper than its asymptotic slope, so the
    # linear term vanishes like scale times the tangent weight, not exactly
    np.testing.assert_allclose(row.rho_star / 1e-5, offset_at_unit_scale, rtol=1e-3)


def test_sweep_rows_do_not_depend_on_schedule():
    rng = np.random.default_rng(SEED + 4)
    instance = random_instance(rng, 4, 5, radius_target=1.0)
    scales = np.linspace(0.3, 1.2, 7)
    warm = demand_sweep(instance, scales)
    reverse = demand_sweep(instance, scales[::-1])[::-1]
    single = [demand_sweep(instance, [s])[0] for s in scales]
    for other in (reverse, single):
        for a, b in zip(warm, other):
            assert a.scale == b.scale
            assert a.feasible == b.feasible
            assert a.spectral_radius == pytest.approx(b.spectral_radius, rel=1e-12)
            if a.feasible:
                np.testing.assert_allclose(a.rho_star, b.rho_star, rtol=1e-8, atol=1e-10)


def test_sweep_scale_zero_and_bad_scales():
    rng = np.random.default_rng(SEED + 15)
    instance = random_instance(rng, 3, 4, radius_target=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = demand_sweep(instance, [0.0, 0.5, 0.0])
    for row in rows[::2]:
        assert row.feasible and row.spectral_radius == 0.0 and row.solve_status == "converged"
        assert not np.any(row.rho_star) and not np.any(row.rho_lower)
    for bad in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            demand_sweep(instance, [0.5, bad])


def test_boundary_matches_spectral_radius():
    rng = np.random.default_rng(SEED + 5)
    for _ in range(5):
        instance = random_instance(rng, int(rng.integers(2, 6)), 4,
                                   radius_target=float(rng.uniform(0.4, 0.9)))
        expected = 1.0 / _slope_radius(instance)
        cert = feasibility_boundary(instance, lo=0.5 * expected, hi=1.5 * expected,
                                    tol=1e-7)
        np.testing.assert_allclose(cert.scale, expected, rtol=1e-6)
        assert cert.last_feasible <= cert.scale <= cert.first_infeasible
        # a lower end near the float minimum is the zero-demand limit: no
        # warning, and the certificate stays as it is
        for lo in (1e-308, 1e-320):
            assert feasibility_boundary(instance, lo=lo, hi=1.5 * expected, tol=1e-7) == cert


def test_boundary_two_cell_closed_form():
    rng = np.random.default_rng(SEED + 6)
    instance = two_cell_instance(rng, radius_target=0.7)
    slope = asymptotic_linearization(coefficients(instance)).slope
    expected = 1.0 / math.sqrt(slope[0, 1] * slope[1, 0])
    cert = feasibility_boundary(instance, lo=1.0, hi=4.0 * expected, tol=1e-7)
    np.testing.assert_allclose(cert.scale, expected, rtol=1e-6)


def test_boundary_precondition_errors():
    rng = np.random.default_rng(SEED + 7)
    instance = random_instance(rng, 3, 4, radius_target=0.5)
    with pytest.raises(PreconditionError):
        feasibility_boundary(instance, lo=3.0, hi=6.0)  # already infeasible at lo
    with pytest.raises(PreconditionError):
        feasibility_boundary(instance, lo=0.5, hi=1.0)  # still feasible at hi
    with pytest.raises(ValueError):
        feasibility_boundary(instance, lo=-1.0, hi=2.0)
    with pytest.raises(ValueError):
        feasibility_boundary(instance, lo=2.0, hi=1.0)
    with pytest.raises(ValueError):
        feasibility_boundary(instance, lo=0.5, hi=6.0, tol=0.0)  # no bracket is zero wide


def test_bound_quality_fields_consistent():
    rng = np.random.default_rng(SEED + 8)
    instance = random_instance(rng, 4, 6, radius_target=0.6)
    bounds = bound_quality(instance)
    report = solve(instance)
    assert [b.cell_id for b in bounds] == list(range(1, instance.num_cells + 1))
    for i, b in enumerate(bounds):
        assert b.rho_star == pytest.approx(report.fixed_point[i], rel=1e-9)
        assert b.rho_lower <= b.rho_star + 1e-12
        assert b.rho_upper >= b.rho_star - 1e-9
        assert b.lower_gap_pct == pytest.approx(
            (b.rho_star - b.rho_lower) / b.rho_star * 100.0, rel=1e-9
        )
        assert b.upper_gap_pct == pytest.approx(
            (b.rho_upper - b.rho_star) / b.rho_star * 100.0, rel=1e-6, abs=1e-9
        )


def test_bound_quality_zero_demand_cell():
    rng = np.random.default_rng(SEED + 9)
    instance = random_instance(rng, 3, 4, radius_target=0.5)
    silent = dataclasses.replace(
        instance, demand_bits=np.where(instance.server_of == 2, 0.0, instance.demand_bits))
    bounds = bound_quality(silent)
    assert bounds[2].rho_star == 0.0
    assert bounds[2].lower_gap_pct == 0.0 and bounds[2].upper_gap_pct == 0.0


def test_bound_quality_infeasible_raises():
    rng = np.random.default_rng(SEED + 10)
    instance = random_instance(rng, 3, 4, radius_target=1.2)
    with pytest.raises(PreconditionError):
        bound_quality(instance)


def test_compare_instance_with_itself_is_equal():
    rng = np.random.default_rng(SEED + 11)
    instance = random_instance(rng, 3, 5, radius_target=0.6)
    report = compare_configs(instance, instance)
    assert report.verdict == "equal"
    assert report.boundary_a == report.boundary_b
    np.testing.assert_allclose(report.rho_star_a, report.rho_star_b, rtol=0)


def test_compare_without_perron_root_has_no_boundary():
    # cell 1 serves both pixels, so the slope [[0, a], [0, 0]] is nilpotent: rho(A) = 0
    # and the network carries every demand scale
    instance = build_instance([[1e-7, 1e-7], [1e-8, 1e-8]], demands=[10, 20], powers=[1, 1],
                              noise=1e-9)
    report = compare_configs(instance, instance)
    assert report.verdict == "equal"
    assert report.boundary_a == report.boundary_b == math.inf
    for hi in (1e6, 1e14):  # still feasible at hi, however large
        with pytest.raises(PreconditionError):
            feasibility_boundary(instance, lo=1.0, hi=hi)
    # in the other cell order partial pivoting leaves a pivot of about 1/s, small but
    # not zero: the verdict stays feasible, and there is no boundary either
    swapped = build_instance([[1e-8, 1e-8], [1e-7, 1e-7]], demands=[10, 20], powers=[1, 1],
                             noise=1e-9)
    assert compare_configs(swapped, swapped).boundary_a == math.inf
    with pytest.raises(PreconditionError):
        feasibility_boundary(swapped, lo=1.0, hi=1e14)


def test_compare_detects_dominance():
    rng = np.random.default_rng(SEED + 12)
    instance = random_instance(rng, 4, 5, radius_target=0.6)
    heavier = instance.with_demand_scale(1.3)
    report = compare_configs(instance, heavier)
    assert report.verdict == "a_dominates"
    assert report.boundary_a > report.boundary_b
    assert np.max(report.rho_star_a) < np.max(report.rho_star_b)
    flipped = compare_configs(heavier, instance)
    assert flipped.verdict == "b_dominates"


def test_compare_feasible_beats_infeasible():
    rng = np.random.default_rng(SEED + 13)
    instance = random_instance(rng, 3, 4, radius_target=0.5)
    overloaded = instance.with_demand_scale(3.0)  # radius 1.5 at base demand
    report = compare_configs(instance, overloaded)
    assert report.verdict == "a_dominates"
    assert report.rho_star_b is None and report.bounds_b is None


def test_compare_rejects_mismatched_sizes():
    rng = np.random.default_rng(SEED + 14)
    with pytest.raises(ValueError):
        compare_configs(random_instance(rng, 3, 4), random_instance(rng, 4, 4))


@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), num_cells=st.integers(2, 5),
       pixels_per_cell=st.integers(1, 4), radius=st.floats(0.2, 3.0),
       tol=st.sampled_from([1e-3, 1e-6, 1e-8, 1e-9]))
def test_boundary_is_inverse_perron_root_property(seed, num_cells, pixels_per_cell, radius, tol):
    instance = random_instance(np.random.default_rng(seed), num_cells, pixels_per_cell,
                               radius_target=radius)
    expected = 1.0 / _slope_radius(instance)
    cert = feasibility_boundary(instance, lo=0.1, hi=10.0, tol=tol)
    assert abs(cert.scale - expected) <= tol * expected
    assert cert.last_feasible <= cert.scale <= cert.first_infeasible
    assert cert.first_infeasible - cert.last_feasible <= tol * cert.last_feasible
    assert feasibility_check(instance.with_demand_scale(cert.last_feasible))[0]
    assert not feasibility_check(instance.with_demand_scale(cert.first_infeasible))[0]


@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), num_cells=st.integers(2, 6),
       pixels_per_cell=st.integers(1, 4), radius_target=st.floats(0.3, 0.999),
       fractions=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                          min_size=8, max_size=8))
# a warm start far below the next row's asymptotic lower bound
@example(seed=0, num_cells=2, pixels_per_cell=1, radius_target=0.5,
         fractions=[0.5] * 6 + [2.220446049250313e-16, 3.602710986699493e-106])
# a scale so small that the rate per demand overflows
@example(seed=0, num_cells=2, pixels_per_cell=1, radius_target=0.5, fractions=[0.5] * 7 + [5e-324])
def test_sweep_loads_are_monotone_in_demand_property(seed, num_cells, pixels_per_cell,
                                                      radius_target, fractions):
    instance = random_instance(np.random.default_rng(seed), num_cells, pixels_per_cell,
                               radius_target=radius_target)
    scales = np.sort(fractions) * 0.999 / _slope_radius(instance)
    rows = demand_sweep(instance, scales)
    assert all(row.feasible and row.solve_status == "converged" for row in rows)
    for row in rows:
        assert np.all(row.rho_lower <= row.rho_star)
    for prev, cur in zip(rows, rows[1:]):
        assert np.all(prev.rho_star <= cur.rho_star)


def _count_calls(monkeypatch) -> Counter:
    """Count coefficient and slope builds, Perron roots, LU verdicts and instance rebuilds from now on."""
    counts = Counter()
    targets = [(coupling, "coefficients"), (coupling, "asymptotic_linearization"),
               (linfeas, "spectral_radius"), (linfeas, "feasibility"),
               (NetworkInstance, "with_demand_scale")]
    for owner, name in targets:
        def counting(*args, _original=getattr(owner, name), _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counting)
    return counts


def test_boundary_raises_when_radius_is_off(monkeypatch):
    rng = np.random.default_rng(SEED + 16)
    instance = random_instance(rng, 4, 5, radius_target=0.8)
    exact = linfeas.spectral_radius
    monkeypatch.setattr(linfeas, "spectral_radius", lambda matrix: 1.01 * exact(matrix))
    counts = _count_calls(monkeypatch)
    with pytest.raises(ValueError, match="not certified"):
        feasibility_boundary(instance, lo=0.5, hi=4.0, tol=1e-6)
    assert counts["feasibility"] == 4  # lo, hi and the two certificate verdicts, nothing more
    with pytest.raises(ValueError, match="not certified"):
        compare_configs(instance, instance, boundary_tol=1e-6)


@pytest.mark.parametrize("question,instances,radii,verdicts", [
    (lambda a, b: demand_sweep(a, np.linspace(0.2, 1.5, 8)), 1, 1, 8),
    (lambda a, b: feasibility_boundary(a, lo=0.5, hi=2.0), 1, 1, 4),
    (lambda a, b: compare_configs(a, b), 2, 2, 6),
    (lambda a, b: bound_quality(a), 1, 0, 1),
    (lambda a, b: solve(a), 1, 0, 1),
], ids=["demand_sweep", "feasibility_boundary", "compare_configs", "bound_quality", "solve"])
def test_one_build_and_one_perron_root_per_instance(monkeypatch, question, instances, radii, verdicts):
    rng = np.random.default_rng(SEED + 17)
    a = random_instance(rng, 4, 5, radius_target=0.8)
    b = a.with_demand_scale(1.1)
    counts = _count_calls(monkeypatch)
    question(a, b)
    assert counts["coefficients"] == counts["asymptotic_linearization"] == instances
    assert counts["spectral_radius"] == radii
    assert counts["with_demand_scale"] == 0
    assert counts["feasibility"] == verdicts
