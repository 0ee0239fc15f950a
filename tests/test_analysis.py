import dataclasses
import functools
import hashlib
import math
import re
import sys
import threading
import warnings
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    bound_quality_reference,
    build_instance,
    eig_radius,
    lower_bound,
    random_instance,
    two_cell_instance,
    upper_bound,
)
from loadcouple import (
    NetworkInstance,
    PreconditionError,
    ScenarioSpec,
    SolveReport,
    SolverConfig,
    asymptotic_linearization,
    bound_quality,
    cli,
    coefficients,
    compare_configs,
    coupling,
    demand_sweep,
    feasibility_boundary,
    feasibility_check,
    generate,
    linfeas,
    load_function,
    load_instance,
    save_instance,
    solve,
    solver,
)
from loadcouple.analysis import _bound_quality
from loadcouple.solver import SWEEP_ROWS

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
        report = row.report
        if row.scale < 0.995:
            assert row.feasible and report.status == "converged"
            assert report.fixed_point is not None and report.lower is not None
            assert np.all(report.lower <= report.fixed_point + 1e-12)
        elif row.scale > 1.005:
            # an infeasible row carries its verdict, and no loads: it took no iteration
            assert not row.feasible and report.status == "infeasible"
            assert report.linear.status in ("infeasible_negative", "singular")
            assert report.iterations == 0 and report.fixed_point is None


def test_sweep_loads_grow_with_demand():
    rng = np.random.default_rng(SEED + 1)
    instance = random_instance(rng, 4, 5, radius_target=0.9)
    rows = demand_sweep(instance, np.linspace(0.2, 1.0, 5))
    for prev, cur in zip(rows, rows[1:]):
        assert np.all(cur.report.fixed_point > prev.report.fixed_point)
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
    np.testing.assert_allclose(row.report.fixed_point / 1e-5, offset_at_unit_scale, rtol=1e-3)


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
                np.testing.assert_allclose(a.report.fixed_point, b.report.fixed_point, rtol=1e-8, atol=1e-10)


def test_sweep_scale_zero_and_bad_scales():
    rng = np.random.default_rng(SEED + 15)
    instance = random_instance(rng, 3, 4, radius_target=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = demand_sweep(instance, [0.0, 0.5, 0.0])
    for row in rows[::2]:
        assert row.feasible and row.spectral_radius == 0.0 and row.report.status == "converged"
        assert not np.any(row.report.fixed_point) and not np.any(row.report.lower)
        assert not np.any(row.report.upper) and not np.any(row.report.start_upper)
        assert row.report.residual == 0.0
    for bad in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            demand_sweep(instance, [0.5, bad])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_cells=st.integers(2, 6), pixels_per_cell=st.integers(1, 4),
       radius_target=st.floats(0.3, 0.999),
       fractions=st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 0.99), st.floats(1.01, 1.5)),
                          min_size=1, max_size=10),
       cut=st.integers(0, 10))
def test_lockstep_sweep_rows_match_lone_solves_property(seed, num_cells, pixels_per_cell, radius_target,
                                                       fractions, cut):
    """Every sweep row is its scale's solve alone, whichever rows share its lockstep chunk.

    A row has the status of ``solve_scales(instance, [s])`` run alone and
    its ``fixed_point`` within rtol 1e-9; the bits may differ, as a row's
    products are shared with the other rows'.  So do the rows of the
    reversed grid, of the grid split in two at ``cut`` and of the grid
    repeated past SWEEP_ROWS.  Scale 0, whose rates per demand are +inf,
    gives exact zeros in whichever chunk it rides.
    """
    instance = random_instance(np.random.default_rng(seed), num_cells, pixels_per_cell, radius_target)
    model = linfeas.model(instance)
    scales = [fraction / model.spectral_radius for fraction in fractions]
    alone = {}
    for s in scales:
        (report,) = solver.solve_scales(instance, [s])
        alone[s] = report if report.status != "infeasible" else None
    grids = {
        "grid": (scales, demand_sweep(instance, scales)),
        "reversed": (scales, demand_sweep(instance, scales[::-1])[::-1]),
        "split": (scales, demand_sweep(instance, scales[:cut]) + demand_sweep(instance, scales[cut:])),
    }
    long = scales * (SWEEP_ROWS // len(scales) + 1)
    grids["long"] = (long, demand_sweep(instance, long))
    for name, (grid, rows) in grids.items():
        assert [row.scale for row in rows] == grid, name
        for row in rows:
            lone = alone[row.scale]
            assert row.feasible == (lone is not None), name
            if lone is None:
                assert row.report.fixed_point is None and row.report.status == "infeasible"
                continue
            assert row.report.status == lone.status, name
            np.testing.assert_allclose(row.report.fixed_point, lone.fixed_point, rtol=1e-9, atol=0, err_msg=name)
            if row.scale == 0:
                assert not np.any(row.report.fixed_point) and not np.any(row.report.lower)


# sha256 of every row's fixed point (its tobytes) and status, in grid order, of
# demand_sweep on the seed-7 scenarios over 40 scales from 0 to 0.999 of the boundary,
# in lockstep chunks of SWEEP_ROWS = 32 and 8 rows, scale 0 in the first, so these are
# the stacked solver's bits, which the frozen 8-scale sweeps do not reach.
LOCKSTEP_SWEEP_DIGESTS = {
    36: "76b27aff8b799457abd805565d2861d83887d04aeaa876dfab1231a984d183dd",
    81: "4b08122910c05f24c6495f41535bf68d611ec5f71c94482a38d528bb54a6b57f",
}


def test_lockstep_sweep_output_is_frozen():
    assert SWEEP_ROWS == 32
    got = {}
    for num_sites in (12, 27):
        instance = generate(ScenarioSpec(num_sites=num_sites, rng_seed=7, demand_bits_per_user=80_000.0))
        boundary = 1.0 / linfeas.model(instance).spectral_radius
        rows = demand_sweep(instance, np.linspace(0.0, 0.999 * boundary, 40))
        digest = hashlib.sha256()
        for row in rows:
            assert row.feasible and row.report.status == "converged"
            digest.update(row.report.fixed_point.tobytes())
            digest.update(row.report.status.encode())
        got[instance.num_cells] = digest.hexdigest()
    assert got == LOCKSTEP_SWEEP_DIGESTS


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
    b = bound_quality(instance)
    report = solve(instance)
    rho_star, rho_lower = b.report.fixed_point, b.report.lower
    assert b.report.status == report.status == "converged"
    for column in (rho_star, rho_lower, b.rho_upper, b.lower_gap_pct, b.upper_gap_pct):
        assert column.dtype == np.float64 and column.shape == (instance.num_cells,)
    np.testing.assert_allclose(rho_star, report.fixed_point, rtol=1e-9)
    assert np.all(rho_lower <= rho_star + 1e-12)
    assert np.all(b.rho_upper >= rho_star - 1e-9)
    np.testing.assert_allclose(b.lower_gap_pct, (rho_star - rho_lower) / rho_star * 100.0, rtol=1e-9)
    np.testing.assert_allclose(b.upper_gap_pct, (b.rho_upper - rho_star) / rho_star * 100.0,
                               rtol=1e-6, atol=1e-9)


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), num_cells=st.integers(2, 6), pixels_per_cell=st.integers(1, 5),
       noise_exponent=st.floats(-8.0, 0.0), fraction=st.floats(0.5, 0.999))
# low noise makes the map steep at the lower bound: the tangent system there has no solution
@example(seed=1103772361, num_cells=4, pixels_per_cell=4, noise_exponent=-7.779527094055453,
         fraction=0.8760030412287285)
def test_bound_quality_upper_is_the_tangent_fixed_point_at_the_lower_bound_property(
        seed, num_cells, pixels_per_cell, noise_exponent, fraction):
    instance = random_instance(np.random.default_rng(seed), num_cells, pixels_per_cell)
    instance = dataclasses.replace(instance, noise_power=instance.noise_power * 10.0 ** noise_exponent)
    instance = instance.with_demand_scale(fraction / _slope_radius(instance))
    upper = bound_quality(instance).rho_upper
    reference = upper_bound(instance, lower_bound(instance))
    if reference is None:
        assert np.all(np.isnan(upper))
    else:
        np.testing.assert_allclose(upper, reference, rtol=1e-12, atol=0)


def test_bound_quality_zero_demand_cell():
    rng = np.random.default_rng(SEED + 9)
    instance = random_instance(rng, 3, 4, radius_target=0.5)
    silent = dataclasses.replace(
        instance, demand_bits=np.where(instance.server_of == 2, 0.0, instance.demand_bits))
    bounds = bound_quality(silent)
    assert bounds.report.fixed_point[2] == 0.0
    assert bounds.lower_gap_pct[2] == 0.0 and bounds.upper_gap_pct[2] == 0.0


def test_bound_quality_infeasible_raises():
    rng = np.random.default_rng(SEED + 10)
    instance = random_instance(rng, 3, 4, radius_target=1.2)
    with pytest.raises(PreconditionError):
        bound_quality(instance)


def _assert_table_of(report, table):
    """``table`` is the cell loop's, bit for bit, and holds the report's fixed point and lower bound."""
    assert table.report.status == report.status
    columns = {"rho_star": table.report.fixed_point, "rho_lower": table.report.lower,
               "rho_upper": table.rho_upper, "lower_gap_pct": table.lower_gap_pct,
               "upper_gap_pct": table.upper_gap_pct}
    for name, want in bound_quality_reference(report).items():
        got = columns[name]
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), name
    assert table.report.fixed_point.tobytes() == report.fixed_point.tobytes()
    assert table.report.lower.tobytes() == report.lower.tobytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 8), status=st.sampled_from(["converged", "max_iter_exceeded"]))
def test_bound_quality_table_matches_the_cell_loop_property(data, n, status):
    column = st.lists(st.just(0.0) | st.floats(1e-6, 10.0), min_size=n, max_size=n).map(
        lambda values: np.array(values, dtype=np.float64))
    fixed_point, lower, start_upper = data.draw(column), data.draw(column), data.draw(st.none() | column)
    report = SolveReport(status, fixed_point, lower, None, 0.0, 1, start_upper=start_upper)
    _assert_table_of(report, _bound_quality(report))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_cells=st.integers(2, 6), pixels_per_cell=st.integers(1, 4),
       fraction=st.floats(0.3, 0.999))
def test_bound_quality_matches_the_cell_loop_on_solved_instances_property(
        seed, num_cells, pixels_per_cell, fraction):
    instance = random_instance(np.random.default_rng(seed), num_cells, pixels_per_cell)
    instance = instance.with_demand_scale(fraction / _slope_radius(instance))
    _assert_table_of(solve(instance), bound_quality(instance))


def test_compare_instance_with_itself_is_equal():
    rng = np.random.default_rng(SEED + 11)
    instance = random_instance(rng, 3, 5, radius_target=0.6)
    report = compare_configs(instance, instance)
    assert report.verdict == "equal"
    assert report.boundary_a == report.boundary_b
    np.testing.assert_allclose(report.report_a.fixed_point, report.report_b.fixed_point, rtol=0)


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
    # the other cell order is solved in block-triangular order, so the verdict
    # stays feasible and there is no boundary either
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
    assert np.max(report.report_a.fixed_point) < np.max(report.report_b.fixed_point)
    flipped = compare_configs(heavier, instance)
    assert flipped.verdict == "b_dominates"


def test_compare_feasible_beats_infeasible():
    rng = np.random.default_rng(SEED + 13)
    instance = random_instance(rng, 3, 4, radius_target=0.5)
    overloaded = instance.with_demand_scale(3.0)  # radius 1.5 at base demand
    report = compare_configs(instance, overloaded)
    assert report.verdict == "a_dominates"
    assert report.report_a is not None and report.report_b is None
    flipped = compare_configs(overloaded, instance)
    assert flipped.verdict == "b_dominates"
    assert flipped.report_a is None and flipped.report_b is not None
    # neither side feasible at base demand: the higher boundary scale ranks first
    worse = instance.with_demand_scale(4.0)  # radius 2
    report = compare_configs(overloaded, worse)
    assert report.verdict == "a_dominates" and report.boundary_a > report.boundary_b
    assert report.report_a is None and report.report_b is None
    assert compare_configs(worse, overloaded).verdict == "b_dominates"


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
    assert all(row.feasible and row.report.status == "converged" for row in rows)
    for row in rows:
        report = row.report
        assert np.all(report.lower <= report.fixed_point)
        assert np.all(report.fixed_point <= report.upper)  # the reported ends, not a proof under rounding
    for prev, cur in zip(rows, rows[1:]):
        assert np.all(prev.report.fixed_point <= cur.report.fixed_point)


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), num_cells=st.integers(2, 6), pixels_per_cell=st.integers(1, 5),
       fraction=st.floats(0.5, 0.999), busy=st.integers(1, 6))
# in the permuted order, Newton's LU pivots a busy row above the idle cell's unit row
@example(seed=1, num_cells=3, pixels_per_cell=3, fraction=0.9, busy=2)
@example(seed=2, num_cells=5, pixels_per_cell=4, fraction=0.5, busy=2)
def test_permuting_cells_permutes_loads_and_bounds_property(seed, num_cells, pixels_per_cell, fraction, busy):
    """Renumbering the cells renumbers every load and bound; a cell that serves no demand has exactly 0.

    The cells from ``busy`` on are idle: their pixels demand nothing, so
    their rows of the slope are zero and the slope is reducible, nilpotent
    when one cell is busy.
    """
    rng = np.random.default_rng(seed)
    instance = random_instance(rng, num_cells, pixels_per_cell, radius_target=fraction)
    order = rng.permutation(num_cells)
    idle = np.arange(num_cells) >= busy
    instance = dataclasses.replace(instance, demand_bits=np.where(idle[instance.server_of], 0.0,
                                                                  instance.demand_bits))
    permuted = dataclasses.replace(instance, power_per_ru=instance.power_per_ru[order],
                                   gains=instance.gains[order],
                                   server_of=np.argsort(order)[instance.server_of])
    report, moved = solve(instance), solve(permuted)
    assert (report.start_upper is None) == (moved.start_upper is None)
    for name in ("fixed_point", "lower", "start_upper"):
        if getattr(report, name) is not None:
            np.testing.assert_allclose(getattr(moved, name), getattr(report, name)[order], rtol=1e-9)
    for one, cells in ((report, idle), (moved, idle[order])):
        for name in ("fixed_point", "lower", "upper", "start_upper"):
            if getattr(one, name) is not None:
                assert not np.any(getattr(one, name)[cells]), name
    assert linfeas.model(instance).reducible == linfeas.model(permuted).reducible == idle.any()
    comparison = compare_configs(instance, permuted)
    assert comparison.boundary_b == pytest.approx(comparison.boundary_a, rel=1e-12, abs=0)


def _count_calls(monkeypatch) -> Counter:
    """Count coefficient and slope builds, Perron roots, LU verdicts, linear solves and instance rebuilds."""
    counts = Counter()
    targets = [(coupling, "coefficients"), (coupling, "asymptotic_linearization"),
               (linfeas, "spectral_radius"), (linfeas, "solve_linear"),
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
    assert counts["solve_linear"] == 4  # lo, hi and the two certificate verdicts, nothing more
    with pytest.raises(ValueError, match="not certified"):
        compare_configs(instance, instance)


def test_the_unit_scale_verdict_is_the_models(monkeypatch):
    """A solve and a sweep's row at scale 1 hold the model's verdict: no second LU is taken at scale 1."""
    instance = random_instance(np.random.default_rng(SEED + 18), 4, 5, radius_target=0.8)
    verdict = linfeas.model(instance).verdict
    counts = _count_calls(monkeypatch)
    assert solve(instance).linear is verdict
    assert counts["solve_linear"] == 0
    rows = demand_sweep(instance, [0.5, 1.0])
    assert rows[1].report.linear is verdict
    assert counts["solve_linear"] == 1  # scale 0.5's verdict alone


# the second time a question is asked of the same instances, it takes only the
# verdicts at scales other than 1: the unit-scale verdict is each model's
@pytest.mark.parametrize("question,instances,radii,verdicts,repeat_verdicts", [
    (lambda a, b: demand_sweep(a, np.linspace(0.2, 1.5, 8)), 1, 1, 8, 8),
    (lambda a, b: feasibility_boundary(a, lo=0.5, hi=2.0), 1, 1, 4, 4),
    (lambda a, b: compare_configs(a, b), 2, 2, 6, 4),
    (lambda a, b: bound_quality(a), 1, 0, 1, 0),
    (lambda a, b: solve(a), 1, 0, 1, 0),
], ids=["demand_sweep", "feasibility_boundary", "compare_configs", "bound_quality", "solve"])
def test_one_build_and_one_perron_root_per_instance(monkeypatch, question, instances, radii, verdicts,
                                                    repeat_verdicts):
    rng = np.random.default_rng(SEED + 17)
    a = random_instance(rng, 4, 5, radius_target=0.8)
    b = a.with_demand_scale(1.1)
    counts = _count_calls(monkeypatch)
    question(a, b)
    assert counts["coefficients"] == counts["asymptotic_linearization"] == instances
    assert counts["spectral_radius"] == radii
    assert counts["with_demand_scale"] == 0
    assert counts["solve_linear"] == verdicts
    counts.clear()
    question(a, b)  # the same question again: nothing is built a second time
    assert counts["coefficients"] == counts["asymptotic_linearization"] == counts["spectral_radius"] == 0
    assert counts["solve_linear"] == repeat_verdicts


def _instance_file(tmp_path, kind, seed):
    """A feasible, an infeasible or a feasible reducible instance saved to a file, and the instance it loads as.

    Give each call its own ``seed``: a load of bytes loaded before returns
    the earlier instance, whose model may hold its radius already.
    """
    rng = np.random.default_rng(seed)
    instance = random_instance(rng, 4, 5, radius_target=1.4 if kind == "infeasible" else 0.8)
    if kind == "reducible":  # cell 4 serves no demand, so no other cell's load reaches its row
        instance = dataclasses.replace(instance, demand_bits=np.where(instance.server_of == 3, 0.0,
                                                                      instance.demand_bits))
    path = tmp_path / f"{kind}.json"
    save_instance(instance, path)
    return path, load_instance(path)  # every later load of the file returns this instance


def _radii_read_by_every_question(path, instance, capsys) -> dict:
    """The spectral radius of A as each command prints it or each question divides by it, by question.

    solve and a sweep at scale 1 give the printed radius, feasibility its
    whole line; boundary and compare give the inverse of their boundary.
    """
    def printed(*argv):
        cli.main([argv[0], "--instance", str(path), *argv[1:]])
        return capsys.readouterr().out

    boundary = 1.0 / _slope_radius(instance)  # from the oracle: the model builds nothing for it
    return {
        "solve": lambda: re.search(r"spectral_radius=(\S+)", printed("solve")).group(1),
        "feasibility": lambda: printed("feasibility"),
        "sweep": lambda: printed("sweep", "--scales", "1:1:1").splitlines()[2].split(",")[2],
        "boundary": lambda: 1.0 / feasibility_boundary(instance, lo=0.5 * boundary, hi=2.0 * boundary).scale,
        "compare": lambda: 1.0 / compare_configs(instance, instance).boundary_a,
    }


@pytest.mark.parametrize("reverse", [False, True], ids=["verdict_first", "radius_first"])
def test_every_question_on_one_instance_shares_one_perron_root(monkeypatch, capsys, tmp_path, reverse):
    """solve, feasibility, sweep, boundary and compare on one instance compute rho(A) once in total.

    Each prints or divides by the model's radius, byte for byte, and
    feasibility prints the model's reducible flag, on a feasible, an
    infeasible and a reducible instance.  In the forward order the
    unit-scale verdict is taken before the radius is read, in the reverse
    order after.
    """
    counts = _count_calls(monkeypatch)
    for kind in ("feasible", "infeasible", "reducible"):
        path, instance = _instance_file(tmp_path, kind, SEED + 18 + reverse)
        questions = _radii_read_by_every_question(path, instance, capsys)
        counts.clear()
        answers = {name: questions[name]() for name in (reversed(questions) if reverse else questions)}
        assert counts["spectral_radius"] == 1, kind
        assert counts["coefficients"] == counts["asymptotic_linearization"] == 1, kind
        model = linfeas.model(instance)
        assert model.reducible == (kind == "reducible")
        radius, status = cli._fmt(model.spectral_radius), model.verdict.status
        assert answers["solve"] == answers["sweep"] == radius, kind
        assert answers["feasibility"] == (f"{'feasible' if kind != 'infeasible' else 'infeasible'} "
                                          f"(linear status {status}, spectral radius {radius}"
                                          f"{' reducible' if kind == 'reducible' else ''})\n")
        # 1/(1/x) is x or a neighbour of x
        assert answers["boundary"] == answers["compare"] == pytest.approx(model.spectral_radius, rel=4e-16)


def test_model_arrays_are_read_only():
    """No caller can change a later answer by writing into what a question handed out."""
    instance = random_instance(np.random.default_rng(SEED + 19), 4, 5, radius_target=0.8)
    report = solve(instance)
    model = linfeas.model(instance)
    lower = report.lower.copy()
    assert report.lower is model.verdict.solution
    with pytest.raises(ValueError, match="read-only"):
        report.lower[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        model.coefficients.rel[0, 0] = 1.0
    cc = model.coefficients
    for array in (cc.pixel, cc.cell_of, cc.starts, cc.a, cc.rel, cc.noise, model.system.slope, model.system.offset):
        assert not array.flags.writeable
    assert not np.shares_memory(cc.rates([1.0, 2.0]), cc.a)  # the caller's own rows, even at scale 1
    assert np.array_equal(solve(instance).lower, lower)


def test_a_model_is_freed_with_its_instance():
    """The table keys models weakly, and a model holds no cycle: it goes when its instance does."""
    instance = random_instance(np.random.default_rng(SEED + 21), 4, 5, radius_target=0.8)
    report = solve(instance)
    model = weakref.ref(linfeas.model(instance))
    assert model().verdict is report.linear
    del instance
    assert model() is None
    assert report.linear.status == "feasible"  # a report keeps its verdict, not the model


def _bits(value):
    """``value`` as comparable bits: every float by its hex, every array by its bytes."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return value.hex()
    if dataclasses.is_dataclass(value):
        return type(value).__name__, tuple(_bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (list, tuple)):
        return tuple(_bits(v) for v in value)
    return repr(value)


def _questions(instance) -> dict:
    """Every question of the package on one instance, each answer as bits, a raised error as its text."""
    def answer(question):
        try:
            return _bits(question())
        except (PreconditionError, ValueError) as exc:
            return type(exc).__name__, str(exc)

    def solved():
        report = solve(instance)
        return report, linfeas.model(instance).spectral_radius

    def checked():
        feasible, outcome = feasibility_check(instance)
        model = linfeas.model(instance)
        return feasible, outcome, model.spectral_radius, model.reducible

    questions = {
        "solve": solved,
        "interval": lambda: solve(instance, SolverConfig(interval_width=1e-6)),
        "feasibility": checked,
        "sweep": lambda: demand_sweep(instance, [0.25, 0.5, 1.0, 1.5]),
        "boundary": lambda: feasibility_boundary(instance, lo=0.1, hi=10.0),
        "bounds": lambda: bound_quality(instance),
        "compare": lambda: compare_configs(instance, instance),
    }
    return {name: functools.partial(answer, question) for name, question in questions.items()}


def _fresh_answers(instance) -> dict:
    """Each question's answer on a copy of ``instance`` of its own, with a model of its own."""
    return {name: _questions(dataclasses.replace(instance))[name]() for name in _questions(instance)}


@settings(max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), num_cells=st.integers(2, 5), radius_target=st.floats(0.3, 1.5),
       orders=st.lists(st.permutations(list(_questions(None))), min_size=2, max_size=2))
def test_answers_do_not_depend_on_what_was_asked_before_property(seed, num_cells, radius_target, orders):
    """Questions asked in two orders on one instance each answer as on a freshly built copy, bit for bit."""
    instance = random_instance(np.random.default_rng(seed), num_cells, 3, radius_target)
    fresh = _fresh_answers(instance)
    for order in orders:
        questions = _questions(dataclasses.replace(instance))
        assert {name: questions[name]() for name in order} == fresh, order


def test_threads_asking_one_instance_share_one_model_and_agree():
    """Six threads, more than the cores, ask every question of one instance in rotated orders.

    Each must answer as a fresh copy does, bit for bit, and all must read
    the one model that the instance keeps.
    """
    instance = random_instance(np.random.default_rng(SEED + 20), 5, 4, radius_target=0.9)
    fresh = _fresh_answers(instance)
    questions = _questions(instance)
    names = list(questions)
    workers = 6
    start = threading.Barrier(workers)
    answers, models, errors = [None] * workers, [None] * workers, []

    def work(k):
        try:
            start.wait(timeout=30)
            models[k] = linfeas.model(instance)
            order = names[k % len(names):] + names[:k % len(names)]
            answers[k] = [{name: questions[name]() for name in order} for _ in range(3)]
        except Exception as exc:  # reported below, with the thread's index
            errors.append((k, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert all(model is linfeas.model(instance) for model in models)
    assert all(rounds == [fresh] * 3 for rounds in answers)
