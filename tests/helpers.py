"""Shared builders and independent oracles for the test suite.

The abstract instance builder keeps every structural knob under test
control: serving follows best server, interferer gains stay within three
orders of magnitude of the serving gain, and demands are rescaled so the
asymptotic slope matrix hits an exact spectral radius target (computed with
numpy's eigensolver in this file, not through the package).
``float_matrix_reference``, ``serving_reference`` and ``columns_reference``
convert instance-file blocks by typed walks, the references for the
loader's conversions: one typed pack per gains row, with the garbage
collector paused, one numpy array for the serving pairs and one for the
cell and pixel fields.  ``fixed_point_iteration`` (plain iteration of
the map, the paper's scheme), ``solve_from`` (the solver's Newton loop from a
chosen start) and ``tangent_linearization`` (the tangent
plane as an affine system) are the references for the solver's Newton
iteration and its tangent bound.  ``bound_quality_reference`` builds the
bound quality table cell by cell, with scalar arithmetic.
``link_geometry_reference`` (a search over nine image rows per site),
``wrap_angle_reference`` (the fold by ``%``) and ``best_server_reference``
(argmax down the cells x pixels products) are the generator's and the
best-server kernels as they were before their arrays were laid out one
pixel per row.  ``csv_row_reference`` prints a CSV table row field by
field, the CLI writer's rule before each row became one ``%``.
"""

from __future__ import annotations

import math
import sys
from itertools import chain

import numpy as np

from loadcouple import (
    LinearizedSystem,
    NetworkInstance,
    SchemaError,
    asymptotic_linearization,
    coefficients,
    coupling,
    feasibility_check,
    jacobian,
    linfeas,
    load_function,
    solve_linear,
    solver,
)
from loadcouple.netmodel import _float, _typed


def build_instance(gains, demands, powers, noise, num_resource_units=100, rate_scale=1.0,
                   server_of=None) -> NetworkInstance:
    """Instance from raw arrays; serving defaults to best server."""
    return NetworkInstance(
        power_per_ru=powers,
        demand_bits=demands,
        gains=gains,
        noise_power=float(noise),
        num_resource_units=num_resource_units,
        rate_scale=rate_scale,
        server_of=server_of,
    )


def areas(server_of, num_cells) -> tuple[tuple[int, ...], ...]:
    """Ascending served pixel indices of each cell."""
    server_of = np.asarray(server_of)
    return tuple(tuple(np.flatnonzero(server_of == i).tolist()) for i in range(num_cells))


def eig_radius(matrix) -> float:
    """Spectral radius via numpy's eigensolver, computed here without the package."""
    if matrix.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(matrix))))


def random_instance(rng, num_cells, pixels_per_cell, radius_target=None) -> NetworkInstance:
    """Random abstract instance, optionally rescaled to an exact slope radius.

    Each pixel has one strong home cell; every other cell's received power
    lands between 1e-3 and ~0.9 of the strongest, which keeps relative
    interference well conditioned for derivative and limit checks.
    """
    n, m = num_cells, num_cells * pixels_per_cell
    powers = 10.0 ** rng.uniform(-0.3, 0.3, n)
    home = np.repeat(np.arange(n), pixels_per_cell)
    gains = np.empty((n, m))
    for j in range(m):
        base = 10.0 ** rng.uniform(-8.0, -6.0)
        rel = 10.0 ** rng.uniform(-3.0, -0.05, n)
        gains[:, j] = base * rel
        gains[home[j], j] = base
    # normalize out the power imbalance so the home cell really is best server
    gains /= powers[:, None]
    demands = rng.uniform(1.0, 4.0, m)
    noise = 10.0 ** rng.uniform(-9.5, -8.0)
    instance = build_instance(gains, demands, powers, noise)
    if radius_target is not None:
        radius = eig_radius(asymptotic_linearization(coefficients(instance)).slope)
        instance = instance.with_demand_scale(radius_target / radius)
    return instance


def two_cell_instance(rng, radius_target=None) -> NetworkInstance:
    return random_instance(rng, 2, int(rng.integers(2, 6)), radius_target)


def frozen_two_cell() -> NetworkInstance:
    """The pinned two-cell instance whose fixed point is frozen in the tests."""
    gains = np.array([[1e-7, 6e-8, 2e-8, 1e-8],
                      [3e-8, 1.5e-8, 8e-8, 9e-8]])
    return build_instance(
        gains,
        demands=[60.0, 90.0, 45.0, 75.0],
        powers=[1.0, 1.5],
        noise=5e-9,
    )


# fixed point of frozen_two_cell, from a 1e6-iteration plain iteration of the
# load map, confirmed to all shown digits by a 40-digit arbitrary precision
# fixed point computed from the SINR definition
FROZEN_TWO_CELL_FIXED_POINT = np.array([0.59600247329308997, 0.34996788136753593])

# load of one cell in the symmetric pair (unit rate-per-demand, relative
# interference 0.5, relative noise 0.1) at full load of the other cell,
# evaluated with 50-digit arithmetic
SYMMETRIC_PAIR_LOAD = 0.70669505261142373


def symmetric_pair_instance() -> NetworkInstance:
    """Two cells, one pixel each, unit budget-per-demand, mirror-image gains."""
    gains = np.array([[1e-7, 5e-8],
                      [5e-8, 1e-7]])
    return build_instance(gains, demands=[1.0, 1.0], powers=[1.0, 1.0], noise=1e-8,
                          num_resource_units=1, rate_scale=1.0)


def pixel_loop_reference(instance, rho):
    """Load map, Jacobian, asymptotic slope and asymptotic offset, one pixel at a time.

    Reads gains, powers and demands straight from the instance and
    accumulates each demanded pixel into its serving cell's row, so it
    shares no code and no data layout with the packed kernels it checks.
    """
    n = instance.num_cells
    powers = instance.power_per_ru
    budget = instance.num_resource_units * instance.rate_scale
    load, offset = np.zeros(n), np.zeros(n)
    jac, slope = np.zeros((n, n)), np.zeros((n, n))
    for j, demand in enumerate(instance.demand_bits.tolist()):
        if demand == 0.0:
            continue
        i = int(instance.server_of[j])
        own = powers[i] * instance.gains[i, j]
        rel = powers * instance.gains[:, j] / own
        rel[i] = 0.0
        noise = instance.noise_power / own
        a = budget / demand
        u = float(rel @ rho) + noise
        lg = math.log1p(1.0 / u)
        load[i] += math.log(2.0) / (a * lg)
        jac[i] += rel * math.log(2.0) / (a * lg * lg * (u * u + u))
        slope[i] += rel * math.log(2.0) / a
        offset[i] += math.log(2.0) / (a * math.log1p(1.0 / noise))
    return load, jac, slope, offset


def cell_sums_reference(cc, weights) -> np.ndarray:
    """Row i sums the columns of ``cc.rel * weights`` that belong to cell i, by ``np.add.reduceat``.

    The segmented sum over an n x M product, the reference for the one GEMV
    per cell of the Jacobian and the asymptotic slope.
    """
    values = cc.rel * weights
    out = np.zeros((cc.num_cells, values.shape[0]))
    # reduceat yields one element, not zero, for an empty segment: skip those
    nonempty = cc.starts[:-1] < cc.starts[1:]
    out[nonempty] = np.add.reduceat(values, cc.starts[:-1][nonempty], axis=1).T
    return out


def fd_jacobian(cc, rho, eps=1e-6) -> np.ndarray:
    """Central finite differences of the load map."""
    n = cc.num_cells
    out = np.zeros((n, n))
    for k in range(n):
        step = np.zeros(n)
        step[k] = eps
        out[:, k] = (load_function(cc, rho + step) - load_function(cc, rho - step)) / (2 * eps)
    return out


def fd_hessian_entry(cc, cell, k, h, rho, eps=1e-4) -> float:
    """Second-order central difference of one load component."""
    n = cc.num_cells
    ek = np.zeros(n)
    eh = np.zeros(n)
    ek[k] = eps
    eh[h] = eps
    fpp = load_function(cc, rho + ek + eh)[cell]
    fpm = load_function(cc, rho + ek - eh)[cell]
    fmp = load_function(cc, rho - ek + eh)[cell]
    fmm = load_function(cc, rho - ek - eh)[cell]
    return (fpp - fpm - fmp + fmm) / (4 * eps * eps)


def bound_quality_reference(report) -> dict[str, np.ndarray]:
    """``analysis._bound_quality`` on a feasible report as a loop over cells, one scalar gap at a time.

    The table's five columns, by their ``bounds`` CSV header names.
    """
    rho, lower, upper = report.fixed_point, report.lower, report.start_upper
    if upper is None:
        upper = np.full(len(rho), math.nan)
    cells = []
    for i in range(len(rho)):
        if rho[i] > 0.0:
            lower_gap = abs(lower[i] - rho[i]) / rho[i] * 100.0
            upper_gap = abs(upper[i] - rho[i]) / rho[i] * 100.0
        else:
            lower_gap = upper_gap = 0.0
        cells.append((float(rho[i]), float(lower[i]), float(upper[i]), float(lower_gap), float(upper_gap)))
    columns = np.array(cells, dtype=np.float64).reshape(len(rho), 5).T
    return dict(zip(("rho_star", "rho_lower", "rho_upper", "lower_gap_pct", "upper_gap_pct"), columns))


def lower_bound(instance) -> np.ndarray:
    """Solution of the asymptotic system: a componentwise lower bound on the fixed point."""
    feasible, outcome = feasibility_check(instance)
    if not feasible:
        raise ValueError(f"no lower bound: instance is {outcome.status}")
    return outcome.solution


# iterates beyond this magnitude mean the map is being iterated on an
# infeasible system (possible only when the pre-check is bypassed)
DIVERGENCE_LIMIT = 1e15


def fixed_point_iteration(cc, start, tol_residual=1e-10, max_iter=10_000, a=None):
    """Plain iteration of the coupling map, no pre-checks, no bound tracking.

    ``a`` is a one-row stack of rates per demand, ``cc.a`` by default.
    Returns (rho, residual, iterations, converged).  Runs from any
    nonnegative start, including on infeasible systems, where the iterates
    grow without bound and the call returns unconverged once they pass
    DIVERGENCE_LIMIT.
    """
    rho = np.asarray(start, dtype=np.float64).copy()
    residual = math.inf
    for t in range(max_iter + 1):
        f_rho = coupling.load_function(cc, rho, a)
        residual = float(np.max(np.abs(rho - f_rho), initial=0.0))
        if residual <= tol_residual * (1.0 + float(np.max(rho, initial=0.0))):
            return rho, residual, t, True
        if not np.all(np.isfinite(f_rho)) or np.max(f_rho, initial=0.0) > DIVERGENCE_LIMIT:
            return f_rho, residual, t, False
        rho = f_rho
    return rho, residual, max_iter, False


def solve_from(instance, start, config=None):
    """The solve of a feasible instance with Newton started at ``start`` raised to the asymptotic solution.

    The package starts every solve from the asymptotic solution, which is
    what a ``start`` of None gives; any other start enters the solver's
    loop directly.
    """
    if start is None:
        return solver.solve(instance, config)
    model = linfeas.model(instance)
    cc, linear = model.coefficients, model.verdict
    return solver._iterate(cc, cc.a[None], np.maximum(start, linear.solution)[None], [linear],
                           config or solver.SolverConfig())[0]


def tangent_linearization(cc, anchor) -> LinearizedSystem:
    """First-order expansion of the coupling map at ``anchor``, as rho -> slope @ rho + offset.

    Concavity puts this plane above the map everywhere, so its fixed point,
    when one exists, bounds the coupling fixed point from above.  The offset
    is f(anchor) - J(anchor) @ anchor.
    """
    anchor = np.asarray(anchor, dtype=np.float64)
    slope = jacobian(cc, anchor)
    return LinearizedSystem(slope=slope, offset=load_function(cc, anchor) - slope @ anchor)


def upper_bound(instance, anchor):
    """Fixed point of the tangent plane at ``anchor``, or None when it has none."""
    return solve_linear(tangent_linearization(coefficients(instance), anchor)).solution


def affine(system, rho) -> np.ndarray:
    """A linearized system evaluated at ``rho``: slope @ rho + offset."""
    return system.slope @ np.asarray(rho, dtype=np.float64) + system.offset


def _cell_curvature(cc, cell, rho):
    """Cell ``cell``'s packed ``rel`` columns and per-pixel second-derivative weights.

    The weight ln(2) lg (2 - (2u + 1) lg) / (a (lg^2 (u^2 + u))^2), with
    lg = log(1 + 1/u), is the second derivative of ln(2) / (a lg) in u and
    is strictly negative for every u > 0.
    """
    span = slice(cc.starts[cell], cc.starts[cell + 1])
    rel = cc.rel[:, span]
    u = np.asarray(rho, dtype=np.float64) @ rel + cc.noise[span]
    lg = np.log1p(1.0 / u)
    weights = math.log(2.0) * lg * (2.0 - (2.0 * u + 1.0) * lg) / (cc.a[span] * (lg * lg * (u * u + u)) ** 2)
    return rel, weights


def hessian_entry(cc, cell, k, h, rho) -> float:
    """Second partial derivative of cell ``cell``'s load w.r.t. rho_k and rho_h (0-based).

    The serving cell's ``rel`` entries are zero, so the entry is zero
    whenever k or h is ``cell``.
    """
    rel, weights = _cell_curvature(cc, cell, rho)
    return float(np.sum(rel[k] * rel[h] * weights))


def cell_hessian(cc, cell, rho) -> np.ndarray:
    """Hessian of one cell's load over the other cells' loads, (n-1) x (n-1)."""
    rel, weights = _cell_curvature(cc, cell, rho)
    rel = np.delete(rel, cell, axis=0)
    return (rel * weights) @ rel.T


def float_matrix_reference(rows, what: str) -> np.ndarray:
    """``netmodel._float_matrix`` as one typed walk: each row's element types are checked in Python."""
    try:
        if all(set(map(type, row)) <= {int, float} for row in rows):
            values = np.asarray(rows, dtype=np.float64)
            if np.all(np.abs(values) <= sys.float_info.max):  # false for nan and inf
                return values
    except (TypeError, ValueError, OverflowError):
        pass
    raise SchemaError(f"{what} must be of type float, in rows of equal length")


def columns_reference(items: list, fields: tuple, where: str) -> tuple[list, np.ndarray]:
    """``netmodel._columns`` as its object-by-object walk alone, with no whole-list fast path."""
    ids, rows = [], []
    for k, item in enumerate(items):
        try:
            ids.append(_typed(item["id"], "int", "id"))
            rows.append([_float(item[key] if default is None else item.get(key, default), key)
                         for key, default in fields])
        except KeyError as exc:
            raise SchemaError(f"{where}[{k}]: missing required field '{exc.args[0]}'") from exc
        except TypeError as exc:
            raise SchemaError(f"{where}[{k}]: must be an object, got {type(item).__name__}") from exc
        except SchemaError as exc:
            raise SchemaError(f"{where}[{k}]: {exc}") from exc
    return ids, np.array(rows, dtype=np.float64).reshape(len(items), len(fields)).T


def serving_reference(pairs: list, n: int, m: int, where: str) -> np.ndarray:
    """``netmodel._serving`` converting the pairs as nested lists and finding duplicates by ``np.unique``."""
    server_of = np.full(m, -1, dtype=np.int64)
    try:
        if (set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2}
                and set(map(type, chain.from_iterable(pairs))) <= {int}):
            pixel_id, cell_id = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
            if (np.all((1 <= pixel_id) & (pixel_id <= m) & (1 <= cell_id) & (cell_id <= n))
                    and np.unique(pixel_id).size == pixel_id.size):
                server_of[pixel_id - 1] = cell_id - 1
                return server_of
    except OverflowError:  # an int beyond int64
        pass
    for k, pair in enumerate(pairs):
        try:
            pixel_id, cell_id = pair
            pixel_id, cell_id = _typed(pixel_id, "int", "pixel id"), _typed(cell_id, "int", "cell id")
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{where}: serving[{k}] must be a [pixel_id, cell_id] pair: {exc}") from exc
        if not (1 <= pixel_id <= m) or not (1 <= cell_id <= n):
            raise SchemaError(f"{where}: serving[{k}] references unknown pixel or cell id")
        if server_of[pixel_id - 1] >= 0:
            raise SchemaError(f"{where}: pixel {pixel_id} assigned more than once")
        server_of[pixel_id - 1] = cell_id - 1
    return server_of


def link_geometry_reference(cell_xy, pixel_xy, wrap_periods):
    """``scenario._link_geometry`` as a per-site search over nine image rows by ``take_along_axis``."""
    pixel_xy = np.asarray(pixel_xy, dtype=np.float64)
    if wrap_periods is None:
        dx, dy = pixel_xy[:, 0] - cell_xy[0], pixel_xy[:, 1] - cell_xy[1]
    else:
        steps = np.array([[m1, m2] for m1 in (-1, 0, 1) for m2 in (-1, 0, 1)], dtype=np.float64)
        offsets = steps @ wrap_periods
        dx = pixel_xy[:, 0] + offsets[:, :1] - cell_xy[0]
        dy = pixel_xy[:, 1] + offsets[:, 1:] - cell_xy[1]
        best = np.argmin(dx * dx + dy * dy, axis=0)[None, :]
        dx, dy = np.take_along_axis(dx, best, 0)[0], np.take_along_axis(dy, best, 0)[0]
    return np.hypot(dx, dy), np.degrees(np.arctan2(dy, dx))


def wrap_angle_reference(deg):
    """``scenario._wrap_angle`` by the floor-division remainder ``%``."""
    return (np.asarray(deg, dtype=np.float64) + 180.0) % 360.0 - 180.0


@np.errstate(over="ignore", invalid="ignore")
def best_server_reference(power_per_ru, gains) -> np.ndarray:
    """``netmodel.assign_best_server`` as argmax down the columns of the cells x pixels products."""
    return np.argmax(power_per_ru[:, None] * gains, axis=0)


def csv_row_reference(row) -> str:
    """A CSV table row, each field printed on its own: n/a for None and NaN, floats at 17 digits."""
    def field(value):
        if value is None:
            return "n/a"
        if isinstance(value, float):
            return "n/a" if math.isnan(value) else f"{value:.17g}"
        return str(value)
    return ",".join(field(v) for v in row)
