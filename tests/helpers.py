"""Shared builders and independent oracles for the test suite.

The abstract instance builder keeps every structural knob under test
control: serving follows best server, interferer gains stay within three
orders of magnitude of the serving gain, and demands are rescaled so the
asymptotic slope matrix hits an exact spectral radius target (computed with
numpy's eigensolver in this file, not through the package).
"""

from __future__ import annotations

import math

import numpy as np

from loadcouple import (
    NetworkInstance,
    asymptotic_linearization,
    coefficients,
    feasibility_check,
    load_function,
    tangent_bound,
)


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


def lower_bound(instance) -> np.ndarray:
    """Solution of the asymptotic system: a componentwise lower bound on the fixed point."""
    feasible, outcome = feasibility_check(instance)
    if not feasible:
        raise ValueError(f"no lower bound: instance is {outcome.status}")
    return outcome.solution


def upper_bound(instance, anchor):
    """Fixed point of the tangent plane at ``anchor``, or None when it has none."""
    return tangent_bound(coefficients(instance), anchor)


def affine(system, rho) -> np.ndarray:
    """A linearized system evaluated at ``rho``: slope @ (rho - anchor) + offset."""
    return system.slope @ (np.asarray(rho, dtype=np.float64) - system.anchor) + system.offset


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
