"""Shared builders and independent oracles for the test suite.

The abstract instance builder keeps every structural knob under test
control: serving follows best server, interferer gains stay within three
orders of magnitude of the serving gain, and demands are rescaled so the
asymptotic slope matrix hits an exact spectral radius target (computed with
numpy's eigensolver, independent of the package's power iteration).
"""

from __future__ import annotations

import math

import numpy as np

from loadcouple import (
    Cell,
    NetworkInstance,
    Pixel,
    asymptotic_linearization,
    coefficients,
    load_function,
)


def build_instance(gains, demands, powers, noise, num_resource_units=100, rate_scale=1.0,
                   serving=None) -> NetworkInstance:
    """Instance from raw arrays; serving defaults to best server."""
    gains = np.asarray(gains, dtype=np.float64)
    demands = np.asarray(demands, dtype=np.float64)
    powers = np.asarray(powers, dtype=np.float64)
    n, m = gains.shape
    cells = tuple(Cell(id=i + 1, power_per_ru=float(powers[i])) for i in range(n))
    pixels = tuple(Pixel(id=j + 1, demand_bits=float(demands[j])) for j in range(m))
    return NetworkInstance(
        cells=cells,
        pixels=pixels,
        gains=gains,
        noise_power=float(noise),
        num_resource_units=num_resource_units,
        rate_scale=rate_scale,
        serving=serving,
    )


def eig_radius(matrix) -> float:
    """Spectral radius via numpy's eigensolver (oracle for the power iteration)."""
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
    powers = instance.powers()
    budget = instance.num_resource_units * instance.rate_scale
    load, offset = np.zeros(n), np.zeros(n)
    jac, slope = np.zeros((n, n)), np.zeros((n, n))
    for j, pixel in enumerate(instance.pixels):
        if pixel.demand_bits == 0.0:
            continue
        i = int(instance.serving.server_of[j])
        own = powers[i] * instance.gains[i, j]
        rel = powers * instance.gains[:, j] / own
        rel[i] = 0.0
        noise = instance.noise_power / own
        a = budget / pixel.demand_bits
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
