"""Load coupling: the nonlinear map from cell loads to cell loads.

A cell's load is the fraction of its resource units busy serving demand.
Interference seen by a pixel grows with the loads of the other cells, which
lowers the pixel's SINR and raises the resources its own cell must spend,
so the network settles at a fixed point of the map built here.

For a demanded pixel j the interference state is reduced to

    u_j(rho) = sum_k rel[k, j] * rho_k + noise[j]

with everything expressed relative to the serving received power, so the
SINR is 1/u_j and the pixel adds 1 / (a[j] * log2(1 + 1/u_j)) to the load
of its serving cell.  The module also builds the two linear companions of
the map: its slope limit at infinite load, which sits below the map
everywhere, and its tangent plane at an anchor, which sits above it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

LN2 = math.log(2.0)


def _per_cell_views(packed_name: str) -> cached_property:
    """Per-cell tuple of views into one packed array, built on first access."""
    def views(cc):
        packed = getattr(cc, packed_name)
        return tuple(packed[..., s:e] for s, e in zip(cc.starts[:-1], cc.starts[1:]))
    return cached_property(views)


@dataclass(frozen=True, eq=False)
class CouplingCoefficients:
    """Per-pixel arrays of the load coupling map, packed by serving cell.

    The M demanded pixels are sorted by serving cell, then by pixel index, so
    cell i owns positions ``starts[i]:starts[i + 1]``; ``pixel`` and
    ``cell_of`` give each position's global pixel index and serving cell.
    ``a`` is the interval bit budget per unit spectral efficiency divided by
    the demand, ``noise`` the noise power relative to the serving power, and
    ``rel`` (num_cells x M) every cell's received power relative to the
    serving power, with the serving cell's entry zeroed so that ``rho @ rel``
    sums over the other cells only.

    ``pixel_idx``, ``rate_per_demand``, ``rel_interference`` and
    ``rel_noise`` hold the same data per cell, as views into these arrays.
    """

    num_cells: int
    pixel: np.ndarray
    cell_of: np.ndarray
    starts: np.ndarray
    a: np.ndarray
    rel: np.ndarray
    noise: np.ndarray

    pixel_idx = _per_cell_views("pixel")
    rate_per_demand = _per_cell_views("a")
    rel_interference = _per_cell_views("rel")
    rel_noise = _per_cell_views("noise")


@dataclass(frozen=True, eq=False)
class LinearizedSystem:
    """Affine stand-in for the coupling map: slope @ (rho - anchor) + offset.

    ``offset`` equals the coupling map evaluated at ``anchor``.  ``kind`` is
    ``"asymptotic"`` for the infinite-load slope limit anchored at zero and
    ``"tangent"`` for the first-order expansion at the anchor.
    """

    slope: np.ndarray
    anchor: np.ndarray
    offset: np.ndarray
    kind: str

    def __post_init__(self):
        for name in ("slope", "anchor", "offset"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def coefficients(instance) -> CouplingCoefficients:
    """Reduce an instance to the packed coupling arrays.

    Pixels with zero demand contribute nothing to any load and are dropped
    here once, so every stored coefficient is strictly positive.
    """
    n = instance.num_cells
    demands = instance.demands()
    server_of = instance.serving.server_of
    demanded = np.flatnonzero((demands > 0) & (server_of >= 0))
    # the stable sort keeps ascending pixel order inside each cell
    pixel = demanded[np.argsort(server_of[demanded], kind="stable")]
    cell_of = server_of[pixel]
    positions = np.arange(pixel.size)
    received = instance.powers()[:, None] * instance.gains[:, pixel]
    serving_power = received[cell_of, positions]
    rel = received / serving_power
    rel[cell_of, positions] = 0.0  # own cell never interferes with itself
    return CouplingCoefficients(
        num_cells=n,
        pixel=pixel,
        cell_of=cell_of,
        starts=np.searchsorted(cell_of, np.arange(n + 1)),
        a=instance.num_resource_units * instance.rate_scale / demands[pixel],
        rel=rel,
        noise=instance.noise_power / serving_power,
    )


def _interference(cc: CouplingCoefficients, i: int, rho: np.ndarray) -> np.ndarray:
    """u for every pixel of cell i: noise plus load-weighted relative interference."""
    return cc.rel_interference[i].T @ rho + cc.rel_noise[i]


def _loads(cc: CouplingCoefficients, u: np.ndarray) -> np.ndarray:
    """Per-cell load when every pixel sees interference-plus-noise ``u``."""
    # spectral efficiency log2(1 + 1/u), via log1p for large u accuracy
    terms = 1.0 / (cc.a * np.log1p(1.0 / u))
    return LN2 * np.bincount(cc.cell_of, weights=terms, minlength=cc.num_cells)


def _cell_sums(cc: CouplingCoefficients, values: np.ndarray) -> np.ndarray:
    """Row i sums the columns of ``values`` (shape (k, M)) that belong to cell i."""
    out = np.zeros((cc.num_cells, values.shape[0]))
    # reduceat yields one element, not zero, for an empty segment: skip those
    nonempty = cc.starts[:-1] < cc.starts[1:]
    out[nonempty] = np.add.reduceat(values, cc.starts[:-1][nonempty], axis=1).T
    return out


def sinr(cc: CouplingCoefficients, cell: int, pixel: int, rho) -> float:
    """SINR of one pixel of ``cell`` at load state ``rho`` (both 0-based indices)."""
    rho = np.asarray(rho, dtype=np.float64)
    idx = cc.pixel_idx[cell]
    pos = np.searchsorted(idx, pixel)
    if pos >= idx.size or idx[pos] != pixel:
        raise ValueError(f"pixel {pixel} is not a demanded pixel of cell {cell}")
    u = cc.rel_interference[cell][:, pos] @ rho + cc.rel_noise[cell][pos]
    return 1.0 / u


def load_function(cc: CouplingCoefficients, rho) -> np.ndarray:
    """Evaluate the coupling map: the load each cell needs given loads ``rho``."""
    rho = np.asarray(rho, dtype=np.float64)
    return _loads(cc, rho @ cc.rel + cc.noise)


def jacobian(cc: CouplingCoefficients, rho) -> np.ndarray:
    """Partial derivatives of the coupling map, row i = d load_i / d rho.

    The diagonal is exactly zero: a cell's own load does not enter its
    pixels' interference.
    """
    rho = np.asarray(rho, dtype=np.float64)
    u = rho @ cc.rel + cc.noise
    lg = np.log1p(1.0 / u)
    return _cell_sums(cc, cc.rel * (LN2 / (cc.a * lg * lg * (u * u + u))))


def _curvature_weights(a, u):
    """Second-derivative weight per pixel; strictly negative for positive u."""
    lg = np.log1p(1.0 / u)
    # 2 - (2u + 1) log(1 + 1/u) < 0 for every u > 0
    neg = 2.0 - (2.0 * u + 1.0) * lg
    denom = (lg * lg * (u * u + u)) ** 2
    return LN2 * lg * neg / (a * denom)


def hessian_entry(cc: CouplingCoefficients, cell: int, k: int, h: int, rho) -> float:
    """Second partial derivative of cell ``cell``'s load w.r.t. rho_k and rho_h."""
    rho = np.asarray(rho, dtype=np.float64)
    a = cc.rate_per_demand[cell]
    if a.size == 0 or k == cell or h == cell:
        return 0.0
    u = _interference(cc, cell, rho)
    rel = cc.rel_interference[cell]
    return float(np.sum(rel[k] * rel[h] * _curvature_weights(a, u)))


def cell_hessian(cc: CouplingCoefficients, cell: int, rho) -> np.ndarray:
    """Full Hessian of one cell's load over the other cells' loads.

    Returns the (n-1) x (n-1) symmetric matrix with row/column ``cell``
    removed; it is negative definite wherever the cell serves demand.
    """
    rho = np.asarray(rho, dtype=np.float64)
    n = cc.num_cells
    a = cc.rate_per_demand[cell]
    others = [k for k in range(n) if k != cell]
    if a.size == 0:
        return np.zeros((n - 1, n - 1))
    u = _interference(cc, cell, rho)
    rel = cc.rel_interference[cell][others, :]
    return (rel * _curvature_weights(a, u)) @ rel.T


def asymptotic_linearization(cc: CouplingCoefficients) -> LinearizedSystem:
    """Slope limit of the coupling map at infinite load, anchored at zero.

    Entry (i, k) is ln(2) * sum over cell i's pixels of rel[k] / a; the
    offset is the map at zero load.
    This affine map underestimates the coupling map everywhere on the
    nonnegative orthant.
    """
    slope = _cell_sums(cc, cc.rel * (LN2 / cc.a))
    return LinearizedSystem(
        slope=slope, anchor=np.zeros(cc.num_cells), offset=_loads(cc, cc.noise), kind="asymptotic"
    )


def tangent_linearization(cc: CouplingCoefficients, anchor) -> LinearizedSystem:
    """First-order expansion of the coupling map at ``anchor``.

    Concavity puts this plane above the map everywhere, so its fixed point,
    when one exists, bounds the coupling fixed point from above.
    """
    anchor = np.asarray(anchor, dtype=np.float64)
    return LinearizedSystem(slope=jacobian(cc, anchor), anchor=anchor,
                            offset=load_function(cc, anchor), kind="tangent")


def evaluate(system: LinearizedSystem, rho) -> np.ndarray:
    """Evaluate the affine map at ``rho``."""
    rho = np.asarray(rho, dtype=np.float64)
    return system.slope @ (rho - system.anchor) + system.offset
