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
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

LN2 = math.log(2.0)
# cap on the rate per demand ``a``: a pixel at the cap adds a load of
# 1e-300 ln(2) / ln(1 + SINR), the zero-demand limit, and no kernel
# product of ``a`` overflows
RATE_PER_DEMAND_MAX = 1e300


def _check_scale(s: float) -> None:
    if not (math.isfinite(s) and s >= 0):
        raise ValueError(f"demand scale must be finite and >= 0, got {s}")


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
    the demand, capped at RATE_PER_DEMAND_MAX, ``noise`` the noise power
    relative to the serving power, and ``rel`` (num_cells x M) every cell's
    received power relative to the serving power, with the serving cell's
    entry zeroed so that ``rho @ rel`` sums over the other cells only.
    """

    num_cells: int
    pixel: np.ndarray
    cell_of: np.ndarray
    starts: np.ndarray
    a: np.ndarray
    rel: np.ndarray
    noise: np.ndarray

    # per-cell views of a, rel and noise: only bench/tracer.py reads them, to size a
    # map evaluation, and they go once the benchmark sizes the packed arrays instead
    rate_per_demand = _per_cell_views("a")
    rel_interference = _per_cell_views("rel")
    rel_noise = _per_cell_views("noise")

    def scaled(self, s: float) -> "CouplingCoefficients":
        """The coefficients with every pixel demand multiplied by ``s``.

        Only ``a`` carries the demand, so it is the one array that changes.
        At s = 0 every pixel drops out, as zero-demand pixels do in
        :func:`coefficients`.
        """
        _check_scale(s)
        if s == 0:
            return replace(self, pixel=self.pixel[:0], cell_of=self.cell_of[:0],
                           starts=np.zeros_like(self.starts), a=self.a[:0],
                           rel=self.rel[:, :0], noise=self.noise[:0])
        return replace(self, a=self.a / np.maximum(s, self.a / RATE_PER_DEMAND_MAX))


@dataclass(frozen=True, eq=False)
class LinearizedSystem:
    """Affine stand-in for the coupling map: slope @ (rho - anchor) + offset.

    ``offset`` equals the coupling map evaluated at ``anchor``: the map at
    zero for :func:`asymptotic_linearization`, the map at the anchor for
    :func:`tangent_linearization`.
    """

    slope: np.ndarray
    anchor: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        for name in ("slope", "anchor", "offset"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _finite_positive(values: np.ndarray) -> np.ndarray:
    return np.isfinite(values) & (values > 0)


def _require(ok: np.ndarray, pixel: np.ndarray, what: str) -> None:
    """ValueError naming the lowest pixel whose entry of ``ok`` is false."""
    if not np.all(ok):
        raise ValueError(f"pixel {int(pixel[~ok].min()) + 1}: {what} is not finite and positive")


@np.errstate(over="ignore", divide="ignore")  # whatever overflows or divides by 0 is rejected below
def coefficients(instance) -> CouplingCoefficients:
    """Reduce an instance to the packed coupling arrays.

    Pixels with zero demand contribute nothing to any load and are dropped
    here once, so every stored coefficient is strictly positive.  Raises
    ValueError when the resource budget, a served pixel's serving power,
    any coefficient or the reciprocal of ``a`` or ``noise`` is not finite
    and positive (``rel`` only finite).
    """
    n = instance.num_cells
    try:
        budget = instance.num_resource_units * instance.rate_scale
    except OverflowError:  # an int budget beyond the float range
        budget = math.inf
    if not (math.isfinite(budget) and budget > 0):
        raise ValueError(f"resource budget num_resource_units * rate_scale = {budget} "
                         "is not finite and positive")
    demands, server_of = instance.demand_bits, instance.server_of
    demanded = np.flatnonzero((demands > 0) & (server_of >= 0))
    # the stable sort keeps ascending pixel order inside each cell
    pixel = demanded[np.argsort(server_of[demanded], kind="stable")]
    cell_of = server_of[pixel]
    positions = np.arange(pixel.size)
    received = instance.power_per_ru[:, None] * instance.gains[:, pixel]
    serving_power = received[cell_of, positions]
    _require(_finite_positive(serving_power), pixel, "serving power")
    rel = received / serving_power
    rel[cell_of, positions] = 0.0  # own cell never interferes with itself
    a = budget / np.maximum(demands[pixel], budget / RATE_PER_DEMAND_MAX)
    noise = instance.noise_power / serving_power
    # the load map divides by a and noise, so their reciprocals must be finite too;
    # 1/x finite and positive also makes x finite and positive
    _require(_finite_positive(1.0 / a) & _finite_positive(1.0 / noise) & np.isfinite(rel).all(axis=0),
             pixel, "a coupling coefficient or its reciprocal")
    return CouplingCoefficients(
        num_cells=n,
        pixel=pixel,
        cell_of=cell_of,
        starts=np.searchsorted(cell_of, np.arange(n + 1)),
        a=a,
        rel=rel,
        noise=noise,
    )


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
    with np.errstate(over="ignore", invalid="ignore"):
        denom = cc.a * lg * lg * (u * u + u)
    if not np.all(_finite_positive(denom)):
        # a huge u (noise or interference far above the serving power) takes u * u or
        # a * lg * lg out of the float range; regrouped, the factors stay near 1.  Only
        # here: the regrouped form changes the Jacobian's last bits, so the printed loads.
        denom = cc.a * (lg * u) * (lg * (u + 1.0))
    return _cell_sums(cc, cc.rel * (LN2 / denom))


def asymptotic_linearization(cc: CouplingCoefficients) -> LinearizedSystem:
    """Slope limit of the coupling map at infinite load, anchored at zero.

    Entry (i, k) is ln(2) * sum over cell i's pixels of rel[k] / a; the
    offset is the map at zero load.
    This affine map underestimates the coupling map everywhere on the
    nonnegative orthant.
    """
    slope = _cell_sums(cc, cc.rel * (LN2 / cc.a))
    return LinearizedSystem(
        slope=slope, anchor=np.zeros(cc.num_cells), offset=_loads(cc, cc.noise)
    )


def tangent_linearization(cc: CouplingCoefficients, anchor) -> LinearizedSystem:
    """First-order expansion of the coupling map at ``anchor``.

    Concavity puts this plane above the map everywhere, so its fixed point,
    when one exists, bounds the coupling fixed point from above.
    """
    anchor = np.asarray(anchor, dtype=np.float64)
    return LinearizedSystem(slope=jacobian(cc, anchor), anchor=anchor,
                            offset=load_function(cc, anchor))
