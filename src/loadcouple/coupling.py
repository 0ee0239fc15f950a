"""Load coupling: the nonlinear map from cell loads to cell loads.

A cell's load is the fraction of its resource units busy serving demand.
Interference seen by a pixel grows with the loads of the other cells, which
lowers the pixel's SINR and raises the resources its own cell must spend,
so the network settles at a fixed point of the map built here.

For a demanded pixel j the interference state is reduced to

    u_j(rho) = sum_k rel[k, j] * rho_k + noise[j]

with everything expressed relative to the serving received power, so the
SINR is 1/u_j and the pixel adds 1 / (a[j] * log2(1 + 1/u_j)) to the load
of its serving cell.  The module also builds the map's Jacobian, whose
tangent plane sits above the map (the solver's Newton step solves it), and
the map's slope limit at infinite load, which sits below it everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .netmodel import _check_scale

LN2 = math.log(2.0)
# cap on the rate per demand ``a``: a pixel at the cap adds a load of
# 1e-300 ln(2) / ln(1 + SINR), the zero-demand limit, and no kernel
# product of ``a`` overflows
RATE_PER_DEMAND_MAX = 1e300


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
    ``rel`` is column-major, as the column gather from the gains gives it:
    the per-cell GEMVs of the Jacobian and the slope read its columns, and
    their last bits depend on that layout.  Every array is made read-only.
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

    def __post_init__(self):
        for name in ("pixel", "cell_of", "starts", "a", "rel", "noise"):
            getattr(self, name).setflags(write=False)

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
    """Affine stand-in for the coupling map: rho -> slope @ rho + offset."""

    slope: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        for name in ("slope", "offset"):
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
    budget = instance.num_resource_units * instance.rate_scale
    if not (math.isfinite(budget) and budget > 0):
        raise ValueError(f"resource budget num_resource_units * rate_scale = {budget} "
                         "is not finite and positive")
    demands, server_of = instance.demand_bits, instance.server_of
    demanded = np.flatnonzero(demands > 0)  # every one has a serving cell
    # the stable sort keeps ascending pixel order inside each cell
    pixel = demanded[np.argsort(server_of[demanded], kind="stable")]
    cell_of = server_of[pixel]
    positions = np.arange(pixel.size)
    rel = instance.gains[:, pixel]  # scaled in place, so it stays column-major
    rel *= instance.power_per_ru[:, None]  # the received powers
    serving_power = rel[cell_of, positions]
    _require(_finite_positive(serving_power), pixel, "serving power")
    rel /= serving_power
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


def _cell_sums(cc: CouplingCoefficients, weights: np.ndarray) -> np.ndarray:
    """Row i is ``rel @ weights`` over cell i's packed columns, one GEMV per cell.

    A cell that serves no demanded pixel gets a zero row.
    """
    out = np.empty((cc.num_cells, cc.num_cells))
    starts = cc.starts.tolist()
    for row, s, e in zip(out, starts, starts[1:]):
        np.dot(cc.rel[:, s:e], weights[s:e], out=row)
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
    # the derivative's denominator a lg^2 (u^2 + u), grouped so that a huge u (noise or
    # interference far above the serving power) stays in the float range: lg u and
    # lg (u + 1) both tend to 1 as u grows
    return _cell_sums(cc, LN2 / (cc.a * (lg * u) * (lg * (u + 1.0))))


def asymptotic_linearization(cc: CouplingCoefficients) -> LinearizedSystem:
    """Slope limit of the coupling map at infinite load.

    Entry (i, k) is ln(2) * sum over cell i's pixels of rel[k] / a; the
    offset is the map at zero load.
    This affine map underestimates the coupling map everywhere on the
    nonnegative orthant.
    """
    return LinearizedSystem(slope=_cell_sums(cc, LN2 / cc.a), offset=_loads(cc, cc.noise))
