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

The map and Jacobian kernels take a stack of rows that share one layout
and differ in ``a``, the demand scale: a sweep evaluates all its scales in
one pass.  :func:`load_function` and :func:`jacobian` are their one-row
case, with the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
        return tuple(packed[..., cut] for cut in cc.cell_slices)
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

    # per-cell views of a, rel and noise, built on first read: the Jacobian's per-cell
    # products take rel's, so no call slices rel again; bench/tracer.py sizes a map
    # evaluation from all three
    rate_per_demand = _per_cell_views("a")
    rel_interference = _per_cell_views("rel")
    rel_noise = _per_cell_views("noise")
    # cell i's packed positions starts[i]:starts[i + 1] as a slice, for every cell
    cell_slices = cached_property(lambda cc: tuple(map(slice, cc.starts[:-1].tolist(), cc.starts[1:].tolist())))

    def __post_init__(self):
        for name in ("pixel", "cell_of", "starts", "a", "rel", "noise"):
            getattr(self, name).setflags(write=False)

    def rates(self, scales) -> np.ndarray:
        """Row r is ``a`` with every pixel demand multiplied by ``scales[r]``, a new array.

        Only ``a`` carries the demand, so the rows share every other array.
        At s = 1 the row equals ``a``.  At s = 0 it is +inf, so every map
        term and Jacobian weight is exactly 0, as if every pixel had dropped
        out.
        """
        for s in scales:
            _check_scale(s)
        s = np.array(scales, dtype=np.float64)[:, None]
        with np.errstate(divide="ignore"):  # s = 0 gives a / 0 = +inf
            return self.a / np.where(s == 0, 0.0, np.maximum(s, self.a / RATE_PER_DEMAND_MAX))


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


def _loads(cc: CouplingCoefficients, a: np.ndarray, lg: np.ndarray) -> np.ndarray:
    """Row r is the per-cell load where pixel j has log1p(1/u) ``lg[r, j]`` and rate per demand ``a[r, j]``.

    One flattened ``bincount`` sums every row; each row's sum runs in the
    same order as a one-row call, so its bits do not depend on the others.
    """
    # spectral efficiency log2(1 + 1/u), via log1p for large u accuracy
    terms = 1.0 / (a * lg)
    rows, n = len(terms), cc.num_cells
    index = cc.cell_of if rows == 1 else (cc.cell_of + n * np.arange(rows)[:, None]).ravel()
    return LN2 * np.bincount(index, weights=terms.ravel(), minlength=rows * n).reshape(rows, n)


def _cell_sums(cc: CouplingCoefficients, weights: np.ndarray) -> np.ndarray:
    """Matrix [r, i] is ``rel @ weights[r]`` over cell i's packed columns, one product per cell for all rows.

    One row takes a GEMV per cell on vectors by ``ndarray.dot``, the
    cheapest call, with no Python dispatch frame; a stack takes one
    ``matmul`` per cell.  A cell that serves no demanded pixel gets a zero row.
    """
    rows = len(weights)
    out = np.empty((cc.num_cells, cc.num_cells, rows))
    blocks, columns, product = (out[..., 0], weights[0], np.ndarray.dot) if rows == 1 else (out, weights.T, np.matmul)
    for block, rel, cut in zip(blocks, cc.rel_interference, cc.cell_slices):
        product(rel, columns[cut], out=block)
    return out.transpose(2, 0, 1)


def _stack(cc: CouplingCoefficients, rho, a):
    """``rho`` as rows of loads, and the rates per demand of each row: ``a``, or ``cc.a`` for all."""
    rho = np.asarray(rho, dtype=np.float64)
    return rho.reshape(-1, cc.num_cells), cc.a[None] if a is None else a


def _terms(cc: CouplingCoefficients, rho: np.ndarray):
    """The interference-plus-noise u at each row of loads ``rho``, and log1p(1/u)."""
    u = rho @ cc.rel + cc.noise
    return u, np.log1p(1.0 / u)


def load_function(cc: CouplingCoefficients, rho, a=None, terms=False):
    """Evaluate the coupling map: the load each cell needs given loads ``rho``.

    A stack of loads (rows x num_cells) gives a stack of loads, row r with
    rate per demand ``a[r]`` (``cc.a`` for every row by default).  With
    ``terms`` the loads come with the interference-plus-noise u and
    log1p(1/u) they used, which :func:`jacobian` takes to give the slopes at
    the same points.
    """
    rows, a = _stack(cc, rho, a)
    u, lg = _terms(cc, rows)
    loads = _loads(cc, a, lg)
    if np.ndim(rho) == 1:
        loads, u, lg = loads[0], u[0], lg[0]
    return (loads, u, lg) if terms else loads


def jacobian(cc: CouplingCoefficients, rho, a=None, terms=None) -> np.ndarray:
    """Partial derivatives of the coupling map, row i = d load_i / d rho.

    The diagonal is exactly zero: a cell's own load does not enter its
    pixels' interference.  A stack of loads with rates ``a`` gives a stack
    of Jacobians (rows x n x n), as in :func:`load_function`, whose
    ``terms`` at ``rho`` spare computing them again.  The result is a new
    array, which the caller owns and may overwrite.
    """
    rows, a = _stack(cc, rho, a)
    u, lg = _terms(cc, rows) if terms is None else terms
    # the derivative's denominator a lg^2 (u^2 + u), grouped so that a huge u (noise or
    # interference far above the serving power) stays in the float range: lg u and
    # lg (u + 1) both tend to 1 as u grows
    slopes = _cell_sums(cc, LN2 / (a * (lg * u) * (lg * (u + 1.0))))
    return slopes[0] if np.ndim(rho) == 1 else slopes


def asymptotic_linearization(cc: CouplingCoefficients) -> LinearizedSystem:
    """Slope limit of the coupling map at infinite load.

    Entry (i, k) is ln(2) * sum over cell i's pixels of rel[k] / a; the
    offset is the map at zero load.
    This affine map underestimates the coupling map everywhere on the
    nonnegative orthant.
    """
    a = cc.a[None]
    return LinearizedSystem(slope=_cell_sums(cc, LN2 / a)[0],
                            offset=_loads(cc, a, np.log1p(1.0 / cc.noise)[None])[0])
