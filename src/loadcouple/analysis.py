"""Demand-scaling studies built on the exact linear feasibility criterion.

All questions here scale every pixel demand by a factor s.  The asymptotic
slope A and offset b are linear in the demand, so at scale s the linear
system is rho = s (A rho + b), feasible iff s rho(A) < 1: the boundary is
1/rho(A).  Each question builds the coupling coefficients and the Perron
root rho(A) once, answers each scale from ``CouplingCoefficients.scaled``,
and computes fixed points only where they exist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import coupling, linfeas, solver

BOUNDARY_BRACKET_LIMIT = 60  # doublings/halvings allowed while bracketing


class PreconditionError(ValueError):
    """An analysis was asked about a regime where its question has no answer."""


@dataclass(frozen=True, eq=False)
class SweepRow:
    """One demand scale: verdict, spectral radius and, when feasible, load vectors."""

    scale: float
    feasible: bool
    spectral_radius: float
    rho_star: Optional[np.ndarray]
    rho_lower: Optional[np.ndarray]
    solve_status: Optional[str]


@dataclass(frozen=True)
class BoundaryCertificate:
    """The boundary estimate, bracketed by a feasible and an infeasible verdict."""

    scale: float
    last_feasible: float
    first_infeasible: float


@dataclass(frozen=True, eq=False)
class CellBounds:
    """Fixed point and both linear bounds for one cell, with relative gaps in percent."""

    cell_id: int
    rho_star: float
    rho_lower: float
    rho_upper: float
    lower_gap_pct: float
    upper_gap_pct: float


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Side-by-side verdict for two configurations of the same cell set.

    ``verdict`` is one of ``"equal"``, ``"a_dominates"``, ``"b_dominates"``,
    ``"incomparable"``.  Load columns are None for a configuration that is
    infeasible at the base demand.
    """

    verdict: str
    boundary_a: float
    boundary_b: float
    rho_star_a: Optional[np.ndarray]
    rho_star_b: Optional[np.ndarray]
    bounds_a: Optional[list[CellBounds]]
    bounds_b: Optional[list[CellBounds]]


def _perron_root(cc: coupling.CouplingCoefficients) -> float:
    """rho(A), the spectral radius of the asymptotic slope of ``cc``."""
    return linfeas.spectral_radius(coupling.asymptotic_linearization(cc).slope)


def _verdict(cc: coupling.CouplingCoefficients, radius: float, scale: float) -> bool:
    """LU feasibility verdict at ``scale``; ``radius`` is rho(A) of ``cc``."""
    return linfeas.feasibility(cc.scaled(scale), scale * radius)[0]


def demand_sweep(instance, scales) -> list[SweepRow]:
    """Fixed point and bounds across a grid of demand scales.

    Each row reports s rho(A) and takes its verdict from one LU on the
    scaled coefficients.  Each solve warm-starts from the previous feasible
    fixed point (the loads grow with s, so the previous point is a good
    Newton start).  Row order matches the input grid.  A negative or
    non-finite scale raises ValueError.
    """
    cc = coupling.coefficients(instance)
    radius = _perron_root(cc)
    rows: list[SweepRow] = []
    previous = None
    for s in map(float, scales):
        # at scales near the float minimum the rate per demand a / s, and the
        # kernels' products with it, overflow to inf: the zero-demand limit
        with np.errstate(over="ignore"):
            scaled = cc.scaled(s)
            feasible, outcome = linfeas.feasibility(scaled, s * radius)
            if not feasible:
                rows.append(SweepRow(s, False, s * radius, None, None, None))
                continue
            report = solver.solve_coefficients(scaled, solver.SolverConfig(start=previous), linear=outcome)
        previous = report.fixed_point
        rows.append(SweepRow(s, True, s * radius, report.fixed_point, report.lower, report.status))
    return rows


def feasibility_boundary(instance, lo: float, hi: float, tol: float = 1e-6) -> BoundaryCertificate:
    """The demand scale at which the network stops being feasible.

    Preconditions: the instance must be feasible at ``lo`` and infeasible at
    ``hi``; anything else raises ValueError.  The estimate is 1/rho(A); the
    returned bracket is at most ``tol`` times its lower end wide.
    """
    if not (0 < lo < hi and tol > 0):
        raise ValueError(f"need 0 < lo < hi and tol > 0, got lo={lo}, hi={hi}, tol={tol}")
    cc = coupling.coefficients(instance)
    radius = _perron_root(cc)
    if not _verdict(cc, radius, lo):
        raise PreconditionError(f"instance is infeasible at lo={lo}")
    if _verdict(cc, radius, hi):
        raise PreconditionError(f"instance is feasible at hi={hi}")
    return _boundary(cc, radius, tol, lo, hi)


def _boundary(cc, radius: float, tol: float, lo=0.0, hi=math.inf) -> BoundaryCertificate:
    """Boundary of ``cc`` inside (lo, hi), where lo is feasible and hi is not.

    s* = 1/rho(A) is certified by LU verdicts at s*(1 -+ delta).  Bisection
    on the verdicts is the fallback when the certificate fails (rho(A) is
    not accurate enough, or is 0); without a finite ``hi`` it first finds a
    bracket by doubling or halving from scale 1.
    """
    if radius > 0:
        s = 1.0 / radius
        # half the allowed width, less a margin for the rounding of s*(1 -+ delta)
        delta = tol / (2.0 + tol) * (1.0 - 1e-6)
        below, above = max(lo, s * (1.0 - delta)), min(hi, s * (1.0 + delta))
        if (below <= s <= above and above - below <= tol * below
                and _verdict(cc, radius, below) and not _verdict(cc, radius, above)):
            return BoundaryCertificate(scale=s, last_feasible=below, first_infeasible=above)
    if hi == math.inf:
        lo, hi = _bracket(cc, radius)
    while (hi - lo) > tol * lo:
        mid = 0.5 * (lo + hi)
        if _verdict(cc, radius, mid):
            lo = mid
        else:
            hi = mid
    return BoundaryCertificate(scale=0.5 * (lo + hi), last_feasible=lo, first_infeasible=hi)


def _bracket(cc, radius: float) -> tuple[float, float]:
    """A feasible and an infeasible scale, found by doubling or halving from scale 1."""
    lo = hi = 1.0
    grow = _verdict(cc, radius, 1.0)
    for _ in range(BOUNDARY_BRACKET_LIMIT):
        probe = 2.0 * hi if grow else 0.5 * lo
        if _verdict(cc, radius, probe) != grow:
            return (lo, probe) if grow else (probe, hi)
        lo = hi = probe
    raise ValueError(f"no {'in' if grow else ''}feasible scale found while bracketing the boundary")


def bound_quality(instance) -> list[CellBounds]:
    """Per-cell gap of both linear bounds against the computed fixed point.

    The tangent bound is anchored at the asymptotic solution.  Gaps are
    |bound - fixed point| / fixed point in percent; cells with a zero fixed
    point (no demand) report zero gaps.  Raises ValueError on infeasible
    instances.
    """
    cc = coupling.coefficients(instance)
    return _bound_quality(instance, cc, solver.solve_coefficients(cc))


def _bound_quality(instance, cc, report: solver.SolveReport) -> list[CellBounds]:
    if report.status == solver.INFEASIBLE:
        raise PreconditionError("no bound quality on an infeasible instance")
    rho = report.fixed_point
    lower = report.lower
    upper = linfeas.tangent_bound(cc, lower)
    if upper is None:  # the tangent system at the lower bound is not solvable
        upper = np.full(len(rho), math.nan)
    out = []
    for i, cell in enumerate(instance.cells):
        if rho[i] > 0.0:
            lower_gap = abs(lower[i] - rho[i]) / rho[i] * 100.0
            upper_gap = abs(upper[i] - rho[i]) / rho[i] * 100.0
        else:
            lower_gap = upper_gap = 0.0
        out.append(CellBounds(cell_id=cell.id, rho_star=float(rho[i]), rho_lower=float(lower[i]),
                              rho_upper=float(upper[i]), lower_gap_pct=lower_gap,
                              upper_gap_pct=upper_gap))
    return out


def compare_configs(instance_a, instance_b, boundary_tol: float = 1e-4) -> ComparisonReport:
    """Rank two configurations by feasibility headroom and base-demand loads.

    A configuration dominates when its feasibility boundary scale is
    strictly higher and its worst-cell load is strictly lower at the base
    demand (or, if only one side is feasible at base demand, the feasible
    one dominates).  Identical load vectors and boundaries are ``"equal"``;
    everything else is ``"incomparable"``.
    """
    if instance_a.num_cells != instance_b.num_cells:
        raise ValueError("configurations must have the same number of cells")

    def side(instance):
        """Boundary scale, loads and bounds at base demand from one build and one rho(A)."""
        cc = coupling.coefficients(instance)
        feasible, linear = linfeas.feasibility(cc)
        boundary = _boundary(cc, linear.spectral_radius, boundary_tol).scale
        if not feasible:
            return boundary, None, None
        bounds = _bound_quality(instance, cc, solver.solve_coefficients(cc, linear=linear))
        return boundary, np.array([b.rho_star for b in bounds]), bounds

    boundary_a, rho_a, bounds_a = side(instance_a)
    boundary_b, rho_b, bounds_b = side(instance_b)

    if rho_a is not None and rho_b is not None:
        if boundary_a == boundary_b and np.array_equal(rho_a, rho_b):
            verdict = "equal"
        elif boundary_a > boundary_b and np.max(rho_a) < np.max(rho_b):
            verdict = "a_dominates"
        elif boundary_b > boundary_a and np.max(rho_b) < np.max(rho_a):
            verdict = "b_dominates"
        else:
            verdict = "incomparable"
    elif rho_a is not None:
        verdict = "a_dominates"
    elif rho_b is not None:
        verdict = "b_dominates"
    else:
        # neither feasible at base demand: only the boundary scales can rank them
        if boundary_a > boundary_b:
            verdict = "a_dominates"
        elif boundary_b > boundary_a:
            verdict = "b_dominates"
        else:
            verdict = "equal"
    return ComparisonReport(
        verdict=verdict,
        boundary_a=boundary_a,
        boundary_b=boundary_b,
        rho_star_a=rho_a,
        rho_star_b=rho_b,
        bounds_a=bounds_a,
        bounds_b=bounds_b,
    )
