"""Demand-scaling studies built on the exact linear feasibility criterion.

All questions here scale every pixel demand by a factor s.  The asymptotic
slope A and offset b are linear in the demand, so at scale s the linear
system is rho = s (A rho + b), feasible iff s rho(A) < 1: the boundary is
1/rho(A).  Every question reads the instance's :func:`linfeas.model`, so
the coupling coefficients, A and b, the unit-scale verdict and rho(A) are
each built at most once per instance, whatever is asked of it.  Each
question takes each scale's verdict from s A and s b, by
:func:`linfeas.solve_linear`, and the loads at a scale from
:func:`solver.solve_scales`, which solves exactly the feasible scales.
Every answer that rests on a solve holds that solve's
:class:`solver.SolveReport`, not copies of its fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linfeas, solver

# each certified boundary bracket is at most this wide relative to its lower end
BOUNDARY_TOL = 1e-6  # feasibility_boundary's default
COMPARE_TOL = 1e-4  # compare_configs'


class PreconditionError(ValueError):
    """An analysis was asked about a regime where its question has no answer."""


@dataclass(frozen=True, eq=False)
class SweepRow:
    """One demand scale: s rho(A) and the report of its solve, or of its verdict where it is infeasible."""

    scale: float
    spectral_radius: float
    report: solver.SolveReport

    @property
    def feasible(self) -> bool:
        return self.report.status != solver.INFEASIBLE


@dataclass(frozen=True)
class BoundaryCertificate:
    """The boundary estimate, bracketed by a feasible and an infeasible verdict."""

    scale: float
    last_feasible: float
    first_infeasible: float


@dataclass(frozen=True, eq=False)
class CellBounds:
    """One solve's report, its first tangent bound and both bounds' gaps in percent.

    The report's ``fixed_point``, ``lower`` and ``status`` are the table's
    loads, lower bound and status.  ``rho_upper`` is its ``start_upper``, NaN
    where there is none.  Each column is a float64 array with one entry per
    cell, cell i at index i.
    """

    report: solver.SolveReport
    rho_upper: np.ndarray
    lower_gap_pct: np.ndarray
    upper_gap_pct: np.ndarray


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Side-by-side verdict for two configurations of the same cell set.

    ``verdict`` is one of ``"equal"``, ``"a_dominates"``, ``"b_dominates"``,
    ``"incomparable"``.  ``report_a`` and ``report_b`` are each side's solve
    at the base demand, its ``fixed_point`` the loads the verdict reads;
    None for a configuration that is infeasible there.
    """

    verdict: str
    boundary_a: float
    boundary_b: float
    report_a: Optional[solver.SolveReport]
    report_b: Optional[solver.SolveReport]


def demand_sweep(instance, scales) -> list[SweepRow]:
    """Fixed point and bounds across a grid of demand scales: one row per scale, holding its solve's report.

    Each row reports s rho(A) and the report of :func:`solver.solve_scales`
    at s; an infeasible scale's report carries its verdict and no loads.
    Row order matches the input grid.  A negative or non-finite scale
    raises ValueError.
    """
    scales = [float(s) for s in scales]
    reports = solver.solve_scales(instance, scales)
    radius = linfeas.model(instance).spectral_radius
    return [SweepRow(s, s * radius, report) for s, report in zip(scales, reports)]


def feasibility_boundary(instance, lo: float, hi: float, tol: float = BOUNDARY_TOL) -> BoundaryCertificate:
    """The demand scale at which the network stops being feasible.

    Preconditions: the instance must be feasible at ``lo`` and infeasible at
    ``hi`` (PreconditionError otherwise), with 0 < lo < hi and tol > 0
    (ValueError otherwise).  The boundary is 1/rho(A), certified by two LU
    verdicts that bracket it at most ``tol`` times the lower end wide; a
    ``tol`` too small to certify in double precision raises ValueError.
    """
    if not (0 < lo < hi and tol > 0):
        raise ValueError(f"need 0 < lo < hi and tol > 0, got lo={lo}, hi={hi}, tol={tol}")
    model = linfeas.model(instance)
    if not _feasible(model.system, lo):
        raise PreconditionError(f"instance is infeasible at lo={lo}")
    if _feasible(model.system, hi):
        raise PreconditionError(f"instance is feasible at hi={hi}")
    return _boundary(model.system, model.spectral_radius, tol, lo, hi)


def _feasible(system, scale: float) -> bool:
    return linfeas.solve_linear(system, scale).status == linfeas.FEASIBLE


def _boundary(system, radius: float, tol: float, lo=0.0, hi=math.inf) -> BoundaryCertificate:
    """Boundary s* = 1/rho(A) of the asymptotic ``system`` inside (lo, hi), lo feasible, hi not.

    LU verdicts at s*(1 -+ delta) certify s*: the lower must be feasible, the
    upper infeasible, and the bracket at most ``tol`` times its lower end
    wide.  When they do not (``tol`` below what double precision resolves,
    a wrong rho(A), or rho(A) = 0 with an infeasible finite ``hi``) it raises
    ValueError.  With rho(A) = 0 and no finite ``hi`` every scale is
    feasible, so all three scales are infinite.
    """
    if radius == 0 and hi == math.inf:
        return BoundaryCertificate(math.inf, math.inf, math.inf)
    s = 1.0 / radius if radius > 0 else math.inf
    # half the allowed width, less a margin for the rounding of s*(1 -+ delta)
    delta = tol / (2.0 + tol) * (1.0 - 1e-6)
    below, above = max(lo, s * (1.0 - delta)), min(hi, s * (1.0 + delta))
    if not (below <= s <= above and above - below <= tol * below
            and _feasible(system, below) and not _feasible(system, above)):
        raise ValueError(f"boundary scale 1/rho(A) = {s:.17g} is not certified at tol={tol:g}")
    return BoundaryCertificate(scale=s, last_feasible=below, first_infeasible=above)


def bound_quality(instance) -> CellBounds:
    """One table of per-cell gaps of both linear bounds against the computed fixed point.

    The upper bound is the fixed point of the tangent plane at the
    asymptotic solution, as the solve's first Newton step computes it (NaN
    where that system has no usable solution).  Gaps are |bound - fixed
    point| / fixed point in percent; cells with a zero fixed point (no
    demand) report zero gaps.  Raises PreconditionError on infeasible
    instances.
    """
    return _bound_quality(solver.solve(instance))


def _bound_quality(report: solver.SolveReport) -> CellBounds:
    if report.status == solver.INFEASIBLE:
        raise PreconditionError("no bound quality on an infeasible instance")
    rho, lower, upper = report.fixed_point, report.lower, report.start_upper
    if upper is None:  # the tangent system at the lower bound is not solvable
        upper = np.full(len(rho), math.nan)
    with np.errstate(divide="ignore", invalid="ignore"):  # the zero-load cells' quotients are dropped
        gaps = [np.where(rho > 0.0, np.abs(bound - rho) / rho * 100.0, 0.0) for bound in (lower, upper)]
    return CellBounds(report, upper, *gaps)


def compare_configs(instance_a, instance_b) -> ComparisonReport:
    """Rank two configurations by feasibility headroom and base-demand loads.

    A configuration dominates when its feasibility boundary scale is
    strictly higher and its worst-cell load is strictly lower at the base
    demand (or, if only one side is feasible at base demand, the feasible
    one dominates).  Identical load vectors and boundaries are ``"equal"``;
    everything else is ``"incomparable"``.  Boundaries are certified as
    :func:`feasibility_boundary` does, at ``tol`` = COMPARE_TOL.
    """
    if instance_a.num_cells != instance_b.num_cells:
        raise ValueError("configurations must have the same number of cells")

    def side(instance):
        """Boundary scale and solve at base demand, both read from the instance's model."""
        model = linfeas.model(instance)
        boundary = _boundary(model.system, model.spectral_radius, COMPARE_TOL).scale
        return boundary, solver.solve(instance) if model.verdict.status == linfeas.FEASIBLE else None

    boundary_a, report_a = side(instance_a)
    boundary_b, report_b = side(instance_b)

    if report_a is not None and report_b is not None:
        rho_a, rho_b = report_a.fixed_point, report_b.fixed_point
        if boundary_a == boundary_b and np.array_equal(rho_a, rho_b):
            verdict = "equal"
        elif boundary_a > boundary_b and np.max(rho_a) < np.max(rho_b):
            verdict = "a_dominates"
        elif boundary_b > boundary_a and np.max(rho_b) < np.max(rho_a):
            verdict = "b_dominates"
        else:
            verdict = "incomparable"
    elif report_a is not None:
        verdict = "a_dominates"
    elif report_b is not None:
        verdict = "b_dominates"
    else:
        # neither feasible at base demand: only the boundary scales can rank them
        if boundary_a > boundary_b:
            verdict = "a_dominates"
        elif boundary_b > boundary_a:
            verdict = "b_dominates"
        else:
            verdict = "equal"
    return ComparisonReport(verdict, boundary_a, boundary_b, report_a, report_b)
