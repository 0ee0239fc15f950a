"""Fixed-point computation for the load coupling map, with certified bounds.

Feasibility is settled up front through the exact linear criterion, so the
iterative part only ever runs on instances that do have a fixed point.  The
asymptotic solution provides the starting iterate and a permanent lower
bound.  Newton runs from above: f is concave, so the fixed point of its
tangent plane at any iterate is a super-solution, f(x) <= x, and Newton
steps from a super-solution decrease to the fixed point in a few steps, also
at the feasibility boundary, with no line search.  One LU of I - J(rho) per
iteration gives the step, whose end is the tangent upper bound, and a
certified sub-solution: a bracket that shrinks as it proceeds.  The first
iteration's tangent bound, anchored at the start, is the one the
bound-quality report reads: it is the only place a tangent plane is solved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import coupling, linfeas

CONVERGED = "converged"
INFEASIBLE = "infeasible"
MAX_ITER_EXCEEDED = "max_iter_exceeded"


@dataclass
class SolverConfig:
    """Stop rule and start of :func:`solve`.

    The solve stops once the residual rule holds or, when ``interval_width``
    is set, once the certified interval is at most that wide.  ``start``
    overrides the default starting iterate (the asymptotic lower bound),
    which lets sweep drivers warm-start from a neighbouring fixed point; it
    is raised to that bound where it lies below.
    """

    tol_residual: float = 1e-10
    interval_width: Optional[float] = None
    max_iter: int = 10_000
    start: Optional[np.ndarray] = None

    def __post_init__(self):
        if not self.tol_residual > 0.0:
            raise ValueError("tol_residual must be positive")
        if not (self.interval_width is None or self.interval_width > 0.0):
            raise ValueError("interval_width must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True)
class TraceEntry:
    """State after one iteration: residual and current certified interval width."""

    iteration: int
    residual: float
    interval_width: float


@dataclass(eq=False)
class SolveReport:
    """Everything :func:`solve` knows at termination.

    ``fixed_point`` is the final iterate (the fixed point itself once
    ``status == "converged"``; the certified low end under the interval
    stop), ``lower`` the asymptotic solution and ``upper`` the latest tangent
    bound, raised to ``fixed_point``; for feasible instances the three are
    ordered lower <= fixed_point <= upper.  ``residual`` is the final
    iterate's.  ``linear`` carries the feasibility check's diagnostics; its
    read-only ``solution`` is ``lower``.
    ``fallbacks`` counts iterations that took the plain step rho <- f(rho)
    because the tangent system was unusable.
    ``start_upper`` is the first iteration's tangent bound, the fixed point
    of the tangent plane at the start iterate (the asymptotic solution by
    default), clamped at zero; None when that system is singular or has a
    component below -NEGATIVE_ATOL.
    """

    status: str
    fixed_point: Optional[np.ndarray]
    lower: Optional[np.ndarray]
    upper: Optional[np.ndarray]
    residual: float
    iterations: int
    trace: list[TraceEntry] = field(default_factory=list)
    linear: Optional[linfeas.LinearSolveOutcome] = None
    fallbacks: int = 0
    start_upper: Optional[np.ndarray] = None


def _iterate(cc, rho, linear, config) -> SolveReport:
    """Newton from ``rho`` on a feasible system, one LU of I - J(rho) per iteration.

    The next iterate is the tangent plane's fixed point, ``upper``, or f(rho)
    where that system is singular or has a component below -NEGATIVE_ATOL;
    either stays above the asymptotic solution L, as f(rho) >= f(L) >= L.
    ``low`` is a sub-solution, f(low) >= low: the asymptotic solution, then,
    checked by evaluation, any iterate that is one and, under the interval
    stop, the zero of the minorant through ``low`` with slope J(rho) - I at a
    super-solution rho (J is nonincreasing, so J(rho) <= J on [low, rho*]).
    """
    stop_width = config.interval_width
    lower = linear.solution
    low, f_low = lower, None
    upper = start_upper = None
    trace: list[TraceEntry] = []
    fallbacks = 0
    f_rho = coupling.load_function(cc, rho)
    for t in range(config.max_iter + 1):
        residual = float(np.max(np.abs(rho - f_rho), initial=0.0))
        converged = residual <= config.tol_residual * (1.0 + float(np.max(rho, initial=0.0)))
        if np.all(f_rho >= rho) and np.all(rho >= low):
            low, f_low = rho, f_rho
        lift = stop_width is not None and bool(np.all(f_rho <= rho))
        f_low = coupling.load_function(cc, low) if lift and f_low is None else f_low
        rhs = np.column_stack([f_rho - rho] + ([f_low - low] if lift else []))
        steps = linfeas._lu_solve(np.eye(len(rho)) - coupling.jacobian(cc, rho), rhs)
        tangent = None if steps is None else rho + steps[:, 0]  # the tangent plane's fixed point
        usable = tangent is not None and bool(np.min(tangent) >= -linfeas.NEGATIVE_ATOL)
        if usable:
            upper = np.maximum(tangent, 0.0)
            if t == 0:  # anchored at the start: the bound the bound-quality report reads
                start_upper = upper
        if steps is not None and lift:
            candidate = np.maximum(low + steps[:, 1], low)
            f_candidate = coupling.load_function(cc, candidate)
            if np.all(f_candidate >= candidate):
                low, f_low = candidate, f_candidate
        width = float(np.max(upper - low)) if upper is not None else math.inf
        trace.append(TraceEntry(iteration=t, residual=residual, interval_width=width))
        done = converged or (stop_width is not None and width <= stop_width)
        if done or t == config.max_iter:  # no step past the last reported iterate
            status = CONVERGED if done else MAX_ITER_EXCEEDED
            break
        fallbacks += not usable
        rho = upper if usable else f_rho  # Newton from above, else a plain step
        f_rho = coupling.load_function(cc, rho)
    point = rho if stop_width is None else low
    # the maximum of an upper bound and any vector is an upper bound
    upper = None if upper is None else np.maximum(upper, point)
    return SolveReport(status, point, lower, upper, residual, len(trace) - 1, trace, linear, fallbacks,
                       start_upper)


def solve(instance, config: Optional[SolverConfig] = None) -> SolveReport:
    """Compute the load coupling fixed point together with certified bounds.

    The exact linear feasibility check runs first; infeasible instances are
    reported without a single nonlinear iteration.  Otherwise Newton
    iterates from the asymptotic solution (or ``config.start``) until the
    residual drops below ``tol_residual`` relative to 1 + the largest load.
    After the first step every iterate is the fixed point of a tangent plane,
    a super-solution, unless that system was unusable and a plain step
    rho <- f(rho) was taken.

    With ``config.interval_width`` set, iteration also ends once ``upper`` is
    within that width of ``fixed_point``, which is then a sub-solution
    (f(rho) >= rho, checked by evaluation) rather than the last iterate; the
    fixed point lies between them.
    """
    model = linfeas.model(instance)
    return solve_coefficients(model.coefficients, config, linear=model.verdict)


def solve_coefficients(cc: coupling.CouplingCoefficients, config: Optional[SolverConfig] = None,
                       linear: Optional[linfeas.LinearSolveOutcome] = None) -> SolveReport:
    """:func:`solve` on coefficients.

    ``linear`` is the outcome of :func:`linfeas.feasibility` on ``cc`` when the
    caller has already taken that verdict; it is taken here otherwise.  A
    ``config.start`` that is not a finite array of shape ``(num_cells,)``
    raises ValueError.
    """
    config = config or SolverConfig()
    if config.start is not None and not (np.shape(config.start) == (cc.num_cells,)
                                         and np.all(np.isfinite(config.start))):
        raise ValueError(f"start must be a finite array of shape ({cc.num_cells},)")
    if linear is None:
        _, linear = linfeas.feasibility(coupling.asymptotic_linearization(cc))
    if linear.status != linfeas.FEASIBLE:
        return SolveReport(INFEASIBLE, None, None, None, math.nan, 0, linear=linear)
    start = linear.solution if config.start is None else np.maximum(config.start, linear.solution)
    return _iterate(cc, start.copy(), linear, config)
