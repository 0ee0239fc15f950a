"""Fixed-point computation for the load coupling map, with certified bounds.

Feasibility is settled up front through the exact linear criterion, so the
iterative part only ever runs on instances that do have a fixed point.  The
asymptotic solution provides the starting iterate and a permanent lower
bound.  The default safeguarded Newton method keeps its few-step
convergence at the feasibility boundary.  One LU of I - J(rho) per Newton
iteration (every few for plain iteration) gives the step, a tangent upper
bound and a certified sub-solution, a bracket that shrinks as it proceeds.
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

FIXED_POINT = "fixed_point"
NEWTON = "newton"

# iterates beyond this magnitude mean the map is being iterated on an
# infeasible system (possible only when the pre-check is bypassed)
DIVERGENCE_LIMIT = 1e15


@dataclass
class SolverConfig:
    """Tuning knobs for :func:`solve`.

    ``start`` overrides the default starting iterate (the asymptotic lower
    bound), which lets sweep drivers warm-start from a neighbouring fixed
    point; it is raised to that bound where it lies below.
    ``bound_refresh_every`` controls how often plain iteration refreshes the
    bounds; Newton does so every iteration.
    """

    method: str = NEWTON
    tol_residual: float = 1e-10
    max_iter: int = 10_000
    bound_refresh_every: int = 5
    start: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.method not in (FIXED_POINT, NEWTON):
            raise ValueError(f"unknown method {self.method!r}")
        if not self.tol_residual > 0.0:
            raise ValueError("tol_residual must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.bound_refresh_every < 1:
            raise ValueError("bound_refresh_every must be >= 1")


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
    iterate's.  ``linear`` carries the feasibility check's diagnostics.
    ``fallbacks`` counts Newton iterations that took a plain step instead.
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


def fixed_point_iteration(cc, start, tol_residual=1e-10, max_iter=10_000):
    """Plain iteration of the coupling map, no pre-checks, no bound tracking.

    Returns (rho, residual, iterations, converged).  Runs from any
    nonnegative start, including on infeasible systems, where the iterates
    grow without bound and the call returns unconverged once they pass
    DIVERGENCE_LIMIT.
    """
    rho = np.asarray(start, dtype=np.float64).copy()
    residual = math.inf
    for t in range(max_iter + 1):
        f_rho = coupling.load_function(cc, rho)
        residual = float(np.max(np.abs(rho - f_rho), initial=0.0))
        if residual <= tol_residual * (1.0 + float(np.max(rho, initial=0.0))):
            return rho, residual, t, True
        if not np.all(np.isfinite(f_rho)) or np.max(f_rho, initial=0.0) > DIVERGENCE_LIMIT:
            return f_rho, residual, t, False
        rho = f_rho
    return rho, residual, max_iter, False


def _iterate(cc, rho, linear, config, stop_width) -> SolveReport:
    """Shared driver for both methods, from ``rho`` on a feasible system.

    ``low`` is a sub-solution, f(low) >= low: the asymptotic solution, then,
    checked by evaluation, any iterate that is one and, under the interval
    stop, the zero of the minorant through ``low`` with slope J(rho) - I at a
    super-solution rho (J is nonincreasing, so J(rho) <= J on [low, rho*]).
    """
    newton = config.method == NEWTON
    lower = linear.solution
    low, f_low = lower, None
    upper = None
    trace: list[TraceEntry] = []
    status = MAX_ITER_EXCEEDED
    residual = math.inf
    fallbacks = 0
    for t in range(config.max_iter + 1):
        f_rho = coupling.load_function(cc, rho)
        residual = float(np.max(np.abs(rho - f_rho), initial=0.0))
        converged = residual <= config.tol_residual * (1.0 + float(np.max(rho, initial=0.0)))
        if np.all(f_rho >= rho) and np.all(rho >= low):
            low, f_low = rho, f_rho
        steps, lift = None, False
        if newton or converged or t % config.bound_refresh_every == 0:
            lift = stop_width is not None and bool(np.all(f_rho <= rho))
            f_low = coupling.load_function(cc, low) if lift and f_low is None else f_low
            rhs = np.column_stack([f_rho - rho] + ([f_low - low] if lift else []))
            steps = linfeas._lu_solve(np.eye(len(rho)) - coupling.jacobian(cc, rho), rhs)
        if steps is not None:
            tangent = rho + steps[:, 0]  # the tangent plane's fixed point
            if np.min(tangent) >= -linfeas.NEGATIVE_ATOL:
                upper = np.maximum(tangent, 0.0)
            if lift:
                candidate = np.maximum(low + steps[:, 1], low)
                f_candidate = coupling.load_function(cc, candidate)
                if np.all(f_candidate >= candidate):
                    low, f_low = candidate, f_candidate
        width = float(np.max(upper - low)) if upper is not None else math.inf
        trace.append(TraceEntry(iteration=t, residual=residual, interval_width=width))
        if converged or (stop_width is not None and width <= stop_width):
            status = CONVERGED
            break

        if not newton:
            rho = f_rho
            continue
        # damped projected Newton step; plain ascent when the system is
        # unusable (None) or no damping lowers the residual
        next_rho = None
        if steps is not None:
            alpha = 1.0
            for _ in range(30):
                candidate = np.maximum(rho + alpha * steps[:, 0], lower)
                cand_res = float(np.max(np.abs(candidate - coupling.load_function(cc, candidate)), initial=0.0))
                if cand_res < residual:
                    next_rho = candidate
                    break
                alpha *= 0.5
        if next_rho is None:
            fallbacks += 1
        rho = np.maximum(f_rho, lower) if next_rho is None else next_rho
    point = rho if stop_width is None else low
    # the maximum of an upper bound and any vector is an upper bound
    upper = None if upper is None else np.maximum(upper, point)
    return SolveReport(status, point, lower, upper, residual, len(trace) - 1, trace, linear, fallbacks)


def solve(instance, config: Optional[SolverConfig] = None) -> SolveReport:
    """Compute the load coupling fixed point together with certified bounds.

    The exact linear feasibility check runs first; infeasible instances are
    reported without a single nonlinear iteration.  Otherwise the chosen
    method iterates from the asymptotic solution (or ``config.start``) until
    the residual drops below ``tol_residual`` relative to 1 + the largest
    load.
    """
    return solve_coefficients(coupling.coefficients(instance), config)


def solve_with_interval_stop(
    instance, max_interval_width: float, config: Optional[SolverConfig] = None
) -> SolveReport:
    """Like :func:`solve` but stop once the certified interval is narrow enough.

    Iteration ends once ``upper`` is within ``max_interval_width`` of
    ``fixed_point``, a sub-solution (f(rho) >= rho, checked by evaluation),
    or the residual tolerance is met first; the fixed point lies between them.
    """
    return solve_coefficients(coupling.coefficients(instance), config, max_interval_width)


def solve_coefficients(cc: coupling.CouplingCoefficients, config: Optional[SolverConfig] = None,
                       max_interval_width: Optional[float] = None,
                       linear: Optional[linfeas.LinearSolveOutcome] = None) -> SolveReport:
    """:func:`solve` (or, with ``max_interval_width``, the interval stop) on coefficients.

    ``linear`` is the outcome of ``linfeas.feasibility(cc)`` when the caller
    has already taken that verdict; it is taken here otherwise.
    """
    config = config or SolverConfig()
    if linear is None:
        _, linear = linfeas.feasibility(cc)
    if linear.status != linfeas.FEASIBLE:
        return SolveReport(INFEASIBLE, None, None, None, math.nan, 0, linear=linear)
    start = linear.solution if config.start is None else np.maximum(config.start, linear.solution)
    return _iterate(cc, start.copy(), linear, config, max_interval_width)
