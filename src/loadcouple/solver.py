"""Fixed-point computation for the load coupling map, with certified bounds.

Feasibility is settled up front through the exact linear criterion, so the
iterative part only ever runs on instances that do have a fixed point.  The
asymptotic solution provides the starting iterate and a permanent lower
bound; every few iterations the tangent plane at the current iterate is
solved to refresh an upper bound, giving a shrinking interval around the
fixed point as the iteration proceeds.
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
    point.  ``bound_refresh_every`` controls how often the tangent upper
    bound is recomputed.
    """

    method: str = FIXED_POINT
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
    ``status == "converged"``), ``lower`` the asymptotic solution and
    ``upper`` the latest tangent bound; for feasible instances the three are
    ordered lower <= fixed_point <= upper.  ``linear`` carries the
    feasibility check's diagnostics, including the spectral radius.
    """

    status: str
    fixed_point: Optional[np.ndarray]
    lower: Optional[np.ndarray]
    upper: Optional[np.ndarray]
    residual: float
    iterations: int
    trace: list[TraceEntry] = field(default_factory=list)
    linear: Optional[linfeas.LinearSolveOutcome] = None


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


def _iterate(cc, rho, lower, config, stop_width):
    """Shared driver for both methods; returns a partially filled report."""
    upper = None
    trace: list[TraceEntry] = []
    status = MAX_ITER_EXCEEDED
    residual = math.inf
    iterations = 0
    for t in range(config.max_iter + 1):
        f_rho = coupling.load_function(cc, rho)
        residual = float(np.max(np.abs(rho - f_rho), initial=0.0))
        converged = residual <= config.tol_residual * (1.0 + float(np.max(rho, initial=0.0)))
        if converged or t % config.bound_refresh_every == 0:
            refreshed = linfeas.tangent_bound(cc, rho)
            if refreshed is not None:
                upper = refreshed
        width = float(np.max(np.abs(upper - rho))) if upper is not None else math.inf
        trace.append(TraceEntry(iteration=t, residual=residual, interval_width=width))
        iterations = t
        if converged:
            status = CONVERGED
            break
        if stop_width is not None and upper is not None and width <= stop_width:
            status = CONVERGED
            break

        if config.method == FIXED_POINT:
            rho = f_rho
            continue
        # damped projected Newton step, (I - jacobian) delta = f(rho) - rho;
        # fall back to plain ascent when that system is unusable (None) or
        # no damping helps
        delta = linfeas._lu_solve(np.eye(len(rho)) - coupling.jacobian(cc, rho), f_rho - rho)
        next_rho = None
        if delta is not None:
            alpha = 1.0
            for _ in range(30):
                candidate = np.maximum(rho + alpha * delta, lower)
                cand_res = float(np.max(np.abs(candidate - coupling.load_function(cc, candidate)), initial=0.0))
                if cand_res < residual:
                    next_rho = candidate
                    break
                alpha *= 0.5
        rho = np.maximum(f_rho, lower) if next_rho is None else next_rho
    return status, rho, residual, iterations, upper, trace


def solve(instance, config: Optional[SolverConfig] = None) -> SolveReport:
    """Compute the load coupling fixed point together with certified bounds.

    The exact linear feasibility check runs first; infeasible instances are
    reported without a single nonlinear iteration.  Otherwise the chosen
    method iterates from the asymptotic solution (or ``config.start``) until
    the residual drops below ``tol_residual`` relative to 1 + the largest
    load.
    """
    return _solve(instance, config or SolverConfig(), stop_width=None)


def solve_with_interval_stop(
    instance, max_interval_width: float, config: Optional[SolverConfig] = None
) -> SolveReport:
    """Like :func:`solve` but stop once the certified interval is narrow enough.

    Iteration ends as soon as the tangent upper bound is within
    ``max_interval_width`` of the current iterate (or the residual tolerance
    is met first).  The fixed point then lies between ``fixed_point`` (the
    final, lower iterate) and ``upper``.
    """
    return _solve(instance, config or SolverConfig(), stop_width=max_interval_width)


def _solve(instance, config: SolverConfig, stop_width: Optional[float]) -> SolveReport:
    feasible, outcome = linfeas.feasibility_check(instance)
    if not feasible:
        return SolveReport(
            status=INFEASIBLE,
            fixed_point=None,
            lower=None,
            upper=None,
            residual=math.nan,
            iterations=0,
            linear=outcome,
        )
    cc = coupling.coefficients(instance)
    lower = outcome.solution
    start = lower if config.start is None else np.asarray(config.start, dtype=np.float64)
    status, rho, residual, iterations, upper, trace = _iterate(
        cc, start.copy(), lower, config, stop_width
    )
    return SolveReport(
        status=status,
        fixed_point=rho,
        lower=lower,
        upper=upper,
        residual=residual,
        iterations=iterations,
        trace=trace,
        linear=outcome,
    )
