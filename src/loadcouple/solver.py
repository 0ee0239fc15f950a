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

One iteration loop runs a stack of rows that share one
coefficient layout and differ in the demand scale: each row's logic is
written once, as a generator, and each round serves every row's map
evaluation, and every row's Newton step, with one kernel call.  A solve is
one row; a demand sweep solves its feasible scales together.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

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
    overrides a lone solve's starting iterate (the asymptotic lower bound);
    it is raised to that bound where it lies below.  No caller in the
    package sets it: the tests use it to start Newton from chosen points.
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
    ordered lower <= fixed_point <= upper.  Under the residual stop the last
    iterate's tangent bound is computed the first time ``upper`` is read,
    from the interference terms its map evaluation kept; until then the
    solve has taken one Jacobian per step, and the last trace entry's width
    is that of the bound before.  ``residual`` is the final
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
    _upper: Union[np.ndarray, None, Callable[[], Optional[np.ndarray]]] = field(repr=False)
    residual: float
    iterations: int
    trace: list[TraceEntry] = field(default_factory=list)
    linear: Optional[linfeas.LinearSolveOutcome] = None
    fallbacks: int = 0
    start_upper: Optional[np.ndarray] = None

    @property
    def upper(self) -> Optional[np.ndarray]:
        if callable(self._upper):
            self._upper = self._upper()
        return self._upper


MAP, STEP = "map", "step"


def _tangent_bound(rho: np.ndarray, steps: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """The tangent plane's fixed point rho + step, clamped at zero; None when unusable.

    Unusable: the system is singular or the point has a component below
    -NEGATIVE_ATOL.
    """
    if steps is None:
        return None
    tangent = rho + steps[:, 0]
    return np.maximum(tangent, 0.0) if np.min(tangent) >= -linfeas.NEGATIVE_ATOL else None


def _newton(cc, rho, linear, config):
    """Newton from ``rho`` on a feasible system, one LU of I - J(rho) per iteration, as a generator.

    The next iterate is the tangent plane's fixed point, ``upper``, or f(rho)
    where that system is unusable; either stays above the asymptotic
    solution L, as f(rho) >= f(L) >= L.  ``low`` is a sub-solution,
    f(low) >= low: the asymptotic solution, then, checked by evaluation, any
    iterate that is one and, under the interval stop, the zero of the
    minorant through ``low`` with slope J(rho) - I at a super-solution rho
    (J is nonincreasing, so J(rho) <= J on [low, rho*]).

    The kernels are :func:`_iterate`'s.  The row yields ``(MAP, x)`` and is
    sent f(x) with the u and log1p(1/u) that gave it, and yields
    ``(STEP, x, u, lg, rhs)`` and is sent the solution of (I - J(x)) y = rhs,
    from the u and lg that x's evaluation kept, or None.  It returns its
    :class:`SolveReport`.
    """
    stop_width = config.interval_width
    lower = linear.solution
    low, f_low = lower, None
    upper = start_upper = None
    trace: list[TraceEntry] = []
    fallbacks = 0
    f_rho, u, lg = yield MAP, rho
    for t in range(config.max_iter + 1):
        residual = float(np.max(np.abs(rho - f_rho), initial=0.0))
        converged = residual <= config.tol_residual * (1.0 + float(np.max(rho, initial=0.0)))
        if np.all(f_rho >= rho) and np.all(rho >= low):
            low, f_low = rho, f_rho
        lift = stop_width is not None and bool(np.all(f_rho <= rho))
        if lift and f_low is None:
            f_low, *_ = yield MAP, low
        step = STEP, rho, u, lg, np.column_stack([f_rho - rho] + ([f_low - low] if lift else []))
        # the residual stop needs no step at its last iterate past the start: ``upper``
        # takes it when it is read
        deferred = stop_width is None and t > 0 and (converged or t == config.max_iter)
        if not deferred:
            steps = yield step
            bound = _tangent_bound(rho, steps)
            usable = bound is not None
            if usable:
                upper = bound
                if t == 0:  # anchored at the start: the bound the bound-quality report reads
                    start_upper = upper
            if steps is not None and lift:
                candidate = np.maximum(low + steps[:, 1], low)
                f_candidate, *_ = yield MAP, candidate
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
        f_rho, u, lg = yield MAP, rho
    point = rho if stop_width is None else low
    if deferred:
        upper = functools.partial(_last_upper, cc, rho, step, upper, point)
    else:  # the maximum of an upper bound and any vector is an upper bound
        upper = None if upper is None else np.maximum(upper, point)
    return SolveReport(status, point, lower, upper, residual, len(trace) - 1, trace, linear, fallbacks,
                       start_upper)


def _rows(arrays: list[np.ndarray]) -> np.ndarray:
    """The arrays as the rows of one array; a lone one as a view, cheaper than ``np.stack``'s copy."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _last_upper(cc, rho, step, upper, point) -> Optional[np.ndarray]:
    """The tangent bound at the last iterate ``rho`` by its ``step`` request, else ``upper``; at least ``point``."""
    (steps,) = _serve(cc, cc.a[None], [step])
    bound = _tangent_bound(rho, steps)
    upper = upper if bound is None else bound
    return None if upper is None else np.maximum(upper, point)


def _iterate(rows, config) -> list[SolveReport]:
    """:func:`_newton` on each ``(cc, start, linear)`` row, all rows in lockstep.

    The rows' coefficients share one layout and differ only in ``a``.  Each
    round serves every row's request at once: the maps in one
    :func:`coupling.load_function`, and the steps with the same number of
    right-hand sides in one :func:`coupling.jacobian` and one stacked LU.  A
    lone row takes the one-row GEMVs and ``gesv``, so a solve has the same
    bits as ever.  A stack of rows runs on one BLAS thread, so that its
    rows' bits, which can differ in the last places from a solve alone, do
    not depend on the thread count.
    """
    cc = rows[0][0]
    a = _rows([row_cc.a for row_cc, _, _ in rows])
    runs = [_newton(row_cc, start, linear, config) for row_cc, start, linear in rows]
    reports: list[Optional[SolveReport]] = [None] * len(runs)
    with linfeas._one_blas_thread if len(runs) > 1 else contextlib.nullcontext():
        pending = {r: next(run) for r, run in enumerate(runs)}
        while pending:
            batches: dict[tuple, list[int]] = {}  # the maps, and the steps by their right-hand sides' shape
            for r, request in pending.items():
                batches.setdefault((request[0], request[-1].shape), []).append(r)
            served = {}
            for batch in batches.values():
                replies = _serve(cc, a if len(batch) == len(a) else a[batch], [pending[r] for r in batch])
                for r, reply in zip(batch, replies):
                    try:
                        served[r] = runs[r].send(reply)
                    except StopIteration as stop:
                        reports[r] = stop.value
            pending = dict(sorted(served.items()))  # in row order, so a batch of every row is all of ``a``
    return reports


def _serve(cc, a, requests):
    """The reply to each request, all of one kind and shape, from one kernel call on rates ``a``.

    A step's reply is None where I - J is singular or the solution not finite.
    """
    args = [_rows(column) for column in zip(*[request[1:] for request in requests])]
    if requests[0][0] is MAP:
        return zip(*coupling.load_function(cc, *args, a, terms=True))
    rho, u, lg, rhs = args
    return linfeas._lu_solve_stack(np.eye(cc.num_cells) - coupling.jacobian(cc, rho, a, (u, lg)), rhs)


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
    return _iterate([(cc, start.copy(), linear)], config)[0]


def solve_rows(rows, config: Optional[SolverConfig] = None) -> list[SolveReport]:
    """:func:`solve_coefficients` on each ``(coefficients, linear)`` row, all rows in lockstep.

    Each ``linear`` is the row's feasible verdict, and each row starts from
    its asymptotic solution, so a ``config.start`` raises ValueError.  The
    rows' coefficients share one layout and differ only in ``a``, as
    ``cc.scaled(s)`` for every s > 0 do.  A row's last bits can differ from
    its solve alone, as its products are shared with the other rows.
    """
    config = config or SolverConfig()
    if config.start is not None:
        raise ValueError("solve_rows starts every row from its asymptotic solution; start must be None")
    return _iterate([(cc, linear.solution.copy(), linear) for cc, linear in rows], config) if rows else []
