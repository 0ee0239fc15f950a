"""Fixed-point computation for the load coupling map, with certified bounds.

Feasibility is settled up front through the exact linear criterion, so the
iterative part only ever runs on instances that do have a fixed point.  The
asymptotic solution provides the starting iterate and a permanent lower
bound.  Newton runs from above: f is concave, so the fixed point of its
tangent plane at any iterate is a super-solution, f(x) <= x, and Newton
steps from a super-solution decrease to the fixed point in a few steps, also
at the feasibility boundary, with no line search.  One LU of I - J(rho) per
iteration gives the step, whose end is the tangent upper bound, and a
certified sub-solution: a bracket that shrinks as it proceeds.  So under
the residual stop the last Newton iterate is itself the upper end, and no
tangent plane is solved there.  The first iteration's tangent bound,
anchored at the start, is the one the bound-quality report reads.

:func:`solve_scales`, the one entry from a demand scale to its report,
takes each scale's verdict and runs the feasible scales through one plain
loop over a stack of rows that share one coefficient layout and differ in
the demand scale.  Each round evaluates the map at every running row with
one kernel call and takes every row's Newton step with one Jacobian call
and one stacked LU; each row keeps its bounds, trace and fallback count in
lists of its own.  A solve is one row at scale 1.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import coupling, linfeas

CONVERGED = "converged"
INFEASIBLE = "infeasible"
MAX_ITER_EXCEEDED = "max_iter_exceeded"
# feasible scales solved in lockstep: bounds a stack of n x n Jacobians
SWEEP_ROWS = 32


@dataclass(frozen=True)
class SolverConfig:
    """Stop rule of :func:`solve`.

    The solve stops once the residual rule holds or, when ``interval_width``
    is set, once the certified interval is at most that wide.  ``max_iter``
    is an integer, not a bool, of at least 1.
    """

    tol_residual: float = 1e-10
    interval_width: Optional[float] = None
    max_iter: int = 10_000

    def __post_init__(self):
        if not self.tol_residual > 0.0:
            raise ValueError("tol_residual must be positive")
        if not (self.interval_width is None or self.interval_width > 0.0):
            raise ValueError("interval_width must be positive")
        if isinstance(self.max_iter, bool) or not hasattr(self.max_iter, "__index__") or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")


@dataclass(frozen=True)
class TraceEntry:
    """State after one iteration: residual and current certified interval width."""

    iteration: int
    residual: float
    interval_width: float


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Everything :func:`solve` knows at termination: the one record of a solve.

    ``fixed_point`` is the final iterate (the fixed point itself once
    ``status == "converged"``; the certified low end under the interval
    stop), ``lower`` the asymptotic solution and ``upper`` the latest tangent
    bound, raised to ``fixed_point``; for feasible instances the three are
    ordered lower <= fixed_point <= upper.  Under the residual stop no
    tangent system is solved at the last iterate once there is a usable
    bound: after a Newton step that iterate is the latest bound, so
    ``upper`` is ``fixed_point``, and after a plain step it is the older
    bound raised to it.  ``residual`` is the final
    iterate's.  ``linear`` is the feasibility check's verdict; its
    read-only ``solution`` is ``lower``.
    ``fallbacks`` counts iterations that took the plain step rho <- f(rho)
    because the tangent system was unusable.
    ``start_upper`` is the first iteration's tangent bound, the fixed point
    of the tangent plane at the start iterate, the asymptotic solution,
    clamped at zero; None when that system is singular or has a
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


def _tangent_bound(rho: np.ndarray, steps: Optional[np.ndarray], idle: np.ndarray) -> Optional[np.ndarray]:
    """The tangent plane's fixed point rho + step, clamped at zero and 0 at the ``idle`` cells; None when unusable.

    Unusable: the system is singular or the point has a component below
    -NEGATIVE_ATOL.  An idle cell's rows of the map and of J are zero, so its
    bound is 0; its step holds only rounding that pivoting leaks from busy rows.
    """
    if steps is None:
        return None
    tangent = rho + steps[:, 0]
    tangent[idle] = 0.0
    return np.maximum(tangent, 0.0) if tangent.min() >= -linfeas.NEGATIVE_ATOL else None


def _rows(arrays) -> np.ndarray:
    """The arrays as the rows of one array; a lone one as a view, cheaper than ``np.stack``'s copy."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _evaluate(cc, a, points) -> list[np.ndarray]:
    """f at each ``(k, x)`` of ``points``, x with the rates per demand ``a[k]``, by one map call."""
    if not points:
        return []
    rows, xs = zip(*points)
    return list(coupling.load_function(cc, _rows(xs), a[list(rows)]))


def _iterate(cc, a, rho, linears, config) -> list[SolveReport]:
    """Newton from each row of ``rho`` on a feasible system, all rows in lockstep: one report per row.

    Row r has rates per demand ``a[r]`` and the feasible verdict
    ``linears[r]``, whose solution it must not start below; the rows read
    ``cc``'s layout, ``rel`` and ``noise``, and differ only in ``a``.  One LU
    of I - J(rho) per iteration: the next iterate is the tangent plane's fixed
    point, ``upper``, or f(rho) where that system is unusable; either stays
    above the asymptotic solution L, as f(rho) >= f(L) >= L.  A row steps at
    its last iterate only under the interval stop, which reads the bound
    there, or while it has no usable bound yet; otherwise the report's
    ``upper`` is the latest bound raised to that iterate.  ``low`` is a
    sub-solution, f(low) >= low: the asymptotic solution, then, checked by
    evaluation, any iterate that is one and, under the interval stop, the
    zero of the minorant through ``low`` with slope J(rho) - I at a
    super-solution rho (J is nonincreasing, so J(rho) <= J on [low, rho*]).

    Each round evaluates the map at every running row in one
    :func:`coupling.load_function`, and takes the steps in one
    :func:`coupling.jacobian` and one stacked LU; the interval stop adds at
    most one map call for f(low) and one for its lift candidates.  A lone
    row takes the one-row GEMVs and ``gesv``, so a solve has the same bits
    as ever.  A stack of rows runs on one BLAS thread, so that its rows'
    bits, which can differ in the last places from a solve alone, do not
    depend on the thread count.
    """
    stop_width, count = config.interval_width, len(rho)
    idle = cc.starts[:-1] == cc.starts[1:]  # cells that serve no demanded pixel
    diagonal = np.arange(cc.num_cells)
    low = [linear.solution for linear in linears]
    f_low: list[Optional[np.ndarray]] = [None] * count
    upper: list[Optional[np.ndarray]] = [None] * count
    start_upper: list[Optional[np.ndarray]] = [None] * count
    traces: list[list[TraceEntry]] = [[] for _ in range(count)]
    fallbacks = [0] * count
    reports: list[Optional[SolveReport]] = [None] * count
    ids = list(range(count))  # ids[k] is the row of running iterate k, in row order
    with linfeas._one_blas_thread if count > 1 else contextlib.nullcontext():
        for t in range(config.max_iter + 1):
            f_rho, u, lg = coupling.load_function(cc, rho, a, terms=True)
            plain_step = f_rho - rho  # the residual, and the Newton step's right-hand side
            residual = np.abs(plain_step).max(axis=1, initial=0.0)
            converged = residual <= config.tol_residual * (1.0 + rho.max(axis=1, initial=0.0))
            sub = (f_rho >= rho).all(axis=1)
            lift = (f_rho <= rho).all(axis=1) if stop_width is not None else [False] * len(ids)
            for k, r in enumerate(ids):
                if sub[k] and (rho[k] >= low[r]).all():
                    low[r], f_low[r] = rho[k], f_rho[k]
            unknown = [k for k, r in enumerate(ids) if lift[k] and f_low[r] is None]
            for k, f in zip(unknown, _evaluate(cc, a, [(k, low[ids[k]]) for k in unknown])):
                f_low[ids[k]] = f
            # the residual stop takes no step at its last iterate once it has a tangent bound: that
            # iterate is the bound, or above the bound it fell back from
            stepping = [k for k, r in enumerate(ids) if stop_width is not None or upper[r] is None
                        or not (converged[k] or t == config.max_iter)]
            usable, candidates = {}, []
            if stepping:
                rows = stepping if len(stepping) < len(ids) else slice(None)  # all: views, not copies
                rhs = [plain_step[rows]]
                # a second right-hand side, the minorant's step from ``low``, for the rows that lift;
                # one stack takes one shape, so the other rows get zeros, whose solution is not read
                if any(lift[k] for k in stepping):
                    rhs.append(np.array([f_low[ids[k]] - low[ids[k]] if lift[k] else np.zeros(cc.num_cells)
                                         for k in stepping]))
                lhs = coupling.jacobian(cc, rho[rows], a[rows], (u[rows], lg[rows]))
                np.negative(lhs, out=lhs)  # I - J(rho) in J's own buffer, bit for bit: J's diagonal is 0.0
                lhs[:, diagonal, diagonal] += 1.0
                steps = linfeas._lu_solve_stack(lhs, _rows(rhs).transpose(1, 2, 0))
                for k, step in zip(stepping, steps):
                    r = ids[k]
                    bound = _tangent_bound(rho[k], step, idle)
                    usable[k] = bound is not None
                    if bound is not None:
                        upper[r] = bound
                        if t == 0:  # anchored at the start: the bound the bound-quality report reads
                            start_upper[r] = bound
                    if step is not None and lift[k]:
                        candidates.append((k, np.where(idle, 0.0, np.maximum(low[r] + step[:, 1], low[r]))))
            for (k, candidate), f_candidate in zip(candidates, _evaluate(cc, a, candidates)):
                if (f_candidate >= candidate).all():
                    low[ids[k]], f_low[ids[k]] = candidate, f_candidate
            keep, after = [], []
            for k, r in enumerate(ids):
                width = float((upper[r] - low[r]).max()) if upper[r] is not None else math.inf
                traces[r].append(TraceEntry(iteration=t, residual=float(residual[k]), interval_width=width))
                done = converged[k] or (stop_width is not None and width <= stop_width)
                if not (done or t == config.max_iter):  # no step past the last reported iterate
                    fallbacks[r] += not usable[k]
                    keep.append(k)
                    after.append(upper[r] if usable[k] else f_rho[k])  # Newton from above, else a plain step
                    continue
                point = rho[k] if stop_width is None else low[r]
                # the maximum of an upper bound and any vector is an upper bound
                last = None if upper[r] is None else np.maximum(upper[r], point)
                reports[r] = SolveReport(CONVERGED if done else MAX_ITER_EXCEEDED, point, linears[r].solution,
                                         last, float(residual[k]), t, traces[r], linears[r], fallbacks[r],
                                         start_upper[r])
            if not keep:
                return reports
            ids, rho = [ids[k] for k in keep], _rows(after)
            a = a if len(keep) == len(a) else a[keep]


def solve(instance, config: Optional[SolverConfig] = None) -> SolveReport:
    """Compute the load coupling fixed point together with certified bounds.

    The exact linear feasibility check runs first; infeasible instances are
    reported without a single nonlinear iteration.  Otherwise Newton
    iterates from the asymptotic solution until the residual drops below
    ``tol_residual`` relative to 1 + the largest load.
    After the first step every iterate is the fixed point of a tangent plane,
    a super-solution, unless that system was unusable and a plain step
    rho <- f(rho) was taken.

    With ``config.interval_width`` set, iteration also ends once ``upper`` is
    within that width of ``fixed_point``, which is then a sub-solution
    (f(rho) >= rho, checked by evaluation) rather than the last iterate; the
    fixed point lies between them.
    """
    return solve_scales(instance, [1.0], config)[0]


def solve_scales(instance, scales, config: Optional[SolverConfig] = None) -> list[SolveReport]:
    """:func:`solve` at every pixel demand scaled by each of ``scales``: one report per scale, in order.

    Every verdict is taken before any solve, so a negative or non-finite
    scale raises ValueError first.  Scale 1 reads the model's verdict, any
    other scale s takes one LU of I - s A; an infeasible scale's report
    holds its verdict and no loads.  The feasible scales are solved up to
    SWEEP_ROWS at a time in grid order, each from its own asymptotic
    solution, sharing each map evaluation, Jacobian and stacked LU, so a
    row's last bits can differ from its solve alone's.  Every row reads the
    model's coefficients at its scale's rates, +inf at scale 0: no load.
    """
    model, config = linfeas.model(instance), config or SolverConfig()
    scales = [float(s) for s in scales]
    verdicts = [model.verdict if s == 1.0 else linfeas.solve_linear(model.system, s) for s in scales]
    reports = {i: SolveReport(INFEASIBLE, None, None, None, math.nan, 0, linear=verdict)
               for i, verdict in enumerate(verdicts) if verdict.status != linfeas.FEASIBLE}
    cc, feasible = model.coefficients, [i for i in range(len(scales)) if i not in reports]
    for group in (feasible[k:k + SWEEP_ROWS] for k in range(0, len(feasible), SWEEP_ROWS)):
        linears = [verdicts[i] for i in group]
        reports.update(zip(group, _iterate(cc, cc.rates([scales[i] for i in group]),
                                           np.stack([linear.solution for linear in linears]), linears, config)))
    return [reports[i] for i in range(len(scales))]
