"""Feasibility and load bounds through the linear companions of the coupling map.

The asymptotic linearization is an exact feasibility instrument: the
nonlinear load coupling system has a fixed point if and only if the
asymptotic affine system ``rho = slope @ rho + offset`` has a nonnegative
solution, and that solution sits below the nonlinear fixed point.  The
tangent linearization at any anchor yields, when solvable, a vector above
the nonlinear fixed point.  Both reduce to one dense linear solve; only the
feasibility verdict also reports the slope's spectral radius.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from . import coupling

FEASIBLE = "feasible"
INFEASIBLE_NEGATIVE = "infeasible_negative"
SINGULAR = "singular"

# pivot threshold (relative to matrix scale) below which I - slope counts as singular
PIVOT_RTOL = 1e-12
# components of a solution this far below zero are rounding leakage, not infeasibility
NEGATIVE_ATOL = 1e-12


@dataclass(frozen=True, eq=False)
class LinearSolveOutcome:
    """Result of solving an affine load system ``rho = slope @ (rho - anchor) + offset``.

    ``solution`` is present exactly when ``status == "feasible"``.
    ``spectral_radius`` is the power-iteration estimate for the slope matrix;
    values below one characterize solvable systems.  ``reducible`` flags
    slope matrices with zero off-diagonal entries, where some cell pair
    shares no interference path and the spectral characterization weakens
    from strictly positive to nonnegative coupling.
    """

    status: str
    solution: Optional[np.ndarray]
    spectral_radius: float
    reducible: bool = False


def spectral_radius(matrix: np.ndarray, tol: float = 1e-10, max_iter: int = 10_000) -> float:
    """Largest eigenvalue magnitude of a nonnegative matrix by power iteration.

    The iteration runs on matrix + I, which keeps zero-diagonal coupling
    patterns (where plain power iteration can oscillate between two rays)
    aperiodic; the shift is subtracted at the end.  For a positive test
    vector the componentwise ratios (A x)_i / x_i bracket the radius of a
    nonnegative A from both sides; the bracket width is a rigorous error
    bound and closing it is the stop rule.  On reducible matrices the lower
    ratio can stall below the radius (it only reaches it for irreducible
    ones), so the returned value is the best certified upper ratio, which
    still converges onto the radius.
    """
    n = matrix.shape[0]
    if n == 0:
        return 0.0
    shifted = matrix + np.eye(n)
    x = np.full(n, 1.0 / n)
    hi_best = math.inf
    for _ in range(max_iter):
        y = shifted @ x
        ratios = y / x
        lo, hi = float(np.min(ratios)), float(np.max(ratios))
        hi_best = min(hi_best, hi)
        if hi_best - lo <= tol * max(1.0, lo):
            break
        # the floor keeps the vector strictly positive when decoupled
        # components decay below the smallest normal float
        x = np.maximum(y / np.max(y), 1e-300)
    return hi_best - 1.0


def _lu_solve(lhs: np.ndarray, rhs: np.ndarray) -> Optional[np.ndarray]:
    """Solve ``lhs @ x = rhs`` by LU; None when a pivot is below PIVOT_RTOL of the matrix scale."""
    with warnings.catch_warnings():
        # exactly singular systems are a legitimate outcome here, not a warning
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(lhs, check_finite=False)
    if np.min(np.abs(np.diag(lu))) < PIVOT_RTOL * np.max(np.abs(lhs)):
        return None
    return scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)


def _affine_fixed_point(system: coupling.LinearizedSystem) -> tuple[str, Optional[np.ndarray]]:
    """Status and, when feasible, the nonnegative solution of the affine system."""
    slope = system.slope
    solution = _lu_solve(np.eye(slope.shape[0]) - slope, system.offset - slope @ system.anchor)
    if solution is None:
        return SINGULAR, None
    if np.min(solution) < -NEGATIVE_ATOL:
        return INFEASIBLE_NEGATIVE, None
    return FEASIBLE, np.maximum(solution, 0.0)


def solve_linear(system: coupling.LinearizedSystem) -> LinearSolveOutcome:
    """Solve ``rho = slope @ (rho - anchor) + offset`` for a nonnegative load vector.

    The system is solved densely as (I - slope) rho = offset - slope @ anchor.
    A pivot smaller than PIVOT_RTOL of the matrix scale reports ``singular``;
    any solution component below -NEGATIVE_ATOL reports
    ``infeasible_negative``; components within rounding of zero are clamped.
    The outcome also carries the slope's spectral radius.
    """
    slope = system.slope
    n = slope.shape[0]
    offdiag = slope[~np.eye(n, dtype=bool)]
    reducible = bool(n > 1 and np.any(offdiag == 0.0))
    status, solution = _affine_fixed_point(system)
    return LinearSolveOutcome(status, solution, spectral_radius(slope), reducible)


def feasibility_check(instance) -> tuple[bool, LinearSolveOutcome]:
    """Exact feasibility of the nonlinear load coupling system.

    Solvability of the asymptotic linear system is necessary and sufficient,
    so the verdict needs no nonlinear iteration.  Singular systems sit on
    the boundary and count as infeasible.
    """
    cc = coupling.coefficients(instance)
    outcome = solve_linear(coupling.asymptotic_linearization(cc))
    return outcome.status == FEASIBLE, outcome


def lower_bound(instance) -> np.ndarray:
    """Solution of the asymptotic system: a componentwise lower bound on the fixed point."""
    feasible, outcome = feasibility_check(instance)
    if not feasible:
        raise ValueError(f"no lower bound: instance is {outcome.status}")
    return outcome.solution


def tangent_bound(cc: coupling.CouplingCoefficients, anchor) -> Optional[np.ndarray]:
    """Fixed point of the tangent plane at ``anchor``, above the nonlinear fixed point.

    Returns None when the tangent system is not solvable, which happens for
    anchors whose tangent slope already has spectral radius at or above one.
    No spectral radius is computed: the bound is all the caller receives.
    """
    return _affine_fixed_point(coupling.tangent_linearization(cc, anchor))[1]


def upper_bound(instance, anchor) -> Optional[np.ndarray]:
    """:func:`tangent_bound` for an instance."""
    return tangent_bound(coupling.coefficients(instance), anchor)
