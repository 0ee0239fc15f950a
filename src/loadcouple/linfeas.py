"""Feasibility and load bounds through the linear companions of the coupling map.

The asymptotic linearization is an exact feasibility instrument: the
nonlinear load coupling system has a fixed point if and only if the
asymptotic affine system ``rho = slope @ rho + offset`` has a nonnegative
solution, and that solution sits below the nonlinear fixed point.  The
tangent linearization at any anchor yields, when solvable, a vector above
the nonlinear fixed point.  Both reduce to one dense linear solve.  The
feasibility outcome also reports the slope's spectral radius, from one dense
eigenvalue solve, and only when a caller reads it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.linalg

from . import coupling

FEASIBLE = "feasible"
INFEASIBLE_NEGATIVE = "infeasible_negative"
SINGULAR = "singular"

# components of a solution this far below zero are rounding leakage, not infeasibility
NEGATIVE_ATOL = 1e-12


@dataclass(frozen=True, eq=False)
class LinearSolveOutcome:
    """Result of solving an affine load system ``rho = slope @ (rho - anchor) + offset``.

    ``solution`` is present exactly when ``status == "feasible"``.
    ``spectral_radius`` is the slope's spectral radius, computed the first
    time it is read; values below one characterize solvable systems.
    ``reducible`` flags slope matrices with zero off-diagonal entries, where
    some cell pair shares no interference path and the spectral
    characterization weakens from strictly positive to nonnegative coupling.
    """

    status: str
    solution: Optional[np.ndarray]
    slope: np.ndarray

    @cached_property
    def spectral_radius(self) -> float:
        return spectral_radius(self.slope)

    @cached_property
    def reducible(self) -> bool:
        n = self.slope.shape[0]
        return bool(n > 1 and np.any(self.slope[~np.eye(n, dtype=bool)] == 0.0))


def spectral_radius(matrix: np.ndarray) -> float:
    """Largest eigenvalue magnitude of ``matrix``, from one dense eigenvalue solve.

    Raises ``numpy.linalg.LinAlgError`` (a ValueError) when the solve does
    not converge or the matrix is not finite, so no value is unconverged.
    """
    return float(np.max(np.abs(np.linalg.eigvals(matrix)), initial=0.0))


def _lu_solve(lhs: np.ndarray, rhs: np.ndarray) -> Optional[np.ndarray]:
    """Solve ``lhs @ x = rhs`` (columns of ``rhs`` share one LU); None when x is not finite.

    An exact zero pivot always gives an infinite or NaN x, and so does a NaN
    or infinite ``lhs``.  No pivot threshold applies: a relative one depends
    on the row order.
    """
    with warnings.catch_warnings():
        # exactly singular systems are a legitimate outcome here, not a warning
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(lhs, check_finite=False)
    # a vector at a time: a multi-column solve wakes OpenBLAS threads (8 ms vs 17 us on 2 cores)
    columns = [scipy.linalg.lu_solve((lu, piv), col, check_finite=False) for col in np.atleast_2d(rhs.T)]
    x = columns[0] if rhs.ndim == 1 else np.column_stack(columns)
    return x if np.all(np.isfinite(x)) else None


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
    A non-finite solution reports ``singular``; an exact zero LU pivot, a
    NaN or infinite slope or offset, or a pivot so small that the solve
    overflows all give one.  Any solution component below -NEGATIVE_ATOL reports
    ``infeasible_negative``; components within rounding of zero are clamped.
    """
    return LinearSolveOutcome(*_affine_fixed_point(system), system.slope)


def feasibility(system: coupling.LinearizedSystem, scale: float = 1.0) -> tuple[bool, LinearSolveOutcome]:
    """Exact feasibility of the nonlinear load coupling system at demand scale ``scale``.

    ``system`` is the asymptotic linearization of the coefficients at unit
    scale.  Its slope and offset are linear in the demand, so the system at
    scale s is s times both.  Solvability of the asymptotic linear system is
    necessary and sufficient, so the verdict needs no nonlinear iteration
    and no spectral radius.  Singular systems sit on the boundary and count
    as infeasible.
    """
    coupling._check_scale(scale)
    outcome = solve_linear(replace(system, slope=scale * system.slope, offset=scale * system.offset))
    return outcome.status == FEASIBLE, outcome


def feasibility_check(instance) -> tuple[bool, LinearSolveOutcome]:
    """:func:`feasibility` for an instance."""
    return feasibility(coupling.asymptotic_linearization(coupling.coefficients(instance)))


def tangent_bound(cc: coupling.CouplingCoefficients, anchor) -> Optional[np.ndarray]:
    """Fixed point of the tangent plane at ``anchor``, above the nonlinear fixed point.

    Returns None when the tangent system is not solvable, which happens for
    anchors whose tangent slope already has spectral radius at or above one.
    No spectral radius is computed: the bound is all the caller receives.
    """
    return _affine_fixed_point(coupling.tangent_linearization(cc, anchor))[1]
