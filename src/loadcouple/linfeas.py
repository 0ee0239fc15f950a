"""Feasibility and the lower load bound through the asymptotic linearization.

The asymptotic linearization is an exact feasibility instrument: the
nonlinear load coupling system has a fixed point if and only if the
asymptotic affine system ``rho = slope @ rho + offset`` has a nonnegative
solution, and that solution sits below the nonlinear fixed point.  The
verdict at demand scale s, :func:`solve_linear`, is one dense linear solve
of s times the unit-scale system, and holds only its status and solution.

An instance's questions read one :class:`Model`, from :func:`model`: its
coefficients, asymptotic system, unit-scale verdict, spectral radius and
reducibility, each built once for as long as the instance lives.  The
model is the one place an instance's radius is computed: for a
nonnegative irreducible slope (every generated one) from a few LU steps of
Noda's inverse iteration, whose Collatz-Wielandt bracket certifies it, and
for any other matrix from one dense eigenvalue solve.
"""

from __future__ import annotations

import ctypes
import functools
import math
import threading
import weakref
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Optional

import numpy as np

from . import coupling
from .netmodel import _check_scale

FEASIBLE = "feasible"
INFEASIBLE_NEGATIVE = "infeasible_negative"
SINGULAR = "singular"

# components of a solution this far below zero are rounding leakage, not infeasibility
NEGATIVE_ATOL = 1e-12
# the Perron iteration stops once its Collatz-Wielandt bracket is this wide
# relative to the radius, 8 rounding units: 5-7 steps on generated slopes of 9-243 cells
PERRON_RTOL = 8 * np.finfo(float).eps
PERRON_MAX_STEPS = 30


@dataclass(frozen=True, eq=False)
class LinearSolveOutcome:
    """Result of solving an affine load system ``rho = slope @ rho + offset``.

    ``solution`` is present exactly when ``status == "feasible"``.
    """

    status: str
    solution: Optional[np.ndarray]


def _reach(slope: np.ndarray) -> np.ndarray:
    """``reach[i, k]``: some chain of positive slope entries links cell k to cell i, or k == i."""
    reach = (slope > 0) | np.eye(len(slope), dtype=bool)
    if reach.all():  # every off-diagonal entry positive, the common case
        return reach
    # after t squarings, reach holds the paths of at most 2**t edges
    for _ in range(math.ceil(math.log2(len(reach)))):
        reach = (reach.astype(np.float64) @ reach) > 0
    return reach


def spectral_radius(matrix: np.ndarray) -> float:
    """Largest eigenvalue magnitude of ``matrix``.

    A finite nonnegative irreducible matrix of two or more rows takes
    :func:`_perron_root`; any other matrix, or one whose iteration fails,
    takes one dense eigenvalue solve.  That solve raises
    ``numpy.linalg.LinAlgError`` (a ValueError) when it does not converge or
    the matrix is not finite, so no value is unconverged.
    """
    radius = _perron_root(np.asarray(matrix))
    if radius is None:
        radius = float(np.max(np.abs(np.linalg.eigvals(matrix)), initial=0.0))
    return radius


def _perron_root(a: np.ndarray) -> Optional[float]:
    """Perron root of a finite nonnegative irreducible ``a`` by Noda's inverse iteration, else None.

    For any x > 0, min(Ax/x) <= rho(A) <= max(Ax/x) (Collatz-Wielandt;
    Horn and Johnson, Matrix Analysis, section 8.1).  From x = 1, each step
    solves (hi I - A) z = x with hi the least max(Ax/x) so far, and takes
    x = z / max(z); hi falls to rho(A) quadratically (Noda 1971).  The root
    is hi once the bracket is at most PERRON_RTOL times hi wide.
    None, for the dense solve to decide, when ``a`` is not such a matrix,
    a step meets a singular system or a z that is not positive, or the
    bracket does not close within PERRON_MAX_STEPS steps.
    """
    if not (a.ndim == 2 and a.shape[0] == a.shape[1] > 1
            and np.all(a >= 0) and np.all(np.isfinite(a)) and _reach(a).all()):
        return None
    x, hi, eye = np.ones(len(a)), math.inf, np.eye(len(a))
    for _ in range(PERRON_MAX_STEPS):
        ratios = (a @ x) / x
        top = float(ratios.max())
        hi = min(hi, top)
        if top - ratios.min() <= PERRON_RTOL * hi:
            return hi
        z = _lu_solve(hi * eye - a, x)
        if z is None or not np.all(z > 0):
            return None
        x = z / z.max()
    return None


def _lu_solve(lhs: np.ndarray, rhs: np.ndarray) -> Optional[np.ndarray]:
    """Solve ``lhs @ x = rhs`` by one LAPACK ``gesv``; None on an exact zero pivot or a non-finite x.

    All columns of ``rhs`` share the one LU.  It is :func:`_lu_solve_stack`
    on a stack of one system, where a vector ``rhs`` takes a trailing axis:
    numpy reads a stack's right-hand sides as matrices.
    """
    vector = rhs.ndim == 1
    (x,) = _lu_solve_stack(lhs[None], (rhs[:, None] if vector else rhs)[None])
    return x[:, 0] if vector and x is not None else x


def _lu_solve_stack(lhs: np.ndarray, rhs: np.ndarray) -> list[Optional[np.ndarray]]:
    """Solve each system ``lhs[k] @ x = rhs[k]`` of a stack by one stacked ``gesv``; None where unusable.

    Unusable: an exact zero pivot or a non-finite x.  numpy raises
    ``LinAlgError`` for the whole stack when any system meets an exact zero
    pivot; the systems are then solved one at a time.  A NaN ``lhs`` gives a
    NaN x.  No pivot threshold applies: a relative one depends on the row
    order.  Each system's LU is its own, so its bits do not depend on the
    others.
    """
    try:
        x = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:
        if len(lhs) == 1:
            return [None]
        return [_lu_solve_stack(one_lhs[None], one_rhs[None])[0] for one_lhs, one_rhs in zip(lhs, rhs)]
    return [one if np.isfinite(one).all() else None for one in x]


@functools.cache
def _openblas_thread_calls():
    """The thread-count getter and setter of numpy's bundled OpenBLAS, or None where there is none."""
    for path in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))  # already loaded by numpy: the same handle
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


class _OneBlasThread:
    """Context manager: OpenBLAS runs on one thread while any block is inside, then gets its count back.

    A product stacked over many rows is split among OpenBLAS threads in a
    way that moves its last bits, so kernels that stack rows run pinned and
    their answers do not depend on the thread count.  The count is
    process-wide, so nested and concurrent blocks share one pin, and the
    last to leave restores the count the first found.  Where numpy's
    OpenBLAS has no setter, blocks run unpinned.

    The pin covers only the blocks.  A BLAS call that another thread makes
    outside one while a block runs (a lone solve, a verdict LU, a Perron
    ``eigvals``) gets one thread or the full count depending on timing, so
    at sizes where OpenBLAS splits its work, that call's last bits can
    depend on scheduling.  OpenBLAS also does not promise that changing the
    count is safe while another thread is inside a BLAS call.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = None

    def __enter__(self):
        with self._lock:
            calls = _openblas_thread_calls()
            if self._depth == 0 and calls is not None:
                self._saved = calls[0]()
                calls[1](1)
            self._depth += 1

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and self._saved is not None:
                _openblas_thread_calls()[1](self._saved)
                self._saved = None
        return False


_one_blas_thread = _OneBlasThread()


def solve_linear(system: coupling.LinearizedSystem, scale: float = 1.0) -> LinearSolveOutcome:
    """Exact feasibility of the load coupling system at demand scale ``scale``, and its lower load bound.

    ``system`` is the asymptotic linearization at unit scale.  Its slope and
    offset are linear in the demand, so the system at scale s is s times
    both.  Solvability of that asymptotic system for a nonnegative load
    vector is necessary and sufficient, so the verdict needs no nonlinear
    iteration and no spectral radius.  A negative or non-finite scale
    raises ValueError.

    The system is solved densely as (I - s slope) rho = s offset,
    with one LAPACK ``gesv``, in Frobenius block order: cells by descending
    count of the cells that reach them, so each strongly connected block
    comes before the blocks it depends on and partial pivoting stays inside
    a block; a strictly triangular slope is then a back substitution of
    nonnegative terms in any cell order.  ``singular`` means an exact zero
    LU pivot (numpy's ``LinAlgError``) or a non-finite solution, as from a
    NaN slope or offset or a pivot so small that the solve overflows;
    singular systems sit on the boundary and count as infeasible.  Any
    solution component below -NEGATIVE_ATOL reports ``infeasible_negative``;
    components within rounding of zero are clamped.
    """
    _check_scale(scale)
    slope = scale * system.slope  # scaled before its reach, so an entry that underflows links nothing
    lhs, rhs = np.eye(slope.shape[0]) - slope, scale * system.offset
    order = np.argsort(-_reach(slope).sum(axis=1), kind="stable")
    solution = _lu_solve(lhs.take(order, axis=0).take(order, axis=1), rhs[order])
    if solution is None:
        return LinearSolveOutcome(SINGULAR, None)
    solution = solution[np.argsort(order)]
    if np.min(solution) < -NEGATIVE_ATOL:
        return LinearSolveOutcome(INFEASIBLE_NEGATIVE, None)
    solution = np.maximum(solution, 0.0)
    solution.setflags(write=False)
    return LinearSolveOutcome(FEASIBLE, solution)


def feasibility_check(instance) -> tuple[bool, LinearSolveOutcome]:
    """Whether the instance is feasible at its own demand, and its model's verdict."""
    verdict = model(instance).verdict
    return verdict.status == FEASIBLE, verdict


@dataclass(frozen=True, eq=False)
class Model:
    """One instance's coupling coefficients and asymptotic system, with what they give once.

    ``verdict`` is :func:`solve_linear` at scale 1, ``spectral_radius``
    rho(A) of the slope, below one exactly for solvable systems, and
    ``reducible`` whether the slope's directed graph (an edge k -> i where
    slope[i, k] > 0) is not strongly connected: some cell's load does not
    reach another's through any chain of interference, and the spectral
    characterization weakens from irreducible to merely nonnegative
    coupling.  Each is computed the first time it is read.  Every array is
    read-only, so no caller can change a later answer.
    """

    coefficients: coupling.CouplingCoefficients
    system: coupling.LinearizedSystem

    @cached_property
    def verdict(self) -> LinearSolveOutcome:
        return solve_linear(self.system)

    @cached_property
    def spectral_radius(self) -> float:
        return spectral_radius(self.system.slope)

    @cached_property
    def reducible(self) -> bool:
        return not _reach(self.system.slope).all()


# each instance's model, dropped with the instance; instances compare by identity
_MODELS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_MODELS_LOCK = threading.Lock()


def model(instance) -> Model:
    """The instance's :class:`Model`, built by the first call and returned by every later one.

    It lives as long as the instance.  Built outside the lock, so two
    threads may both build one; the first stored is the one every caller
    gets.  Raises what :func:`coupling.coefficients` raises.
    """
    with _MODELS_LOCK:
        found = _MODELS.get(instance)
    if found is None:
        cc = coupling.coefficients(instance)
        built = Model(cc, coupling.asymptotic_linearization(cc))
        with _MODELS_LOCK:
            found = _MODELS.setdefault(instance, built)
    return found

