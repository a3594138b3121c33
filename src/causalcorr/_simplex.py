"""Phase-1 simplex feasibility solver (dense tableau, Bland's rule).

Decides whether ``A x = b`` has a solution with ``x >= 0`` by minimizing the
sum of artificial variables.  Bland's smallest-index rules make the pivot
sequence deterministic.  One tableau serves two arithmetics: float64, pivoted
by the vectorized :func:`_phase1_numpy` with a small pivot tolerance, and
exact ``Fraction`` entries (for small instances), pivoted row by row by
:func:`_phase1_loops` with tolerance 0.  Both kernels follow the same rules
and both skip the rows whose factor in the entering column is zero, so on
the same float tableau they produce identical tableaus.  A solve that
hits the pivot limit or finds the phase-1 objective unbounded raises
:class:`SolverError` instead of reading a solution from an unfinished tableau.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import SolverError

_PIVOT_TOL = 1e-12
STATUS_OPTIMAL = 0
STATUS_UNBOUNDED = 1
STATUS_ITER_LIMIT = 2


def _phase1_loops(T, basis, tol_piv, max_iter):
    """Pivot loop with one update per row; runs the exact ``Fraction`` tableau."""
    m = basis.shape[0]
    ncols = T.shape[1] - 1
    it = 0
    while it < max_iter:
        it += 1
        enter = -1
        for j in range(ncols):
            if T[m, j] < -tol_piv:
                enter = j
                break
        if enter < 0:
            return STATUS_OPTIMAL, it
        leave = -1
        best = 0.0
        for i in range(m):
            a = T[i, enter]
            if a > tol_piv:
                r = T[i, ncols] / a
                if leave < 0 or r < best or (r == best and basis[i] < basis[leave]):
                    leave = i
                    best = r
        if leave < 0:
            return STATUS_UNBOUNDED, it
        piv = T[leave, enter]
        T[leave, :] /= piv
        for i in range(m + 1):
            f = T[i, enter]
            if i != leave and f != 0:
                T[i, :] -= f * T[leave, :]
        basis[leave] = enter
    return STATUS_ITER_LIMIT, it


def _phase1_numpy(T, basis, tol_piv, max_iter):
    """Same pivot rules as :func:`_phase1_loops`, with vectorized row operations."""
    m = basis.shape[0]
    ncols = T.shape[1] - 1
    it = 0
    while it < max_iter:
        it += 1
        negative = np.nonzero(T[m, :ncols] < -tol_piv)[0]
        if negative.size == 0:
            return STATUS_OPTIMAL, it
        enter = int(negative[0])
        col = T[:m, enter]
        rows = np.nonzero(col > tol_piv)[0]
        if rows.size == 0:
            return STATUS_UNBOUNDED, it
        ratios = T[rows, ncols] / col[rows]
        best = ratios.min()
        tied = rows[ratios == best]
        leave = int(tied[np.argmin(basis[tied])])
        piv = T[leave, enter]
        T[leave, :] /= piv
        factors = T[:, enter].copy()
        factors[leave] = 0.0
        rows = np.flatnonzero(factors)
        T[rows] -= factors[rows, None] * T[leave]
        basis[leave] = enter
    return STATUS_ITER_LIMIT, it


def _tableau(A, b, exact):
    """Initial phase-1 tableau and basis for ``A x = b``.

    Rows with ``b < 0`` are negated, one artificial column per row starts in
    the basis, and the last row holds the artificial-sum objective.  Entries
    are float64, or ``Fraction`` objects when ``exact`` (floats taken at their
    exact binary values).
    """
    if exact:
        to_fraction = np.vectorize(Fraction, otypes=[object])
        A = to_fraction(np.asarray(A, dtype=object))
        b = to_fraction(np.asarray(b, dtype=object))
        zero, one = Fraction(0), Fraction(1)
    else:
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        zero, one = 0.0, 1.0
    m, n = A.shape
    flip = b < 0
    A = np.where(flip[:, None], -A, A)
    b = np.where(flip, -b, b)
    T = np.full((m + 1, n + m + 1), zero, dtype=A.dtype)
    T[:m, :n] = A
    T[np.arange(m), n + np.arange(m)] = one
    T[:m, -1] = b
    T[m, :n] = -A.sum(axis=0)
    T[m, -1] = -b.sum()
    return T, np.arange(n, n + m, dtype=np.int64)


@dataclass
class Phase1Result:
    """Outcome of a phase-1 solve.

    ``x`` is a float array, or an object array of ``Fraction`` for the exact
    solver; ``infeasibility`` is the optimal artificial-variable sum (the L1
    residual of the best ``x``), a float or a ``Fraction`` likewise.
    """

    feasible: bool
    x: np.ndarray
    infeasibility: float | Fraction
    iterations: int


def _solve(A, b, exact, tol, max_iter):
    T, basis = _tableau(A, b, exact)
    m = basis.shape[0]
    n = T.shape[1] - m - 1
    if max_iter is None:
        max_iter = 200 * (m + n)
    if exact:
        status, iters = _phase1_loops(T, basis, 0, max_iter)
    else:
        status, iters = _phase1_numpy(T, basis, _PIVOT_TOL, max_iter)
    if status == STATUS_ITER_LIMIT:
        raise SolverError(f"simplex did not terminate within {max_iter} pivots")
    if status != STATUS_OPTIMAL:
        raise SolverError("phase-1 objective unbounded; the tableau lost consistency")
    zero = Fraction(0) if exact else 0.0
    infeas = max(zero, -T[m, -1])
    if not exact:
        infeas = float(infeas)
    x = np.full(n, zero, dtype=T.dtype)
    in_x = basis < n
    x[basis[in_x]] = T[:m, -1][in_x]
    return Phase1Result(feasible=infeas <= tol, x=x, infeasibility=infeas, iterations=iters)


def solve_phase1(
    A: np.ndarray, b: np.ndarray, tol: float = 1e-7, max_iter: int | None = None
) -> Phase1Result:
    """Float feasibility of ``A x = b, x >= 0``: feasible when the residual is <= ``tol``.

    Raises SolverError when ``max_iter`` pivots (default ``200 * (rows +
    columns)``) do not reach an optimal tableau.
    """
    return _solve(A, b, False, tol, max_iter)


def solve_phase1_exact(A, b, max_iter: int | None = None) -> Phase1Result:
    """Rational-arithmetic feasibility of ``A x = b, x >= 0`` (exact, no tolerance).

    Entries are converted with ``Fraction``, so float inputs are taken at
    their exact binary values.  Same Bland pivot rules as the float solver,
    and the same SolverError on the pivot limit.
    """
    return _solve(A, b, True, 0, max_iter)
