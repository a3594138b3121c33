"""Phase-1 feasibility of ``A x = b, x >= 0``: HiGHS in float64, a ``Fraction``
tableau when exact.

The float solver poses the L1 phase-1 LP

    minimise 1ᵀ(u + v)  subject to  A x + u - v = b,  x, u, v >= 0,

which is always feasible, and solves it with the simplex solver of HiGHS
(Huangfu & Hall, Math. Prog. Comp. 10, 119 (2018)), presolve off.  The LP
of an ``A`` is passed to a HiGHS object once (:func:`phase1_program`); each
solve takes the object's lock, resets its solver, so that it starts cold,
and sets ``b``.  The optimum is the L1 residual of the best ``x``, and
its row duals ``y`` are a Farkas vector: ``yᵀa_j <= 0`` for every column
``a_j`` and ``yᵀb`` equals the residual.  The caller checks whichever
certificate its verdict rests on.

The exact solver is the textbook phase-1 tableau in ``Fraction``
arithmetic: rows with ``b_i < 0`` are negated, giving ``A' x + a = b'`` with
``b' >= 0`` and one artificial ``a_i >= 0`` per row, and ``1ᵀa`` is
minimised with Bland's smallest-index rules, pivoted row by row; each pivot
skips the rows whose factor in the entering column is zero.  Its optimum is
the least ``1ᵀ(b' - A' x)`` over ``x >= 0`` with ``A' x <= b'``: a one-sided
residual, at least the L1 one and 0 exactly when the float optimum is (for
``A = [[1], [1], [1]]`` and ``b = (1, 1, 0)`` the L1 residual is 1 and this
one is 2).  Its Farkas vector is read from the artificial columns of the
final objective row: ``yᵀa_j <= 0`` for every column and ``yᵀb`` equals
that optimum, exactly.

A solve that hits its iteration limit, or ends in any state but optimal,
raises :class:`SolverError` instead of returning a solution.
"""

from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import itertools
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch, SolverError

# scipy's compiled HiGHS module; this file layout is that of scipy 1.17
HIGHS_MODULE = "scipy.optimize._highspy._core"
# a HiGHS object's resident size after a solve, in float64 entries: 2^14, plus 8 per nonzero of its LP
HIGHS_ENTRIES, HIGHS_ENTRIES_PER_NONZERO = 1 << 14, 8


def highs_core():
    """scipy's compiled HiGHS module, loaded at the first float solve.

    The extension file is loaded on its own, under its real module name, so
    that the solve skips the package import of ``scipy.optimize`` (about
    0.5 s and 49 MB of peak memory, against about 10 ms and 3 MB).  Where
    that file is not found the module is imported the ordinary way; it is
    the same module either way.
    """
    module = sys.modules.get(HIGHS_MODULE)
    if module is not None:
        return module
    scipy = importlib.util.find_spec("scipy")
    folders = (scipy.submodule_search_locations or []) if scipy else []
    for folder, suffix in itertools.product(folders, importlib.machinery.EXTENSION_SUFFIXES):
        path = os.path.join(folder, "optimize", "_highspy", "_core" + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location(HIGHS_MODULE, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[HIGHS_MODULE] = module
            return module
    try:
        return importlib.import_module(HIGHS_MODULE)
    except ImportError as exc:
        raise SolverError(f"the HiGHS solver is unavailable ({exc}); install scipy >= 1.17") from exc


@dataclass
class Phase1Result:
    """Outcome of a phase-1 solve.

    ``x`` is a float array, or an object array of ``Fraction`` for the exact
    solver; ``infeasibility`` is the phase-1 optimum, a float or a
    ``Fraction`` likewise: the least L1 residual ``|A x - b|_1`` for the
    float solver, and the least sum of the exact tableau's artificials, a
    one-sided residual that is at least the L1 one, for the exact solver.
    Both are 0 exactly when ``A x = b, x >= 0`` is feasible.  ``y`` is the
    Farkas vector, one entry per row of ``A`` (the float solver's row duals,
    or ``Fraction`` multipliers from the exact tableau), with ``yᵀb`` equal
    to ``infeasibility``.
    """

    feasible: bool
    x: np.ndarray
    infeasibility: float | Fraction
    iterations: int
    y: np.ndarray


@dataclass(frozen=True, eq=False)
class Phase1Program:
    """The L1 phase-1 LP of a matrix ``A``, passed once to its own HiGHS object.

    ``highs`` holds the LP: columns ``[A | I | -I]``, cost 0 on ``A``'s
    columns and 1 on the others, all continuous in ``[0, inf)``, and
    placeholder row bounds.  A solve holds ``lock``, resets the solver and
    sets its ``b`` as the row bounds, so one program may serve many solves
    and threads, each answered as by a fresh object.  ``entries`` weighs it
    in float64 entries: ``A``'s, plus the object's (``HIGHS_ENTRIES``).
    """

    A: np.ndarray
    highs: object
    lock: threading.Lock
    entries: int


def phase1_program(A) -> Phase1Program:
    """The :class:`Phase1Program` of ``A``; a writeable ``A`` is kept as a read-only copy."""
    A = np.asarray(A, dtype=float)
    if A.flags.writeable:
        A = A.copy()
        A.flags.writeable = False
    m, n = A.shape
    # A's nonzeros column by column, then one entry per u and v
    cols, rows = np.nonzero(A.T)
    n_col, nonzeros = n + 2 * m, len(cols) + 2 * m
    start = np.zeros(n_col, dtype=np.int32)
    np.cumsum(np.bincount(cols, minlength=n)[:-1], out=start[1:n])
    start[n:] = len(cols) + np.arange(2 * m)
    ids = np.arange(m, dtype=np.int32)
    h = highs_core()
    highs = h._Highs()
    highs.setOptionValue("output_flag", False)
    highs.setOptionValue("presolve", "off")
    # columns, rows, nonzeros, column-wise, minimise, no offset, costs, column
    # bounds, placeholder row bounds, the matrix, every column continuous
    highs.passModel(
        n_col, m, nonzeros, int(h.MatrixFormat.kColwise), int(h.ObjSense.kMinimize), 0.0,
        np.repeat([0.0, 1.0], [n, 2 * m]), np.zeros(n_col), np.full(n_col, np.inf), np.zeros(m), np.zeros(m),
        start, np.concatenate([rows.astype(np.int32), ids, ids]),
        np.concatenate([A.T[cols, rows], np.ones(m), -np.ones(m)]), np.zeros(n_col, dtype=np.int32),
    )
    return Phase1Program(A, highs, threading.Lock(), A.size + HIGHS_ENTRIES + HIGHS_ENTRIES_PER_NONZERO * nonzeros)


def _rhs(b, m, dtype=float):
    """``b`` as an array, once it is checked to be ``m`` finite numbers."""
    b = np.asarray(b, dtype=dtype)
    if b.shape != (m,) or not ((b == b) & (abs(b) != np.inf)).all():
        raise ShapeMismatch(f"b of shape {b.shape} is not {m} finite numbers, one per row of A")
    return b


def solve_phase1(
    A: np.ndarray | Phase1Program, b: np.ndarray, tol: float = 1e-7, max_iter: int | None = None
) -> Phase1Result:
    """Float feasibility of ``A x = b, x >= 0`` by HiGHS: feasible when the L1
    residual is <= ``tol``.

    ``A`` is a matrix, or its :func:`phase1_program`, whose HiGHS object
    already holds the LP.  ``x`` is clipped at 0, so it is nonnegative
    whatever the solver's bound tolerance.  Raises ShapeMismatch unless
    ``b`` holds one finite number per row of ``A``, and SolverError when
    ``max_iter`` simplex iterations (default ``200 * (rows + columns)``) do
    not reach an optimum.
    """
    program = A if isinstance(A, Phase1Program) else phase1_program(A)
    m, n = program.A.shape
    b = _rhs(b, m)
    if max_iter is None:
        max_iter = 200 * (m + n)
    h, highs = highs_core(), program.highs
    with program.lock:  # the object is this solve's from reset to read-out
        highs.clearSolver()  # start cold, as a fresh object would
        highs.setOptionValue("simplex_iteration_limit", int(max_iter))
        for i, bound in enumerate(b.tolist()):
            highs.changeRowBounds(i, bound, bound)
        highs.run()
        status, info = highs.getModelStatus(), highs.getInfo()
        if status == h.HighsModelStatus.kIterationLimit:
            raise SolverError(f"simplex did not terminate within {max_iter} pivots")
        if status != h.HighsModelStatus.kOptimal:
            raise SolverError(f"HiGHS ended with status {highs.modelStatusToString(status)!r}")
        solution, infeas = highs.getSolution(), max(0.0, float(info.objective_function_value))
        x, y = np.maximum(np.asarray(solution.col_value)[:n], 0.0), np.asarray(solution.row_dual)
        return Phase1Result(infeas <= tol, x, infeas, int(info.simplex_iteration_count), y)


def _phase1_loops(T, basis, max_iter):
    """Bland's-rule pivot loop on the exact tableau, one update per row; returns
    the iteration count at optimality and raises SolverError otherwise."""
    m = basis.shape[0]
    ncols = T.shape[1] - 1
    for it in range(1, max_iter + 1):
        enter = -1
        for j in range(ncols):
            if T[m, j] < 0:
                enter = j
                break
        if enter < 0:
            return it
        leave = -1
        best = 0
        for i in range(m):
            a = T[i, enter]
            if a > 0:
                r = T[i, ncols] / a
                if leave < 0 or r < best or (r == best and basis[i] < basis[leave]):
                    leave = i
                    best = r
        if leave < 0:
            raise SolverError("phase-1 objective unbounded; the tableau lost consistency")
        piv = T[leave, enter]
        T[leave, :] /= piv
        for i in range(m + 1):
            f = T[i, enter]
            if i != leave and f != 0:
                T[i, :] -= f * T[leave, :]
        basis[leave] = enter
    raise SolverError(f"simplex did not terminate within {max_iter} pivots")


def _tableau(A, b):
    """Initial exact phase-1 tableau and basis for ``A x = b``.

    Entries are ``Fraction`` objects (floats taken at their exact binary
    values).  Rows with ``b < 0`` are negated, one artificial column per row
    starts in the basis, and the last row holds the artificial-sum objective.
    """
    from fractions import Fraction

    to_fraction = np.vectorize(Fraction, otypes=[object])
    A = to_fraction(np.asarray(A, dtype=object))
    b = to_fraction(np.asarray(b, dtype=object))
    m, n = A.shape
    flip = b < 0
    A = np.where(flip[:, None], -A, A)
    b = np.where(flip, -b, b)
    T = np.full((m + 1, n + m + 1), Fraction(0), dtype=object)
    T[:m, :n] = A
    T[np.arange(m), n + np.arange(m)] = Fraction(1)
    T[:m, -1] = b
    T[m, :n] = -A.sum(axis=0)
    T[m, -1] = -b.sum()
    return T, np.arange(n, n + m, dtype=np.int64)


def solve_phase1_exact(A, b, max_iter: int | None = None) -> Phase1Result:
    """Rational-arithmetic feasibility of ``A x = b, x >= 0`` (exact, no tolerance).

    Entries are converted with ``Fraction``, so float inputs are taken at
    their exact binary values.  Raises ShapeMismatch unless ``b`` holds one
    finite number per row of ``A``, and SolverError when ``max_iter`` pivots
    (default ``200 * (rows + columns)``) do not reach an optimal tableau.
    """
    from fractions import Fraction

    b = _rhs(b, len(A), object)
    T, basis = _tableau(A, b)
    m = basis.shape[0]
    n = T.shape[1] - m - 1
    if max_iter is None:
        max_iter = 200 * (m + n)
    iters = _phase1_loops(T, basis, max_iter)
    infeas = max(Fraction(0), -T[m, -1])
    x = np.full(n, Fraction(0), dtype=object)
    in_x = basis < n
    x[basis[in_x]] = T[:m, -1][in_x]
    # the artificial columns' reduced costs are 1 - y on the rows _tableau negated where b < 0
    y = np.where(b < 0, -1, 1) * (1 - T[m, n:n + m])
    return Phase1Result(feasible=infeas == 0, x=x, infeasibility=infeas, iterations=iters, y=y)
