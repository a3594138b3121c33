import importlib
import os
import subprocess
import sys
import threading
import types
from fractions import Fraction

import numpy as np
import pytest

from causalcorr import _simplex
from causalcorr._simplex import (
    HIGHS_ENTRIES,
    STATUS_UNBOUNDED,
    _tableau,
    phase1_program,
    solve_phase1,
    solve_phase1_exact,
)
from causalcorr.errors import CausalCorrError, ShapeMismatch, SolverError

SRC = os.path.dirname(os.path.dirname(_simplex.__file__))



def _phase1_tableau(a, b):
    """Initial phase-1 tableau and basis, laid out as ``solve_phase1_exact`` lays them out."""
    a = np.vectorize(Fraction, otypes=[object])(np.asarray(a, dtype=object))
    b = np.vectorize(Fraction, otypes=[object])(np.asarray(b, dtype=object))
    m, n = a.shape
    flip = b < 0
    a = np.where(flip[:, None], -a, a)
    b = np.where(flip, -b, b)
    t = np.full((m + 1, n + m + 1), Fraction(0), dtype=object)
    t[:m, :n] = a
    t[np.arange(m), n + np.arange(m)] = Fraction(1)
    t[:m, -1] = b
    t[m, :n] = -a.sum(axis=0)
    t[m, -1] = -b.sum()
    return t, np.arange(n, n + m, dtype=np.int64)


def list_phase1_exact(A, b, max_iter=None):
    """Oracle: a list-of-``Fraction`` phase-1 simplex with Bland's rules.

    Returns ``(feasible, x, infeasibility, iterations)``; raises RuntimeError
    where the solver under test raises SolverError.
    """
    A = [[Fraction(v) for v in row] for row in A]
    b = [Fraction(v) for v in b]
    m = len(A)
    n = len(A[0]) if m else 0
    for i in range(m):
        if b[i] < 0:
            A[i] = [-v for v in A[i]]
            b[i] = -b[i]
    zero, one = Fraction(0), Fraction(1)
    T = [row + [one if j == i else zero for j in range(m)] + [b[i]] for i, row in enumerate(A)]
    obj = [-sum(T[i][j] for i in range(m)) for j in range(n)] + [zero] * m
    obj.append(-sum(b))
    T.append(obj)
    basis = list(range(n, n + m))
    ncols = n + m
    if max_iter is None:
        max_iter = 200 * (m + n)
    it = 0
    while it < max_iter:
        it += 1
        enter = -1
        for j in range(ncols):
            if T[m][j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best = zero
        for i in range(m):
            a = T[i][enter]
            if a > 0:
                r = T[i][ncols] / a
                if leave < 0 or r < best or (r == best and basis[i] < basis[leave]):
                    leave = i
                    best = r
        if leave < 0:
            raise RuntimeError("phase-1 objective unbounded; input is inconsistent")
        piv = T[leave][enter]
        T[leave] = [v / piv for v in T[leave]]
        for i in range(m + 1):
            if i != leave and T[i][enter] != 0:
                f = T[i][enter]
                T[i] = [v - f * w for v, w in zip(T[i], T[leave])]
        basis[leave] = enter
    else:
        raise RuntimeError(f"exact simplex did not terminate within {max_iter} pivots")
    infeas = -T[m][ncols]
    x = [zero] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = T[i][ncols]
    return infeas == 0, x, infeas, it


def random_integer_system(rng):
    """A small integer system: feasible by construction, or with a random right-hand side."""
    m, n = int(rng.integers(1, 6)), int(rng.integers(1, 9))
    a = rng.integers(-3, 4, size=(m, n))
    if rng.random() < 0.5:
        b = a @ rng.integers(0, 4, size=n)
    else:
        b = rng.integers(-5, 6, size=m)
    return a.tolist(), b.tolist()


class TestPhase1:
    def test_trivially_feasible(self):
        a = np.array([[1.0, 1.0]])
        b = np.array([1.0])
        res = solve_phase1(a, b)
        assert res.feasible
        assert res.infeasibility <= 1e-12
        np.testing.assert_allclose(a @ res.x, b, atol=1e-12)
        assert np.all(res.x >= -1e-12)

    def test_infeasible_system(self):
        # x1 + x2 = 1 and x1 + x2 = 3 cannot both hold
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        b = np.array([1.0, 3.0])
        res = solve_phase1(a, b)
        assert not res.feasible
        assert res.infeasibility == pytest.approx(2.0, abs=1e-9)

    def test_negative_rhs_handled(self):
        a = np.array([[-1.0, 0.0]])
        b = np.array([-2.0])
        res = solve_phase1(a, b)
        assert res.feasible
        assert res.x[0] == pytest.approx(2.0)

    def test_nonnegativity_binds(self):
        # only solution of x1 - x2 = -1 with a zero-sum row needs x2 > 0
        a = np.array([[1.0, -1.0], [1.0, 1.0]])
        b = np.array([-1.0, 1.0])
        res = solve_phase1(a, b)
        assert res.feasible
        np.testing.assert_allclose(res.x, [0.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_feasible_systems(self, seed):
        rng = np.random.default_rng(seed)
        m, n = 12, 30
        a = rng.uniform(-1, 1, size=(m, n))
        x0 = rng.uniform(0, 1, size=n)
        b = a @ x0
        res = solve_phase1(a, b, tol=1e-9)
        assert res.feasible
        np.testing.assert_allclose(a @ res.x, b, atol=1e-8)
        assert np.all(res.x >= -1e-9)


def same_result(got, want):
    """Whether two float solves agree bit for bit: x, y, residual and iterations."""
    return ((got.feasible, got.infeasibility, got.iterations) == (want.feasible, want.infeasibility, want.iterations)
            and got.x.tobytes() == want.x.tobytes() and got.y.tobytes() == want.y.tobytes())


class TestPhase1Program:
    @pytest.mark.parametrize("seed", range(4))
    def test_solves_as_the_matrix_does(self, seed):
        # the same HiGHS model either way: x, y, residual and iterations bit for bit
        rng = np.random.default_rng(200 + seed)
        a, b = (np.array(v, dtype=float) for v in random_integer_system(rng))
        program = phase1_program(a)
        for _ in range(2):
            assert same_result(solve_phase1(program, b, tol=1e-9), solve_phase1(a, b, tol=1e-9))

    def test_stands_in_for_its_matrix(self):
        a = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 1.0]])
        program = phase1_program(a)
        assert program.shape == (2, 3) and len(program) == 2
        np.testing.assert_array_equal(program, a)
        # the LP its HiGHS object holds: [A | I | -I] column-wise, cost 1 on the residual columns
        lp = program.highs.getLp()
        np.testing.assert_array_equal(lp.a_matrix_.start_, [0, 1, 2, 4, 5, 6, 7, 8])
        np.testing.assert_array_equal(lp.a_matrix_.index_, [0, 1, 0, 1, 0, 1, 0, 1])
        np.testing.assert_array_equal(lp.a_matrix_.value_, [1, 1, 2, 1, 1, 1, -1, -1])
        np.testing.assert_array_equal(lp.col_cost_, [0, 0, 0, 1, 1, 1, 1])
        np.testing.assert_array_equal(lp.col_lower_, np.zeros(7))
        np.testing.assert_array_equal(lp.col_upper_, np.full(7, np.inf))

    def test_arrays_are_read_only_and_a_writeable_matrix_is_copied(self):
        a = np.eye(2)
        program = phase1_program(a)
        a[0, 0] = 5.0
        assert program.A[0, 0] == 1.0 and not program.A.flags.writeable
        with pytest.raises(ValueError):
            program.A[0, 0] = 2.0
        # A's 4 entries, and the HiGHS object's fixed share plus 8 per nonzero of [A | I | -I]
        assert program.entries == 4 + HIGHS_ENTRIES + 8 * 6
        frozen = np.eye(2)
        frozen.flags.writeable = False
        assert phase1_program(frozen).A is frozen


class TestKeptSolver:
    """One program's HiGHS object serves every solve, each as a fresh object would."""

    @staticmethod
    def system(seed):
        """A nonnegative matrix, a feasible b and an infeasible one (a negative entry)."""
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 4, size=(6, 12)).astype(float)
        feasible = a @ rng.integers(0, 4, size=12).astype(float)
        return a, feasible, feasible - np.eye(6)[int(rng.integers(6))] * (feasible.max() + 1)

    def test_a_solve_after_an_iteration_limit_starts_cold(self):
        a, feasible, _ = self.system(1)
        program = phase1_program(a)
        assert solve_phase1(a, feasible).iterations > 2
        with pytest.raises(SolverError, match="2 pivots"):
            solve_phase1(program, feasible, max_iter=2)
        assert same_result(solve_phase1(program, feasible), solve_phase1(a, feasible))

    @pytest.mark.parametrize("seed", range(4))
    def test_feasible_and_infeasible_right_hand_sides_alternated(self, seed):
        a, feasible, other = self.system(10 + seed)
        program = phase1_program(a)
        fresh = [solve_phase1(a, b) for b in (feasible, other)]
        assert fresh[0].feasible and not fresh[1].feasible
        for i in range(6):
            assert same_result(solve_phase1(program, (feasible, other)[i % 2]), fresh[i % 2])

    def test_threads_sharing_one_program_answer_as_serial_calls(self):
        a, feasible, other = self.system(2)
        program = phase1_program(a)
        rhs = [feasible, other, feasible + 1.0, other * 2.0]
        serial = [solve_phase1(a, b) for b in rhs]
        results = [None] * 4

        def work(t):  # each thread solves every right-hand side, starting at another one
            results[t] = [(i, solve_phase1(program, rhs[i])) for i in np.roll(np.arange(4), -t).tolist() * 10]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(same_result(res, serial[i]) for got in results for i, res in got)


class TestRightHandSide:
    """``b`` must hold one finite number per row of ``A``, in both solvers."""

    A = [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]

    @pytest.mark.parametrize("b", [[1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]], 1.0, [np.nan, 1.0], [1.0, np.inf],
                                   [-np.inf, 1.0]])
    @pytest.mark.parametrize("solve", [solve_phase1, solve_phase1_exact])
    def test_refused(self, solve, b):
        with pytest.raises(ShapeMismatch, match="not 2 finite numbers"):
            solve(np.array(self.A), b)

    def test_a_short_b_leaves_no_bound_of_an_earlier_solve(self):
        program = phase1_program(np.array(self.A))
        assert not solve_phase1(program, [1.0, -3.0]).feasible
        with pytest.raises(ShapeMismatch):
            solve_phase1(program, [1.0])
        assert same_result(solve_phase1(program, [1.0, 1.0]), solve_phase1(np.array(self.A), [1.0, 1.0]))

    def test_exact_solver_takes_fractions_and_big_integers(self):
        assert solve_phase1_exact(self.A, [Fraction(1, 3), Fraction(2, 3)]).feasible
        assert solve_phase1_exact(self.A, [10**400, 10**400]).feasible


class TestBackends:
    @pytest.mark.parametrize("seed", range(4))
    def test_highs_and_exact_solver_agree_with_checked_certificates(self, seed):
        # the two solvers decide the same systems alike, and every float answer
        # carries its certificate: x >= 0 with A x = b, or a Farkas vector y
        # with y.a_j <= 0 for every column and y.b equal to the L1 residual
        rng = np.random.default_rng(100 + seed)
        seen = set()
        for _ in range(40):
            a, b = random_integer_system(rng)
            a, b = np.array(a, dtype=float), np.array(b, dtype=float)
            res = solve_phase1(a, b, tol=1e-9)
            assert res.feasible is solve_phase1_exact(a, b).feasible
            assert res.x.min() >= 0 and res.y.shape == b.shape
            if res.feasible:
                np.testing.assert_allclose(a @ res.x, b, atol=1e-9)
            else:
                assert (res.y @ a).max() <= 1e-9
                assert res.y @ b == pytest.approx(res.infeasibility, abs=1e-9)
                assert res.infeasibility == pytest.approx(np.abs(a @ res.x - b).sum(), abs=1e-9)
            seen.add(res.feasible)
        assert seen == {True, False}

    def test_l1_residual_and_dual_of_a_known_system(self):
        # x1 + x2 = 1 and x1 + x2 = 3: residual 2, and y = (-1, 1) proves it
        res = solve_phase1(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 3.0]))
        assert res.infeasibility == pytest.approx(2.0)
        np.testing.assert_allclose(res.y, [-1.0, 1.0])

    @pytest.mark.parametrize("seed", range(4))
    def test_exact_tableau_matches_reference_layout(self, seed):
        rng = np.random.default_rng(100 + seed)
        a = rng.integers(-4, 5, size=(10, 25)) / 4
        b = rng.integers(-4, 5, size=10) / 4
        t, basis = _tableau(a, b)
        t_ref, basis_ref = _phase1_tableau(a, b)
        assert all(type(v) is Fraction for v in t.ravel())
        np.testing.assert_array_equal(t, t_ref)
        np.testing.assert_array_equal(basis, basis_ref)

    def test_highs_loads_without_the_scipy_optimize_package(self):
        # the extension file alone is loaded; scipy.optimize, imported later,
        # finds the same module and its own solvers still work
        code = (
            "import sys, numpy as np\n"
            "from causalcorr._simplex import HIGHS_MODULE, solve_phase1\n"
            "assert solve_phase1(np.ones((1, 2)), np.ones(1)).feasible\n"
            "assert 'scipy.optimize' not in sys.modules and HIGHS_MODULE in sys.modules\n"
            "core = sys.modules[HIGHS_MODULE]\n"
            "from scipy.optimize import linprog\n"
            "assert sys.modules[HIGHS_MODULE] is core\n"
            "assert linprog([1.0, 1.0], A_eq=[[1.0, 1.0]], b_eq=[1.0]).status == 0\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr

    def test_highs_falls_back_to_the_ordinary_import(self, monkeypatch):
        # without scipy's file layout to hand, the module is imported by name
        _simplex.highs_core()
        monkeypatch.delitem(sys.modules, _simplex.HIGHS_MODULE)
        find_spec, import_module, imported = importlib.util.find_spec, importlib.import_module, []
        monkeypatch.setattr(importlib.util, "find_spec",
                            lambda name, *args: None if name == "scipy" else find_spec(name, *args))
        monkeypatch.setattr(importlib, "import_module", lambda name, *args: imported.append(name)
                            or import_module(name, *args))
        core = _simplex.highs_core()
        assert imported[0] == _simplex.HIGHS_MODULE and core.__name__ == _simplex.HIGHS_MODULE
        assert solve_phase1(np.ones((1, 2)), np.ones(1)).feasible
        assert not solve_phase1(np.ones((1, 2)), -np.ones(1)).feasible


class TestExact:
    def test_exact_feasible_with_rational_solution(self):
        a = [[1, 1, 0], [0, 1, 1]]
        b = [Fraction(1, 3), Fraction(1, 2)]
        res = solve_phase1_exact(a, b)
        assert res.feasible
        assert res.infeasibility == 0
        x = res.x
        assert x[0] + x[1] == Fraction(1, 3)
        assert x[1] + x[2] == Fraction(1, 2)

    def test_exact_infeasible(self):
        a = [[1, 1], [1, 1]]
        b = [1, 2]
        res = solve_phase1_exact(a, b)
        assert not res.feasible
        assert res.infeasibility == 1

    def test_exact_agrees_with_float_on_dyadic_data(self):
        rng = np.random.default_rng(2)
        a = rng.integers(0, 2, size=(6, 12)).astype(float)
        x0 = rng.integers(0, 8, size=12) / 8.0
        b = a @ x0
        assert solve_phase1_exact(a, b).feasible
        assert solve_phase1(a, b).feasible

    def test_exact_matches_list_oracle_on_random_integer_systems(self):
        rng = np.random.default_rng(7)
        seen = {"feasible": 0, "infeasible": 0, "negative rhs": 0}
        for _ in range(150):
            a, b = random_integer_system(rng)
            feasible, x, infeas, iters = list_phase1_exact(a, b)
            res = solve_phase1_exact(a, b)
            assert (res.feasible, list(res.x), res.infeasibility, res.iterations) == (
                feasible, x, infeas, iters,
            )
            assert all(type(v) is Fraction for v in res.x)
            assert type(res.infeasibility) is Fraction
            seen["feasible" if feasible else "infeasible"] += 1
            seen["negative rhs"] += min(b) < 0
        assert min(seen.values()) >= 20, seen

    def test_exact_farkas_vector_holds_exactly_on_random_integer_systems(self):
        # y.a_j <= 0 for every column and y.b equals the residual, in Fractions:
        # a Farkas certificate whenever the system is infeasible
        rng = np.random.default_rng(7)
        infeasible = 0
        for _ in range(150):
            a, b = random_integer_system(rng)
            res = solve_phase1_exact(a, b)
            assert all(type(v) is Fraction for v in res.y) and len(res.y) == len(b)
            assert max(res.y @ np.array(a, dtype=object)) <= 0
            assert res.y @ np.array(b, dtype=object) == res.infeasibility
            infeasible += not res.feasible
            assert res.feasible or res.infeasibility > 0
        assert infeasible >= 20

    def test_exact_float_input_taken_at_binary_value(self):
        res = solve_phase1_exact(np.array([[1.0, 2.0]]), np.array([0.1]))
        assert res.feasible
        assert res.x[0] == Fraction(0.1) and res.x[1] == 0


class TestSolverError:
    def test_is_package_and_runtime_error(self):
        assert issubclass(SolverError, CausalCorrError)
        assert issubclass(SolverError, RuntimeError)

    def test_pivot_limit_raises(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(-1, 1, size=(6, 12))
        b = a @ rng.uniform(0, 1, size=12)
        assert solve_phase1(a, b).iterations > 2
        with pytest.raises(SolverError, match="2 pivots"):
            solve_phase1(a, b, max_iter=2)
        with pytest.raises(SolverError, match="2 pivots"):
            solve_phase1_exact(np.round(a * 8), np.round(b * 8), max_iter=2)

    def test_unbounded_status_raises(self, monkeypatch):
        monkeypatch.setattr(_simplex, "_phase1_loops", lambda T, basis, max_iter: (STATUS_UNBOUNDED, 1))
        with pytest.raises(SolverError, match="unbounded"):
            solve_phase1_exact(np.array([[1.0, 1.0]]), np.array([1.0]))

    def test_highs_status_other_than_optimal_raises(self, monkeypatch):
        core = _simplex.highs_core()

        class Unbounded(core._Highs):
            def getModelStatus(self):
                return core.HighsModelStatus.kUnbounded

        fake = types.SimpleNamespace(**{**vars(core), "_Highs": Unbounded})
        monkeypatch.setattr(_simplex, "highs_core", lambda: fake)
        with pytest.raises(SolverError, match="Unbounded"):
            solve_phase1(np.array([[1.0, 1.0]]), np.array([1.0]))
