import itertools
from fractions import Fraction

import numpy as np
import pytest

from causalcorr import _simplex
from causalcorr import bell as bm
from causalcorr._simplex import (
    _PIVOT_TOL,
    STATUS_UNBOUNDED,
    _phase1_loops,
    _phase1_numpy,
    _tableau,
    solve_phase1,
    solve_phase1_exact,
)
from causalcorr.errors import CausalCorrError, SolverError

from conftest import bell_joint, deterministic_mixture, record_bell_lps


def _phase1_tableau(a, b):
    """Initial phase-1 tableau and basis, laid out as ``solve_phase1`` lays them out."""
    m, n = a.shape
    flip = b < 0
    a = np.where(flip[:, None], -a, a)
    b = np.where(flip, -b, b)
    t = np.zeros((m + 1, n + m + 1))
    t[:m, :n] = a
    t[:m, n : n + m] = np.eye(m)
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


class TestBackends:
    @pytest.mark.parametrize("seed", range(4))
    def test_loop_and_numpy_kernels_identical(self, seed):
        # the exact solver's row-wise kernel and the float solver's vectorized
        # kernel follow the same pivot rules: on a float tableau they agree bit for bit
        rng = np.random.default_rng(100 + seed)
        m, n = 10, 25
        a = rng.uniform(-1, 1, size=(m, n))
        b = a @ rng.uniform(0, 1, size=n)
        t_loop, basis_loop = _phase1_tableau(a, b)
        t_np, basis_np = _phase1_tableau(a, b)
        max_iter = 200 * (m + n)
        out_loop = _phase1_loops(t_loop, basis_loop, _PIVOT_TOL, max_iter)
        out_np = _phase1_numpy(t_np, basis_np, _PIVOT_TOL, max_iter)
        assert out_loop == out_np
        np.testing.assert_array_equal(basis_loop, basis_np)
        np.testing.assert_array_equal(t_loop, t_np)

    @pytest.mark.parametrize("case", ["2-party 3s2o PR box", "3-party 2s2o mixture"])
    def test_loop_and_numpy_kernels_identical_on_bell_tableaus(self, case, monkeypatch):
        # Bell LPs are sparse 0/1, so most pivots meet rows whose factor is
        # exactly 0; both kernels skip those rows and stay equal byte for byte
        if case.startswith("2-party"):
            settings, outcomes, local = (3, 3), (2, 2), False
            cond = np.zeros((3, 3, 2, 2))
            for x, y, a1, a2 in itertools.product(range(3), range(3), range(2), range(2)):
                cond[x, y, a1, a2] = 0.5 * (a1 ^ a2 == x * y % 2)
        else:
            settings, outcomes, local = (2, 2, 2), (2, 2, 2), True
            cond = deterministic_mixture(np.random.default_rng(3), settings, outcomes, 5)
        built = record_bell_lps(monkeypatch)
        joint = bell_joint(settings, outcomes, [cond])
        assert bm.local_membership(bm.BellScenario(settings, outcomes), joint).is_local is local
        [(a, b)] = built
        assert (a == 0).mean() > 0.5
        t_loop, basis_loop = _phase1_tableau(a, b)
        t_np, basis_np = _phase1_tableau(a, b)
        max_iter = 200 * sum(a.shape)
        out_loop = _phase1_loops(t_loop, basis_loop, _PIVOT_TOL, max_iter)
        out_np = _phase1_numpy(t_np, basis_np, _PIVOT_TOL, max_iter)
        assert out_loop == out_np and out_loop[0] == _simplex.STATUS_OPTIMAL
        assert (-t_np[-1, -1] > 1e-7) is not local
        np.testing.assert_array_equal(basis_loop, basis_np)
        assert t_loop.tobytes() == t_np.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_float_tableau_matches_reference_layout(self, seed):
        rng = np.random.default_rng(100 + seed)
        a = rng.uniform(-1, 1, size=(10, 25))
        b = rng.uniform(-1, 1, size=10)
        t, basis = _tableau(a, b, exact=False)
        t_ref, basis_ref = _phase1_tableau(a, b)
        assert t.dtype == np.float64
        np.testing.assert_array_equal(t, t_ref)
        np.testing.assert_array_equal(basis, basis_ref)


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
        monkeypatch.setattr(_simplex, "_phase1_numpy", lambda T, basis, tol, max_iter: (STATUS_UNBOUNDED, 1))
        with pytest.raises(SolverError, match="unbounded"):
            solve_phase1(np.array([[1.0, 1.0]]), np.array([1.0]))
