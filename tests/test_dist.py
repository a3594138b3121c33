import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from causalcorr import bell as bm
from causalcorr import dist as dm
from causalcorr import graph as gm
from causalcorr.errors import (
    BadEpsilon,
    OverlappingSets,
    SchemaError,
    ShapeMismatch,
    SizeLimitExceeded,
    UnknownVariable,
    VariableCollision,
    VariableMismatch,
)

from conftest import assert_identical, axis_sum_deviation, outer_product, pr_box_dist


def uniform(*vars_and_sizes):
    sizes = tuple(k for _, k in vars_and_sizes)
    n = int(np.prod(sizes))
    return dm.JointDistribution(tuple(vars_and_sizes), np.full(sizes, 1.0 / n))


def random_dist(rng, *vars_and_sizes):
    sizes = tuple(k for _, k in vars_and_sizes)
    t = rng.uniform(size=sizes)
    return dm.JointDistribution(tuple(vars_and_sizes), t / t.sum())


class TestJointDistribution:
    def test_rejects_negative(self):
        with pytest.raises(ShapeMismatch):
            dm.JointDistribution((("a", 2),), np.array([1.5, -0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ShapeMismatch, match="non-finite"):
            dm.JointDistribution((("a", 2),), [bad, 1.0])

    def test_rejects_unnormalized(self):
        with pytest.raises(ShapeMismatch, match="sums to"):
            dm.JointDistribution((("a", 2),), np.array([0.9, 0.2]))
        dm.JointDistribution((("a", 2),), np.array([0.9, 0.2]), norm_tol=0.11)
        # abs(s - 1) > nan is False: a NaN tolerance admits no table, not even one summing to 10
        for table in ([5.0, 5.0], [0.5, 0.5]):
            with pytest.raises(ShapeMismatch, match="sums to"):
                dm.JointDistribution((("a", 2),), np.array(table), norm_tol=float("nan"))

    @pytest.mark.parametrize("size", [2.5, "2", 2.0, True])
    def test_rejects_a_size_that_is_no_integer(self, size):
        with pytest.raises(ShapeMismatch, match=r"variable 'b': size .* is not an integer"):
            dm.JointDistribution((("a", 2), ("b", size)), np.full(4, 0.25))
        d = dm.JointDistribution((("a", np.int32(2)), ("b", np.int64(2))), np.full(4, 0.25))
        assert d.variables == (("a", 2), ("b", 2)) and all(type(k) is int for k in d.sizes)

    def test_size_guard(self):
        # the guard is checked before the table is read
        with pytest.raises(SizeLimitExceeded):
            dm.JointDistribution(tuple((f"v{i}", 4) for i in range(13)), np.zeros(1))

    def test_size_guard_does_not_wrap(self):
        # 2**32 * 2**32 wraps to 0 in int64 and would pass an int64 guard
        with pytest.raises(SizeLimitExceeded):
            dm.JointDistribution((("a", 2**32), ("b", 2**32)), np.zeros(1))

    def test_duplicate_variable(self):
        with pytest.raises(VariableCollision):
            dm.JointDistribution((("a", 2), ("a", 2)), np.full((2, 2), 0.25))

    def test_env_var_overrides_size_guard(self, monkeypatch):
        monkeypatch.setenv("CC_MAX_STATE_SPACE", "3")
        with pytest.raises(SizeLimitExceeded):
            dm.JointDistribution((("a", 4),), np.full(4, 0.25))
        monkeypatch.setenv("CC_MAX_STATE_SPACE", "4")
        dm.JointDistribution((("a", 4),), np.full(4, 0.25))


class TestMarginal:
    def test_uniform_pair(self):
        p = uniform(("a", 2), ("b", 2))
        m = dm.marginal(p, {"a"})
        assert m.variables == (("a", 2),)
        np.testing.assert_allclose(m.table, [0.5, 0.5])

    def test_keep_all_is_identity(self):
        p = uniform(("a", 2), ("b", 3))
        m = dm.marginal(p, {"a", "b"})
        np.testing.assert_array_equal(m.table, p.table)

    def test_pr_box_setting_marginal_uniform(self):
        m = dm.marginal(pr_box_dist(), {"x1", "x2"})
        np.testing.assert_allclose(m.table, np.full((2, 2), 0.25))

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            dm.marginal(uniform(("a", 2)), {"q"})

    def test_marginal_commutes_with_reorder(self):
        rng = np.random.default_rng(5)
        p = random_dist(rng, ("a", 2), ("b", 3), ("c", 2))
        m1 = dm.marginal(p.reorder(("c", "a", "b")), {"a", "c"})
        m2 = dm.marginal(p, {"a", "c"}).reorder(("c", "a"))
        assert m1.variables == m2.variables
        np.testing.assert_array_equal(m1.table, m2.table)

    def test_reorder_transposes_by_position(self):
        rng = np.random.default_rng(7)
        p = random_dist(rng, ("a", 2), ("b", 3), ("c", 2), ("d", 3))
        # a reordered marginal's table is a transposed view
        for dist in (p, dm.marginal(p, {"d", "a", "c"}).reorder(("c", "d", "a"))):
            ids = dist.var_ids
            for order in itertools.permutations(ids):
                perm = [ids.index(v) for v in order]
                r = dist.reorder(order)
                assert r.variables == tuple(dist.variables[i] for i in perm)
                assert_identical(r.table, np.transpose(dist.table, perm))

    @pytest.mark.parametrize("order", [(), ("a",), ("a", "a"), ("b", "q"), ("a", "b", "c"), ["b", "a", "a"]])
    def test_reorder_refuses_a_non_permutation(self, order):
        with pytest.raises(VariableMismatch) as caught:
            uniform(("a", 2), ("b", 2)).reorder(order)
        assert str(caught.value) == f"{order} is not a permutation of ('a', 'b')"

    @pytest.mark.parametrize("seed", range(3))
    def test_nested_marginals_exact(self, seed):
        rng = np.random.default_rng(seed)
        p = random_dist(rng, ("a", 2), ("b", 3), ("c", 2), ("d", 2))
        two_step = dm.marginal(dm.marginal(p, {"a", "b", "c"}), {"a", "b"})
        one_step = dm.marginal(p, {"a", "b"})
        assert two_step.variables == one_step.variables
        np.testing.assert_allclose(two_step.table, one_step.table, rtol=0, atol=1e-15)


class TestConditional:
    def test_independence(self):
        p = uniform(("a", 2), ("b", 2))
        c = dm.conditional(p, targets=["a"], givens=["b"])
        for b in range(2):
            np.testing.assert_allclose(c.probs[(b,)], [0.5, 0.5])

    def test_deterministic_copy(self):
        t = np.zeros((2, 2))
        t[0, 0] = t[1, 1] = 0.5
        p = dm.JointDistribution((("a", 2), ("b", 2)), t)
        c = dm.conditional(p, targets=["a"], givens=["b"])
        np.testing.assert_allclose(c.probs[(0,)], [1.0, 0.0])
        np.testing.assert_allclose(c.probs[(1,)], [0.0, 1.0])

    def test_undefined_rows_flagged(self):
        t = np.array([[0.5, 0.5], [0.0, 0.0]])
        p = dm.JointDistribution((("b", 2), ("a", 2)), t)
        c = dm.conditional(p, targets=["a"], givens=["b"])
        assert c.defined[(0,)] and not c.defined[(1,)]
        np.testing.assert_array_equal(c.probs[(1,)], [0.0, 0.0])  # an undefined row is all zero

    def test_overlap_rejected(self):
        p = uniform(("a", 2), ("b", 2))
        with pytest.raises(OverlappingSets):
            dm.conditional(p, targets=["a"], givens=["a"])

    @pytest.mark.parametrize("seed", range(3))
    def test_reconstructs_joint(self, seed):
        rng = np.random.default_rng(seed)
        p = random_dist(rng, ("a", 2), ("b", 3), ("c", 2))
        c = dm.conditional(p, targets=["a", "c"], givens=["b"])
        w = dm.marginal(p, {"b"})
        rebuilt = np.einsum("bac,b->bac", c.probs, w.table)
        direct = dm.marginal(p, {"a", "b", "c"}).reorder(("b", "a", "c"))
        np.testing.assert_allclose(rebuilt, direct.table, atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_bit_identical_to_marginal_then_reorder(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        p = random_dist(rng, ("a", 2), ("b", 3), ("c", 2), ("d", 3), ("e", 2))
        # a reordered marginal has root axes out of table order
        for dist in (p, dm.marginal(p, {"e", "b", "d", "a"}).reorder(("d", "a", "e", "b"))):
            for targets, givens in ((["a"], ["b"]), (["e", "a"], ["d", "b"]), (["b"], []), ([], ["d", "a"])):
                sub = dm.marginal(dist, set(targets) | set(givens)).reorder(tuple(givens) + tuple(targets))
                g = len(givens)
                weights = sub.table.sum(axis=tuple(range(g, sub.table.ndim))) if targets else sub.table
                defined = weights > dm.DEFAULT_ZERO_TOL
                probs = sub.table / np.where(defined, weights, 1.0).reshape(weights.shape + (1,) * len(targets))
                probs = np.where(defined.reshape(defined.shape + (1,) * len(targets)), probs, 0.0)
                built = []
                monkeypatch.setattr(dm.JointDistribution, "__post_init__",
                                    lambda self, init=dm.JointDistribution.__post_init__: (built.append(1), init(self)))
                c = dm.conditional(dist, targets, givens)
                monkeypatch.undo()
                assert len(built) == 1  # the table is validated once
                assert c.givens == sub.variables[:g] and c.targets == sub.variables[g:]
                assert_identical(c.probs, probs)
                assert_identical(c.defined, defined)

    def test_repeated_variable_rejected(self):
        p = uniform(("a", 2), ("b", 2), ("c", 2))
        with pytest.raises(VariableMismatch, match=r"\('b', 'b', 'a'\) is not a permutation of \('a', 'b'\)"):
            dm.conditional(p, targets=["a"], givens=["b", "b"])


class TestProductAndDistance:
    def test_tv_identity(self):
        p = uniform(("a", 2))
        assert dm.tv_distance(p, p) == 0.0

    def test_tv_disjoint_point_masses(self):
        p = dm.JointDistribution((("a", 2),), np.array([1.0, 0.0]))
        q = dm.JointDistribution((("a", 2),), np.array([0.0, 1.0]))
        assert dm.tv_distance(p, q) == 1.0

    def test_tv_mismatch(self):
        with pytest.raises(VariableMismatch):
            dm.tv_distance(uniform(("a", 2)), uniform(("b", 2)))

    @pytest.mark.parametrize("seed", range(3))
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        p = random_dist(rng, ("a", 3), ("b", 2))
        q = random_dist(rng, ("a", 3), ("b", 2))
        r = random_dist(rng, ("a", 3), ("b", 2))
        assert dm.tv_distance(p, r) <= dm.tv_distance(p, q) + dm.tv_distance(q, r) + 1e-12


def deviation(p, groups) -> float:
    """The factorisation kernel that ``correlation`` and ``bell`` run, on ``p`` and one check of ``groups``."""
    (dev,) = dm._deviations(p.table, dm._factor_plan(p.variables, [groups]))
    return dev


ORACLE_SHAPES = {
    "size-one-axes": (1, 2, 1, 3, 1, 2),
    "binary-rank-14": (2,) * 14,
    "twos-and-threes": (2, 3, 3, 2, 3, 2, 3, 2),
}


class TestIndependenceDeviation:
    def test_product_distribution_is_independent(self):
        rng = np.random.default_rng(0)
        pa, pb, pc = (random_dist(rng, (v, k)) for v, k in (("a", 2), ("b", 3), ("c", 2)))
        p = outer_product(outer_product(pa, pb), pc)
        assert deviation(p, [{"a"}, {"b"}, {"c"}]) < 1e-16
        assert deviation(p, [{"c", "a"}, {"b"}]) < 1e-16

    def test_copied_bit(self):
        # P(a, b) = 1/2 on the diagonal against P(a) P(b) = 1/4
        p = dm.JointDistribution((("a", 2), ("b", 2), ("c", 3)), np.kron(np.eye(2) / 2, np.ones(3) / 3))
        assert deviation(p, [{"a"}, {"b"}]) == 0.25
        assert deviation(p, [{"a", "b"}, {"c"}]) < 1e-16

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_marginal_product(self, seed):
        rng = np.random.default_rng(seed)
        p = random_dist(rng, ("a", 2), ("b", 3), ("c", 2), ("d", 3))
        view = p.reorder(("d", "b", "a", "c"))
        joint = dm.marginal(p, {"a", "b", "d"})
        prod = outer_product(dm.marginal(p, {"d"}), dm.marginal(p, {"a", "b"})).reorder(joint.var_ids)
        want = float(np.abs(joint.table - prod.table).max())
        for q in (p, view):
            for groups in ([{"d"}, {"b", "a"}], [{"a", "b"}, {"d"}]):
                assert abs(deviation(q, groups) - want) <= 1e-15

    def test_one_group_and_no_group(self):
        p = random_dist(np.random.default_rng(1), ("a", 2), ("b", 2))
        assert deviation(p, [{"a", "b"}]) == 0.0
        assert deviation(p, []) <= 1e-15  # the joint of no group is a scalar, the table's sum
        for groups in ([{"a", "b"}], [{"b"}], [], [set(), {"a"}]):
            assert abs(deviation(p, groups) - axis_sum_deviation(p, groups)) <= 1e-15

    @pytest.mark.parametrize("k", range(5))
    @pytest.mark.parametrize("shape", ORACLE_SHAPES.values(), ids=ORACLE_SHAPES)
    def test_matches_the_axis_sum_oracle(self, shape, k):
        rng = np.random.default_rng(len(shape) * 10 + k)
        p = random_dist(rng, *((f"v{i}", n) for i, n in enumerate(shape)))
        for _ in range(4):
            label = rng.integers(-1, k, size=len(shape))  # -1: outside every group
            groups = [{f"v{i}" for i in np.flatnonzero(label == g)} for g in range(k)]
            view = p.reorder(tuple(rng.permutation(list(p.var_ids))))  # a transposed, non-contiguous table
            # with no group the joint is the sum of every entry, whose round-off grows with their
            # number in either summation order: at most (entries - 1) units of 2^-53 each
            bound = 1e-15 if k else p.table.size * 2.0**-52
            for q in (p, view):
                assert abs(deviation(q, groups) - axis_sum_deviation(q, groups)) <= bound

    def test_index_is_two_factors_near_the_square_root(self):
        p = random_dist(np.random.default_rng(2), *((f"v{i}", 2) for i in range(14)))
        ((src, _, _, lead, trail, shape, sides),) = dm._factor_plan(p.variables, [[{"v0", "v13"}, {"v5"}]])
        assert src == 0 and lead.shape == (128, 1) and trail.shape == (128,)
        assert shape == (4, 2) and sides == ((1,), (0,))
        assert lead.dtype == trail.dtype == np.uint8  # the narrowest type that holds the 8 cells
        ((_, _, _, lead, trail, _, _),) = dm._factor_plan(p.variables, [[{f"v{i}" for i in range(9)}]])
        assert lead.dtype == trail.dtype == np.uint16 and (lead + trail).max() == 2**9 - 1

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            deviation(uniform(("a", 2)), [{"a"}, {"z"}])

    def test_overlapping_groups(self):
        with pytest.raises(OverlappingSets):
            deviation(uniform(("a", 2), ("b", 2)), [{"a", "b"}, {"b"}])


class TestMarginalLattice:
    """Each check's joint is summed from the smallest joint already summed that holds its variables."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_nested_pairs_match_the_axis_sum_reference(self, data):
        # three roots, then nodes of one or two parents each: about 70% of these DAGs have nested pairs
        n = data.draw(st.integers(4, 7), label="nodes")
        sizes = data.draw(st.lists(st.integers(2, 3), min_size=n, max_size=n), label="outcomes")
        edges = [(f"v{i}->v{j}", f"v{i}", f"v{j}") for j in range(3, n)
                 for i in data.draw(st.sets(st.integers(0, j - 1), min_size=1, max_size=2), label=f"parents of v{j}")]
        g = gm.CausalGraph.build([(f"v{i}", k) for i, k in enumerate(sizes)], edges)
        pairs = gm.maximal_disjoint_past_pairs(g)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        p = random_dist(rng, *((f"v{i}", k) for i, k in enumerate(sizes)))
        plan = dm._factor_plan(p.variables, pairs)
        assume(any(src for src, *_ in plan))  # some joint sums from another
        # no check keeps more index entries than one index over the table would
        assert max(lead.size + trail.size for _, _, _, lead, trail, _, _ in plan) <= min(
            math.prod(sizes[:j]) + math.prod(sizes[j:]) for j in range(n + 1))
        for q in (p, p.reorder(tuple(rng.permutation(list(p.var_ids))))):
            devs = dm._deviations(q.table, dm._factor_plan(q.variables, pairs))
            assert len(devs) == len(pairs)
            for pair, dev in zip(pairs, devs):
                assert abs(dev - axis_sum_deviation(q, pair)) <= 1e-15

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.data())
    def test_bell_groups_match_the_axis_sum_reference(self, data):
        n = data.draw(st.integers(2, 3), label="parties")
        settings_, outcomes = (data.draw(st.lists(st.integers(low, 3), min_size=n, max_size=n), label=what)
                               for low, what in ((1, "settings"), (2, "outcomes")))
        scenario = bm.BellScenario(settings_, outcomes, data.draw(st.integers(1, 2), label="source"))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        p = random_dist(rng, *bm.make_bell_graph(scenario).outcomes.items())
        xs, as_ = scenario.setting_ids(), scenario.outcome_ids()
        freewill = [{x} for x in xs] + [{"s"}]
        nosig = [({x}, set(p.var_ids) - {x, a}) for x, a in zip(xs, as_)]
        # the free-will joint lies inside every no-signalling joint, so it is not summed from the table
        plan = dm._factor_plan(p.variables, [freewill, *nosig])
        assert [src for src, c, *_ in plan if c == 0] != [0]
        verdict = bm.check_free_will_no_signalling(scenario, p)
        assert abs(verdict.freewill_deviation - axis_sum_deviation(p, freewill)) <= 1e-15
        for dev, groups in zip(verdict.nosig_deviations, nosig, strict=True):
            assert abs(dev - axis_sum_deviation(p, groups)) <= 1e-15


def partitions(values):
    """All set partitions of a list, as tuples of sorted tuples."""
    values = list(values)
    if not values:
        yield ()
        return
    first, rest = values[0], values[1:]
    for sub in partitions(rest):
        yield ((first,),) + sub
        for i in range(len(sub)):
            yield sub[:i] + ((first,) + sub[i],) + sub[i + 1 :]


def exhaustive_min_sizes(p_table, f_map, domain, codomain, eps):
    """Smallest total factor-alphabet size achieving error <= eps, by full search."""
    best = None
    per_factor = [list(partitions(range(k))) for k in domain]
    for combo in itertools.product(*per_factor):
        labels = []
        for k, groups in zip(domain, combo):
            lab = np.empty(k, dtype=np.int64)
            for gi, members in enumerate(groups):
                for x in members:
                    lab[x] = gi
            labels.append(lab)
        grids = np.meshgrid(*labels, indexing="ij")
        group_sizes = tuple(len(g) for g in combo)
        cells = np.ravel_multi_index(tuple(g.ravel() for g in grids), group_sizes)
        mass = np.zeros((int(np.prod(group_sizes)), codomain))
        np.add.at(mass, (cells, f_map.ravel()), p_table.ravel())
        err = p_table.sum() - mass.max(axis=1).sum()
        if err <= eps + 1e-15:
            total = sum(group_sizes)
            if best is None or total < best:
                best = total
    return best


def greedy_member_lists(dist, cg, eps):
    """Oracle: the greedy merge on explicit member lists, copied for each trial merge
    and turned into labels for each error evaluation.  Returns the labels and sizes."""
    groups = [[[x] for x in range(size)] for size in cg.domain]

    def labels_of(gs):
        labs = [np.empty(size, dtype=np.int64) for size in cg.domain]
        for lab, g in zip(labs, gs):
            for gi, members in enumerate(g):
                lab[members] = gi
        return labs

    for k in range(len(groups)):
        merged = True
        while merged:
            merged = False
            for i, j in itertools.combinations(range(len(groups[k])), 2):
                trial = [list(map(list, g)) for g in groups]
                trial[k][i] = sorted(trial[k][i] + trial[k].pop(j))
                trial[k].sort(key=lambda g: g[0])
                sizes = tuple(map(len, trial))
                if dm._partition_error_and_g(dist.table, cg.map, labels_of(trial), sizes)[0] <= eps:
                    groups, merged = trial, True
                    break
    return labels_of(groups), tuple(map(len, groups))


class TestFactorCoarseGraining:
    def test_single_factor_dependence(self):
        f = np.array([[i % 2] * 4 for i in range(3)])
        cg = dm.CoarseGraining((3, 4), 2, f)
        p = uniform(("u", 3), ("w", 4))
        res = dm.factor_coarse_graining(p, cg, eps=0.0)
        assert res.sizes == (2, 1)
        assert res.achieved_error == 0.0
        # first factor map is the parity restriction up to relabelling
        assert res.factor_maps[0][0] == res.factor_maps[0][2] != res.factor_maps[0][1]

    @pytest.mark.parametrize("domain, values", [((3, 4), 11), ((3, 4), 13), ((-1, -2), 2), ((0, 3), 0)])
    def test_map_not_filling_the_domain_rejected(self, domain, values):
        with pytest.raises(ShapeMismatch):
            dm.CoarseGraining(domain, 2, np.zeros(values, dtype=np.int64))

    @pytest.mark.parametrize("domain, codomain, name", [((3, 4.5), 2, "4.5"), (("3", 4), 2, "'3'"),
                                                        ((3, 4), 2.5, "2.5"), ((True, 2), 2, "True")])
    def test_rejects_a_size_that_is_no_integer(self, domain, codomain, name):
        with pytest.raises(ShapeMismatch, match=f"size {name} is not an integer"):
            dm.CoarseGraining(domain, codomain, np.zeros(12, dtype=np.int64))
        cg = dm.CoarseGraining((np.int64(3), 4), np.int8(2), np.zeros(12, dtype=np.int64))
        assert (cg.domain, cg.codomain) == ((3, 4), 2)

    def test_identity_factoring_always_exact(self):
        rng = np.random.default_rng(1)
        f = rng.integers(0, 3, size=(3, 3, 2))
        cg = dm.CoarseGraining((3, 3, 2), 3, f)
        p = random_dist(rng, ("a", 3), ("b", 3), ("c", 2))
        res = dm.factor_coarse_graining(p, cg, eps=0.0)
        assert res.achieved_error == 0.0
        # composing factor maps with g reproduces f everywhere
        for idx in np.ndindex(3, 3, 2):
            reduced = tuple(res.factor_maps[k][idx[k]] for k in range(3))
            assert res.composed[reduced] == f[idx]

    def test_parity_instance_matches_oracle(self):
        f = np.array([[(i + j) % 2 for j in range(3)] for i in range(3)])
        cg = dm.CoarseGraining((3, 3), 2, f)
        p = uniform(("v1", 3), ("v2", 3))
        res = dm.factor_coarse_graining(p, cg, eps=0.0)
        assert res.achieved_error == 0.0
        assert sum(res.sizes) == 4
        assert exhaustive_min_sizes(p.table, f, (3, 3), 2, 0.0) == 4

    @pytest.mark.parametrize("seed", range(4))
    def test_error_bound_holds(self, seed):
        rng = np.random.default_rng(seed)
        f = rng.integers(0, 2, size=(3, 3))
        cg = dm.CoarseGraining((3, 3), 2, f)
        p = random_dist(rng, ("a", 3), ("b", 3))
        eps = float(rng.uniform(0.0, 0.3))
        res = dm.factor_coarse_graining(p, cg, eps)
        assert res.achieved_error <= eps
        # recompute the error independently from the returned maps
        err = 0.0
        for idx in np.ndindex(3, 3):
            reduced = tuple(res.factor_maps[k][idx[k]] for k in range(2))
            if res.composed[reduced] != f[idx]:
                err += p.table[idx]
        assert abs(err - res.achieved_error) < 1e-12

    def test_matches_member_list_oracle(self):
        for seed in range(150):
            rng = np.random.default_rng(seed)
            domain = tuple(int(k) for k in rng.integers(1, 5, size=rng.integers(1, 4)))
            table = rng.dirichlet(np.full(int(np.prod(domain)), rng.choice([0.2, 1.0, 5.0])))
            if seed % 3 == 0:  # zero-mass cells
                table = np.where(rng.random(table.size) < 0.3, 0.0, table)
                table = table / table.sum() if table.sum() > 0 else np.full(table.size, 1 / table.size)
            p = dm.JointDistribution(tuple((f"v{i}", k) for i, k in enumerate(domain)), table.reshape(domain))
            codomain = int(rng.integers(1, 5))
            cg = dm.CoarseGraining(domain, codomain, rng.integers(codomain, size=table.size))
            eps = float(rng.choice([0.0, 0.01, 0.1, 0.3, 1.0]))
            res = dm.factor_coarse_graining(p, cg, eps)
            labels, sizes = greedy_member_lists(p, cg, eps)
            assert res.sizes == sizes
            for got, expected in zip(res.factor_maps, labels, strict=True):
                assert_identical(got, expected)
            err, composed = dm._partition_error_and_g(p.table, cg.map, labels, sizes)
            assert_identical(res.composed, composed)
            assert res.achieved_error == err

    def test_bad_epsilon(self):
        f = np.zeros((2, 2), dtype=np.int64)
        cg = dm.CoarseGraining((2, 2), 1, f)
        with pytest.raises(BadEpsilon):
            dm.factor_coarse_graining(uniform(("a", 2), ("b", 2)), cg, eps=1.5)


class TestDistJson:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(3)
        p = random_dist(rng, ("a", 2), ("b", 3))
        import json

        data = json.loads(json.dumps(dm.dist_to_dict(p)))
        again = dm.dist_from_dict(data)
        assert again.variables == p.variables
        np.testing.assert_array_equal(again.table, p.table)

    def test_unknown_field_rejected(self):
        with pytest.raises(SchemaError):
            dm.dist_from_dict({"vars": [], "probs": [], "extra": 1})

    def test_wrong_length_rejected(self):
        with pytest.raises(SchemaError):
            dm.dist_from_dict({"vars": [{"id": "a", "size": 2}], "probs": [1.0]})
