"""The contraction core: the greedy planner against np.einsum_path, and
``_contract`` against the einsum_path-based core it replaced."""

import functools
import math
import operator
import re
import sys
import threading

import numpy as np
import pytest

from causalcorr import _config
from causalcorr import classical as cm
from causalcorr import hbn as hm
from causalcorr import quantum as qm
from causalcorr._config import MAX_PLAN_STEPS, BoundedCache, _contract, _greedy_path, max_state_space
from causalcorr.errors import CausalCorrError, SizeLimitExceeded
from causalcorr.graph import CausalGraph

from conftest import all_test_graphs


def einsum_path_contract(operands, output, max_states=None):
    """The contraction core before the planner: numpy's greedy einsum_path,
    walked once more to size every array, then one einsum call per step."""
    guard = max_state_space(max_states)
    size, label = {}, {}
    for array, subs in operands:
        for i, n in zip(subs, array.shape):
            label.setdefault(i, len(label))
            size[label[i]] = n
    if len(label) > 52:
        raise SizeLimitExceeded(f"{len(label)} contraction indices exceed einsum's 52")
    ops = [(array, [label[i] for i in subs]) for array, subs in operands]
    out = [label[i] for i in output]
    path, _ = np.einsum_path(*[x for op in ops for x in op], out, optimize=("greedy", guard))

    def entries(subs):
        return math.prod(size[i] for i in subs)

    live = [set(subs) for _, subs in ops]
    largest = max([entries(out)] + [array.size for array, _ in ops])
    steps = []
    for step in path[1:]:
        joined = [live.pop(i) for i in sorted(step, reverse=True)]
        union = set().union(*joined)
        kept = union & set(out).union(*live)
        live.append(kept)
        largest = max(largest, entries(union if len(joined) > 2 else kept))
        steps.append((step, list(kept), entries(union)))
    if largest > guard:
        raise SizeLimitExceeded(f"contraction array of {largest} entries exceeds the guard {guard}")
    for step, kept, work in steps:
        joined = [ops.pop(i) for i in sorted(step, reverse=True)]
        ops.append((np.einsum(*[x for op in joined for x in op], kept, optimize=work > 1 << 14), kept))
    (array, subs), = ops
    return np.einsum(array, subs, out)


def bits(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def union(masks):
    return functools.reduce(operator.or_, masks, 0)


def numpy_path(masks, out_mask, sizes, guard):
    """np.einsum_path's greedy path for a bitmask network, on zero-stride arrays."""
    args = []
    for m in masks:
        args += [np.broadcast_to(0.0, [sizes[i] for i in bits(m)]), bits(m)]
    path, _ = np.einsum_path(*args, bits(out_mask), optimize=("greedy", guard))
    return [tuple(step) for step in path[1:]]


def walk(path, masks, out_mask, sizes):
    """Each step's result and the largest array, by the walk of the old core."""
    live = [set(bits(m)) for m in masks]
    out = set(bits(out_mask))

    def entries(subs):
        return math.prod(sizes[i] for i in subs)

    results, largest = [], max(entries(out), max(entries(s) for s in live))
    for step in path:
        joined = [live.pop(i) for i in sorted(step, reverse=True)]
        union = set().union(*joined)
        kept = union & out.union(*live)
        live.append(kept)
        largest = max(largest, entries(union if len(joined) > 2 else kept))
        results.append(sum(1 << i for i in kept))
    return results, largest


def random_network(seed):
    """Operands over up to 14 indices of sizes 1-3 (in some networks all but
    two of size 1), some of them in two groups that share no index; an open,
    partly open or closed output; and a guard from ample down to a few
    entries, so that pairs are sieved and the planner falls back to outer
    products and to one joint step."""
    rng = np.random.default_rng(seed)
    n_idx = int(rng.integers(1, 15))
    sizes = {i: int(rng.choice([1, 2, 3])) for i in range(n_idx)}
    if rng.random() < 0.3:  # mostly size-1 axes, which make the naive-cost sieve bite
        sizes = {i: n if i < 2 else 1 for i, n in sizes.items()}
    groups = [range(n_idx)] if rng.random() < 0.6 else [range(0, n_idx, 2), range(1, n_idx, 2)]
    masks = []
    for _ in range(int(rng.integers(1, 11))):
        pool = list(groups[int(rng.integers(len(groups)))]) or [0]
        chosen = rng.choice(pool, size=int(rng.integers(1, min(3, len(pool)) + 1)), replace=False)
        masks.append(sum(1 << int(i) for i in chosen))
    every = union(masks)
    mode = rng.random()
    if mode < 0.15:
        out_mask = every
    elif mode < 0.3:
        out_mask = 0
    else:
        out_mask = sum(1 << i for i in bits(every) if rng.random() < 0.4)
    guard = int(rng.choice([10**9, 10**9, 64, 16, 8, 4, 2]))
    return masks, out_mask, sizes, guard


def replay(masks, path):
    """The operand masks that each step of a planned path joins."""
    live, joined = list(masks), []
    for step, kept in path:
        joined.append([live.pop(i) for i in sorted(step, reverse=True)])
        live.append(kept)
    return joined


class TestGreedyPath:
    def test_same_path_as_numpy_einsum_path(self):
        seen = dict.fromkeys(["open output", "joint step", "outer pair", "refused", "size-1 axis"], 0)
        for seed in range(600):
            masks, out_mask, sizes, guard = random_network(seed)
            path, largest, widest = _greedy_path(masks, out_mask, sizes, guard)
            steps = [step for step, _ in path]
            assert steps == numpy_path(masks, out_mask, sizes, guard), seed
            results, walked = walk(steps, masks, out_mask, sizes)
            assert [kept for _, kept in path] == results, seed
            operands = max(math.prod(sizes[i] for i in bits(m)) for m in masks)
            assert max(largest, operands) == walked, seed
            joined = replay(masks, path)
            assert widest == max(len(bits(union(j))) for j in joined), seed
            every = union(masks)
            seen["open output"] += len(masks) > 2 and every == out_mask
            seen["joint step"] += len(masks) > 2 and every != out_mask and len(joined[-1]) > 2
            seen["outer pair"] += any(len(j) == 2 and not j[0] & j[1] for j in joined)
            seen["refused"] += walked > guard
            seen["size-1 axis"] += any(sizes[i] == 1 for i in bits(every))
        assert min(seen.values()) >= 10, seen

    def test_trivial_networks(self):
        assert _greedy_path([0b1], 0b1, {0: 3}, 10) == ([((0,), 0b1)], 3, 1)
        assert _greedy_path([0b1, 0b11], 0b10, {0: 3, 1: 2}, 10) == ([((0, 1), 0b10)], 2, 2)


class TestContract:
    def test_same_tables_and_refusals_as_einsum_path_core(self):
        refused = 0
        for seed in range(300):
            masks, out_mask, sizes, guard = random_network(seed)
            rng = np.random.default_rng(seed)
            operands = []
            for m in masks:
                array = rng.random([sizes[i] for i in bits(m)])
                operands.append((array / array.sum(), [("index", i) for i in bits(m)]))
            output = [("index", i) for i in reversed(bits(out_mask))]
            try:
                expected = einsum_path_contract(operands, output, guard)
            except SizeLimitExceeded:
                refused += 1
                with pytest.raises(SizeLimitExceeded):
                    _contract(operands, output, guard)
                continue
            table = _contract(operands, output, guard)
            assert table.shape == expected.shape, seed
            assert np.abs(table - expected).max() <= 1e-15, seed
        assert 10 <= refused <= 290

    @pytest.mark.parametrize("name", sorted(all_test_graphs()))
    @pytest.mark.parametrize(
        "family, make", [(cm, cm.random_model), (hm, hm.random_hbn), (qm, qm.random_model)],
        ids=["classical", "hbn", "quantum"],
    )
    def test_figure_graphs_match_einsum_path_core(self, monkeypatch, name, family, make):
        for size in (2, 3):
            model = make(all_test_graphs()[name], size, seed=size)
            table = family.evaluate(model).table
            with monkeypatch.context() as m:
                m.setattr(family, "_contract", einsum_path_contract)
                expected = family.evaluate(model).table
            assert np.abs(table - expected).max() <= 1e-15

    @pytest.mark.parametrize("family, build", [
        (cm, lambda g: cm.random_model(g, 2, seed=0)),
        (qm, lambda g: qm.random_model(g, 2, seed=0)),
        (hm, lambda g: hm.random_hbn(g, 2, seed=0)),
    ], ids=["classical", "quantum", "hbn"])
    def test_empty_graph_evaluates_to_the_scalar_one(self, family, build):
        assert _contract([], []) == 1.0
        joint = family.evaluate(build(CausalGraph.build([], [])))
        assert joint.variables == () and joint.table.shape == () and joint.table == 1.0


FAMILIES = pytest.mark.parametrize(
    "family, make", [(cm, cm.random_model), (hm, hm.random_hbn), (qm, qm.random_model)],
    ids=["classical", "hbn", "quantum"],
)


def outcome(call):
    """A call's table as bytes, or its refusal's message."""
    try:
        return call().table.tobytes()
    except SizeLimitExceeded as exc:
        return f"refused: {exc}"


def chain(n):
    """A three-operand chain whose first axis has size ``n``: planned in two
    steps, with distinct plans for distinct ``n``."""
    return [(np.ones(n), ["i"]), (np.full((n, 2), 0.5), ["i", "j"]), (np.ones((2, 3)), ["j", "k"])], ["k"]


def counting_planner(monkeypatch):
    """Counts the calls of _greedy_path from now on."""
    calls = []

    def planner(*args):
        calls.append(1)
        return _greedy_path(*args)

    monkeypatch.setattr(_config, "_greedy_path", planner)
    return calls


def contracted(operands, output, guard):
    """A contraction's table as bytes, or its refusal's message."""
    try:
        return _contract(operands, output, guard).tobytes()
    except SizeLimitExceeded as exc:
        return f"refused: {exc}"


class TestPlanCache:
    @pytest.fixture
    def empty(self, monkeypatch):
        """Installs and returns an empty plan cache, by default with the
        package's budget: the next call of every network is cold."""

        def install(limit=None):
            fresh = BoundedCache(_config._PLANS.limit if limit is None else limit)
            monkeypatch.setattr(_config, "_PLANS", fresh)
            return fresh

        return install

    def test_a_plan_is_kept_from_the_first_call(self, empty):
        plans = empty()
        operands = [(np.ones(2), ["i"]), (np.ones((2, 3)), ["i", "j"])]
        tables = []
        for _ in range(3):
            tables.append(_contract(operands, ["j"]))
            assert len(plans.entries) == 1 and plans.load == 1  # one plan of one step
        assert all(np.array_equal(t, tables[0]) for t in tables)

    @FAMILIES
    def test_refusals_from_a_kept_plan_match_a_cold_call(self, monkeypatch, empty, family, make):
        model = make(all_test_graphs()["bilocality"], 2, seed=0)
        outcomes = set()
        for guard in (2**k for k in range(14)):
            plans = empty()
            cold = outcome(lambda: family.evaluate(model, max_states=guard))
            # a quantum superoperator above the guard is refused before any contraction
            early = str(cold).startswith("refused: superoperator")
            assert len(plans.entries) == (0 if early else 1)  # the cold call keeps its plan or refusal
            family.evaluate(model)  # a plan kept under the default guard
            assert len(plans.entries) == (1 if early else 2)
            # the calls under the guard run from the kept plan or refusal
            assert [outcome(lambda: family.evaluate(model, max_states=guard)) for _ in range(2)] == [cold, cold]
            with monkeypatch.context() as m:
                m.setenv("CC_MAX_STATE_SPACE", str(guard))
                assert [outcome(lambda: family.evaluate(model)) for _ in range(2)] == [cold, cold]
            assert len(plans.entries) == (1 if early else 2)
            outcomes.add(cold.split(" of ")[0] if isinstance(cold, str) else "table")
        # some guards refuse the contraction and some let it run
        assert {"refused: contraction array", "table"} <= outcomes

    @FAMILIES
    def test_new_values_on_a_kept_structure(self, monkeypatch, empty, family, make):
        for name, g in all_test_graphs().items():
            plans = empty()
            for _ in range(2):
                family.evaluate(make(g, 2, seed=0))
            kept = len(plans.entries)
            model = make(g, 2, seed=1)
            table = family.evaluate(model).table
            assert kept >= 1 and len(plans.entries) == kept, name  # the same networks: no new plan
            empty()
            assert np.array_equal(family.evaluate(model).table, table), name  # bit-identical to a call with no plan
            with monkeypatch.context() as m:
                m.setattr(family, "_contract", einsum_path_contract)
                expected = family.evaluate(model).table
            assert np.abs(table - expected).max() <= 1e-15, name

    def test_a_kept_network_is_not_planned_again(self, monkeypatch, empty):
        empty()
        model = cm.random_model(all_test_graphs()["triangle"], 2, seed=0)
        cm.evaluate(model)
        table = cm.evaluate(model).table

        def no_planning(*args):
            raise AssertionError("planned again")

        monkeypatch.setattr(_config, "_greedy_path", no_planning)
        assert np.array_equal(cm.evaluate(cm.random_model(model.graph, 2, seed=0)).table, table)
        with pytest.raises(AssertionError, match="planned again"):
            cm.evaluate(model, max_states=10**9)  # another guard: another plan

    def test_load_stays_within_the_step_budget_oldest_dropped_first(self, empty):
        assert _config._PLANS.limit == MAX_PLAN_STEPS
        plans = empty(limit=41)
        inserted = []
        for n in range(1, 60):
            operands, output = chain(n)
            if n % 2 == 0:
                operands, output = operands[:2], ["j"]  # planned in one step
            _contract(operands, output)
            inserted.append(list(plans.entries)[-1])
            with pytest.raises(SizeLimitExceeded):
                _contract(operands, output, max_states=1)
            inserted.append(list(plans.entries)[-1])
            assert plans.load == sum(weight for _, weight in plans.entries.values()) <= 41
        weights = {(len(plan[0]), weight) for plan, weight in plans.entries.values()}
        assert weights == {(0, 1), (1, 1), (2, 2)}  # a plan weighs its steps, a refusal one
        kept = list(plans.entries)
        assert 20 < len(kept) < len(inserted) and kept == inserted[-len(kept):]  # the oldest went first

    def test_a_cycle_of_200_networks_is_planned_once(self, monkeypatch, empty):
        empty()
        planned = counting_planner(monkeypatch)
        networks = [chain(n) for n in range(1, 201)]
        first = [_contract(*network).tobytes() for network in networks]
        assert len(planned) == 200
        assert [_contract(*network).tobytes() for network in networks] == first
        assert len(planned) == 200  # none planned in the second cycle

    def test_renamed_labels_share_a_plan_and_give_the_same_bits(self, monkeypatch, empty):
        for seed in range(40):
            masks, out_mask, sizes, guard = random_network(seed)
            rng = np.random.default_rng(seed)
            arrays = [rng.random([sizes[i] for i in bits(m)]) for m in masks]
            named, renamed = [], []
            for array, m in zip(arrays, masks):
                named.append((array, [("index", i) for i in bits(m)]))
                renamed.append((array, [f"edge {99 - i}" for i in bits(m)]))
            out = list(reversed(bits(out_mask)))
            plans = empty()
            planned = counting_planner(monkeypatch)
            cold = contracted(named, [("index", i) for i in out], guard)
            assert len(planned) == 1 and len(plans.entries) == 1, seed
            warm = contracted(renamed, [f"edge {99 - i}" for i in out], guard)
            assert len(planned) == 1 and len(plans.entries) == 1, seed
            assert warm == cold, seed
            monkeypatch.undo()

    def test_networks_that_share_other_axes_keep_their_own_plans(self, empty):
        plans = empty()
        rng = np.random.default_rng(0)
        a, b = rng.random((2, 2)), rng.random((2, 2))
        # the same shapes and label counts; only which axes share a label differs
        networks = [
            ([(a, "ij"), (b, "jk")], "ik"),
            ([(a, "ij"), (b, "ik")], "jk"),
            ([(a, "ij"), (b, "ki")], "jk"),
            ([(a, "ij"), (b, "ij")], "ij"),
            ([(a, "ij"), (b, "ji")], "ij"),
        ]
        for operands, output in networks:
            expected = np.einsum(",".join(subs for _, subs in operands) + "->" + output, a, b)
            for _ in range(2):
                assert np.abs(_contract([(x, list(subs)) for x, subs in operands], list(output)) - expected).max() <= 1e-15
        assert len(plans.entries) == len(networks)


class TestBoundedCache:
    def test_oldest_entries_leave_until_a_new_one_fits(self):
        cache = BoundedCache(5)
        for key in "abc":
            cache.put(key, key.upper(), weight=2)
        assert list(cache.entries) == ["b", "c"] and cache.load == 4
        assert cache.get("a") is None and cache.get("c") == "C"
        cache.put("c", "C", weight=5)  # a key put again replaces its entry
        assert list(cache.entries) == ["c"] and cache.load == 5

    def test_an_entry_heavier_than_the_limit_is_not_kept(self):
        cache = BoundedCache(5)
        cache.put("a", "A")
        assert cache.put("b", "B", weight=6) == "B"
        assert list(cache.entries) == ["a"] and cache.load == 1

    def test_threads_sharing_one_lose_no_update(self):
        cache = BoundedCache(64)

        def fill(t):
            for i in range(2000):
                cache.put((t, i % 100), i, weight=1 + i % 3)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=fill, args=(t % 3,)) for t in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert cache.load == sum(weight for _, weight in cache.entries.values()) <= 64


class TestMaxStateSpace:
    def test_variable_overrides_the_default_and_an_argument_overrides_both(self, monkeypatch):
        monkeypatch.setenv("CC_MAX_STATE_SPACE", "4096")
        assert max_state_space() == 4096 and max_state_space(64) == 64
        assert max_state_space(np.int64(64)) == 64 and type(max_state_space(np.int64(64))) is int
        assert max_state_space(0) == 0

    @pytest.mark.parametrize("value", ["lots", "1e6", ""])
    def test_malformed_variable_names_itself(self, monkeypatch, value):
        monkeypatch.setenv("CC_MAX_STATE_SPACE", value)
        with pytest.raises(CausalCorrError, match=f"CC_MAX_STATE_SPACE={value!r} is not an integer"):
            max_state_space()

    @pytest.mark.parametrize("value", [float("inf"), float("nan"), 2.7, 2.0, True, False, -5, np.float64(64)])
    def test_an_override_that_is_not_a_non_negative_integer_is_refused(self, value):
        model = cm.random_model(all_test_graphs()["bell"], 2, seed=0)
        with pytest.raises(CausalCorrError, match=re.escape(f"max_states={value!r} is not a non-negative integer")):
            cm.evaluate(model, max_states=value)

    @pytest.mark.parametrize("value", ["-5", "-1"])
    def test_a_negative_variable_is_refused(self, monkeypatch, value):
        model = cm.random_model(all_test_graphs()["bell"], 2, seed=0)
        monkeypatch.setenv("CC_MAX_STATE_SPACE", value)
        with pytest.raises(CausalCorrError, match=f"CC_MAX_STATE_SPACE={value!r} is negative"):
            cm.evaluate(model)
