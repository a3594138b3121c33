"""The contraction core: the greedy planner against np.einsum_path, and
``_contract`` against the einsum_path-based core it replaced."""

import functools
import math
import operator

import numpy as np
import pytest

from causalcorr import classical as cm
from causalcorr import hbn as hm
from causalcorr import quantum as qm
from causalcorr._config import _contract, _greedy_path, max_state_space
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


class TestMaxStateSpace:
    def test_variable_overrides_the_default_and_an_argument_overrides_both(self, monkeypatch):
        monkeypatch.setenv("CC_MAX_STATE_SPACE", "4096")
        assert max_state_space() == 4096 and max_state_space(64) == 64

    @pytest.mark.parametrize("value", ["lots", "1e6", ""])
    def test_malformed_variable_names_itself(self, monkeypatch, value):
        monkeypatch.setenv("CC_MAX_STATE_SPACE", value)
        with pytest.raises(CausalCorrError, match=f"CC_MAX_STATE_SPACE={value!r} is not an integer"):
            max_state_space()
