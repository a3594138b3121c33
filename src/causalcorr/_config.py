"""Size guards, the guarded contraction core and environment switches."""

import itertools
import math
import numbers
import operator
import os
import sys
import threading

import numpy as np

from .errors import CausalCorrError, SizeLimitExceeded

DEFAULT_MAX_STATE_SPACE = 1 << 24
# Index entries kept by each factorisation cache, the oldest plan dropped first.  A
# dist._factor_plan holds per check its source and a cell index over that source
# (about twice the square root of the source's size), and weighs 1 plus those entries.
MAX_CACHED_INDEX_ENTRIES = 2**18


def max_state_space(override=None):
    """Effective state-space guard: ``override``, else CC_MAX_STATE_SPACE, else the default.

    A guard is a non-negative integer.  CausalCorrError is raised for any
    other override (a bool, a float, whole or not finite, a negative number)
    and for a variable that is not an integer or is negative.
    """
    if override is not None:
        if isinstance(override, bool) or not isinstance(override, numbers.Integral) or override < 0:
            raise CausalCorrError(f"max_states={override!r} is not a non-negative integer")
        return int(override)
    env = os.environ.get("CC_MAX_STATE_SPACE")
    if env is None:
        return DEFAULT_MAX_STATE_SPACE
    try:
        guard = int(env)
    except ValueError:
        raise CausalCorrError(f"CC_MAX_STATE_SPACE={env!r} is not an integer") from None
    if guard < 0:
        raise CausalCorrError(f"CC_MAX_STATE_SPACE={env!r} is negative")
    return guard


def check_tol(tol):
    """Raise CausalCorrError unless ``tol`` is a finite non-negative real number."""
    if not (isinstance(tol, numbers.Real) and 0 <= tol < math.inf):
        raise CausalCorrError(f"tol={tol!r} is not a finite non-negative number")


def _entries(mask, size):
    """Product of the index sizes of the bits set in ``mask``."""
    n = 1
    while mask:
        low = mask & -mask
        n *= size[low.bit_length() - 1]
        mask ^= low
    return n


_FIRST = operator.itemgetter(0)  # a candidate's (-removed entries, flop cost)


def _greedy_path(masks, out_mask, sizes, guard):
    """numpy's greedy contraction path, over bitmask index sets.

    ``masks[k]`` has bit i set when operand k carries index i, of size
    ``sizes[i]`` >= 1.  The rule is that of ``np.einsum_path(...,
    optimize=("greedy", guard))``, and the path too: scan every pair that
    shares an index, then only the pairs with the newest operand, keep the
    earlier candidates, and contract the first pair of least
    ``(-removed entries, flop cost)``.  A pair is sieved when its result
    exceeds ``guard`` or the path would cost more than the naive
    contraction; with no pair left, pairs without a shared index are
    scanned too, and then every operand is joined in one step.  An index
    leaves a pair when neither the output nor a third operand carries it,
    read from the masks of the indices seen at least twice and three times.

    Returns ``(path, largest, widest)``: the steps as (operand positions,
    mask of the step's result), the most entries any step allocates (a
    pair's result; every index of a step that joins more than two
    operands), and the most indices one step spans.
    """
    n = len(masks)
    every = 0
    for m in masks:
        every |= m
    if n <= 2 or every == out_mask:  # one step, as numpy leaves it to einsum
        kept = every & out_mask
        return [(tuple(range(n)), kept)], _entries(kept, sizes), every.bit_count()

    naive = _entries(every, sizes) * n  # numpy's cost of one einsum over all: n - 1 products and a sum
    live = list(masks)
    live_entries = [_entries(m, sizes) for m in masks]
    twice = thrice = 0
    path, known, largest, widest, path_cost = [], [], 0, 0, 0

    def candidate(x, y):
        a, b = live[x], live[y]
        union = a | b
        kept = union & (out_mask | thrice | (twice & ~(a & b)))
        full = live_entries[x] * live_entries[y] // _entries(a & b, sizes)
        size = full // _entries(union ^ kept, sizes)
        if size > guard:
            return None
        cost = full if kept == union else 2 * full
        if path_cost + cost > naive:
            return None
        return (size - live_entries[x] - live_entries[y], cost), x, y, kept, size

    pairs = itertools.combinations(range(n), 2)
    for _ in range(n - 1):
        once = twice = thrice = 0
        for m in live:
            thrice |= twice & m
            twice |= once & m
            once |= m
        known += filter(None, (candidate(x, y) for x, y in pairs if live[x] & live[y]))
        if not known:
            outer = itertools.combinations(range(len(live)), 2)
            known = list(filter(None, itertools.starmap(candidate, outer)))
            if not known:
                path.append((tuple(range(len(live))), once & out_mask))
                largest = max(largest, _entries(once if len(live) > 2 else once & out_mask, sizes))
                widest = max(widest, once.bit_count())
                break
        (_, cost), bx, by, kept, size = min(known, key=_FIRST)
        known = [
            (key, x - (x > bx) - (x > by), y - (y > bx) - (y > by), k, e)
            for key, x, y, k, e in known
            if x != bx and x != by and y != bx and y != by
        ]
        widest = max(widest, (live[bx] | live[by]).bit_count())
        del live[by], live[bx], live_entries[by], live_entries[bx]
        live.append(kept)
        live_entries.append(size)
        path.append(((bx, by), kept))
        path_cost += cost
        largest = max(largest, size)
        pairs = zip(range(len(live) - 1), itertools.repeat(len(live) - 1))
    return path, largest, widest


class BoundedCache:
    """Memo of weighted entries whose weights sum to at most ``limit``.

    Adding an entry drops the oldest ones until it fits; a value heavier
    than ``limit`` is not kept.  Threads may share one.
    """

    def __init__(self, limit):
        self.limit, self.load, self.entries = limit, 0, {}
        self.lock = threading.Lock()

    def get(self, key):
        hit = self.entries.get(key)
        return None if hit is None else hit[0]

    def put(self, key, value, weight=1):
        with self.lock:
            self.load -= self.entries.pop(key, (None, 0))[1]
            if weight <= self.limit:
                while self.load + weight > self.limit:
                    self.load -= self.entries.pop(next(iter(self.entries)))[1]
                self.entries[key] = value, weight
                self.load += weight
        return value


# Contraction plans kept by _contract, one per canonical network, weighed
# by their steps.  The budget holds every network a workload repeats: a
# structure pass over 10-14-node DAGs meets about 1,600 networks of 14,000
# steps in all.  Eviction is oldest first, so a cycle of networks heavier
# than the budget would replan every one of them on every pass.
MAX_PLAN_STEPS = 2**15
_PLANS = BoundedCache(MAX_PLAN_STEPS)
# numpy's names for sublist indices 0-51, so each step's string is the one
# np.einsum builds from the equivalent sublists
_EINSUM_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"


def _refuse(largest, widest, guard):
    if widest > 52:
        raise SizeLimitExceeded(f"a contraction step over {widest} indices exceeds einsum's 52")
    if largest > guard:
        raise SizeLimitExceeded(f"contraction array of {largest} entries exceeds the guard {guard}")


def _contract(operands, output, max_states=None):
    """Sum the product of ``(array, subscripts)`` operands onto ``output`` by einsum.

    Subscripts are hashable labels, one per axis; a label shared by several
    operands is one index.  The path is numpy's greedy pairwise path, with
    the guard as its memory limit (:func:`_greedy_path`), and planning it
    gives every array the contraction allocates: each pairwise intermediate,
    and for a step that joins more than two operands (the fallback when no
    pair fits) the full index space it loops over.  SizeLimitExceeded is
    raised, before any arithmetic, when an operand, such an array or the
    output has more entries than ``max_state_space(max_states)``, or when one
    step spans more indices than einsum's 52; the network as a whole may
    have any number.  The steps then run one einsum call each, over indices
    numbered within the step.

    The plan depends only on the network's canonical key, one flat tuple of
    ints: the guard, then per operand its number of axes, its labels
    numbered by first appearance and its shape, then the output's label
    numbers.  Networks whose labels differ only in name share a plan, and
    the key holds no label.  Every plan is kept from its first call: per
    step its einsum string, its flag and the positions it pops, then the
    final transpose, the largest array and the widest step.  The cache
    holds at most ``MAX_PLAN_STEPS`` steps (a refusal weighs one) and drops
    the oldest plans first, so networks that come back in a cycle heavier
    than that are planned again on every call.  Both refusals are checked
    from the kept numbers on every call, before any arithmetic.
    """
    if not operands:  # the empty product
        return np.ones(())
    guard = max_state_space(max_states)
    number = {}
    key = [guard]
    for array, subs in operands:
        key.append(len(subs))
        for i in subs:  # a loop: a comprehension per operand costs more here
            key.append(number.setdefault(i, len(number)))
        key += array.shape
    for i in output:
        key.append(number[i])
    key = tuple(key)
    plan = _PLANS.get(key)
    if plan is None:
        plan = _plan(key, len(operands))
        _PLANS.put(key, plan, len(plan[0]) or 1)
    steps, order, largest, widest = plan
    _refuse(largest, widest, guard)
    arrays = [array for array, _ in operands]
    for step in steps:  # (einsum string, flag, *popped positions)
        arrays.append(np.einsum(step[0], *map(arrays.pop, step[2:]), optimize=step[1]))
    return arrays[0].transpose(order)


def _plan(key, n):
    """The plan of a canonical key over ``n`` operands (see :func:`_contract`);
    a refused plan has no steps."""
    guard, at, size, masks, ops, largest = key[0], 1, {}, [], [], 0
    for _ in range(n):
        rank = key[at]
        bits, shape = key[at + 1:at + 1 + rank], key[at + 1 + rank:at + 1 + 2 * rank]
        at += 1 + 2 * rank
        size.update(zip(bits, shape))
        mask = 0
        for b in bits:
            mask |= 1 << b
        masks.append(mask)
        ops.append(bits)
        largest = max(largest, math.prod(shape))
    out = key[at:]
    out_mask = 0
    for b in out:
        out_mask |= 1 << b
    path, planned, widest = _greedy_path(masks, out_mask, size, guard)
    largest = max(largest, planned)
    if widest > 52 or largest > guard:
        return (), (), largest, widest
    steps = []
    for step, kept in path:
        popped = sorted(step, reverse=True)
        local, subs = {}, []
        for bits in map(ops.pop, popped):
            subs.append("".join([local.setdefault(b, _EINSUM_LETTERS[len(local)]) for b in bits]))
        bits = [b for b in sorted(local) if kept >> b & 1]
        result = "".join(map(local.__getitem__, bits))
        # numpy's optimized pairwise contraction (BLAS) pays off above about
        # 2^14 terms; below that its set-up costs more than the plain loop
        optimize = math.prod(map(size.__getitem__, local)) > 1 << 14
        ops.append(bits)
        # plans share most of their steps' strings: interned, each is held once
        steps.append((sys.intern(",".join(subs) + "->" + result), optimize, *popped))
    bits, = ops
    return tuple(steps), tuple(bits.index(b) for b in out), largest, widest
