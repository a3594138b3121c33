"""Size guards, the guarded contraction core and environment switches."""

import itertools
import math
import os
import threading

import numpy as np

from .errors import CausalCorrError, SizeLimitExceeded

DEFAULT_MAX_STATE_SPACE = 1 << 24
DEFAULT_MAX_PUSHBACK_ALPHABET = 1 << 20
# Disjoint-past pairs listed before graph.maximal_disjoint_past_pairs refuses:
# the most that any graph of 14 or fewer nodes has (the 14-node antichain)
DEFAULT_MAX_PAIRS = 2**13 - 1
# Disjoint-past pairs kept, over all graphs held, by the pair and
# factorisation caches of graph.maximal_disjoint_past_pairs and
# correlation.is_correlation (and factorisation checks, by that of
# bell.check_free_will_no_signalling); a graph with more pairs is not kept
MAX_CACHED_PAIRS = 2**11


def max_state_space(override=None):
    """Effective state-space guard; CC_MAX_STATE_SPACE takes precedence over the default."""
    if override is not None:
        return int(override)
    env = os.environ.get("CC_MAX_STATE_SPACE")
    if env is None:
        return DEFAULT_MAX_STATE_SPACE
    try:
        return int(env)
    except ValueError:
        raise CausalCorrError(f"CC_MAX_STATE_SPACE={env!r} is not an integer") from None


def _entries(mask, size):
    """Product of the index sizes of the bits set in ``mask``."""
    n = 1
    while mask:
        low = mask & -mask
        n *= size[low.bit_length() - 1]
        mask ^= low
    return n


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
        (_, cost), bx, by, kept, size = min(known, key=lambda c: c[0])
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


# Contraction plans kept by _contract, one per network: repeated evaluation
# of the five standard graphs meets 65 distinct networks.  A plan is kept
# from a network's second sighting among the last MAX_CACHED_PLANS networks
# contracted without one (their hashes are in _SEEN): keeping the plan of
# every network met once made such networks cost more than planning alone.
MAX_CACHED_PLANS = 128
_PLANS = BoundedCache(MAX_CACHED_PLANS)
_SEEN = BoundedCache(MAX_CACHED_PLANS)


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

    The plan depends only on each operand's labels and shape, the output
    labels and the guard.  A network that comes back within the last
    ``MAX_CACHED_PLANS`` networks contracted without a plan has its plan
    recorded during that run and kept under them (at most
    ``MAX_CACHED_PLANS`` networks, the oldest dropped first): its steps'
    sublists and einsum flags, the final transpose, the largest array and
    the widest step.  A kept network skips the labelling and the planning,
    and both refusals are checked from the kept numbers on every call,
    before any arithmetic.
    """
    if not operands:  # the empty product
        return np.ones(())
    guard = max_state_space(max_states)
    key = (tuple([(tuple(subs), array.shape) for array, subs in operands]), tuple(output), guard)
    arrays = [array for array, _ in operands]
    plan = _PLANS.get(key)
    if plan is None:
        seen = hash(key)
        record = _SEEN.get(seen) is not None
        if not record:
            _SEEN.put(seen, True)
        return _plan_and_contract(arrays, key, record)
    steps, order, largest, widest = plan
    _refuse(largest, widest, guard)
    for popped, subs, kept, optimize in steps:
        args = []
        for i, sub in zip(popped, subs):
            args += (arrays.pop(i), sub)
        args.append(kept)
        arrays.append(np.einsum(*args, optimize=optimize))
    return arrays[0].transpose(order)


def _plan_and_contract(arrays, key, record):
    """Plan a network, then run each step; with ``record``, keep the plan."""
    operands, output, guard = key
    label, size, masks, ops, largest = {}, {}, [], [], 0
    for array, (subs, shape) in zip(arrays, operands):
        bits, mask = [], 0
        for i, n in zip(subs, shape):
            b = label.setdefault(i, len(label))
            size[b] = n
            bits.append(b)
            mask |= 1 << b
        masks.append(mask)
        ops.append((array, bits))
        largest = max(largest, array.size)
    out = [label[i] for i in output]
    out_mask = 0
    for b in out:
        out_mask |= 1 << b
    path, planned, widest = _greedy_path(masks, out_mask, size, guard)
    largest = max(largest, planned)
    if widest > 52 or largest > guard:
        if record:
            _PLANS.put(key, (None, None, largest, widest))
        _refuse(largest, widest, guard)
    steps = []
    for step, kept in path:
        popped = sorted(step, reverse=True)
        local, args, subs = {}, [], []
        for array, bits in [ops.pop(i) for i in popped]:
            subs.append([local.setdefault(b, len(local)) for b in bits])
            args += (array, subs[-1])
        bits = [b for b in range(kept.bit_length()) if kept >> b & 1]
        args.append([local[b] for b in bits])
        # numpy's optimized pairwise contraction (BLAS) pays off above about
        # 2^14 terms; below that its set-up costs more than the plain loop
        optimize = math.prod(size[b] for b in local) > 1 << 14
        ops.append((np.einsum(*args, optimize=optimize), bits))
        steps.append((popped, subs, args[-1], optimize))
    (array, bits), = ops
    order = [bits.index(b) for b in out]
    if record:
        _PLANS.put(key, (steps, order, largest, widest))
    return array.transpose(order)
