"""Size guards, the guarded contraction core and environment switches."""

import math
import os

import numpy as np

from .errors import SizeLimitExceeded

DEFAULT_MAX_STATE_SPACE = 1 << 24
DEFAULT_MAX_PUSHBACK_ALPHABET = 1 << 20
DEFAULT_MAX_STRATEGIES = 10**6
# Disjoint-past pairs listed before graph.maximal_disjoint_past_pairs refuses:
# the most that any graph of 14 or fewer nodes has (the 14-node antichain)
DEFAULT_MAX_PAIRS = 2**13 - 1


def max_state_space(override=None):
    """Effective state-space guard; CC_MAX_STATE_SPACE takes precedence over the default."""
    if override is not None:
        return int(override)
    env = os.environ.get("CC_MAX_STATE_SPACE")
    if env is not None:
        return int(env)
    return DEFAULT_MAX_STATE_SPACE


def _contract(operands, output, max_states=None):
    """Sum the product of ``(array, subscripts)`` operands onto ``output`` by einsum.

    Subscripts are hashable labels, one per axis; a label shared by several
    operands is one index.  numpy's greedy pairwise path is computed once,
    with the guard as its memory limit.  Walking it gives every array the
    contraction allocates: each pairwise intermediate, and for a step that
    joins more than two operands (numpy's fallback when no pair fits) the
    full index space it loops over.  SizeLimitExceeded is raised, before any
    arithmetic, when an operand, such an array or the output has more
    entries than ``max_state_space(max_states)``, or when there are more
    indices than einsum's 52.  The steps then run one einsum call each.
    """
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
        # numpy's optimized pairwise contraction (BLAS) pays off above about
        # 2^14 terms; below that its set-up costs more than the plain loop
        ops.append((np.einsum(*[x for op in joined for x in op], kept, optimize=work > 1 << 14), kept))
    (array, subs), = ops
    return np.einsum(array, subs, out)
