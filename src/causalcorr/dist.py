"""Dense joint probability tables over finite variables.

Tables are numpy arrays whose shape is the tuple of alphabet sizes, stored in
row-major order, so flat index and outcome tuple correspond the usual way.
Desk-scale only: total table size is capped (override with CC_MAX_STATE_SPACE).
The readers of numeric JSON arrays live here too, so that ``_schema``, and
with it a graph-only command, loads no numpy.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadEpsilon,
    OverlappingSets,
    SchemaError,
    ShapeMismatch,
    SizeLimitExceeded,
    UnknownVariable,
    VariableCollision,
    VariableMismatch,
    as_size,
)
from . import _schema
from ._config import max_state_space

DEFAULT_NORM_TOL = 1e-9
DEFAULT_ZERO_TOL = 1e-12


@dataclass
class JointDistribution:
    """Joint distribution of finitely many variables as one dense table.

    ``variables`` is an ordered tuple of ``(var_id, alphabet_size)``;
    ``table`` has exactly that shape.  Entries are non-negative and sum to 1
    within ``norm_tol``: the constructor checks this for tables from outside
    or from a computation; a table derived from a checked one (:meth:`reorder`,
    :func:`marginal`, :func:`conditional`) is not checked again.
    """

    variables: tuple[tuple[str, int], ...]
    table: np.ndarray
    norm_tol: float = DEFAULT_NORM_TOL

    def __post_init__(self):
        try:
            self.variables = tuple((str(v), as_size(k, "variable", v)) for v, k in self.variables)
        except (TypeError, ValueError):  # not a sequence of (id, size) pairs
            raise ShapeMismatch(f"variables {self.variables!r} are not (id, size) pairs") from None
        sizes = tuple(k for _, k in self.variables)
        if any(k < 1 for k in sizes):
            raise ShapeMismatch("alphabet sizes must be >= 1")
        total = math.prod(sizes)  # exact: an int64 product can wrap below the guard
        if total > max_state_space():
            raise SizeLimitExceeded(f"table with {total} entries exceeds the size guard")
        ids = [v for v, _ in self.variables]
        if len(set(ids)) != len(ids):
            raise VariableCollision(f"duplicate variable ids in {ids}")
        try:
            table = np.asarray(self.table)
        except ValueError:
            raise ShapeMismatch(f"table is a ragged nesting, expected {total} real numbers") from None
        if table.dtype.kind not in "biuf" or table.size != total:
            raise ShapeMismatch(f"table of {table.size} entries of dtype {table.dtype}, expected {total} real numbers")
        self.table = table.astype(float, copy=False).reshape(sizes)
        s = float(self.table.sum())
        if not math.isfinite(s):  # a NaN or infinite entry makes the sum so
            raise ShapeMismatch("table has a non-finite entry")
        if self.table.min() < 0:  # every entry is finite here
            raise ShapeMismatch(f"negative table entry {float(self.table.min())}")
        try:
            if not abs(s - 1.0) <= self.norm_tol:  # a NaN tolerance admits nothing
                raise ShapeMismatch(f"table sums to {s}, not 1 within {self.norm_tol}")
        except TypeError:
            raise ShapeMismatch(f"norm_tol={self.norm_tol!r} is not a number") from None

    @property
    def var_ids(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.variables)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(k for _, k in self.variables)

    def size_of(self, var_id: str) -> int:
        for v, k in self.variables:
            if v == var_id:
                return k
        raise UnknownVariable(f"unknown variable {var_id!r}")

    def reorder(self, order: list[str] | tuple[str, ...]) -> "JointDistribution":
        """The variables permuted into the given order: a transposed view, not checked again."""
        at = {v: i for i, (v, _) in enumerate(self.variables)}
        if set(order) != at.keys() or len(order) != len(at):
            raise VariableMismatch(f"{order} is not a permutation of {tuple(at)}")
        perm = [at[v] for v in order]
        return _derived(tuple(self.variables[i] for i in perm), np.transpose(self.table, perm), self.norm_tol)


def _derived(variables, table, norm_tol) -> JointDistribution:
    """A distribution whose table is a transpose or a sum of a checked table: built without the check."""
    dist = object.__new__(JointDistribution)
    dist.variables, dist.table, dist.norm_tol = variables, table, norm_tol
    return dist


def marginal(dist: JointDistribution, keep) -> JointDistribution:
    """Sum out all variables not in ``keep``, which keep their relative order; the sum is not checked again."""
    keep = set(keep)
    unknown = keep - set(dist.var_ids)
    if unknown:
        raise UnknownVariable(f"unknown variables {sorted(unknown)}")
    return _summed_onto(dist, [i for i, (v, _) in enumerate(dist.variables) if v in keep])


def _summed_onto(dist: JointDistribution, positions) -> JointDistribution:
    """``dist`` summed onto its variables at ``positions``, distinct, in that order.

    One numpy reduction over the table, then one transpose; the result is
    not validated again (:func:`_derived`).
    """
    removed = tuple(i for i in range(dist.table.ndim) if i not in positions)
    table = np.asarray(dist.table.sum(axis=removed)) if removed else dist.table  # a full sum is a numpy scalar
    # numpy leaves the surviving axes in table order; restore the order asked for
    rank = {ax: i for i, ax in enumerate(sorted(positions))}
    return _derived(tuple([dist.variables[i] for i in positions]),
                    np.transpose(table, [rank[ax] for ax in positions]), dist.norm_tol)


@dataclass
class ConditionalTable:
    """Conditionals of targets given tuples of given-variable values.

    ``probs[given_tuple + target_tuple]`` is the conditional probability; rows
    whose given-tuple has marginal probability at most ``DEFAULT_ZERO_TOL``
    are undefined (``defined`` is False there and the row is all zero).
    """

    targets: tuple[tuple[str, int], ...]
    givens: tuple[tuple[str, int], ...]
    probs: np.ndarray
    defined: np.ndarray


def conditional(dist: JointDistribution, targets, givens) -> ConditionalTable:
    """Conditional distribution of ``targets`` given ``givens``.

    Variables outside both sets are marginalized out first: one sum over the
    table, transposed straight into givens-then-targets order, so the table
    equals ``marginal`` followed by ``reorder`` bit for bit and is not
    validated again.  Only given-tuples with marginal probability above
    ``DEFAULT_ZERO_TOL`` get a (normalized) row.
    """
    targets = list(targets)
    givens = list(givens)
    if set(targets) & set(givens):
        raise OverlappingSets(f"targets and givens overlap: {set(targets) & set(givens)}")
    at = {v: i for i, (v, _) in enumerate(dist.variables)}
    for v in targets + givens:
        if v not in at:
            raise UnknownVariable(f"unknown variable {v!r}")
    order = tuple(givens) + tuple(targets)
    if len(set(order)) != len(order):
        raise VariableMismatch(f"{order} is not a permutation of {tuple(v for v in at if v in order)}")
    sub = _summed_onto(dist, [at[v] for v in order])
    g = len(givens)
    given_vars = sub.variables[:g]
    target_vars = sub.variables[g:]
    given_shape = tuple(k for _, k in given_vars)
    target_axes = tuple(range(g, len(sub.variables)))
    weights = sub.table.sum(axis=target_axes) if target_axes else sub.table
    weights = np.asarray(weights).reshape(given_shape)
    defined = weights > DEFAULT_ZERO_TOL
    safe = np.where(defined, weights, 1.0)
    probs = sub.table / safe.reshape(given_shape + (1,) * len(target_vars))
    probs = np.where(defined.reshape(given_shape + (1,) * len(target_vars)), probs, 0.0)
    return ConditionalTable(targets=target_vars, givens=given_vars, probs=probs, defined=defined)


def _factor_plan(variables, checks):
    """The plan of :func:`_deviations` for ``checks`` over ``variables``, each check a tuple of disjoint groups.

    Checks run largest joint first.  Each sums its joint from the smallest
    joint already summed that holds its variables (of those over the same
    variables the first; a joint is offered only if smaller than its own
    source); the first source is the table.  A joint is laid out group by
    group, each group's variables in its source's order, so it reshapes to
    one axis per group.  Raveled source entry ``i`` lands in joint cell
    ``lead[i // len(trail)] + trail[i % len(trail)]`` (stride times digit,
    summed; stride 0 outside every group): ``lead`` runs over the source's
    first axes and ``trail`` over the rest, split where their lengths sum
    least, in the narrowest integer type that holds every cell.  Returns one
    step per check in run order: (source, check position, whether a later
    step reads its joint, lead as a column, trail, group sizes, per group
    the other groups' axes); joint 0 is the table, joint ``j`` step j's.
    """
    size = dict(variables)
    joints = [frozenset().union(*check) for check in checks]
    for check, joint in zip(checks, joints):
        if joint - size.keys():
            raise UnknownVariable(f"unknown variables {sorted(joint - size.keys())}")
        if sum(len(set(group)) for group in check) != len(joint):
            raise OverlappingSets("the groups share a variable")
    # per variable set summed, its first joint; in the order met, so largest first
    layouts, first, steps = [tuple(variables)], {frozenset(size): 0}, []
    for c in sorted(range(len(checks)), key=lambda c: math.prod(size[v] for v in joints[c]), reverse=True):
        src = next(j for have, j in reversed(first.items()) if joints[c] <= have)
        sizes, at = [k for _, k in layouts[src]], {v: i for i, (v, _) in enumerate(layouts[src])}
        order = [sorted({at[v] for v in group}) for group in checks[c]]
        flat = [a for axes in order for a in axes]
        shape = [math.prod(sizes[a] for a in axes) for axes in order]
        stride = {a: math.prod(sizes[b] for b in flat[j + 1:]) for j, a in enumerate(flat)}
        cut = min(range(len(sizes) + 1), key=lambda j: math.prod(sizes[:j]) + math.prod(sizes[j:]))
        lead, trail = (np.ravel(functools.reduce(np.add.outer, [stride.get(a, 0) * np.arange(sizes[a]) for a in part], 0))
                       .astype(np.min_scalar_type(math.prod(shape) - 1)) for part in (range(cut), range(cut, len(sizes))))
        sides = tuple(tuple(j for j in range(len(shape)) if j != g) for g in range(len(shape)))
        steps.append((src, c, lead[:, None], trail, tuple(shape), sides))
        if math.prod(shape) < math.prod(sizes):  # a joint no smaller than its source saves no sum
            first.setdefault(joints[c], len(layouts))
        layouts.append(tuple(layouts[src][a] for a in flat))
    read = {step[0] for step in steps}
    return tuple((src, c, j in read, *index) for j, (src, c, *index) in enumerate(steps, 1))


def _deviations(table: np.ndarray, plan) -> list[float]:
    """Each check's largest |P(G1 ∪ … ∪ Gk) − P(G1)···P(Gk)|, in the order the checks were given to
    :func:`_factor_plan`: one ``np.bincount`` of its source onto its joint, and each group's marginal
    summed from that joint.  A joint no later step reads is dropped at once."""
    joints, devs = [table.ravel()], [0.0] * len(plan)
    for src, c, read, lead, trail, shape, sides in plan:
        joint = np.bincount((lead + trail).ravel(), joints[src]).reshape(shape)
        joints.append(joint.ravel() if read else None)
        # np.add.reduce is ndarray.sum without its Python wrapper, which costs more than these small sums
        prod = functools.reduce(np.multiply, [np.add.reduce(joint, others, keepdims=True) for others in sides] or [1.0])
        devs[c] = float(np.abs(joint - prod).max())
    return devs


def tv_distance(d1: JointDistribution, d2: JointDistribution) -> float:
    """Total variation distance (half the L1 distance); requires identical variable lists."""
    if d1.variables != d2.variables:
        raise VariableMismatch(f"{d1.variables} vs {d2.variables}")
    return 0.5 * float(np.abs(d1.table - d2.table).sum())


@dataclass
class CoarseGraining:
    """A function from a product of finite factors onto a finite set."""

    domain: tuple[int, ...]
    codomain: int
    map: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.domain = tuple(as_size(k, "domain factor", i) for i, k in enumerate(self.domain))
        self.codomain = as_size(self.codomain, "coarse-graining", "codomain")
        try:
            self.map = np.asarray(self.map)
        except ValueError:
            raise ShapeMismatch(f"coarse-graining map is a ragged nesting, not {math.prod(self.domain)} integers") from None
        if self.map.dtype.kind not in "iu":  # a float would be truncated, a string parsed
            raise ShapeMismatch(f"coarse-graining map of {self.map.dtype} values, not integers")
        self.map = self.map.astype(np.int64)
        if min(self.domain, default=1) < 1 or self.map.size != math.prod(self.domain):
            raise ShapeMismatch(f"coarse-graining map of {self.map.size} values for the domain {self.domain}")
        self.map = self.map.reshape(self.domain)
        if self.map.size and (self.map.min() < 0 or self.map.max() >= self.codomain):
            raise ShapeMismatch("coarse-graining map has values outside the codomain")


@dataclass
class Factorization:
    """Per-factor surjections plus a composed map approximating a coarse-graining.

    ``factor_maps[k][x]`` is the image of factor value ``x`` in the reduced
    alphabet of factor ``k``; ``composed`` maps reduced tuples to the original
    codomain.  ``achieved_error`` is the exact probability (under the input
    distribution) that composing the factor maps with ``composed`` disagrees
    with the original map.
    """

    factor_maps: tuple[np.ndarray, ...]
    composed: np.ndarray
    achieved_error: float
    sizes: tuple[int, ...]


def _partition_error_and_g(p_table, f_map, labels, group_sizes):
    """Exact disagreement mass and the optimal composed map for a factor partition.

    The composed map sends each reduced cell to the map value carrying the
    most probability there, and the error is the summed probability of the
    tuples that disagree - computed by direct enumeration, so it is a sum of
    non-negative entries and never goes negative by cancellation.  The mass
    table has one column per value the map takes, not one per codomain value.
    """
    grids = np.meshgrid(*labels, indexing="ij")
    cells = np.ravel_multi_index(tuple(g.ravel() for g in grids), group_sizes)
    n_cells = int(np.prod(group_sizes, dtype=np.int64))
    values, taken = np.unique(f_map.ravel(), return_inverse=True)
    mass = np.zeros((n_cells, len(values)))
    np.add.at(mass, (cells, taken), p_table.ravel())
    g_flat = values[mass.argmax(axis=1)]
    # Zero-mass cells carry no error either way; pin them to the map value of
    # the first tuple (row-major) landing in the cell, for reproducibility.
    zero_cells = ~(mass.sum(axis=1) > 0)
    if zero_cells.any():
        _, first = np.unique(cells, return_index=True)
        first_value = np.zeros(n_cells, dtype=np.int64)
        first_value[np.unique(cells)] = f_map.ravel()[first]
        g_flat = np.where(zero_cells, first_value, g_flat)
    disagree = g_flat[cells] != f_map.ravel()
    err = float(p_table.ravel()[disagree].sum())
    return err, g_flat.reshape(group_sizes)


def factor_coarse_graining(
    dist: JointDistribution, cg: CoarseGraining, eps: float
) -> Factorization:
    """Factor a coarse-graining through per-factor compressions, up to error ``eps``.

    Starts from the identity factorization (always exact on finite sets) and
    greedily merges factor values whose merge keeps the exact disagreement
    probability within ``eps``; merge order is ascending factor index, then
    ascending value pairs.  The reported error is recomputed by full
    enumeration, never estimated.
    """
    try:
        if not (0.0 <= eps <= 1.0):
            raise BadEpsilon(f"eps={eps} outside [0, 1]")
    except TypeError:
        raise BadEpsilon(f"eps={eps!r} is not a number") from None
    if dist.sizes != cg.domain:
        raise ShapeMismatch(f"distribution sizes {dist.sizes} != coarse-graining domain {cg.domain}")
    # labels[k][x] is the group of factor value x; groups are numbered by their
    # smallest member, so merging group j into i < j relabels j to i and shifts
    # the groups above j down by one
    labels = [np.arange(size, dtype=np.int64) for size in cg.domain]
    sizes = cg.domain
    for k in range(len(sizes)):
        merged = True
        while merged:
            merged = False
            for i, j in itertools.combinations(range(sizes[k]), 2):
                trial = [*labels[:k], np.where(labels[k] == j, i, labels[k] - (labels[k] > j)), *labels[k + 1 :]]
                trial_sizes = (*sizes[:k], sizes[k] - 1, *sizes[k + 1 :])
                if _partition_error_and_g(dist.table, cg.map, trial, trial_sizes)[0] <= eps:
                    labels, sizes, merged = trial, trial_sizes, True
                    break

    err, g_map = _partition_error_and_g(dist.table, cg.map, labels, sizes)
    return Factorization(
        factor_maps=tuple(labels),
        composed=g_map,
        achieved_error=err,
        sizes=sizes,
    )


def _json_numbers(value, what, shape, dtype=float):
    """Nested JSON lists of numbers as a numpy array of ``shape``.

    ``shape`` gives the list length at each depth; None takes any length,
    the same for every list at that depth.  With ``dtype=float`` a number is
    a JSON int or float, with ``dtype=int`` an int only, and with
    ``dtype=complex`` a ``[re, im]`` pair of ints or floats.
    """
    dims = list(shape) + [2] * (dtype is complex)
    leaf = (int,) if dtype is int else (int, float)
    flat = []

    def walk(lst, depth):
        _schema.typed(lst, list, what)
        if dims[depth] is None:
            dims[depth] = len(lst)
        if len(lst) != dims[depth]:
            raise SchemaError(f"malformed {what}: a list of {len(lst)} entries, expected {dims[depth]}")
        if depth + 1 < len(dims):
            for item in lst:
                walk(item, depth + 1)
        elif all(type(x) in leaf for x in lst):
            flat.extend(lst)
        else:
            raise SchemaError(f"malformed {what}: expected {'integers' if dtype is int else 'numbers'}")

    walk(value, 0)
    try:
        arr = np.array(flat, dtype=np.int64 if dtype is int else float)
    except OverflowError:
        raise SchemaError(f"malformed {what}: a number out of range") from None
    arr = arr.reshape([0 if d is None else d for d in dims])  # None remains below an empty list
    return arr.view(complex)[..., 0] if dtype is complex else arr


def _json_table(value, what, shape):
    """A flat JSON list of numbers, row-major over ``shape``, as a float array of that shape."""
    if min(shape, default=1) < 1:
        raise SchemaError(f"malformed {what}: no table has the sizes {tuple(shape)}")
    return _json_numbers(value, what, (math.prod(shape),)).reshape(shape)


def dist_to_dict(dist: JointDistribution) -> dict:
    return {
        "vars": [{"id": v, "size": k} for v, k in dist.variables],
        "probs": [float(x) for x in dist.table.ravel()],
    }


def dist_from_dict(data: dict) -> JointDistribution:
    """Parse the distribution JSON schema; unknown fields are rejected."""
    variables, probs = _schema.fields(data, "distribution JSON", {"vars": list, "probs": list})
    variables = [_schema.fields(v, "distribution JSON variable", {"id": str, "size": int}) for v in variables]
    probs = _json_table(probs, "distribution JSON probs", [k for _, k in variables])
    return JointDistribution(tuple(variables), probs)


def coarse_graining_from_dict(data: dict) -> CoarseGraining:
    """Parse the coarse-graining JSON schema; unknown fields are rejected."""
    what = "coarse-graining JSON"
    domain, codomain, cg_map = _schema.fields(data, what, {"domain": list, "codomain": int, "map": list})
    domain = tuple(_json_numbers(domain, f"{what} domain", (None,), int).tolist())
    return CoarseGraining(domain, codomain, _json_numbers(cg_map, f"{what} map", (None,), int))
