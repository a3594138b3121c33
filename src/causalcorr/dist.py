"""Dense joint probability tables over finite variables.

Tables are numpy arrays whose shape is the tuple of alphabet sizes, stored in
row-major order, so flat index and outcome tuple correspond the usual way.
Desk-scale only: total table size is capped (override with CC_MAX_STATE_SPACE).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadEpsilon,
    OverlappingSets,
    ShapeMismatch,
    SizeLimitExceeded,
    UnknownVariable,
    VariableCollision,
    VariableMismatch,
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
    within ``norm_tol`` unless the table is flagged ``unnormalized``.

    Marginals remember the table they were derived from (``_root``), so
    summing out variables in stages is bit-identical to summing them out in
    one step: both end up as the same single numpy reduction over the root.
    """

    variables: tuple[tuple[str, int], ...]
    table: np.ndarray
    unnormalized: bool = False
    norm_tol: float = DEFAULT_NORM_TOL
    _root: np.ndarray | None = field(default=None, repr=False, compare=False)
    _root_axes: tuple[int, ...] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.variables = tuple((str(v), int(k)) for v, k in self.variables)
        sizes = tuple(k for _, k in self.variables)
        if any(k < 1 for k in sizes):
            raise ShapeMismatch("alphabet sizes must be >= 1")
        total = math.prod(sizes)  # exact: an int64 product can wrap below the guard
        if total > max_state_space():
            raise SizeLimitExceeded(f"table with {total} entries exceeds the size guard")
        ids = [v for v, _ in self.variables]
        if len(set(ids)) != len(ids):
            raise VariableCollision(f"duplicate variable ids in {ids}")
        self.table = np.asarray(self.table, dtype=float).reshape(sizes)
        s = float(self.table.sum())
        if not math.isfinite(s):  # a NaN or infinite entry makes the sum so
            raise ShapeMismatch("table has a non-finite entry")
        if np.any(self.table < 0):
            worst = float(self.table.min())
            raise ShapeMismatch(f"negative table entry {worst}")
        if not self.unnormalized and abs(s - 1.0) > self.norm_tol:
            raise ShapeMismatch(f"table sums to {s}, not 1 within {self.norm_tol}")
        if self._root is None:
            self._root = self.table
            self._root_axes = tuple(range(self.table.ndim))

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
        """Same distribution with the variables permuted into the given order."""
        at = {v: i for i, (v, _) in enumerate(self.variables)}
        if set(order) != at.keys() or len(order) != len(at):
            raise VariableMismatch(f"{order} is not a permutation of {tuple(at)}")
        perm = [at[v] for v in order]
        return JointDistribution(
            variables=tuple(self.variables[i] for i in perm),
            table=np.transpose(self.table, perm),
            unnormalized=self.unnormalized,
            norm_tol=self.norm_tol,
            _root=self._root,
            _root_axes=tuple(self._root_axes[i] for i in perm),
        )


def marginal(dist: JointDistribution, keep) -> JointDistribution:
    """Sum out all variables not in ``keep``; kept variables keep their relative order.

    The reduction always runs over the root table in one numpy call, so
    ``marginal(marginal(P, A), B)`` equals ``marginal(P, B)`` exactly.
    """
    keep = set(keep)
    unknown = keep - set(dist.var_ids)
    if unknown:
        raise UnknownVariable(f"unknown variables {sorted(unknown)}")
    return _summed_onto(dist, [i for i, (v, _) in enumerate(dist.variables) if v in keep])


def _summed_onto(dist: JointDistribution, positions) -> JointDistribution:
    """``dist`` summed onto its variables at ``positions``, distinct, in that order.

    One numpy reduction over the root table, then one transpose; the result
    is validated once and remembers the root.
    """
    root_axes = [dist._root_axes[i] for i in positions]
    removed = tuple(sorted(set(range(dist._root.ndim)) - set(root_axes)))
    table = dist._root.sum(axis=removed) if removed else dist._root
    # numpy leaves the surviving axes in root order; restore the order asked for
    rank = {ax: i for i, ax in enumerate(sorted(root_axes))}
    return JointDistribution(
        tuple([dist.variables[i] for i in positions]),
        np.transpose(table, [rank[ax] for ax in root_axes]),
        unnormalized=dist.unnormalized,
        norm_tol=dist.norm_tol,
        _root=dist._root,
        _root_axes=tuple(root_axes),
    )


@dataclass
class ConditionalTable:
    """Conditionals of targets given tuples of given-variable values.

    ``probs[given_tuple + target_tuple]`` is the conditional probability; rows
    whose given-tuple has marginal probability below ``zero_tol`` are undefined
    (``defined`` is False there and the row is all zero).
    """

    targets: tuple[tuple[str, int], ...]
    givens: tuple[tuple[str, int], ...]
    probs: np.ndarray
    defined: np.ndarray
    zero_tol: float = DEFAULT_ZERO_TOL


def conditional(
    dist: JointDistribution, targets, givens, zero_tol: float = DEFAULT_ZERO_TOL
) -> ConditionalTable:
    """Conditional distribution of ``targets`` given ``givens``.

    Variables outside both sets are marginalized out first: one sum over the
    root table, transposed straight into givens-then-targets order, so the
    table equals ``marginal`` followed by ``reorder`` bit for bit and is
    validated once.  Only given-tuples with marginal probability above
    ``zero_tol`` get a (normalized) row.
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
    defined = weights > zero_tol
    safe = np.where(defined, weights, 1.0)
    probs = sub.table / safe.reshape(given_shape + (1,) * len(target_vars))
    probs = np.where(defined.reshape(given_shape + (1,) * len(target_vars)), probs, 0.0)
    return ConditionalTable(
        targets=target_vars, givens=given_vars, probs=probs, defined=defined, zero_tol=zero_tol
    )


def product(d1: JointDistribution, d2: JointDistribution) -> JointDistribution:
    """Outer product of two distributions over disjoint variable sets."""
    shared = set(d1.var_ids) & set(d2.var_ids)
    if shared:
        raise VariableCollision(f"shared variables {sorted(shared)}")
    table = np.multiply.outer(d1.table, d2.table)
    return JointDistribution(
        d1.variables + d2.variables,
        table,
        unnormalized=d1.unnormalized or d2.unnormalized,
        norm_tol=max(d1.norm_tol, d2.norm_tol),
    )


def _factor_axes(var_ids, groups) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The axes of :func:`_deviation_kernel` for a table over ``var_ids`` and disjoint ``groups``.

    Returns the table axes outside every group (summed out to form the
    joint), and per group the joint's axes that lie outside it (summed out
    to form that group's marginal); the joint keeps its axes in table order.
    """
    axis_of = {v: i for i, v in enumerate(var_ids)}
    group_axes = []
    for group in groups:
        unknown = set(group) - axis_of.keys()
        if unknown:
            raise UnknownVariable(f"unknown variables {sorted(unknown)}")
        group_axes.append({axis_of[v] for v in group})
    union = set().union(*group_axes)
    if len(union) != sum(len(axes) for axes in group_axes):
        raise OverlappingSets("the groups share a variable")
    summed = tuple(i for i in range(len(var_ids)) if i not in union)
    kept = sorted(union)
    sides = tuple(tuple(i for i, ax in enumerate(kept) if ax not in axes) for axes in group_axes)
    return summed, sides


def _deviation_kernel(table: np.ndarray, summed, sides) -> float:
    """Largest |P(G1 ∪ … ∪ Gk) − P(G1)···P(Gk)| over the groups' joint marginal:
    one sum of ``table`` onto it, and each group's marginal summed from it with
    ``keepdims`` so that the product broadcasts; axes from :func:`_factor_axes`."""
    joint = table.sum(axis=summed) if summed else table
    prod = 1.0
    for others in sides:
        prod = prod * joint.sum(axis=others, keepdims=True)
    return float(np.abs(joint - prod).max())


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
        self.domain = tuple(int(k) for k in self.domain)
        self.map = np.asarray(self.map, dtype=np.int64)
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
    if not (0.0 <= eps <= 1.0):
        raise BadEpsilon(f"eps={eps} outside [0, 1]")
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


def dist_to_dict(dist: JointDistribution) -> dict:
    return {
        "vars": [{"id": v, "size": k} for v, k in dist.variables],
        "probs": [float(x) for x in dist.table.ravel()],
    }


def dist_from_dict(data: dict, norm_tol: float = DEFAULT_NORM_TOL) -> JointDistribution:
    """Parse the distribution JSON schema; unknown fields are rejected."""
    variables, probs = _schema.fields(data, "distribution JSON", {"vars": list, "probs": list})
    variables = [_schema.fields(v, "distribution JSON variable", {"id": str, "size": int}) for v in variables]
    probs = _schema.table(probs, "distribution JSON probs", [k for _, k in variables])
    return JointDistribution(tuple(variables), probs, norm_tol=norm_tol)


def coarse_graining_from_dict(data: dict) -> CoarseGraining:
    """Parse the coarse-graining JSON schema; unknown fields are rejected."""
    what = "coarse-graining JSON"
    domain, codomain, cg_map = _schema.fields(data, what, {"domain": list, "codomain": int, "map": list})
    domain = tuple(_schema.numbers(domain, f"{what} domain", (None,), int).tolist())
    return CoarseGraining(domain, codomain, _schema.numbers(cg_map, f"{what} map", (None,), int))
