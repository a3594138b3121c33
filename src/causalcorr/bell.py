"""n-party Bell scenarios: no-signalling checks, local-polytope membership by
LP over deterministic strategies, and classical and quantum model construction.

A scenario has one source node ``s`` and per party a setting node ``x{i}``
feeding a measurement node ``a{i}`` that also receives an edge from the
source.  Local-polytope membership is decided once per source outcome: the
shared hidden variable may absorb the source outcome, so response functions
need not be shared across source outcomes and the feasibility problems
decouple.

The scenario and its graph, :class:`BellScenario` and :func:`make_bell_graph`,
live in the numpy-free ``graph`` module and are imported from there.  The
model families load only when a model constructor runs, and ``fractions``
only when exact mode runs.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import _schema
from .dist import JointDistribution, _deviations, _factor_plan, _json_numbers, conditional, marginal
from .errors import IncompletePOVM, NotNoSignalling, ShapeMismatch, SizeLimitExceeded, SolverError
from .graph import BellScenario, make_bell_graph
from ._config import MAX_CACHED_INDEX_ENTRIES, BoundedCache, check_tol, max_state_space
from ._simplex import phase1_program, solve_phase1, solve_phase1_exact

EXACT_MODE_MAX_STRATEGIES = 4096


@dataclass
class NoSignallingVerdict:
    """Free-will and per-party no-signalling deviations (max-abs over entries)."""

    passes: bool
    freewill_deviation: float
    nosig_deviations: list[float]
    tol: float

    def to_dict(self) -> dict:
        return {
            "passes": self.passes,
            "freewill_deviation": self.freewill_deviation,
            "nosig_deviations": self.nosig_deviations,
            "tol": self.tol,
        }


# per (scenario, variables that matched it): the plan of its n + 1
# factorisation checks
_NOSIG_AXES = BoundedCache(MAX_CACHED_INDEX_ENTRIES)


def check_free_will_no_signalling(
    scenario: BellScenario, dist: JointDistribution, tol: float = 1e-9
) -> NoSignallingVerdict:
    """Check that settings and source are jointly independent and that each
    party's setting is independent of everything else jointly.

    Free will is the factorisation check over the singletons ``{x_1}, …,
    {x_n}, {s}``; no-signalling is one more per party, ``{x_i}`` against the
    other outcomes, the other settings and ``s``.  One ``dist._deviations``
    run makes all n + 1 checks, each no-signalling joint summed from the
    table and the free-will joint from the smallest of them.  This agrees
    with the generic disjoint-past factorization check on the scenario graph.
    ``tol`` must be finite and non-negative (CausalCorrError otherwise).  The
    distribution's variables must be the scenario graph's nodes with their
    alphabet sizes (any order).  The plan (``dist._factor_plan``) is kept
    under the scenario and the exact ``dist.variables`` that matched it (see
    ``MAX_CACHED_INDEX_ENTRIES``), so a call whose variables were matched
    before runs only the kernel.
    """
    check_tol(tol)
    key = (scenario, dist.variables)
    plan = _NOSIG_AXES.get(key)
    if plan is None:
        expected, got = dict(make_bell_graph(scenario).outcomes), dict(dist.variables)
        if got != expected:
            raise ShapeMismatch(f"distribution variables {got} do not match the scenario {expected}")
        xs, as_ = scenario.setting_ids(), scenario.outcome_ids()
        groups = [[{x} for x in xs] + [{"s"}]] + [({x}, set(xs + as_ + ["s"]) - {x, a}) for x, a in zip(xs, as_)]
        plan = _factor_plan(dist.variables, groups)
        _NOSIG_AXES.put(key, plan, 1 + sum(step[3].size + step[4].size for step in plan))
    freewill_dev, *nosig_devs = _deviations(dist.table, plan)
    passes = max(freewill_dev, *nosig_devs) <= tol
    return NoSignallingVerdict(passes, freewill_dev, nosig_devs, tol)


@dataclass
class LocalityVerdict:
    """Membership in the convex hull of deterministic strategies, with its certificate.

    When local, ``weights[s]`` maps strategies to their convex weights for
    each source outcome ``s``; a strategy is, per party, the tuple of its
    outcomes at each setting, 0 at a setting no defined setting tuple reads,
    and the weights reproduce the conditional within ``tol``
    (its Collins–Gisin rows exactly, in exact mode).  When not,
    ``inequality[s]`` maps (setting tuple, outcome tuple) pairs to the
    coefficients ``c`` of a Bell inequality ``sum c p(a|x) <= 0`` that every
    deterministic strategy satisfies within ``tol`` (exactly, in exact mode)
    and the input violates by ``max_residual``, its solver's phase-1 optimum:
    the least L1 residual of the Collins–Gisin LP for HiGHS, and in exact
    mode the tableau's one-sided residual, which is at least as large.
    ``solver`` names the solver, ``iterations`` sums its simplex iterations
    and ``lp_shape`` is the (rows, strategies) shape of the largest LP posed.
    """

    is_local: bool
    weights: dict[int, dict[tuple, float]] = field(default_factory=dict)
    max_residual: float = 0.0
    tol: float = 1e-7
    solver: str = "highs"
    iterations: int = 0
    lp_shape: tuple[int, int] = (0, 0)
    inequality: dict[int, dict[tuple, float]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        def keyed(by_source):
            return {
                str(s): {"|".join(",".join(map(str, part)) for part in k): v for k, v in terms.items()}
                for s, terms in by_source.items()
            }

        return {
            "is_local": self.is_local,
            "weights": keyed(self.weights),
            "max_residual": self.max_residual,
            "tol": self.tol,
            "solver": self.solver,
            "iterations": self.iterations,
            "lp_shape": list(self.lp_shape),
            "inequality": keyed(self.inequality),
        }


# allowance for float round-off in the certificate checks, on top of ``tol``
ROUND_OFF = 1e-12


def _collins_gisin(scenario: BellScenario, used, onehots, defined):
    """The Collins–Gisin row map ``C`` and strategy matrix ``A`` of one LP.

    A party's rows are the sum over outcomes at its first used setting
    (``used[i]`` lists the settings that some defined setting tuple reads),
    then one row per (used setting, outcome < m - 1); the LP's rows are the
    Kronecker product of the parties' rows, which under no-signalling
    determine the behaviour.  Each row reads one setting tuple; the rows
    that read a tuple ``defined`` leaves out are dropped.  ``C`` acts on
    (setting tuple, joint outcome) indices, and ``A`` is the Kronecker
    product of the per-party rows applied to the one-hot tensors.
    """
    n = scenario.n
    rows = []
    for xs, k, m in zip(used, scenario.settings, scenario.outcomes):
        r = np.zeros((1 + len(xs) * (m - 1), k, m))
        r[0, xs[0]] = 1.0
        r[np.arange(1, len(r)), np.repeat(xs, m - 1), np.tile(np.arange(m - 1), len(xs))] = 1.0
        rows.append(r.reshape(len(r), k * m))
    a_mat = functools.reduce(np.kron, [r @ o.reshape(len(r.T), -1) for r, o in zip(rows, onehots)])
    # the Kronecker product runs over (x1, a1, x2, a2, ...); reorder to (x1, ..., xn, a1, ..., an)
    sizes = [d for km in zip(scenario.settings, scenario.outcomes) for d in km]
    c_map = functools.reduce(np.kron, rows).reshape([-1] + sizes)
    c_map = c_map.transpose([0, *range(1, 2 * n, 2), *range(2, 2 * n + 1, 2)]).reshape(len(a_mat), len(defined), -1)
    if not defined.all():
        keep = ~c_map[:, ~defined].any(axis=(1, 2))
        c_map, a_mat = c_map[keep], a_mat[keep]
    return c_map.reshape(len(a_mat), -1), a_mat


# Bell LP plans kept by local_membership, one per (settings, outcomes, defined
# setting tuples), weighted by their array entries and their HiGHS object's
# (Phase1Program.entries), about 8 MB in all; the 7 plans of perfbench's
# locality mix weigh about 451,000 entries
MAX_CACHED_LP_ENTRIES = 1 << 20
_LP_PLANS = BoundedCache(MAX_CACHED_LP_ENTRIES)


def _lp_plan(scenario: BellScenario, used, counts, defined, exact=False):
    """The arrays of one Bell LP that depend only on the scenario's shape and
    ``defined``: ``(C, A, A's phase-1 program and its HiGHS object, answers,
    one-hot tensors)``.

    ``answers[i][x, j]`` is party i's outcome at setting x under strategy j,
    whose digits at the used settings count in ``itertools.product`` order,
    and 0 elsewhere; ``onehots[i][x, a, j]`` is 1 where it equals a.  The
    arrays are read-only and kept under ``(settings, outcomes,
    defined.tobytes())``, at most ``MAX_CACHED_LP_ENTRIES`` entries in all
    (the oldest plans dropped first).  The program is None until the plan's
    first float call builds it and adds its entries, so exact calls never load HiGHS.
    """
    key = (scenario.settings, scenario.outcomes, defined.tobytes())
    plan = _LP_PLANS.get(key)
    if plan is not None and (exact or plan[2] is not None):
        return plan
    if plan is None:
        answers, onehots = [], []
        for xs, k, m, count in zip(used, scenario.settings, scenario.outcomes, counts):
            answer = np.zeros((k, count), dtype=np.int64)
            answer[xs] = np.arange(count) // m ** np.arange(len(xs) - 1, -1, -1)[:, None] % m
            answers.append(answer)
            onehots.append((answer[:, None, :] == np.arange(m)[:, None]).astype(float))
        c_map, a_mat = _collins_gisin(scenario, used, onehots, defined)
        for array in (c_map, a_mat, *answers, *onehots):
            array.flags.writeable = False
        plan = c_map, a_mat, None, tuple(answers), tuple(onehots)
    c_map, a_mat, program, answers, onehots = plan
    program = None if exact else phase1_program(a_mat)  # keeps the read-only a_mat as its A
    weight = sum(a.size for a in (c_map, *answers, *onehots)) + (program.entries if program else 0)
    return _LP_PLANS.put(key, (c_map, a_mat, program, answers, onehots), weight)


def _respond(onehots, w):
    """``R w`` for the response tensor ``R[x, a, j]`` (1 when strategy ``j``
    answers the setting tuple ``x`` with the joint outcome ``a``), as a
    (setting tuples, joint outcomes) table per trailing column of ``w``.

    ``R`` is the Kronecker product of the per-party one-hot tensors
    ``onehot[x, a, j] = [strategy j answers setting x with a]``, so ``w`` is
    folded through each party's tensor in turn and ``R`` itself is never
    formed.
    """
    n = len(onehots)
    t = w.reshape([o.shape[2] for o in onehots] + list(w.shape[1:]))
    for o in onehots:
        t = np.tensordot(t, o, axes=([0], [2]))
    batch = t.ndim - 2 * n  # the axes after each party's (setting, outcome) pair are w's columns
    t = t.transpose([*range(batch), *range(batch, t.ndim, 2), *range(batch + 1, t.ndim, 2)])
    return t.reshape(t.shape[:batch] + (-1, math.prod(t.shape[batch + n :])))


def check_weights(rw, probs, w, slack):
    """Raise SolverError unless ``w >= 0`` and the response ``rw = R w`` is
    within ``slack`` of ``probs`` entrywise; float or ``Fraction`` arrays."""
    miss = np.abs(rw - probs).max()
    if not (w.min() >= 0 and miss <= slack):
        raise SolverError(f"the solver's weights miss the input by {float(miss):.3g} (slack {slack:.3g})")


def check_inequality(a_mat, b_vec, y, slack):
    """Raise SolverError unless ``y @ a_j <= slack`` for every column and
    ``y @ b > slack``; float or ``Fraction`` arrays."""
    top, value = (y @ a_mat).max(), y @ b_vec
    if not (top <= slack and value > slack):
        raise SolverError(f"the solver's Farkas vector fails its check: max y.a {float(top):.3g}, "
                          f"y.b {float(value):.3g} (slack {slack:.3g})")


def local_membership(
    scenario: BellScenario,
    dist: JointDistribution,
    tol: float = 1e-7,
    exact: bool = False,
) -> LocalityVerdict:
    """LP feasibility of the conditional inside the local polytope, per source outcome.

    Requires a finite ``tol`` >= 0 and a no-signalling input (both checked
    first).  For each source outcome that some setting tuple has positive
    probability with, an LP decides whether the conditional outcome
    distribution is a convex mixture of deterministic strategies.  Its columns
    are the strategies over the used settings, those that some such setting
    tuple reads: one column per response there, so a setting of probability 0
    adds no duplicate columns, and the weight keys give outcome 0 at the other
    settings.  Before any LP array is built, SizeLimitExceeded is raised when
    the rows times the larger of the strategies and the (setting tuple, joint
    outcome) entries exceed ``max_state_space()``.  The float path poses the LP
    on Collins–Gisin rows, solves the L1 phase-1 LP with HiGHS and checks the
    answer here: "local" weights must reproduce the full conditional within
    ``tol``, and a "not local" Farkas vector must be a Bell inequality that
    every strategy satisfies within ``tol`` and the input violates by more; an
    answer that fails its check raises SolverError.  ``exact=True`` poses the
    same Collins–Gisin LP, its rows ``C p`` summed in ``Fraction`` arithmetic
    from the inputs' binary float values, and solves it with the rational
    simplex for at most ``EXACT_MODE_MAX_STRATEGIES`` strategies posed; its
    weights must also reproduce the Collins–Gisin rows, and its Farkas vector
    must separate them, with no slack.  Exact mode thus decides the
    Collins–Gisin projection of the input exactly, while the input's
    signalling, and so the full conditional, is still checked within ``tol``.
    Raises SolverError when a solve stops early.  Both size limits are checked
    on every call, before the arrays that depend only on the scenario and the
    defined setting tuples are looked up (:func:`_lp_plan`); exact mode
    converts those to ``Fraction`` on each call.
    """
    ns = check_free_will_no_signalling(scenario, dist, tol=tol)
    if not ns.passes:
        raise NotNoSignalling(
            f"input violates free-will/no-signalling by "
            f"{max([ns.freewill_deviation] + ns.nosig_deviations)}"
        )
    cond = conditional(dist, targets=scenario.outcome_ids(), givens=scenario.setting_ids() + ["s"])
    n, n_x, n_a = scenario.n, math.prod(scenario.settings), math.prod(scenario.outcomes)
    probs = cond.probs.reshape(n_x, scenario.source_outcomes, n_a)
    defined = cond.defined.reshape(n_x, scenario.source_outcomes)

    verdict = LocalityVerdict(True, tol=tol, solver="exact" if exact else "highs")
    slack = 0 if exact else tol + ROUND_OFF
    guard = max_state_space()
    for s in range(scenario.source_outcomes):
        if not defined[:, s].any():  # no setting tuple has positive probability with s
            continue
        grid = defined[:, s].reshape(scenario.settings)
        used = [np.flatnonzero(grid.any(axis=tuple(j for j in range(n) if j != i))) for i in range(n)]
        counts = [m ** len(xs) for xs, m in zip(used, scenario.outcomes)]
        n_strat = math.prod(counts)
        n_rows = math.prod(1 + len(xs) * (m - 1) for xs, m in zip(used, scenario.outcomes))
        if n_rows * max(n_strat, n_x * n_a) > guard:
            raise SizeLimitExceeded(f"an LP of {n_rows} rows over {n_strat} strategies and "
                                    f"{n_x * n_a} (setting, outcome) tuples exceeds the guard {guard}")
        if exact and n_strat > EXACT_MODE_MAX_STRATEGIES:
            raise SizeLimitExceeded(f"exact mode supports at most {EXACT_MODE_MAX_STRATEGIES} strategies, "
                                    f"not {n_strat}")
        c_map, a_mat, program, answers, onehots = _lp_plan(scenario, used, counts, defined[:, s], exact)
        p_col = probs[:, s].ravel()
        if exact:  # C and A are 0/1, so C p and every check below are exact in Fractions
            from fractions import Fraction

            c_map, a_mat = c_map.astype(int).astype(object), a_mat.astype(int).astype(object)
            p_col = np.frompyfunc(Fraction, 1, 1)(p_col)
        b_vec = c_map @ p_col
        res = solve_phase1_exact(a_mat, b_vec) if exact else solve_phase1(program, b_vec, tol=slack)
        verdict.iterations += res.iterations
        verdict.lp_shape = max(verdict.lp_shape, a_mat.shape)
        if not res.feasible:
            check_inequality(a_mat, b_vec, res.y, slack)
            verdict.is_local, verdict.weights = False, {}
            verdict.max_residual = float(res.y @ b_vec)
            z = (res.y @ c_map).reshape(n_x, n_a)
            x_tuples, a_tuples = list(np.ndindex(*scenario.settings)), list(np.ndindex(*scenario.outcomes))
            verdict.inequality[s] = {
                (x_tuples[i], a_tuples[j]): float(z[i, j]) for i, j in zip(*np.nonzero(np.abs(z) > 1e-12))
            }
            return verdict
        w = np.where(res.x > 1e-12, res.x, 0).astype(float)
        # in both modes the weights reproduce the full conditional within tol
        check_weights(_respond(onehots, w)[defined[:, s]].ravel(), probs[defined[:, s], s].ravel(), w, tol + ROUND_OFF)
        if exact:  # and the Collins–Gisin rows exactly
            check_weights(a_mat @ res.x, b_vec, res.x, 0)
        cols = np.flatnonzero(w)
        keys = zip(*(map(tuple, a[:, j].T.tolist()) for a, j in zip(answers, np.unravel_index(cols, counts))))
        verdict.weights[s] = dict(zip(keys, w[cols].tolist()))
    return verdict


def classical_bell_model(
    scenario: BellScenario,
    hidden_given_source,
    responses,
    setting_dists,
    source_dist,
) -> ClassicalModel:
    """Scenario model from a shared hidden variable and per-party responses.

    ``hidden_given_source[s][lam]`` distributes one hidden value per source
    outcome; the source broadcasts it to every party.  ``responses[i][x][lam][a]``
    is party ``i``'s outcome distribution given its setting and the hidden
    value; each setting node emits a copy of its own outcome.  Deterministic
    responses with the weights returned by :func:`local_membership` replay a
    membership witness as an explicit model.
    """
    from .classical import ClassicalModel, Gate

    n = scenario.n
    hidden_given_source = np.asarray(hidden_given_source, dtype=float)
    if hidden_given_source.ndim != 2 or hidden_given_source.shape[0] != scenario.source_outcomes:
        raise ShapeMismatch("hidden_given_source must have one row per source outcome")
    n_hidden = hidden_given_source.shape[1]
    source_dist = np.asarray(source_dist, dtype=float).ravel()
    if source_dist.shape != (scenario.source_outcomes,):
        raise ShapeMismatch("source distribution has the wrong length")
    setting_dists = [np.asarray(p, dtype=float).ravel() for p in setting_dists]
    if [p.shape for p in setting_dists] != [(k,) for k in scenario.settings]:
        raise ShapeMismatch("setting distributions must give one probability per setting of each party")
    responses = [np.asarray(r, dtype=float) for r in responses]
    if len(responses) != n:
        raise ShapeMismatch(f"{len(responses)} responses for {n} parties")
    for i, r in enumerate(responses):
        if r.shape != (scenario.settings[i], n_hidden, scenario.outcomes[i]):
            raise ShapeMismatch(
                f"party {i + 1}: response shape {r.shape}, expected "
                f"{(scenario.settings[i], n_hidden, scenario.outcomes[i])}"
            )

    t = np.zeros((scenario.source_outcomes,) + (n_hidden,) * n)
    t[(slice(None),) + (np.arange(n_hidden),) * n] = source_dist[:, None] * hidden_given_source
    gates = {"s": Gate((), tuple(sorted(f"s->a{i + 1}" for i in range(n))), t)}
    alphabet = {}
    for i in range(n):
        alphabet[f"s->a{i + 1}"] = n_hidden
        alphabet[f"x{i + 1}->a{i + 1}"] = scenario.settings[i]
        gates[f"x{i + 1}"] = Gate((), (f"x{i + 1}->a{i + 1}",), np.diag(setting_dists[i]))
    for i in range(n):
        ins = tuple(sorted((f"s->a{i + 1}", f"x{i + 1}->a{i + 1}")))
        # axes (hidden, setting, outcome): the order of the sorted in-edge ids
        gates[f"a{i + 1}"] = Gate(ins, (), np.transpose(responses[i], (1, 0, 2)))
    return ClassicalModel(make_bell_graph(scenario), alphabet, gates)


def quantum_bell_model(
    scenario: BellScenario,
    states,
    povms,
    setting_dists,
    source_dist,
) -> QuantumModel:
    """Quantum model on the scenario graph from states, POVMs, and input distributions.

    ``states``: one unit vector on the tensor product of the party spaces per
    source outcome.  ``povms[i][x][a]``: party ``i``'s effect for outcome
    ``a`` under setting ``x``; effects must be Hermitian and positive
    semidefinite, and each setting's effects must sum to the identity, all
    within 1e-10.  The source edge to party ``i`` carries that party's space,
    the setting edge carries a classical register of the setting value, and
    the measurement node applies the setting-controlled POVM.
    """
    from .quantum import Instrument, QuantumModel

    n = scenario.n
    if len(povms) != n:
        raise ShapeMismatch(f"{len(povms)} POVM families for {n} parties")
    dims, effects = [], []
    for i, fam in enumerate(povms):
        if len(fam) != scenario.settings[i]:
            raise ShapeMismatch(f"party {i + 1}: {len(fam)} settings, expected {scenario.settings[i]}")
        square = np.shape(fam[0][0])[:1] * 2  # (d, d) from the first effect; () when it is a scalar
        for x, fx in enumerate(fam):
            if len(fx) != scenario.outcomes[i]:
                raise ShapeMismatch(f"party {i + 1}, setting {x}: {len(fx)} effects, expected {scenario.outcomes[i]}")
            for e in fx:
                if not square or np.shape(e) != square:
                    raise ShapeMismatch(f"party {i + 1}: effect shape {np.shape(e)}, expected {square or 'a matrix'}")
        e = np.asarray(fam, dtype=complex)  # (setting, outcome, d, d)
        off = np.flatnonzero(~(np.abs(e.sum(axis=1) - np.eye(square[0])).max(axis=(1, 2), initial=0.0) <= 1e-10))
        if off.size:
            raise IncompletePOVM(f"party {i + 1}, setting {off[0]}: effects sum off identity")
        skew = np.flatnonzero(np.abs(e - e.conj().swapaxes(2, 3)).max(axis=(1, 2, 3), initial=0.0) > 1e-10)
        if skew.size:
            raise IncompletePOVM(f"party {i + 1}, setting {skew[0]}: an effect is not Hermitian")
        dims.append(square[0])
        effects.append(e)

    states = [np.asarray(psi, dtype=complex).ravel() for psi in states]
    if len(states) != scenario.source_outcomes:
        raise ShapeMismatch(f"{len(states)} states for {scenario.source_outcomes} source outcomes")
    full_dim = int(np.prod(dims, dtype=np.int64))
    for psi in states:
        if psi.shape != (full_dim,):
            raise ShapeMismatch(f"state has dimension {psi.shape[0]}, expected {full_dim}")
        if not abs(np.linalg.norm(psi) - 1.0) <= 1e-10:
            raise ShapeMismatch("states must be unit vectors")
    source_dist = np.asarray(source_dist, dtype=float).ravel()
    # a negated comparison, so that a NaN fails it
    if source_dist.shape != (scenario.source_outcomes,) or not (
        source_dist.min() >= 0 and abs(source_dist.sum() - 1.0) <= 1e-10
    ):
        raise ShapeMismatch("source distribution must be normalized with one entry per outcome")
    setting_dists = [np.asarray(p, dtype=float).ravel() for p in setting_dists]
    if len(setting_dists) != n:
        raise ShapeMismatch(f"{len(setting_dists)} setting distributions for {n} parties")
    for i, p in enumerate(setting_dists):
        if p.shape != (scenario.settings[i],) or not (p.min() >= 0 and abs(p.sum() - 1.0) <= 1e-10):
            raise ShapeMismatch(f"setting distribution {i + 1} must be normalized")

    graph = make_bell_graph(scenario)

    # source emits the party spaces on its outgoing edges, which the
    # contraction orders lexicographically by edge id
    source_ids = [f"s->a{i + 1}" for i in range(n)]
    order = sorted(range(n), key=lambda i: source_ids[i])
    instruments = {}
    comps = []
    for s in range(scenario.source_outcomes):
        psi = states[s].reshape(tuple(dims)).transpose(order).ravel()
        k = np.sqrt(source_dist[s]) * psi.reshape(-1, 1)
        comps.append((k,))
    instruments["s"] = Instrument(tuple(comps))

    edge_dim = {}
    for i in range(n):
        edge_dim[f"s->a{i + 1}"] = dims[i]
        edge_dim[f"x{i + 1}->a{i + 1}"] = scenario.settings[i]

    for i in range(n):
        comps = []
        for x in range(scenario.settings[i]):
            e = np.zeros((scenario.settings[i], 1), dtype=complex)
            e[x, 0] = np.sqrt(setting_dists[i][x])
            comps.append((e,))
        instruments[f"x{i + 1}"] = Instrument(tuple(comps))

    for i, (e, kx, d) in enumerate(zip(effects, scenario.settings, dims)):
        # one eigendecomposition per outcome a of m[a] = sum_x E[x, a] ⊗ |x><x|
        w, u = np.linalg.eigh(np.einsum("xarc,xy->arxcy", e, np.eye(kx)).reshape(-1, d * kx, d * kx))
        if w.min() < -1e-10:
            raise IncompletePOVM(f"party {i + 1}: an effect has the negative eigenvalue {w.min()}")
        kraus = np.sqrt(np.where(w > 1e-14, w, 0))[:, :, None] * u.conj().transpose(0, 2, 1)
        instruments[f"a{i + 1}"] = Instrument(tuple(tuple(k[keep, None]) for k, keep in zip(kraus, w > 1e-14)))

    return QuantumModel(graph, edge_dim, instruments)


def setup_from_dict(data: dict) -> QuantumModel:
    """The :func:`quantum_bell_model` that a ``bell-quantum`` setup JSON describes
    (schema in the README); unknown fields are rejected."""
    what = "bell-quantum setup JSON"
    kinds = {"scenario": dict, "states": list, "povms": list, "setting_dists": list, "source_dist": list}
    scenario, states, povms, setting_dists, source_dist = _schema.fields(data, what, kinds)
    settings, outcomes = _schema.fields(scenario, f"{what} scenario", {"settings": list, "outcomes": list},
                                        ["source_outcomes"])
    return quantum_bell_model(
        BellScenario(
            tuple(_json_numbers(settings, f"{what} settings", (None,), int).tolist()),
            tuple(_json_numbers(outcomes, f"{what} outcomes", (None,), int).tolist()),
            _schema.typed(scenario.get("source_outcomes", 1), int, f"{what} source_outcomes"),
        ),
        _json_numbers(states, f"{what} states", (None, None), complex),
        # per party: effects as (settings, outcomes, dimension, dimension), and a setting distribution
        [_json_numbers(p, f"{what} povms", (None,) * 4, complex) for p in povms],
        [_json_numbers(p, f"{what} setting_dists", (None,)) for p in setting_dists],
        _json_numbers(source_dist, f"{what} source_dist", (None,)),
    )


def chsh_value(dist: JointDistribution) -> float:
    """S = E(0,0) + E(0,1) + E(1,0) - E(1,1) with outcomes 0 -> +1, 1 -> -1.

    Accepts the two-party binary joint with or without a trivial source
    variable; all four setting pairs must have positive probability.
    """
    ids = set(dist.var_ids)
    if ids == {"s", "x1", "x2", "a1", "a2"}:
        if dist.size_of("s") != 1:
            raise ShapeMismatch("source outcome must be trivial or marginalized away")
        dist = marginal(dist, {"x1", "x2", "a1", "a2"})
    elif ids != {"x1", "x2", "a1", "a2"}:
        raise ShapeMismatch(f"expected the two-party Bell variables, got {sorted(ids)}")
    for v in ("x1", "x2", "a1", "a2"):
        if dist.size_of(v) != 2:
            raise ShapeMismatch(f"variable {v!r} must be binary")
    cond = conditional(dist, targets=["a1", "a2"], givens=["x1", "x2"])
    if not bool(cond.defined.all()):
        raise ShapeMismatch("all four setting pairs need positive probability")
    total = 0.0
    for x, y in itertools.product(range(2), repeat=2):
        p = cond.probs[(x, y)]
        e = p[0, 0] - p[0, 1] - p[1, 0] + p[1, 1]
        total += -e if (x, y) == (1, 1) else e
    return float(total)
