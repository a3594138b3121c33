"""Command-line front end over JSON files.

Exit codes: 0 when the command succeeds (and any checked property holds),
1 when a checked property fails, 2 for bad input or usage (an unreadable
file, a payload that is not JSON or does not match its schema, an invalid
model, a negative or non-finite --tol) or when the LP solver could not
decide or its answer failed the package's certificate check.  --tol 0
allows no slack; without --tol each command uses its library default.
The machine-readable payload goes to stdout (or --out); diagnostics go to
stderr.  CC_MAX_STATE_SPACE overrides the state-space guards.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from . import bell as bell_mod
from . import classical as classical_mod
from . import correlation as correlation_mod
from . import dist as dist_mod
from . import graph as graph_mod
from . import hbn as hbn_mod
from . import quantum as quantum_mod
from .errors import CausalCorrError, SchemaError

COMMANDS = (
    "graph-validate",
    "check-correlation",
    "eval-classical",
    "eval-quantum",
    "eval-hbn",
    "to-hbn",
    "from-hbn",
    "push-determinism",
    "embed-quantum",
    "lift-edge",
    "reroute-edge",
    "bell-gen",
    "bell-check-ns",
    "bell-local",
    "bell-quantum",
    "chsh",
    "poset-closure",
    "compress-cg",
)


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        # JSONDecodeError, UnicodeDecodeError and an integer of too many digits
        # are ValueErrors; nesting too deep for the parser is a RecursionError
        except (ValueError, RecursionError) as exc:
            raise SchemaError(f"{path} is not a JSON document: {exc}") from None


def _emit(payload, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _scenario_from_dist(d: dist_mod.JointDistribution) -> bell_mod.BellScenario:
    """Recover the scenario from canonical Bell variable names (s, x{i}, a{i});
    the Bell checks refuse a distribution with any other variable."""
    n = sum(1 for v in d.var_ids if v.startswith("x") and v[1:].isdigit())
    return bell_mod.BellScenario(
        settings=tuple(d.size_of(f"x{i + 1}") for i in range(n)),
        outcomes=tuple(d.size_of(f"a{i + 1}") for i in range(n)),
        source_outcomes=d.size_of("s"),
    )


def _sizes(text: str) -> tuple[int, ...]:
    """Comma-separated integers: one size for every party, or one per party."""
    return tuple(int(p) for p in text.split(","))


# default --tol per command: the library defaults of the calls they make
DEFAULT_TOL = {"check-correlation": 1e-9, "bell-check-ns": 1e-9, "bell-local": 1e-7}


def _tolerance(text: str) -> float:
    tol = float(text)
    if not (math.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return tol


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="causalcorr", description=__doc__)
    parser.add_argument("--version", action="version", version=f"causalcorr {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    flag_table = {
        "graph-validate": ["graph"],
        "check-correlation": ["graph", "dist", "tol"],
        "eval-classical": ["model", "out"],
        "eval-quantum": ["model", "out"],
        "eval-hbn": ["hbn", "out"],
        "to-hbn": ["model", "out"],
        "from-hbn": ["hbn", "out"],
        "push-determinism": ["model", "out"],
        "embed-quantum": ["model", "out"],
        "lift-edge": ["model", "src", "dst", "edge-id", "out"],
        "reroute-edge": ["model", "edge", "via", "out"],
        "bell-gen": ["parties", "settings", "outcomes", "source-outcomes", "out"],
        "bell-check-ns": ["dist", "tol"],
        "bell-local": ["dist", "tol", "exact"],
        "bell-quantum": ["model", "out"],
        "chsh": ["dist"],
        "poset-closure": ["graph", "out"],
        "compress-cg": ["dist", "cg", "eps", "out"],
    }
    for name in COMMANDS:
        p = sub.add_parser(name)
        for flag in flag_table[name]:
            if flag == "tol":
                p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL[name])
            elif flag == "eps":
                p.add_argument("--eps", type=float, required=True)
            elif flag == "exact":
                p.add_argument("--exact", action="store_true", help="rational LP on the binary float "
                               "values, ignoring --tol: a float mixture not exactly one is judged not local")
            elif flag == "parties":
                p.add_argument("--parties", type=int, required=True)
            elif flag in ("settings", "outcomes"):
                p.add_argument(f"--{flag}", type=_sizes, default="2")
            elif flag == "source-outcomes":
                p.add_argument("--source-outcomes", type=int, default=1)
            else:
                p.add_argument(f"--{flag}", type=str, required=flag not in ("out", "edge-id"))
    return parser


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "graph-validate":
        graph = graph_mod.graph_from_dict(_load_json(args.graph))
        violations = graph_mod.validate(graph)
        _emit({"ok": not violations, "violations": violations}, None)
        return 0 if not violations else 1

    if cmd == "check-correlation":
        graph = graph_mod.graph_from_dict(_load_json(args.graph))
        d = dist_mod.dist_from_dict(_load_json(args.dist))
        verdict = correlation_mod.is_correlation(graph, d, tol=args.tol)
        _emit(verdict.to_dict(), None)
        return 0 if verdict.is_correlation else 1

    if cmd == "eval-classical":
        model = classical_mod.model_from_dict(_load_json(args.model))
        _emit(dist_mod.dist_to_dict(classical_mod.evaluate(model)), args.out)
        return 0

    if cmd == "eval-quantum":
        model = quantum_mod.model_from_dict(_load_json(args.model))
        _emit(dist_mod.dist_to_dict(quantum_mod.evaluate(model)), args.out)
        return 0

    if cmd == "eval-hbn":
        net = hbn_mod.hbn_from_dict(_load_json(args.hbn))
        _emit(dist_mod.dist_to_dict(hbn_mod.evaluate(net)), args.out)
        return 0

    if cmd == "to-hbn":
        model = classical_mod.model_from_dict(_load_json(args.model))
        _emit(hbn_mod.hbn_to_dict(hbn_mod.from_classical(model)), args.out)
        return 0

    if cmd == "from-hbn":
        net = hbn_mod.hbn_from_dict(_load_json(args.hbn))
        _emit(classical_mod.model_to_dict(hbn_mod.to_classical(net)), args.out)
        return 0

    if cmd == "push-determinism":
        model = classical_mod.model_from_dict(_load_json(args.model))
        _emit(classical_mod.model_to_dict(classical_mod.push_back_determinism(model)), args.out)
        return 0

    if cmd == "embed-quantum":
        model = classical_mod.model_from_dict(_load_json(args.model))
        _emit(quantum_mod.model_to_dict(quantum_mod.decohere_embed(model)), args.out)
        return 0

    if cmd == "lift-edge":
        model = classical_mod.model_from_dict(_load_json(args.model))
        lifted = classical_mod.lift_trivial_edge(
            model, args.src, args.dst, edge_id=getattr(args, "edge_id", None)
        )
        _emit(classical_mod.model_to_dict(lifted), args.out)
        return 0

    if cmd == "reroute-edge":
        model = classical_mod.model_from_dict(_load_json(args.model))
        rerouted = classical_mod.reroute_transitive_edge(model, args.edge, args.via)
        _emit(classical_mod.model_to_dict(rerouted), args.out)
        return 0

    if cmd == "bell-gen":
        settings, outcomes = (s * args.parties if len(s) == 1 else s for s in (args.settings, args.outcomes))
        if len(settings) != args.parties or len(outcomes) != args.parties:
            raise SchemaError("--settings and --outcomes must list one size or one per party")
        scenario = bell_mod.BellScenario(settings, outcomes, args.source_outcomes)
        _emit(graph_mod.graph_to_dict(bell_mod.make_bell_graph(scenario)), args.out)
        return 0

    if cmd == "bell-check-ns":
        d = dist_mod.dist_from_dict(_load_json(args.dist))
        scenario = _scenario_from_dist(d)
        verdict = bell_mod.check_free_will_no_signalling(scenario, d, tol=args.tol)
        _emit(verdict.to_dict(), None)
        return 0 if verdict.passes else 1

    if cmd == "bell-local":
        d = dist_mod.dist_from_dict(_load_json(args.dist))
        scenario = _scenario_from_dist(d)
        verdict = bell_mod.local_membership(scenario, d, tol=args.tol, exact=args.exact)
        _emit(verdict.to_dict(), None)
        return 0 if verdict.is_local else 1

    if cmd == "bell-quantum":
        model = bell_mod.setup_from_dict(_load_json(args.model))
        _emit(quantum_mod.model_to_dict(model), args.out)
        return 0

    if cmd == "chsh":
        d = dist_mod.dist_from_dict(_load_json(args.dist))
        _emit({"chsh": bell_mod.chsh_value(d)}, None)
        return 0

    if cmd == "poset-closure":
        graph = graph_mod.graph_from_dict(_load_json(args.graph))
        _emit(graph_mod.graph_to_dict(graph_mod.transitive_closure(graph)), args.out)
        return 0

    if cmd == "compress-cg":
        d = dist_mod.dist_from_dict(_load_json(args.dist))
        cgr = dist_mod.coarse_graining_from_dict(_load_json(args.cg))
        result = dist_mod.factor_coarse_graining(d, cgr, eps=args.eps)
        _emit(
            {
                "factor_maps": [[int(x) for x in fm] for fm in result.factor_maps],
                "composed": [int(x) for x in result.composed.ravel()],
                "achieved_error": result.achieved_error,
                "sizes": list(result.sizes),
            },
            args.out,
        )
        return 0

    raise SchemaError(f"unknown command {cmd!r}")


def run(argv: list[str]) -> int:
    """Parse and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except (OSError, CausalCorrError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
