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
import importlib
import json
import math
import sys

from . import __version__
from .errors import CausalCorrError, SchemaError, ShapeMismatch


def _read(path: str, parse):
    """``parse`` applied to the JSON document at ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        # JSONDecodeError, UnicodeDecodeError and an integer of too many digits
        # are ValueErrors; nesting too deep for the parser is a RecursionError
        except (ValueError, RecursionError) as exc:
            raise SchemaError(f"{path} is not a JSON document: {exc}") from None
    return parse(data)


def _scenario_from_dist(d, scenario_class):
    """Recover the scenario from canonical Bell variable names (s, x{i}, a{i});
    ShapeMismatch names them when the distribution's variables are any others."""
    n = sum(1 for v in d.var_ids if v.startswith("x") and v[1:].isdigit())
    if not n or set(d.var_ids) != {"s", *(f"{v}{i}" for v in "xa" for i in range(1, n + 1))}:
        raise ShapeMismatch(f"expected the Bell variables s, x1..xn, a1..an (n >= 1), got {sorted(d.var_ids)}")
    return scenario_class(
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


# Each handler takes the parsed arguments, then the library calls that its
# COMMANDS entry names, in that order.


def _graph_validate(args, parse, validate):
    violations = validate(_read(args.graph, parse))
    return {"ok": not violations, "violations": violations}, not violations


def _check_correlation(args, parse_graph, parse_dist, is_correlation):
    graph = _read(args.graph, parse_graph)
    verdict = is_correlation(graph, _read(args.dist, parse_dist), tol=args.tol)
    return verdict.to_dict(), verdict.is_correlation


def _bell_gen(args, scenario_class, make_bell_graph, graph_to_dict):
    settings, outcomes = (s * args.parties if len(s) == 1 else s for s in (args.settings, args.outcomes))
    if len(settings) != args.parties or len(outcomes) != args.parties:
        raise SchemaError("--settings and --outcomes must list one size or one per party")
    return graph_to_dict(make_bell_graph(scenario_class(settings, outcomes, args.source_outcomes))), True


def _bell_check_ns(args, parse, scenario_class, check_free_will_no_signalling):
    d = _read(args.dist, parse)
    verdict = check_free_will_no_signalling(_scenario_from_dist(d, scenario_class), d, tol=args.tol)
    return verdict.to_dict(), verdict.passes


def _bell_local(args, parse, scenario_class, local_membership):
    d = _read(args.dist, parse)
    verdict = local_membership(_scenario_from_dist(d, scenario_class), d, tol=args.tol, exact=args.exact)
    return verdict.to_dict(), verdict.is_local


def _chsh(args, parse, chsh_value):
    return {"chsh": chsh_value(_read(args.dist, parse))}, True


def _compress_cg(args, parse_dist, parse_cg, factor_coarse_graining):
    result = factor_coarse_graining(_read(args.dist, parse_dist), _read(args.cg, parse_cg), eps=args.eps)
    return {
        "factor_maps": [[int(x) for x in fm] for fm in result.factor_maps],
        "composed": [int(x) for x in result.composed.ravel()],
        "achieved_error": result.achieved_error,
        "sizes": list(result.sizes),
    }, True


def _lift_edge(args, parse, lift_trivial_edge, model_to_dict):
    return model_to_dict(lift_trivial_edge(_read(args.model, parse), args.src, args.dst, edge_id=args.edge_id)), True


def _reroute_edge(args, parse, reroute_transitive_edge, model_to_dict):
    return model_to_dict(reroute_transitive_edge(_read(args.model, parse), args.edge, args.via)), True


def _pipe(flag):
    """Handler that parses the JSON at ``--flag`` and passes it through the
    remaining calls in turn (compute, serialise); it checks no property."""
    def handler(args, parse, *steps):
        value = _read(getattr(args, flag), parse)
        for step in steps:
            value = step(value)
        return value, True

    return handler


# add_argument keywords of every flag; --tol takes its default from DEFAULT_TOL
FLAGS = {
    **{flag: {"type": str, "required": True}
       for flag in ("graph", "dist", "model", "hbn", "cg", "src", "dst", "edge", "via")},
    "edge-id": {"type": str},
    "out": {"type": str},
    "tol": {"type": _tolerance},
    "eps": {"type": float, "required": True},
    "exact": {"action": "store_true", "help": "decide the Collins-Gisin LP in rational arithmetic, with no "
              "tolerance, on the input's binary float values: a float mixture on a face of the local "
              "polytope may be judged not local; the input's signalling is still checked within --tol"},
    "parties": {"type": int, "required": True},
    "settings": {"type": _sizes, "default": "2"},
    "outcomes": {"type": _sizes, "default": "2"},
    "source-outcomes": {"type": int, "default": 1},
}

# every command: its flags, the handler that returns its payload and whether
# the checked property holds, and the library calls ("module.attribute") the
# handler makes, imported only when the command runs
COMMANDS = {
    "graph-validate": (("graph",), _graph_validate, "graph.graph_from_dict graph.validate"),
    "check-correlation": (("graph", "dist", "tol"), _check_correlation,
                          "graph.graph_from_dict dist.dist_from_dict correlation.is_correlation"),
    "eval-classical": (("model", "out"), _pipe("model"),
                       "classical.model_from_dict classical.evaluate dist.dist_to_dict"),
    "eval-quantum": (("model", "out"), _pipe("model"), "quantum.model_from_dict quantum.evaluate dist.dist_to_dict"),
    "eval-hbn": (("hbn", "out"), _pipe("hbn"), "hbn.hbn_from_dict hbn.evaluate dist.dist_to_dict"),
    "to-hbn": (("model", "out"), _pipe("model"), "classical.model_from_dict hbn.from_classical hbn.hbn_to_dict"),
    "from-hbn": (("hbn", "out"), _pipe("hbn"), "hbn.hbn_from_dict hbn.to_classical classical.model_to_dict"),
    "push-determinism": (("model", "out"), _pipe("model"),
                         "classical.model_from_dict classical.push_back_determinism classical.model_to_dict"),
    "embed-quantum": (("model", "out"), _pipe("model"),
                      "classical.model_from_dict quantum.decohere_embed quantum.model_to_dict"),
    "lift-edge": (("model", "src", "dst", "edge-id", "out"), _lift_edge,
                  "classical.model_from_dict classical.lift_trivial_edge classical.model_to_dict"),
    "reroute-edge": (("model", "edge", "via", "out"), _reroute_edge,
                     "classical.model_from_dict classical.reroute_transitive_edge classical.model_to_dict"),
    "bell-gen": (("parties", "settings", "outcomes", "source-outcomes", "out"), _bell_gen,
                 "graph.BellScenario graph.make_bell_graph graph.graph_to_dict"),
    "bell-check-ns": (("dist", "tol"), _bell_check_ns,
                      "dist.dist_from_dict bell.BellScenario bell.check_free_will_no_signalling"),
    "bell-local": (("dist", "tol", "exact"), _bell_local,
                   "dist.dist_from_dict bell.BellScenario bell.local_membership"),
    "bell-quantum": (("model", "out"), _pipe("model"), "bell.setup_from_dict quantum.model_to_dict"),
    "chsh": (("dist",), _chsh, "dist.dist_from_dict bell.chsh_value"),
    "poset-closure": (("graph", "out"), _pipe("graph"),
                      "graph.graph_from_dict graph.transitive_closure graph.graph_to_dict"),
    "compress-cg": (("dist", "cg", "eps", "out"), _compress_cg,
                    "dist.dist_from_dict dist.coarse_graining_from_dict dist.factor_coarse_graining"),
}


def _library(call: str):
    """The package attribute that ``call`` ("module.attribute") names,
    importing its module on first use."""
    module, attr = call.split(".")
    return getattr(importlib.import_module(f"{__package__}.{module}"), attr)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="causalcorr", description=__doc__)
    parser.add_argument("--version", action="version", version=f"causalcorr {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (flags, _, _) in COMMANDS.items():
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument(f"--{flag}", **FLAGS[flag], **({"default": DEFAULT_TOL[name]} if flag == "tol" else {}))
    return parser


def _dispatch(args) -> int:
    """Run the command's handler and write its payload (to --out where the
    command has that flag and it is given); the exit code says whether the
    checked property holds."""
    _, handler, calls = COMMANDS[args.command]
    payload, holds = handler(args, *map(_library, calls.split()))
    text = json.dumps(payload, indent=2) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if holds else 1


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
