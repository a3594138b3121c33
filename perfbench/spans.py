"""Per-layer spans for the traced run, installed from outside the package.

Each boundary is a public function of a ``causalcorr`` module.  It is
resolved by name at install time and replaced by a wrapper in every loaded
``causalcorr`` module that holds it, so calls through ``from ... import``
bindings (``correlation`` and ``bell`` bind ``marginal``, ``product``,
``conditional`` and ``solve_phase1`` that way) are traced too.  A boundary
that no longer exists is reported as absent.  The untraced run installs
nothing.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from collections import defaultdict

import numpy as np

# (module, function) pairs; metric names drop the module's leading underscore.
BOUNDARIES = (
    ("graph", "maximal_disjoint_past_pairs"),
    ("dist", "marginal"),
    ("dist", "conditional"),
    ("dist", "product"),
    ("correlation", "is_correlation"),
    ("classical", "evaluate"),
    ("classical", "evaluate_marginal_ancestral"),
    ("classical", "push_back_determinism"),
    ("classical", "lift_trivial_edge"),
    ("classical", "reroute_transitive_edge"),
    ("quantum", "evaluate"),
    ("quantum", "decohere_embed"),
    ("hbn", "from_classical"),
    ("hbn", "to_classical"),
    ("hbn", "evaluate"),
    ("bell", "local_membership"),
    ("bell", "enumerate_strategies"),
    ("bell", "check_free_will_no_signalling"),
    ("_simplex", "solve_phase1"),
)


def _root_entries(args, result, parent):
    d = args[0]
    root = getattr(d, "_root", None)
    return {"dist.marginal.root_entries": int(np.size(d.table if root is None else root))}


def _pairs(args, result, parent):
    out = {"graph.maximal_disjoint_past_pairs.pairs_out": len(result)}
    if parent == "correlation.is_correlation":
        out["correlation.is_correlation.pairs_checked"] = sum(1 for u, w in result if u and w)
    return out


def _lp_shape(args, result, parent):
    """Rows and columns of the strategy LP the scenario defines."""
    scenario = args[0]
    rows = math.prod(scenario.settings) * math.prod(scenario.outcomes) + 1
    cols = math.prod(m**k for k, m in zip(scenario.settings, scenario.outcomes))
    return {"bell.local_membership.lp_rows": rows, "bell.local_membership.lp_cols": cols}


SIZES = {
    "graph.maximal_disjoint_past_pairs": _pairs,
    "dist.marginal": _root_entries,
    "classical.evaluate": lambda a, r, p: {"classical.evaluate.table_entries": int(r.table.size)},
    "quantum.evaluate": lambda a, r, p: {"quantum.evaluate.outcome_tuples": int(r.table.size)},
    "simplex.solve_phase1": lambda a, r, p: {"simplex.solve_phase1.iterations": int(getattr(r, "iterations", 0))},
    "bell.local_membership": _lp_shape,
}
MAXIMA = {
    "classical.push_back_determinism": lambda a, r, p: {
        "classical.push_back_determinism.max_alphabet": max(r.edge_alphabet.values(), default=1)
    },
}


class Tracer:
    """Keeps spans in memory and sums calls, self time and sizes per boundary."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.stats = defaultdict(float)
        self.maxima = defaultdict(float)
        self.absent = []
        self.op_id = None
        self._stack = []  # [span index, child time]
        self._undo = []

    def begin(self, op_id):
        """Start a new op: later spans carry its id; spans cut off by a deadline are dropped."""
        self.op_id = op_id
        self._stack.clear()

    def install(self, extra=()):
        """Wrap every boundary.

        ``extra`` adds (span name, module, attribute, {exception class: stat})
        entries; a package boundary counts size-guard refusals as ``refused``
        and a solver's non-termination as ``iter_limit``.
        """
        errors = importlib.import_module("causalcorr.errors")
        raises = {getattr(errors, "SizeLimitExceeded", errors.CausalCorrError): "refused", RuntimeError: "iter_limit"}
        self.absent = []
        targets = list(extra)
        for mod_name, fn_name in BOUNDARIES:
            name = f"{mod_name.lstrip('_')}.{fn_name}"
            try:
                module = importlib.import_module(f"causalcorr.{mod_name}")
            except ImportError:
                module = None
            if getattr(module, fn_name, None) is None:
                self.absent.append(name)
                continue
            targets.append((name, module, fn_name, raises))
        for name, module, attr, counted in targets:
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, counted)
            holders = [module] + [
                mod for key, mod in list(sys.modules.items())
                if key.startswith("causalcorr") and mod is not module
            ]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._undo.append((holder, key, original))

    def uninstall(self):
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    def _wrap(self, name, fn, counted):
        sizes = SIZES.get(name)
        maxima = MAXIMA.get(name)

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            parent_name = self.spans[parent[0]][0] if parent else None
            span = [name, time.perf_counter(), None, parent[0] if parent else None, self.op_id]
            self.spans.append(span)
            frame = [index, 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except tuple(counted) as exc:
                for cls, stat in counted.items():
                    if isinstance(exc, cls):
                        self.stats[f"{name}.{stat}"] += 1
                        break
                raise
            else:
                for key, value in (sizes(args, result, parent_name) if sizes else {}).items():
                    self.stats[key] += value
                for key, value in (maxima(args, result, parent_name) if maxima else {}).items():
                    self.maxima[key] = max(self.maxima[key], value)
                return result
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                duration = span[2] - span[1]
                self.stats[f"{name}.calls"] += 1
                self.stats[f"{name}.self_s"] += duration - frame[1]
                if self._stack:
                    self._stack[-1][1] += duration

        traced.__wrapped__ = fn
        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")
