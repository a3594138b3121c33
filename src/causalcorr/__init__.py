"""Classical and quantum hidden-variable models on finite causal structures.

Define a DAG of events with finite outcome alphabets, evaluate classical
gate models, quantum instrument models, and hidden Bayesian networks on it,
and test observed joint distributions for correlation, no-signalling, and
local-polytope membership.

The package-level names, and the submodules, load on first use: importing
``causalcorr`` imports none of its modules, and ``causalcorr.local_membership``
imports ``bell`` (and what ``bell`` imports) when it is first looked up.
"""

import importlib

__version__ = "0.1.0"

_NAMES = {
    "graph": "BellScenario CausalGraph Edge causal_past make_bell_graph maximal_disjoint_past_pairs poset_equal "
             "topological_order transitive_closure",
    "dist": "CoarseGraining JointDistribution conditional factor_coarse_graining marginal tv_distance",
    "correlation": "CorrelationVerdict is_correlation",
    "classical": "ClassicalModel Gate lift_trivial_edge push_back_determinism reroute_transitive_edge",
    "quantum": "Instrument QuantumModel decohere_embed",
    "hbn": "HiddenBayesNet from_classical to_classical",
    "bell": "LocalityVerdict check_free_will_no_signalling chsh_value classical_bell_model local_membership "
            "quantum_bell_model",
}
# public name -> (defining module, attribute there); the three evaluate_*
# names alias each family's ``evaluate``
_EXPORTS = {name: (module, name) for module, names in _NAMES.items() for name in names.split()}
_EXPORTS.update({f"evaluate_{family}": (family, "evaluate") for family in ("classical", "quantum", "hbn")})
_SUBMODULES = {*_NAMES, "_config", "_schema", "_simplex", "errors"}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    # not cached in globals(): each lookup reads the defining module, so a
    # patch of that module's attribute is seen here too
    if name in _EXPORTS:
        module, attr = _EXPORTS[name]
        return getattr(importlib.import_module(f"{__name__}.{module}"), attr)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
