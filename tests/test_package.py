"""The package namespace: its names load on first use and are the objects
their defining modules hold."""

import os
import subprocess
import sys

import pytest

import causalcorr

# every package-level name, written out so that none is added or lost unnoticed
PUBLIC_NAMES = [
    "BellScenario", "CausalGraph", "ClassicalModel", "CoarseGraining", "CorrelationVerdict", "Edge", "Gate",
    "HiddenBayesNet", "Instrument", "JointDistribution", "LocalityVerdict", "QuantumModel", "causal_past",
    "check_free_will_no_signalling", "chsh_value", "classical_bell_model", "conditional", "decohere_embed",
    "evaluate_classical", "evaluate_hbn", "evaluate_quantum", "factor_coarse_graining", "from_classical",
    "is_correlation", "lift_trivial_edge", "local_membership", "make_bell_graph", "marginal",
    "maximal_disjoint_past_pairs", "poset_equal", "push_back_determinism", "quantum_bell_model",
    "reroute_transitive_edge", "to_classical", "topological_order", "transitive_closure", "tv_distance",
]

# the defining module of every name, and the aliases' names there
DEFINED_IN = {
    "graph": ["BellScenario", "CausalGraph", "Edge", "causal_past", "make_bell_graph", "maximal_disjoint_past_pairs",
              "poset_equal", "topological_order", "transitive_closure"],
    "dist": ["CoarseGraining", "JointDistribution", "conditional", "factor_coarse_graining", "marginal", "tv_distance"],
    "correlation": ["CorrelationVerdict", "is_correlation"],
    "classical": ["ClassicalModel", "Gate", "lift_trivial_edge", "push_back_determinism",
                  "reroute_transitive_edge"],
    "quantum": ["Instrument", "QuantumModel", "decohere_embed"],
    "hbn": ["HiddenBayesNet", "from_classical", "to_classical"],
    "bell": ["LocalityVerdict", "check_free_will_no_signalling", "chsh_value", "classical_bell_model",
             "local_membership", "quantum_bell_model"],
}
ALIASES = {"evaluate_classical": "classical", "evaluate_quantum": "quantum", "evaluate_hbn": "hbn"}


def test_all_lists_the_37_names():
    assert sorted(causalcorr.__all__) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 37


@pytest.mark.parametrize("module, name", [(m, n) for m, names in DEFINED_IN.items() for n in names])
def test_name_is_the_object_of_its_defining_module(module, name):
    assert getattr(causalcorr, name) is getattr(getattr(causalcorr, module), name)


@pytest.mark.parametrize("name", ["BellScenario", "make_bell_graph"])
def test_bell_imports_the_scenario_from_graph(name):
    assert getattr(causalcorr.bell, name) is getattr(causalcorr.graph, name)


@pytest.mark.parametrize("alias, module", ALIASES.items())
def test_evaluate_alias_is_the_family_evaluate(alias, module):
    assert getattr(causalcorr, alias) is getattr(causalcorr, module).evaluate


def test_star_import_binds_every_name():
    namespace = {}
    exec("from causalcorr import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)
    assert namespace["evaluate_classical"] is causalcorr.classical.evaluate


def test_submodule_resolves_after_a_bare_import():
    code = "import causalcorr; print(causalcorr.bell.local_membership.__name__)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(causalcorr.__file__)), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "local_membership"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        causalcorr.nope


def test_dir_lists_every_public_name():
    assert set(causalcorr.__all__) <= set(dir(causalcorr))
