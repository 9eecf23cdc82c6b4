"""The package's public surface: exactly the names the pipeline, the studies
and the oracle use, listed explicitly; the README's library example; and the
one seed check of every seeded function."""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spilltest

PUBLIC = [
    "CheckFailure", "ParseError", "SpilltestError", "ValidationError",
    "Graph", "SbmSpec", "generate_sbm", "load_edge_list", "neighborhood_fractions", "save_edge_list",
    "Clustering", "ClusteringMetrics", "Stratification", "cluster_features",
    "clustering_metrics", "ldg_restream", "rebalance", "stratify_clusters",
    "DesignCounts", "HierarchicalAssignment", "hierarchical_assign", "stratified_hierarchical_assign",
    "LinearInterferenceModel", "PotentialTable", "realize_linear", "realize_sutva",
    "AnalysisReport", "DeltaEstimate", "VarianceComponents", "analyze",
    "analyze_stratified", "delta_statistic", "empirical_variance_bound", "expected_delta_linear",
    "fisher_null_variance", "gaussian_p_value", "interference_variance_approx",
    "theoretical_sutva_variance", "variance_components",
    "ExactMoments", "VarianceGap", "bernoulli_vs_cr_variance_gap", "binomial_negative_moment",
    "enumerate_cluster", "enumerate_complete", "enumerate_hierarchical",
]

# Names that only tests called, or that repeated the one entry point of
# their operation; none may come back.
REMOVED = {
    "spilltest": [
        "neighborhood_fraction_in_cluster", "design_score", "subsample_clusters", "SimpleAssignment",
        "cluster_randomization", "complete_randomization", "bernoulli_rerandomized",
        "marginal_treatment_probability", "ObservedOutcomes", "save_outcomes", "total_treatment_effect",
        "chebyshev_p_value", "chebyshev_decision", "stratified_delta", "SutvaVariance",
        "EnumerationSpec", "enumerate_moments", "ClusterFeatures", "InfeasibleError",
    ],
    "spilltest.estimate": [
        "chebyshev_p_value", "chebyshev_decision", "stratified_delta", "SutvaVariance", "_DrawStack", "_row_cluster_ids",
        "_cluster_totals",
    ],
    "spilltest.sim": ["run_ratio_study", "run_power_study", "run_type1_study"],
    "spilltest.oracle": ["EnumerationSpec", "enumerate_moments"],
    "spilltest.graph": ["neighborhood_fraction_in_cluster"],
    "spilltest.partition": ["design_score", "subsample_clusters", "ClusterFeatures", "InfeasibleError"],
    "spilltest._errors": ["ClusterFeatures", "InfeasibleError"],
    "spilltest.assign": [
        "SimpleAssignment", "cluster_randomization", "complete_randomization", "bernoulli_rerandomized",
        "marginal_treatment_probability",
    ],
    "spilltest.outcomes": ["ObservedOutcomes", "save_outcomes", "total_treatment_effect"],
}

REMOVED_ATTRIBUTES = {
    "spilltest.Graph": ["edges", "degree", "to_sparse"],
    "spilltest.Clustering": ["members"],
    "spilltest.Stratification": ["clusters_in"],
    "spilltest.HierarchicalAssignment": ["mechanism", "cluster_ids", "num_units", "cluster_treatment", "cluster_arm"],
    "spilltest.LinearInterferenceModel": ["realized_total_effect"],
    "spilltest.SbmSpec": ["to_json"],
    "spilltest.ClusteringMetrics": ["to_json"],
    "spilltest.AnalysisReport": ["to_json"],
    "spilltest.sim.SimReport": ["save", "to_json"],
}


def test_all_is_the_explicit_public_list():
    assert sorted(spilltest.__all__) == sorted(PUBLIC)
    assert len(spilltest.__all__) == len(set(spilltest.__all__))
    for name in spilltest.__all__:
        assert hasattr(spilltest, name), name


def _modules_loaded_by(code: str) -> list[str]:
    # A fresh interpreter, so that no earlier test has loaded a module.
    env = {**os.environ, "PYTHONPATH": str(Path(spilltest.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(done.stdout)


def test_public_names_load_their_module_on_first_use():
    package = [m for m in _modules_loaded_by("import spilltest") if m.startswith("spilltest.")]
    assert package == []
    loaded = _modules_loaded_by("import spilltest\nspilltest.load_edge_list")
    assert [m for m in loaded if m.startswith("spilltest.")] == ["spilltest._errors", "spilltest.graph"]
    loaded = _modules_loaded_by("import spilltest.sim")
    assert "concurrent.futures" not in loaded and "multiprocessing" not in loaded
    for name in spilltest.__all__:
        value = getattr(spilltest, name)
        assert getattr(importlib.import_module(value.__module__), name) is value, name
    assert set(spilltest.__all__) <= set(dir(spilltest))
    namespace: dict = {}
    exec("from spilltest import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(PUBLIC)


def test_removed_names_are_gone():
    for module_name, names in REMOVED.items():
        module = importlib.import_module(module_name)
        for name in names:
            assert not hasattr(module, name), f"{module_name}.{name}"
    for path, attributes in REMOVED_ATTRIBUTES.items():
        module_name, _, class_name = path.rpartition(".")
        cls = getattr(importlib.import_module(module_name), class_name)
        fields = getattr(cls, "__dataclass_fields__", {})
        for attribute in attributes:
            assert not hasattr(cls, attribute) and attribute not in fields, f"{path}.{attribute}"


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert namespace["report"].decision in ("reject", "fail-to-reject")
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2
    assert printed[1].split()[-1] == namespace["report"].decision


def _seeded_calls():
    spec = spilltest.SbmSpec(num_blocks=8, block_size=4, p_intra=0.5, p_inter=0.05, seed=1)
    graph, clustering = spilltest.generate_sbm(spec)
    features = spilltest.cluster_features(graph, clustering)
    strat = spilltest.stratify_clusters(features, 2, seed=0)
    counts = spilltest.DesignCounts.symmetric(graph.num_units, clustering.num_clusters)
    model = spilltest.LinearInterferenceModel(alpha=0.0, beta=1.0, gamma=0.5, noise_sd=1.0, graph=graph)
    z = spilltest.hierarchical_assign(clustering, counts, seed=1).treatment
    return {
        "ldg_restream": lambda seed: spilltest.ldg_restream(graph, 8, seed=seed),
        "stratify_clusters": lambda seed: spilltest.stratify_clusters(features, 2, seed=seed),
        "hierarchical_assign": lambda seed: spilltest.hierarchical_assign(clustering, counts, seed=seed),
        "stratified_hierarchical_assign": lambda seed: spilltest.stratified_hierarchical_assign(
            clustering, strat, seed=seed
        ),
        "realize_linear": lambda seed: spilltest.realize_linear(model, z, seed=seed),
        "realize_linear-row": lambda seed: spilltest.realize_linear(model, np.stack([z, z]), seed=seed),
    }


@pytest.mark.parametrize("seed", [-1, np.int64(-1)])
def test_seeded_functions_refuse_a_negative_seed(seed):
    # Refused by the package, as the JSON inputs refuse one, not by numpy.
    for call in _seeded_calls().values():
        with pytest.raises(spilltest.ValidationError, match="^seed=-1 is negative$"):
            call(seed)


@pytest.mark.parametrize("function", list(_seeded_calls()))
def test_seeded_functions_refuse_a_seed_that_is_not_an_integer(function):
    # seed=None drew fresh entropy, so two calls returned different draws;
    # a bool is no seed either.
    call = _seeded_calls()[function]
    for seed in (None, True):
        with pytest.raises(spilltest.ValidationError, match=f"^seed={seed} is not an integer$"):
            call(seed)
    call(np.int64(3))
