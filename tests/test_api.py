"""The package's public surface: exactly the names the pipeline, the studies
and the oracle use, listed explicitly."""

import importlib

import spilltest

PUBLIC = [
    "CheckFailure", "InfeasibleError", "ParseError", "SpilltestError", "ValidationError",
    "Graph", "SbmSpec", "generate_sbm", "load_edge_list", "neighborhood_fractions", "save_edge_list",
    "Clustering", "ClusteringMetrics", "ClusterFeatures", "Stratification", "cluster_features",
    "clustering_metrics", "ldg_restream", "rebalance", "stratify_clusters",
    "DesignCounts", "HierarchicalAssignment", "hierarchical_assign", "stratified_hierarchical_assign",
    "LinearInterferenceModel", "PotentialTable", "realize_linear", "realize_sutva",
    "AnalysisReport", "DeltaEstimate", "SutvaVariance", "VarianceComponents", "analyze",
    "analyze_stratified", "chebyshev_decision", "delta_statistic", "empirical_variance_bound",
    "expected_delta_linear", "fisher_null_variance", "gaussian_p_value", "interference_variance_approx",
    "stratified_delta", "theoretical_sutva_variance", "variance_components",
    "EnumerationSpec", "ExactMoments", "VarianceGap", "bernoulli_vs_cr_variance_gap",
    "binomial_negative_moment", "enumerate_moments",
]

# Names that only tests called; none may come back.
REMOVED = {
    "spilltest": [
        "neighborhood_fraction_in_cluster", "design_score", "subsample_clusters", "SimpleAssignment",
        "cluster_randomization", "complete_randomization", "bernoulli_rerandomized",
        "marginal_treatment_probability", "ObservedOutcomes", "save_outcomes", "total_treatment_effect",
    ],
    "spilltest.graph": ["neighborhood_fraction_in_cluster"],
    "spilltest.partition": ["design_score", "subsample_clusters"],
    "spilltest.assign": [
        "SimpleAssignment", "cluster_randomization", "complete_randomization", "bernoulli_rerandomized",
        "marginal_treatment_probability",
    ],
    "spilltest.outcomes": ["ObservedOutcomes", "save_outcomes", "total_treatment_effect"],
}

REMOVED_ATTRIBUTES = {
    "Graph": ["edges", "degree", "to_sparse"],
    "Clustering": ["members"],
    "HierarchicalAssignment": ["mechanism", "cluster_ids", "num_units"],
    "LinearInterferenceModel": ["realized_total_effect"],
}


def test_all_is_the_explicit_public_list():
    assert sorted(spilltest.__all__) == sorted(PUBLIC)
    assert len(spilltest.__all__) == len(set(spilltest.__all__))
    for name in spilltest.__all__:
        assert hasattr(spilltest, name), name


def test_removed_names_are_gone():
    for module_name, names in REMOVED.items():
        module = importlib.import_module(module_name)
        for name in names:
            assert not hasattr(module, name), f"{module_name}.{name}"
    for class_name, attributes in REMOVED_ATTRIBUTES.items():
        cls = getattr(spilltest, class_name)
        fields = getattr(cls, "__dataclass_fields__", {})
        for attribute in attributes:
            assert not hasattr(cls, attribute) and attribute not in fields, f"{class_name}.{attribute}"

