"""Design and analysis toolkit for detecting interference in network experiments.

Every public name loads its module on first use, so a process imports only
the modules it calls: ``import spilltest`` alone imports no submodule.
"""

import importlib

__version__ = "0.1.0"

# Each public name, by the module that defines it.
_MODULES = {
    "_errors": ("CheckFailure", "ParseError", "SpilltestError", "ValidationError"),
    "graph": ("Graph", "SbmSpec", "generate_sbm", "load_edge_list", "neighborhood_fractions", "save_edge_list"),
    "partition": (
        "Clustering", "ClusteringMetrics", "Stratification", "cluster_features",
        "clustering_metrics", "ldg_restream", "rebalance", "stratify_clusters",
    ),
    "assign": ("DesignCounts", "HierarchicalAssignment", "hierarchical_assign", "stratified_hierarchical_assign"),
    "outcomes": ("LinearInterferenceModel", "PotentialTable", "realize_linear", "realize_sutva"),
    "estimate": (
        "AnalysisReport", "DeltaEstimate", "VarianceComponents", "analyze",
        "analyze_stratified", "delta_statistic", "empirical_variance_bound", "expected_delta_linear",
        "fisher_null_variance", "gaussian_p_value", "interference_variance_approx",
        "theoretical_sutva_variance", "variance_components",
    ),
    "oracle": (
        "ExactMoments", "VarianceGap", "bernoulli_vs_cr_variance_gap", "binomial_negative_moment",
        "enumerate_cluster", "enumerate_complete", "enumerate_hierarchical",
    ),
}
_MODULE_OF = {name: module for module, names in _MODULES.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Cached as a module global, so later lookups, and rebinding the name on
    # this module, work as for an eagerly imported name.
    value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
