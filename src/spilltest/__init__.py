"""Design and analysis toolkit for detecting interference in network experiments."""

from ._errors import CheckFailure, InfeasibleError, ParseError, SpilltestError, ValidationError
from .assign import (
    DesignCounts,
    HierarchicalAssignment,
    hierarchical_assign,
    stratified_hierarchical_assign,
)
from .estimate import (
    AnalysisReport,
    DeltaEstimate,
    VarianceComponents,
    analyze,
    analyze_stratified,
    delta_statistic,
    empirical_variance_bound,
    expected_delta_linear,
    fisher_null_variance,
    gaussian_p_value,
    interference_variance_approx,
    theoretical_sutva_variance,
    variance_components,
)
from .graph import (
    Graph,
    SbmSpec,
    generate_sbm,
    load_edge_list,
    neighborhood_fractions,
    save_edge_list,
)
from .outcomes import (
    LinearInterferenceModel,
    PotentialTable,
    realize_linear,
    realize_sutva,
)
from .partition import (
    Clustering,
    ClusteringMetrics,
    ClusterFeatures,
    Stratification,
    cluster_features,
    clustering_metrics,
    ldg_restream,
    rebalance,
    stratify_clusters,
)

__version__ = "0.1.0"

# The oracle's names load with it on first use: the pipeline and the studies
# never call it, and its import is a measurable share of `import spilltest`.
_ORACLE = (
    "ExactMoments", "VarianceGap", "bernoulli_vs_cr_variance_gap", "binomial_negative_moment",
    "enumerate_cluster", "enumerate_complete", "enumerate_hierarchical",
)

__all__ = [
    # errors
    "CheckFailure", "InfeasibleError", "ParseError", "SpilltestError", "ValidationError",
    # graph
    "Graph", "SbmSpec", "generate_sbm", "load_edge_list", "neighborhood_fractions", "save_edge_list",
    # partition
    "Clustering", "ClusteringMetrics", "ClusterFeatures", "Stratification", "cluster_features",
    "clustering_metrics", "ldg_restream", "rebalance", "stratify_clusters",
    # assign
    "DesignCounts", "HierarchicalAssignment", "hierarchical_assign", "stratified_hierarchical_assign",
    # outcomes
    "LinearInterferenceModel", "PotentialTable", "realize_linear", "realize_sutva",
    # estimate
    "AnalysisReport", "DeltaEstimate", "VarianceComponents", "analyze",
    "analyze_stratified", "delta_statistic", "empirical_variance_bound", "expected_delta_linear",
    "fisher_null_variance", "gaussian_p_value", "interference_variance_approx",
    "theoretical_sutva_variance", "variance_components",
    # oracle
    *_ORACLE,
]


def __getattr__(name: str):
    if name in _ORACLE:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
