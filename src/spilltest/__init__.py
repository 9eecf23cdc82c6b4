"""Design and analysis toolkit for detecting interference in network experiments."""

from ._errors import CheckFailure, InfeasibleError, ParseError, SpilltestError, ValidationError
from .assign import (
    DesignCounts,
    HierarchicalAssignment,
    SimpleAssignment,
    bernoulli_rerandomized,
    cluster_randomization,
    complete_randomization,
    hierarchical_assign,
    marginal_treatment_probability,
    stratified_hierarchical_assign,
)
from .estimate import (
    AnalysisReport,
    DeltaEstimate,
    SutvaVariance,
    VarianceComponents,
    analyze,
    analyze_stratified,
    chebyshev_decision,
    delta_statistic,
    empirical_variance_bound,
    expected_delta_linear,
    fisher_null_variance,
    gaussian_p_value,
    interference_variance_approx,
    stratified_delta,
    theoretical_sutva_variance,
    variance_components,
)
from .graph import (
    Graph,
    SbmSpec,
    generate_sbm,
    load_edge_list,
    neighborhood_fraction_in_cluster,
    neighborhood_fractions,
    save_edge_list,
)
from .oracle import (
    EnumerationSpec,
    ExactMoments,
    VarianceGap,
    bernoulli_vs_cr_variance_gap,
    binomial_negative_moment,
    enumerate_moments,
)
from .outcomes import (
    LinearInterferenceModel,
    ObservedOutcomes,
    PotentialTable,
    realize_linear,
    realize_sutva,
    total_treatment_effect,
)
from .partition import (
    Clustering,
    ClusteringMetrics,
    ClusterFeatures,
    Stratification,
    cluster_features,
    clustering_metrics,
    design_score,
    ldg_restream,
    rebalance,
    stratify_clusters,
    subsample_clusters,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
