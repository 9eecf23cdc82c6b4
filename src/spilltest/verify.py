"""Named verification checks pairing closed forms with exhaustive enumeration.

Each check recomputes a formula-side value and an enumeration-side value by
independent routes and compares them at a stated tolerance. They back the
``spilltest oracle`` command; the test suite runs them too.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .assign import DesignCounts
from .estimate import (
    expected_cluster_estimate_linear,
    expected_delta_linear,
    expected_diff_in_means_linear,
    fisher_null_variance,
    theoretical_sutva_variance,
)
from .oracle import (
    EnumerationSpec,
    bernoulli_vs_cr_variance_gap,
    binomial_negative_moment,
    enumerate_hierarchical_assignments,
    enumerate_moments,
    hierarchical_outcome_count,
)
from .outcomes import PotentialTable
from .partition import Clustering

EXACT_TOL = 1e-12
VARIANCE_TOL = 1e-10


def _result(name: str, passed: bool, detail: str, values: dict) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail, "values": values}


def _bound_capable(counts: DesignCounts) -> bool:
    return min(counts.n_cr_t, counts.n_cr_c, counts.m_cbr_t, counts.m_cbr_c) >= 2


def _fallback_bound_design(table_seed: int) -> tuple[Clustering, DesignCounts, PotentialTable]:
    # Smallest layout where every variance bucket holds >= 2 members.
    clustering = Clustering.from_assignment(np.repeat(np.arange(6), 2))
    counts = DesignCounts(
        n_cr=4, n_cbr=8, m_cr=2, m_cbr=4, n_cr_t=2, n_cr_c=2, m_cbr_t=2, m_cbr_c=2
    )
    rng = np.random.default_rng(table_seed)
    table = PotentialTable(y1=rng.normal(size=12), y0=rng.normal(size=12))
    return clustering, counts, table


def check_means(graph, clustering, counts, model, table) -> dict:
    """Both arm estimators are exactly unbiased and their gap is mean zero."""
    tau = float(np.mean(table.y1 - table.y0))
    cr = enumerate_moments(
        EnumerationSpec(design="complete", outcomes=table, n_t=table.num_units // 2)
    )
    cbr = enumerate_moments(
        EnumerationSpec(
            design="cluster", outcomes=table, clustering=clustering,
            m_t=clustering.num_clusters // 2,
        )
    )
    delta = enumerate_moments(
        EnumerationSpec(
            design="hierarchical", outcomes=table, statistic="delta",
            clustering=clustering, counts=counts,
        )
    )
    errs = (abs(cr.mean - tau), abs(cbr.mean - tau), abs(delta.mean))
    passed = max(errs) <= EXACT_TOL
    return _result(
        "means",
        passed,
        f"E(unit-arm)={cr.mean:.15g}, E(cluster-arm)={cbr.mean:.15g}, tau={tau:.15g}, "
        f"E(gap)={delta.mean:.3g} (tolerance {EXACT_TOL})",
        {"tau": tau, "mean_cr": cr.mean, "mean_cbr": cbr.mean, "mean_delta": delta.mean},
    )


def check_interference_means(graph, clustering, counts, model, table) -> dict:
    """Closed-form estimator means under the linear model match enumeration."""
    n = graph.num_units
    cr = enumerate_moments(EnumerationSpec(design="complete", outcomes=model, n_t=n // 2))
    cbr = enumerate_moments(
        EnumerationSpec(
            design="cluster", outcomes=model, clustering=clustering,
            m_t=clustering.num_clusters // 2,
        )
    )
    delta = enumerate_moments(
        EnumerationSpec(
            design="hierarchical", outcomes=model, statistic="delta",
            clustering=clustering, counts=counts,
        )
    )
    closed_cr = expected_diff_in_means_linear(model, n // 2)
    closed_cbr = expected_cluster_estimate_linear(model, clustering)
    closed_delta = expected_delta_linear(model, clustering, counts)
    errs = (
        abs(cr.mean - closed_cr),
        abs(cbr.mean - closed_cbr),
        abs(delta.mean - closed_delta),
    )
    passed = max(errs) <= EXACT_TOL
    return _result(
        "interference-means",
        passed,
        f"unit-arm {cr.mean:.15g} vs {closed_cr:.15g}; "
        f"cluster-arm {cbr.mean:.15g} vs {closed_cbr:.15g}; "
        f"gap {delta.mean:.15g} vs {closed_delta:.15g}",
        {
            "enum_cr": cr.mean, "closed_cr": closed_cr,
            "enum_cbr": cbr.mean, "closed_cbr": closed_cbr,
            "enum_delta": delta.mean, "closed_delta": closed_delta,
        },
    )


def check_null_variance(graph, clustering, counts, model, table) -> dict:
    """Sharp-null variance formula equals the enumerated variance exactly."""
    rng = np.random.default_rng(1234)
    worst = 0.0
    example = {}
    for _ in range(5):
        y = rng.normal(size=clustering.num_units)
        null_table = PotentialTable(y1=y, y0=y)
        mom = enumerate_moments(
            EnumerationSpec(
                design="hierarchical", outcomes=null_table, statistic="delta",
                clustering=clustering, counts=counts,
            )
        )
        formula = fisher_null_variance(y, clustering, counts)
        err = abs(mom.variance - formula)
        if err >= worst:
            worst = err
            example = {"enumerated": mom.variance, "formula": formula}
    passed = worst <= VARIANCE_TOL
    return _result(
        "null-variance",
        passed,
        f"max |enumerated - formula| = {worst:.3g} over 5 outcome vectors "
        f"(example {example['enumerated']:.12g} vs {example['formula']:.12g})",
        {"max_error": worst, **example},
    )


def check_variance_bound(graph, clustering, counts, model, table) -> dict:
    """Bound is exactly tight for constant effects; exact variance matches too."""
    if not _bound_capable(counts):
        clustering, counts, table = _fallback_bound_design(table_seed=97)
    rng = np.random.default_rng(4321)
    base = rng.normal(size=clustering.num_units)
    const = PotentialTable.constant_effect(base, tau=1.3)
    var_mom = enumerate_moments(
        EnumerationSpec(
            design="hierarchical", outcomes=const, statistic="delta",
            clustering=clustering, counts=counts,
        )
    )
    bound_mom = enumerate_moments(
        EnumerationSpec(
            design="hierarchical", outcomes=const, statistic="sigma_hat_sq",
            clustering=clustering, counts=counts,
        )
    )
    exact = theoretical_sutva_variance(const, clustering, counts)
    err_eq = abs(bound_mom.mean - var_mom.variance)
    err_exact = abs(exact - var_mom.variance)
    passed = err_eq <= VARIANCE_TOL and err_exact <= VARIANCE_TOL
    return _result(
        "variance-bound",
        passed,
        f"constant effect: E(bound)={bound_mom.mean:.12g}, var(gap)={var_mom.variance:.12g}, "
        f"closed-form exact={exact:.12g}",
        {"e_bound": bound_mom.mean, "var_delta": var_mom.variance, "exact": exact},
    )


def check_bernoulli(graph, clustering, counts, model, table) -> dict:
    """Coin-flip vs fixed-count variance gap and the negative-moment bound."""
    n, n_t = 12, 6
    rng = np.random.default_rng(777)
    worst_ratio = 0.0
    for _ in range(20):
        t = PotentialTable(y1=rng.normal(size=n), y0=rng.normal(size=n))
        gap = bernoulli_vs_cr_variance_gap(t, n_t)  # raises CheckFailure if violated
        worst_ratio = max(worst_ratio, gap.gap / gap.bound if gap.bound else 0.0)
    moment = binomial_negative_moment(n, 0.5)
    moment_err = abs(moment - 1.0 / n_t)
    moment_ok = moment_err <= 5.0 / n_t**2
    passed = moment_ok
    return _result(
        "bernoulli",
        passed,
        f"gap/bound worst ratio {worst_ratio:.3f} over 20 tables; "
        f"|E(1/eta) - 1/{n_t}| = {moment_err:.3g} <= {5.0 / n_t**2:.3g}",
        {"worst_gap_ratio": worst_ratio, "negative_moment": moment, "moment_error": moment_err},
    )


def check_law(graph, clustering, counts, model, table) -> dict:
    """Enumeration visits every design outcome once; marginals are exact."""
    unit_arm, treatment, cluster_arm, cluster_treated = enumerate_hierarchical_assignments(
        clustering, counts
    )
    expected = hierarchical_outcome_count(counts)
    rows = {bytes(np.concatenate([unit_arm[r], treatment[r]])) for r in range(len(unit_arm))}
    unique_ok = len(rows) == expected == len(unit_arm)
    marginal = treatment.mean(axis=0)
    closed = (counts.m_cr / counts.num_clusters) * (counts.n_cr_t / counts.n_cr) + (
        counts.m_cbr / counts.num_clusters
    ) * (counts.m_cbr_t / counts.m_cbr)
    marg_err = float(np.max(np.abs(marginal - closed)))
    # Conditional independence: within each arm split, the treatment pattern
    # pairs form a full product set.
    factorizes = True
    arm_keys = [bytes(row) for row in cluster_arm]
    for key in set(arm_keys):
        idx = [r for r, k in enumerate(arm_keys) if k == key]
        cr_patterns = {bytes(treatment[r][unit_arm[r] == 1]) for r in idx}
        cbr_patterns = {bytes(cluster_treated[r]) for r in idx}
        if len(cr_patterns) * len(cbr_patterns) != len(idx):
            factorizes = False
    passed = unique_ok and marg_err <= EXACT_TOL and factorizes
    return _result(
        "law",
        passed,
        f"{len(unit_arm)} outcomes, all distinct={unique_ok}, "
        f"max |P(treated) - {closed:.6g}| = {marg_err:.3g}, factorizes={factorizes}",
        {"outcomes": len(unit_arm), "marginal_error": marg_err, "closed_marginal": closed},
    )


CHECKS: dict[str, Callable] = {
    "means": check_means,
    "interference-means": check_interference_means,
    "null-variance": check_null_variance,
    "variance-bound": check_variance_bound,
    "bernoulli": check_bernoulli,
    "law": check_law,
}


def run_check(name: str, graph, clustering, counts, model, table) -> dict:
    if name not in CHECKS:
        raise ValueError(f"unknown check {name!r}")
    return CHECKS[name](graph, clustering, counts, model, table)
