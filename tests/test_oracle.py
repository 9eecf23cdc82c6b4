import math
import re

import numpy as np
import pytest
from scipy import stats

from spilltest import (
    Clustering,
    DesignCounts,
    PotentialTable,
    ValidationError,
    bernoulli_vs_cr_variance_gap,
    binomial_negative_moment,
    enumerate_cluster,
    enumerate_complete,
    enumerate_hierarchical,
    hierarchical_assign,
    realize_sutva,
)
from spilltest import oracle
from spilltest.assign import assignment_from_vectors
from spilltest.estimate import _estimate_rows
from spilltest.oracle import (
    CHECKS,
    ENUMERATION_CAP,
    _fsum_moments,
    _realize,
    _subset_matrix,
    enumerate_hierarchical_assignments,
    hierarchical_outcome_count,
)

rng = np.random.default_rng(20240810)


def neyman_cr_variance(table: PotentialTable, n_t: int) -> float:
    n = table.num_units
    s_t = np.var(table.y1, ddof=1)
    s_c = np.var(table.y0, ddof=1)
    s_tc = np.var(table.y1 - table.y0, ddof=1)
    return float(s_t / n_t + s_c / (n - n_t) - s_tc / n)


def cluster_variance(table: PotentialTable, clustering: Clustering, m_t: int) -> float:
    m, n = clustering.num_clusters, clustering.num_units
    y1p = clustering.cluster_sums(table.y1)
    y0p = clustering.cluster_sums(table.y0)
    s_t = np.var(y1p, ddof=1)
    s_c = np.var(y0p, ddof=1)
    s_tc = np.var(y1p - y0p, ddof=1)
    return float((m / n) ** 2 * (s_t / m_t + s_c / (m - m_t) - s_tc / m))


def test_complete_design_moments_match_closed_forms():
    # Both the mean (unbiasedness) and the finite-population variance of the
    # difference in means have known closed forms; enumeration must hit both.
    table = PotentialTable(y1=rng.normal(size=8), y0=rng.normal(size=8))
    tau = float(np.mean(table.y1 - table.y0))
    mom = enumerate_complete(table, 3)
    assert mom.count == math.comb(8, 3)
    assert mom.mean == pytest.approx(tau, abs=1e-12)
    assert mom.variance == pytest.approx(neyman_cr_variance(table, 3), abs=1e-12)


def test_cluster_design_moments_match_closed_forms(oracle_design):
    _, clustering, _, _, table = oracle_design
    tau = float(np.mean(table.y1 - table.y0))
    mom = enumerate_cluster(table, clustering, 2)
    assert mom.mean == pytest.approx(tau, abs=1e-12)
    assert mom.variance == pytest.approx(cluster_variance(table, clustering, 2), abs=1e-12)


def _masked_sum_complete(outcomes, n_t):
    # The complete design's own difference in means, from masked sums over
    # every unit; enumerate_complete runs the shipped arm contrast instead.
    n = outcomes.num_units
    z_rows = _subset_matrix(n, n_t)
    y_rows = _realize(outcomes, z_rows)
    zb = z_rows.astype(bool)
    values = (y_rows * zb).sum(axis=1) / n_t - (y_rows * ~zb).sum(axis=1) / (n - n_t)
    return _fsum_moments(values)


def _membership_cluster(outcomes, clustering, m_t):
    # The cluster design's own contrast, with cluster totals from a dense
    # N x M membership matrix; enumerate_cluster runs the shipped cluster
    # totals and arm contrast instead.
    m, n = clustering.num_clusters, clustering.num_units
    zc_rows = _subset_matrix(m, m_t)
    y_rows = _realize(outcomes, zc_rows[:, clustering.assignment])
    membership = (clustering.assignment[:, None] == np.arange(m)[None, :]).astype(np.float64)
    y_plus = y_rows @ membership
    zb = zc_rows.astype(bool)
    values = (m / n) * ((y_plus * zb).sum(axis=1) / m_t - (y_plus * ~zb).sum(axis=1) / (m - m_t))
    return _fsum_moments(values)


def test_single_mechanism_designs_match_their_own_estimators(oracle_design, bound_design):
    # Every treated count of the oracle8 table, the oracle8 linear model and
    # a table on the 12-unit bound design; that table has its own generator,
    # so that the module's tables stay as they were.
    _, clustering, _, model, table = oracle_design
    local = np.random.default_rng(12)
    bound_table = PotentialTable(y1=local.normal(size=12), y0=local.normal(size=12))
    sources = [(table, clustering), (model, clustering), (bound_table, bound_design[0])]
    for outcomes, clustering in sources:
        for n_t in range(1, clustering.num_units):
            mom, ref = enumerate_complete(outcomes, n_t), _masked_sum_complete(outcomes, n_t)
            assert mom.count == ref.count == math.comb(clustering.num_units, n_t)
            assert mom.mean == pytest.approx(ref.mean, rel=1e-12)
            assert mom.variance == pytest.approx(ref.variance, rel=1e-12)
        for m_t in range(1, clustering.num_clusters):
            mom = enumerate_cluster(outcomes, clustering, m_t)
            ref = _membership_cluster(outcomes, clustering, m_t)
            assert mom.count == ref.count == math.comb(clustering.num_clusters, m_t)
            assert mom.mean == pytest.approx(ref.mean, rel=1e-12)
            assert mom.variance == pytest.approx(ref.variance, rel=1e-12)


def test_enumeration_refuses_out_of_range_counts_and_unknown_statistic(oracle_design):
    _, clustering, counts, _, table = oracle_design
    for n_t in (0, 8):
        with pytest.raises(ValidationError, match="1 <= n_t <= N-1"):
            enumerate_complete(table, n_t)
    for m_t in (0, 4):
        with pytest.raises(ValidationError, match="1 <= m_t <= M-1"):
            enumerate_cluster(table, clustering, m_t)
    with pytest.raises(ValidationError, match="unknown statistic 'gap'"):
        enumerate_hierarchical(table, clustering, counts, "gap")


def test_hierarchical_outcome_count(oracle_design):
    _, clustering, counts, _, _ = oracle_design
    assert hierarchical_outcome_count(counts) == 72
    w, z = enumerate_hierarchical_assignments(clustering, counts)
    assert len(w) == 72
    # All outcomes distinct (each visited exactly once => uniform law).
    patterns = {bytes(np.concatenate([w[r], z[r]])) for r in range(72)}
    assert len(patterns) == 72


@pytest.mark.parametrize("which", ["bundled", "bound"])
def test_enumerated_rows_are_assignment_vectors(oracle_design, bound_design, which):
    # Every row is a draw of the design, as a HierarchicalAssignment holds
    # it: assignment_from_vectors accepts its unit vectors with the design's
    # counts and keeps them as they are.
    _, clustering, counts, _, _ = oracle_design
    if which == "bound":
        clustering, counts = bound_design
    unit_arm, treatment = enumerate_hierarchical_assignments(clustering, counts)
    assert len(unit_arm) == hierarchical_outcome_count(counts)
    for r in range(len(unit_arm)):
        a = assignment_from_vectors(clustering, unit_arm[r], treatment[r])
        assert a.counts == counts
        assert np.array_equal(a.unit_arm, unit_arm[r]) and np.array_equal(a.treatment, treatment[r])


def test_hierarchical_sutva_mean_is_zero(oracle_design):
    _, clustering, counts, _, table = oracle_design
    mom = enumerate_hierarchical(table, clustering, counts)
    assert abs(mom.mean) <= 1e-12


def test_enumeration_requires_noise_free_model(oracle_design):
    graph, clustering, counts, model, _ = oracle_design
    from spilltest import LinearInterferenceModel

    noisy = LinearInterferenceModel(alpha=0.0, beta=1.0, gamma=0.5, noise_sd=1.0, graph=graph)
    with pytest.raises(ValidationError, match="noise-free"):
        enumerate_hierarchical(noisy, clustering, counts)


def test_enumeration_cap_reports_required_count():
    clustering = Clustering.from_assignment(np.arange(30))
    counts = DesignCounts(
        n_cr=14, n_cbr=16, m_cr=14, m_cbr=16, n_cr_t=7, n_cr_c=7, m_cbr_t=8, m_cbr_c=8
    )
    table = PotentialTable(y1=np.zeros(30), y0=np.zeros(30))
    with pytest.raises(ValidationError, match=r"\d+ outcomes"):
        enumerate_hierarchical(table, clustering, counts)


# Designs under the old cap of 10**7 draws that hold far more than the cap's
# cells: 8 clusters of 4 (5,405,400 draws of 32 units), the complete design
# on 30 units with 8 treated, and the cluster design of 24 clusters of 10
# with 12 treated.
_OVER_CAP = {
    "hierarchical": (5_405_400, 32, lambda table: enumerate_hierarchical(
        table,
        Clustering.from_assignment(np.repeat(np.arange(8), 4)),
        DesignCounts(n_cr=16, n_cbr=16, m_cr=4, m_cbr=4, n_cr_t=8, n_cr_c=8, m_cbr_t=2, m_cbr_c=2),
    )),
    "complete": (math.comb(30, 8), 30, lambda table: enumerate_complete(table, 8)),
    "cluster": (math.comb(24, 12), 240, lambda table: enumerate_cluster(
        table, Clustering.from_assignment(np.repeat(np.arange(24), 10)), 12
    )),
}


@pytest.mark.parametrize("design", list(_OVER_CAP))
def test_enumeration_cap_counts_cells_before_allocating(monkeypatch, design):
    draws, n, enumerate_design = _OVER_CAP[design]
    assert draws <= 10**7 < draws * n and ENUMERATION_CAP < draws * n

    def unreachable(*args, **kwargs):
        raise AssertionError("allocated before the cap check")

    monkeypatch.setattr(oracle, "_subset_matrix", unreachable)
    monkeypatch.setattr(oracle, "_estimate_rows", unreachable)
    table = PotentialTable(y1=np.zeros(n), y0=np.zeros(n))
    message = f"{draws} outcomes of {n} units, {draws * n} cells (cap {ENUMERATION_CAP} cells)"
    with pytest.raises(ValidationError, match=re.escape(message)):
        enumerate_design(table)


def test_enumeration_matches_sampler_frequencies(bound_design):
    # Internal consistency: exact moments vs the actual sampler, 2e4 draws.
    clustering, counts = bound_design
    table = PotentialTable(y1=rng.normal(size=12), y0=rng.normal(size=12))
    exact = enumerate_hierarchical(table, clustering, counts)
    draws = 20_000
    reps = np.random.SeedSequence(42).spawn(draws)
    values = np.empty(draws)
    from spilltest import delta_statistic, realize_sutva

    for r in range(draws):
        a = hierarchical_assign(clustering, counts, reps[r])
        values[r] = delta_statistic(a, realize_sutva(table, a.treatment)).delta
    se = values.std(ddof=1) / math.sqrt(draws)
    assert abs(values.mean() - exact.mean) <= 4 * se
    var_se = exact.variance * math.sqrt(2.0 / (draws - 1))
    assert abs(values.var(ddof=1) - exact.variance) <= 4 * var_se


def test_one_generator_matches_the_enumerated_moments(bound_design):
    # Consecutive draws on one generator, as a study's stack makes them:
    # exact moments of delta vs 2e4 draws.
    clustering, counts = bound_design
    table_rng = np.random.default_rng(7)
    table = PotentialTable(y1=table_rng.normal(size=12), y0=table_rng.normal(size=12))
    exact = enumerate_hierarchical(table, clustering, counts)
    draws = 20_000
    generator = np.random.default_rng(43)
    sample = [hierarchical_assign(clustering, counts, generator) for _ in range(draws)]
    unit_arm = np.stack([a.unit_arm for a in sample])
    treatment = np.stack([a.treatment for a in sample])
    tau_cr, tau_cbr, _ = _estimate_rows(
        clustering, counts, unit_arm, treatment, realize_sutva(table, treatment), bound=False
    )
    values = tau_cr - tau_cbr
    se = values.std(ddof=1) / math.sqrt(draws)
    assert abs(values.mean() - exact.mean) <= 4 * se
    var_se = exact.variance * math.sqrt(2.0 / (draws - 1))
    assert abs(values.var(ddof=1) - exact.variance) <= 4 * var_se


def test_one_generator_draws_every_outcome_equally_often():
    # 4 clusters of 2: 6 arm splits x 6 unit-arm treatments x 2 cluster-arm
    # treatments, 72 equiprobable outcomes, each about 278 times in 2e4 draws.
    clustering = Clustering(np.repeat(np.arange(4), 2))
    counts = DesignCounts(n_cr=4, n_cbr=4, m_cr=2, m_cbr=2, n_cr_t=2, n_cr_c=2, m_cbr_t=1, m_cbr_c=1)
    unit_arm, treatment = enumerate_hierarchical_assignments(clustering, counts)
    seen = {a.tobytes() + t.tobytes(): 0 for a, t in zip(unit_arm, treatment)}
    assert len(seen) == hierarchical_outcome_count(counts) == 72
    generator = np.random.default_rng(44)
    for _ in range(20_000):
        draw = hierarchical_assign(clustering, counts, generator)
        seen[draw.unit_arm.tobytes() + draw.treatment.tobytes()] += 1  # a KeyError is an outcome not enumerated
    assert draw.provenance == "generator"
    assert min(seen.values()) > 0
    assert stats.chisquare(list(seen.values())).pvalue > 0.001


def test_enumerated_rejection_rate_is_conservative(bound_design):
    # The distribution-free rule rejects far less often than alpha under no
    # interference; enumerate the exact rejection frequency.
    clustering, counts = bound_design
    table = PotentialTable(y1=rng.normal(size=12) + 1.0, y0=rng.normal(size=12))
    rate = enumerate_hierarchical(table, clustering, counts, "reject", alpha=0.05)
    assert 0.0 <= rate.mean <= 0.05


def test_negative_moment_two_units():
    # N=2, p=1/2 conditioned off {0, 2}: eta_t is identically 1.
    assert binomial_negative_moment(2, 0.5) == pytest.approx(1.0, abs=1e-15)


def test_negative_moment_bound_at_twelve():
    value = binomial_negative_moment(12, 0.5)
    assert abs(value - 1.0 / 6.0) <= 5.0 / 36.0
    # Hypothesis of the bound holds here: 2 * 0.5**12 <= 1/144.
    assert 2 * 0.5**12 <= 1.0 / 144.0


def test_negative_moment_matches_monte_carlo():
    # Cross-path check: simulate the re-randomized law directly.
    draws = 100_000
    g = np.random.default_rng(3)
    k = g.binomial(12, 0.5, size=draws * 2)
    k = k[(k > 0) & (k < 12)][:draws]
    mc = float(np.mean(1.0 / k))
    exact = binomial_negative_moment(12, 0.5)
    se = float(np.std(1.0 / k, ddof=1) / math.sqrt(draws))
    assert abs(mc - exact) <= 4 * se


def test_variance_gap_constant_effect_dual_route():
    # Under a constant effect the coin-flip design's variance has the exact
    # closed form S * (E[1/eta_t] + E[1/eta_c]), an independent route through
    # the negative-moment computation.
    y0 = rng.normal(size=12)
    table = PotentialTable.constant_effect(y0, tau=2.0)
    gap = bernoulli_vs_cr_variance_gap(table, 6)
    s = float(np.var(y0, ddof=1))
    assert gap.var_complete == pytest.approx(neyman_cr_variance(table, 6), abs=1e-12)
    expected_br = s * 2 * binomial_negative_moment(12, 0.5)
    assert gap.var_bernoulli == pytest.approx(expected_br, abs=1e-10)
    assert gap.gap <= gap.bound


def test_variance_gap_degenerate_table():
    y = np.full(12, 3.0)
    table = PotentialTable(y1=y, y0=y)
    gap = bernoulli_vs_cr_variance_gap(table, 6)
    assert gap.var_bernoulli == pytest.approx(0.0, abs=1e-15)
    assert gap.var_complete == pytest.approx(0.0, abs=1e-15)


def test_variance_gap_random_tables_within_bound():
    for _ in range(10):
        table = PotentialTable(y1=rng.normal(size=12), y0=rng.normal(size=12))
        gap = bernoulli_vs_cr_variance_gap(table, 6)  # raises CheckFailure on violation
        assert gap.gap <= gap.bound


def test_variance_gap_runs_the_shipped_contrast_once_per_treated_count(monkeypatch):
    # The coin design's draws with k treated are the complete design's, so
    # each k from 1 to N-1 is one call of the shipped arm contrast over all
    # C(N, k) of its draws, after the complete design's own call.
    calls = []

    def spy(values, treated, control, n_t, n_c, bound):
        calls.append((n_t, n_c, len(values), bound))
        return contrast(values, treated, control, n_t, n_c, bound)

    contrast = oracle._contrast
    monkeypatch.setattr(oracle, "_contrast", spy)
    local = np.random.default_rng(5)
    n = 8
    bernoulli_vs_cr_variance_gap(PotentialTable(y1=local.normal(size=n), y0=local.normal(size=n)), 4)
    assert calls == [(4, 4, math.comb(n, 4), False)] + [
        (k, n - k, math.comb(n, k), False) for k in range(1, n)
    ]


def test_variance_gap_preconditions():
    table = PotentialTable(y1=np.zeros(24), y0=np.zeros(24))
    with pytest.raises(ValidationError, match="N <= 20"):
        bernoulli_vs_cr_variance_gap(table, 12)
    small = PotentialTable(y1=np.zeros(12), y0=np.zeros(12))
    with pytest.raises(ValidationError, match="degenerate-draw mass"):
        bernoulli_vs_cr_variance_gap(small, 1)


def test_all_verify_checks_pass(oracle_design):
    for name, check in CHECKS.items():
        outcome = check(oracle_design)
        assert outcome["passed"], f"{name}: {outcome['detail']}"


def test_enumeration_is_deterministic(oracle_design):
    _, clustering, counts, _, table = oracle_design
    assert enumerate_hierarchical(table, clustering, counts) == enumerate_hierarchical(
        table, clustering, counts
    )
