import json
import math
import re
import statistics
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import cluster_bits
from spilltest import (
    Clustering,
    DesignCounts,
    Graph,
    LinearInterferenceModel,
    PotentialTable,
    SbmSpec,
    ValidationError,
    analyze,
    analyze_stratified,
    delta_statistic,
    empirical_variance_bound,
    enumerate_hierarchical,
    expected_delta_linear,
    fisher_null_variance,
    gaussian_p_value,
    generate_sbm,
    hierarchical_assign,
    interference_variance_approx,
    stratified_hierarchical_assign,
    theoretical_sutva_variance,
    variance_components,
)
from spilltest.assign import ARM_CBR, ARM_CR, assignment_from_vectors
from spilltest.estimate import (
    _decide,
    _estimate_rows,
    _eta_moments,
    _eta_quadratic_moments,
    _small_sample_factors,
)
from spilltest.oracle import _hierarchical_statistic_rows, enumerate_hierarchical_assignments
from spilltest.partition import Stratification

rng = np.random.default_rng(88)


def _reference_delta(a, y):
    # Per-draw arm estimates written out with scalar numpy reductions.
    local = np.asarray(y, dtype=np.float64)[a.unit_ids]
    cr = a.unit_arm == ARM_CR
    z = a.treatment.astype(bool)
    y_cr, z_cr = local[cr], z[cr]
    tau_cr = float(y_cr[z_cr].mean() - y_cr[~z_cr].mean())
    y_plus = np.bincount(a.clustering.assignment, weights=local, minlength=a.clustering.num_clusters)
    cluster_arm, cluster_treatment = cluster_bits(a)
    cbr = cluster_arm == ARM_CBR
    zc = cluster_treatment[cbr] == 1
    yp = y_plus[cbr]
    tau_cbr = float(a.counts.m_cbr / a.counts.n_cbr * (yp[zc].mean() - yp[~zc].mean()))
    return tau_cr, tau_cbr


def _reference_bound(a, y):
    local = np.asarray(y, dtype=np.float64)[a.unit_ids]
    cr = a.unit_arm == ARM_CR
    z = a.treatment.astype(bool)
    y_t, y_c = local[cr & z], local[cr & ~z]
    y_plus = np.bincount(a.clustering.assignment, weights=local, minlength=a.clustering.num_clusters)
    cluster_arm, cluster_treatment = cluster_bits(a)
    cbr = cluster_arm == ARM_CBR
    zc = cluster_treatment[cbr] == 1
    yp_t, yp_c = y_plus[cbr][zc], y_plus[cbr][~zc]
    v_t, v_c, vp_t, vp_c = (float(np.var(x, ddof=1)) for x in (y_t, y_c, yp_t, yp_c))
    return (
        v_t / len(y_t)
        + v_c / len(y_c)
        + (a.counts.m_cbr / a.counts.n_cbr) ** 2 * (vp_t / len(yp_t) + vp_c / len(yp_c))
    )


@st.composite
def _designs(draw):
    k = draw(st.integers(1, 4))
    m_cr = draw(st.integers(2 if k == 1 else 1, 5))
    m_cbr = draw(st.integers(2, 6))
    n_cr_t = draw(st.integers(1, m_cr * k - 1))
    m_cbr_t = draw(st.integers(1, m_cbr - 1))
    counts = DesignCounts(
        n_cr=m_cr * k, n_cbr=m_cbr * k, m_cr=m_cr, m_cbr=m_cbr,
        n_cr_t=n_cr_t, n_cr_c=m_cr * k - n_cr_t, m_cbr_t=m_cbr_t, m_cbr_c=m_cbr - m_cbr_t,
    )
    clustering = Clustering.from_assignment(np.repeat(np.arange(m_cr + m_cbr), k))
    return clustering, counts


@settings(max_examples=80, deadline=None)
@given(design=_designs(), rows=st.integers(1, 6), seed=st.integers(0, 10_000))
def test_kernel_rows_match_per_draw_formulas(design, rows, seed):
    clustering, counts = design
    draws = [hierarchical_assign(clustering, counts, seed=seed + r) for r in range(rows)]
    y = np.random.default_rng(seed).normal(size=(rows, clustering.num_units)) * 10.0 + 3.0
    unit_arm, treatment = np.stack([a.unit_arm for a in draws]), np.stack([a.treatment for a in draws])
    tau_cr, tau_cbr, none = _estimate_rows(clustering, counts, unit_arm, treatment, y, bound=False)
    assert none is None
    for r, a in enumerate(draws):
        assert (tau_cr[r], tau_cbr[r]) == _reference_delta(a, y[r])
        est = delta_statistic(a, y[r])
        assert (est.tau_cr, est.tau_cbr, est.delta) == (tau_cr[r], tau_cbr[r], tau_cr[r] - tau_cbr[r])
    if min(counts.n_cr_t, counts.n_cr_c, counts.m_cbr_t, counts.m_cbr_c) < 2:
        with pytest.raises(ValidationError, match=">= 2"):
            _estimate_rows(clustering, counts, unit_arm, treatment, y)
        with pytest.raises(ValidationError, match=">= 2"):
            empirical_variance_bound(draws[0], y[0])
        return
    _, _, sigma = _estimate_rows(clustering, counts, unit_arm, treatment, y)
    for r, a in enumerate(draws):
        assert sigma[r] == _reference_bound(a, y[r]) == empirical_variance_bound(a, y[r])


def test_kernel_rejects_draw_that_disagrees_with_counts():
    clustering = Clustering.from_assignment(np.repeat(np.arange(8), 2))
    counts = DesignCounts.symmetric(16, 8)
    a = hierarchical_assign(clustering, counts, seed=1)
    treatment = a.treatment.copy()
    treatment[np.flatnonzero(a.unit_arm == ARM_CR)[0]] ^= 1
    with pytest.raises(ValidationError, match="design counts"):
        _estimate_rows(clustering, a.counts, a.unit_arm[None], treatment[None], np.ones((1, 16)))


def _off_by_one_rows(a, arm):
    # Two copies of the draw ``a``: the first treats one more unit (or
    # cluster) of ``arm``, the second one fewer, so the stack's total is
    # still that of two draws of ``a.counts``.
    treatment = np.stack([a.treatment, a.treatment])
    for row, z in ((0, 0), (1, 1)):
        unit = np.flatnonzero((a.unit_arm == arm) & (a.treatment == z))[0]
        flip = a.clustering.assignment == a.clustering.assignment[unit] if arm == ARM_CBR else unit
        treatment[row, flip] = 1 - z
    return treatment


@pytest.mark.parametrize("arm", [ARM_CR, ARM_CBR])
@pytest.mark.parametrize("bound", [True, False])
def test_kernel_refuses_each_row_of_other_counts(arm, bound):
    # Rows of 5 and 3 treated unit-arm units (or 3 and 1 treated clusters)
    # where the counts say 4 (or 2): unchecked, one row's bucket lends a
    # member to the other's.
    clustering = Clustering.from_assignment(np.repeat(np.arange(8), 2))
    counts = DesignCounts(n_cr=8, n_cbr=8, m_cr=4, m_cbr=4, n_cr_t=4, n_cr_c=4, m_cbr_t=2, m_cbr_c=2)
    a = hierarchical_assign(clustering, counts, seed=1)
    treatment = _off_by_one_rows(a, arm)
    assert [int(np.count_nonzero(t[a.unit_arm == arm])) for t in treatment] == (
        [5, 3] if arm == ARM_CR else [6, 2]
    )
    y = rng.normal(size=(2, 16))
    with pytest.raises(ValidationError, match="^assignment does not match its design counts$"):
        _estimate_rows(clustering, counts, np.stack([a.unit_arm] * 2), treatment, y, bound)


def test_stacks_bind_their_callers_arrays(monkeypatch, bound_design):
    # The analysis passes the kernel one-row views of the assignment's own
    # vectors, and the enumeration hands on the arrays the encoder wrote,
    # uncopied.
    from spilltest import estimate, oracle

    clustering, counts = bound_design
    a = hierarchical_assign(clustering, counts, seed=3)
    calls = []

    def spy(*args):
        calls.append(args)
        return _estimate_rows(*args)

    monkeypatch.setattr(estimate, "_estimate_rows", spy)
    analyze(a, rng.normal(size=12))
    ((_, _, unit_arm, treatment, _, _),) = calls
    assert np.shares_memory(unit_arm, a.unit_arm) and np.shares_memory(treatment, a.treatment)

    encoded = []

    def encode(*args):
        encoded.append(original(*args))
        return encoded[-1]

    original = oracle._encode
    monkeypatch.setattr(oracle, "_encode", encode)
    arrays = enumerate_hierarchical_assignments(clustering, counts)
    (expected,) = encoded
    assert len(arrays) == 2 and all(x is y for x, y in zip(arrays, expected))


@pytest.mark.parametrize("statistic", ["delta", "tau_cr", "tau_cbr", "sigma_hat_sq"])
def test_oracle_rows_are_the_shipped_estimator(oracle_design, bound_design, statistic):
    # The bundled design has single-member cluster buckets, so the bound is
    # checked on the smallest design where every bucket holds two.
    _, clustering, counts, _, table = oracle_design
    if statistic == "sigma_hat_sq":
        clustering, counts = bound_design
        table = PotentialTable(y1=rng.normal(size=12), y0=rng.normal(size=12))
    values = _hierarchical_statistic_rows(table, clustering, counts, statistic, 0.05)
    unit_arm, treatment = enumerate_hierarchical_assignments(clustering, counts)
    assert len(values) == len(unit_arm)
    for r in range(len(unit_arm)):
        a = assignment_from_vectors(clustering, unit_arm[r], treatment[r])
        y = np.where(treatment[r].astype(bool), table.y1, table.y0)
        if statistic == "sigma_hat_sq":
            expected = empirical_variance_bound(a, y)
        else:
            est = delta_statistic(a, y)
            expected = getattr(est, statistic)
        assert values[r] == expected


def _manual_assignment():
    # 16 units, 8 clusters of 2; clusters 0-3 in the unit-randomized arm.
    clustering = Clustering.from_assignment(np.repeat(np.arange(8), 2))
    unit_arm = np.array([1] * 8 + [0] * 8, dtype=np.int8)
    treatment = np.array([1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0], dtype=np.int8)
    return assignment_from_vectors(clustering, unit_arm, treatment)


def test_delta_statistic_constant_outcomes():
    a = _manual_assignment()
    est = delta_statistic(a, np.full(16, 3.25))
    assert est.tau_cr == 0.0 and est.tau_cbr == 0.0 and est.delta == 0.0


def test_delta_statistic_hand_case():
    a = _manual_assignment()
    y = np.arange(16, dtype=np.float64)
    est = delta_statistic(a, y)
    # Unit arm: treated {0..3} mean 1.5, control {4..7} mean 5.5.
    assert est.tau_cr == pytest.approx(-4.0)
    # Cluster arm: scale (4/8); treated sums {17, 21}, control sums {25, 29}.
    assert est.tau_cbr == pytest.approx(0.5 * ((17 + 21) / 2 - (25 + 29) / 2))
    assert est.delta == pytest.approx(est.tau_cr - est.tau_cbr)


def test_empirical_variance_bound_constant_outcomes_zero():
    a = _manual_assignment()
    assert empirical_variance_bound(a, np.full(16, 1.0)) == pytest.approx(0.0, abs=1e-15)


def test_empirical_variance_bound_spreadsheet_recomputation():
    # Independent recomputation with stdlib statistics on explicit buckets.
    a = _manual_assignment()
    y = rng.normal(size=16)
    expected = (
        statistics.variance(y[:4].tolist()) / 4
        + statistics.variance(y[4:8].tolist()) / 4
        + (4 / 8) ** 2
        * (
            statistics.variance([y[8] + y[9], y[10] + y[11]]) / 2
            + statistics.variance([y[12] + y[13], y[14] + y[15]]) / 2
        )
    )
    assert empirical_variance_bound(a, y) == pytest.approx(expected, abs=1e-12)


def test_empirical_variance_bound_needs_two_per_bucket(oracle_design):
    _, clustering, counts, _, _ = oracle_design
    a = hierarchical_assign(clustering, counts, seed=0)
    with pytest.raises(ValidationError, match=">= 2"):
        empirical_variance_bound(a, np.arange(8, dtype=np.float64))


def _reference_fisher_null_variance(y, clustering, counts):
    # The sharp-null variance as its own closed form, before it became the
    # y1 = y0 case of theoretical_sutva_variance.
    s = float(np.var(y, ddof=1))
    s_plus = float(np.var(clustering.cluster_sums(y), ddof=1))
    a, b = _small_sample_factors(counts)
    term_cr = (counts.n_cr / (counts.n_cr_t * counts.n_cr_c)) * (a * s - b * s_plus)
    term_cbr = (
        (counts.m_cbr / counts.n_cbr) ** 2 * (counts.m_cbr / (counts.m_cbr_t * counts.m_cbr_c)) * s_plus
    )
    return term_cr + term_cbr


def test_fisher_null_variance_constant_outcome(bound_design):
    clustering, counts = bound_design
    assert fisher_null_variance(np.full(12, 2.0), clustering, counts) == pytest.approx(0.0, abs=1e-15)


def test_fisher_null_variance_matches_enumeration(bound_design):
    clustering, counts = bound_design
    for _ in range(5):
        y = rng.normal(size=12)
        mom = enumerate_hierarchical(PotentialTable(y1=y, y0=y), clustering, counts)
        assert fisher_null_variance(y, clustering, counts) == pytest.approx(
            mom.variance, abs=1e-12
        )


def test_fisher_null_variance_shift_invariant(bound_design):
    clustering, counts = bound_design
    y = rng.normal(size=12)
    a = fisher_null_variance(y, clustering, counts)
    b = fisher_null_variance(y + 17.0, clustering, counts)
    assert a == pytest.approx(b, rel=1e-12)


def test_sutva_variance_exact_matches_enumeration(bound_design):
    clustering, counts = bound_design
    for _ in range(5):
        table = PotentialTable(y1=rng.normal(size=12), y0=rng.normal(size=12))
        mom = enumerate_hierarchical(table, clustering, counts)
        assert theoretical_sutva_variance(table, clustering, counts) == pytest.approx(mom.variance, abs=1e-10)


def test_sutva_variance_constant_effect_drops_heterogeneity_terms(bound_design):
    clustering, counts = bound_design
    table = PotentialTable.constant_effect(rng.normal(size=12), tau=0.9)
    comps = variance_components(table, clustering)
    assert comps.s_tc == pytest.approx(0.0, abs=1e-15)
    assert comps.s_plus_tc == pytest.approx(0.0, abs=1e-15)
    # A constant effect shifts both arm estimates by tau, so the gap varies
    # exactly as it does under the sharp null.
    assert theoretical_sutva_variance(table, clustering, counts) == pytest.approx(
        fisher_null_variance(table.y0, clustering, counts), rel=1e-12
    )


def test_sutva_variance_agrees_with_fisher_null_when_no_effect(oracle_design, bound_design):
    # fisher_null_variance is the y1 = y0 case of theoretical_sutva_variance;
    # both must match the sharp-null closed form on its own.
    designs = [oracle_design[1:3], bound_design]
    designs.append((Clustering.from_assignment(np.repeat(np.arange(10), 3)), DesignCounts(
        n_cr=12, n_cbr=18, m_cr=4, m_cbr=6, n_cr_t=5, n_cr_c=7, m_cbr_t=2, m_cbr_c=4
    )))
    for clustering, counts in designs:
        for _ in range(5):
            y = rng.normal(size=clustering.num_units) * 4.0 + 1.0
            exact = theoretical_sutva_variance(PotentialTable(y1=y, y0=y), clustering, counts)
            reference = _reference_fisher_null_variance(y, clustering, counts)
            assert exact == fisher_null_variance(y, clustering, counts)
            assert exact == pytest.approx(reference, rel=1e-12, abs=1e-14)
    with pytest.raises(ValidationError, match="agree on N"):
        fisher_null_variance(np.ones(5), *bound_design)


def test_bound_gap_identity(bound_design):
    # The exact expectation of the plug-in bound exceeds the true variance by
    # (a * S_tc - (b + 1/k) * S_plus_tc) / n_cr, which can take either sign:
    # it vanishes for constant effects and is negative when treatment effects
    # cluster together. Enumeration confirms the identity exactly.
    clustering, counts = bound_design
    a_fac, b_fac = _small_sample_factors(counts)
    k = counts.cluster_size
    for _ in range(5):
        table = PotentialTable(y1=rng.normal(size=12), y0=rng.normal(size=12))
        var_mom = enumerate_hierarchical(table, clustering, counts)
        bound_mom = enumerate_hierarchical(table, clustering, counts, "sigma_hat_sq")
        comps = variance_components(table, clustering)
        predicted_gap = (a_fac * comps.s_tc - (b_fac + 1.0 / k) * comps.s_plus_tc) / counts.n_cr
        assert bound_mom.mean - var_mom.variance == pytest.approx(predicted_gap, abs=1e-10)


def test_bound_tight_for_constant_effect(bound_design):
    clustering, counts = bound_design
    table = PotentialTable.constant_effect(rng.normal(size=12), tau=-2.0)
    var_mom = enumerate_hierarchical(table, clustering, counts)
    bound_mom = enumerate_hierarchical(table, clustering, counts, "sigma_hat_sq")
    assert bound_mom.mean == pytest.approx(var_mom.variance, abs=1e-10)


def _stratum_alone(part, y):
    # A stratum's draw as a plain design of its own units, and their outcomes.
    return replace(part, unit_ids=None), y[part.unit_ids]


def test_analyze_stratified_weights_strata_by_cluster_count():
    # Strata of 8, 12 and 16 two-unit clusters: the pooled gap weighs each
    # stratum's gap by M(s)/M and its bound by (M(s)/M)**2.
    local = np.random.default_rng(5)
    sizes = [8, 12, 16]
    clustering = Clustering.from_assignment(np.repeat(np.arange(sum(sizes)), 2))
    strat = Stratification(np.repeat(np.arange(3), sizes))
    parts = stratified_hierarchical_assign(clustering, strat, seed=4)
    y = local.normal(size=clustering.num_units)
    report = analyze_stratified(parts, y)
    weights = [m / sum(sizes) for m in sizes]
    deltas = [delta_statistic(*_stratum_alone(p, y)).delta for p in parts]
    bounds = [empirical_variance_bound(*_stratum_alone(p, y)) for p in parts]
    assert [d.num_clusters for d in report.strata] == sizes
    assert report.delta == pytest.approx(sum(w * d for w, d in zip(weights, deltas)), rel=1e-12)
    assert report.sigma_hat_sq == pytest.approx(
        sum(w * w * b for w, b in zip(weights, bounds)), rel=1e-12
    )
    # One stratum pooled twice, or alone, is not the design the outcomes cover.
    with pytest.raises(ValidationError, match="^unit 16 is in 2 strata, not exactly one$"):
        analyze_stratified(parts[1:2] * 2, y)
    with pytest.raises(ValidationError, match=r"^outcomes given for units outside the 16-unit clustering: \[16, "):
        analyze_stratified(parts[:1], y)
    with pytest.raises(ValidationError, match="no strata"):
        analyze_stratified([], y)
    # Two equal strata: the mean gap, and a quarter of the summed bounds.
    clustering = Clustering.from_assignment(np.repeat(np.arange(24), 2))
    halves = stratified_hierarchical_assign(clustering, Stratification(np.repeat([0, 1], 12)), seed=4)
    y = local.normal(size=clustering.num_units)
    report = analyze_stratified(halves, y)
    deltas = [delta_statistic(*_stratum_alone(p, y)).delta for p in halves]
    bounds = [empirical_variance_bound(*_stratum_alone(p, y)) for p in halves]
    assert report.delta == pytest.approx((deltas[0] + deltas[1]) / 2, rel=1e-12)
    assert report.sigma_hat_sq == pytest.approx((bounds[0] + bounds[1]) / 4, rel=1e-12)


def _sixteen_of_thirty_two():
    # A 16-unit design, and a 32-unit design of two 16-unit strata.
    plain = hierarchical_assign(Clustering.from_assignment(np.repeat(np.arange(8), 2)), DesignCounts.symmetric(16, 8))
    clustering = Clustering.from_assignment(np.repeat(np.arange(16), 2))
    parts = stratified_hierarchical_assign(clustering, Stratification(np.repeat([0, 1], 8)), seed=2)
    return plain, parts, np.random.default_rng(6).normal(size=32)


@pytest.mark.parametrize("case, message", [
    ("plain-extra", r"^outcomes given for units outside the 16-unit clustering: \[16, 17, 18, 19\]$"),
    ("plain-short", r"^outcomes missing for assigned units \[10, 11, 12, 13, 14, 15\]$"),
    ("stratum-twice", "^unit 0 is in 2 strata, not exactly one$"),
    ("first-stratum-alone", r"^outcomes given for units outside the 16-unit clustering: \[16, 17, "),
    ("second-stratum-alone", "^unit 0 is in 0 strata, not exactly one$"),
])
def test_analysis_refuses_outcomes_not_covering_each_design_unit_once(case, message):
    # Unchecked, these end in a report: extra outcomes are dropped, and a
    # stratum is pooled twice or stands for the whole design.
    plain, (p0, p1), y = _sixteen_of_thirty_two()
    call = {
        "plain-extra": lambda: analyze(plain, y[:20]),
        "plain-short": lambda: analyze(plain, y[:10]),
        "stratum-twice": lambda: analyze_stratified([p0, p0], y),
        "first-stratum-alone": lambda: analyze_stratified([p0], y),
        "second-stratum-alone": lambda: analyze_stratified([p1], y),
    }[case]
    with pytest.raises(ValidationError, match=message):
        call()
    # The same parts and outcomes, whole, are analyzed.
    analyze(plain, y[:16])
    analyze_stratified([p0, p1], y)


@pytest.mark.parametrize("statistic", [delta_statistic, empirical_variance_bound])
@pytest.mark.parametrize("case, message", [
    ("plain-extra", r"^outcomes given for units outside the 16-unit clustering: \[16, 17, 18, 19\]$"),
    ("plain-short", r"^outcomes missing for assigned units \[10, 11, 12, 13, 14, 15\]$"),
    ("first-stratum-alone", r"^outcomes given for units outside the 16-unit clustering: \[16, 17, "),
    ("second-stratum-alone", "^unit 0 is in 0 strata, not exactly one$"),
])
def test_statistics_refuse_outcomes_not_covering_the_design(statistic, case, message):
    # They read the outcomes as analyze does: with 20 outcomes for 16 units
    # they returned the values of the first 16.
    plain, (p0, p1), y = _sixteen_of_thirty_two()
    draw, outcomes = {
        "plain-extra": (plain, y[:20]),
        "plain-short": (plain, y[:10]),
        "first-stratum-alone": (p0, y),
        "second-stratum-alone": (p1, y),
    }[case]
    with pytest.raises(ValidationError, match=message):
        statistic(draw, outcomes)
    statistic(plain, y[:16])


@pytest.mark.parametrize("statistic", [
    analyze,
    lambda a, y: analyze_stratified([a], y),
    delta_statistic,
    empirical_variance_bound,
], ids=["analyze", "analyze_stratified", "delta_statistic", "empirical_variance_bound"])
@pytest.mark.parametrize("shape", [(16, 1), (1, 16), (16, 2), ()])
def test_outcomes_must_be_one_vector(statistic, shape):
    # A column of outcomes ended in numpy's TypeError, and a (16, 2) array
    # in a reshape error.
    plain, _, y = _sixteen_of_thirty_two()
    outcomes = np.resize(y[:16], shape) if shape else np.float64(1.0)
    message = f"^outcomes must be one vector, got shape {re.escape(str(shape))}$"
    with pytest.raises(ValidationError, match=message):
        statistic(plain, outcomes)


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from([(8, 2), (12, 3), (16, 3), (20, 5)]),
    mechanism=st.sampled_from(["complete", "bernoulli"]),
    rule=st.sampled_from(["chebyshev", "gaussian"]),
    seed=st.integers(0, 10_000),
    scale=st.sampled_from([1e-3, 1.0, 7.5, 1e6]),
)
def test_plain_analysis_is_the_one_stratum_pool(shape, mechanism, rule, seed, scale):
    # A plain report is the pool of its one stratum, bit for bit (compared
    # as JSON text, so that -0.0 and 0.0 differ), apart from the strata.
    m, k = shape
    clustering = Clustering.from_assignment(np.repeat(np.arange(m), k))
    counts = DesignCounts.symmetric(m * k, m)
    a = hierarchical_assign(clustering, counts, seed=seed, cr_arm_mechanism=mechanism)
    assume(min(a.counts.n_cr_t, a.counts.n_cr_c) >= 2)
    y = scale * np.random.default_rng(seed).normal(size=m * k) + 3.0
    plain = analyze(a, y, decision_rule=rule).to_dict()
    pooled = analyze_stratified([a], y, decision_rule=rule).to_dict()
    assert (plain.pop("stratified"), plain.pop("strata")) == (False, [])
    assert (pooled.pop("stratified"), len(pooled.pop("strata"))) == (True, 1)
    assert json.dumps(plain, sort_keys=True) == json.dumps(pooled, sort_keys=True)


def test_plain_refusal_names_no_stratum(oracle_design):
    # The bundled design's cluster arm holds one cluster of each treatment.
    _, clustering, counts, _, _ = oracle_design
    a = hierarchical_assign(clustering, counts, seed=0)
    y = np.arange(8, dtype=np.float64)
    refusal = "need >= 2 treated and >= 2 control clusters in the cluster arm"
    with pytest.raises(ValidationError, match=f"^{refusal}$"):
        analyze(a, y)
    with pytest.raises(ValidationError, match=f"^stratum 0: {refusal}$"):
        analyze_stratified([a], y)


def test_gaussian_p_value_reference_points():
    assert gaussian_p_value(-3.3, 8.1) == pytest.approx(0.6837087874007906, abs=1e-12)
    assert gaussian_p_value(0.0, 1.0) == 1.0
    assert gaussian_p_value(1.959964, 1.0) == pytest.approx(0.05, abs=1e-6)
    with pytest.raises(ValidationError):
        gaussian_p_value(1.0, 0.0)


def _reference_chebyshev_p_value(delta, sigma_hat_sq):
    # Distribution-free tail bound min(1, sigma_hat_sq / delta**2).
    if sigma_hat_sq < 0:
        raise ValidationError("variance bound cannot be negative")
    if delta == 0:
        return 1.0
    if sigma_hat_sq == 0:
        return 0.0
    return min(1.0, sigma_hat_sq / (delta * delta))


def _reference_chebyshev_decision(delta, sigma_hat_sq, alpha):
    # Reject no-interference iff |delta| >= sqrt(sigma_hat_sq / alpha).
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha={alpha} must lie in (0, 1)")
    if sigma_hat_sq < 0:
        raise ValidationError("variance bound cannot be negative")
    if delta == 0.0:
        return False
    return abs(delta) >= math.sqrt(sigma_hat_sq / alpha)


def _reference_report_decision(delta, sigma_hat_sq, alpha):
    # The analysis report's decision branches before the one decision step:
    # t-statistic, both p-values and both rules' verdicts.
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha={alpha} must lie in (0, 1)")
    if not (math.isfinite(delta) and math.isfinite(sigma_hat_sq)):
        raise ValidationError(f"non-finite statistic: delta={delta!r}, sigma_hat_sq={sigma_hat_sq!r}")
    if sigma_hat_sq > 0:
        t_stat = delta / math.sqrt(sigma_hat_sq)
        p_gauss = gaussian_p_value(delta, math.sqrt(sigma_hat_sq))
    else:
        t_stat = 0.0 if delta == 0 else math.inf
        p_gauss = 1.0 if delta == 0 else 0.0
    p_cheb = _reference_chebyshev_p_value(delta, sigma_hat_sq)
    reject_cheb = _reference_chebyshev_decision(delta, sigma_hat_sq, alpha) if sigma_hat_sq > 0 else delta != 0
    return t_stat, p_cheb, p_gauss, reject_cheb, p_gauss < alpha


def _reference_study_counts(delta, bound, alpha):
    # How the study loop counted one draw before the one decision step:
    # (Chebyshev rejects, Gaussian rejects).
    cheb = _reference_chebyshev_decision(delta, bound, alpha)
    gauss = bound > 0 and gaussian_p_value(delta, math.sqrt(bound)) < alpha
    return bool(cheb), bool(gauss)


def _outcome(fn, *args):
    try:
        return tuple(fn(*args))
    except ValidationError as exc:
        return f"error: {exc}"


def _decide_cases():
    non_finite = (math.nan, math.inf, -math.inf)
    for alpha in (0.05, 0.5):
        for delta in (0.0, -0.0, 1e-17, -1e-17, 1.0, -1.0, 1e308) + non_finite:
            for bound in (0.0, 5e-324, 1e-36, 1.0, 1e308, -1.0, math.nan, math.inf):
                yield delta, bound, alpha
    for alpha in (0.0, 1.0, -0.1, 1.5, math.nan):
        for delta, bound in ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (math.nan, 1.0)):
            yield delta, bound, alpha


def test_chebyshev_rule():
    # At bound 1 and alpha 0.05 the threshold is sqrt(20) ~ 4.4721, and the
    # p-value is min(1, 1 / delta**2).
    assert _decide(4.48, 1.0, 0.05, 0.0).reject_chebyshev
    assert not _decide(4.47, 1.0, 0.05, 0.0).reject_chebyshev
    assert not _decide(0.0, 1.0, 0.05, 0.0).reject_chebyshev
    assert _decide(2.0, 1.0, 0.05, 0.0).p_chebyshev == pytest.approx(0.25)
    assert _decide(0.5, 1.0, 0.05, 0.0).p_chebyshev == 1.0
    with pytest.raises(ValidationError, match="alpha=1.5"):
        _decide(1.0, 1.0, 1.5, 0.0)
    with pytest.raises(ValidationError, match="cannot be negative"):
        _decide(1.0, -1.0, 0.05, 0.0)


def test_decide_reads_a_gap_within_the_rounding_floor_as_zero():
    # A gap and a bound within the floor (and its square) are no evidence;
    # the checks before it still refuse, and a gap or bound past it decides
    # as without a floor.
    assert tuple(_decide(-1.5e-16, 0.0, 0.05, 1e-14)) == (0.0, 1.0, 1.0, False, False)
    assert tuple(_decide(1e-14, 1e-28, 0.05, 1e-14)) == (0.0, 1.0, 1.0, False, False)
    assert _decide(1e-13, 0.0, 0.05, 1.4e-14)[3:] == (True, True)
    assert _decide(1e-15, 1e-27, 0.05, 1e-14) == _decide(1e-15, 1e-27, 0.05, 0.0)
    with pytest.raises(ValidationError, match="non-finite"):
        _decide(math.nan, 0.0, 0.05, 1e-14)
    with pytest.raises(ValidationError, match="cannot be negative"):
        _decide(0.0, -1e-30, 0.05, 1e-14)


def test_decide_matches_report_reference_and_study_counts():
    study_differs = 0
    overflow_differs = 0
    for delta, bound, alpha in _decide_cases():
        case = (delta, bound, alpha)
        decided = _outcome(_decide, *case, 0.0)
        if delta == bound == 1e308:
            # delta * delta and bound / alpha overflow to inf, so both
            # references read a gap 1e154 bound-widths out as no evidence;
            # the decision step rejects it, with p_chebyshev = 1e-308.
            reference = _outcome(_reference_report_decision, *case)
            assert reference[1] == 0.0 and not reference[3], case
            assert decided[1] == pytest.approx(1e-308) and decided[3], case
            assert decided[:1] + decided[2:3] + decided[4:] == reference[:1] + reference[2:3] + reference[4:], case
            assert _reference_study_counts(*case) == (False, True), case
            overflow_differs += 1
            continue
        assert decided == _outcome(_reference_report_decision, *case), case
        counted = _outcome(_reference_study_counts, *case)
        if not 0.0 < alpha < 1.0:
            assert decided.startswith("error: alpha=") and counted.startswith("error: alpha="), case
        elif bound < 0:
            assert decided.startswith("error: ") and counted == "error: variance bound cannot be negative", case
        elif not (math.isfinite(delta) and math.isfinite(bound)):
            # The study loop counted these as numbers; the decision step refuses them.
            assert decided.startswith("error: non-finite statistic") and isinstance(counted, tuple), case
        elif bound == 0 and delta != 0:
            # The study loop skipped the Gaussian count at a zero bound.
            assert counted == (decided[3], False) and decided[3] and decided[4], case
            study_differs += 1
        else:
            assert counted == decided[3:], case
    assert study_differs == 2 * 5
    assert overflow_differs == 2


def test_translation_and_scale_equivariance():
    a = _manual_assignment()
    y = rng.normal(size=16)
    base = delta_statistic(a, y)
    base_bound = empirical_variance_bound(a, y)

    shifted = delta_statistic(a, y + 11.0)
    assert shifted.delta == pytest.approx(base.delta, abs=1e-10)
    assert empirical_variance_bound(a, y + 11.0) == pytest.approx(base_bound, abs=1e-10)

    scaled = delta_statistic(a, 3.0 * y)
    assert scaled.delta == pytest.approx(3.0 * base.delta, abs=1e-10)
    assert empirical_variance_bound(a, 3.0 * y) == pytest.approx(9.0 * base_bound, rel=1e-10)
    r1 = analyze(a, y)
    r2 = analyze(a, 3.0 * y)
    assert r2.t_stat == pytest.approx(r1.t_stat, abs=1e-10)
    assert r1.reject == r2.reject


def test_analyze_report_fields():
    a = _manual_assignment()
    y = rng.normal(size=16)
    report = analyze(a, y, alpha=0.05)
    assert report.t_stat == pytest.approx(report.delta / math.sqrt(report.sigma_hat_sq))
    assert 0.0 <= report.p_chebyshev <= 1.0
    assert 0.0 <= report.p_gaussian <= 1.0
    assert report.decision in ("reject", "fail-to-reject")
    assert report.counts["n_cr"] == 8
    gaussian = analyze(a, y, alpha=0.05, decision_rule="gaussian")
    assert gaussian.reject == (gaussian.p_gaussian < 0.05)
    payload = report.to_dict()
    assert "sigma_hat_sq" in payload and payload["decision"] == report.decision
    assert list(payload) == [
        "tau_cr", "tau_cbr", "delta", "sigma_hat_sq", "t_stat", "p_chebyshev", "p_gaussian", "alpha",
        "decision_rule", "reject", "counts", "provenance", "strata", "decision", "stratified",
    ]
    # The payload's counts are its own: editing them leaves the report as it was.
    payload["counts"]["n_cr"] = 0
    assert report.counts["n_cr"] == 8
    with pytest.raises(ValidationError, match="^unknown decision rule 'x'$"):
        analyze(a, y, decision_rule="x")


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_analyze_refuses_non_finite_statistic(bad):
    a = _manual_assignment()
    y = rng.normal(size=16)
    y[3] = bad
    with np.errstate(invalid="ignore"), pytest.raises(ValidationError, match="non-finite"):
        analyze(a, y)


def test_analyze_stratified_pools_strata():
    clustering = Clustering.from_assignment(np.repeat(np.arange(16), 2))
    strat = Stratification(np.array([0] * 8 + [1] * 8))
    parts = stratified_hierarchical_assign(clustering, strat, seed=3)
    y = rng.normal(size=32)
    report = analyze_stratified(parts, y)
    assert report.stratified and len(report.strata) == 2
    per = [delta_statistic(*_stratum_alone(p, y)).delta for p in parts]
    assert report.delta == pytest.approx(sum(per) / 2)


def test_expected_delta_linear_matches_enumeration(oracle_design):
    graph, clustering, counts, model, _ = oracle_design
    mom = enumerate_hierarchical(model, clustering, counts)
    assert expected_delta_linear(model, clustering, counts) == pytest.approx(mom.mean, abs=1e-12)


def test_expected_delta_linear_with_isolated_units():
    # Clique pair plus an isolated 2-unit cluster: the closed form must use
    # the non-isolated fraction, matching enumeration exactly.
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    edges += [(i, j) for i in range(4, 8) for j in range(i + 1, 8)]
    edges += [(3, 4)]
    graph = Graph.from_edges(10, edges)
    clustering = Clustering.from_assignment(np.repeat(np.arange(5), 2))
    counts = DesignCounts(
        n_cr=4, n_cbr=6, m_cr=2, m_cbr=3, n_cr_t=2, n_cr_c=2, m_cbr_t=1, m_cbr_c=2
    )
    model = LinearInterferenceModel(alpha=0.1, beta=1.0, gamma=0.7, noise_sd=0.0, graph=graph)
    mom = enumerate_hierarchical(model, clustering, counts)
    assert expected_delta_linear(model, clustering, counts) == pytest.approx(mom.mean, abs=1e-12)


def _dense_eta_quadratic_moments(h, m, s):
    # The M x M form of _eta_quadratic_moments, kept as its reference.
    mom = _eta_moments(m, s)
    diag = h.diagonal().astype(np.float64)
    sym = (h + h.T) / 2.0
    np.fill_diagonal(sym, 0.0)
    p2 = float(sym.sum())
    q2 = float((sym**2).sum())
    rows = sym.sum(axis=1)
    sum_r_sq = float((rows**2).sum())
    diag_sum = float(diag.sum())
    diag_sq = float((diag**2).sum())
    diag_row = float((diag * rows).sum())
    mean = mom["m2"] * diag_sum + mom["m11"] * p2
    t1 = mom["m2"] * diag_sq + mom["m22"] * (diag_sum**2 - diag_sq)
    t2 = 2.0 * (2.0 * diag_row * mom["m11"] + (diag_sum * p2 - 2.0 * diag_row) * mom["m211"])
    share_one = sum_r_sq - q2
    t3 = (
        2.0 * q2 * mom["m22"]
        + 4.0 * share_one * mom["m211"]
        + (p2**2 - 2.0 * q2 - 4.0 * share_one) * mom["m1111"]
    )
    return mean, t1 + t2 + t3 - mean**2


def _cluster_links(graph, clustering):
    # Each directed neighbor link i -> j as (cluster of i, cluster of j, 1/d_i),
    # and the dense matrix g that sums them.
    deg = graph.degrees.astype(np.float64)
    inv_deg = np.zeros(graph.num_units)
    inv_deg[deg > 0] = 1.0 / deg[deg > 0]
    a = clustering.assignment[graph.adjacency_sources]
    b = clustering.assignment[graph.adjacency_indices]
    w = inv_deg[graph.adjacency_sources]
    g_mat = np.zeros((clustering.num_clusters, clustering.num_clusters))
    np.add.at(g_mat, (a, b), w)
    return a, b, w, g_mat


def test_eta_quadratic_moments_brute_force():
    import itertools

    for m, s in [(4, 2), (8, 4)]:
        h = rng.normal(size=(m, m))
        a, b = np.indices((m, m)).reshape(2, -1)
        mean_f, var_f = _eta_quadratic_moments(a, b, h.ravel(), m, s)
        assert (mean_f, var_f) == pytest.approx(_dense_eta_quadratic_moments(h, m, s), rel=1e-12)
        vals = []
        for support in itertools.combinations(range(m), s):
            for treated in itertools.combinations(support, s // 2):
                eta = np.zeros(m)
                eta[list(support)] = -1.0
                eta[list(treated)] = 1.0
                vals.append(float(eta @ h @ eta))
        vals = np.asarray(vals)
        assert mean_f == pytest.approx(vals.mean(), abs=1e-12)
        assert var_f == pytest.approx(vals.var(), abs=1e-12)


_CLOSED_FORMS = {
    "interference_variance_approx": lambda model, table, clustering, counts: interference_variance_approx(
        model, clustering, counts
    ),
    "expected_delta_linear": lambda model, table, clustering, counts: expected_delta_linear(model, clustering, counts),
    "theoretical_sutva_variance": lambda model, table, clustering, counts: theoretical_sutva_variance(
        table, clustering, counts
    ),
    "fisher_null_variance": lambda model, table, clustering, counts: fisher_null_variance(table.y0, clustering, counts),
}


@pytest.mark.parametrize("form", list(_CLOSED_FORMS))
@pytest.mark.parametrize("case", ["wrong-m", "unbalanced"])
def test_closed_forms_refuse_a_design_assign_refuses(form, case):
    # 8 clusters of 2 with the counts of 4 clusters of 4, or clusters of 3
    # and 1 among clusters of 2: each closed form returned a number for a
    # design that hierarchical_assign refuses.
    graph = Graph.from_edges(16, [(u, (u + 1) % 16) for u in range(16)])
    model = LinearInterferenceModel(alpha=0.0, beta=1.0, gamma=1.0, noise_sd=0.5, graph=graph)
    table = PotentialTable(y1=np.arange(16.0) + 1.0, y0=np.arange(16.0) % 5)
    pairs = np.repeat(np.arange(8), 2)
    clustering, counts, message = {
        "wrong-m": (Clustering(pairs), DesignCounts.symmetric(16, 4), "^design counts do not match the clustering$"),
        "unbalanced": (
            Clustering(np.concatenate([[0, 0, 0, 1], pairs[4:]])),
            DesignCounts.symmetric(16, 8),
            r"^the design requires exactly equal cluster sizes; run rebalance\(\) first \(sizes range 1\.\.3\)$",
        ),
    }[case]
    with pytest.raises(ValidationError, match=message):
        hierarchical_assign(clustering, counts, seed=1)
    with pytest.raises(ValidationError, match=message):
        _CLOSED_FORMS[form](model, table, clustering, counts)
    _CLOSED_FORMS[form](model, table, Clustering(pairs), DesignCounts.symmetric(16, 8))


@pytest.mark.parametrize("units", [8, 24])
def test_linear_closed_forms_refuse_a_graph_of_other_n(units):
    # On 24 units, expected_delta_linear returned -0.52 for a 16-unit graph;
    # on 8 it raised an IndexError.
    graph = Graph.from_edges(16, [(u, (u + 1) % 16) for u in range(16)])
    model = LinearInterferenceModel(alpha=0.0, beta=1.0, gamma=1.0, noise_sd=0.5, graph=graph)
    clustering = Clustering(np.repeat(np.arange(units // 2), 2))
    counts = DesignCounts.symmetric(units, units // 2)
    with pytest.raises(ValidationError, match="^graph and clustering must agree on N$"):
        expected_delta_linear(model, clustering, counts)
    with pytest.raises(ValidationError, match="^graph and clustering must agree on N$"):
        interference_variance_approx(model, clustering, counts)


def test_interference_variance_requires_symmetric_design(oracle_design):
    graph, clustering, _, model, _ = oracle_design
    lopsided = DesignCounts(
        n_cr=2, n_cbr=6, m_cr=1, m_cbr=3, n_cr_t=1, n_cr_c=1, m_cbr_t=1, m_cbr_c=2
    )
    with pytest.raises(ValidationError, match="symmetric"):
        interference_variance_approx(model, clustering, lopsided)


def test_interference_variance_empty_graph_is_noise_only():
    graph = Graph.from_edges(8, [])
    clustering = Clustering.from_assignment(np.repeat(np.arange(4), 2))
    counts = DesignCounts.symmetric(8, 4)
    model = LinearInterferenceModel(alpha=0.0, beta=1.0, gamma=2.0, noise_sd=1.5, graph=graph)
    est = interference_variance_approx(model, clustering, counts)
    expected_noise = 1.5**2 * (1 / 2 + 1 / 2 + 1 / 2 + 1 / 2)
    assert est.structural == pytest.approx(0.0, abs=1e-15)
    assert est.variance == pytest.approx(expected_noise)
    assert est.expected_delta == 0.0


def _reference_interference_mean(model, graph, clustering, counts):
    # interference_variance_approx's own mean of the gap before it read
    # expected_delta_linear: the cluster-arm quadratic form's exact mean plus
    # the unit arm's finite-sample drag over the directed neighbor mass.
    n, m, s = graph.num_units, clustering.num_clusters, counts.m_cbr
    c_src, c_dst, w_src, g_mat = _cluster_links(graph, clustering)
    mean_g, _ = _dense_eta_quadratic_moments(-g_mat, m, s)
    diff = c_src != c_dst
    p_same_cr = (m - s) / m
    p_diff_cr = (m - s) * (m - s - 1) / (m * (m - 1))
    cr_mass = float(p_same_cr * w_src[~diff].sum() + p_diff_cr * w_src[diff].sum())
    return model.gamma * (2.0 / n) * (mean_g - cr_mass / (counts.n_cr - 1))


EXACT_MEAN_SPECS = (
    SbmSpec(num_blocks=8, block_size=10, p_intra=0.4, p_inter=0.04, seed=2),
    SbmSpec(num_blocks=12, block_size=8, p_intra=0.06, p_inter=0.002, seed=5),
    SbmSpec(num_blocks=16, block_size=6, p_intra=0.9, p_inter=0.05, seed=9),
)


def test_interference_variance_exact_mean(oracle_design):
    designs = [oracle_design[:2]] + [generate_sbm(spec) for spec in EXACT_MEAN_SPECS]
    isolated = 0
    for graph, clustering in designs:
        isolated = max(isolated, int(np.count_nonzero(graph.degrees == 0)))
        counts = DesignCounts.symmetric(graph.num_units, clustering.num_clusters)
        model = LinearInterferenceModel(alpha=0.3, beta=1.0, gamma=1.7, noise_sd=0.5, graph=graph)
        est = interference_variance_approx(model, clustering, counts)
        assert est.expected_delta == expected_delta_linear(model, clustering, counts)
        assert est.expected_delta == pytest.approx(
            _reference_interference_mean(model, graph, clustering, counts), abs=1e-12
        )
    assert isolated > 0


def test_eta_quadratic_moments_match_the_dense_matrix(oracle_design):
    # The planner reads the cluster-pair links without building the M x M
    # matrix; the dense form must agree, up to summation order.
    designs = [oracle_design[:2]] + [generate_sbm(spec) for spec in EXACT_MEAN_SPECS]
    designs.append(generate_sbm(SbmSpec(num_blocks=2000, block_size=2, p_intra=0.5, p_inter=0.001, seed=3)))
    for graph, clustering in designs:
        m = clustering.num_clusters
        s = DesignCounts.symmetric(graph.num_units, m).m_cbr
        a, b, w, g_mat = _cluster_links(graph, clustering)
        sparse = _eta_quadratic_moments(a, b, -w, m, s)
        assert sparse == pytest.approx(_dense_eta_quadratic_moments(-g_mat, m, s), rel=1e-12)
    assert m == 2000 and len(a) > 4000


def test_interference_variance_tracks_monte_carlo_mid_scale():
    # Noise-free mid-scale check isolates the structural part; the predictor
    # drops only O(1/n_cr)-relative terms.
    from spilltest import SbmSpec, generate_sbm, realize_linear

    graph, clustering = generate_sbm(
        SbmSpec(num_blocks=12, block_size=25, p_intra=0.25, p_inter=0.03, seed=11)
    )
    counts = DesignCounts.symmetric(graph.num_units, clustering.num_clusters)
    model = LinearInterferenceModel(alpha=0.2, beta=1.0, gamma=1.0, noise_sd=0.0, graph=graph)
    est = interference_variance_approx(model, clustering, counts)
    draws = 4000
    reps = np.random.SeedSequence(2025).spawn(draws)
    deltas = np.empty(draws)
    for r in range(draws):
        a = hierarchical_assign(clustering, counts, reps[r])
        deltas[r] = delta_statistic(a, realize_linear(model, a.treatment, seed=0)).delta
    mc = deltas.var(ddof=1)
    assert abs(est.variance - mc) / mc < 0.15
