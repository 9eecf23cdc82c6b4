"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 4's general-table clause is expected to fail: the plug-in bound is
NOT conservative in expectation for arbitrary heterogeneous effects at
cluster sizes >= 2. The exact gap identity (verified against enumeration in
test_estimate.py::test_bound_gap_identity) is zero for constant effects and
on average over i.i.d. effect tables, but negative whenever treatment
effects correlate within clusters. The criterion is kept red rather than
weakened.
"""

import csv
import io
import json
import math
import time

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st

from conftest import fixture_path, record_criterion
from spilltest import (
    Clustering,
    DesignCounts,
    LinearInterferenceModel,
    PotentialTable,
    SbmSpec,
    analyze,
    bernoulli_vs_cr_variance_gap,
    binomial_negative_moment,
    delta_statistic,
    enumerate_cluster,
    enumerate_complete,
    enumerate_hierarchical,
    fisher_null_variance,
    gaussian_p_value,
    generate_sbm,
    hierarchical_assign,
    interference_variance_approx,
    neighborhood_fractions,
    realize_linear,
)
from spilltest.assign import ARM_CBR
from spilltest.cli import main as cli_main
from spilltest.estimate import (
    _decide,
    expected_cluster_estimate_linear,
    expected_diff_in_means_linear,
)
from spilltest.sim import SimConfig, run_study

@pytest.fixture(scope="module")
def power_report():
    cfg = SimConfig.from_json(fixture_path("fig1b_desk.json").read_text())
    return run_study(cfg)


def test_criterion_1_exact_unbiasedness(oracle_design):
    start = time.perf_counter()
    _, clustering, counts, _, _ = oracle_design
    # Each criterion draws from its own generator, so its tables do not
    # depend on which tests ran before it.
    rng = np.random.default_rng(160_000)
    table = PotentialTable(y1=rng.normal(size=8), y0=rng.normal(size=8))
    tau = float(np.mean(table.y1 - table.y0))
    cr = enumerate_complete(table, 4)
    cbr = enumerate_cluster(table, clustering, 2)
    delta = enumerate_hierarchical(table, clustering, counts)
    elapsed = time.perf_counter() - start
    errs = (abs(cr.mean - tau), abs(cbr.mean - tau), abs(delta.mean))
    passed = max(errs) <= 1e-12 and elapsed < 1.0
    record_criterion(
        1, passed, f"|E-tau| errors {errs[0]:.2e}/{errs[1]:.2e}, |E(delta)|={errs[2]:.2e}"
    )
    assert passed


def test_criterion_2_linear_model_closed_forms(oracle_design):
    start = time.perf_counter()
    graph, clustering, _, model, _ = oracle_design
    n, m = graph.num_units, clustering.num_clusters
    rho = float(neighborhood_fractions(graph, clustering).mean())
    cr = enumerate_complete(model, n // 2)
    cbr = enumerate_cluster(model, clustering, m // 2)
    closed_cr = model.beta - model.gamma / (n - 1)
    closed_cbr = model.beta + model.gamma * (rho * m - 1) / (m - 1)
    elapsed = time.perf_counter() - start
    err_cr = abs(cr.mean - closed_cr)
    err_cbr = abs(cbr.mean - closed_cbr)
    # Consistency with the library's own closed forms (no isolated units here).
    assert closed_cr == pytest.approx(expected_diff_in_means_linear(model, n // 2), abs=1e-15)
    assert closed_cbr == pytest.approx(expected_cluster_estimate_linear(model, clustering), abs=1e-15)
    passed = max(err_cr, err_cbr) <= 1e-12 and elapsed < 1.0
    record_criterion(2, passed, f"unit-arm err {err_cr:.2e}, cluster-arm err {err_cbr:.2e}")
    assert passed


def test_criterion_3_null_variance_exact(bound_design):
    clustering, counts = bound_design
    rng = np.random.default_rng(160_003)
    worst = 0.0
    for _ in range(5):
        y = rng.normal(size=12)
        mom = enumerate_hierarchical(PotentialTable(y1=y, y0=y), clustering, counts)
        worst = max(worst, abs(mom.variance - fisher_null_variance(y, clustering, counts)))
    passed = worst <= 1e-10
    record_criterion(3, passed, f"max |enum var - formula| = {worst:.2e} (tol 1e-10)")
    assert passed


def test_criterion_4_constant_effect_equality(bound_design):
    clustering, counts = bound_design
    table = PotentialTable.constant_effect(np.random.default_rng(160_004).normal(size=12), tau=0.75)
    var_mom = enumerate_hierarchical(table, clustering, counts)
    bound_mom = enumerate_hierarchical(table, clustering, counts, "sigma_hat_sq")
    err = abs(bound_mom.mean - var_mom.variance)
    passed = err <= 1e-10
    record_criterion(4, passed, f"constant effect: |E(bound) - var| = {err:.2e} (tol 1e-10)")
    assert passed


def test_criterion_4_random_table_inequality(bound_design):
    # Mathematically the expected bound exceeds the true variance iff
    # a*S_tc >= (b + 1/k)*S_plus_tc, an identity this suite verifies exactly
    # in test_estimate.py::test_bound_gap_identity; over i.i.d. tables the
    # two sides are equal in expectation, so roughly half of random tables
    # violate the inequality. Kept red deliberately (see module docstring).
    clustering, counts = bound_design
    table_rng = np.random.default_rng(4242)
    worst = math.inf
    violations = 0
    for _ in range(100):
        table = PotentialTable(y1=table_rng.normal(size=12), y0=table_rng.normal(size=12))
        var_mom = enumerate_hierarchical(table, clustering, counts)
        bound_mom = enumerate_hierarchical(table, clustering, counts, "sigma_hat_sq")
        gap = bound_mom.mean - var_mom.variance
        worst = min(worst, gap)
        violations += gap < -1e-10
    passed = violations == 0
    record_criterion(
        4, passed,
        f"random tables: {violations}/100 violate E(bound) >= var(delta); "
        f"most negative gap {worst:.3g} (bound is tight only on average over tables)",
    )
    assert passed, (
        f"{violations}/100 random tables violate the conservative-bound claim "
        f"(worst gap {worst:.3g}); the claim is provably not attainable for "
        "general heterogeneous effects at cluster size >= 2"
    )


def test_criterion_5_bernoulli_vs_complete():
    start = time.perf_counter()
    table_rng = np.random.default_rng(55_555)
    worst_ratio = 0.0
    for _ in range(100):
        table = PotentialTable(y1=table_rng.normal(size=12), y0=table_rng.normal(size=12))
        gap = bernoulli_vs_cr_variance_gap(table, 6)  # raises CheckFailure on violation
        worst_ratio = max(worst_ratio, gap.gap / gap.bound)
    moment_err = abs(binomial_negative_moment(12, 0.5) - 1.0 / 6.0)
    elapsed = time.perf_counter() - start
    passed = worst_ratio <= 1.0 and moment_err <= 5.0 / 36.0 and elapsed < 10.0
    record_criterion(
        5, passed,
        f"100 tables within bound (worst ratio {worst_ratio:.3f}); "
        f"|E(1/eta)-1/6|={moment_err:.4f} <= {5 / 36:.4f}",
    )
    assert passed


def test_criterion_6_variance_ratio_desk_study():
    cfg = SimConfig.from_json(fixture_path("fig1a_desk.json").read_text())
    report = run_study(cfg)
    row = report.rows[0]
    passed = 0.97 <= row.ratio_mean <= 1.03 and row.ratio_q10 <= 1.0 <= row.ratio_q90
    record_criterion(
        6, passed,
        f"mean ratio {row.ratio_mean:.4f} in [0.97, 1.03]; "
        f"q10-q90 band [{row.ratio_q10:.3f}, {row.ratio_q90:.3f}] contains 1 "
        f"({cfg.num_clusters} clusters x {cfg.cluster_size}, R={cfg.replications})",
    )
    assert passed


def test_criterion_7_power_study(power_report):
    rows = power_report.rows
    settings = sorted({r.setting for r in rows})
    rhos = {s: next(r.rho_c for r in rows if r.setting == s) for s in settings}

    # Tuned probabilities realize the target containment levels.
    targets = [0.05, 0.2, 0.4]
    rho_ok = all(abs(rhos[s] - t) / t <= 0.2 for s, t in zip(settings, targets))

    # (a) Type-I control at gamma = 0.
    null_ok = True
    for s in settings:
        row = next(r for r in rows if r.setting == s and r.gamma == 0.0)
        se = max(row.mc_se, math.sqrt(0.05 * 0.95 / row.replications))
        null_ok &= row.rejection_rate <= 0.05 + 3 * se

    # (b) Power monotone in gamma, up to twice the combined Monte Carlo error.
    mono_ok = True
    for s in settings:
        series = sorted((r for r in rows if r.setting == s), key=lambda r: r.gamma)
        for lo, hi in zip(series, series[1:]):
            slack = 2 * math.sqrt(lo.mc_se**2 + hi.mc_se**2)
            mono_ok &= hi.rejection_rate >= lo.rejection_rate - slack

    # Power is also non-decreasing in the containment level at fixed gamma.
    rho_mono_ok = True
    for gamma in sorted({r.gamma for r in rows}):
        if gamma == 0.0:
            continue
        series = sorted((r for r in rows if r.gamma == gamma), key=lambda r: r.rho_c)
        for lo, hi in zip(series, series[1:]):
            slack = 2 * math.sqrt(lo.mc_se**2 + hi.mc_se**2)
            rho_mono_ok &= hi.rejection_rate >= lo.rejection_rate - slack

    # (c) Power at the tightest clustering and full-strength interference.
    top = next(r for r in rows if r.setting == settings[-1] and r.gamma == 1.0)
    power_ok = top.rejection_rate >= 0.9

    passed = rho_ok and null_ok and mono_ok and rho_mono_ok and power_ok
    record_criterion(
        7, passed,
        f"rho_c={[round(rhos[s], 4) for s in settings]}; null rates ok={null_ok}; "
        f"monotone in gamma={mono_ok}, in rho_c={rho_mono_ok}; "
        f"power(rho~0.4, gamma=1)={top.rejection_rate:.3f} >= 0.9",
    )
    assert passed


def test_criterion_8_mean_gap_tracks_containment():
    # The gap's mean approximates the interference soaked up by the cluster
    # arm: with the gap defined as (unit arm - cluster arm) it is the
    # NEGATIVE of gamma * rho_c, so the magnitude carries the testable
    # content. The exact finite-M mean is gamma * (rho_c * M - 1) / (M - 1)
    # (enumeration-verified in test_estimate.py); gamma here is small enough
    # that the approximation's own finite-M deviation from gamma * rho_c
    # sits inside 3 Monte Carlo SEs.
    spec = SbmSpec(num_blocks=40, block_size=100, p_intra=25 / 99, p_inter=36 / 3900, seed=4103)
    cfg = SimConfig(
        study="power", replications=2000, seed=11003, sbm=(spec,),
        gamma_grid=(0.05,), baseline=0.0, direct_effect=1.0, noise_sd=1.0,
    )
    row = run_study(cfg).rows[0]
    target = row.gamma * row.rho_c
    gap = abs(-row.mean_delta - target)
    passed = gap <= 3 * row.delta_se
    record_criterion(
        8, passed,
        f"mean(cluster-arm minus unit-arm est) = {-row.mean_delta:.5f} vs "
        f"gamma*rho_c = {target:.5f}; |diff| = {gap:.5f} <= 3*SE = {3 * row.delta_se:.5f}",
    )
    assert passed


def test_criterion_9_reported_p_value_arithmetic():
    p = gaussian_p_value(-3.3, 8.1)
    passed = abs(p - 0.684) <= 0.01
    record_criterion(9, passed, f"two-tailed p({-3.3}/{8.1}) = {p:.4f} = 0.684 +- 0.01")
    assert passed


@hypothesis_settings(max_examples=500, deadline=None)
@example(delta=5e-324, sigma_hat_sq=1.0, alpha=0.05)
@example(delta=-1e-162, sigma_hat_sq=5e-324, alpha=0.5)
@given(
    delta=st.floats(allow_nan=False, allow_infinity=False),
    sigma_hat_sq=st.floats(min_value=0.0, allow_infinity=False),
    alpha=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
)
def test_criterion_9_p_values_at_every_scale(delta, sigma_hat_sq, alpha):
    # A gap too small to square (delta * delta underflows to 0.0) still gets
    # a p-value, and the Chebyshev verdict is the threshold rule, with the
    # threshold taken as sqrt(sigma_hat_sq) / sqrt(alpha) where the plain
    # quotient overflows.
    decision = _decide(delta, sigma_hat_sq, alpha, 0.0)
    assert 0.0 <= decision.p_chebyshev <= 1.0
    assert 0.0 <= decision.p_gaussian <= 1.0
    quotient = sigma_hat_sq / alpha
    threshold = math.sqrt(quotient) if math.isfinite(quotient) else math.sqrt(sigma_hat_sq) / math.sqrt(alpha)
    assert decision.reject_chebyshev == (delta != 0 and abs(delta) >= threshold)


@pytest.mark.parametrize(
    "delta, p_chebyshev",
    [(1e155, 1e308 / 1e155 / 1e155), (1e308, 1e308 / 1e308 / 1e308), (-1e308, 1e308 / 1e308 / 1e308)],
)
def test_criterion_9_decision_at_the_float_maximum(delta, p_chebyshev):
    # sigma_hat_sq / alpha and delta * delta overflow to inf here; the gap
    # lies ten or more bound-widths out, so both rules reject.
    decision = _decide(delta, 1e308, 0.05, 0.0)
    assert decision.p_chebyshev == pytest.approx(p_chebyshev, rel=1e-12)
    assert decision.reject_chebyshev and decision.reject_gaussian


def test_criterion_9_cli_analyze_at_subnormal_scale(tmp_path):
    # 8 clusters of 4 units under the symmetric design; outcomes near 1e-161
    # give a gap whose square underflows and a bound of a few subnormals.
    clusters = tmp_path / "c.csv"
    clusters.write_text("unit_id,cluster_id\n" + "".join(f"{u},{u // 4}\n" for u in range(32)))
    assignment, counts = tmp_path / "a.csv", tmp_path / "k.json"
    assert cli_main(["assign", "--clusters-file", str(clusters), "--seed", "3",
                     "--out-assignment", str(assignment), "--out-counts", str(counts)]) == 0
    y = 1e-161 * np.random.default_rng(1).standard_normal(32)
    outcomes = tmp_path / "y.csv"
    outcomes.write_text("unit_id,y\n" + "".join(f"{u},{float(v)!r}\n" for u, v in enumerate(y)))
    report = tmp_path / "r.json"
    assert cli_main(["analyze", "--assignment", str(assignment), "--outcomes", str(outcomes),
                     "--clusters-file", str(clusters), "--out-report", str(report)]) == 0
    payload = json.loads(report.read_text())["report"]
    assert payload["delta"] != 0.0 and payload["delta"] * payload["delta"] == 0.0
    assert payload["sigma_hat_sq"] > 0.0
    assert payload["p_chebyshev"] == 1.0 and payload["decision"] == "fail-to-reject"


def test_rounding_of_a_constant_effect_is_no_evidence():
    # 8 clusters of 20 units, 4 in each arm, half of each arm treated. Under
    # y = 0.3 + 0.1 z both arm estimates are 0.1 up to rounding, and every
    # bucket variance is 0: the report keeps the rounded gap and the zero
    # bound, and neither rule rejects. A real gap still rejects.
    clustering = Clustering.from_assignment(np.repeat(np.arange(8), 20))
    counts = DesignCounts(n_cr=80, n_cbr=80, m_cr=4, m_cbr=4, n_cr_t=40, n_cr_c=40, m_cbr_t=2, m_cbr_c=2)
    nonzero = 0
    for seed in range(200):
        a = hierarchical_assign(clustering, counts, seed)
        y = 0.3 + 0.1 * a.treatment
        for rule in ("chebyshev", "gaussian"):
            report = analyze(a, y, decision_rule=rule)
            # A few ulps of the 0.1 effect.
            assert abs(report.delta) < 1e-15 and report.sigma_hat_sq == 0.0, seed
            assert (report.t_stat, report.p_chebyshev, report.p_gaussian) == (0.0, 1.0, 1.0), seed
            assert not report.reject, seed
        nonzero += report.delta != 0
    assert nonzero > 0
    # A cluster-arm effect 1e-13 larger is a gap seven times the floor
    # (160 * eps * 0.4 = 1.4e-14) over a zero bound, and both rules reject.
    y = 0.3 + (0.1 + 1e-13 * (a.unit_arm == ARM_CBR)) * a.treatment
    for rule in ("chebyshev", "gaussian"):
        report = analyze(a, y, decision_rule=rule)
        assert report.delta == pytest.approx(-1e-13, rel=1e-3) and report.sigma_hat_sq <= 1e-30
        assert report.reject


def test_type1_study_of_a_constant_effect_exits_zero(tmp_path):
    # Every draw's gap is rounding alone, so no draw is a false rejection.
    config = tmp_path / "type1.json"
    config.write_text(json.dumps({
        "study": "type1", "replications": 50, "seed": 1, "num_clusters": 8, "cluster_size": 20,
        "constant_effect": 0.1, "y0_cluster_sd": 0.0, "y0_unit_sd": 0.0,
    }))
    out = tmp_path / "type1.csv"
    assert cli_main(["simulate", "--config", str(config), "--threads", "1", "--out-csv", str(out)]) == 0
    (row,) = csv.DictReader(io.StringIO(out.read_text()))
    assert float(row["rejection_rate"]) == float(row["rejection_rate_gaussian"]) == 0.0


def test_criterion_10_variance_prediction_vs_monte_carlo():
    spec = SbmSpec(num_blocks=40, block_size=100, p_intra=25 / 99, p_inter=36 / 3900, seed=4103)
    graph, clustering = generate_sbm(spec)
    counts = DesignCounts.symmetric(graph.num_units, clustering.num_clusters)
    model = LinearInterferenceModel(alpha=0.0, beta=1.0, gamma=0.5, noise_sd=1.0, graph=graph)
    predicted = interference_variance_approx(model, clustering, counts)
    draws = 10_000
    reps = np.random.SeedSequence(31_415).spawn(draws)
    deltas = np.empty(draws)
    for r in range(draws):
        s_assign, s_noise = reps[r].spawn(2)
        a = hierarchical_assign(clustering, counts, s_assign)
        y = realize_linear(model, a.treatment, seed=s_noise)
        deltas[r] = delta_statistic(a, y).delta
    mc_var = float(deltas.var(ddof=1))
    rel_err = abs(predicted.variance - mc_var) / mc_var
    passed = rel_err <= 0.25
    record_criterion(
        10, passed,
        f"MC var {mc_var:.3e} vs predicted {predicted.variance:.3e}; "
        f"relative error {rel_err:.2%} <= 25%",
    )
    assert passed


def _run_twice_and_compare(tmp_path, name, argv_builder):
    outdir = tmp_path / name
    outdir.mkdir()
    argv = argv_builder(outdir)
    assert cli_main([str(a) for a in argv]) == 0
    first = {p.name: p.read_bytes() for p in outdir.iterdir() if p.is_file()}
    assert cli_main([str(a) for a in argv]) == 0
    second = {p.name: p.read_bytes() for p in outdir.iterdir() if p.is_file()}
    assert first == second, f"{name}: rerun changed output bytes"
    return True


def test_criterion_11_cli_determinism(tmp_path):
    spec = tmp_path / "sbm.json"
    spec.write_text(json.dumps(
        {"num_blocks": 16, "block_size": 10, "p_intra": 0.3, "p_inter": 0.03, "seed": 7}
    ))
    edges = tmp_path / "g.edges"
    blocks = tmp_path / "b.csv"

    checks = []
    checks.append(_run_twice_and_compare(
        tmp_path, "graph",
        lambda d: ["graph", "--spec", spec, "--out-edges", edges,
                   "--out-clusters", blocks, "--out-meta", d / "meta.json"],
    ))
    clusters = tmp_path / "c.csv"
    checks.append(_run_twice_and_compare(
        tmp_path, "cluster",
        lambda d: ["cluster", "--edges", edges, "--clusters", 16, "--iterations", 4,
                   "--seed", 42, "--rebalance",
                   "--out-clusters", clusters, "--out-metrics", d / "m.json"],
    ))
    strata = tmp_path / "s.csv"
    checks.append(_run_twice_and_compare(
        tmp_path, "stratify",
        lambda d: ["stratify", "--edges", edges, "--clusters-file", clusters,
                   "--strata", 2, "--seed", 5, "--out-strata", strata,
                   "--out-meta", d / "smeta.json"],
    ))
    assignment = tmp_path / "a.csv"
    checks.append(_run_twice_and_compare(
        tmp_path, "assign",
        lambda d: ["assign", "--clusters-file", clusters, "--seed", 44,
                   "--out-assignment", assignment, "--out-counts", d / "k.json"],
    ))
    outcomes = tmp_path / "y.csv"
    y_rng = np.random.default_rng(6)
    outcomes.write_text(
        "unit_id,y\n" + "\n".join(f"{i},{y_rng.normal()!r}" for i in range(160)) + "\n"
    )
    checks.append(_run_twice_and_compare(
        tmp_path, "analyze",
        lambda d: ["analyze", "--assignment", assignment, "--outcomes", outcomes,
                   "--clusters-file", clusters, "--out-report", d / "r.json"],
    ))
    sim_cfg = tmp_path / "sim.json"
    sim_cfg.write_text(json.dumps(
        {"study": "type1", "replications": 60, "seed": 3, "num_clusters": 8, "cluster_size": 4}
    ))
    checks.append(_run_twice_and_compare(
        tmp_path, "simulate",
        lambda d: ["simulate", "--config", sim_cfg, "--threads", 1,
                   "--out-json", d / "sim.json", "--out-csv", d / "sim.csv"],
    ))
    checks.append(_run_twice_and_compare(
        tmp_path, "oracle",
        lambda d: ["oracle", "--check", "all", "--out-report", d / "checks.json"],
    ))
    passed = all(checks)
    record_criterion(11, passed, f"{len(checks)} commands rerun byte-identically")
    assert passed
