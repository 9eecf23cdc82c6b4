import json

import numpy as np
import pytest

from spilltest import SbmSpec, ValidationError
from spilltest.sim import (
    SimConfig,
    run_power_study,
    run_ratio_study,
    run_study,
    run_type1_study,
)


def tiny_power_config(**overrides):
    base = dict(
        study="power",
        replications=60,
        seed=5,
        sbm=(SbmSpec(num_blocks=8, block_size=10, p_intra=0.4, p_inter=0.04, seed=2),),
        gamma_grid=(0.0, 1.0),
        noise_sd=1.0,
    )
    base.update(overrides)
    return SimConfig(**base)


def test_config_json_round_trip():
    cfg = tiny_power_config()
    assert SimConfig.from_json(cfg.to_json()) == cfg


def test_config_explicit_counts_round_trip_and_use():
    from spilltest import DesignCounts

    counts = DesignCounts(
        n_cr=20, n_cbr=60, m_cr=2, m_cbr=6, n_cr_t=10, n_cr_c=10, m_cbr_t=3, m_cbr_c=3
    )
    cfg = tiny_power_config(counts=counts, replications=15)
    assert SimConfig.from_json(cfg.to_json()) == cfg
    report = run_power_study(cfg)
    assert len(report.rows) == 2  # the lopsided design runs end to end


def test_config_rejects_unknown_field():
    payload = json.loads(tiny_power_config().to_json())
    payload["decision_rule"] = "chebyshev"
    with pytest.raises(ValidationError, match="bad study config fields"):
        SimConfig.from_json(json.dumps(payload))


def test_config_validation():
    with pytest.raises(ValidationError):
        SimConfig(study="power", replications=0, seed=1, sbm=(SbmSpec(2, 2, 0.5, 0.1, 0),))
    with pytest.raises(ValidationError):
        SimConfig(study="power", replications=5, seed=1)  # no block model
    with pytest.raises(ValidationError):
        SimConfig(study="ratio", replications=5, seed=1)  # no clustering shape
    with pytest.raises(ValidationError):
        run_ratio_study(tiny_power_config())


def test_type1_chebyshev_is_conservative():
    cfg = SimConfig(study="type1", replications=400, seed=9, num_clusters=8, cluster_size=4)
    report = run_type1_study(cfg)
    row = report.rows[0]
    assert row.rejection_rate <= cfg.alpha + 3 * max(row.mc_se, (cfg.alpha / cfg.replications) ** 0.5)
    assert 0.0 <= row.rejection_rate_gaussian <= 1.0


def test_type1_constant_outcomes_never_reject():
    cfg = SimConfig(
        study="type1", replications=50, seed=9, num_clusters=8, cluster_size=4,
        y0_cluster_sd=0.0, y0_unit_sd=0.0, constant_effect=0.0,
    )
    report = run_type1_study(cfg)
    assert report.rows[0].rejection_rate == 0.0
    assert report.rows[0].mean_delta == 0.0


def test_type1_counts_what_analyze_decides():
    # Noise-free constant effect: gaps and bounds sit at rounding level, and
    # the study must count exactly the draws that analyze rejects.
    from spilltest import analyze
    from spilltest.sim import _sutva_design

    cfg = SimConfig(
        study="type1", replications=50, seed=1, num_clusters=8, cluster_size=20,
        constant_effect=0.1, y0_cluster_sd=0.0, y0_unit_sd=0.0,
    )
    row = run_type1_study(cfg).rows[0]
    *_, draw, streams = _sutva_design(cfg)
    for rule, rate in (("chebyshev", row.rejection_rate), ("gaussian", row.rejection_rate_gaussian)):
        decided = [analyze(*draw(s), alpha=cfg.alpha, decision_rule=rule).reject for s in streams]
        assert rate == sum(decided) / len(decided)


def test_study_refuses_non_finite_statistic():
    cfg = SimConfig(
        study="type1", replications=5, seed=1, num_clusters=8, cluster_size=20,
        constant_effect=1e307, y0_cluster_sd=0.0, y0_unit_sd=0.0,
    )
    with np.errstate(all="ignore"), pytest.raises(ValidationError, match="non-finite statistic"):
        run_type1_study(cfg)


def test_ratio_study_centers_on_one():
    cfg = SimConfig(
        study="ratio", replications=800, seed=21, num_clusters=16, cluster_size=4,
        constant_effect=1.0,
    )
    report = run_ratio_study(cfg)
    row = report.rows[0]
    assert abs(row.ratio_mean - 1.0) <= 4 * row.mc_se
    assert row.ratio_q10 <= row.ratio_mean <= row.ratio_q90
    assert abs(row.mean_delta) <= 4 * row.delta_se


def test_ratio_study_degenerate_reference_errors():
    cfg = SimConfig(
        study="ratio", replications=10, seed=1, num_clusters=8, cluster_size=2,
        y0_cluster_sd=0.0, y0_unit_sd=0.0,
    )
    with pytest.raises(ValidationError, match="reference variance"):
        run_ratio_study(cfg)


def test_power_study_rows_and_reproducibility():
    cfg = tiny_power_config()
    a = run_power_study(cfg)
    b = run_power_study(cfg)
    assert a.to_json() == b.to_json()
    assert a.to_csv() == b.to_csv()
    assert [r.gamma for r in a.rows] == [0.0, 1.0]
    assert all(0.0 <= r.rejection_rate <= 1.0 for r in a.rows)
    assert a.rows[0].rho_c == pytest.approx(a.rows[1].rho_c)


def test_power_study_threads_do_not_change_results():
    cfg = tiny_power_config(
        sbm=(
            SbmSpec(num_blocks=8, block_size=10, p_intra=0.4, p_inter=0.04, seed=2),
            SbmSpec(num_blocks=8, block_size=10, p_intra=0.2, p_inter=0.1, seed=3),
        ),
        replications=30,
    )
    serial = run_power_study(cfg)
    parallel = run_power_study(SimConfig.from_json(json.dumps({**json.loads(cfg.to_json()), "threads": 2})))
    assert serial.to_csv() == parallel.to_csv()


def test_power_study_ldg_clustering_source():
    cfg = tiny_power_config(clustering_source="ldg", ldg_iterations=3, replications=20)
    report = run_power_study(cfg)
    assert len(report.rows) == 2


def test_power_study_regenerate_graph_flag():
    cfg = tiny_power_config(replications=10, regenerate_graph_per_rep=True)
    report = run_power_study(cfg)
    assert len(report.rows) == 2


def test_ratio_study_heterogeneous_effects_stay_near_one():
    # With i.i.d. per-unit effect heterogeneity the bound hovers at the true
    # variance (tightness holds on average across tables); at this scale the
    # realized table's offset sits within Monte Carlo resolution.
    cfg = SimConfig(
        study="ratio", replications=1500, seed=33, num_clusters=100, cluster_size=10,
        constant_effect=1.0, effect_unit_sd=0.5,
    )
    report = run_ratio_study(cfg)
    row = report.rows[0]
    assert row.ratio_mean >= 1.0 - 4 * row.mc_se


def test_wall_clock_excluded_from_serialization():
    cfg = SimConfig(study="type1", replications=20, seed=2, num_clusters=8, cluster_size=2)
    report = run_type1_study(cfg)
    assert report.wall_clock_seconds > 0.0
    assert "wall_clock" not in report.to_json()
    assert "wall_clock" not in report.to_csv()


def test_run_study_dispatch():
    cfg = SimConfig(study="type1", replications=10, seed=2, num_clusters=8, cluster_size=2)
    assert run_study(cfg).rows[0].study == "type1"


def test_report_save(tmp_path):
    cfg = SimConfig(study="type1", replications=10, seed=2, num_clusters=8, cluster_size=2)
    report = run_type1_study(cfg)
    jpath, cpath = tmp_path / "r.json", tmp_path / "r.csv"
    report.save(json_path=jpath, csv_path=cpath)
    payload = json.loads(jpath.read_text())
    assert payload["rows"][0]["study"] == "type1"
    assert cpath.read_text().startswith("study,")
