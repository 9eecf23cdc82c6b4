import functools
import json
import math
from dataclasses import astuple, fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import bincount_fractions, fixture_path
from spilltest import SbmSpec, ValidationError, estimate, sim
from spilltest.estimate import _decide, _rounding_floor
from spilltest.sim import SimConfig, SimRow, run_study


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
    report = run_study(cfg)
    assert len(report.rows) == 2  # the lopsided design runs end to end


def test_config_field_names():
    # Every settable value of a study, listed explicitly: each one added is
    # one more configuration the tests and the benchmark must cover.
    assert [f.name for f in fields(SimConfig)] == [
        "study", "replications", "seed", "alpha", "sbm",
        "baseline", "direct_effect", "gamma_grid", "noise_sd",
        "num_clusters", "cluster_size", "constant_effect", "effect_unit_sd", "y0_cluster_sd", "y0_unit_sd",
        "counts", "threads",
    ]


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
    with pytest.raises(ValidationError, match="unknown study 'bogus'"):
        SimConfig(study="bogus", replications=1, seed=0)


# A non-default value in each field that a power study, or a ratio or type1
# study, never reads.
NOT_READ_BY_POWER = dict(num_clusters=8, cluster_size=2, constant_effect=2.0, effect_unit_sd=0.5,
                         y0_cluster_sd=0.0, y0_unit_sd=0.0)
NOT_READ_BY_TABLE = dict(sbm=tiny_power_config().sbm, baseline=1.0, direct_effect=0.0, gamma_grid=(5.0,),
                         noise_sd=0.0, threads=2)


@pytest.mark.parametrize("study, name", [("power", name) for name in NOT_READ_BY_POWER] + [
    (study, name) for study in ("ratio", "type1") for name in NOT_READ_BY_TABLE
])
def test_config_refuses_a_field_its_study_does_not_read(study, name):
    if study == "power":
        base, value = tiny_power_config(), NOT_READ_BY_POWER[name]
    else:
        base = SimConfig(study=study, replications=20, seed=1, num_clusters=8, cluster_size=2)
        value = NOT_READ_BY_TABLE[name]
    with pytest.raises(ValidationError, match=f"a {study} study does not read {name}="):
        replace(base, **{name: value})


def test_bundled_study_configs_stay_valid():
    for name in ("fig1a_desk.json", "fig1b_desk.json"):
        SimConfig.from_json(fixture_path(name).read_bytes())


def test_type1_chebyshev_is_conservative():
    cfg = SimConfig(study="type1", replications=400, seed=9, num_clusters=8, cluster_size=4)
    report = run_study(cfg)
    row = report.rows[0]
    assert row.rejection_rate <= cfg.alpha + 3 * max(row.mc_se, (cfg.alpha / cfg.replications) ** 0.5)
    assert 0.0 <= row.rejection_rate_gaussian <= 1.0


def test_type1_constant_outcomes_never_reject():
    cfg = SimConfig(
        study="type1", replications=50, seed=9, num_clusters=8, cluster_size=4,
        y0_cluster_sd=0.0, y0_unit_sd=0.0, constant_effect=0.0,
    )
    report = run_study(cfg)
    assert report.rows[0].rejection_rate == 0.0
    assert report.rows[0].mean_delta == 0.0


def _stack_height(num_units):
    return max(1, sim._STACK_BYTES // (8 * num_units))


def _study_draws(clustering, counts, root, replications):
    """A grid point's draws in replication order, as the study makes them:
    the draws of stack k, in row order, from one generator seeded with child
    k of ``root``. The children come from ``root.spawn``; the loop builds
    child k without spawning, so the two must agree."""
    height = _stack_height(clustering.num_units)
    for k, child in enumerate(root.spawn(-(-replications // height))):
        rng = np.random.default_rng(child)
        for _ in range(min(height, replications - k * height)):
            yield sim.hierarchical_assign(clustering, counts, rng)


def test_type1_counts_what_analyze_decides():
    # Noise-free constant effect: gaps and bounds sit at rounding level, and
    # the study must count exactly the draws that analyze rejects.
    from spilltest import analyze
    from spilltest.assign import assignment_from_vectors

    cfg = SimConfig(
        study="type1", replications=50, seed=1, num_clusters=8, cluster_size=20,
        constant_effect=0.1, y0_cluster_sd=0.0, y0_unit_sd=0.0,
    )
    row = run_study(cfg).rows[0]
    # A fresh root: the study's draws again, every one of the 50, each
    # decided by analyze.
    clustering, counts, _, outcomes, root = sim._sutva_design(cfg)
    decided = {"chebyshev": [], "gaussian": []}
    for r, draw in enumerate(_study_draws(clustering, counts, root, cfg.replications)):
        y = outcomes(draw.treatment[None], r)[0]
        assignment = assignment_from_vectors(clustering, draw.unit_arm, draw.treatment)
        for rule, rejects in decided.items():
            rejects.append(analyze(assignment, y, alpha=cfg.alpha, decision_rule=rule).reject)
    assert len(decided["chebyshev"]) == len(decided["gaussian"]) == cfg.replications == 50
    assert row.rejection_rate == sum(decided["chebyshev"]) / cfg.replications
    assert row.rejection_rate_gaussian == sum(decided["gaussian"]) / cfg.replications


def test_study_refuses_non_finite_statistic():
    cfg = SimConfig(
        study="type1", replications=5, seed=1, num_clusters=8, cluster_size=20,
        constant_effect=1e307, y0_cluster_sd=0.0, y0_unit_sd=0.0,
    )
    with np.errstate(all="ignore"), pytest.raises(ValidationError, match="non-finite statistic"):
        run_study(cfg)


def test_ratio_study_centers_on_one():
    cfg = SimConfig(
        study="ratio", replications=800, seed=21, num_clusters=16, cluster_size=4,
        constant_effect=1.0,
    )
    report = run_study(cfg)
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
        run_study(cfg)


def test_power_study_rows_and_reproducibility():
    cfg = tiny_power_config()
    a = run_study(cfg)
    b = run_study(cfg)
    assert a.to_dict() == b.to_dict()
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
    serial = run_study(cfg)
    parallel = run_study(SimConfig.from_json(json.dumps({**json.loads(cfg.to_json()), "threads": 2})))
    assert serial.to_csv() == parallel.to_csv()


def test_ratio_study_heterogeneous_effects_stay_near_one():
    # With i.i.d. per-unit effect heterogeneity the bound hovers at the true
    # variance (tightness holds on average across tables); at this scale the
    # realized table's offset sits within Monte Carlo resolution.
    cfg = SimConfig(
        study="ratio", replications=1500, seed=33, num_clusters=100, cluster_size=10,
        constant_effect=1.0, effect_unit_sd=0.5,
    )
    report = run_study(cfg)
    row = report.rows[0]
    assert row.ratio_mean >= 1.0 - 4 * row.mc_se


def test_wall_clock_excluded_from_serialization():
    cfg = SimConfig(study="type1", replications=20, seed=2, num_clusters=8, cluster_size=2)
    report = run_study(cfg)
    assert report.wall_clock_seconds > 0.0
    assert "wall_clock" not in json.dumps(report.to_dict())
    assert "wall_clock" not in report.to_csv()


def test_run_study_dispatch():
    cfg = SimConfig(study="type1", replications=10, seed=2, num_clusters=8, cluster_size=2)
    assert run_study(cfg).rows[0].study == "type1"
    assert run_study(replace(cfg, study="ratio")).rows[0].study == "ratio"
    assert [r.study for r in run_study(tiny_power_config(replications=5)).rows] == ["power", "power"]


def test_ratio_row_keeps_the_type1_rejection_rates():
    # A ratio study decides the same draws as a type1 study of the same
    # table, so its row reports the same rates; only mc_se and the ratio
    # summary differ.
    cfg = replace(SimConfig.from_json(fixture_path("fig1a_desk.json").read_text()), replications=2000)
    ratio = run_study(cfg).rows[0]
    type1 = run_study(replace(cfg, study="type1")).rows[0]
    assert (ratio.rejection_rate, ratio.rejection_rate_gaussian) == (
        type1.rejection_rate,
        type1.rejection_rate_gaussian,
    )
    assert ratio.rejection_rate_gaussian > 0.0
    assert (ratio.mean_delta, ratio.delta_se) == (type1.mean_delta, type1.delta_se)
    assert ratio.mc_se != type1.mc_se


# ---------------------------------------------------------------------------
# The stacked replication loop against the one-draw loop it replaced.
# ---------------------------------------------------------------------------


def _one_draw_replicate(cfg, clustering, counts, root, outcomes, setting=0, gamma=0.0, rho_c=0.0):
    """The replication loop as it was before draws were stacked: one draw,
    one kernel call on its one-row views and one decision per replication.
    It draws what the stacked loop draws (see ``_study_draws``)."""
    n = cfg.replications
    deltas = np.empty(n)
    bounds = np.empty(n)
    rejections = 0
    rejections_gauss = 0
    for r, a in enumerate(_study_draws(clustering, counts, root, n)):
        z = a.treatment[None]
        y = outcomes(z, r)
        tau_cr, tau_cbr, sigma_hat_sq = estimate._estimate_rows(clustering, a.counts, a.unit_arm[None], z, y)
        delta, bound = float(tau_cr[0]) - float(tau_cbr[0]), float(sigma_hat_sq[0])
        deltas[r] = delta
        bounds[r] = bound
        decision = _decide(delta, bound, cfg.alpha, float(_rounding_floor(y[0])))
        rejections += decision.reject_chebyshev
        rejections_gauss += decision.reject_gaussian
    rate = rejections / n
    row = SimRow(
        study=cfg.study,
        setting=setting,
        gamma=gamma,
        rho_c=rho_c,
        replications=n,
        rejection_rate=rate,
        rejection_rate_gaussian=rejections_gauss / n,
        mc_se=math.sqrt(max(rate * (1.0 - rate), 0.0) / n),
        mean_delta=float(deltas.mean()),
        delta_se=float(deltas.std(ddof=1) / math.sqrt(n)),
        mean_sigma_hat_sq=float(bounds.mean()),
        ratio_mean=0.0,
        ratio_q10=0.0,
        ratio_q90=0.0,
    )
    return row, bounds


def _row_bits(row):
    # Floats by their bytes, so that rows must agree to the last bit.
    return tuple(np.float64(v).tobytes() if isinstance(v, float) else v for v in astuple(row))


def _per_row_realize_linear(model, z, seed):
    """Each row's outcomes from the weighted-bincount neighbor counts and its
    own noise generator: a reference that shares no code with the stacked
    lane-packed kernel."""
    rows = []
    for zr, s in zip(z, seed):
        fractions = bincount_fractions(model.graph, zr)
        y = model.alpha + model.beta * zr.astype(np.float64) + model.gamma * fractions
        if model.noise_sd > 0:
            y = y + model.noise_sd * np.random.default_rng(s).standard_normal(len(y))
        rows.append(y)
    return np.stack(rows)


def _rows_both_ways(cfg):
    # The one-draw run realizes a power study's outcomes row by row through
    # the reference above. Each run_study call makes its own seed roots.
    stacked = run_study(cfg).rows
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "_replicate", _one_draw_replicate)
        patch.setattr(sim, "realize_linear", _per_row_realize_linear)
        one_draw = run_study(cfg).rows
    return [_row_bits(r) for r in stacked], [_row_bits(r) for r in one_draw]


# 64 clusters of 64 units: 8 draws to a stack.
SUTVA_STACKED = dict(seed=4, num_clusters=64, cluster_size=64, effect_unit_sd=0.5)


def test_kernel_sees_stacks_of_eight_at_4096_units(monkeypatch):
    heights = []

    def spy(clustering, counts, unit_arm, treatment, y):
        heights.append(len(y))
        return estimate._estimate_rows(clustering, counts, unit_arm, treatment, y)

    monkeypatch.setattr(sim, "_estimate_rows", spy)
    run_study(SimConfig(study="type1", replications=21, **SUTVA_STACKED))
    assert heights == [8, 8, 5]


def test_power_study_realizes_each_stack_in_one_call(monkeypatch):
    # The 960-unit model stacks 34 draws.
    heights = []

    def spy(model, z, seed):
        heights.append(len(z))
        return realize(model, z, seed=seed)

    realize = sim.realize_linear
    monkeypatch.setattr(sim, "realize_linear", spy)
    cfg = tiny_power_config(replications=40, gamma_grid=(0.5,), sbm=(
        SbmSpec(num_blocks=8, block_size=120, p_intra=0.05, p_inter=0.005, seed=3),
    ))
    run_study(cfg)
    assert heights == [34, 6]


@pytest.mark.parametrize("study", ["ratio", "type1"])
def test_sutva_study_realizes_each_stack_in_one_call(monkeypatch, study):
    shapes = []

    def spy(table, z):
        shapes.append(z.shape)
        return realize(table, z)

    realize = sim.realize_sutva
    monkeypatch.setattr(sim, "realize_sutva", spy)
    run_study(SimConfig(study=study, replications=21, **SUTVA_STACKED))
    assert shapes == [(8, 4096), (8, 4096), (5, 4096)]


@pytest.mark.parametrize("study", ["ratio", "type1"])
@pytest.mark.parametrize("extra", [0, 1, 2, 13])
def test_stacked_sutva_studies_equal_the_one_draw_loop(study, extra):
    # 2 replications, one full stack, a stack and one, and a partial last stack.
    height = _stack_height(64 * 64)
    replications = {0: 2, 1: height, 2: height + 1, 13: 2 * height + 5}[extra]
    cfg = SimConfig(study=study, replications=replications, **SUTVA_STACKED)
    stacked, one_draw = _rows_both_ways(cfg)
    assert stacked == one_draw


# Above 16384 units a stack holds one draw; 4096 units stack 8 draws, so 13
# replications end on a partial stack.
@settings(max_examples=30, deadline=None)
@given(
    study=st.sampled_from(["ratio", "type1"]),
    num_clusters=st.integers(2, 16).map(lambda q: 4 * q),
    cluster_size=st.integers(1, 400),
    replications=st.integers(2, 30),
    seed=st.integers(0, 2**32 - 1),
)
@example(study="type1", num_clusters=44, cluster_size=400, replications=3, seed=0)
@example(study="ratio", num_clusters=64, cluster_size=64, replications=13, seed=1)
def test_refilled_stack_buffers_equal_fresh_one_draw_buffers(study, num_clusters, cluster_size, replications, seed):
    cfg = SimConfig(study=study, replications=replications, seed=seed, num_clusters=num_clusters,
                    cluster_size=cluster_size, effect_unit_sd=0.5)
    stacked, one_draw = _rows_both_ways(cfg)
    assert stacked == one_draw


@pytest.mark.parametrize("extra", [0, 1, 2, 13])
def test_stacked_power_study_equals_the_one_draw_loop(extra):
    # The 960-unit model stacks 34 draws; the 80-unit one fills no stack.
    height = _stack_height(8 * 120)
    replications = {0: 2, 1: height, 2: height + 1, 13: 2 * height + 5}[extra]
    cfg = tiny_power_config(replications=replications, sbm=(
        SbmSpec(num_blocks=8, block_size=10, p_intra=0.4, p_inter=0.04, seed=2),
        SbmSpec(num_blocks=8, block_size=120, p_intra=0.05, p_inter=0.005, seed=3),
    ))
    stacked, one_draw = _rows_both_ways(cfg)
    assert stacked == one_draw


def _sutva_draws(cfg, poison=None):
    # The study's design: its clustering, counts, a fresh replication root
    # and its outcome function, with the outcomes of replication ``poison``
    # poisoned.
    clustering, counts, _, outcomes, root = sim._sutva_design(cfg)

    def poisoned(z, first):
        y = outcomes(z, first).copy()
        if poison is not None and first <= poison < first + len(z):
            y[poison - first, 3] = np.inf
        return y

    return clustering, counts, root, poisoned


def test_non_finite_outcome_mid_stack_raises_as_one_draw_loop():
    cfg = SimConfig(study="type1", replications=30, **SUTVA_STACKED)
    poison = _stack_height(64 * 64) + 3  # inside the second stack
    errors = []
    for replicate in (sim._replicate, _one_draw_replicate):
        with pytest.raises(ValidationError, match="non-finite statistic") as exc:
            replicate(cfg, *_sutva_draws(cfg, poison=poison))
        errors.append(str(exc.value))
    assert errors[0] == errors[1]


def test_stack_refuses_draws_with_different_counts(monkeypatch):
    # Bernoulli draws realize their own treated counts.
    cfg = SimConfig(study="type1", replications=16, **SUTVA_STACKED)
    bernoulli = functools.partial(sim.hierarchical_assign, cr_arm_mechanism="bernoulli")
    monkeypatch.setattr(sim, "hierarchical_assign", bernoulli)
    with pytest.raises(ValidationError, match="^assignment does not match its design counts$"):
        sim._replicate(cfg, *_sutva_draws(cfg))


def test_rows_do_not_depend_on_where_the_replications_end(monkeypatch):
    # Stacks of 8 at 4096 units: 16 replications end on a full stack, 21 run
    # on into a third. The first 16 gaps and bounds must keep their bits, so
    # contiguous stack ranges can go to workers.
    decided = []

    def spy(delta, bound, alpha, floor):
        decided[-1].append((delta, bound))
        return decide(delta, bound, alpha, floor)

    decide = sim._decide
    monkeypatch.setattr(sim, "_decide", spy)
    for replications in (16, 21):
        decided.append([])
        run_study(SimConfig(study="type1", replications=replications, **SUTVA_STACKED))
    short, long = (np.array(d) for d in decided)
    assert short.shape == (16, 2) and long.shape == (21, 2)
    assert short.tobytes() == long[:16].tobytes()
