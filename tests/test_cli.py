import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spilltest
from conftest import fixture_path
from spilltest.cli import main


def run_cli(*args) -> int:
    return main([str(a) for a in args])


@pytest.fixture
def workspace(tmp_path):
    spec = tmp_path / "sbm.json"
    spec.write_text(
        json.dumps(
            {"num_blocks": 8, "block_size": 10, "p_intra": 0.35, "p_inter": 0.03, "seed": 77}
        )
    )
    return tmp_path


def build_pipeline(ws, suffix=""):
    edges = ws / f"g{suffix}.edges"
    blocks = ws / f"blocks{suffix}.csv"
    meta = ws / f"meta{suffix}.json"
    assert run_cli("graph", "--spec", ws / "sbm.json", "--out-edges", edges,
                   "--out-clusters", blocks, "--out-meta", meta) == 0
    clusters = ws / f"c{suffix}.csv"
    metrics = ws / f"m{suffix}.json"
    assert run_cli("cluster", "--edges", edges, "--clusters", 8, "--leniency", 0.1,
                   "--iterations", 4, "--seed", 42, "--rebalance",
                   "--out-clusters", clusters, "--out-metrics", metrics) == 0
    assignment = ws / f"a{suffix}.csv"
    counts = ws / f"counts{suffix}.json"
    assert run_cli("assign", "--clusters-file", clusters, "--seed", 44,
                   "--out-assignment", assignment, "--out-counts", counts) == 0
    return edges, clusters, metrics, assignment, counts


def test_pipeline_and_byte_identical_reruns(workspace):
    first = build_pipeline(workspace, "1")
    # Rerun with identical inputs/seeds into new paths named the same way in
    # a sibling directory, then compare bytes.
    sibling = workspace / "again"
    sibling.mkdir()
    (sibling / "sbm.json").write_text((workspace / "sbm.json").read_text())
    second = build_pipeline(sibling, "1")
    for a, b in zip(first, second):
        if a.suffix == ".json":
            # Manifests embed absolute paths; compare the payloads instead.
            pa = json.loads(a.read_text())
            pb = json.loads(b.read_text())
            pa.pop("manifest"), pb.pop("manifest")
            assert pa == pb
        else:
            assert a.read_bytes() == b.read_bytes()


def test_cluster_metrics_on_clique_fixture(tmp_path):
    metrics = tmp_path / "m.json"
    clusters = tmp_path / "c.csv"
    code = run_cli("cluster", "--edges", fixture_path("cliquepair.edges"),
                   "--clusters", 2, "--iterations", 3, "--seed", 0,
                   "--out-clusters", clusters, "--out-metrics", metrics)
    assert code == 0
    payload = json.loads(metrics.read_text())
    assert payload["metrics"]["internal_edge_fraction"] == pytest.approx(12 / 13)


def test_cluster_rejects_zero_clusters(tmp_path):
    code = run_cli("cluster", "--edges", fixture_path("cliquepair.edges"),
                   "--clusters", 0, "--seed", 0,
                   "--out-clusters", tmp_path / "c.csv", "--out-metrics", tmp_path / "m.json")
    assert code == 1


def test_usage_error_exit_code():
    assert run_cli("cluster", "--no-such-flag") == 1
    assert run_cli("--help") == 0


def test_assign_rejects_unbalanced_clustering(tmp_path):
    clusters = tmp_path / "c.csv"
    clusters.write_text("unit_id,cluster_id\n0,0\n1,0\n2,0\n3,1\n")
    code = run_cli("assign", "--clusters-file", clusters, "--seed", 1,
                   "--out-assignment", tmp_path / "a.csv", "--out-counts", tmp_path / "k.json")
    assert code == 1


def test_assign_rejects_odd_cluster_count(tmp_path):
    clusters = tmp_path / "c.csv"
    rows = ["unit_id,cluster_id"] + [f"{i},{i // 2}" for i in range(6)]
    clusters.write_text("\n".join(rows) + "\n")
    code = run_cli("assign", "--clusters-file", clusters, "--seed", 1,
                   "--out-assignment", tmp_path / "a.csv", "--out-counts", tmp_path / "k.json")
    assert code == 1


def test_analyze_table_fixture(tmp_path):
    report = tmp_path / "r.json"
    code = run_cli("analyze",
                   "--assignment", fixture_path("table_check_assignment.csv"),
                   "--outcomes", fixture_path("table_check_outcomes.csv"),
                   "--clusters-file", fixture_path("table_check_clusters.csv"),
                   "--rule", "gaussian",
                   "--out-report", report)
    assert code == 0
    payload = json.loads(report.read_text())["report"]
    assert payload["delta"] == pytest.approx(-3.3, abs=1e-12)
    assert payload["sigma_hat_sq"] == pytest.approx(8.1**2, abs=1e-9)
    assert payload["p_gaussian"] == pytest.approx(0.684, abs=0.01)
    assert payload["decision"] == "fail-to-reject"


def test_analyze_missing_outcomes_lists_units(workspace, capsys):
    edges, clusters, metrics, assignment, counts = build_pipeline(workspace)
    outcomes = workspace / "y.csv"
    outcomes.write_text("unit_id,y\n" + "\n".join(f"{i},1.0" for i in range(40)) + "\n")
    code = run_cli("analyze", "--assignment", assignment, "--outcomes", outcomes,
                   "--clusters-file", clusters, "--out-report", workspace / "r.json")
    assert code == 1
    err = capsys.readouterr().err
    assert "missing" in err and "40" in err


@pytest.mark.parametrize("bad_row", ["5,nan", "5,inf", "5,-inf", "5,1.0\n5,2.0"])
def test_analyze_rejects_bad_outcome_rows(workspace, capsys, bad_row):
    edges, clusters, metrics, assignment, counts = build_pipeline(workspace)
    rows = [f"{i},1.0" for i in range(80) if i != 5] + [bad_row]
    outcomes = workspace / "y.csv"
    outcomes.write_text("unit_id,y\n" + "\n".join(rows) + "\n")
    report = workspace / "r.json"
    code = run_cli("analyze", "--assignment", assignment, "--outcomes", outcomes,
                   "--clusters-file", clusters, "--out-report", report)
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not report.exists()


def test_analyze_constant_outcomes_fail_to_reject(workspace):
    edges, clusters, metrics, assignment, counts = build_pipeline(workspace)
    outcomes = workspace / "y.csv"
    outcomes.write_text("unit_id,y\n" + "\n".join(f"{i},2.5" for i in range(80)) + "\n")
    report = workspace / "r.json"
    assert run_cli("analyze", "--assignment", assignment, "--outcomes", outcomes,
                   "--clusters-file", clusters, "--out-report", report) == 0
    payload = json.loads(report.read_text())["report"]
    assert payload["delta"] == 0.0
    assert payload["decision"] == "fail-to-reject"


def test_simulate_command_deterministic(tmp_path):
    # A power study of two block models: with --threads 2 they go to two
    # worker processes, the only study that starts any.
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({
        "study": "power", "replications": 30, "seed": 5,
        "sbm": [
            {"num_blocks": 8, "block_size": 10, "p_intra": 0.4, "p_inter": 0.04, "seed": 2},
            {"num_blocks": 8, "block_size": 10, "p_intra": 0.2, "p_inter": 0.1, "seed": 3},
        ],
        "gamma_grid": [0.0, 1.0], "noise_sd": 1.0,
    }))
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert run_cli("simulate", "--config", cfg, "--out-csv", out1, "--threads", 1) == 0
    assert run_cli("simulate", "--config", cfg, "--out-csv", out2, "--threads", 2) == 0
    assert out1.read_bytes() == out2.read_bytes()


def _type1_study(ws, edges, clusters):
    cfg = ws / "type1.json"
    cfg.write_text(json.dumps({"study": "type1", "replications": 20, "seed": 3, "num_clusters": 8, "cluster_size": 4}))
    return ["simulate", "--config", cfg]


# Each command that writes more than one file: its inputs, and its output
# flags in the order it writes them.
MULTI_OUTPUT_COMMANDS = {
    "graph": (lambda ws, edges, clusters: ["graph", "--spec", ws / "sbm.json"],
              ("--out-edges", "--out-clusters", "--out-meta")),
    "cluster": (lambda ws, edges, clusters: ["cluster", "--edges", edges, "--clusters", 8, "--seed", 1],
                ("--out-clusters", "--out-metrics")),
    "stratify": (lambda ws, edges, clusters: ["stratify", "--edges", edges, "--clusters-file", clusters,
                                              "--strata", 2, "--seed", 5],
                 ("--out-strata", "--out-meta")),
    "assign": (lambda ws, edges, clusters: ["assign", "--clusters-file", clusters, "--seed", 44],
               ("--out-assignment", "--out-counts")),
    "simulate": (_type1_study, ("--out-json", "--out-csv")),
}


@pytest.mark.parametrize("fault", ["directory", "missing-parent"])
@pytest.mark.parametrize("command", list(MULTI_OUTPUT_COMMANDS))
def test_unwritable_last_output_leaves_no_output(workspace, capsys, command, fault):
    # The output written last is an existing directory, or a file in a
    # directory that does not exist: the command writes none of its outputs.
    edges, clusters, *_ = build_pipeline(workspace)
    inputs, flags = MULTI_OUTPUT_COMMANDS[command]
    out = workspace / "out"
    out.mkdir()
    last = out / "blocker"
    if fault == "directory":
        last.mkdir()
    else:
        last = last / "x"
    paths = [out / f"output{i}" for i in range(len(flags) - 1)] + [last]
    capsys.readouterr()
    assert run_cli(*inputs(workspace, edges, clusters), *(a for pair in zip(flags, paths) for a in pair)) == 1
    printed, err = capsys.readouterr()
    assert printed == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and str(last) in err
    assert [p.name for p in out.iterdir()] == (["blocker"] if fault == "directory" else [])


def test_simulate_rejects_malformed_config(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert run_cli("simulate", "--config", cfg, "--out-csv", tmp_path / "o.csv") == 1


def test_simulate_study_mismatch(tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({
        "study": "type1", "replications": 10, "seed": 3, "num_clusters": 8, "cluster_size": 2,
    }))
    assert run_cli("simulate", "--config", cfg, "--study", "power") == 1


def test_simulate_checks_study_properties(tmp_path):
    # A small power study must come out monotone within tolerance (exit 0).
    cfg = tmp_path / "power.json"
    cfg.write_text(json.dumps({
        "study": "power", "replications": 40, "seed": 4,
        "sbm": [{"num_blocks": 8, "block_size": 10, "p_intra": 0.4, "p_inter": 0.04, "seed": 2}],
        "gamma_grid": [0.0, 1.0], "noise_sd": 1.0,
    }))
    assert run_cli("simulate", "--config", cfg, "--out-csv", tmp_path / "p.csv",
                   "--threads", 1) == 0


# A doctored report of each study kind that its property check refuses: its
# config, its rows as (gamma, rejection_rate, mc_se, ratio_mean), and the
# start of the failure.
DOCTORED_STUDIES = {
    "power": ({"sbm": [{"num_blocks": 8, "block_size": 10, "p_intra": 0.4, "p_inter": 0.04, "seed": 2}],
               "gamma_grid": [0.0, 1.0]},
              [(0.0, 0.9, 0.0, 0.0), (1.0, 0.1, 0.0, 0.0)], "power not monotone in gamma"),
    "ratio": ({"num_clusters": 8, "cluster_size": 4}, [(0.0, 0.0, 0.01, 1.5)],
              "mean bound/variance ratio 1.5000 is not 1"),
    "type1": ({"num_clusters": 8, "cluster_size": 4}, [(0.0, 0.2, 0.0, 0.0)],
              "false-rejection rate 0.2000 exceeds alpha + 3 SE"),
}


@pytest.mark.parametrize("study", list(DOCTORED_STUDIES))
def test_simulate_exits_2_when_a_study_check_fails(tmp_path, monkeypatch, capsys, study):
    import spilltest.cli as cli_mod
    from spilltest.sim import SimReport, SimRow

    settings_, rows, message = DOCTORED_STUDIES[study]
    cfg = tmp_path / f"{study}.json"
    cfg.write_text(json.dumps({"study": study, "replications": 400, "seed": 4, **settings_}))

    def doctored(cfg_obj):
        return SimReport(config=cfg_obj, rows=tuple(
            SimRow(study=study, setting=0, gamma=gamma, rho_c=0.4, replications=400,
                   rejection_rate=rate, rejection_rate_gaussian=0.0, mc_se=se, mean_delta=0.0,
                   delta_se=0.0, mean_sigma_hat_sq=1.0, ratio_mean=ratio, ratio_q10=0.0, ratio_q90=0.0)
            for gamma, rate, se, ratio in rows
        ))

    monkeypatch.setattr(cli_mod, "run_study", doctored)
    capsys.readouterr()
    assert run_cli("simulate", "--config", cfg, "--out-csv", tmp_path / "bad.csv") == 2
    assert capsys.readouterr().err.startswith(f"check failed: {message}")


def test_simulate_prints_its_csv_without_outputs(tmp_path, capsys):
    # With no --out-* the study's CSV goes to stdout, exactly as --out-csv
    # writes it.
    cfg = tmp_path / "type1.json"
    cfg.write_text(json.dumps({"study": "type1", "replications": 20, "seed": 3, "num_clusters": 8, "cluster_size": 4}))
    capsys.readouterr()
    assert run_cli("simulate", "--config", cfg) == 0
    printed = capsys.readouterr().out
    assert run_cli("simulate", "--config", cfg, "--out-csv", tmp_path / "r.csv") == 0
    assert capsys.readouterr().out == ""
    assert printed == (tmp_path / "r.csv").read_text(encoding="utf-8")
    assert printed.startswith("study,")


def test_oracle_command_passes_and_writes_report(tmp_path):
    report = tmp_path / "checks.json"
    assert run_cli("oracle", "--check", "all", "--out-report", report) == 0
    payload = json.loads(report.read_text())
    assert all(c["passed"] for c in payload["checks"])
    assert run_cli("oracle", "--check", "interference-means") == 0


def test_oracle_failure_exit_code(monkeypatch):
    from spilltest import oracle

    def broken(design):
        return {"name": "means", "passed": False, "detail": "forced", "values": {}}

    monkeypatch.setitem(oracle.CHECKS, "means", broken)
    assert run_cli("oracle", "--check", "means") == 2


def test_oracle_design_without_edges_passes(tmp_path, capsys):
    # A design with no edges is read as a graph of isolated units.
    assert run_cli(*_oracle_with_design(tmp_path, _design(edges=[]))) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6 and all(line.startswith("PASS ") for line in lines)


def test_oracle_report_keys_bundled_design_by_name(tmp_path):
    # Two installs of one commit must write the same report, so the bundled
    # design's digest is keyed by a name and not by where it is installed.
    report = tmp_path / "checks.json"
    assert run_cli("oracle", "--check", "law", "--out-report", report) == 0
    digests = json.loads(report.read_text())["manifest"]["input_digests"]
    assert list(digests) == ["fixtures/oracle8.json"]
    design = tmp_path / "d.json"
    design.write_text(fixture_path("oracle8.json").read_text())
    assert run_cli("oracle", "--check", "law", "--design", design, "--out-report", report) == 0
    digests_given = json.loads(report.read_text())["manifest"]["input_digests"]
    assert digests_given == {str(design): digests["fixtures/oracle8.json"]}


@pytest.mark.parametrize("stratified", [False, True])
def test_bernoulli_counts_match_assignment(tmp_path, stratified):
    # counts.json must record the units the coins actually treated.
    clusters = tmp_path / "c.csv"
    clusters.write_text("unit_id,cluster_id\n" + "".join(f"{i},{i // 10}\n" for i in range(160)))
    args = ["assign", "--clusters-file", clusters, "--seed", 5, "--mechanism", "bernoulli",
            "--out-assignment", tmp_path / "a.csv", "--out-counts", tmp_path / "k.json"]
    if stratified:
        strata = tmp_path / "s.csv"
        strata.write_text("cluster_id,stratum_id\n" + "".join(f"{c},{c // 8}\n" for c in range(16)))
        args += ["--stratification", strata]
    assert run_cli(*args) == 0
    payload = json.loads((tmp_path / "k.json").read_text())["counts"]
    recorded = payload["strata"] if stratified else [payload]
    rows = [line.split(",") for line in (tmp_path / "a.csv").read_text().splitlines()[1:]]
    stratum_of_unit = [(int(u) // 10) // 8 if stratified else 0 for u, _, _ in rows]
    for s, counts in enumerate(recorded):
        mine = [(arm, int(t)) for (_, arm, t), k in zip(rows, stratum_of_unit) if k == s]
        assert counts["n_cr_t"] == sum(t for arm, t in mine if arm == "cr")
        assert counts["n_cr_c"] == sum(1 - t for arm, t in mine if arm == "cr")
    assert any(c["n_cr_t"] != c["n_cr"] // 2 for c in recorded)


@pytest.mark.parametrize("stratified", [False, True])
def test_assign_draws_the_counts_file(tmp_path, stratified):
    # Counts that are not the symmetric default: 8 of the unit arm's 20
    # units treated. Stratified, every stratum draws the file's counts.
    strata_count = 2 if stratified else 1
    clusters = tmp_path / "c.csv"
    clusters.write_text("unit_id,cluster_id\n" + "".join(f"{i},{i // 5}\n" for i in range(40 * strata_count)))
    given = {"n_cr": 20, "n_cbr": 20, "m_cr": 4, "m_cbr": 4, "n_cr_t": 8, "n_cr_c": 12, "m_cbr_t": 2, "m_cbr_c": 2}
    counts_file = tmp_path / "counts_in.json"
    counts_file.write_text(json.dumps(given))
    assignment, counts = tmp_path / "a.csv", tmp_path / "k.json"
    args = ["assign", "--clusters-file", clusters, "--counts", counts_file, "--seed", 3,
            "--out-assignment", assignment, "--out-counts", counts]
    strata_args = []
    if stratified:
        strata = tmp_path / "s.csv"
        strata.write_text("cluster_id,stratum_id\n" + "".join(f"{c},{c % 2}\n" for c in range(16)))
        strata_args = ["--stratification", strata]
    assert run_cli(*args, *strata_args) == 0
    payload = json.loads(counts.read_text())
    assert payload["counts"] == ({"strata": [given, given]} if stratified else given)
    digests = payload["manifest"]["input_digests"]
    assert digests[str(counts_file)] == spilltest.cli._digest(counts_file)
    outcomes = tmp_path / "y.csv"
    rng = np.random.default_rng(2)
    outcomes.write_text("unit_id,y\n" + "".join(f"{i},{rng.normal()!r}\n" for i in range(40 * strata_count)))
    report = tmp_path / "r.json"
    assert run_cli("analyze", "--assignment", assignment, "--outcomes", outcomes,
                   "--clusters-file", clusters, *strata_args, "--out-report", report) == 0
    assert json.loads(report.read_text())["report"]["stratified"] == stratified


def test_stratified_cli_round_trip(tmp_path):
    # 16 clusters so each of 2 strata supports the per-stratum bound.
    spec = tmp_path / "sbm.json"
    spec.write_text(json.dumps(
        {"num_blocks": 16, "block_size": 10, "p_intra": 0.35, "p_inter": 0.02, "seed": 78}
    ))
    edges, blocks = tmp_path / "g.edges", tmp_path / "b.csv"
    assert run_cli("graph", "--spec", spec, "--out-edges", edges,
                   "--out-clusters", blocks, "--out-meta", tmp_path / "meta.json") == 0
    strata = tmp_path / "s.csv"
    assert run_cli("stratify", "--edges", edges, "--clusters-file", blocks,
                   "--strata", 2, "--seed", 5, "--out-strata", strata) == 0
    assignment, counts = tmp_path / "a.csv", tmp_path / "k.json"
    assert run_cli("assign", "--clusters-file", blocks, "--stratification", strata,
                   "--seed", 44, "--out-assignment", assignment, "--out-counts", counts) == 0
    payload = json.loads(counts.read_text())
    assert len(payload["counts"]["strata"]) == 2
    outcomes = tmp_path / "y.csv"
    rng = np.random.default_rng(1)
    outcomes.write_text(
        "unit_id,y\n" + "\n".join(f"{i},{rng.normal()!r}" for i in range(160)) + "\n"
    )
    report = tmp_path / "r.json"
    assert run_cli("analyze", "--assignment", assignment, "--outcomes", outcomes,
                   "--clusters-file", blocks, "--stratification", strata,
                   "--out-report", report) == 0
    body = json.loads(report.read_text())["report"]
    assert body["stratified"] and len(body["strata"]) == 2


def _table_inputs(tmp_path, **override):
    # The bundled table-check files, with one of them replaced by ``override``.
    paths = {}
    for kind in ("assignment", "outcomes", "clusters"):
        paths[kind] = tmp_path / f"{kind}.csv"
        text = fixture_path(f"table_check_{kind}.csv").read_text()
        paths[kind].write_text(override.get(kind, lambda t: t)(text))
    return ["analyze", "--assignment", paths["assignment"], "--outcomes", paths["outcomes"],
            "--clusters-file", paths["clusters"], "--out-report", tmp_path / "r.json"]


def _replace_line(number, line):
    def edit(text):
        lines = text.splitlines()
        lines[number] = line
        return "\n".join(lines) + "\n"
    return edit


def _stratify_with_covariates(text):
    # ``stratify`` of the clique pair in 4 clusters of 2, with ``text`` as its
    # covariates CSV.
    def build(tmp_path):
        clusters, covariates = tmp_path / "c.csv", tmp_path / "cov.csv"
        clusters.write_text("unit_id,cluster_id\n" + "".join(f"{i},{i // 2}\n" for i in range(8)))
        covariates.write_text(text)
        return ["stratify", "--edges", fixture_path("cliquepair.edges"), "--clusters-file", clusters,
                "--strata", 2, "--seed", 1, "--covariates", covariates, "--out-strata", tmp_path / "s.csv"]
    return build


def _append(rows):
    return lambda text: text + rows


# Units 16-47 in clusters 8-15, four to a cluster.
FOURS = [(u, 8 + (u - 16) // 4) for u in range(16, 48)]


def _analyze_with_strata(tmp_path, text, **override):
    strata = tmp_path / "s.csv"
    strata.write_text("cluster_id,stratum_id\n" + text)
    return _table_inputs(tmp_path, **override) + ["--stratification", strata]


def _assign_with_counts(tmp_path, text):
    counts = tmp_path / "k.json"
    counts.write_text(text)
    return ["assign", "--clusters-file", fixture_path("table_check_clusters.csv"), "--seed", 1,
            "--counts", counts, "--out-assignment", tmp_path / "a.csv", "--out-counts", tmp_path / "o.json"]


def _simulate_with_config(tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text("[1, 2]")
    return ["simulate", "--config", cfg, "--out-csv", tmp_path / "o.csv"]


def _constant_outcomes(text):
    lines = text.splitlines()
    return "\n".join(lines[:1] + [line.split(",")[0] + ",1.0" for line in lines[1:]]) + "\n"


def _analyze_constant_with_alpha(alpha):
    # Constant outcomes give sigma_hat_sq == 0, where the Chebyshev rule
    # decides without reading alpha.
    return lambda p: _table_inputs(p, outcomes=_constant_outcomes) + ["--alpha", alpha]


def _cluster_id_gap(text):
    # Shift cluster ids from 3 up by one, so no unit is in cluster 3.
    lines = text.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    return "\n".join(lines[:1] + [f"{u},{int(c) + (int(c) >= 3)}" for u, c in rows]) + "\n"


TABLE_CHECK_COUNTS = {"n_cr": 8, "n_cbr": 8, "m_cr": 4, "m_cbr": 4, "n_cr_t": 4, "n_cr_c": 4, "m_cbr_t": 2, "m_cbr_c": 2}
TINY_SPEC = {"num_blocks": 4, "block_size": 5, "p_intra": 0.5, "p_inter": 0.1, "seed": 1}


def _graph_spec_text(tmp_path, text):
    spec = tmp_path / "sbm.json"
    spec.write_text(text)
    return ["graph", "--spec", spec, "--out-edges", tmp_path / "g.edges",
            "--out-clusters", tmp_path / "b.csv", "--out-meta", tmp_path / "meta.json"]


def _simulate_config_text(tmp_path, text):
    cfg = tmp_path / "sim.json"
    cfg.write_text(text)
    return ["simulate", "--config", cfg, "--threads", 1, "--out-csv", tmp_path / "o.csv"]


def _simulate_with_field(fixture, **override):
    payload = json.loads(fixture_path(fixture).read_text())
    return lambda tmp_path: _simulate_config_text(tmp_path, json.dumps({**payload, **override}))


def _graph_with_spec(**override):
    return lambda tmp_path: _graph_spec_text(tmp_path, json.dumps({**TINY_SPEC, **override}))


def _simulate_with_sbm(**override):
    # The first block model of the bundled power study with some fields replaced.
    spec = json.loads(fixture_path("fig1b_desk.json").read_text())["sbm"][0]
    return _simulate_with_field("fig1b_desk.json", sbm=[{**spec, **override}])


def _design(**override):
    # The bundled oracle design with some of its keys replaced.
    payload = json.loads(fixture_path("oracle8.json").read_text())
    return json.dumps({**payload, **override})


def _dumps(value, twice=None):
    # ``value`` as JSON text; the object ``twice[0]`` (by identity) gives its
    # key ``twice[1]`` a second time, last.
    if isinstance(value, dict):
        items = list(value.items()) + ([(twice[1], value[twice[1]])] if twice and value is twice[0] else [])
        return "{" + ", ".join(f"{json.dumps(k)}: {_dumps(v, twice)}" for k, v in items) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(_dumps(v, twice) for v in value) + "]"
    return json.dumps(value)


def _design_repeating(record, key):
    # The bundled oracle design with ``key`` repeated inside its ``record``.
    payload = json.loads(fixture_path("oracle8.json").read_text())
    return _dumps(payload, (payload[record], key))


def _assign_with(tmp_path, clusters=None, strata=None):
    # ``assign`` on the bundled table-check clusters, or on ``clusters``, and
    # with ``strata`` as its stratification CSV when given.
    clusters_file = fixture_path("table_check_clusters.csv")
    if clusters is not None:
        clusters_file = tmp_path / "c.csv"
        clusters_file.write_text(clusters(fixture_path("table_check_clusters.csv").read_text()))
    args = ["assign", "--clusters-file", clusters_file, "--seed", 1,
            "--out-assignment", tmp_path / "a.csv", "--out-counts", tmp_path / "o.json"]
    if strata is not None:
        (tmp_path / "s.csv").write_text("cluster_id,stratum_id\n" + strata)
        args += ["--stratification", tmp_path / "s.csv"]
    return args


def _cluster_edges(tmp_path, text):
    edges = tmp_path / "g.edges"
    edges.write_text(text)
    return ["cluster", "--edges", edges, "--clusters", 2, "--seed", 1,
            "--out-clusters", tmp_path / "c.csv", "--out-metrics", tmp_path / "m.json"]


def _oracle_with_design(tmp_path, text):
    # A lone surrogate "\udcXX" in ``text`` is written as the byte 0xXX.
    design = tmp_path / "d.json"
    design.write_text(text, encoding="utf-8", errors="surrogateescape")
    return ["oracle", "--design", design]


# Each case: the command line it builds, and what its error line must name.
MALFORMED_INPUTS = {
    "outcome-field": (lambda p: _table_inputs(p, outcomes=_replace_line(2, "1,abc")), "y 'abc'"),
    "outcome-short-row": (lambda p: _table_inputs(p, outcomes=_replace_line(2, "1")), "y is missing"),
    "outcome-header": (lambda p: _table_inputs(p, outcomes=_replace_line(0, "id,y")), "header"),
    "assignment-treatment": (
        lambda p: _table_inputs(p, assignment=_replace_line(2, "1,cr,x")), "treatment 'x'"
    ),
    "assignment-duplicate": (
        lambda p: _table_inputs(p, assignment=lambda t: t + "4,cr,1\n"), "duplicate unit_id 4"
    ),
    # Units 8 and 9 make up one cluster-randomized cluster.
    "assignment-treatment-2": (
        lambda p: _table_inputs(
            p, assignment=lambda t: _replace_line(10, "9,cbr,2")(_replace_line(9, "8,cbr,2")(t))
        ),
        "treatment '2' is not 0 or 1",
    ),
    "outcomes-outside-clustering": (
        lambda p: _table_inputs(p, outcomes=lambda t: t + f"{len(t.splitlines()) - 1},1.0\n"),
        "outside the",
    ),
    "cluster-field": (lambda p: _table_inputs(p, clusters=_replace_line(2, "1,zz")), "cluster_id 'zz'"),
    "stratum-field": (lambda p: _analyze_with_strata(p, "0,0\n1,q\n"), "stratum_id 'q'"),
    "stratified-short-assignment": (
        lambda p: _analyze_with_strata(
            p, "".join(f"{c},{c // 4}\n" for c in range(8)), assignment=lambda t: "".join(t.splitlines(True)[:9])
        ),
        "assignment covers 8 units",
    ),
    # A refusal inside one stratum names it: stratum 0 holds only unit-arm
    # clusters, or (interleaved) one treated and one control cluster-arm cluster.
    "stratum-one-arm": (
        lambda p: _analyze_with_strata(p, "".join(f"{c},{c // 4}\n" for c in range(8))),
        "stratum 0: design count n_cbr=0 must be >= 1",
    ),
    "stratum-small-bucket": (
        lambda p: _analyze_with_strata(p, "".join(f"{c},{c % 2}\n" for c in range(8))),
        "stratum 0: need >= 2 treated and >= 2 control clusters in the cluster arm",
    ),
    # Unit 10 sits in cluster 5, a treated cluster-arm cluster, which is
    # cluster 2 of stratum 1 under the interleaved strata: the refusal names
    # the file's id.
    "stratum-cluster-spans-arms": (
        lambda p: _analyze_with_strata(
            p, "".join(f"{c},{c % 2}\n" for c in range(8)), assignment=_replace_line(11, "10,cr,1")
        ),
        "stratum 1: cluster 5 spans both arms",
    ),
    "stratum-cluster-mixed-treatment": (
        lambda p: _analyze_with_strata(
            p, "".join(f"{c},{c % 2}\n" for c in range(8)), assignment=_replace_line(11, "10,cbr,0")
        ),
        "stratum 1: cluster-randomized cluster 5 has mixed treatment",
    ),
    "stratum-duplicate": (
        lambda p: _analyze_with_strata(p, "".join(f"{c},{c // 4}\n" for c in range(8)) + "3,1\n"),
        "duplicate cluster_id 3",
    ),
    "covariate-field": (_stratify_with_covariates("cluster_id,x\n0,1.0\n1,abc\n2,0.5\n3,2.0\n"), "x 'abc'"),
    # 5 rows of 4 values for 4 clusters: read as one row per cluster, not
    # transposed because the column count happens to match.
    "covariate-rows": (
        _stratify_with_covariates("cluster_id,a,b,c,d\n" + "".join(f"{c},1.0,2.0,{c}.5,0.0\n" for c in range(5))),
        "covariates must have one row per cluster",
    ),
    # Analyze splits strata as assign does, so it refuses a stratification
    # that lists only the table's 8 clusters, a valid design on their own, on
    # a clustering of 10, and one that lists 10 clusters on the table's 8.
    "stratification-partial": (
        lambda p: _analyze_with_strata(
            p, "".join(f"{c},0\n" for c in range(8)),
            clusters=_append("16,8\n17,8\n18,9\n19,9\n"),
            assignment=_append("16,cr,1\n17,cr,0\n18,cbr,1\n19,cbr,1\n"),
            outcomes=_append("16,1.0\n17,2.0\n18,3.0\n19,4.0\n"),
        ),
        "stratification does not cover the clustering of 10 clusters: it lists 8",
    ),
    "stratification-extra-clusters": (
        lambda p: _analyze_with_strata(p, "".join(f"{c},0\n" for c in range(10))),
        "stratification does not cover the clustering of 8 clusters: it lists 10",
    ),
    # Stratum 1 is 8 clusters of 4 (units 16-47), a valid design on its own,
    # beside the table's clusters of 2: refused as unbalanced, as in assign.
    "stratum-unequal-cluster-sizes": (
        lambda p: _analyze_with_strata(
            p, "".join(f"{c},{c // 8}\n" for c in range(16)),
            clusters=_append("".join(f"{u},{c}\n" for u, c in FOURS)),
            assignment=_append("".join(
                f"{u},cr,{u % 2}\n" if c < 12 else f"{u},cbr,{int(c < 14)}\n" for u, c in FOURS
            )),
            outcomes=_append("".join(f"{u},{u % 7}.0\n" for u, _ in FOURS)),
        ),
        "the design requires exactly equal cluster sizes; run rebalance() first (sizes range 2..4)",
    ),
    "partial-counts-json": (lambda p: _assign_with_counts(p, json.dumps({"n_cr": 8})), "counts"),
    "non-object-counts-json": (lambda p: _assign_with_counts(p, "[8]"), "counts"),
    "invalid-counts-json": (lambda p: _assign_with_counts(p, "{n_cr: 8"), "counts"),
    "float-counts-json": (
        lambda p: _assign_with_counts(p, json.dumps(
            {"n_cr": 8.0, "n_cbr": 8, "m_cr": 4, "m_cbr": 4, "n_cr_t": 4, "n_cr_c": 4, "m_cbr_t": 2, "m_cbr_c": 2}
        )),
        "n_cr=8.0 is not an integer",
    ),
    "non-object-study-config": (_simulate_with_config, "JSON object"),
    "empty-design-json": (lambda p: _oracle_with_design(p, "{}"), "design is missing clustering"),
    "non-object-design-json": (lambda p: _oracle_with_design(p, "[1]"), "JSON object"),
    "invalid-design-json": (lambda p: _oracle_with_design(p, "{clustering"), "invalid design JSON"),
    "design-clustering-type": (
        lambda p: _oracle_with_design(p, _design(clustering=["a", "b"])), "clustering must hold integers"
    ),
    "design-model-type": (lambda p: _oracle_with_design(p, _design(model=[1])), "model must be a JSON object"),
    "design-model-field": (lambda p: _oracle_with_design(p, _design(model={"alpha": 1})), "bad design"),
    # The checks enumerate the model, so a noisy one is refused before any runs.
    "design-model-noisy": (
        lambda p: _oracle_with_design(p, _design(model={
            **json.loads(fixture_path("oracle8.json").read_text())["model"], "noise_sd": 1.0
        })),
        "bad design: model noise_sd=1.0",
    ),
    "design-counts-fields": (
        lambda p: _oracle_with_design(p, _design(counts={"n_cr": "4"})), "bad design"
    ),
    "design-counts-float": (
        lambda p: _oracle_with_design(p, _design(counts={
            **json.loads(fixture_path("oracle8.json").read_text())["counts"], "n_cr": 4.0
        })),
        "n_cr=4.0 is not an integer",
    ),
    # 8 clusters of 4: 5,405,400 draws of 32 units, over the cap of cells
    # but not of draws; refused before the enumeration allocates.
    "design-over-enumeration-cap": (
        lambda p: _oracle_with_design(p, _design(
            clustering=np.repeat(np.arange(8), 4).tolist(),
            counts={**TABLE_CHECK_COUNTS, "n_cr": 16, "n_cbr": 16, "n_cr_t": 8, "n_cr_c": 8},
        )) + ["--check", "null-variance"],
        "5405400 outcomes of 32 units",
    ),
    "alpha-2-constant-outcomes": (_analyze_constant_with_alpha(2), "alpha=2.0 must lie in (0, 1)"),
    "alpha-0-constant-outcomes": (_analyze_constant_with_alpha(0), "alpha=0.0 must lie in (0, 1)"),
    "alpha-negative-constant-outcomes": (_analyze_constant_with_alpha(-1), "alpha=-1.0 must lie in (0, 1)"),
    "cluster-id-gap": (
        lambda p: _table_inputs(p, clusters=_cluster_id_gap),
        "clusters.csv: every cluster must be non-empty: cluster 3 has no units",
    ),
    "one-cluster-stratum": (
        lambda p: _analyze_with_strata(p, "".join(f"{c},{int(c == 7)}\n" for c in range(8))),
        "s.csv: every stratum needs at least two clusters: stratum 1 has 1",
    ),
    "study-gamma-grid-string": (_simulate_with_field("fig1b_desk.json", gamma_grid=["a"]), "gamma_grid=['a']"),
    "study-noise-sd-string": (_simulate_with_field("fig1b_desk.json", noise_sd="x"), "noise_sd='x'"),
    "study-direct-effect-null": (
        _simulate_with_field("fig1b_desk.json", direct_effect=None), "direct_effect=None"
    ),
    "study-replications-float": (
        _simulate_with_field("fig1a_desk.json", replications=2.5), "replications=2.5"
    ),
    "study-constant-effect-string": (
        _simulate_with_field("fig1a_desk.json", constant_effect="x"), "constant_effect='x'"
    ),
    "study-seed-negative": (_simulate_with_field("fig1a_desk.json", seed=-1), "seed=-1 is negative"),
    # One draw has no spread, so its delta_se would be nan, which is not JSON.
    "study-replications-one": (
        _simulate_with_field(
            "fig1a_desk.json", study="type1", replications=1, seed=1, num_clusters=8, cluster_size=4
        ),
        "replications=1 is below 2",
    ),
    "study-seed-string": (_simulate_with_field("fig1a_desk.json", seed="x"), "seed='x'"),
    # Refused before the study allocates a gap and a bound per replication.
    "study-replications-huge": (
        _simulate_with_field(
            "fig1a_desk.json", study="type1", replications=10**12, seed=1, num_clusters=8, cluster_size=4
        ),
        "refusing a study of 1000000000000 replications (limit 100000000)",
    ),
    "study-clustering-source": (
        _simulate_with_field("fig1b_desk.json", clustering_source="bogus"), "bad study config fields"
    ),
    "study-statistic-overflow": (
        _simulate_with_field(
            "fig1a_desk.json", study="type1", replications=50, seed=1, num_clusters=8, cluster_size=20,
            constant_effect=1e307, y0_cluster_sd=0.0, y0_unit_sd=0.0,
        ),
        "non-finite statistic: delta=nan",
    ),
    "study-regenerate-string": (
        _simulate_with_field("fig1b_desk.json", regenerate_graph_per_rep="false"),
        "bad study config fields",
    ),
    # Ids and unit counts of 10^17: each is refused before an array with one
    # entry per id is made.
    "cluster-id-huge": (
        lambda p: _assign_with(p, clusters=_replace_line(2, f"1,{10**17}")),
        "c.csv: every cluster must be non-empty: cluster 8 has no units",
    ),
    "stratum-id-huge": (
        lambda p: _assign_with(p, strata="".join(f"{c},{int(c >= 4)}\n" for c in range(7)) + f"7,{10**17}\n"),
        "s.csv: every stratum needs at least two clusters: stratum 2 has 0",
    ),
    # A leniency that is not finite, or whose capacity is not (2 units a
    # cluster times 1 + 1e308), is refused before ceil() reads it.
    "cluster-leniency-nan": (
        lambda p: [*_cluster_edges(p, "N=4\n0 1\n2 3\n"), "--leniency", "nan"],
        "leniency=nan must be a finite non-negative number",
    ),
    "cluster-leniency-inf": (
        lambda p: [*_cluster_edges(p, "N=4\n0 1\n2 3\n"), "--leniency", "inf"],
        "leniency=inf must be a finite non-negative number",
    ),
    "cluster-leniency-huge": (
        lambda p: [*_cluster_edges(p, "N=4\n0 1\n2 3\n"), "--leniency", "1e308"],
        "leniency=1e+308 leaves no finite cluster capacity",
    ),
    # A negative seed is refused as the JSON inputs refuse one, not by numpy.
    "cluster-seed-negative": (
        lambda p: [*_cluster_edges(p, "N=4\n0 1\n2 3\n"), "--seed", -1], "error: seed=-1 is negative"
    ),
    "stratify-seed-negative": (
        lambda p: [*_stratify_with_covariates("cluster_id,x\n0,1.0\n1,2.0\n2,0.5\n3,2.0\n")(p), "--seed", -1],
        "error: seed=-1 is negative",
    ),
    "assign-seed-negative": (lambda p: [*_assign_with(p), "--seed", -1], "error: seed=-1 is negative"),
    "edge-list-declared-n-zero": (
        lambda p: _cluster_edges(p, "N=0\n"), "g.edges: graph needs at least one unit, got N=0"
    ),
    "edge-list-declared-n-huge": (
        lambda p: _cluster_edges(p, f"N={10**17}\n0 1\n"),
        f"refusing a graph of {10**17} units and 1 edges (limit 100000000 in all)",
    ),
    # A no-break space pads no header, as it separates no edge.
    "edge-list-header-nbsp": (
        lambda p: _cluster_edges(p, "N\u00a0=3\n0 1\n"), "g.edges:1: non-integer unit id in 'N\\xa0=3'"
    ),
    "edge-list-header-nbsp-pad": (
        lambda p: _cluster_edges(p, "N=3\u00a0\n0 1\n"), "g.edges:1: expected two unit ids, got 'N=3\\xa0'"
    ),
    "edge-list-header-nbsp-indent": (
        lambda p: _cluster_edges(p, "\u00a0N=3\n0 1\n"), "g.edges:1: expected two unit ids, got '\\xa0N=3'"
    ),
    # A key given twice is refused at any depth, in each JSON input.
    "counts-repeated-key": (
        lambda p: _assign_with_counts(p, _dumps(counts := {**TABLE_CHECK_COUNTS, "m_cbr_t": 3}, (counts, "m_cbr_t"))),
        "k.json: invalid design counts JSON: repeated key 'm_cbr_t'",
    ),
    "graph-spec-repeated-key": (
        lambda p: _graph_spec_text(p, _dumps(TINY_SPEC, (TINY_SPEC, "seed"))),
        "sbm.json: invalid block-model spec JSON: repeated key 'seed'",
    ),
    "study-repeated-key": (
        lambda p: _simulate_config_text(p, _dumps(cfg := json.loads(fixture_path("fig1a_desk.json").read_text()), (cfg, "seed"))),
        "sim.json: invalid study config JSON: repeated key 'seed'",
    ),
    "study-sbm-repeated-key": (
        lambda p: _simulate_config_text(p, _dumps(
            {**json.loads(fixture_path("fig1b_desk.json").read_text()), "sbm": [TINY_SPEC]}, (TINY_SPEC, "p_intra")
        )),
        "invalid study config JSON: repeated key 'p_intra'",
    ),
    "design-model-repeated-key": (
        lambda p: _oracle_with_design(p, _design_repeating("model", "gamma")),
        "d.json: invalid design JSON: repeated key 'gamma'",
    ),
    "design-counts-repeated-key": (
        lambda p: _oracle_with_design(p, _design_repeating("counts", "n_cr")),
        "d.json: invalid design JSON: repeated key 'n_cr'",
    ),
    "design-unknown-key": (
        lambda p: _oracle_with_design(p, _design(tabel_seed=3)), "d.json: bad design fields: unknown 'tabel_seed'"
    ),
    "design-model-bool": (
        lambda p: _oracle_with_design(p, _design(model={
            **json.loads(fixture_path("oracle8.json").read_text())["model"], "gamma": True
        })),
        "bad design: model gamma=True is not a finite number",
    ),
    "design-table-seed-bool": (
        lambda p: _oracle_with_design(p, _design(table_seed=True)), "d.json: design table_seed=True is not an integer"
    ),
    "design-table-seed-negative": (
        lambda p: _oracle_with_design(p, _design(table_seed=-1)), "d.json: design table_seed=-1 is negative"
    ),
    # A field the study kind never reads is refused, not echoed with no effect.
    "study-ratio-gamma-grid": (
        _simulate_with_field("fig1a_desk.json", gamma_grid=[5.0]), "sim.json: a ratio study does not read gamma_grid=(5.0,)"
    ),
    "study-type1-sbm": (
        _simulate_with_field("fig1a_desk.json", study="type1", sbm=[TINY_SPEC]), "a type1 study does not read sbm="
    ),
    "study-power-cluster-size": (
        _simulate_with_field("fig1b_desk.json", cluster_size=20), "a power study does not read cluster_size=20"
    ),
    # A worker count below 1 is refused, from the config or the flag.
    "study-threads-zero": (
        _simulate_with_field("fig1b_desk.json", threads=0), "sim.json: study config threads=0 is below 1"
    ),
    "study-threads-negative": (
        _simulate_with_field("fig1b_desk.json", threads=-1), "sim.json: study config threads=-1 is below 1"
    ),
    "simulate-threads-flag-zero": (
        lambda p: [*_simulate_with_field("fig1b_desk.json", replications=2)(p)[:-4], "--threads", 0],
        "--threads=0 is below 1",
    ),
    # A ratio study reads no threads, but the flag is still checked.
    "simulate-threads-flag-negative": (
        lambda p: [*_simulate_with_field("fig1a_desk.json", replications=2)(p)[:-4], "--threads", -1],
        "--threads=-1 is below 1",
    ),
    "study-gamma-grid-empty": (
        _simulate_with_field("fig1b_desk.json", gamma_grid=[]), "power study needs at least one gamma"
    ),
    "design-not-utf8": (lambda p: _oracle_with_design(p, _design()[:-1] + "\udcff}"), "invalid design JSON"),
    "design-clustering-id-huge": (
        lambda p: _oracle_with_design(p, _design(clustering=[0, 0, 1, 1, 2, 2, 3, 10**17])),
        "bad design: every cluster must be non-empty: cluster 4 has no units",
    ),
    "study-units-huge": (
        _simulate_with_field("fig1a_desk.json", num_clusters=10**17),
        f"refusing a study of {20 * 10**17} units (limit 100000000)",
    ),
    # A directory is no file to read or write: refused with its OS error.
    "cluster-edges-directory": (
        lambda p: ["cluster", "--edges", p, "--clusters", 2, "--seed", 1,
                   "--out-clusters", p / "c.csv", "--out-metrics", p / "m.json"],
        "Is a directory",
    ),
    "oracle-design-directory": (lambda p: ["oracle", "--design", p], "Is a directory"),
    "graph-out-edges-directory": (
        lambda p: [arg if arg != p / "g.edges" else p for arg in _graph_spec_text(p, json.dumps(TINY_SPEC))],
        "Is a directory",
    ),
    # Two outputs in one file: the later would overwrite the earlier.
    "graph-outputs-same-file": (
        lambda p: [arg if arg != p / "meta.json" else p / "g.edges"
                   for arg in _graph_spec_text(p, json.dumps(TINY_SPEC))],
        "--out-edges and --out-meta both name",
    ),
    # 10^13 units: refused before any array is made.
    "graph-spec-too-large": (
        _graph_with_spec(num_blocks=10**7, block_size=10**6), "refusing a block model of 10000000000000 units"
    ),
    # 10^200 blocks: more unit pairs than a float holds.
    "graph-spec-beyond-float": (
        _graph_with_spec(num_blocks=10**200), f"refusing a block model of {5 * 10**200} units"
    ),
    # A probability of 401 digits is an integer beyond the float range.
    "graph-spec-p-intra-huge": (_graph_with_spec(p_intra=10**400), "p_intra=1" + "0" * 400 + " is not a finite number"),
    "counts-cluster-buckets": (
        lambda p: _assign_with_counts(p, json.dumps({**TABLE_CHECK_COUNTS, "m_cbr_t": 3})),
        "k.json: treated + control must equal the arm's cluster count",
    ),
    "assign-uneven-units": (
        lambda p: _assign_with(p, clusters=lambda t: t.splitlines()[0] + "\n" + "".join(f"{u},{u % 4}\n" for u in range(10))),
        "error: 10 units do not split evenly over 4 clusters",
    ),
    "study-alpha-above-one": (_simulate_with_field("fig1a_desk.json", alpha=1.5), "sim.json: alpha must lie in (0, 1)"),
    "study-sbm-not-a-list": (
        _simulate_with_field("fig1b_desk.json", sbm=5), "sim.json: study config sbm=5 is not a list of block-model specs"
    ),
    "design-edge-negative": (
        lambda p: _oracle_with_design(p, _design(edges=[[0, -1]])), "d.json: bad design: negative unit id in edge list"
    ),
    "design-edge-triple": (
        lambda p: _oracle_with_design(p, _design(edges=[[0, 1, 2]])), "d.json: bad design: edges must be pairs of unit ids"
    ),
}

# Block-model specs of the wrong type, read by both `graph --spec` and a
# study config's `sbm` list.
BAD_SPEC_FIELDS = {
    "block-size-float": ({"block_size": 2.5}, "block_size=2.5 is not an integer"),
    "block-size-bool": ({"block_size": True}, "block_size=True is not an integer"),
    "seed-negative": ({"seed": -1}, "block-model spec seed=-1 is negative"),
    "seed-float": ({"seed": 1.5}, "seed=1.5 is not an integer"),
    "p-intra-string": ({"p_intra": "x"}, "p_intra='x' is not a finite number"),
    "p-inter-bool": ({"p_inter": False}, "p_inter=False is not a finite number"),
}
for _name, (_override, _named) in BAD_SPEC_FIELDS.items():
    MALFORMED_INPUTS[f"graph-spec-{_name}"] = (_graph_with_spec(**_override), _named)
    MALFORMED_INPUTS[f"study-sbm-{_name}"] = (_simulate_with_sbm(**_override), _named)


@pytest.mark.parametrize("case", list(MALFORMED_INPUTS))
def test_malformed_inputs_exit_1_with_error_line(tmp_path, capsys, case):
    build, named = MALFORMED_INPUTS[case]
    assert run_cli(*build(tmp_path)) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error:") and named in err and err.count("\n") == 1
    assert out == ""


TABLE_KINDS = ("assignment", "outcomes", "clusters")
_DIGIT_FREE = st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=6)


@st.composite
def _edited_table(draw):
    # One table-check file with one random edit, as the bytes to write.
    kind = draw(st.sampled_from(TABLE_KINDS))
    rows = [line.split(",") for line in fixture_path(f"table_check_{kind}.csv").read_text().splitlines()]
    body = st.integers(1, len(rows) - 1)
    edit = draw(st.sampled_from(["field", "drop-row", "duplicate-row", "add-field", "drop-field", "header", "bytes"]))
    if edit == "field":
        r = draw(body)
        rows[r][draw(st.integers(0, len(rows[r]) - 1))] = draw(
            st.one_of(_DIGIT_FREE, st.integers(-5, 5000).map(str))
        )
    elif edit == "drop-row":
        del rows[draw(body)]
    elif edit == "duplicate-row":
        r = draw(body)
        rows.insert(draw(st.integers(1, len(rows))), list(rows[r]))
    elif edit == "add-field":
        rows[draw(st.integers(0, len(rows) - 1))].append(draw(st.integers(-5, 5000).map(str)))
    elif edit == "drop-field":
        rows[draw(st.integers(0, len(rows) - 1))].pop()
    elif edit == "header":
        rows[0][draw(st.integers(0, len(rows[0]) - 1))] = draw(_DIGIT_FREE)
    data = "".join(",".join(row) + "\n" for row in rows).encode("utf-8")
    if edit == "bytes":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + bytes(draw(st.lists(st.integers(0x80, 0xFF), min_size=1, max_size=4))) + data[at:]
    return kind, data


@settings(max_examples=200, deadline=None)
@given(_edited_table())
def test_edited_tables_exit_0_or_1_with_error_line(edited):
    kind, data = edited
    with tempfile.TemporaryDirectory() as tmp:
        paths = {k: Path(tmp) / f"{k}.csv" for k in TABLE_KINDS}
        for k, path in paths.items():
            path.write_bytes(data if k == kind else fixture_path(f"table_check_{k}.csv").read_bytes())
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run_cli("analyze", "--assignment", paths["assignment"], "--outcomes", paths["outcomes"],
                           "--clusters-file", paths["clusters"], "--out-report", Path(tmp) / "r.json")
    assert code == 0 or (code == 1 and err.getvalue().startswith("error:")), (code, err.getvalue())


@st.composite
def _edited_edge_list(draw):
    # The bundled edge list (a comment, the header N=8, then one edge a line)
    # with one random edit, as the bytes to write.
    lines = fixture_path("cliquepair.edges").read_text().splitlines()
    edge = st.integers(2, len(lines) - 1)
    number = st.integers(-5, 50).map(str)
    edit = draw(st.sampled_from(
        ["field", "drop-line", "duplicate-line", "add-field", "drop-field", "separator", "header", "bytes"]
    ))
    if edit == "field":
        r = draw(edge)
        fields = lines[r].split(" ")
        fields[draw(st.integers(0, 1))] = draw(st.one_of(_DIGIT_FREE, number))
        lines[r] = " ".join(fields)
    elif edit == "drop-line":
        del lines[draw(st.integers(0, len(lines) - 1))]
    elif edit == "duplicate-line":
        r = draw(st.integers(0, len(lines) - 1))
        lines.insert(draw(st.integers(0, len(lines))), lines[r])
    elif edit == "add-field":
        r = draw(edge)
        lines[r] += " " + draw(number)
    elif edit == "drop-field":
        r = draw(edge)
        lines[r] = lines[r].split(" ")[0]
    elif edit == "separator":
        r = draw(edge)
        lines[r] = lines[r].replace(" ", draw(st.text(st.characters(blacklist_categories=("Cs",)), max_size=3)))
    elif edit == "header":
        lines[1] = draw(st.sampled_from(["N=", "N = ", "n=", "N:", "# N="])) + draw(st.one_of(_DIGIT_FREE, number))
    data = "".join(line + "\n" for line in lines).encode("utf-8")
    if edit == "bytes":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + bytes(draw(st.lists(st.integers(0x80, 0xFF), min_size=1, max_size=4))) + data[at:]
    return data


@settings(max_examples=200, deadline=None)
@given(_edited_edge_list())
def test_edited_edge_lists_exit_0_or_1_with_error_line(data):
    with tempfile.TemporaryDirectory() as tmp:
        edges = Path(tmp) / "g.edges"
        edges.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli("cluster", "--edges", edges, "--clusters", 2, "--seed", 1, "--rebalance",
                           "--out-clusters", Path(tmp) / "c.csv", "--out-metrics", Path(tmp) / "m.json")
    one_error_line = err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
    assert code == 0 or (code == 1 and one_error_line and out.getvalue() == ""), (code, err.getvalue())


# Each JSON input: a valid object, and a cheap command that reads it from a
# path and writes into a directory. The power study nests a design-counts
# record and a block-model spec of 8 blocks of 2, which the counts fit.
JSON_INPUTS = {
    "counts": (TABLE_CHECK_COUNTS, lambda path, out: [
        "assign", "--clusters-file", fixture_path("table_check_clusters.csv"), "--seed", 1, "--counts", path,
        "--out-assignment", out / "a.csv", "--out-counts", out / "o.json"]),
    "spec": (TINY_SPEC, lambda path, out: [
        "graph", "--spec", path, "--out-edges", out / "g.edges", "--out-clusters", out / "b.csv",
        "--out-meta", out / "meta.json"]),
    "study": (
        {"study": "power", "replications": 20, "seed": 3, "gamma_grid": [0.5], "counts": TABLE_CHECK_COUNTS,
         "sbm": [{**TINY_SPEC, "num_blocks": 8, "block_size": 2}]},
        lambda path, out: ["simulate", "--config", path, "--threads", 1, "--out-csv", out / "o.csv"],
    ),
    "design": (
        json.loads(fixture_path("oracle8.json").read_text()),
        lambda path, out: ["oracle", "--check", "law", "--design", path],
    ),
}
_BAD_VALUES = st.sampled_from([True, False, "x", "", None, float("nan"), [], [1, "a"], [[0, 1]]])


@st.composite
def _edited_json(draw):
    # One JSON input with one random edit to its top object or a record
    # nested in it, or with bytes that are not UTF-8, as the bytes to write.
    name = draw(st.sampled_from(sorted(JSON_INPUTS)))
    payload = copy.deepcopy(JSON_INPUTS[name][0])
    nested = [v for v in payload.values() if isinstance(v, dict)]
    nested += [v for items in payload.values() if isinstance(items, list) for v in items if isinstance(v, dict)]
    record = draw(st.sampled_from([payload] + nested))
    key = draw(st.sampled_from(sorted(record)))
    edit = draw(st.sampled_from(["delete", "repeat", "add", "swap", "nest", "bytes"]))
    if edit == "delete":
        del record[key]
    elif edit == "add":
        record[draw(st.text(max_size=8))] = draw(_BAD_VALUES)
    elif edit == "swap":
        record[key] = draw(_BAD_VALUES)
    elif edit == "nest":
        record[key] = {draw(st.sampled_from(sorted(record))): draw(_BAD_VALUES)}
    data = _dumps(payload, (record, key) if edit == "repeat" else None).encode("utf-8")
    if edit == "bytes":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + bytes(draw(st.lists(st.integers(0x80, 0xFF), min_size=1, max_size=4))) + data[at:]
    return name, data


@settings(max_examples=200, deadline=None)
@given(_edited_json())
def test_edited_json_inputs_exit_0_or_1_with_error_line(edited):
    name, data = edited
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(*JSON_INPUTS[name][1](path, Path(tmp)))
    one_error_line = err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
    assert code == 0 or (code == 1 and one_error_line and out.getvalue() == ""), (code, err.getvalue())


def _huge_outcomes(text):
    # Every outcome at +-1.7e308, so the estimator's sums overflow.
    lines = text.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    return "\n".join(lines[:1] + [f"{u},{'-' if float(y) < 0 else ''}1.7e308" for u, y in rows]) + "\n"


OVERFLOW_INPUTS = {
    "simulate": (
        MALFORMED_INPUTS["study-statistic-overflow"][0],
        "error: non-finite statistic: delta=nan, sigma_hat_sq=nan\n",
    ),
    "analyze": (
        lambda p: _table_inputs(p, outcomes=_huge_outcomes),
        "error: non-finite statistic: delta=0.0, sigma_hat_sq=inf\n",
    ),
    # A power study's outcomes overflow in their noise, or in alpha + beta.
    "simulate-power-noise": (
        _simulate_with_field("fig1b_desk.json", replications=20, noise_sd=1e308),
        "error: non-finite statistic: delta=nan, sigma_hat_sq=nan\n",
    ),
    "simulate-power-affine": (
        _simulate_with_field("fig1b_desk.json", replications=20, baseline=1e308, direct_effect=1e308),
        "error: non-finite statistic: delta=nan, sigma_hat_sq=nan\n",
    ),
}


@pytest.mark.parametrize("case", list(OVERFLOW_INPUTS))
def test_overflowing_statistic_prints_only_the_error_line(tmp_path, case):
    # A child interpreter, so that numpy's warnings would reach stderr as
    # they do for a user rather than pytest's warning capture.
    build, expected = OVERFLOW_INPUTS[case]
    env = {**os.environ, "PYTHONPATH": str(Path(spilltest.__file__).parents[1])}
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "spilltest.cli", *map(str, build(tmp_path))],
        capture_output=True, text=True, env=env,
    )
    assert (proc.returncode, proc.stderr) == (1, expected)
