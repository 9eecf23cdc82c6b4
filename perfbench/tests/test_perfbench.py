"""Tests of the benchmark itself, at toy sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import csv
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import checks  # noqa: E402
import speed  # noqa: E402
import spilltest.cli  # noqa: E402
import workloads  # noqa: E402
from workloads import LenientSize, PipelineSize, Sizes, StudySize  # noqa: E402

TOY = Sizes(
    pipeline=PipelineSize(num_units=2000, block_size=20, num_edges=10_000, clusters=100, strata=5),
    lenient=LenientSize(num_blocks=20, block_size=10, p_intra=0.5, p_inter=0.01, clusters=20, leniency=0.1, iterations=3),
    power=StudySize(replications=10, blocks=(8, 25)),
    ratio=StudySize(replications=200, blocks=(20, 10)),
)
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def toy_run(name: str, trace: bool, seed: int = 3) -> dict:
    return workloads.execute(name, seed, 0.0, trace, ROOT, TOY)


@pytest.fixture(scope="module")
def traced_runs() -> dict[str, dict]:
    return {name: toy_run(name, trace=True) for name in workloads.WORKLOADS}


def test_workloads_match_benchmark_json():
    assert tuple(w["name"] for w in BENCHMARK["workloads"]) == workloads.WORKLOADS


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(name):
    result = toy_run(name, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_emits_every_per_layer_metric(traced_runs):
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for result in traced_runs.values():
        assert result["correct"], result["detail"]["failures"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_workloads_separate_the_layers(traced_runs):
    def value(name, metric):
        return traced_runs[name]["metrics"][metric]["value"]

    assert value("pipeline-100k", "partition.rebalance.moves") == 0
    assert value("pipeline-lenient-4800", "partition.rebalance.moves") > 0
    assert value("ratio-4k", "outcomes.realize_linear.calls") == 0
    assert value("power-4k", "outcomes.realize_linear.calls") > 0
    for study in ("power-4k", "ratio-4k"):
        assert value(study, "assign.hierarchical_assign.calls") == value(study, "sim.replications") > 0
    for name in workloads.WORKLOADS:
        assert value(name, "trace.accounted_frac") == pytest.approx(1.0, abs=0.02)


def _flip_one_cbr_treatment(path: str) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    row = next(r for r in rows[1:] if r[1] == "cbr")
    row[2] = str(1 - int(row[2]))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_flipped_treatment_bit_is_a_failed_operation(monkeypatch):
    save = spilltest.cli.save_assignment

    def save_then_flip(assignments, path):
        save(assignments, path)
        _flip_one_cbr_treatment(path)

    monkeypatch.setattr(spilltest.cli, "save_assignment", save_then_flip)
    result = toy_run("pipeline-100k", trace=False)
    assert not result["correct"] and result["failed"] == 1
    assert result["detail"]["failures"][0].startswith("cli.assign: check failed: a cluster-randomized cluster")


def test_perturbed_outcome_in_recomputation_is_a_failed_operation(monkeypatch):
    read = checks.read_outcomes

    def read_perturbed(path):
        y = read(path)
        y[7] += 1e-3
        return y

    monkeypatch.setattr(checks, "read_outcomes", read_perturbed)
    result = toy_run("pipeline-100k", trace=False)
    assert not result["correct"] and result["failed"] == 1
    assert result["detail"]["failures"][0].startswith("cli.analyze: check failed: sigma_hat_sq")


def test_run_without_the_package_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ratio-4k", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_speed_probe_samples_during_the_block_and_restores_the_alarm():
    previous = signal.getsignal(signal.SIGALRM)
    with speed.Probe() as probe:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            sum(range(1000))
        wall = time.perf_counter() - start
    assert len(probe.samples) > 2 * speed.EDGE_SAMPLES + 2
    assert 0 < probe.handler_s < wall
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert probe.at_reference_speed(wall) > 0
