"""The benchmark's workloads: what one run builds, sets up, times and checks.

A run builds its inputs from the workload seed, times the set-up in fresh
processes, then repeats *passes* of the workload's user-facing operation for
about the requested seconds. Every CLI command or study call is one
operation; it fails when it exits non-zero, raises, or fails its output
check. Checks run outside the timed regions. Every time is reported at
reference speed (see ``speed.py``): the machine's speed is sampled during
each operation and each set-up, which removes the drift of a shared
machine's speed; the wall times are in the run's detail. Traced passes are
not sampled, so their spans hold wall times only.

Workloads (why each was chosen is also in BENCHMARK.json):

- ``pipeline-100k``: the README CLI pipeline on a 100k-unit planted
  partition. Edge-list parsing, LDG's O(M) scoring per unit, the CSV readers
  and writers and assignment reconstruction do the work; capacity is exact,
  so ``rebalance`` makes no move.
- ``pipeline-lenient-4800``: ``graph``, then ``cluster`` with leniency 0.05,
  then ``assign``, at N=4800. About 200 units land in oversized clusters, so
  the quadratic ``rebalance`` dominates.
- ``power-4k``: the bundled power study (three 4000-unit block models, eight
  interference strengths) with fewer replications: assignment, outcome
  realization on a graph, and the estimator, per replication.
- ``ratio-4k``: the bundled variance-ratio study: the same assignment and
  estimator layers with no graph at all.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import Any, Callable, NoReturn

import numpy as np

import checks
import gen
import spans
import speed

HERE = Path(__file__).resolve().parent

SETUP_REPEATS = 5


@dataclass(frozen=True)
class PipelineSize:
    num_units: int = 100_000
    block_size: int = 100
    num_edges: int = 500_000
    intra_fraction: float = 0.8
    clusters: int = 1000
    iterations: int = 2
    strata: int = 10
    gamma: float = 0.5


@dataclass(frozen=True)
class LenientSize:
    num_blocks: int = 48
    block_size: int = 100
    p_intra: float = 0.08
    p_inter: float = 0.0004
    clusters: int = 48
    leniency: float = 0.05
    iterations: int = 5


@dataclass(frozen=True)
class StudySize:
    replications: int
    # Overrides of the bundled config's block models: (num_blocks, block_size).
    blocks: tuple[int, int] | None = None


@dataclass(frozen=True)
class Sizes:
    pipeline: PipelineSize = PipelineSize()
    lenient: LenientSize = LenientSize()
    power: StudySize = StudySize(replications=20)
    ratio: StudySize = StudySize(replications=2_000)


FULL = Sizes()


class PassFailed(Exception):
    """An operation of the pass failed; later operations would only fail too."""


@dataclass
class Run:
    """Operations attempted and failed in one run, and what tracing saw."""

    tracer: spans.Tracer | None = None
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    # Per CLI command: bytes and data rows read and written (traced pass only).
    io: dict[str, dict[str, int]] = field(default_factory=dict)
    # Wall seconds of the operations of the current pass, less speed sampling.
    wall_s: float = 0.0

    def op(self, label: str, call: Callable[[], Any], check: Callable[[Any], Any]) -> tuple[float, Any]:
        """Time ``call``, then check its result; returns ``(seconds, check
        result)``: seconds at reference speed, or wall seconds when traced."""
        self.attempted += 1
        span = self.tracer.span(label) if self.tracer else contextlib.nullcontext()
        probe = speed.Probe() if self.tracer is None else None
        try:
            with probe or contextlib.nullcontext(), span, contextlib.redirect_stdout(sys.stderr):
                start = time.perf_counter()
                result = call()
                seconds = time.perf_counter() - start
        except Exception as exc:  # the program raised: a failed operation
            self._fail(label, f"raised {exc!r}")
        if probe is not None:
            self.wall_s += seconds - probe.handler_s
            seconds = probe.at_reference_speed(seconds)
        else:
            self.wall_s += seconds
        try:
            return seconds, check(result)
        except (checks.CheckError, OSError, ValueError, KeyError) as exc:
            self._fail(label, f"check failed: {exc}")

    def cli(self, argv: list[str], check: Callable[[], Any]) -> tuple[float, Any]:
        from spilltest import cli

        def exit_ok(code: int) -> Any:
            if code != 0:
                raise checks.CheckError(f"exit code {code}")
            return check()

        argv = [str(a) for a in argv]
        result = self.op(f"cli.{argv[0]}", lambda: cli.main(argv), exit_ok)
        if self.tracer is not None:
            self._count_io(argv)
        return result

    def _fail(self, label: str, message: str) -> NoReturn:
        self.failed += 1
        self.failures.append(f"{label}: {message}")
        raise PassFailed(label)

    def _count_io(self, argv: list[str]) -> None:
        stats = self.io.setdefault(argv[0], dict.fromkeys(spans.IO_COUNTS, 0))
        for flag, value in zip(argv, argv[1:]):
            if not flag.startswith("--") or not os.path.isfile(value):
                continue
            side = "written" if flag.startswith("--out-") else "read"
            data = Path(value).read_bytes()
            stats[f"bytes_{side}"] += len(data)
            if not value.endswith(".json"):
                stats[f"rows_{side}"] += data.count(b"\n") - 1  # less the header line


def derived_seeds(seed: int, count: int) -> list[int]:
    """Independent 31-bit seeds for the program, all from the workload seed."""
    return [int(s) >> 1 for s in np.random.SeedSequence(seed).generate_state(count)]


def timed_setup(root: Path, code: str) -> tuple[list[float], list[float]]:
    """Run ``code`` in fresh interpreters; returns each one's wall seconds
    and its seconds at reference speed.

    The clock starts before ``import spilltest``, so the package's import
    work counts. numpy is imported before it: the speed probe's samples do
    not track numpy's own import, which is not the program's work.
    """
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    prog = (
        f"import sys, time; sys.path.insert(0, {str(HERE)!r}); import numpy, speed\n"
        "with speed.Probe() as _probe:\n"
        "    _t = time.perf_counter()\n"
        + "".join(f"    {line}\n" for line in code.splitlines())
        + "    _wall = time.perf_counter() - _t\n"
        "print(_wall - _probe.handler_s, _probe.at_reference_speed(_wall))"
    )
    wall, scaled = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", prog], cwd=root, env=env, capture_output=True, text=True, timeout=120, check=True
        )
        seconds, at_reference = map(float, done.stdout.strip().splitlines()[-1].split())
        wall.append(seconds)
        scaled.append(at_reference)
    return wall, scaled


def _study_config(fixture: str, seed: int, size: StudySize) -> Any:
    from spilltest.sim import SimConfig

    payload = json.loads(resources.files("spilltest").joinpath("fixtures", fixture).read_text(encoding="utf-8"))
    seeds = derived_seeds(seed, 1 + len(payload["sbm"]))
    payload.update(seed=seeds[0], replications=size.replications, threads=1)
    for spec, spec_seed in zip(payload["sbm"], seeds[1:]):
        spec["seed"] = spec_seed
        if size.blocks is not None:
            spec["num_blocks"], spec["block_size"] = size.blocks
    if size.blocks is not None and payload["num_clusters"]:
        payload["num_clusters"], payload["cluster_size"] = size.blocks
    return SimConfig.from_json(json.dumps(payload))


# ---------------------------------------------------------------------------
# Workloads. Each has prepare (untimed inputs), setup code for a fresh
# process, and one pass returning its phase times in seconds.
# ---------------------------------------------------------------------------


@dataclass
class Pipeline100k:
    size: PipelineSize
    workdir: Path
    seed: int

    def prepare(self) -> None:
        s = self.size
        g_seed, self.cluster_seed, self.strata_seed, self.assign_seed, self.noise_seed = derived_seeds(self.seed, 5)
        self.edges = gen.planted_partition_edges(s.num_units, s.block_size, s.num_edges, s.intra_fraction, g_seed)
        self.edges_path = self.workdir / "graph.edges"
        gen.write_edge_list(self.edges, s.num_units, self.edges_path)

    def setup_code(self) -> str:
        return f"import spilltest\nspilltest.load_edge_list({str(self.edges_path)!r})"

    def run_pass(self, run: Run) -> dict[str, float]:
        s, d = self.size, self.workdir
        clusters, metrics, strata = d / "clusters.csv", d / "metrics.json", d / "strata.csv"
        assignment, counts, outcomes, report = d / "assignment.csv", d / "counts.json", d / "outcomes.csv", d / "report.json"
        t_cluster, self.rho_c = run.cli(
            ["cluster", "--edges", self.edges_path, "--clusters", s.clusters, "--leniency", 0,
             "--iterations", s.iterations, "--seed", self.cluster_seed, "--rebalance",
             "--out-clusters", clusters, "--out-metrics", metrics],
            lambda: checks.check_clustering(clusters, metrics, self.edges, s.num_units, s.clusters),
        )
        t_stratify, _ = run.cli(
            ["stratify", "--edges", self.edges_path, "--clusters-file", clusters, "--strata", s.strata,
             "--seed", self.strata_seed, "--out-strata", strata],
            lambda: checks.check_strata(strata, s.clusters, s.strata),
        )
        t_assign, _ = run.cli(
            ["assign", "--clusters-file", clusters, "--stratification", strata, "--seed", self.assign_seed,
             "--out-assignment", assignment, "--out-counts", counts],
            lambda: checks.check_assignment(assignment, clusters, strata, counts),
        )
        _, treated = checks.read_assignment(assignment)
        y = gen.linear_outcomes(self.edges, s.num_units, treated.astype(np.float64), s.gamma, self.noise_seed)
        gen.write_outcomes(y, outcomes)
        t_analyze, _ = run.cli(
            ["analyze", "--assignment", assignment, "--outcomes", outcomes, "--clusters-file", clusters,
             "--stratification", strata, "--out-report", report],
            lambda: checks.check_report(report, assignment, clusters, strata, outcomes),
        )
        return {"design_s": t_cluster + t_stratify + t_assign, "analyze_s": t_analyze}


@dataclass
class PipelineLenient:
    size: LenientSize
    workdir: Path
    seed: int

    def prepare(self) -> None:
        s = self.size
        g_seed, self.cluster_seed, self.assign_seed = derived_seeds(self.seed, 3)
        self.spec = {"num_blocks": s.num_blocks, "block_size": s.block_size, "p_intra": s.p_intra,
                     "p_inter": s.p_inter, "seed": g_seed}
        self.spec_path = self.workdir / "spec.json"
        self.spec_path.write_text(json.dumps(self.spec), encoding="utf-8")

    def setup_code(self) -> str:
        return (
            "import spilltest\n"
            f"spec = spilltest.SbmSpec.from_json(open({str(self.spec_path)!r}).read())\n"
            "spilltest.generate_sbm(spec)"
        )

    def run_pass(self, run: Run) -> dict[str, float]:
        s, d = self.size, self.workdir
        edges, blocks, meta = d / "graph.edges", d / "blocks.csv", d / "graph.json"
        clusters, metrics = d / "clusters.csv", d / "metrics.json"
        assignment, counts = d / "assignment.csv", d / "counts.json"
        num_units = s.num_blocks * s.block_size
        t_graph, _ = run.cli(
            ["graph", "--spec", self.spec_path, "--out-edges", edges, "--out-clusters", blocks, "--out-meta", meta],
            lambda: checks.check_graph(meta, edges, blocks, self.spec),
        )
        edge_array = np.loadtxt(edges, skiprows=1, dtype=np.int64, ndmin=2)
        t_cluster, self.rho_c = run.cli(
            ["cluster", "--edges", edges, "--clusters", s.clusters, "--leniency", s.leniency,
             "--iterations", s.iterations, "--seed", self.cluster_seed, "--rebalance",
             "--out-clusters", clusters, "--out-metrics", metrics],
            lambda: checks.check_clustering(clusters, metrics, edge_array, num_units, s.clusters),
        )
        t_assign, _ = run.cli(
            ["assign", "--clusters-file", clusters, "--seed", self.assign_seed,
             "--out-assignment", assignment, "--out-counts", counts],
            lambda: checks.check_assignment(assignment, clusters, None, counts),
        )
        return {"design_s": t_graph + t_cluster + t_assign}


@dataclass
class Study:
    """Study calls of a fixed size. Pass ``k`` runs the config with seed
    ``seed + k``: the same graphs and amount of work, fresh replications.
    Each call is checked on the rows of every call so far, pooled."""

    fixture: str
    size: StudySize
    workdir: Path
    seed: int

    def prepare(self) -> None:
        self.cfg = _study_config(self.fixture, self.seed, self.size)
        self.config_path = self.workdir / "study.json"
        self.config_path.write_text(self.cfg.to_json(), encoding="utf-8")
        self.replications = self.cfg.replications * max(1, len(self.cfg.sbm)) * len(self.cfg.gamma_grid)
        self.rows: list = []
        self.calls = 0

    def setup_code(self) -> str:
        load = f"cfg = SimConfig.from_json(open({str(self.config_path)!r}).read())\n"
        if self.cfg.study == "power":
            return "import spilltest\nfrom spilltest.sim import SimConfig\n" + load + "for spec in cfg.sbm: spilltest.generate_sbm(spec)"
        return (
            "import numpy as np\nimport spilltest\nfrom spilltest.sim import SimConfig\n" + load
            + "spilltest.Clustering.from_assignment(np.repeat(np.arange(cfg.num_clusters), cfg.cluster_size))"
        )

    def _check(self, report) -> None:
        self.rows.extend(report.rows)
        pooled = checks.pool_rows(self.rows)
        if self.cfg.study == "power":
            checks.check_power(pooled, self.cfg.alpha)
        else:
            checks.check_ratio(pooled)

    def run_pass(self, run: Run) -> dict[str, float]:
        from spilltest import sim

        cfg = replace(self.cfg, seed=self.cfg.seed + self.calls)
        self.calls += 1
        seconds, _ = run.op("sim.run_study", lambda: sim.run_study(cfg), self._check)
        return {"study_s": seconds}


def make(name: str, workdir: Path, seed: int, sizes: Sizes = FULL):
    if name == "pipeline-100k":
        return Pipeline100k(sizes.pipeline, workdir, seed)
    if name == "pipeline-lenient-4800":
        return PipelineLenient(sizes.lenient, workdir, seed)
    if name == "power-4k":
        return Study("fig1b_desk.json", sizes.power, workdir, seed)
    if name == "ratio-4k":
        return Study("fig1a_desk.json", sizes.ratio, workdir, seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("pipeline-100k", "pipeline-lenient-4800", "power-4k", "ratio-4k")


# Metrics of an untraced run; the same set for every workload.
END_TO_END_UNITS = {"setup_s": "s", "result_s": "s", "peak_rss_mb": "MB"}


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def execute(name: str, seed: int, seconds: float, trace: bool, root: Path, sizes: Sizes = FULL) -> dict:
    """One benchmark run. Returns the result object plus a ``detail`` block.

    Passes repeat until ``seconds`` have passed since the first began. With
    ``trace``, untraced and traced passes alternate, at least one of each;
    the ratio of their median wall times is the tracing overhead, and the
    per-layer metrics are per traced pass.
    """
    workdir = root / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = make(name, workdir, seed, sizes)
        workload.prepare()
        run = Run()
        setup_wall, setup = ([], []) if trace else timed_setup(root, workload.setup_code())
        # Phase times of each pass at reference speed, and each pass's wall time.
        passes: list[dict[str, float]] = []
        walls: list[float] = []
        traced_passes: list[dict[str, float]] = []
        traced_walls: list[float] = []
        tracer = spans.Tracer()
        started = time.perf_counter()
        try:
            while not (traced_passes if trace else passes) or time.perf_counter() - started < seconds:
                run.wall_s = 0.0
                if trace and len(traced_passes) < len(passes):
                    run.tracer = tracer
                    with spans.traced(tracer):
                        traced_passes.append(workload.run_pass(run))
                    run.tracer = None
                    traced_walls.append(run.wall_s)
                else:
                    passes.append(workload.run_pass(run))
                    walls.append(run.wall_s)
        except PassFailed:
            pass
        totals = [sum(p.values()) for p in passes]
        result: dict[str, Any] = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed}
        detail: dict[str, Any] = {"passes": len(passes), "failures": run.failures,
                                  "ops_failed_frac": run.failed / run.attempted}
        if run.failed:
            result["metrics"] = {}
        elif trace:
            # Counters read the passes' files, so this runs before clean-up.
            overhead = statistics.median(traced_walls) / statistics.median(walls) - 1.0
            values = spans.per_layer(tracer, len(traced_walls), sum(traced_walls), overhead,
                                     getattr(workload, "replications", 0), run.io)
            units = spans.metric_units()
            result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        else:
            values = {"setup_s": statistics.median(setup), "result_s": statistics.median(totals),
                      "peak_rss_mb": _peak_rss_mb()}
            result["metrics"] = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
            detail.update(setup_s=setup, result_s=totals, setup_wall_s=setup_wall, result_wall_s=walls)
            for phase in passes[0]:
                detail[phase] = [p[phase] for p in passes]
            if hasattr(workload, "rho_c"):
                detail["rho_c"] = workload.rho_c
            if hasattr(workload, "replications"):
                detail["reps_per_s"] = [workload.replications / p["study_s"] for p in passes]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["detail"] = detail
    return result
