"""Monte Carlo studies: variance-bound tightness, power, and type-I control.

Three study types share one config and report shape:

- ``ratio``: no-interference outcomes with a constant effect, where the
  variance bound is exactly tight in expectation; reports the distribution
  of the bound over its exact design variance.
- ``power``: the linear interference model over a grid of interference
  strengths; reports rejection rates with Monte Carlo error bars.
- ``type1``: no-interference outcomes; reports false-rejection rates under
  both decision rules.

Every study runs the same replication loop, :func:`_replicate`. A study
supplies one function that turns a replication's seed stream into an
assignment and its outcomes; the loop runs the estimator kernel on that one
draw, decides it through ``estimate._decide`` (the step ``analyze`` uses, so
a study counts exactly what ``analyze`` would decide on each draw, and a
non-finite statistic raises), and keeps the gap, the variance bound and both
rules' rejection counts. Only one draw is alive at a time.

Replications derive their seeds from (master seed, study indices), so an
identical config reproduces an identical report bit for bit, regardless of
worker count.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Literal

import numpy as np

from ._errors import ParseError, ValidationError, _is_finite, _is_int
from .assign import DesignCounts, HierarchicalAssignment, hierarchical_assign
from .estimate import _decide, _draw_statistics, theoretical_sutva_variance
from .graph import SbmSpec, generate_sbm, neighborhood_fractions
from .outcomes import LinearInterferenceModel, PotentialTable, realize_linear, realize_sutva
from .partition import Clustering, ldg_restream, rebalance

StudyKind = Literal["ratio", "power", "type1"]


@dataclass(frozen=True)
class SimConfig:
    """One study specification; see module docstring for the study kinds."""

    study: StudyKind
    replications: int
    seed: int
    alpha: float = 0.05
    # Graph / clustering source. Ratio and type1 studies need only the block
    # structure; power studies generate each listed block model once.
    sbm: tuple[SbmSpec, ...] = ()
    clustering_source: Literal["blocks", "ldg"] = "blocks"
    ldg_iterations: int = 10
    ldg_leniency: float = 0.0
    regenerate_graph_per_rep: bool = False
    # Outcome model for power studies.
    baseline: float = 0.0
    direct_effect: float = 1.0
    gamma_grid: tuple[float, ...] = (0.0,)
    noise_sd: float = 1.0
    # No-interference outcome table for ratio/type1 studies. A nonzero
    # effect_unit_sd adds i.i.d. per-unit effect heterogeneity on top of the
    # constant effect.
    num_clusters: int = 0
    cluster_size: int = 0
    constant_effect: float = 1.0
    effect_unit_sd: float = 0.0
    y0_cluster_sd: float = 1.0
    y0_unit_sd: float = 1.0
    # Design counts; None means the symmetric default for the clustering.
    counts: DesignCounts | None = None
    threads: int = 1

    def __post_init__(self) -> None:
        # Annotations are strings here; a JSON config can hold any type.
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and not _is_int(value):
                raise ValidationError(f"study config {f.name}={value!r} is not an integer")
            if f.type == "float" and not _is_finite(value):
                raise ValidationError(f"study config {f.name}={value!r} is not a finite number")
            if f.type == "bool" and not isinstance(value, bool):
                raise ValidationError(f"study config {f.name}={value!r} is not true or false")
        if not all(_is_finite(g) for g in self.gamma_grid):
            raise ValidationError(f"study config gamma_grid={list(self.gamma_grid)!r} holds a non-number")
        if self.clustering_source not in ("blocks", "ldg"):
            raise ValidationError(
                f"study config clustering_source={self.clustering_source!r} is not blocks or ldg"
            )
        if self.seed < 0:
            raise ValidationError(f"study config seed={self.seed} is negative")
        if self.replications < 1:
            raise ValidationError("need at least one replication")
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError("alpha must lie in (0, 1)")
        if self.study == "power" and not self.sbm:
            raise ValidationError("power study needs at least one block-model spec")
        if self.study in ("ratio", "type1") and (self.num_clusters < 2 or self.cluster_size < 1):
            raise ValidationError("ratio/type1 studies need num_clusters and cluster_size")

    def resolved_counts(self, clustering: Clustering) -> DesignCounts:
        if self.counts is not None:
            return self.counts
        return DesignCounts.symmetric(clustering.num_units, clustering.num_clusters)

    def to_json(self) -> str:
        payload = asdict(self)
        payload["sbm"] = [asdict(s) for s in self.sbm]
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SimConfig":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid study config JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ParseError("study config must be a JSON object")
        try:
            payload["sbm"] = tuple(SbmSpec(**s) for s in payload.get("sbm", []))
            if payload.get("counts") is not None:
                payload["counts"] = DesignCounts(**payload["counts"])
            for key in ("gamma_grid",):
                if key in payload:
                    payload[key] = tuple(payload[key])
            return cls(**payload)
        except TypeError as exc:
            raise ValidationError(f"bad study config fields: {exc}") from exc


@dataclass(frozen=True)
class SimRow:
    """One grid point of a study."""

    study: str
    setting: int
    gamma: float
    rho_c: float
    replications: int
    rejection_rate: float
    rejection_rate_gaussian: float
    mc_se: float
    mean_delta: float
    delta_se: float
    mean_sigma_hat_sq: float
    ratio_mean: float
    ratio_q10: float
    ratio_q90: float


@dataclass(frozen=True)
class SimReport:
    """Study output. ``wall_clock_seconds`` is diagnostic only and excluded
    from both serializations so reruns stay bit-identical."""

    config: SimConfig
    rows: tuple[SimRow, ...]
    wall_clock_seconds: float = field(compare=False, default=0.0)

    def to_json(self) -> str:
        payload = {
            "config": json.loads(self.config.to_json()),
            "rows": [asdict(r) for r in self.rows],
        }
        return json.dumps(payload, sort_keys=True)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=[f.name for f in fields(SimRow)], lineterminator="\n")
        writer.writeheader()
        for row in self.rows:
            writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in asdict(row).items()})
        return buf.getvalue()

    def save(self, json_path: str | Path | None = None, csv_path: str | Path | None = None) -> None:
        if json_path is not None:
            Path(json_path).write_text(self.to_json() + "\n", encoding="utf-8")
        if csv_path is not None:
            Path(csv_path).write_text(self.to_csv(), encoding="utf-8")


def _nearest_rank(sorted_values: np.ndarray, q: float) -> float:
    rank = max(1, math.ceil(q * len(sorted_values)))
    return float(sorted_values[rank - 1])


# One replication of a study: its seed stream in, an assignment and its outcomes out.
_Draw = Callable[[np.random.SeedSequence], tuple[HierarchicalAssignment, np.ndarray]]


def _replicate(
    cfg: SimConfig,
    draw: _Draw,
    streams: list[np.random.SeedSequence],
    setting: int = 0,
    gamma: float = 0.0,
    rho_c: float = 0.0,
) -> tuple[SimRow, np.ndarray]:
    """Run one draw per stream, test each with both decision rules, and
    summarize the grid point; also returns the per-draw variance bounds."""
    n = len(streams)
    deltas = np.empty(n)
    bounds = np.empty(n)
    rejections = 0
    rejections_gauss = 0
    for r, stream in enumerate(streams):
        est, bound = _draw_statistics(*draw(stream))
        deltas[r] = est.delta
        bounds[r] = bound
        decision = _decide(est.delta, bound, cfg.alpha)
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


def _sutva_design(cfg: SimConfig) -> tuple[Clustering, DesignCounts, PotentialTable, _Draw, list]:
    """Block clustering, counts, potential table, draw function and
    replication streams of the ratio and type-I studies."""
    clustering = Clustering.from_assignment(np.repeat(np.arange(cfg.num_clusters), cfg.cluster_size))
    counts = cfg.resolved_counts(clustering)
    table_stream, rep_root = np.random.SeedSequence(cfg.seed).spawn(2)
    rng = np.random.default_rng(table_stream)
    cluster_effects = cfg.y0_cluster_sd * rng.standard_normal(clustering.num_clusters)
    y0 = cluster_effects[clustering.assignment] + cfg.y0_unit_sd * rng.standard_normal(
        clustering.num_units
    )
    effects = cfg.constant_effect + cfg.effect_unit_sd * rng.standard_normal(clustering.num_units)
    table = PotentialTable(y1=y0 + effects, y0=y0)

    def draw(stream: np.random.SeedSequence) -> tuple[HierarchicalAssignment, np.ndarray]:
        assignment = hierarchical_assign(clustering, counts, stream)
        return assignment, realize_sutva(table, assignment.treatment)

    return clustering, counts, table, draw, rep_root.spawn(cfg.replications)


def _analysis_clustering(cfg: SimConfig, graph, blocks: Clustering, stream) -> Clustering:
    if cfg.clustering_source == "blocks":
        return blocks
    clustered = ldg_restream(
        graph,
        blocks.num_clusters,
        leniency=cfg.ldg_leniency,
        iterations=cfg.ldg_iterations,
        seed=stream,
    )
    return rebalance(graph, clustered)


def run_ratio_study(cfg: SimConfig) -> SimReport:
    """Distribution of the variance bound over the exact design variance.

    Outcomes follow a constant-effect table, the regime where the bound is
    exactly tight in expectation, so the reference variance is computable in
    closed form (validated against enumeration in the test suite).
    """
    if cfg.study != "ratio":
        raise ValidationError("config is not a ratio study")
    start = time.perf_counter()
    clustering, counts, table, draw, streams = _sutva_design(cfg)
    reference = theoretical_sutva_variance(table, clustering, counts).exact
    if reference <= 0:
        raise ValidationError("reference variance is zero; the ratio is undefined")
    row, bounds = _replicate(cfg, draw, streams)
    ratios = bounds / reference
    ratios_sorted = np.sort(ratios)
    row = replace(
        row,
        rejection_rate=0.0,
        rejection_rate_gaussian=0.0,
        mc_se=float(ratios.std(ddof=1) / math.sqrt(cfg.replications)),
        mean_sigma_hat_sq=float(ratios.mean() * reference),
        ratio_mean=float(ratios.mean()),
        ratio_q10=_nearest_rank(ratios_sorted, 0.10),
        ratio_q90=_nearest_rank(ratios_sorted, 0.90),
    )
    return SimReport(config=cfg, rows=(row,), wall_clock_seconds=time.perf_counter() - start)


def _power_setting_rows(args: tuple[SimConfig, int]) -> list[SimRow]:
    cfg, setting_index = args
    spec = cfg.sbm[setting_index]
    root = np.random.SeedSequence(cfg.seed)
    streams = root.spawn(len(cfg.sbm))
    setting_stream = streams[setting_index]
    cluster_stream, gamma_root = setting_stream.spawn(2)

    graph, blocks = generate_sbm(spec)
    clustering = _analysis_clustering(cfg, graph, blocks, cluster_stream)
    counts = cfg.resolved_counts(clustering)
    rho_c = float(neighborhood_fractions(graph, clustering).mean())

    rows = []
    gamma_streams = gamma_root.spawn(len(cfg.gamma_grid))
    for gi, gamma in enumerate(cfg.gamma_grid):
        model = LinearInterferenceModel(
            alpha=cfg.baseline,
            beta=cfg.direct_effect,
            gamma=gamma,
            noise_sd=cfg.noise_sd,
            graph=graph,
        )

        def draw(stream: np.random.SeedSequence) -> tuple[HierarchicalAssignment, np.ndarray]:
            assign_stream, noise_stream, graph_stream = stream.spawn(3)
            clustering_r, model_r = clustering, model
            if cfg.regenerate_graph_per_rep:
                rep_spec = replace(spec, seed=int(graph_stream.generate_state(1)[0]))
                graph_r, blocks_r = generate_sbm(rep_spec)
                clustering_r = _analysis_clustering(cfg, graph_r, blocks_r, graph_stream)
                model_r = replace(model, graph=graph_r)
            assignment = hierarchical_assign(clustering_r, counts, assign_stream)
            return assignment, realize_linear(model_r, assignment.treatment, seed=noise_stream)

        streams = gamma_streams[gi].spawn(cfg.replications)
        rows.append(_replicate(cfg, draw, streams, setting_index, gamma, rho_c)[0])
    return rows


def run_power_study(cfg: SimConfig) -> SimReport:
    """Rejection rate of the interference test under the linear model.

    Each block-model setting generates one graph; assignments, noise, and
    the decision re-randomize across replications.
    """
    if cfg.study != "power":
        raise ValidationError("config is not a power study")
    start = time.perf_counter()
    tasks = [(cfg, i) for i in range(len(cfg.sbm))]
    if cfg.threads > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(cfg.threads, len(tasks))) as pool:
            chunks = list(pool.map(_power_setting_rows, tasks))
    else:
        chunks = [_power_setting_rows(t) for t in tasks]
    rows = tuple(row for chunk in chunks for row in chunk)
    return SimReport(config=cfg, rows=rows, wall_clock_seconds=time.perf_counter() - start)


def run_type1_study(cfg: SimConfig) -> SimReport:
    """False-rejection rates under no interference, for both decision rules."""
    if cfg.study != "type1":
        raise ValidationError("config is not a type1 study")
    start = time.perf_counter()
    *_, draw, streams = _sutva_design(cfg)
    row, _ = _replicate(cfg, draw, streams)
    return SimReport(config=cfg, rows=(row,), wall_clock_seconds=time.perf_counter() - start)


def run_study(cfg: SimConfig) -> SimReport:
    """Dispatch on ``cfg.study``."""
    if cfg.study == "ratio":
        return run_ratio_study(cfg)
    if cfg.study == "power":
        return run_power_study(cfg)
    if cfg.study == "type1":
        return run_type1_study(cfg)
    raise ValidationError(f"unknown study {cfg.study!r}")
