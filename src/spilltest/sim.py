"""Monte Carlo studies: variance-bound tightness, power, and type-I control.

Three study types share one config, one report shape and one runner,
:func:`run_study`:

- ``type1``: no-interference outcomes; reports false-rejection rates under
  both decision rules.
- ``ratio``: the ``type1`` draws of a constant-effect table, where the
  variance bound is exactly tight in expectation. Its row carries the same
  false-rejection rates plus the distribution of the bound over its exact
  design variance; its ``mc_se`` is the standard error of ``ratio_mean``.
- ``power``: the linear interference model over a grid of interference
  strengths; reports rejection rates with Monte Carlo error bars.

As in the paper, each study tests one fixed design: a power study generates
each of its block models once and analyzes it under that model's block
clustering, and the other two use ``num_clusters`` blocks of
``cluster_size`` units. Replications re-draw only the assignment and the
noise.

Every study runs the same replication loop, :func:`_replicate`. A study
supplies one function that turns a replication's seed stream into an
assignment and its outcomes. The loop gathers a few consecutive draws into a
stack (as many as fit a 256 KiB float array of outcomes, 8 at N = 4000, at
least one), runs the estimator kernel once on the stack through
``estimate._estimate_draws``, and then decides each draw in stream order
through ``estimate._decide``; ``analyze`` uses both steps too. Each draw's
gap and bound are those of the kernel on that draw alone, so a study counts
exactly what ``analyze`` would decide on each draw, and a non-finite
statistic raises. The loop keeps the gaps, the variance bounds and both
rules' rejection counts; at most one stack of draws is alive at a time.

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
from typing import Callable, Literal, get_args

import numpy as np

from ._errors import ParseError, ValidationError, _is_finite, _is_int
from .assign import DesignCounts, HierarchicalAssignment, hierarchical_assign
from .estimate import _decide, _estimate_draws, theoretical_sutva_variance
from .graph import _MAX_UNITS_PLUS_EDGES, SbmSpec, generate_sbm, neighborhood_fractions
from .outcomes import LinearInterferenceModel, PotentialTable, realize_linear, realize_sutva
from .partition import Clustering

StudyKind = Literal["ratio", "power", "type1"]


@dataclass(frozen=True)
class SimConfig:
    """One study specification; see module docstring for the study kinds."""

    study: StudyKind
    replications: int
    seed: int
    alpha: float = 0.05
    # Block models of a power study. Each is generated once and analyzed
    # under its own block clustering.
    sbm: tuple[SbmSpec, ...] = ()
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
        if not all(_is_finite(g) for g in self.gamma_grid):
            raise ValidationError(f"study config gamma_grid={list(self.gamma_grid)!r} holds a non-number")
        if self.study not in get_args(StudyKind):
            raise ValidationError(f"unknown study {self.study!r}")
        if self.seed < 0:
            raise ValidationError(f"study config seed={self.seed} is negative")
        # A study reports the spread of its draws, which one draw lacks.
        if self.replications < 2:
            raise ValidationError(f"study config replications={self.replications} is below 2")
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError("alpha must lie in (0, 1)")
        if self.study == "power" and not self.sbm:
            raise ValidationError("power study needs at least one block-model spec")
        if self.study in ("ratio", "type1") and (self.num_clusters < 2 or self.cluster_size < 1):
            raise ValidationError("ratio/type1 studies need num_clusters and cluster_size")
        if self.study in ("ratio", "type1") and self.num_clusters * self.cluster_size > _MAX_UNITS_PLUS_EDGES:
            raise ValidationError(
                f"refusing a study of {self.num_clusters * self.cluster_size} units "
                f"(limit {_MAX_UNITS_PLUS_EDGES})"
            )

    def resolved_counts(self, clustering: Clustering) -> DesignCounts:
        if self.counts is not None:
            return self.counts
        return DesignCounts.symmetric(clustering.num_units, clustering.num_clusters)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

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
    """One grid point of a study.

    ``rejection_rate`` and ``rejection_rate_gaussian`` are the shares of draws
    each decision rule rejects, in every study kind; a ratio row keeps them
    too. ``mc_se`` is the Monte Carlo standard error of ``rejection_rate``,
    except in a ratio row, where it is that of ``ratio_mean``.
    """

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

    def to_dict(self) -> dict:
        return {"config": asdict(self.config), "rows": [asdict(r) for r in self.rows]}

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=[f.name for f in fields(SimRow)], lineterminator="\n")
        writer.writeheader()
        for row in self.rows:
            writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in asdict(row).items()})
        return buf.getvalue()


def _nearest_rank(sorted_values: np.ndarray, q: float) -> float:
    rank = max(1, math.ceil(q * len(sorted_values)))
    return float(sorted_values[rank - 1])


# One replication of a study: its seed stream in, an assignment and its outcomes out.
_Draw = Callable[[np.random.SeedSequence], tuple[HierarchicalAssignment, np.ndarray]]


# A stack of draws goes to the estimator kernel in one call. Its height is
# the number of (R, N) float rows that fit in this many bytes, at least one:
# 8 rows at N = 4000. Taller stacks ran no faster and raised peak memory.
_STACK_BYTES = 2**18


def _replicate(
    cfg: SimConfig,
    draw: _Draw,
    streams: list[np.random.SeedSequence],
    setting: int = 0,
    gamma: float = 0.0,
    rho_c: float = 0.0,
) -> tuple[SimRow, np.ndarray]:
    """Run one draw per stream, test each with both decision rules, and
    summarize the grid point; also returns the per-draw variance bounds.

    Consecutive draws share one kernel call (see ``_STACK_BYTES``) and are
    then decided one by one in stream order, each exactly as ``analyze``
    would decide it alone.
    """
    n = len(streams)
    deltas = np.empty(n)
    bounds = np.empty(n)
    rejections = 0
    rejections_gauss = 0
    height = 1
    stack: list[tuple[HierarchicalAssignment, np.ndarray]] = []
    decided = 0
    for r, stream in enumerate(streams):
        stack.append(draw(stream))
        if r == 0:
            height = max(1, _STACK_BYTES // (8 * stack[0][0].clustering.num_units))
        if len(stack) < height and r + 1 < n:
            continue
        for _, _, delta, bound in _estimate_draws(stack):
            deltas[decided] = delta
            bounds[decided] = bound
            decision = _decide(delta, bound, cfg.alpha)
            rejections += decision.reject_chebyshev
            rejections_gauss += decision.reject_gaussian
            decided += 1
        stack = []
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


def _power_setting_rows(args: tuple[SimConfig, int]) -> list[SimRow]:
    cfg, setting_index = args
    # Child ``setting_index`` of the master seed is the setting's stream, and
    # its child 1 roots the gamma streams; its child 0 is left unused.
    gamma_root = np.random.SeedSequence(cfg.seed, spawn_key=(setting_index, 1))

    graph, clustering = generate_sbm(cfg.sbm[setting_index])
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
            assign_stream, noise_stream = stream.spawn(2)
            assignment = hierarchical_assign(clustering, counts, assign_stream)
            return assignment, realize_linear(model, assignment.treatment, seed=noise_stream)

        streams = gamma_streams[gi].spawn(cfg.replications)
        rows.append(_replicate(cfg, draw, streams, setting_index, gamma, rho_c)[0])
    return rows


def run_study(cfg: SimConfig) -> SimReport:
    """Run the study ``cfg.study`` names; see the module docstring.

    A power study generates one graph per block-model setting, over up to
    ``cfg.threads`` worker processes; assignments, noise, and the decision
    re-randomize across replications. Ratio and type-I studies draw from one
    no-interference table. A ratio study also divides each draw's bound by
    the table's exact design variance, computable in closed form
    (validated against enumeration in the test suite).
    """
    start = time.perf_counter()
    if cfg.study == "power":
        tasks = [(cfg, i) for i in range(len(cfg.sbm))]
        if cfg.threads > 1 and len(tasks) > 1:
            with ProcessPoolExecutor(max_workers=min(cfg.threads, len(tasks))) as pool:
                chunks = list(pool.map(_power_setting_rows, tasks))
        else:
            chunks = [_power_setting_rows(t) for t in tasks]
        rows = tuple(row for chunk in chunks for row in chunk)
        return SimReport(config=cfg, rows=rows, wall_clock_seconds=time.perf_counter() - start)

    clustering, counts, table, draw, streams = _sutva_design(cfg)
    if cfg.study == "ratio":
        reference = theoretical_sutva_variance(table, clustering, counts)
        if reference <= 0:
            raise ValidationError("reference variance is zero; the ratio is undefined")
    row, bounds = _replicate(cfg, draw, streams)
    if cfg.study == "ratio":
        ratios = bounds / reference
        ratios_sorted = np.sort(ratios)
        row = replace(
            row,
            mc_se=float(ratios.std(ddof=1) / math.sqrt(cfg.replications)),
            mean_sigma_hat_sq=float(ratios.mean() * reference),
            ratio_mean=float(ratios.mean()),
            ratio_q10=_nearest_rank(ratios_sorted, 0.10),
            ratio_q90=_nearest_rank(ratios_sorted, 0.90),
        )
    return SimReport(config=cfg, rows=(row,), wall_clock_seconds=time.perf_counter() - start)
