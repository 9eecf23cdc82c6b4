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

Every study runs the same replication loop, :func:`_replicate`. The loop
cuts the replications into stacks of a few consecutive draws (as many as fit
a 256 KiB float array of outcomes, 8 at N = 4000, at least one). Each grid
point allocates one set of stack buffers, the units' arms, treatments and
outcomes of one stack. Each stack draws from one generator of its own: the
loop makes one ``hierarchical_assign`` call per replication on it, in row
order, and writes the draw's two vectors into its row, in place; a study
supplies only a function that returns the stack's outcome rows, from one
call of its outcome model on the stack's treatment rows and the stack's
generator. A ratio or type1 study selects them with one ``realize_sutva``
call and draws nothing; a power study draws them with one ``realize_linear``
call, whose neighbor counts come from one lane-packed pass over the graph,
and whose noise the stack's generator draws after the stack's assignments.
The loop runs the estimator kernel, ``estimate._estimate_rows``, once on the
written rows with the design's counts, and then decides each draw in
replication order through ``estimate._decide`` with the rounding floor of
its outcomes, as ``analyze`` decides its one draw. So a study counts exactly
what ``analyze`` would decide on each draw, and a non-finite statistic
raises. The loop keeps the gaps, the variance bounds and both rules'
rejection counts.

Replications derive their seeds from (master seed, study indices, stack
index): stack k's generator is seeded with child k of the grid point's
replication root, the child ``SeedSequence.spawn`` would number k, built
without spawning the others; it draws the stack's assignments and then its
noise. So an identical config reproduces an identical report bit for bit,
regardless of worker count, and the draws of a stack do not depend on how
many replications follow it. They do depend on the stack height, which the
unit count sets (see ``_STACK_BYTES``): the same config at another N, or
another ``_STACK_BYTES``, cuts the draws into other stacks. The worker pool
is imported only when a power study of more than one block model asks for
more than one worker, so importing this module loads no process machinery.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import time
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable, Literal, get_args

import numpy as np

from ._errors import ValidationError, build_record, check_fields, check_seed, read_json
from .assign import DesignCounts, hierarchical_assign
from .estimate import _decide, _estimate_rows, _rounding_floor, theoretical_sutva_variance
from .graph import _MAX_UNITS_PLUS_EDGES, SbmSpec, generate_sbm, neighborhood_fractions
from .outcomes import LinearInterferenceModel, PotentialTable, realize_linear, realize_sutva
from .partition import Clustering

StudyKind = Literal["ratio", "power", "type1"]

# The fields only a power study reads, and those only a ratio or type1 study
# reads; a study refuses a non-default value in a field it does not read.
# Only a power study's block models go to worker processes, so only it reads
# ``threads``.
_POWER_FIELDS = ("sbm", "baseline", "direct_effect", "gamma_grid", "noise_sd", "threads")
_TABLE_FIELDS = (
    "num_clusters", "cluster_size", "constant_effect", "effect_unit_sd", "y0_cluster_sd", "y0_unit_sd"
)


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
        check_fields(self, "study config")
        if self.study not in get_args(StudyKind):
            raise ValidationError(f"unknown study {self.study!r}")
        check_seed(self.seed, "study config seed")
        # A study reports the spread of its draws, which one draw lacks.
        if self.replications < 2:
            raise ValidationError(f"study config replications={self.replications} is below 2")
        # Each replication keeps a gap and a bound, so the count is bounded
        # as a study's units are.
        if self.replications > _MAX_UNITS_PLUS_EDGES:
            raise ValidationError(
                f"refusing a study of {self.replications} replications (limit {_MAX_UNITS_PLUS_EDGES})"
            )
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError("alpha must lie in (0, 1)")
        if self.threads < 1:
            raise ValidationError(f"study config threads={self.threads} is below 1")
        defaults = {f.name: f.default for f in fields(self)}
        for name in _TABLE_FIELDS if self.study == "power" else _POWER_FIELDS:
            value = getattr(self, name)
            if (tuple(value) if isinstance(value, list) else value) != defaults[name]:
                raise ValidationError(f"a {self.study} study does not read {name}={value!r}")
        if self.study == "power" and not self.sbm:
            raise ValidationError("power study needs at least one block-model spec")
        if self.study == "power" and not self.gamma_grid:
            raise ValidationError("power study needs at least one gamma in gamma_grid")
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
    def from_json(cls, text: str | bytes) -> "SimConfig":
        payload = read_json(text, "study config")
        specs = payload.get("sbm", [])
        if not isinstance(specs, list):
            raise ValidationError(f"study config sbm={specs!r} is not a list of block-model specs")
        payload["sbm"] = tuple(build_record(SbmSpec, spec, "block-model spec") for spec in specs)
        if payload.get("counts") is not None:
            payload["counts"] = build_record(DesignCounts, payload["counts"], "design counts")
        return build_record(cls, payload, "study config")


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


# A stack of draws is realized and goes to the estimator kernel in one call.
# Its height is the number of (R, N) float rows that fit in this many bytes,
# at least one: 8 rows at N = 4000. A grid point allocates the buffers of
# one stack (about 0.3 MB at N = 4000, with the assignment vectors) and
# rewrites them; each kernel call adds its own temporaries, such as the
# rows' offset cluster ids. Taller stacks ran no faster and raised peak
# memory.
_STACK_BYTES = 2**18


def _replicate(
    cfg: SimConfig,
    clustering: Clustering,
    counts: DesignCounts,
    root: np.random.SeedSequence,
    outcomes: Callable[[np.ndarray, np.random.Generator], np.ndarray],
    setting: int = 0,
    gamma: float = 0.0,
    rho_c: float = 0.0,
) -> tuple[SimRow, np.ndarray]:
    """Draw ``cfg.replications`` assignments, test each draw with both
    decision rules, and summarize the grid point; also returns the per-draw
    variance bounds.

    The loop allocates one stack of buffers (see ``_STACK_BYTES``). Stack k
    draws from one generator, seeded with child k of ``root``; its
    ``hierarchical_assign`` draws are written into its rows in order, then
    ``outcomes(z, rng)`` returns the outcome rows of the treatment rows
    ``z``, drawing any noise from the stack's generator ``rng``, and one
    kernel call estimates the written rows with the design's counts,
    refusing a draw of other counts. The draws are then decided in
    replication order, each as ``analyze`` would.
    """
    n = cfg.replications
    deltas = np.empty(n)
    bounds = np.empty(n)
    rejections = 0
    rejections_gauss = 0
    height = max(1, _STACK_BYTES // (8 * clustering.num_units))
    rows = (height, clustering.num_units)
    unit_arm, treatment, y = np.empty(rows, dtype=np.int8), np.empty(rows, dtype=np.int8), np.empty(rows)
    for k, first in enumerate(range(0, n, height)):
        h = min(height, n - first)
        # One generator per stack, not three spawned streams and generators
        # per draw: at M = 200, N = 4000 a draw took 75 us against 101 us
        # with them (numpy 2.4.6, one Xeon core).
        rng = np.random.default_rng(np.random.SeedSequence(root.entropy, spawn_key=(*root.spawn_key, k)))
        for r in range(h):
            a = hierarchical_assign(clustering, counts, rng)
            unit_arm[r], treatment[r] = a.unit_arm, a.treatment
        y[:h] = outcomes(treatment[:h], rng)
        tau_cr, tau_cbr, sigma_hat_sq = _estimate_rows(clustering, counts, unit_arm[:h], treatment[:h], y[:h])
        estimates = zip(tau_cr.tolist(), tau_cbr.tolist(), sigma_hat_sq.tolist(), _rounding_floor(y[:h]).tolist())
        for r, (t_cr, t_cbr, bound, floor) in enumerate(estimates, first):
            delta = t_cr - t_cbr
            deltas[r] = delta
            bounds[r] = bound
            decision = _decide(delta, bound, cfg.alpha, floor)
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


def _sutva_design(
    cfg: SimConfig,
) -> tuple[Clustering, DesignCounts, PotentialTable, Callable, np.random.SeedSequence]:
    """Block clustering, counts, potential table, outcome function and
    replication root of the ratio and type-I studies."""
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

    def outcomes(z: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return realize_sutva(table, z)

    return clustering, counts, table, outcomes, rep_root


def _power_setting_rows(args: tuple[SimConfig, int]) -> list[SimRow]:
    cfg, setting_index = args
    # Child ``setting_index`` of the master seed is the setting's stream, and
    # its child 1 roots the gamma streams; its child 0 is left unused. Each
    # gamma's stream is its grid point's replication root.
    gamma_root = np.random.SeedSequence(cfg.seed, spawn_key=(setting_index, 1))

    graph, clustering = generate_sbm(cfg.sbm[setting_index])
    counts = cfg.resolved_counts(clustering)
    rho_c = float(neighborhood_fractions(graph, clustering).mean())

    rows = []
    for gamma, rep_root in zip(cfg.gamma_grid, gamma_root.spawn(len(cfg.gamma_grid))):
        model = LinearInterferenceModel(
            alpha=cfg.baseline,
            beta=cfg.direct_effect,
            gamma=gamma,
            noise_sd=cfg.noise_sd,
            graph=graph,
        )
        outcomes = functools.partial(realize_linear, model)
        rows.append(_replicate(cfg, clustering, counts, rep_root, outcomes, setting_index, gamma, rho_c)[0])
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
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=min(cfg.threads, len(tasks))) as pool:
                chunks = list(pool.map(_power_setting_rows, tasks))
        else:
            chunks = [_power_setting_rows(t) for t in tasks]
        rows = tuple(row for chunk in chunks for row in chunk)
        return SimReport(config=cfg, rows=rows, wall_clock_seconds=time.perf_counter() - start)

    clustering, counts, table, outcomes, root = _sutva_design(cfg)
    if cfg.study == "ratio":
        reference = theoretical_sutva_variance(table, clustering, counts)
        if reference <= 0:
            raise ValidationError("reference variance is zero; the ratio is undefined")
    row, bounds = _replicate(cfg, clustering, counts, root, outcomes)
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
