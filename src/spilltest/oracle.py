"""Exact brute-force verification of design moments on small problems.

Everything here trades scale for exactness: designs are enumerated outcome
by outcome (uniform law, compensated summation), so expectations and
variances carry no Monte Carlo error and can pin down the analytical
formulas to near machine precision.

The named checks in :data:`CHECKS` pair each closed form with this
enumeration on one :class:`OracleDesign`, read by :func:`load_design`; they
back the ``spilltest oracle`` command, and the test suite runs them too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable, Literal, NamedTuple, get_args

import numpy as np

from ._errors import CheckFailure, ValidationError, build_record, check_fields, check_seed, read_json
from .assign import ARM_CR, DesignCounts, _encode, _require_balanced
from .estimate import (
    _contrast,
    _decide,
    _estimate_rows,
    _rounding_floor,
    expected_cluster_estimate_linear,
    expected_delta_linear,
    expected_diff_in_means_linear,
    fisher_null_variance,
    theoretical_sutva_variance,
)
from .graph import Graph
from .outcomes import LinearInterferenceModel, PotentialTable, realize_linear, realize_sutva
from .partition import Clustering

# The most cells (draws times units) one enumeration may hold. An
# enumeration peaks at about 37 bytes per cell (RSS of enumerate_hierarchical
# on 8 clusters of 3, 92,400 draws), so a call at the cap peaks near 1.1 GB.
ENUMERATION_CAP = 30_000_000

OutcomeSource = PotentialTable | LinearInterferenceModel

Statistic = Literal["delta", "tau_cr", "tau_cbr", "sigma_hat_sq", "reject"]


@dataclass(frozen=True)
class ExactMoments:
    mean: float
    variance: float
    count: int


def _fsum_moments(values: np.ndarray) -> ExactMoments:
    count = len(values)
    mean = math.fsum(values) / count
    var = math.fsum((v - mean) ** 2 for v in values.tolist()) / count
    return ExactMoments(mean=mean, variance=var, count=count)


def _check_cap(draws: int, num_units: int) -> None:
    cells = draws * num_units
    if cells > ENUMERATION_CAP:
        raise ValidationError(
            f"enumeration would visit {draws} outcomes of {num_units} units, {cells} cells "
            f"(cap {ENUMERATION_CAP} cells)"
        )


def _subset_matrix(n: int, k: int) -> np.ndarray:
    """All ``C(n, k)`` indicator rows in lexicographic order."""
    rows = math.comb(n, k)
    out = np.zeros((rows, n), dtype=np.int8)
    for r, combo in enumerate(combinations(range(n), k)):
        out[r, list(combo)] = 1
    return out


def _realize(outcomes: OutcomeSource, z_rows: np.ndarray) -> np.ndarray:
    """Outcome matrix for every assignment row, from one stacked call of the
    shipped outcome model; a linear model must be noise-free."""
    if isinstance(outcomes, PotentialTable):
        return realize_sutva(outcomes, z_rows)
    if outcomes.noise_sd != 0.0:
        raise ValidationError("enumeration requires a noise-free outcome model")
    return realize_linear(outcomes, z_rows)


def hierarchical_outcome_count(counts: DesignCounts) -> int:
    return (
        math.comb(counts.num_clusters, counts.m_cr)
        * math.comb(counts.n_cr, counts.n_cr_t)
        * math.comb(counts.m_cbr, counts.m_cbr_t)
    )


def enumerate_hierarchical_assignments(clustering: Clustering, counts: DesignCounts) -> tuple[np.ndarray, np.ndarray]:
    """``(unit_arm, treatment)`` of every draw of the two-arm design, one row
    per equiprobable outcome, in deterministic lexicographic order.

    The three randomizations of every draw are enumerated, and
    ``assign._encode`` writes their assignment vectors, as it does for a
    random draw.
    """
    _require_balanced(clustering, counts)
    total = hierarchical_outcome_count(counts)
    _check_cap(total, counts.num_units)
    arms = _subset_matrix(counts.num_clusters, counts.m_cr)
    cr = _subset_matrix(counts.n_cr, counts.n_cr_t)
    cbr = _subset_matrix(counts.m_cbr, counts.m_cbr_t)
    a, u, c = len(arms), len(cr), len(cbr)
    return _encode(
        clustering,
        np.repeat(arms, u * c, axis=0),
        np.tile(np.repeat(cr, c, axis=0), (a, 1)),
        np.tile(cbr, (a * u, 1)),
    )


def _hierarchical_statistic_rows(
    outcomes: OutcomeSource, clustering: Clustering, counts: DesignCounts, statistic: Statistic, alpha: float
) -> np.ndarray:
    """The statistic on every enumerated draw, computed by the shipped estimator."""
    if statistic not in get_args(Statistic):
        raise ValidationError(f"unknown statistic {statistic!r}")
    unit_arm, treatment = enumerate_hierarchical_assignments(clustering, counts)
    y = _realize(outcomes, treatment)
    bound = statistic in ("sigma_hat_sq", "reject")
    tau_cr, tau_cbr, sigma = _estimate_rows(clustering, counts, unit_arm, treatment, y, bound)
    delta = tau_cr - tau_cbr
    if statistic == "reject":
        decisions = zip(delta.tolist(), sigma.tolist(), _rounding_floor(y).tolist())
        return np.array([float(_decide(d, s, alpha, floor).reject_chebyshev) for d, s, floor in decisions])
    return {"tau_cr": tau_cr, "tau_cbr": tau_cbr, "delta": delta, "sigma_hat_sq": sigma}[statistic]


def enumerate_hierarchical(
    outcomes: OutcomeSource,
    clustering: Clustering,
    counts: DesignCounts,
    statistic: Statistic = "delta",
    alpha: float = 0.05,
) -> ExactMoments:
    """Exact mean and variance of ``statistic`` over every equiprobable draw
    of the two-arm design; ``reject`` is the Chebyshev verdict at ``alpha``.
    The outcome model must be noise-free."""
    return _fsum_moments(_hierarchical_statistic_rows(outcomes, clustering, counts, statistic, alpha))


def enumerate_complete(outcomes: OutcomeSource, n_t: int) -> ExactMoments:
    """Exact mean and variance of the difference in means over every draw of
    ``n_t`` treated units, computed by the shipped arm contrast."""
    n = outcomes.num_units
    if not 1 <= n_t <= n - 1:
        raise ValidationError("complete design needs 1 <= n_t <= N-1")
    _check_cap(math.comb(n, n_t), n)
    z_rows = _subset_matrix(n, n_t)
    treated = z_rows.astype(bool)
    diff, _ = _contrast(_realize(outcomes, z_rows), treated, ~treated, n_t, n - n_t, bound=False)
    return _fsum_moments(diff)


def enumerate_cluster(outcomes: OutcomeSource, clustering: Clustering, m_t: int) -> ExactMoments:
    """Exact mean and variance of the scaled cluster-total contrast over
    every draw of ``m_t`` treated clusters, computed by the shipped arm
    contrast over the shipped cluster totals."""
    m, n = clustering.num_clusters, clustering.num_units
    if not 1 <= m_t <= m - 1:
        raise ValidationError("cluster design needs 1 <= m_t <= M-1")
    _check_cap(math.comb(m, m_t), n)
    zc_rows = _subset_matrix(m, m_t)
    y_rows = _realize(outcomes, zc_rows[:, clustering.assignment])
    treated = zc_rows.astype(bool)
    y_plus = clustering.cluster_sums(y_rows)
    diff, _ = _contrast(y_plus, treated, ~treated, m_t, m - m_t, bound=False)
    return _fsum_moments((m / n) * diff)


def binomial_negative_moment(n: int, p: float) -> float:
    """Exact ``E[1 / eta_t]`` for a Binomial(n, p) conditioned off {0, n}.

    Direct probability-mass summation over the re-randomized law
    ``P(eta_t = k) = p_k / (1 - p^n - (1-p)^n)``.
    """
    if n < 2:
        raise ValidationError("need n >= 2")
    if not 0.0 < p < 1.0:
        raise ValidationError("p must lie strictly inside (0, 1)")
    degenerate = p**n + (1.0 - p) ** n
    terms = [
        math.comb(n, k) * p**k * (1.0 - p) ** (n - k) / k for k in range(1, n)
    ]
    return math.fsum(terms) / (1.0 - degenerate)


@dataclass(frozen=True)
class VarianceGap:
    """Exact variances of the difference-in-means under both simple designs."""

    var_bernoulli: float
    var_complete: float
    gap: float
    bound: float


def bernoulli_vs_cr_variance_gap(table: PotentialTable, n_t: int) -> VarianceGap:
    """Enumerate both laws exactly and check the variance gap bound.

    The complete design fixes ``n_t`` treated; the re-randomized Bernoulli
    design flips fair-odds coins with ``p = n_t / N`` and rejects degenerate
    draws. Both laws' differences in means are the shipped arm contrast.
    Raises :class:`CheckFailure` if the gap exceeds
    ``5 * (S_t / n_t**2 + S_c / n_c**2)``.
    """
    n = table.num_units
    if n > 20:
        raise ValidationError("full Bernoulli enumeration supports N <= 20")
    if not 1 <= n_t <= n - 1:
        raise ValidationError("n_t must leave both groups non-empty")
    p = n_t / n
    degenerate = p**n + (1.0 - p) ** n
    if degenerate > 1.0 / n**2:
        raise ValidationError(
            f"degenerate-draw mass {degenerate:.3g} exceeds 1/N^2; the gap bound needs "
            f"p^N + (1-p)^N <= {1.0 / n**2:.3g}"
        )

    cr_moments = enumerate_complete(table, n_t)

    codes = np.arange(2**n, dtype=np.uint32)
    bits = ((codes[:, None] >> np.arange(n)[None, :]) & 1).astype(np.int8)
    k = bits.sum(axis=1)
    keep = (k > 0) & (k < n)
    bits, k = bits[keep], k[keep]
    log_w = k * math.log(p) + (n - k) * math.log(1.0 - p)
    weights = np.exp(log_w) / (1.0 - degenerate)
    # The draws with one treated count are that complete design's draws, so
    # the shipped arm contrast estimates each count's rows in one call.
    y = _realize(table, bits)
    treated = bits.astype(bool)
    tau_br = np.empty(len(k))
    for count in range(1, n):
        rows = k == count
        tau_br[rows], _ = _contrast(y[rows], treated[rows], ~treated[rows], count, n - count, bound=False)
    mean_br = math.fsum((weights * tau_br).tolist())
    var_br = math.fsum((weights * (tau_br - mean_br) ** 2).tolist())

    s_t = float(np.var(table.y1, ddof=1))
    s_c = float(np.var(table.y0, ddof=1))
    bound = 5.0 * (s_t / n_t**2 + s_c / (n - n_t) ** 2)
    gap = abs(var_br - cr_moments.variance)
    if gap > bound:
        raise CheckFailure(
            f"variance gap {gap:.6g} exceeds the bound {bound:.6g} (N={n}, n_t={n_t})"
        )
    return VarianceGap(
        var_bernoulli=var_br, var_complete=cr_moments.variance, gap=gap, bound=bound
    )


# ---------------------------------------------------------------------------
# Named checks: each recomputes a formula-side value and an enumeration-side
# value by independent routes and compares them at a stated tolerance.
# ---------------------------------------------------------------------------

EXACT_TOL = 1e-12
VARIANCE_TOL = 1e-10


class OracleDesign(NamedTuple):
    """One small design that every check reads."""

    graph: Graph
    clustering: Clustering
    counts: DesignCounts
    model: LinearInterferenceModel
    table: PotentialTable


@dataclass(frozen=True)
class _DesignFile:
    """The keys of a design file, as decoded."""

    clustering: list
    edges: list
    counts: dict
    model: dict
    table_seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self, "design")
        check_seed(self.table_seed, "design table_seed")


def load_design(path: str | Path) -> OracleDesign:
    """Read a design JSON object.

    Its keys are ``clustering`` (one cluster id per unit), ``edges`` (unit-id
    pairs), ``counts`` (the :class:`DesignCounts` fields), ``model`` (the
    :class:`LinearInterferenceModel` fields other than the graph; the checks
    enumerate it, so its ``noise_sd`` must be 0) and an optional
    ``table_seed`` (a non-negative integer, default 0), which draws the
    potential table. Any other key is refused.

    Raises:
        ValidationError: Naming the file and what is wrong with it.
    """
    data = Path(path).read_bytes()
    try:
        design = build_record(_DesignFile, read_json(data, "design"), "design")
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    try:
        clustering = Clustering.from_assignment(_json_ints(design.clustering, "clustering"))
        graph = Graph.from_edges(clustering.num_units, _json_ints(design.edges, "edges"))
        counts = build_record(DesignCounts, design.counts, "design counts")
        model = build_record(LinearInterferenceModel, design.model, "design model", graph=graph)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: bad design: {exc}") from exc
    if model.noise_sd != 0.0:
        raise ValidationError(
            f"{path}: bad design: model noise_sd={model.noise_sd!r}; the checks enumerate a noise-free model"
        )
    rng = np.random.default_rng(design.table_seed)
    table = PotentialTable(
        y1=rng.normal(size=clustering.num_units), y0=rng.normal(size=clustering.num_units)
    )
    return OracleDesign(graph, clustering, counts, model, table)


def _json_ints(value, name: str) -> np.ndarray:
    """A JSON list (of lists) of integers as an int64 array."""
    arr = np.asarray(value)
    if arr.size == 0:
        return arr.astype(np.int64)
    if arr.dtype.kind not in "iu":
        raise ValidationError(f"{name} must hold integers only")
    return arr.astype(np.int64)


def _result(name: str, passed: bool, detail: str, values: dict) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail, "values": values}


def _bound_capable(counts: DesignCounts) -> bool:
    return min(counts.n_cr_t, counts.n_cr_c, counts.m_cbr_t, counts.m_cbr_c) >= 2


def _fallback_bound_design() -> tuple[Clustering, DesignCounts]:
    # Smallest layout where every variance bucket holds >= 2 members.
    clustering = Clustering.from_assignment(np.repeat(np.arange(6), 2))
    counts = DesignCounts(
        n_cr=4, n_cbr=8, m_cr=2, m_cbr=4, n_cr_t=2, n_cr_c=2, m_cbr_t=2, m_cbr_c=2
    )
    return clustering, counts


def check_means(design: OracleDesign) -> dict:
    """Both arm estimators are exactly unbiased and their gap is mean zero."""
    clustering, table = design.clustering, design.table
    tau = float(np.mean(table.y1 - table.y0))
    cr = enumerate_complete(table, table.num_units // 2)
    cbr = enumerate_cluster(table, clustering, clustering.num_clusters // 2)
    delta = enumerate_hierarchical(table, clustering, design.counts)
    errs = (abs(cr.mean - tau), abs(cbr.mean - tau), abs(delta.mean))
    passed = max(errs) <= EXACT_TOL
    return _result(
        "means",
        passed,
        f"E(unit-arm)={cr.mean:.15g}, E(cluster-arm)={cbr.mean:.15g}, tau={tau:.15g}, "
        f"E(gap)={delta.mean:.3g} (tolerance {EXACT_TOL})",
        {"tau": tau, "mean_cr": cr.mean, "mean_cbr": cbr.mean, "mean_delta": delta.mean},
    )


def check_interference_means(design: OracleDesign) -> dict:
    """Closed-form estimator means under the linear model match enumeration."""
    clustering, counts, model = design.clustering, design.counts, design.model
    n = design.graph.num_units
    cr = enumerate_complete(model, n // 2)
    cbr = enumerate_cluster(model, clustering, clustering.num_clusters // 2)
    delta = enumerate_hierarchical(model, clustering, counts)
    closed_cr = expected_diff_in_means_linear(model, n // 2)
    closed_cbr = expected_cluster_estimate_linear(model, clustering)
    closed_delta = expected_delta_linear(model, clustering, counts)
    errs = (
        abs(cr.mean - closed_cr),
        abs(cbr.mean - closed_cbr),
        abs(delta.mean - closed_delta),
    )
    passed = max(errs) <= EXACT_TOL
    return _result(
        "interference-means",
        passed,
        f"unit-arm {cr.mean:.15g} vs {closed_cr:.15g}; "
        f"cluster-arm {cbr.mean:.15g} vs {closed_cbr:.15g}; "
        f"gap {delta.mean:.15g} vs {closed_delta:.15g}",
        {
            "enum_cr": cr.mean, "closed_cr": closed_cr,
            "enum_cbr": cbr.mean, "closed_cbr": closed_cbr,
            "enum_delta": delta.mean, "closed_delta": closed_delta,
        },
    )


def check_null_variance(design: OracleDesign) -> dict:
    """Sharp-null variance formula equals the enumerated variance exactly."""
    clustering, counts = design.clustering, design.counts
    rng = np.random.default_rng(1234)
    worst = 0.0
    example = {}
    for _ in range(5):
        y = rng.normal(size=clustering.num_units)
        null_table = PotentialTable(y1=y, y0=y)
        mom = enumerate_hierarchical(null_table, clustering, counts)
        formula = fisher_null_variance(y, clustering, counts)
        err = abs(mom.variance - formula)
        if err >= worst:
            worst = err
            example = {"enumerated": mom.variance, "formula": formula}
    passed = worst <= VARIANCE_TOL
    return _result(
        "null-variance",
        passed,
        f"max |enumerated - formula| = {worst:.3g} over 5 outcome vectors "
        f"(example {example['enumerated']:.12g} vs {example['formula']:.12g})",
        {"max_error": worst, **example},
    )


def check_variance_bound(design: OracleDesign) -> dict:
    """Bound is exactly tight for constant effects; exact variance matches too.

    The bound needs two members in every variance bucket. A design with a
    bucket of one is checked on :func:`_fallback_bound_design` instead, and
    the result names the design it ran on.
    """
    clustering, counts = design.clustering, design.counts
    ran_on = "input"
    if not _bound_capable(counts):
        clustering, counts = _fallback_bound_design()
        ran_on = "fallback, 6 clusters of 2 (the input has a variance bucket of one)"
    rng = np.random.default_rng(4321)
    base = rng.normal(size=clustering.num_units)
    const = PotentialTable.constant_effect(base, tau=1.3)
    var_mom = enumerate_hierarchical(const, clustering, counts)
    bound_mom = enumerate_hierarchical(const, clustering, counts, "sigma_hat_sq")
    exact = theoretical_sutva_variance(const, clustering, counts)
    err_eq = abs(bound_mom.mean - var_mom.variance)
    err_exact = abs(exact - var_mom.variance)
    passed = err_eq <= VARIANCE_TOL and err_exact <= VARIANCE_TOL
    return _result(
        "variance-bound",
        passed,
        f"constant effect: E(bound)={bound_mom.mean:.12g}, var(gap)={var_mom.variance:.12g}, "
        f"closed-form exact={exact:.12g} (design: {ran_on})",
        {"e_bound": bound_mom.mean, "var_delta": var_mom.variance, "exact": exact, "design": ran_on},
    )


def check_bernoulli(design: OracleDesign) -> dict:
    """Coin-flip vs fixed-count variance gap and the negative-moment bound."""
    n, n_t = 12, 6
    rng = np.random.default_rng(777)
    worst_ratio = 0.0
    for _ in range(20):
        t = PotentialTable(y1=rng.normal(size=n), y0=rng.normal(size=n))
        gap = bernoulli_vs_cr_variance_gap(t, n_t)  # raises CheckFailure if violated
        worst_ratio = max(worst_ratio, gap.gap / gap.bound if gap.bound else 0.0)
    moment = binomial_negative_moment(n, 0.5)
    moment_err = abs(moment - 1.0 / n_t)
    moment_ok = moment_err <= 5.0 / n_t**2
    passed = moment_ok
    return _result(
        "bernoulli",
        passed,
        f"gap/bound worst ratio {worst_ratio:.3f} over 20 tables; "
        f"|E(1/eta) - 1/{n_t}| = {moment_err:.3g} <= {5.0 / n_t**2:.3g}",
        {"worst_gap_ratio": worst_ratio, "negative_moment": moment, "moment_error": moment_err},
    )


def check_law(design: OracleDesign) -> dict:
    """Enumeration visits every design outcome once; marginals are exact."""
    counts = design.counts
    unit_arm, treatment = enumerate_hierarchical_assignments(design.clustering, counts)
    expected = hierarchical_outcome_count(counts)
    rows = {bytes(np.concatenate([unit_arm[r], treatment[r]])) for r in range(len(unit_arm))}
    unique_ok = len(rows) == expected == len(unit_arm)
    marginal = treatment.mean(axis=0)
    closed = (counts.m_cr / counts.num_clusters) * (counts.n_cr_t / counts.n_cr) + (
        counts.m_cbr / counts.num_clusters
    ) * (counts.m_cbr_t / counts.m_cbr)
    marg_err = float(np.max(np.abs(marginal - closed)))
    # Conditional independence: within each arm split, the treatment pattern
    # pairs form a full product set.
    splits: dict[bytes, list[int]] = {}
    for r, key in enumerate(unit_arm):
        splits.setdefault(key.tobytes(), []).append(r)
    factorizes = True
    for idx in splits.values():
        cr_patterns = {bytes(treatment[r][unit_arm[r] == ARM_CR]) for r in idx}
        cbr_patterns = {bytes(treatment[r][unit_arm[r] != ARM_CR]) for r in idx}
        if len(cr_patterns) * len(cbr_patterns) != len(idx):
            factorizes = False
    passed = unique_ok and marg_err <= EXACT_TOL and factorizes
    return _result(
        "law",
        passed,
        f"{len(unit_arm)} outcomes, all distinct={unique_ok}, "
        f"max |P(treated) - {closed:.6g}| = {marg_err:.3g}, factorizes={factorizes}",
        {"outcomes": len(unit_arm), "marginal_error": marg_err, "closed_marginal": closed},
    )


CHECKS: dict[str, Callable[[OracleDesign], dict]] = {
    "means": check_means,
    "interference-means": check_interference_means,
    "null-variance": check_null_variance,
    "variance-bound": check_variance_bound,
    "bernoulli": check_bernoulli,
    "law": check_law,
}
