"""Exact brute-force verification of design moments on small problems.

Everything here trades scale for exactness: designs are enumerated outcome
by outcome (uniform law, compensated summation), so expectations and
variances carry no Monte Carlo error and can pin down the analytical
formulas to near machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Literal

import numpy as np

from ._errors import CheckFailure, ValidationError
from .assign import DesignCounts
from .estimate import _decide, _statistic_rows
from .outcomes import LinearInterferenceModel, PotentialTable, realize_linear, realize_sutva
from .partition import Clustering

ENUMERATION_CAP = 10_000_000

OutcomeSource = PotentialTable | LinearInterferenceModel

Statistic = Literal["delta", "tau_cr", "tau_cbr", "sigma_hat_sq", "reject"]


@dataclass(frozen=True)
class ExactMoments:
    mean: float
    variance: float
    count: int


@dataclass(frozen=True)
class EnumerationSpec:
    """What to enumerate: a design, an outcome source, and a statistic.

    ``design`` picks the randomization law; ``counts`` and ``statistic``
    apply to the hierarchical design, ``n_t``/``m_t`` to the
    single-mechanism ones, whose statistic is their own estimate of the
    effect. Outcome noise must be zero so that every enumerated outcome is
    exact.
    """

    design: Literal["hierarchical", "complete", "cluster"]
    outcomes: OutcomeSource
    statistic: Statistic = "delta"
    clustering: Clustering | None = None
    counts: DesignCounts | None = None
    n_t: int | None = None
    m_t: int | None = None
    alpha: float = 0.05


def _fsum_moments(values: np.ndarray) -> ExactMoments:
    count = len(values)
    mean = math.fsum(values) / count
    var = math.fsum((v - mean) ** 2 for v in values.tolist()) / count
    return ExactMoments(mean=mean, variance=var, count=count)


def _check_cap(count: int) -> None:
    if count > ENUMERATION_CAP:
        raise ValidationError(
            f"enumeration would visit {count} outcomes (cap {ENUMERATION_CAP})"
        )


def _subset_matrix(n: int, k: int) -> np.ndarray:
    """All ``C(n, k)`` indicator rows in lexicographic order."""
    rows = math.comb(n, k)
    out = np.zeros((rows, n), dtype=np.int8)
    for r, combo in enumerate(combinations(range(n), k)):
        out[r, list(combo)] = 1
    return out


def _realize(outcomes: OutcomeSource, z_rows: np.ndarray) -> np.ndarray:
    """Outcome matrix for every assignment row, one row at a time through
    the shipped outcome model; the model must be noise-free."""
    if isinstance(outcomes, PotentialTable):
        return np.stack([realize_sutva(outcomes, z) for z in z_rows])
    if outcomes.noise_sd != 0.0:
        raise ValidationError("enumeration requires a noise-free outcome model")
    return np.stack([realize_linear(outcomes, z) for z in z_rows])


def hierarchical_outcome_count(counts: DesignCounts) -> int:
    return (
        math.comb(counts.num_clusters, counts.m_cr)
        * math.comb(counts.n_cr, counts.n_cr_t)
        * math.comb(counts.m_cbr, counts.m_cbr_t)
    )


def enumerate_hierarchical_assignments(
    clustering: Clustering, counts: DesignCounts
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """All draws of the two-arm design as stacked indicator rows.

    Returns ``(unit_arm, treatment, cluster_arm, cluster_treated)`` matrices
    with one row per equiprobable outcome, in deterministic lexicographic
    order.
    """
    if not clustering.is_balanced:
        raise ValidationError("enumeration requires an exactly balanced clustering")
    if counts.num_clusters != clustering.num_clusters or counts.num_units != clustering.num_units:
        raise ValidationError("design counts do not match the clustering")
    m, n = counts.num_clusters, counts.num_units
    total = hierarchical_outcome_count(counts)
    _check_cap(total)

    cr_patterns = _subset_matrix(counts.n_cr, counts.n_cr_t)
    cbr_patterns = _subset_matrix(counts.m_cbr, counts.m_cbr_t)
    r1, r2 = len(cr_patterns), len(cbr_patterns)

    unit_arm = np.zeros((total, n), dtype=np.int8)
    treatment = np.zeros((total, n), dtype=np.int8)
    cluster_arm = np.zeros((total, m), dtype=np.int8)
    cluster_treated = np.zeros((total, m), dtype=np.int8)

    row = 0
    for omega in combinations(range(m), counts.m_cr):
        arm = np.zeros(m, dtype=np.int8)
        arm[list(omega)] = 1
        w_units = arm[clustering.assignment]
        cr_units = np.flatnonzero(w_units == 1)
        cbr_clusters = np.flatnonzero(arm == 0)
        block = slice(row, row + r1 * r2)

        cluster_arm[block] = arm
        unit_arm[block] = w_units

        z_cr = np.zeros((r1, n), dtype=np.int8)
        z_cr[:, cr_units] = cr_patterns
        treatment[block] += np.repeat(z_cr, r2, axis=0)

        zc = np.zeros((r2, m), dtype=np.int8)
        zc[:, cbr_clusters] = cbr_patterns
        cluster_treated[block] = np.tile(zc, (r1, 1))
        z_cbr_units = zc[:, clustering.assignment] * (w_units == 0)
        treatment[block] += np.tile(z_cbr_units, (r1, 1))
        row += r1 * r2
    return unit_arm, treatment, cluster_arm, cluster_treated


def _hierarchical_statistic_rows(spec: EnumerationSpec) -> np.ndarray:
    """The statistic on every enumerated draw, computed by the shipped estimator."""
    clustering, counts = spec.clustering, spec.counts
    if clustering is None or counts is None:
        raise ValidationError("hierarchical enumeration needs a clustering and counts")
    unit_arm, treatment, cluster_arm, cluster_treated = enumerate_hierarchical_assignments(
        clustering, counts
    )
    y_rows = _realize(spec.outcomes, treatment)
    if spec.statistic not in ("delta", "tau_cr", "tau_cbr", "sigma_hat_sq", "reject"):
        raise ValidationError(f"unknown statistic {spec.statistic!r}")
    tau_cr, tau_cbr, sigma = _statistic_rows(
        counts, clustering.assignment, unit_arm, treatment, cluster_arm, cluster_treated, y_rows,
        bound=spec.statistic in ("sigma_hat_sq", "reject"),
    )
    delta = tau_cr - tau_cbr
    if spec.statistic == "reject":
        return np.array(
            [float(_decide(float(d), float(s), spec.alpha).reject_chebyshev) for d, s in zip(delta, sigma)]
        )
    return {"tau_cr": tau_cr, "tau_cbr": tau_cbr, "delta": delta, "sigma_hat_sq": sigma}[spec.statistic]


def enumerate_moments(spec: EnumerationSpec) -> ExactMoments:
    """Exact mean and variance of a statistic over the full design law.

    All outcomes are equiprobable under the supported designs, so moments
    are plain averages accumulated with compensated summation.
    """
    if spec.design == "hierarchical":
        values = _hierarchical_statistic_rows(spec)
        return _fsum_moments(values)

    if spec.design == "complete":
        n = spec.outcomes.num_units
        if spec.n_t is None or not 1 <= spec.n_t <= n - 1:
            raise ValidationError("complete design needs 1 <= n_t <= N-1")
        _check_cap(math.comb(n, spec.n_t))
        z_rows = _subset_matrix(n, spec.n_t)
        y_rows = _realize(spec.outcomes, z_rows)
        zb = z_rows.astype(bool)
        values = (y_rows * zb).sum(axis=1) / spec.n_t - (y_rows * ~zb).sum(axis=1) / (
            n - spec.n_t
        )
        return _fsum_moments(values)

    if spec.design == "cluster":
        clustering = spec.clustering
        if clustering is None:
            raise ValidationError("cluster design needs a clustering")
        m = clustering.num_clusters
        n = clustering.num_units
        if spec.m_t is None or not 1 <= spec.m_t <= m - 1:
            raise ValidationError("cluster design needs 1 <= m_t <= M-1")
        _check_cap(math.comb(m, spec.m_t))
        zc_rows = _subset_matrix(m, spec.m_t)
        z_rows = zc_rows[:, clustering.assignment]
        y_rows = _realize(spec.outcomes, z_rows)
        membership = (clustering.assignment[:, None] == np.arange(m)[None, :]).astype(
            np.float64
        )
        y_plus = y_rows @ membership
        zb = zc_rows.astype(bool)
        values = (m / n) * (
            (y_plus * zb).sum(axis=1) / spec.m_t
            - (y_plus * ~zb).sum(axis=1) / (m - spec.m_t)
        )
        return _fsum_moments(values)

    raise ValidationError(f"unknown design {spec.design!r}")


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
    draws. Raises :class:`CheckFailure` if the gap exceeds
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

    z_cr = _subset_matrix(n, n_t).astype(bool)
    tau_cr = (np.where(z_cr, table.y1, 0).sum(axis=1) / n_t) - (
        np.where(~z_cr, table.y0, 0).sum(axis=1) / (n - n_t)
    )
    cr_moments = _fsum_moments(tau_cr)

    codes = np.arange(2**n, dtype=np.uint32)
    bits = ((codes[:, None] >> np.arange(n)[None, :]) & 1).astype(bool)
    k = bits.sum(axis=1)
    keep = (k > 0) & (k < n)
    bits, k = bits[keep], k[keep]
    log_w = k * math.log(p) + (n - k) * math.log(1.0 - p)
    weights = np.exp(log_w) / (1.0 - degenerate)
    tau_br = np.where(bits, table.y1, 0).sum(axis=1) / k - np.where(~bits, table.y0, 0).sum(
        axis=1
    ) / (n - k)
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
