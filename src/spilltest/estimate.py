"""Estimators, variance bounds, and the interference decision rule.

The test statistic is the gap between two estimates of the same effect: a
difference-in-means over the individually randomized arm and a scaled
cluster-total contrast over the cluster-randomized arm. Under no
interference both estimate the total treatment effect, so the gap has mean
zero. A plug-in variance bound, read through Chebyshev's inequality or a
Gaussian approximation, turns the gap into a test. The bound is exact in
expectation for a constant effect but not conservative in general: when
treatment effects cluster together its expectation falls below the variance
of the gap (acceptance criterion 4), and the test can then exceed its level.

One kernel, :func:`_estimate_rows`, computes both estimates and the bound
for rows of draws of a design. It is two arm contrasts (:func:`_contrast`,
a difference in means and its plug-in variance): one over the unit arm's
outcomes, one over the cluster arm's totals from
:meth:`Clustering.cluster_sums`, scaled by ``m_cbr / n_cbr``. The oracle's
single-mechanism designs run those same two functions. The kernel reads
every row its caller passes, each a draw's unit arms and treatments, as its
saved file holds them, and its outcomes:
:func:`_estimate` passes one-row views of the analysis's assignment and a
copy of its units' outcomes, a study passes the rows of its buffers that a
few draws have just written, and the oracle passes every enumerated draw.
Each row of the result is bit for bit what a one-row call on that draw
gives. One decision step, :func:`_decide`, is the whole decision: it checks
its inputs and turns a gap and its bound into the t-statistic, both
p-values and both rules' verdicts, reading a gap within the outcomes'
:func:`_rounding_floor` as none. The analysis reports, the studies' counts
and the oracle's ``reject`` statistic all read it. One analysis body,
:func:`_analyze`, pools strata by their shares of the clusters; a plain
design is its one-stratum case, so :func:`analyze` and
:func:`analyze_stratified` differ only in whether a report lists its strata
and a refusal names one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from ._errors import ValidationError
from .assign import ARM_CR, DesignCounts, HierarchicalAssignment, _require_balanced, _unit_ids
from .outcomes import PotentialTable
from .partition import Clustering

if TYPE_CHECKING:
    from .graph import Graph
    from .outcomes import LinearInterferenceModel


def _sample_var(x: np.ndarray) -> float:
    if len(x) < 2:
        raise ValidationError("sample variance needs at least two observations")
    return float(np.var(x, ddof=1))


@dataclass(frozen=True)
class VarianceComponents:
    """Sample variances (denominator ``count - 1``) at unit and cluster level."""

    s_t: float
    s_c: float
    s_tc: float
    s_plus_t: float
    s_plus_c: float
    s_plus_tc: float


def variance_components(table: PotentialTable, clustering: Clustering) -> VarianceComponents:
    """All variance components of a potential table under a clustering."""
    y1, y0 = table.y1, table.y0
    if len(y1) != clustering.num_units:
        raise ValidationError("potential table does not cover the clustering")
    y1p, y0p = clustering.cluster_sums(np.stack([y1, y0]))
    return VarianceComponents(
        s_t=_sample_var(y1),
        s_c=_sample_var(y0),
        s_tc=_sample_var(y1 - y0),
        s_plus_t=_sample_var(y1p),
        s_plus_c=_sample_var(y0p),
        s_plus_tc=_sample_var(y1p - y0p),
    )


@dataclass(frozen=True)
class DeltaEstimate:
    """Both arm estimates and their gap for one assignment draw."""

    tau_cr: float
    tau_cbr: float
    delta: float


def _bucket(values: np.ndarray, mask: np.ndarray, size: int) -> np.ndarray:
    # A row of other counts would lend members to, or borrow from, the next.
    if (np.add.reduce(mask, axis=1, dtype=np.int32) != size).any():
        raise ValidationError("assignment does not match its design counts")
    # A row-major gather keeps each draw's members in id order, so the
    # reductions below see the same values in the same order as one draw.
    # np.compress of the flattened arrays picks exactly what ``values[mask]``
    # picks, in the same order, where 2-D boolean indexing takes numpy's slow
    # general path: 40 us against 142 us per bucket of an (8, 4000) stack
    # (numpy 2.4.6, one Xeon core). ravel copies a non-contiguous input.
    return np.compress(mask.ravel(), values.ravel()).reshape(len(values), size)


def _contrast(
    values: np.ndarray, treated: np.ndarray, control: np.ndarray, n_t: int, n_c: int, bound: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """Treated-minus-control difference in means of each row of ``values``
    and, if ``bound``, its plug-in variance ``S_t/n_t + S_c/n_c``.

    ``treated`` and ``control`` are boolean masks shaped like ``values``
    that pick ``n_t`` and ``n_c`` members of every row.
    """
    v_t = _bucket(values, treated, n_t)
    v_c = _bucket(values, control, n_c)
    # Outcomes near the float maximum overflow to inf and nan here; _decide
    # reports that as a non-finite statistic, so numpy need not warn too.
    with np.errstate(over="ignore", invalid="ignore"):
        diff = v_t.mean(axis=1) - v_c.mean(axis=1)
        if not bound:
            return diff, None
        return diff, v_t.var(axis=1, ddof=1) / n_t + v_c.var(axis=1, ddof=1) / n_c


def _estimate_rows(
    clustering: Clustering, counts: DesignCounts, unit_arm: np.ndarray, treatment: np.ndarray, y: np.ndarray,
    bound: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The estimator kernel: ``(tau_cr, tau_cbr, sigma_hat_sq)`` of each row.

    Row r holds one draw, as its saved file does: each unit's arm and 0/1
    treatment in ``unit_arm[r]`` and ``treatment[r]``, and its outcomes in
    unit order in ``y[r]``. ``assign._encode`` and
    ``assign.assignment_from_vectors`` keep arms constant within clusters
    and treatments within cluster-arm clusters, so the kernel reads each
    cluster's from one of its units. A row without the bucket sizes of
    ``counts`` is refused. ``sigma_hat_sq`` is None unless ``bound``, which
    raises ValidationError when a bucket holds fewer than two members. Each
    row's values are bit for bit those of a one-row call on that draw.
    """
    c = counts
    if bound and (c.n_cr_t < 2 or c.n_cr_c < 2):
        raise ValidationError("need >= 2 treated and >= 2 control units in the unit-randomized arm")
    if bound and (c.m_cbr_t < 2 or c.m_cbr_c < 2):
        raise ValidationError("need >= 2 treated and >= 2 control clusters in the cluster arm")
    cr = unit_arm == ARM_CR
    z = treatment.astype(bool)
    tau_cr, bound_cr = _contrast(y, cr & z, cr & ~z, c.n_cr_t, c.n_cr_c, bound)
    one = clustering.unit_of_each
    cbr, zc = ~cr[:, one], z[:, one]
    y_plus = clustering.cluster_sums(y)
    diff_cbr, bound_cbr = _contrast(y_plus, cbr & zc, cbr & ~zc, c.m_cbr_t, c.m_cbr_c, bound)
    scale = c.m_cbr / c.n_cbr
    with np.errstate(over="ignore", invalid="ignore"):
        tau_cbr = scale * diff_cbr
        if not bound:
            return tau_cr, tau_cbr, None
        return tau_cr, tau_cbr, bound_cr + scale**2 * bound_cbr


def _design_outcomes(assignments: Sequence[HierarchicalAssignment], y: np.ndarray) -> np.ndarray:
    """``y`` as floats, once the assignments, one per stratum, are checked to
    hold the design's units 0..N-1 once each, and ``y`` to be one vector of
    one outcome each."""
    if np.ndim(y) != 1:
        raise ValidationError(f"outcomes must be one vector, got shape {np.shape(y)}")
    n = len(_unit_ids(assignments))
    if len(y) < n:
        raise ValidationError(f"outcomes missing for assigned units {list(range(len(y), n)[:10])}")
    if len(y) > n:
        extra = list(range(n, len(y))[:10])
        raise ValidationError(f"outcomes given for units outside the {n}-unit clustering: {extra}")
    return np.asarray(y, dtype=np.float64)


def _estimate(
    assignment: HierarchicalAssignment, y: np.ndarray, bound: bool = True
) -> tuple[float, float, float, float | None]:
    """``(tau_cr, tau_cbr, delta, sigma_hat_sq)`` of one draw, from one-row
    views of the assignment's own vectors and its units' outcomes in ``y``.

    ``sigma_hat_sq`` is None unless ``bound``; ``delta`` is the difference
    of the two floats.
    """
    a = assignment
    tau_cr, tau_cbr, sigma_hat_sq = _estimate_rows(
        a.clustering, a.counts, a.unit_arm[None], a.treatment[None], y[None, a.unit_ids], bound
    )
    t_cr, t_cbr = float(tau_cr[0]), float(tau_cbr[0])
    return t_cr, t_cbr, t_cr - t_cbr, None if sigma_hat_sq is None else float(sigma_hat_sq[0])


def delta_statistic(assignment: HierarchicalAssignment, y: np.ndarray) -> DeltaEstimate:
    """Compute both arm estimates and the gap ``delta = tau_cr - tau_cbr``.

    The first arm's estimate is a plain difference in means over its units;
    the second is ``(m_cbr / n_cbr)`` times the treated-minus-control contrast
    of its cluster totals. Single-member buckets are allowed. ``y`` is
    read, and refused, as :func:`analyze` reads it: a stratum is no design.
    """
    tau_cr, tau_cbr, delta, _ = _estimate(assignment, _design_outcomes([assignment], y), bound=False)
    return DeltaEstimate(tau_cr, tau_cbr, delta)


def empirical_variance_bound(assignment: HierarchicalAssignment, y: np.ndarray) -> float:
    """Plug-in variance bound from within-bucket sample variances.

    ``S_t/n_t + S_c/n_c`` over the individually randomized arm plus the
    scaled cluster-total analogue over the other arm. Under no interference
    its expectation equals the true variance of the gap for a constant
    treatment effect. It is not conservative in general: its expectation
    exceeds the variance by ``(a * S_tc - (b + 1/k) * S_plus_tc) / n_cr``
    (``a``, ``b`` the small-sample factors, ``k`` the cluster size,
    ``S_tc``, ``S_plus_tc`` from :func:`variance_components`), which is
    negative when treatment effects cluster together; about half of random
    heterogeneous potential tables fall below the variance (acceptance
    criterion 4). Every bucket must hold at least two observations; ``y``
    is read as :func:`delta_statistic` reads it.
    """
    return _estimate(assignment, _design_outcomes([assignment], y))[3]


def _small_sample_factors(counts: DesignCounts) -> tuple[float, float]:
    # Expected within-arm sample variance of a cluster sample of units is
    # a * S - b * S_plus; both factors are exact for equal cluster sizes.
    n = counts.num_units
    a = (counts.n_cr / (counts.n_cr - 1)) * ((n - 1) / n)
    b = counts.m_cbr / (n * (counts.n_cr - 1))
    return a, b


def fisher_null_variance(y: np.ndarray, clustering: Clustering, counts: DesignCounts) -> float:
    """Exact variance of the gap when treatment moves no outcome at all.

    Under the sharp null (identical potential outcomes) the design is the
    only source of randomness, so the variance is computable from the
    observed outcomes alone: it is :func:`theoretical_sutva_variance` of the
    table with ``y1 = y0 = y``. Matches full enumeration exactly; a design
    that ``hierarchical_assign`` refuses is refused here too.
    """
    y = np.asarray(y, dtype=np.float64)
    if len(y) != clustering.num_units:
        raise ValidationError("outcomes and clustering must agree on N")
    return theoretical_sutva_variance(PotentialTable(y1=y, y0=y), clustering, counts)


def theoretical_sutva_variance(
    table: PotentialTable, clustering: Clustering, counts: DesignCounts
) -> float:
    """Design variance of the gap for a fixed potential table (no interference).

    The two arm variances and the cluster-level effect-heterogeneity term,
    plus the exact small-sample correction from sampling whole clusters into
    the unit-randomized arm; matches full enumeration. Needs the full table,
    so this is an oracle/simulation quantity rather than something estimable
    from one experiment. A design that ``hierarchical_assign`` refuses is
    refused here too.
    """
    _require_balanced(clustering, counts)
    comps = variance_components(table, clustering)
    c = counts
    sigma2_cr = comps.s_t / c.n_cr_t + comps.s_c / c.n_cr_c - comps.s_tc / c.n_cr
    sigma2_cbr = (c.m_cbr / c.n_cbr) ** 2 * (
        comps.s_plus_t / c.m_cbr_t + comps.s_plus_c / c.m_cbr_c - comps.s_plus_tc / c.m_cbr
    )
    cross = (c.num_clusters / (c.n_cr * c.n_cbr)) * comps.s_plus_tc
    a, b = _small_sample_factors(c)
    plus_part = (
        comps.s_plus_t / c.n_cr_t + comps.s_plus_c / c.n_cr_c - comps.s_plus_tc / c.n_cr
    )
    correction = (a - 1.0) * sigma2_cr - b * plus_part
    return (sigma2_cr + sigma2_cbr + cross) + correction


def gaussian_p_value(delta: float, sigma: float) -> float:
    """Two-tailed standard-normal p-value of ``|delta| / sigma``."""
    if sigma <= 0:
        raise ValidationError("sigma must be positive")
    return math.erfc(abs(delta) / (sigma * math.sqrt(2.0)))


class _Decision(NamedTuple):
    t_stat: float
    p_chebyshev: float
    p_gaussian: float
    reject_chebyshev: bool
    reject_gaussian: bool


def _rounding_floor(y: np.ndarray) -> np.ndarray:
    """``N * eps * max|y|`` per row of ``N`` outcomes: about what rounding alone leaves in a gap."""
    return y.shape[-1] * np.finfo(np.float64).eps * np.abs(y).max(axis=-1)


def _decide(delta: float, sigma_hat_sq: float, alpha: float, floor: float) -> _Decision:
    """The whole decision: a gap and its bound in, both rules' verdicts out.

    Chebyshev's p-value is ``min(1, sigma_hat_sq / delta**2)``, and its rule
    rejects iff ``|delta| >= sqrt(sigma_hat_sq / alpha)``; the Gaussian rule
    reads ``delta / sqrt(sigma_hat_sq)`` as a standard normal. A gap within
    ``floor`` (:func:`_rounding_floor`) over a bound within ``floor**2`` is
    none: t is 0, both p-values 1, and neither rule rejects. Past it, a zero
    bound leaves no room for chance, so any gap rejects under both rules.
    Raises ValidationError for alpha outside (0, 1), a non-finite statistic,
    which supports no decision, or a negative bound.
    """
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha={alpha} must lie in (0, 1)")
    if not (math.isfinite(delta) and math.isfinite(sigma_hat_sq)):
        raise ValidationError(f"non-finite statistic: delta={delta!r}, sigma_hat_sq={sigma_hat_sq!r}")
    if sigma_hat_sq < 0:
        raise ValidationError("variance bound cannot be negative")
    if abs(delta) <= floor and sigma_hat_sq <= floor * floor:
        return _Decision(0.0, 1.0, 1.0, False, False)
    sigma = math.sqrt(sigma_hat_sq)
    # Below sigma the p-value is 1; from sigma up, delta * delta is at least
    # about sigma_hat_sq, so the square cannot underflow to zero. Where the
    # square or the threshold's quotient overflows, the scaled form takes
    # over; every finite plain result is kept as it is.
    delta_sq = delta * delta
    if delta == 0 or abs(delta) < sigma:
        p_cheb = 1.0
    elif sigma_hat_sq == 0:
        p_cheb = 0.0
    elif math.isinf(delta_sq):
        p_cheb = min(1.0, (sigma / abs(delta)) ** 2)
    else:
        p_cheb = min(1.0, sigma_hat_sq / delta_sq)
    if sigma_hat_sq > 0:
        t_stat = delta / sigma
        p_gauss = gaussian_p_value(delta, sigma)
    else:
        t_stat = 0.0 if delta == 0 else math.inf
        p_gauss = 1.0 if delta == 0 else 0.0
    quotient = sigma_hat_sq / alpha
    threshold = math.sqrt(quotient) if math.isfinite(quotient) else sigma / math.sqrt(alpha)
    reject_cheb = delta != 0 and abs(delta) >= threshold
    return _Decision(t_stat, p_cheb, p_gauss, reject_cheb, p_gauss < alpha)


@dataclass(frozen=True)
class StratumDetail:
    stratum: int
    tau_cr: float
    tau_cbr: float
    delta: float
    sigma_hat_sq: float
    num_clusters: int


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the decision rests on, ready for serialization. A plain
    analysis lists no ``strata``, so ``stratified`` is ``bool(strata)``."""

    tau_cr: float
    tau_cbr: float
    delta: float
    sigma_hat_sq: float
    t_stat: float
    p_chebyshev: float
    p_gaussian: float
    alpha: float
    decision_rule: str
    reject: bool
    counts: dict[str, int]
    provenance: str
    strata: tuple[StratumDetail, ...] = ()

    @property
    def stratified(self) -> bool:
        return bool(self.strata)

    @property
    def decision(self) -> str:
        return "reject" if self.reject else "fail-to-reject"

    def to_dict(self) -> dict:
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["counts"] = dict(self.counts)
        payload["strata"] = [{f.name: getattr(s, f.name) for f in fields(s)} for s in self.strata]
        payload["decision"] = self.decision
        payload["stratified"] = self.stratified
        return payload


def _analyze(
    assignments: Sequence[HierarchicalAssignment], y: np.ndarray, alpha: float, decision_rule: str, stratified: bool
) -> AnalysisReport:
    """The one analysis: stratum ``s``, ``M(s)`` of the ``M`` clusters, weighs
    its arm estimates and gap by ``M(s)/M`` and its bound by ``(M(s)/M)**2``.

    A plain design is one stratum of share 1.0, so its pool is its own
    estimates, bit for bit. Only a ``stratified`` analysis names the stratum
    of a refusal and lists its strata. Counts add up over strata; the report
    takes the first stratum's provenance.
    """
    if decision_rule not in ("chebyshev", "gaussian"):
        raise ValidationError(f"unknown decision rule {decision_rule!r}")
    if len(assignments) == 0:
        raise ValidationError("no strata to analyze")
    y = _design_outcomes(assignments, y)
    details = []
    counts: dict[str, int] = {}
    for s, a in enumerate(assignments):
        try:
            estimates = _estimate(a, y)
        except ValidationError as exc:
            if not stratified:
                raise
            raise ValidationError(f"stratum {s}: {exc}") from exc
        details.append(StratumDetail(s, *estimates, num_clusters=a.clustering.num_clusters))
        for key, value in a.counts.to_dict().items():
            counts[key] = counts.get(key, 0) + value
    total = sum(d.num_clusters for d in details)
    shares = [d.num_clusters / total for d in details]

    def pool(values, weights=shares) -> float:
        # Summed from -0.0, the float that adds nothing, so a lone -0.0 stays.
        return sum((w * v for w, v in zip(weights, values)), -0.0)

    delta = pool(d.delta for d in details)
    sigma_hat_sq = pool((d.sigma_hat_sq for d in details), [w * w for w in shares])
    decided = _decide(delta, sigma_hat_sq, alpha, float(_rounding_floor(y)))
    return AnalysisReport(
        tau_cr=pool(d.tau_cr for d in details),
        tau_cbr=pool(d.tau_cbr for d in details),
        delta=delta,
        sigma_hat_sq=sigma_hat_sq,
        t_stat=decided.t_stat,
        p_chebyshev=decided.p_chebyshev,
        p_gaussian=decided.p_gaussian,
        alpha=alpha,
        decision_rule=decision_rule,
        reject=decided.reject_chebyshev if decision_rule == "chebyshev" else decided.reject_gaussian,
        counts=counts,
        provenance=assignments[0].provenance,
        strata=tuple(details) if stratified else (),
    )


def analyze(
    assignment: HierarchicalAssignment,
    y: np.ndarray,
    alpha: float = 0.05,
    decision_rule: str = "chebyshev",
) -> AnalysisReport:
    """Full single-design analysis: arm estimates, bound, p-values, decision."""
    return _analyze([assignment], y, alpha, decision_rule, stratified=False)


def analyze_stratified(
    assignments: Sequence[HierarchicalAssignment],
    y: np.ndarray,
    alpha: float = 0.05,
    decision_rule: str = "chebyshev",
) -> AnalysisReport:
    """Pool independent per-stratum analyses into one decision (see
    :func:`_analyze`); a refusal names its stratum."""
    return _analyze(assignments, y, alpha, decision_rule, stratified=True)


# ---------------------------------------------------------------------------
# Closed-form expectations under the linear interference model.
# ---------------------------------------------------------------------------


def _rho_and_coverage(graph: "Graph", clustering: Clustering) -> tuple[float, float]:
    from .graph import neighborhood_fractions

    if graph.num_units != clustering.num_units:
        raise ValidationError("graph and clustering must agree on N")
    rho = float(neighborhood_fractions(graph, clustering).mean())
    non_isolated = float(np.count_nonzero(graph.degrees > 0)) / graph.num_units
    return rho, non_isolated


def expected_diff_in_means_linear(model: "LinearInterferenceModel", n_t: int) -> float:
    """Exact mean of the difference-in-means under complete randomization.

    Every unit with at least one neighbor contributes an interference drag of
    ``-gamma / (N - 1)``; isolated units contribute none.
    """
    n = model.num_units
    if not 1 <= n_t <= n - 1:
        raise ValidationError("n_t must leave both groups non-empty")
    non_isolated = float(np.count_nonzero(model.graph.degrees > 0)) / n
    return model.beta - model.gamma * non_isolated / (n - 1)


def expected_cluster_estimate_linear(
    model: "LinearInterferenceModel", clustering: Clustering
) -> float:
    """Exact mean of the cluster-total estimator under cluster randomization.

    The estimator soaks up the share of interference contained inside
    clusters: with no isolated units it equals
    ``beta + gamma * (rho_c * M - 1) / (M - 1)``.
    """
    rho, f = _rho_and_coverage(model.graph, clustering)
    m = clustering.num_clusters
    if m < 2:
        raise ValidationError("cluster randomization needs at least two clusters")
    return model.beta + model.gamma * (rho * m - f) / (m - 1)


def expected_delta_linear(
    model: "LinearInterferenceModel", clustering: Clustering, counts: DesignCounts
) -> float:
    """Exact mean of the gap under the hierarchical design (complete mechanism).

    The direct effect cancels between arms; what remains is the interference
    soaked up by the cluster-randomized arm, slightly offset by the
    finite-sample drag in the other arm. Approximately ``-gamma * rho_c``
    for many clusters. A design that ``hierarchical_assign`` refuses is
    refused here too.
    """
    _require_balanced(clustering, counts)
    rho, f = _rho_and_coverage(model.graph, clustering)
    m = counts.num_clusters
    cr_part = -(rho + (f - rho) * (counts.m_cr - 1) / (m - 1)) / (counts.n_cr - 1)
    cbr_part = (rho * m - f) / (m - 1)
    return model.gamma * (cr_part - cbr_part)


# ---------------------------------------------------------------------------
# Variance of the gap under the linear interference model.
# ---------------------------------------------------------------------------


def _eta_moments(m: int, s: int) -> dict[str, float]:
    # Moments of the cluster marks eta_c in {0, +1, -1}: support is a uniform
    # s-subset of m clusters (the cluster-randomized arm), signs a balanced
    # split of the support. All moments are exact.
    if s % 2 != 0:
        raise ValidationError("cluster arm must split into equal treated/control halves")
    m2 = s / m
    m11 = -s / (m * (m - 1))
    m22 = s * (s - 1) / (m * (m - 1))
    m211 = -s * (s - 2) / (m * (m - 1) * (m - 2)) if m > 2 else 0.0
    if s >= 4 and m >= 4:
        m1111 = 3.0 * s * (s - 2) / (m * (m - 1) * (m - 2) * (m - 3))
    else:
        m1111 = 0.0
    d1 = s * (m - s) / (m * (m - 1))
    d11 = -s * (m - s) / (m * (m - 1) * (m - 2)) if m > 2 else 0.0
    return {
        "m2": m2, "m11": m11, "m22": m22, "m211": m211, "m1111": m1111,
        "out1": d1, "out11": d11,
    }


def _eta_quadratic_moments(a: np.ndarray, b: np.ndarray, w: np.ndarray, m: int, s: int) -> tuple[float, float]:
    """Exact mean and variance of ``sum_{x,y} h[x,y] eta_x eta_y``, where
    ``h[x, y]`` sums the weights ``w`` of the links ``x = a[k], y = b[k]``;
    O(M + links), with no M x M matrix."""
    mom = _eta_moments(m, s)
    same = a == b
    diag = np.bincount(a[same], weights=w[same], minlength=m)
    a, b, w_off = a[~same], b[~same], w[~same]
    p2 = float(w_off.sum())
    # Each unordered pair {x, y} holds (h[x, y] + h[y, x]) / 2 twice in the
    # symmetrized matrix.
    _, pair = np.unique(np.minimum(a, b) * m + np.maximum(a, b), return_inverse=True)
    q2 = float(0.5 * (np.bincount(pair, weights=w_off) ** 2).sum())
    rows = (np.bincount(a, weights=w_off, minlength=m) + np.bincount(b, weights=w_off, minlength=m)) / 2.0
    sum_r_sq = float((rows**2).sum())
    diag_sum = float(diag.sum())
    diag_sq = float((diag**2).sum())
    diag_row = float((diag * rows).sum())

    mean = mom["m2"] * diag_sum + mom["m11"] * p2

    t1 = mom["m2"] * diag_sq + mom["m22"] * (diag_sum**2 - diag_sq)
    t2 = 2.0 * (2.0 * diag_row * mom["m11"] + (diag_sum * p2 - 2.0 * diag_row) * mom["m211"])
    share_one = sum_r_sq - q2
    t3 = (
        2.0 * q2 * mom["m22"]
        + 4.0 * share_one * mom["m211"]
        + (p2**2 - 2.0 * q2 - 4.0 * share_one) * mom["m1111"]
    )
    return mean, t1 + t2 + t3 - mean**2


@dataclass(frozen=True)
class InterferenceVarianceEstimate:
    """Predicted design variance of the gap under the linear model.

    ``structural`` carries the interference-driven part (scales with
    ``gamma**2``), ``noise`` the exact observation-noise part; ``variance``
    is their sum. ``expected_delta`` is the exact mean of the gap, from
    :func:`expected_delta_linear`.
    """

    variance: float
    structural: float
    noise: float
    expected_delta: float


def interference_variance_approx(
    model: "LinearInterferenceModel", clustering: Clustering, counts: DesignCounts
) -> InterferenceVarianceEstimate:
    """Predict the design variance of the gap without running the experiment.

    Supported for the symmetric design only (equal arms, half treated in
    each). The direct effect cancels exactly between arms under fixed
    bucket counts, so the structural part is driven by the interference
    coefficient alone; it is computed from exact cluster-split moments of a
    neighborhood mass matrix, treating units inside the individually
    randomized arm as independently assigned (error of relative order
    ``1/n_cr``). The observation-noise part is exact. The graph is the
    model's. A design that ``hierarchical_assign`` refuses is refused here
    too, as is a graph of another N.
    """
    expected_delta = expected_delta_linear(model, clustering, counts)
    c = counts
    if not (c.m_cr == c.m_cbr and c.n_cr_t == c.n_cr_c and c.m_cbr_t == c.m_cbr_c):
        raise ValidationError(
            "variance prediction supports only the symmetric design "
            "(equal arms, half treated within each arm)"
        )
    graph = model.graph
    n = graph.num_units
    m = clustering.num_clusters
    s = c.m_cbr
    assignment = clustering.assignment
    deg = graph.degrees.astype(np.float64)
    nz = deg > 0
    inv_deg = np.zeros(n)
    inv_deg[nz] = 1.0 / deg[nz]

    src = graph.adjacency_sources
    dst = graph.adjacency_indices
    c_src = assignment[src]
    c_dst = assignment[dst]
    w_src = inv_deg[src]

    # Cluster-pair mass of directed neighbor links, g[a, b] = sum 1/d_i over
    # edges i in a -> j in b. Both-cluster-randomized links contribute the
    # quadratic form below; its split variance is exact.
    _, var_g = _eta_quadratic_moments(c_src, c_dst, -w_src, m, s)

    mom = _eta_moments(m, s)

    # Mixed links (one endpoint in each arm): reversed directed edges almost
    # cancel, leaving degree-imbalance weights on cross-arm neighbor pairs.
    diff_mask = c_src != c_dst
    lam = w_src - inv_deg[dst]
    keys = src[diff_mask] * m + c_dst[diff_mask]
    uk, inv = np.unique(keys, return_inverse=True)
    a_vals = np.bincount(inv, weights=lam[diff_mask])
    a_units = uk // m
    row_sum = np.bincount(a_units, weights=a_vals, minlength=n)
    row_sum_sq = np.bincount(a_units, weights=a_vals**2, minlength=n)
    mixed = float(mom["out1"] * row_sum_sq.sum() + mom["out11"] * (row_sum**2 - row_sum_sq).sum())

    # Links with both endpoints in the individually randomized arm: only
    # self- and reverse-pairings survive independent unit coins.
    p_same_cr = (m - s) / m
    p_diff_cr = (m - s) * (m - s - 1) / (m * (m - 1))
    pair_mass = w_src**2 + w_src * inv_deg[dst]
    same_mask = ~diff_mask
    cr_pairs = float(p_same_cr * pair_mass[same_mask].sum() + p_diff_cr * pair_mass[diff_mask].sum())

    var_t = var_g + mixed + cr_pairs
    structural = model.gamma**2 * (4.0 / n**2) * var_t

    noise = model.noise_sd**2 * (
        1.0 / c.n_cr_t
        + 1.0 / c.n_cr_c
        + 1.0 / (c.cluster_size * c.m_cbr_t)
        + 1.0 / (c.cluster_size * c.m_cbr_c)
    )

    return InterferenceVarianceEstimate(
        variance=structural + noise,
        structural=structural,
        noise=noise,
        expected_delta=expected_delta,
    )
