"""Output checks, recomputed from the program's files with plain numpy.

Each check raises :class:`CheckError` on the first discrepancy. None of them
calls the package under test, so a bug there cannot hide itself.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ARM_CR = "cr"
REL_TOL = 1e-9


class CheckError(Exception):
    """An output of the program is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def read_id_map(path: Path) -> np.ndarray:
    """Dense ``value[id]`` from a two-column integer CSV; ids must be 0..n-1 once each."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
    _require(table.shape[1] == 2, f"{path.name}: expected two columns")
    ids = table[:, 0]
    _require(np.array_equal(np.sort(ids), np.arange(len(ids))), f"{path.name}: ids are not 0..n-1 once each")
    out = np.empty(len(ids), dtype=np.int64)
    out[ids] = table[:, 1]
    return out


def read_assignment(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """``(in_cr_arm, treated)`` boolean vectors indexed by unit id."""
    raw = np.loadtxt(path, delimiter=",", skiprows=1, dtype=str, ndmin=2)
    ids = raw[:, 0].astype(np.int64)
    _require(np.array_equal(np.sort(ids), np.arange(len(ids))), f"{path.name}: ids are not 0..n-1 once each")
    arm_ok = np.isin(raw[:, 1], ["cr", "cbr"])
    _require(bool(arm_ok.all()), f"{path.name}: unknown arm label")
    in_cr = np.empty(len(ids), dtype=bool)
    treated = np.empty(len(ids), dtype=bool)
    in_cr[ids] = raw[:, 1] == ARM_CR
    treated[ids] = raw[:, 2].astype(np.int64) == 1
    return in_cr, treated


def read_outcomes(path: Path) -> np.ndarray:
    table = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.float64, ndmin=2)
    y = np.empty(len(table))
    y[table[:, 0].astype(np.int64)] = table[:, 1]
    return y


def rho_c(edges: np.ndarray, num_units: int, cluster_of: np.ndarray) -> float:
    """Mean over units of the share of neighbours in the unit's own cluster."""
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    degree = np.bincount(src, minlength=num_units)
    same = np.bincount(src, weights=cluster_of[src] == cluster_of[dst], minlength=num_units)
    share = np.divide(same, degree, out=np.zeros(num_units), where=degree > 0)
    return float(share.mean())


def _close(actual: float, expected: float, scale: float, what: str) -> None:
    _require(
        abs(actual - expected) <= REL_TOL * max(abs(expected), scale),
        f"{what}: program reports {actual!r}, recomputed {expected!r}",
    )


def check_graph(meta_path: Path, edges_path: Path, blocks_path: Path, spec: dict) -> None:
    """The ``graph`` command wrote the block model it was asked for."""
    meta = json.loads(meta_path.read_text())
    num_units = spec["num_blocks"] * spec["block_size"]
    _require(meta["num_units"] == num_units, f"graph has {meta['num_units']} units, spec asks {num_units}")
    with open(edges_path, "rb") as fh:
        lines = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
    _require(lines - 1 == meta["num_edges"], f"{lines - 1} edge lines, meta says {meta['num_edges']}")
    blocks = read_id_map(blocks_path)
    _require(len(blocks) == num_units, "block map does not cover every unit")
    sizes = np.bincount(blocks)
    _require(bool(np.all(sizes == spec["block_size"])), "block map sizes differ from the spec")


def check_clustering(clusters_path: Path, metrics_path: Path, edges: np.ndarray, num_units: int, num_clusters: int) -> float:
    """Exactly balanced clustering into ``num_clusters``; returns its ``rho_c``."""
    cluster_of = read_id_map(clusters_path)
    _require(len(cluster_of) == num_units, f"clustering covers {len(cluster_of)} of {num_units} units")
    sizes = np.bincount(cluster_of, minlength=num_clusters)
    _require(len(sizes) == num_clusters, f"{len(sizes)} clusters, asked for {num_clusters}")
    _require(bool(np.all(sizes == num_units // num_clusters)), "clusters are not exactly balanced")
    reported = json.loads(metrics_path.read_text())["metrics"]["rho_c"]
    _close(reported, rho_c(edges, num_units, cluster_of), 0.0, "rho_c")
    return reported


def check_strata(strata_path: Path, num_clusters: int, num_strata: int) -> None:
    stratum_of = read_id_map(strata_path)
    _require(len(stratum_of) == num_clusters, "stratification does not cover every cluster")
    sizes = np.bincount(stratum_of)
    _require(len(sizes) == num_strata, f"{len(sizes)} strata, asked for {num_strata}")
    _require(bool(np.all(sizes >= 2)), "a stratum holds fewer than two clusters")


def _strata_clusters(strata_path: Path | None, num_clusters: int) -> list[np.ndarray]:
    if strata_path is None:
        return [np.arange(num_clusters)]
    stratum_of = read_id_map(strata_path)
    return [np.flatnonzero(stratum_of == s) for s in range(int(stratum_of.max()) + 1)]


def check_assignment(assignment_path: Path, clusters_path: Path, strata_path: Path | None, counts_path: Path) -> None:
    """Each cluster sits in one arm, cluster-arm clusters are treated whole,
    and the bucket counts match the counts JSON, stratum by stratum."""
    cluster_of = read_id_map(clusters_path)
    in_cr, treated = read_assignment(assignment_path)
    _require(len(in_cr) == len(cluster_of), "assignment does not cover every unit")
    m = int(cluster_of.max()) + 1
    cr_units = np.bincount(cluster_of, weights=in_cr, minlength=m)
    size = np.bincount(cluster_of, minlength=m)
    _require(bool(np.all((cr_units == 0) | (cr_units == size))), "a cluster spans both arms")
    cluster_cr = cr_units == size
    treated_units = np.bincount(cluster_of, weights=treated, minlength=m)
    whole = (treated_units == 0) | (treated_units == size)
    _require(bool(np.all(whole | cluster_cr)), "a cluster-randomized cluster is treated in part")

    payload = json.loads(counts_path.read_text())["counts"]
    expected = payload["strata"] if "strata" in payload else [payload]
    groups = _strata_clusters(strata_path, m)
    _require(len(groups) == len(expected), "counts JSON and stratification disagree on strata")
    for s, (clusters, counts) in enumerate(zip(groups, expected)):
        units = np.isin(cluster_of, clusters)
        cbr_clusters = clusters[~cluster_cr[clusters]]
        found = {
            "n_cr": int(np.count_nonzero(units & in_cr)),
            "n_cr_t": int(np.count_nonzero(units & in_cr & treated)),
            "n_cbr": int(np.count_nonzero(units & ~in_cr)),
            "m_cr": int(np.count_nonzero(cluster_cr[clusters])),
            "m_cbr": len(cbr_clusters),
            "m_cbr_t": int(np.count_nonzero(treated_units[cbr_clusters] > 0)),
        }
        for key, value in found.items():
            _require(value == counts[key], f"stratum {s}: {key} is {value}, counts JSON says {counts[key]}")


def _sample_var(x: np.ndarray) -> float:
    return float(np.var(x, ddof=1))


def expected_report(assignment_path: Path, clusters_path: Path, strata_path: Path | None, outcomes_path: Path) -> tuple[float, float]:
    """``(delta, sigma_hat_sq)`` of the stratified test, from the CSVs alone.

    Per stratum: the unit arm's difference in means, minus ``m_cbr / n_cbr``
    times the treated-minus-control mean of cluster totals in the cluster arm,
    with the matching plug-in variance bound. Strata pool with weights
    ``M(s) / M`` on the gap and their squares on the bound.
    """
    cluster_of = read_id_map(clusters_path)
    in_cr, treated = read_assignment(assignment_path)
    y = read_outcomes(outcomes_path)
    m = int(cluster_of.max()) + 1
    totals = np.bincount(cluster_of, weights=y, minlength=m)
    cluster_cr = np.bincount(cluster_of, weights=in_cr, minlength=m) > 0
    cluster_treated = np.bincount(cluster_of, weights=treated, minlength=m) > 0
    delta = sigma = 0.0
    for clusters in _strata_clusters(strata_path, m):
        units = np.isin(cluster_of, clusters)
        y_t = y[units & in_cr & treated]
        y_c = y[units & in_cr & ~treated]
        cbr = clusters[~cluster_cr[clusters]]
        yp_t = totals[cbr[cluster_treated[cbr]]]
        yp_c = totals[cbr[~cluster_treated[cbr]]]
        scale = len(cbr) / int(np.count_nonzero(units & ~in_cr))
        gap = (y_t.mean() - y_c.mean()) - scale * (yp_t.mean() - yp_c.mean())
        bound = (
            _sample_var(y_t) / len(y_t) + _sample_var(y_c) / len(y_c)
            + scale**2 * (_sample_var(yp_t) / len(yp_t) + _sample_var(yp_c) / len(yp_c))
        )
        weight = len(clusters) / m
        delta += weight * gap
        sigma += weight**2 * bound
    return delta, sigma


def check_report(report_path: Path, assignment_path: Path, clusters_path: Path, strata_path: Path | None, outcomes_path: Path) -> None:
    report = json.loads(report_path.read_text())["report"]
    delta, sigma = expected_report(assignment_path, clusters_path, strata_path, outcomes_path)
    _close(report["sigma_hat_sq"], sigma, 0.0, "sigma_hat_sq")
    # A gap near zero is compared on the scale of its standard error.
    _close(report["delta"], delta, math.sqrt(sigma), "delta")


@dataclass(frozen=True)
class PooledRow:
    setting: int
    gamma: float
    replications: int
    rejection_rate: float
    rate_se: float
    ratio_mean: float
    ratio_se: float


def pool_rows(rows) -> list[PooledRow]:
    """Pool the rows of several study reports grid point by grid point.

    Rejection rates pool by counts and get the binomial standard error of
    the pooled count; ratio means pool by replications, their standard
    errors in quadrature.
    """
    groups: dict[tuple[int, float], list] = {}
    for row in rows:
        groups.setdefault((row.setting, row.gamma), []).append(row)
    pooled = []
    for (setting, gamma), group in sorted(groups.items()):
        n = sum(r.replications for r in group)
        rate = sum(r.rejection_rate * r.replications for r in group) / n
        ratio = sum(r.ratio_mean * r.replications for r in group) / n
        ratio_se = math.sqrt(sum((r.mc_se * r.replications) ** 2 for r in group)) / n
        pooled.append(PooledRow(setting, gamma, n, rate, math.sqrt(rate * (1 - rate) / n), ratio, ratio_se))
    return pooled


def check_power(rows: list[PooledRow], alpha: float) -> None:
    """Null rows reject at most ``alpha + 3 SE``; power rises with gamma
    within three combined Monte Carlo standard errors."""
    for row in rows:
        if row.gamma == 0.0:
            se = math.sqrt(alpha * (1 - alpha) / row.replications)
            _require(row.rejection_rate <= alpha + 3 * se, f"setting {row.setting}: null rejection rate {row.rejection_rate}")
    for setting in {r.setting for r in rows}:
        series = [r for r in rows if r.setting == setting]
        for lo, hi in zip(series, series[1:]):
            slack = 3 * math.hypot(lo.rate_se, hi.rate_se)
            _require(
                hi.rejection_rate >= lo.rejection_rate - slack,
                f"setting {setting}: power falls from {lo.rejection_rate} at gamma={lo.gamma} "
                f"to {hi.rejection_rate} at gamma={hi.gamma}",
            )


def check_ratio(rows: list[PooledRow]) -> None:
    """Constant effects make the bound exact in expectation: mean ratio 1 within 4 SE."""
    (row,) = rows
    _require(abs(row.ratio_mean - 1.0) <= 4 * row.ratio_se, f"ratio_mean {row.ratio_mean} is not 1 within 4 SE ({row.ratio_se})")
