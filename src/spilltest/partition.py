"""Balanced graph clustering, clustering quality metrics, and stratification.

A clustering and a stratification are each a label vector: one group id per
member, every id from 0 up holding enough members. Both are built through
one validator, which derives the group count and sizes from the labels.
Every per-cluster total of a unit vector comes from ``Clustering.cluster_sums``.
Stratification reads plain arrays: ``cluster_features`` returns the
``(M, 2 + k)`` matrix of edge counts and covariates, and
``stratify_clusters`` takes any finite matrix with one row per cluster.

The clusterer is a restreaming linear deterministic greedy: units stream in a
seed-shuffled order and each one joins the cluster holding most of its
neighbors, discounted by how full that cluster already is. Later passes
restream units against the standing assignment, which monotonically tightens
the partition in practice. Neighbor counting runs in numpy, one block of the
stream at a time; Python only scores each unit's candidate clusters, in
stream order, so the blocks change no placement.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from ._errors import ValidationError, check_seed
from ._table import ID, INT, read_id_table, write_table
from .graph import _same_cluster_counts

if TYPE_CHECKING:
    from .graph import Graph

# Units per block of the LDG stream: one numpy gather and count per block.
# On a 10^5-unit planted partition (M = 1000, 2 passes; 2 Xeon cores,
# numpy 2.4) blocks of 128 and 256 took 0.41-0.46 s, 64 took 0.51 s (numpy
# calls per block) and 512-2048 took 0.49-0.55 s (more neighbors streamed
# earlier in their own block, counted in Python).
_LDG_BLOCK = 256


def _set_labels(obj, labels: str, sizes: str, noun: str, min_size: int, short: str) -> None:
    """Set ``obj``'s label vector field ``labels`` read-only, and ``sizes`` to
    its group sizes, once every group ``0..K-1`` holds ``min_size`` members;
    ``short`` words the refusal of the first short group from its id and size."""
    arr = np.asarray(getattr(obj, labels))
    if arr.ndim != 1 or arr.size == 0 or arr.dtype.kind not in "iu":
        raise ValidationError(f"{labels} must be a non-empty 1-d integer array")
    arr = arr.astype(np.int64, copy=False)
    low = int(arr.min())
    if low < 0:
        raise ValidationError(f"negative {noun} id {low}")
    k = int(arr.max()) + 1
    # Groups 0..j can all be full only if (j + 1) * min_size members fill
    # them, so the first short group lies below ``cap``: a label vector with
    # a huge id is refused without one counter per id.
    cap = min(k, len(arr) // min_size + 1)
    counts = np.bincount(arr if cap == k else arr[arr < cap], minlength=cap)
    below = np.flatnonzero(counts < min_size)
    if len(below):
        raise ValidationError(short.format(int(below[0]), int(counts[below[0]])))
    for name, value in ((labels, arr), (sizes, counts)):
        value.setflags(write=False)
        object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class Clustering:
    """Surjective map of units onto clusters ``0..M-1``, every cluster non-empty;
    it holds only the labels, and ``sizes`` and ``num_clusters`` derive from them."""

    assignment: np.ndarray
    sizes: np.ndarray = field(init=False, compare=False)

    def __post_init__(self) -> None:
        short = "every cluster must be non-empty: cluster {} has no units"
        _set_labels(self, "assignment", "sizes", "cluster", 1, short)

    @classmethod
    def from_assignment(cls, assignment: np.ndarray | list[int]) -> "Clustering":
        return cls(assignment)

    @property
    def num_clusters(self) -> int:
        return len(self.sizes)

    @property
    def num_units(self) -> int:
        return len(self.assignment)

    @cached_property
    def is_balanced(self) -> bool:
        return bool(np.all(self.sizes == self.sizes[0]))

    @cached_property
    def _unit_ids(self) -> np.ndarray:
        """``np.arange(N)``, read-only: the default ``unit_ids`` of every
        assignment drawn on this clustering, built once rather than per draw."""
        ids = np.arange(self.num_units)
        ids.setflags(write=False)
        return ids

    @cached_property
    def unit_of_each(self) -> np.ndarray:
        """The id of one unit of each cluster, whichever the scatter of all
        ids keeps; read-only. Built once per clustering: at N = 4000 the
        scatter cost 8.1 us, and a study's kernel reads it once per stack."""
        one = np.empty(self.num_clusters, dtype=np.intp)
        one[self.assignment] = self._unit_ids
        one.setflags(write=False)
        return one

    def cluster_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-cluster sums of one unit vector, or the ``(R, M)`` sums of an
        ``(R, N)`` stack, from one bincount over cluster ids offset by
        ``r * M`` in row r; row r is bit for bit its one-row call."""
        values = np.asarray(values, dtype=np.float64)
        if values.ndim not in (1, 2) or values.shape[-1] != self.num_units:
            raise ValidationError("value vector length does not match unit count")
        rows, m = values.size // self.num_units, self.num_clusters
        ids = self.assignment + m * np.arange(rows)[:, None]
        sums = np.bincount(ids.ravel(), weights=values.ravel(), minlength=rows * m)
        return sums.reshape(values.shape[:-1] + (m,))


@dataclass(frozen=True)
class ClusteringMetrics:
    """Quality summary of a clustering against a graph."""

    rho_c: float
    internal_edge_fraction: float
    balance_ratio: float
    isolated_units: int


@dataclass(frozen=True)
class Stratification:
    """Map of clusters onto strata; every stratum holds at least two clusters. It
    holds only the labels; ``strata_sizes`` and ``num_strata`` derive from them."""

    stratum_of: np.ndarray
    strata_sizes: np.ndarray = field(init=False, compare=False)

    def __post_init__(self) -> None:
        short = "every stratum needs at least two clusters: stratum {} has {}"
        _set_labels(self, "stratum_of", "strata_sizes", "stratum", 2, short)

    @property
    def num_strata(self) -> int:
        return len(self.strata_sizes)


def ldg_restream(
    graph: "Graph",
    num_clusters: int,
    leniency: float = 0.0,
    iterations: int = 1,
    seed: int = 0,
) -> Clustering:
    """Partition a graph into size-capped clusters by restreaming greedy passes.

    Each pass visits units in a fresh seed-shuffled order. A unit scores every
    cluster as ``(neighbors already in the cluster) * (1 - size / capacity)``
    and joins the best non-full one, lowest cluster id on ties, where
    ``capacity = ceil((N / num_clusters) * (1 + leniency))``. Passes after the
    first pull each unit out of its standing cluster and re-place it against
    the current state of the partition.

    Only the clusters holding a unit's neighbors can score above zero. A
    pass streams its order in blocks of ``_LDG_BLOCK`` units: numpy gathers
    a block's adjacency and counts each unit's neighbors per standing
    cluster (its placement in this pass if streamed in an earlier block,
    else its cluster from the previous pass), leaving out the neighbors
    streamed earlier in the same block. Those are counted at the unit's
    visit, under the cluster they have just joined. So every visit sees the
    counts a unit-by-unit stream gives it, and since a choice depends only
    on those counts and the sizes at the visit, blocks change no placement.
    The visit scores each candidate cluster; when none has room it takes the
    lowest-id non-full cluster, which only moves up within a pass. A pass
    costs O(N + E) numpy work plus one Python step per distinct candidate
    cluster of each unit. Parking, below, adds one sort of the labels and
    O(M) per empty cluster, and runs only when a cluster is left empty.

    Deterministic given ``seed``.
    """
    n = graph.num_units
    m = num_clusters
    if m < 1:
        raise ValidationError("need at least one cluster")
    if m > n:
        raise ValidationError(f"cannot build {m} non-empty clusters from {n} units")
    if not (math.isfinite(leniency) and leniency >= 0):
        raise ValidationError(f"leniency={leniency} must be a finite non-negative number")
    if iterations < 1:
        raise ValidationError("need at least one streaming pass")
    check_seed(seed)
    size_cap = (n / m) * (1.0 + leniency)
    if not math.isfinite(size_cap):
        raise ValidationError(f"leniency={leniency} leaves no finite cluster capacity")
    # size_cap >= fl(n / m), so capacity * m >= n for any n below 2**53.
    capacity = math.ceil(size_cap)

    rng = np.random.default_rng(seed)
    indptr = graph.adjacency_indptr
    indices = graph.adjacency_indices
    degrees = graph.degrees
    # Keep the fill penalty as size * (-1 / capacity) + 1: an algebraically
    # equal form rounds differently and can change which cluster wins a tie.
    neg_inv_capacity = -1.0 / capacity
    # A unit's standing cluster: its placement in this pass once its block
    # is streamed, else its cluster from the previous pass, else -1. Each
    # pass refills capacity from zero.
    standing = np.full(n, -1, dtype=np.int64)
    rank = np.empty(n, dtype=np.int64)
    for _ in range(iterations):
        sizes = [0] * m
        first_open = 0
        order = rng.permutation(n)
        rank[order] = np.arange(n)
        for start in range(0, n, _LDG_BLOCK):
            units = order[start : start + _LDG_BLOCK]
            lens = degrees[units]
            owner = np.repeat(np.arange(len(units)), lens)
            offsets = np.cumsum(lens) - lens
            nbrs = indices[np.repeat(indptr[units] - offsets, lens) + np.arange(len(owner))]
            nbr_pos = rank[nbrs] - start
            early = (nbr_pos >= 0) & (nbr_pos < owner)
            cur = standing[nbrs]
            counted = ~early & (cur >= 0)
            keys, key_counts = np.unique(owner[counted] * m + cur[counted], return_counts=True)
            key_owner, key_cluster = np.divmod(keys, m)
            ends = np.cumsum(np.bincount(key_owner, minlength=len(units))).tolist()
            candidates = list(zip(key_cluster.tolist(), key_counts.tolist()))
            # A neighbor streamed earlier in this block is counted at the
            # visit, under the cluster it has just joined.
            earlier: dict[int, list[int]] = {}
            for p, q in zip(owner[early].tolist(), nbr_pos[early].tolist()):
                earlier.setdefault(p, []).append(q)
            placed: list[int] = []
            lo = 0
            for p, hi in enumerate(ends):
                pairs = candidates[lo:hi]
                lo = hi
                if p in earlier:
                    counts = dict(pairs)
                    for q in earlier[p]:
                        c = placed[q]
                        counts[c] = counts.get(c, 0) + 1
                    pairs = counts.items()
                best = -1
                best_score = 0.0
                for c, k in pairs:
                    size = sizes[c]
                    if size >= capacity:
                        continue
                    score = k * (size * neg_inv_capacity + 1.0)
                    if score > best_score or (score == best_score and c < best):
                        best = c
                        best_score = score
                if best < 0:
                    # Every non-full cluster scores zero; take the lowest id.
                    while sizes[first_open] >= capacity:
                        first_open += 1
                    best = first_open
                placed.append(best)
                sizes[best] += 1
            standing[units] = placed
    # The last pass counted the sizes of the assignment it leaves.
    assignment = standing
    sizes = np.array(sizes, dtype=np.int64)

    # Greedy passes can leave clusters empty on degenerate inputs; park one
    # spare unit in each empty cluster so the Clustering invariant holds.
    # Each donor gives its lowest-id remaining unit; no unit moves into a
    # donor (a parked cluster holds one unit, and the largest holds two or
    # more), so one stable sort of the labels lists every donor's units.
    empty = np.flatnonzero(sizes == 0)
    if len(empty):
        members = np.argsort(assignment, kind="stable")
        next_member = np.cumsum(sizes) - sizes
        for c in empty.tolist():
            donor = int(np.argmax(sizes))
            assignment[members[next_member[donor]]] = c
            next_member[donor] += 1
            sizes[donor] -= 1
            sizes[c] += 1
    return Clustering(assignment)


def rebalance(graph: "Graph", clustering: Clustering) -> Clustering:
    """Force exactly equal cluster sizes by relocating weakly attached units.

    Requires ``N % M == 0``. Repeatedly takes, from an oversized cluster, the
    unit with the fewest neighbors inside it (lowest unit id on ties) and
    moves it to the undersized cluster where it has the most neighbors
    (lowest cluster id on ties). The analysis stage requires the resulting
    exact balance.

    In-cluster neighbor counts are computed once and kept current as units
    leave; a heap of ``(count, unit id)`` over the units of oversized
    clusters yields each mover. A destination is never oversized, so no unit
    moves twice and the moves equal the total excess. Cost:
    O((N + E + moves * M) log N).
    """
    n = clustering.num_units
    m = clustering.num_clusters
    if graph.num_units != n:
        raise ValidationError(f"clustering covers {n} units but the graph has {graph.num_units}")
    if n % m != 0:
        raise ValidationError(f"cannot balance {n} units over {m} clusters exactly")
    target = n // m
    oversized = np.flatnonzero(clustering.sizes > target)
    if len(oversized) == 0:
        return clustering
    assignment = clustering.assignment.copy()
    sizes = clustering.sizes.copy()
    conn = _same_cluster_counts(graph, assignment)
    candidates = np.flatnonzero(np.isin(assignment, oversized))
    # Entries go stale when a unit's count drops (a fresher one is pushed)
    # or its cluster reaches the target; both are skipped on pop.
    heap = list(zip(conn[candidates].tolist(), candidates.tolist()))
    heapq.heapify(heap)
    while heap:
        unit_conn, unit = heapq.heappop(heap)
        origin = assignment[unit]
        if sizes[origin] <= target or unit_conn != conn[unit]:
            continue
        nbrs = graph.neighbors(unit)
        nbr_clusters = assignment[nbrs]
        under = np.flatnonzero(sizes < target)
        gains = np.bincount(nbr_clusters, minlength=m)[under]
        dest = int(under[np.argmax(gains)])
        assignment[unit] = dest
        sizes[origin] -= 1
        sizes[dest] += 1
        if sizes[origin] > target:
            for j in nbrs[nbr_clusters == origin].tolist():
                conn[j] -= 1
                heapq.heappush(heap, (int(conn[j]), j))
    return Clustering(assignment)


def clustering_metrics(graph: "Graph", clustering: Clustering) -> ClusteringMetrics:
    """Compute quality metrics of a clustering on its graph."""
    if clustering.num_units != graph.num_units:
        raise ValidationError("clustering does not cover the graph")
    same = _same_cluster_counts(graph, clustering.assignment)
    total = graph.num_edges
    internal = int(same.sum()) // 2
    return ClusteringMetrics(
        # The mean of neighborhood_fractions, from the same counts.
        rho_c=float((same / np.maximum(graph.degrees, 1)).mean()),
        internal_edge_fraction=(internal / total) if total else 0.0,
        balance_ratio=float(clustering.sizes.max() / clustering.sizes.min()),
        isolated_units=int(np.count_nonzero(graph.degrees == 0)),
    )


def cluster_features(
    graph: "Graph", clustering: Clustering, covariates: np.ndarray | None = None
) -> np.ndarray:
    """The ``(M, 2 + k)`` float64 matrix :func:`stratify_clusters` reads: each
    cluster's internal edge count, its boundary edge count, then its ``k``
    covariates, given as ``(M,)`` (one column) or ``(M, k)``."""
    m = clustering.num_clusters
    same = _same_cluster_counts(graph, clustering.assignment)
    edges = clustering.cluster_sums(np.stack([same, graph.degrees - same]))
    # Each internal edge counts from both ends, so the first sum is even and,
    # below 2**53, exact in float64.
    edges[0] //= 2
    cov = np.empty((m, 0)) if covariates is None else np.asarray(covariates, dtype=np.float64)
    if cov.ndim == 1:
        cov = cov[:, None]
    if cov.ndim != 2 or cov.shape[0] != m:
        raise ValidationError("covariates must have one row per cluster")
    return np.column_stack([edges.T, cov])


def stratify_clusters(features: np.ndarray, num_strata: int, seed: int = 0) -> Stratification:
    """Group clusters into strata of near-equal, preferably even, sizes.

    ``features`` is any finite ``(M, f)`` matrix, one row per cluster, such
    as :func:`cluster_features` returns. Clusters are ranked by a composite
    covariate (the sum of z-scored feature columns) and chunked into
    ``num_strata`` contiguous blocks. Block sizes start at ``M // L`` with
    remainders spread from the first stratum, then single clusters shift
    between adjacent strata to make sizes even where possible. Ties in the
    composite break in seed-shuffled order.
    """
    mat = np.asarray(features, dtype=np.float64)
    if mat.ndim != 2 or not np.isfinite(mat).all():
        raise ValidationError("features must be a 2-d matrix of finite numbers, one row per cluster")
    m = mat.shape[0]
    if num_strata < 1:
        raise ValidationError("need at least one stratum")
    if m < 2 * num_strata:
        raise ValidationError(f"{m} clusters cannot fill {num_strata} strata of >= 2")
    check_seed(seed)
    sd = mat.std(axis=0)
    sd[sd == 0] = 1.0
    composite = ((mat - mat.mean(axis=0)) / sd).sum(axis=1)

    rng = np.random.default_rng(seed)
    shuffled = rng.permutation(m)
    order = shuffled[np.argsort(composite[shuffled], kind="stable")]

    base, rem = divmod(m, num_strata)
    sizes = np.full(num_strata, base, dtype=np.int64)
    sizes[:rem] += 1
    for s in range(num_strata - 1):
        if sizes[s] % 2 == 1 and sizes[s + 1] - 1 >= 2:
            sizes[s] += 1
            sizes[s + 1] -= 1

    stratum_of = np.empty(m, dtype=np.int64)
    stratum_of[order] = np.repeat(np.arange(num_strata), sizes)
    return Stratification(stratum_of)


def save_clustering(clustering: Clustering, path: str | Path) -> None:
    """Persist as CSV with columns ``unit_id,cluster_id``."""
    assignment = clustering.assignment
    write_table(
        path, ["unit_id", "cluster_id"], [list(range(len(assignment))), assignment.tolist()], "%d,%d\r\n"
    )


def load_clustering(path: str | Path) -> Clustering:
    """Read a ``unit_id,cluster_id`` CSV written by :func:`save_clustering`.

    Rows may come in any order; see ``_table`` for the accepted text.

    Raises:
        ValidationError: Naming the file, and the line and field at fault,
            or the cluster id the clustering lacks.
    """
    table = read_id_table(path, {"unit_id": ID, "cluster_id": INT}, empty="empty clustering")
    try:
        return Clustering.from_assignment(table["cluster_id"])
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def save_stratification(strat: Stratification, path: str | Path) -> None:
    """Persist as CSV with columns ``cluster_id,stratum_id``."""
    stratum_of = strat.stratum_of
    write_table(
        path, ["cluster_id", "stratum_id"], [list(range(len(stratum_of))), stratum_of.tolist()], "%d,%d\r\n"
    )


def load_stratification(path: str | Path) -> Stratification:
    """Read a ``cluster_id,stratum_id`` CSV written by :func:`save_stratification`.

    Rows may come in any order; see ``_table`` for the accepted text.

    Raises:
        ValidationError: Naming the file, and the line and field at fault,
            a negative stratum id, or a stratum of fewer than two clusters.
    """
    table = read_id_table(path, {"cluster_id": ID, "stratum_id": INT}, empty="empty stratification")
    try:
        return Stratification(table["stratum_id"])
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
