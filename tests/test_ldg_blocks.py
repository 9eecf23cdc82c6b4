"""LDG's block loop against the per-neighbor loop it replaced.

``partition.ldg_restream`` computes its first pass as a fill in stream order,
without reading the graph. In later passes it counts the standing clusters
of each block of the stream's neighbors with numpy and scores only each
unit's candidate clusters in Python. A neighbor streamed earlier in the same
block is counted at the unit's visit, under the cluster it has just joined.
The reference below is the loop it replaced: every pass, the first included,
fills one dict of neighbor counts per unit, neighbor by neighbor, and a
parking loop rescans every label per empty cluster. The tests hold the two
to the same assignment, bit for bit, across block boundaries. The CI step
"Clusterings keep their bits" runs the CLI ``cluster`` both ways on a
10^5-unit graph, in two configs, through :func:`reference_ldg`.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spilltest
from spilltest import Clustering, Graph, SbmSpec, cli, generate_sbm, ldg_restream, partition
from spilltest._errors import ValidationError, check_seed

BLOCK = partition._LDG_BLOCK


def reference_ldg_restream(
    graph: Graph,
    num_clusters: int,
    leniency: float = 0.0,
    iterations: int = 1,
    seed: int = 0,
) -> Clustering:
    """``partition.ldg_restream`` as a per-neighbor dict loop."""
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
    indptr = graph.adjacency_indptr.tolist()
    indices = graph.adjacency_indices
    # Keep the fill penalty as size * (-1 / capacity) + 1: an algebraically
    # equal form rounds differently and can change which cluster wins a tie.
    neg_inv_capacity = -1.0 / capacity
    # Each pass refills capacity from zero; a unit's neighbors count under
    # their placement from this pass if already streamed, else under the
    # previous pass's assignment.
    previous = [-1] * n
    for _ in range(iterations):
        assignment = [-1] * n
        sizes = [0] * m
        first_open = 0
        for i in rng.permutation(n).tolist():
            counts: dict[int, int] = {}
            for j in indices[indptr[i] : indptr[i + 1]].tolist():
                c = assignment[j]
                if c < 0:
                    c = previous[j]
                if c >= 0:
                    counts[c] = counts.get(c, 0) + 1
            best = -1
            best_score = 0.0
            for c, k in counts.items():
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
            assignment[i] = best
            sizes[best] += 1
        previous = assignment
    # The last pass counted the sizes of the assignment it leaves.
    assignment = np.array(previous, dtype=np.int64)
    sizes = np.array(sizes, dtype=np.int64)

    # Greedy passes can leave clusters empty on degenerate inputs; park one
    # spare unit in each empty cluster so the Clustering invariant holds.
    for c in np.flatnonzero(sizes == 0):
        donor = int(np.argmax(sizes))
        moved = int(np.flatnonzero(assignment == donor)[0])
        assignment[moved] = c
        sizes[donor] -= 1
        sizes[c] += 1
    return Clustering(assignment)


@contextlib.contextmanager
def reference_ldg():
    """Run the package, the CLI's ``cluster`` included, with the reference loop."""
    with pytest.MonkeyPatch.context() as patch:
        for module in (spilltest, partition, cli):
            patch.setattr(module, "ldg_restream", reference_ldg_restream)
        yield


def _same(graph: Graph, m: int, leniency: float, iterations: int, seed: int) -> np.ndarray:
    fast = ldg_restream(graph, m, leniency=leniency, iterations=iterations, seed=seed).assignment
    reference = reference_ldg_restream(graph, m, leniency=leniency, iterations=iterations, seed=seed)
    assert fast.dtype == reference.assignment.dtype
    assert fast.tobytes() == reference.assignment.tobytes()
    return fast


def _random_graph(n: int, num_edges: int, seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, n, size=(num_edges, 2))
    return Graph.from_edges(n, pairs[pairs[:, 0] != pairs[:, 1]])


@pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 3 * BLOCK + 17, 3000])
@pytest.mark.parametrize("leniency", [0.0, 0.05, 0.5, 2.0])
def test_block_loop_equals_the_neighbor_loop_across_blocks(n, leniency):
    g = _random_graph(n, 3 * n, seed=n)
    for m in sorted({1, max(1, n // 40), max(1, n // 7), n}):
        for iterations in (1, 2, 4):
            _same(g, m, leniency, iterations, seed=n + iterations)


@pytest.mark.parametrize("n, m", [(1, 1), (12, 3), (300, 10), (1000, 40), (3000, 1000)])
def test_one_reference_pass_is_a_fill_in_stream_order(n, m):
    # The claim the shipped first pass rests on, checked on the reference
    # loop, which reads the graph: with capacity N / M nothing is parked,
    # and the unit at stream position i lands in cluster i // capacity.
    for seed in range(4):
        g = _random_graph(n, 5 * n, seed=seed)
        fill = np.empty(n, dtype=np.int64)
        fill[np.random.default_rng(seed).permutation(n)] = np.arange(n) // (n // m)
        reference = reference_ldg_restream(g, m, leniency=0.0, iterations=1, seed=seed).assignment
        assert reference.tobytes() == fill.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 400).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
    st.floats(0.0, 8.0),
    st.sampled_from([0.0, 0.05, 0.5, 2.0]),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
# Nine units in four clusters of three: the first pass fills three clusters
# and leaves one empty, so parking runs at leniency 0.
@example((9, 4), 2.0, 0.0, 1, 0)
@example((9, 4), 2.0, 0.0, 3, 5)
def test_shipped_ldg_equals_the_reference_on_random_inputs(n_m, mean_degree, leniency, iterations, seed):
    n, m = n_m
    g = _random_graph(n, int(mean_degree * n / 2), seed=seed)
    _same(g, m, leniency, iterations, seed)


@pytest.mark.parametrize("iterations", [1, 2, 3, 4])
def test_block_loop_equals_the_neighbor_loop_on_block_models(iterations):
    # Dense blocks: many of a unit's neighbors share its block of the stream.
    for spec_seed, (blocks, size) in enumerate([(6, 50), (20, 40), (5, 300)]):
        spec = SbmSpec(num_blocks=blocks, block_size=size, p_intra=0.3, p_inter=0.01, seed=spec_seed)
        g, _ = generate_sbm(spec)
        for leniency in (0.0, 0.05, 1.0):
            _same(g, blocks, leniency, iterations, seed=11 * iterations + spec_seed)


@pytest.mark.parametrize("n", [1, 7, BLOCK, 2 * BLOCK + 1, 1000])
def test_edge_free_graphs_fill_clusters_in_id_order(n):
    g = Graph.from_edges(n, np.empty((0, 2), dtype=np.int64))
    for m in sorted({1, max(1, n // 9), n}):
        for iterations in (1, 3):
            assert Clustering(_same(g, m, 0.0, iterations, seed=n)).sizes.max() == math.ceil(n / m)
            # At leniency 2 the fallback fills clusters of three times the
            # share in id order; every cluster it leaves empty is parked.
            capacity = math.ceil((n / m) * 3.0)
            sizes = Clustering(_same(g, m, 2.0, iterations, seed=n)).sizes
            assert np.count_nonzero(sizes == 1) >= m - math.ceil(n / capacity)


def test_isolated_units_beside_a_dense_core():
    # Units 0..299 form a dense core; 300..899 have no neighbor at all.
    rng = np.random.default_rng(5)
    pairs = rng.integers(0, 300, size=(3000, 2))
    g = Graph.from_edges(900, pairs[pairs[:, 0] != pairs[:, 1]])
    assert np.count_nonzero(g.degrees == 0) >= 600
    for m, leniency in ((9, 0.0), (30, 0.2), (90, 3.0)):
        for iterations in (1, 2, 4):
            _same(g, m, leniency, iterations, seed=m)


@pytest.mark.parametrize("n", [300, 2000])
def test_parking_fills_every_empty_cluster_as_the_rescan_did(n):
    # Leniency 2 lets a dense block fill clusters of 30 units where the share
    # is 10, so the passes leave clusters empty and parking fills each with
    # one unit.
    spec = SbmSpec(num_blocks=n // 100, block_size=100, p_intra=0.5, p_inter=0.0, seed=n)
    g, _ = generate_sbm(spec)
    m = n // 10
    for iterations in (1, 2, 4):
        sizes = Clustering(_same(g, m, 2.0, iterations, seed=iterations)).sizes
        assert np.count_nonzero(sizes == 1) >= m // 2


def test_an_earlier_block_neighbor_counts_under_its_new_cluster():
    # Two cliques joined by a path, all within one block of the stream. In
    # the second pass, a unit whose earlier neighbor in the stream has moved
    # since the first pass must count that neighbor under its new cluster.
    # The test keeps the seeds where that happens and holds both loops equal.
    clique = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    edges = clique + [(i + 6, j + 6) for i, j in clique] + [(5, 12), (12, 13), (13, 6)]
    g = Graph.from_edges(14, edges)
    src, dst = g.adjacency_sources, g.adjacency_indices
    seen = 0
    for seed in range(200):
        first = reference_ldg_restream(g, 2, iterations=1, seed=seed).assignment
        second = _same(g, 2, 0.0, 2, seed)
        rng = np.random.default_rng(seed)
        rng.permutation(14)
        rank = np.empty(14, dtype=np.int64)
        rank[rng.permutation(14)] = np.arange(14)
        moved = first != second
        seen += bool(np.any(moved[dst] & (rank[dst] < rank[src])))
    assert seen > 0


@pytest.mark.parametrize("n", [2, 40, 600])
def test_every_unit_its_own_cluster_and_one_cluster_for_all(n):
    g = _random_graph(n, 4 * n, seed=3)
    assert sorted(_same(g, n, 0.0, 2, seed=1).tolist()) == list(range(n))
    assert not _same(g, 1, 0.0, 3, seed=2).any()


def test_reference_ldg_patches_every_import_path():
    with reference_ldg():
        assert spilltest.ldg_restream is reference_ldg_restream
        assert partition.ldg_restream is reference_ldg_restream
        assert cli.ldg_restream is reference_ldg_restream
    assert partition.ldg_restream is not reference_ldg_restream
