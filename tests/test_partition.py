import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spilltest import (
    Clustering,
    Graph,
    ValidationError,
    cluster_features,
    clustering_metrics,
    generate_sbm,
    ldg_restream,
    neighborhood_fractions,
    rebalance,
    SbmSpec,
    stratify_clusters,
)
from spilltest.partition import (
    Stratification,
    load_clustering,
    load_stratification,
    save_clustering,
    save_stratification,
)


def _neighborhood_fraction_in_cluster(graph, clustering, i):
    """Fraction of unit ``i``'s neighbors that share its cluster, 0 for an
    isolated unit: the per-unit reference for ``neighborhood_fractions``."""
    nbrs = graph.neighbors(i)
    if len(nbrs) == 0:
        return 0.0
    own = clustering.assignment[i]
    return float(np.count_nonzero(clustering.assignment[nbrs] == own)) / len(nbrs)


def brute_force_best_balanced_split(graph):
    """Enumerate all balanced 2-partitions; return (best internal count, splits)."""
    n = graph.num_units
    edges = [tuple(e) for e in graph.edge_array().tolist()]
    best, winners = -1, []
    for side in itertools.combinations(range(n), n // 2):
        side = set(side)
        if 0 not in side:
            continue  # fix unit 0's side to halve the search
        internal = sum((i in side) == (j in side) for i, j in edges)
        if internal > best:
            best, winners = internal, [side]
        elif internal == best:
            winners.append(side)
    return best, winners


def test_clique_split_is_unique_optimum(cliquepair_graph):
    best, winners = brute_force_best_balanced_split(cliquepair_graph)
    assert best == 12
    assert winners == [{0, 1, 2, 3}]


def test_ldg_recovers_cliques(cliquepair_graph):
    clustering = ldg_restream(cliquepair_graph, 2, leniency=0.0, iterations=3, seed=0)
    metrics = clustering_metrics(cliquepair_graph, clustering)
    assert metrics.internal_edge_fraction >= 12 / 13
    assert clustering.sizes.tolist() == [4, 4]


def test_ldg_empty_graph_balances():
    g = Graph.from_edges(8, [])
    clustering = ldg_restream(g, 4, seed=1)
    assert sorted(clustering.sizes.tolist()) == [2, 2, 2, 2]


def test_ldg_respects_capacity():
    rng = np.random.default_rng(0)
    for trial in range(5):
        n, m = 30, 4
        pairs = [(int(a), int(b)) for a, b in rng.integers(0, n, size=(60, 2)) if a != b]
        g = Graph.from_edges(n, pairs)
        for leniency in (0.0, 0.01, 0.25):
            capacity = int(np.ceil((n / m) * (1 + leniency)))
            clustering = ldg_restream(g, m, leniency=leniency, iterations=2, seed=trial)
            assert clustering.sizes.max() <= capacity


def test_ldg_validation():
    g = Graph.from_edges(4, [(0, 1)])
    with pytest.raises(ValidationError):
        ldg_restream(g, 5)
    with pytest.raises(ValidationError):
        ldg_restream(g, 2, leniency=-0.1)
    with pytest.raises(ValidationError):
        ldg_restream(g, 2, iterations=0)
    with pytest.raises(ValidationError):
        ldg_restream(g, 0)


def test_restream_does_not_degrade_clique_benchmark(cliquepair_graph):
    two = ldg_restream(cliquepair_graph, 2, iterations=2, seed=5)
    three = ldg_restream(cliquepair_graph, 2, iterations=3, seed=5)
    f2 = clustering_metrics(cliquepair_graph, two).internal_edge_fraction
    f3 = clustering_metrics(cliquepair_graph, three).internal_edge_fraction
    assert f3 >= f2


def test_ldg_deterministic_per_seed(cliquepair_graph):
    a = ldg_restream(cliquepair_graph, 2, iterations=3, seed=9)
    b = ldg_restream(cliquepair_graph, 2, iterations=3, seed=9)
    assert np.array_equal(a.assignment, b.assignment)


def test_rebalance_equalizes_sizes():
    g, _ = generate_sbm(SbmSpec(num_blocks=4, block_size=8, p_intra=0.5, p_inter=0.05, seed=2))
    lenient = ldg_restream(g, 4, leniency=0.3, iterations=2, seed=3)
    balanced = rebalance(g, lenient)
    assert balanced.is_balanced
    assert balanced.sizes.tolist() == [8, 8, 8, 8]


def test_rebalance_requires_divisible():
    g = Graph.from_edges(5, [(0, 1)])
    c = Clustering.from_assignment([0, 0, 0, 1, 1])
    with pytest.raises(ValidationError):
        rebalance(g, c)


def test_rebalance_rejects_mismatched_graph():
    g = Graph.from_edges(6, [(0, 1), (4, 5)])
    c = Clustering.from_assignment([0, 0, 0, 1])
    with pytest.raises(ValidationError, match="graph has 6"):
        rebalance(g, c)


def _reference_ldg(graph, num_clusters, leniency, iterations, seed):
    """LDG scoring every cluster for every unit: O(M) numpy work per visit."""
    n, m = graph.num_units, num_clusters
    capacity = int(np.ceil((n / m) * (1.0 + leniency)))
    rng = np.random.default_rng(seed)
    previous = np.full(n, -1, dtype=np.int64)
    assignment = np.full(n, -1, dtype=np.int64)
    fill_penalty = np.empty(m, dtype=np.float64)
    for _ in range(iterations):
        assignment.fill(-1)
        sizes = np.zeros(m, dtype=np.int64)
        for i in rng.permutation(n):
            nbrs = graph.neighbors(i)
            nbr_clusters = np.where(assignment[nbrs] >= 0, assignment[nbrs], previous[nbrs])
            counts = np.bincount(nbr_clusters[nbr_clusters >= 0], minlength=m)
            np.multiply(sizes, -1.0 / capacity, out=fill_penalty)
            fill_penalty += 1.0
            scores = counts * fill_penalty
            scores[sizes >= capacity] = -np.inf
            best = int(np.argmax(scores))
            assignment[i] = best
            sizes[best] += 1
        previous, assignment = assignment, previous
    assignment = previous
    sizes = np.bincount(assignment, minlength=m)
    for c in np.flatnonzero(sizes == 0):
        donor = int(np.argmax(sizes))
        moved = int(np.flatnonzero(assignment == donor)[0])
        assignment[moved] = c
        sizes[donor] -= 1
        sizes[c] += 1
    return assignment


def _reference_rebalance(graph, clustering):
    """Rebalance rescanning every unit of every oversized cluster per move."""
    m = clustering.num_clusters
    target = clustering.num_units // m
    assignment = clustering.assignment.copy()
    sizes = clustering.sizes.copy()
    while True:
        over = np.flatnonzero(sizes > target)
        if len(over) == 0:
            return assignment
        under = np.flatnonzero(sizes < target)
        best_unit, best_conn = -1, None
        for c in over:
            for i in np.flatnonzero(assignment == c):
                conn = int(np.count_nonzero(assignment[graph.neighbors(int(i))] == c))
                if best_conn is None or conn < best_conn or (conn == best_conn and i < best_unit):
                    best_conn, best_unit = conn, int(i)
        gains = np.bincount(assignment[graph.neighbors(best_unit)], minlength=m)[under]
        dest = int(under[np.argmax(gains)])
        sizes[assignment[best_unit]] -= 1
        assignment[best_unit] = dest
        sizes[dest] += 1


@settings(max_examples=60, deadline=None)
@given(
    num_blocks=st.integers(2, 6),
    block_size=st.integers(2, 10),
    p_intra=st.floats(0.0, 1.0),
    p_inter=st.floats(0.0, 0.3),
    graph_seed=st.integers(0, 1000),
    cluster_pick=st.integers(0, 100),
    leniency=st.floats(0.0, 1.5),
    iterations=st.integers(1, 4),
    seed=st.integers(0, 1000),
)
def test_partition_matches_reference_rules(
    num_blocks, block_size, p_intra, p_inter, graph_seed, cluster_pick, leniency, iterations, seed
):
    spec = SbmSpec(num_blocks=num_blocks, block_size=block_size, p_intra=p_intra, p_inter=p_inter, seed=graph_seed)
    g, _ = generate_sbm(spec)
    n = g.num_units
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    m = divisors[cluster_pick % len(divisors)]
    lenient = ldg_restream(g, m, leniency=leniency, iterations=iterations, seed=seed)
    assert np.array_equal(lenient.assignment, _reference_ldg(g, m, leniency, iterations, seed))

    balanced = rebalance(g, lenient)
    assert np.array_equal(balanced.assignment, _reference_rebalance(g, lenient))
    target = n // m
    moved = np.flatnonzero(balanced.assignment != lenient.assignment)
    assert len(moved) == int(np.maximum(lenient.sizes - target, 0).sum())
    # Every mover left an oversized cluster for one that started under target.
    assert np.all(lenient.sizes[lenient.assignment[moved]] > target)
    assert np.all(lenient.sizes[balanced.assignment[moved]] < target)


def test_clustering_invariants():
    with pytest.raises(ValidationError):
        Clustering.from_assignment([0, 2, 2])  # cluster 1 empty
    c = Clustering.from_assignment([0, 1, 0, 1])
    assert c.is_balanced
    assert c.cluster_sums(np.array([1.0, 2.0, 3.0, 4.0])).tolist() == [4.0, 6.0]
    for wrong in (np.ones(3), np.ones((2, 5)), np.ones((1, 1, 4))):
        with pytest.raises(ValidationError, match="^value vector length does not match unit count$"):
            c.cluster_sums(wrong)


def test_metrics_single_cluster(cliquepair_graph):
    c = Clustering.from_assignment([0] * 8)
    m = clustering_metrics(cliquepair_graph, c)
    assert m.rho_c == 1.0
    assert m.internal_edge_fraction == 1.0
    assert m.balance_ratio == 1.0
    assert m.isolated_units == 0


def test_metrics_refuse_a_graph_of_another_size(cliquepair_graph):
    with pytest.raises(ValidationError, match="^clustering does not cover the graph$"):
        clustering_metrics(cliquepair_graph, Clustering.from_assignment([0, 0, 1, 1]))


def test_metrics_singletons(cliquepair_graph):
    c = Clustering.from_assignment(list(range(8)))
    m = clustering_metrics(cliquepair_graph, c)
    assert m.rho_c == 0.0
    assert m.internal_edge_fraction == 0.0


def test_metrics_clique_split(cliquepair_graph):
    c = Clustering.from_assignment([0, 0, 0, 0, 1, 1, 1, 1])
    m = clustering_metrics(cliquepair_graph, c)
    assert m.internal_edge_fraction == pytest.approx(12 / 13)


def test_metrics_match_per_unit_brute_force():
    g, _ = generate_sbm(SbmSpec(num_blocks=5, block_size=8, p_intra=0.3, p_inter=0.08, seed=21))
    c = ldg_restream(g, 5, iterations=2, seed=4)
    m = clustering_metrics(g, c)
    brute = [_neighborhood_fraction_in_cluster(g, c, i) for i in range(g.num_units)]
    assert neighborhood_fractions(g, c).tolist() == pytest.approx(brute, abs=1e-15)
    assert m.rho_c == pytest.approx(float(np.mean(brute)), abs=1e-12)


def test_stratify_single_stratum(cliquepair_graph):
    c = Clustering.from_assignment([0, 0, 1, 1, 2, 2, 3, 3])
    features = cluster_features(cliquepair_graph, c)
    strat = stratify_clusters(features, 1, seed=0)
    assert strat.num_strata == 1
    assert strat.stratum_of.tolist() == [0, 0, 0, 0]


def test_stratify_sorts_and_chunks():
    features = cluster_features(
        Graph.from_edges(4, []),
        Clustering.from_assignment([0, 1, 2, 3]),
        covariates=np.array([[3.0], [1.0], [4.0], [2.0]]),
    )
    strat = stratify_clusters(features, 2, seed=0)
    # Clusters sorted by covariate (1, 2, 3, 4) -> strata {1, 3} and {0, 2}.
    assert strat.stratum_of.tolist() == [1, 0, 1, 0]


def test_cluster_features_covariates_have_one_row_per_cluster():
    # A vector is one column. A table of M+1 rows and M columns is refused,
    # not transposed into M rows of M+1 covariates.
    graph, clustering = Graph.from_edges(4, []), Clustering.from_assignment([0, 1, 2, 3])
    features = cluster_features(graph, clustering, covariates=np.array([3.0, 1.0, 4.0, 2.0]))
    assert features[:, 2:].tolist() == [[3.0], [1.0], [4.0], [2.0]]
    with pytest.raises(ValidationError, match="covariates must have one row per cluster"):
        cluster_features(graph, clustering, covariates=np.ones((5, 4)))


def test_stratify_requires_two_clusters_per_stratum():
    features = cluster_features(Graph.from_edges(4, []), Clustering.from_assignment([0, 1, 2, 3]))
    with pytest.raises(ValidationError):
        stratify_clusters(features, 3)
    with pytest.raises(ValidationError, match="^need at least one stratum$"):
        stratify_clusters(features, 0)


@pytest.mark.parametrize("features", [np.ones(8), np.ones((2, 4, 1)), [[0.0, 1.0]] * 3 + [[np.nan, 1.0]],
                                      [[0.0, 1.0]] * 3 + [[np.inf, 1.0]]])
def test_stratify_refuses_features_that_are_not_a_finite_matrix(features):
    with pytest.raises(ValidationError, match="^features must be a 2-d matrix of finite numbers"):
        stratify_clusters(features, 2)


def test_stratify_takes_any_finite_matrix():
    # Integer rows are read as floats; a matrix of no columns ranks every
    # cluster alike, so the seed alone orders them.
    ints = stratify_clusters(np.array([[3], [1], [4], [2]]), 2, seed=0)
    assert ints.stratum_of.tolist() == [1, 0, 1, 0]
    assert stratify_clusters(np.empty((6, 0)), 3, seed=1).strata_sizes.tolist() == [2, 2, 2]


@pytest.mark.parametrize(
    "design, with_covariates, labels",
    [
        ("clique", False, [0, 1, 1, 0]),
        ("clique", True, [0, 1, 0, 1]),
        ("sbm", False, [3, 2, 0, 0, 1, 3, 0, 4, 1, 4, 2, 0]),
        ("sbm", True, [0, 3, 0, 2, 1, 4, 1, 4, 0, 3, 2, 0]),
    ],
)
def test_stratum_labels_are_pinned(cliquepair_graph, design, with_covariates, labels):
    # Labels pinned from an earlier implementation that kept the features
    # as separate columns: the matrix must rank, chunk and break ties as it did.
    if design == "clique":
        graph, clustering, strata, seed = cliquepair_graph, Clustering.from_assignment([0, 0, 1, 1, 2, 2, 3, 3]), 2, 3
    else:
        graph, clustering = generate_sbm(SbmSpec(num_blocks=12, block_size=5, p_intra=0.5, p_inter=0.05, seed=3))
        strata, seed = 5, 2
    m = clustering.num_clusters
    covariates = (np.arange(m)[:, None] * [7, 3, 5]) % [11, 4, 9] if with_covariates else None
    features = cluster_features(graph, clustering, covariates)
    assert features.dtype == np.float64 and features.shape == (m, 5 if with_covariates else 2)
    assert stratify_clusters(features, strata, seed=seed).stratum_of.tolist() == labels


@settings(max_examples=30, deadline=None)
@given(
    num_clusters=st.integers(4, 24),
    num_strata=st.integers(1, 4),
    seed=st.integers(0, 10),
)
def test_stratify_partition_property(num_clusters, num_strata, seed):
    if num_clusters < 2 * num_strata:
        return
    rng = np.random.default_rng(seed)
    features = cluster_features(
        Graph.from_edges(num_clusters, []),
        Clustering.from_assignment(list(range(num_clusters))),
        covariates=rng.normal(size=(num_clusters, 2)),
    )
    strat = stratify_clusters(features, num_strata, seed=seed)
    # Every cluster in exactly one stratum, every stratum >= 2 clusters.
    assert strat.strata_sizes.sum() == num_clusters
    assert strat.strata_sizes.min() >= 2
    counts = np.bincount(strat.stratum_of, minlength=num_strata)
    assert np.array_equal(counts, strat.strata_sizes)
    # Sizes are even whenever the total allows all-even strata.
    if num_clusters % 2 == 0:
        assert int((strat.strata_sizes % 2).sum()) in (0, 2) or num_strata == 1
        if num_strata <= num_clusters // 2:
            assert np.all(strat.strata_sizes % 2 == 0) or (strat.strata_sizes % 2).sum() == 2


def test_cluster_features_edge_counts(cliquepair_graph):
    c = Clustering.from_assignment([0, 0, 0, 0, 1, 1, 1, 1])
    f = cluster_features(cliquepair_graph, c)
    assert f.dtype == np.float64
    # Internal edge counts, then boundary edge counts.
    assert f.tolist() == [[6.0, 1.0], [6.0, 1.0]]


def test_clustering_csv_round_trip(tmp_path):
    c = Clustering.from_assignment([0, 1, 1, 0, 2, 2])
    path = tmp_path / "c.csv"
    save_clustering(c, path)
    loaded = load_clustering(path)
    assert np.array_equal(loaded.assignment, c.assignment)


def test_stratification_csv_round_trip(tmp_path):
    features = cluster_features(Graph.from_edges(6, []), Clustering.from_assignment(list(range(6))))
    strat = stratify_clusters(features, 2, seed=1)
    path = tmp_path / "s.csv"
    save_stratification(strat, path)
    loaded = load_stratification(path)
    assert np.array_equal(loaded.stratum_of, strat.stratum_of)


def test_ids_past_the_row_count_name_the_first_short_group(tmp_path):
    # Ids of 10^17 are refused without one counter per id, with the message
    # the dense count would give.
    for small, huge, empty in (([0, 2, 2], [0, 2, 10**17], 1), ([0, 1, 3, 3], [0, 1, 3, 10**17], 2)):
        for assignment in (small, huge):
            with pytest.raises(ValidationError, match=f"cluster {empty} has no units"):
                Clustering.from_assignment(assignment)
    for last, message in ((3, "stratum 0 has 1"), (10**17, "stratum 0 has 1")):
        path = tmp_path / "s.csv"
        path.write_text(f"cluster_id,stratum_id\n0,0\n1,1\n2,1\n3,{last}\n")
        with pytest.raises(ValidationError, match=message):
            load_stratification(path)
    path.write_text(f"cluster_id,stratum_id\n0,0\n1,0\n2,1\n3,1\n4,{10**17}\n")
    with pytest.raises(ValidationError, match="stratum 2 has 0"):
        load_stratification(path)


# Label vectors with gaps, negative ids, a huge id, groups of one member,
# and vectors that are empty or 2-d.
SMALL_LABELS = st.lists(st.integers(0, 3), max_size=12)
LABEL_VECTORS = st.one_of(
    SMALL_LABELS,
    SMALL_LABELS,
    st.tuples(SMALL_LABELS, st.sampled_from([-1, -2, 10**17])).map(lambda p: [*p[0], p[1]]),
    st.lists(st.integers(0, 3), min_size=2, max_size=2).map(lambda v: [v, v]),
).map(lambda v: np.array(v, dtype=np.int64))

# Each partition type: constructor, loader, CSV header, least group size, and
# its (labels, sizes, group count).
PARTITIONS = {
    "cluster": (
        Clustering.from_assignment, load_clustering, "unit_id,cluster_id", 1,
        lambda p: (p.assignment, p.sizes, p.num_clusters),
    ),
    "stratum": (
        Stratification, load_stratification, "cluster_id,stratum_id", 2,
        lambda p: (p.stratum_of, p.strata_sizes, p.num_strata),
    ),
}


def _built(build, arg):
    try:
        return build(arg), None
    except ValidationError as exc:
        return None, str(exc)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(labels=LABEL_VECTORS)
def test_partitions_and_their_loaders_accept_the_same_label_vectors(tmp_path, labels):
    for noun, (build, load, header, min_size, fields) in PARTITIONS.items():
        made, message = _built(build, labels)
        ok = labels.ndim == 1 and labels.size > 0 and labels.min() >= 0 and labels.max() < 100
        assert (made is not None) == (ok and np.bincount(labels).min() >= min_size), (noun, labels, message)
        if made is not None:
            got_labels, sizes, count = fields(made)
            assert count == labels.max() + 1
            assert sizes.dtype == np.int64 and np.array_equal(sizes, np.bincount(labels))
            assert not got_labels.flags.writeable and not sizes.flags.writeable
        if labels.ndim != 1 or labels.size == 0:
            continue  # a CSV holds neither
        path = tmp_path / f"{noun}.csv"
        path.write_text(header + "\n" + "".join(f"{i},{v}\n" for i, v in enumerate(labels.tolist())))
        loaded, loaded_message = _built(load, path)
        if made is None:
            assert loaded_message == f"{path}: {message}"
        else:
            for got, want in zip(fields(loaded), fields(made)):
                assert np.array_equal(got, want)


def test_partitions_take_only_their_labels():
    # Counts and sizes beside the labels could disagree with them.
    labels = np.repeat(np.arange(8), 4)
    labels[-4:] = 6
    with pytest.raises(TypeError):
        Clustering(num_clusters=8, assignment=labels, sizes=np.full(8, 4))
    assert Clustering(labels).sizes.tolist() == [4] * 6 + [8]
    with pytest.raises(ValidationError, match="^every cluster must be non-empty: cluster 2 has no units$"):
        Clustering(np.array([0, 0, 1, 1, 3, 3]))
    with pytest.raises(TypeError):
        Stratification(num_strata=1, stratum_of=np.repeat([0, 1], 8), strata_sizes=[16])
    assert Stratification(np.repeat([0, 1], 8)).num_strata == 2
    with pytest.raises(ValidationError, match="^negative stratum id -1$"):
        Stratification(np.array([0, 0, -1]))
