import json
import time
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spilltest import (
    Clustering,
    Graph,
    ParseError,
    SbmSpec,
    ValidationError,
    generate_sbm,
    load_edge_list,
    neighborhood_fractions,
    save_edge_list,
)
from spilltest.graph import _bernoulli_slots


def test_load_edge_list_basic(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("0 1\n1 2\n")
    g = load_edge_list(path)
    assert g.num_units == 3
    assert g.neighbors(1).tolist() == [0, 2]
    assert g.num_edges == 2


def test_load_edge_list_collapses_duplicates(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("0 1\n0 1\n1,0\n")
    g = load_edge_list(path)
    assert g.num_edges == 1


def test_load_edge_list_rejects_self_loop(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("0 0\n")
    with pytest.raises(ValidationError, match="self-loop"):
        load_edge_list(path)


def test_load_edge_list_malformed_line_carries_line_number(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("0 1\nnot an edge here\n")
    with pytest.raises(ParseError, match=":2:"):
        load_edge_list(path)


def test_load_edge_list_negative_id(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("0 -1\n")
    with pytest.raises(ValidationError, match="negative"):
        load_edge_list(path)


def test_load_edge_list_header_override(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("# comment\nN=5\n0 1\n")
    g = load_edge_list(path)
    assert g.num_units == 5
    assert g.degrees[4] == 0

    bad = tmp_path / "bad.edges"
    bad.write_text("N=2\n0 3\n")
    with pytest.raises(ValidationError, match="declared"):
        load_edge_list(bad)


def test_load_edge_list_empty_without_header(tmp_path):
    path = tmp_path / "empty.edges"
    path.write_text("# nothing\n")
    with pytest.raises(ValidationError):
        load_edge_list(path)


def test_save_load_round_trip(tmp_path, cliquepair_graph):
    path = tmp_path / "g.edges"
    save_edge_list(cliquepair_graph, path)
    g = load_edge_list(path)
    assert g.num_units == cliquepair_graph.num_units
    assert np.array_equal(g.edge_array(), cliquepair_graph.edge_array())


def test_from_edges_validation():
    with pytest.raises(ValidationError):
        Graph.from_edges(0, [])
    with pytest.raises(ValidationError, match="out of range"):
        Graph.from_edges(2, [(0, 2)])
    with pytest.raises(ValidationError, match="self-loop"):
        Graph.from_edges(2, [(1, 1)])
    for unit in (-1, 2):
        with pytest.raises(ValidationError, match=f"^unit id {unit} out of range for N=2$"):
            Graph.from_edges(2, [(0, 1)]).neighbors(unit)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 14), st.integers(0, 14)).filter(lambda p: p[0] != p[1]),
        max_size=40,
    )
)
def test_graph_symmetric_and_simple(pairs):
    g = Graph.from_edges(15, pairs)
    for i in range(15):
        nbrs = g.neighbors(i)
        assert i not in nbrs
        assert sorted(set(nbrs.tolist())) == nbrs.tolist()
        for j in nbrs:
            assert i in g.neighbors(int(j))


def test_sbm_degenerate_probabilities():
    g, c = generate_sbm(SbmSpec(num_blocks=2, block_size=2, p_intra=1.0, p_inter=0.0, seed=1))
    assert g.num_edges == 2
    assert sorted(map(tuple, g.edge_array().tolist())) == [(0, 1), (2, 3)]
    assert neighborhood_fractions(g, c).mean() == 1.0

    g0, _ = generate_sbm(SbmSpec(num_blocks=2, block_size=2, p_intra=0.0, p_inter=0.0, seed=1))
    assert g0.num_edges == 0


def test_sbm_edge_count_near_analytic_mean():
    # 4 blocks of 50: mean = 4*C(50,2)*0.3 + 6*2500*0.01 = 1470 + 150 = 1620,
    # variance = 4900*0.3*0.7 + 15000*0.01*0.99 = 1177.5 (sd 34.3).
    g, _ = generate_sbm(SbmSpec(num_blocks=4, block_size=50, p_intra=0.3, p_inter=0.01, seed=7))
    mean, sd = 1620.0, 34.3148
    assert abs(g.num_edges - mean) <= 4 * sd


def test_sbm_seed_determinism():
    spec = SbmSpec(num_blocks=3, block_size=8, p_intra=0.4, p_inter=0.1, seed=99)
    g1, c1 = generate_sbm(spec)
    g2, c2 = generate_sbm(spec)
    assert np.array_equal(g1.edge_array(), g2.edge_array())
    assert np.array_equal(c1.assignment, c2.assignment)
    g3, _ = generate_sbm(SbmSpec(num_blocks=3, block_size=8, p_intra=0.4, p_inter=0.1, seed=100))
    assert not np.array_equal(g1.edge_array(), g3.edge_array())


def test_sbm_uniform_density_matches_p():
    # With p_intra == p_inter every pair is Bernoulli(p); pool many seeds.
    p, total_pairs, hits = 0.3, 0, 0
    for seed in range(30):
        g, _ = generate_sbm(SbmSpec(num_blocks=2, block_size=20, p_intra=p, p_inter=p, seed=seed))
        total_pairs += 40 * 39 // 2
        hits += g.num_edges
    density = hits / total_pairs
    mc_sd = (p * (1 - p) / total_pairs) ** 0.5
    assert abs(density - p) <= 4 * mc_sd


def test_sbm_every_pair_is_bernoulli_with_its_class_probability():
    # 3 blocks of 4: 18 intra-block and 48 inter-block pairs, 5000 graphs.
    reps = 5000
    hits = np.zeros((12, 12))
    edge_counts = np.empty(reps)
    for seed in range(reps):
        g, _ = generate_sbm(SbmSpec(num_blocks=3, block_size=4, p_intra=0.6, p_inter=0.2, seed=seed))
        e = g.edge_array()
        hits[e[:, 0], e[:, 1]] += 1
        edge_counts[seed] = g.num_edges
    freq = hits / reps
    block = np.arange(12) // 4
    upper = np.triu(np.ones((12, 12), dtype=bool), k=1)
    same = block[:, None] == block[None, :]
    assert not freq[~upper].any()
    for mask, p in ((upper & same, 0.6), (upper & ~same, 0.2)):
        se = (p * (1 - p) / reps) ** 0.5
        assert np.abs(freq[mask] - p).max() <= 4.5 * se
    # The edge count is Binomial(18, 0.6) + Binomial(48, 0.2).
    mean = 18 * 0.6 + 48 * 0.2
    var = 18 * 0.6 * 0.4 + 48 * 0.2 * 0.8
    assert abs(edge_counts.mean() - mean) <= 4.5 * (var / reps) ** 0.5
    centered = edge_counts - edge_counts.mean()
    m4 = (centered**4).mean()
    var_se = ((m4 - var**2 * (reps - 3) / (reps - 1)) / reps) ** 0.5
    assert abs(edge_counts.var(ddof=1) - var) <= 4.5 * var_se


@pytest.mark.parametrize("p", [0.0, 1.0, 5e-324])
def test_sbm_extreme_probabilities_are_exact(p):
    # 5e-324 makes numpy's geometric gaps the int64 maximum; the sampler
    # must still stop, with no edge, on a model of 5*10^11 pairs too.
    for num_blocks, block_size in ((3, 4), (1000, 1000)):
        for p_intra, p_inter in ((p, p), (p, 0.0), (0.0, p)):
            if p == 1.0 and num_blocks == 1000:
                continue
            spec = SbmSpec(num_blocks=num_blocks, block_size=block_size, p_intra=p_intra, p_inter=p_inter, seed=5)
            g, c = generate_sbm(spec)
            n = spec.num_units
            e = g.edge_array()
            same = c.assignment[e[:, 0]] == c.assignment[e[:, 1]]
            intra = num_blocks * block_size * (block_size - 1) // 2
            expected_intra = intra if p_intra == 1.0 else 0
            expected_inter = n * (n - 1) // 2 - intra if p_inter == 1.0 else 0
            assert (int(same.sum()), int((~same).sum())) == (expected_intra, expected_inter)


class _FixedGaps:
    """A generator whose geometric draws are the next gaps of a fixed sequence."""

    def __init__(self, gaps):
        self.gaps, self.used, self.batches = gaps, 0, 0

    def geometric(self, p, size):
        out = self.gaps[self.used : self.used + size]
        assert len(out) == size
        self.used += size
        self.batches += 1
        return out


@pytest.mark.parametrize("gaps, batches", [([1], 99), ([1, 3, 2, 7, 1, 1, 40], 12)])
def test_bernoulli_slots_joins_its_batches(gaps, batches):
    # A gap of 1 at p = 0.01 makes every slot a success, so the loop needs
    # many batches, each sized for the slots left; the slots are the running
    # sum of the gaps across batches, cut below the total.
    rng = _FixedGaps(np.resize(np.array(gaps, dtype=np.int64), 20_000))
    slots = _bernoulli_slots(rng, 0.01, 5000)
    expected = np.cumsum(rng.gaps) - 1
    assert np.array_equal(slots, expected[expected < 5000])
    assert rng.batches == batches


def test_sbm_single_unit_blocks_and_single_block():
    # block_size=1 has no intra-block pair; num_blocks=1 no inter-block pair.
    g, c = generate_sbm(SbmSpec(num_blocks=6, block_size=1, p_intra=1.0, p_inter=1.0, seed=3))
    assert g.num_edges == 15 and c.num_clusters == 6
    g, _ = generate_sbm(SbmSpec(num_blocks=6, block_size=1, p_intra=1.0, p_inter=0.0, seed=3))
    assert g.num_edges == 0
    g, c = generate_sbm(SbmSpec(num_blocks=1, block_size=6, p_intra=1.0, p_inter=1.0, seed=3))
    assert g.num_edges == 15 and c.num_clusters == 1
    g, _ = generate_sbm(SbmSpec(num_blocks=1, block_size=6, p_intra=0.0, p_inter=1.0, seed=3))
    assert g.num_edges == 0
    g, _ = generate_sbm(SbmSpec(num_blocks=1, block_size=1, p_intra=1.0, p_inter=1.0, seed=3))
    assert (g.num_units, g.num_edges) == (1, 0)


def test_sbm_large_model_is_fast_and_deterministic():
    # 10^5 units, about 300k edges: quadratic generation needs 5*10^9 coins.
    spec = SbmSpec(num_blocks=1000, block_size=100, p_intra=0.05, p_inter=1e-5, seed=8)
    start = time.perf_counter()
    g1, c1 = generate_sbm(spec)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    mean = 1000 * 4950 * 0.05 + (10**5 * (10**5 - 1) // 2 - 1000 * 4950) * 1e-5
    assert abs(g1.num_edges - mean) <= 6 * mean**0.5
    g2, c2 = generate_sbm(spec)
    assert np.array_equal(g1.adjacency_indptr, g2.adjacency_indptr)
    assert np.array_equal(g1.adjacency_indices, g2.adjacency_indices)
    assert np.array_equal(c1.assignment, c2.assignment)


def test_sbm_refuses_models_too_large_to_build():
    # 10^5 units but 5*10^8 expected edges; a spec with too many units is a
    # case of test_cli::test_malformed_inputs_exit_1_with_error_line.
    with pytest.raises(ValidationError, match="5e[+]08 expected edges"):
        generate_sbm(SbmSpec(num_blocks=10, block_size=10**4, p_intra=1.0, p_inter=0.0, seed=1))


def test_sbm_spec_validation_and_json():
    with pytest.raises(ValidationError):
        SbmSpec(num_blocks=0, block_size=5, p_intra=0.5, p_inter=0.1, seed=0)
    with pytest.raises(ValidationError):
        SbmSpec(num_blocks=2, block_size=5, p_intra=1.5, p_inter=0.1, seed=0)
    spec = SbmSpec(num_blocks=2, block_size=5, p_intra=0.5, p_inter=0.1, seed=3)
    assert SbmSpec.from_json(json.dumps(asdict(spec))) == spec
    # Numpy scalars are taken, as DesignCounts takes them, and kept as Python
    # numbers, so that the spec still serializes.
    numpy_spec = SbmSpec(np.int64(2), np.int32(5), np.float64(0.5), np.float32(0.125), np.uint8(3))
    assert json.dumps(asdict(numpy_spec)) == json.dumps(asdict(replace(spec, p_inter=0.125)))


def test_neighborhood_fraction_star_center():
    # Star: center 0 with leaves 1..4, all in cluster 0.
    g = Graph.from_edges(5, [(0, i) for i in range(1, 5)])
    c = Clustering.from_assignment([0, 0, 0, 0, 0])
    assert neighborhood_fractions(g, c)[0] == 1.0


def test_neighborhood_fraction_isolated_unit_is_zero():
    g = Graph.from_edges(3, [(0, 1)])
    c = Clustering.from_assignment([0, 0, 0])
    assert neighborhood_fractions(g, c)[2] == 0.0


def test_neighborhood_fraction_partial():
    # Unit 0 has neighbors 1, 2, 3; only 1 shares its cluster.
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    c = Clustering.from_assignment([0, 0, 1, 1])
    fracs = neighborhood_fractions(g, c)
    assert fracs.tolist() == pytest.approx([1 / 3, 1.0, 0.0, 0.0])
