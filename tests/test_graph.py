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


def test_sbm_spec_validation_and_json():
    with pytest.raises(ValidationError):
        SbmSpec(num_blocks=0, block_size=5, p_intra=0.5, p_inter=0.1, seed=0)
    with pytest.raises(ValidationError):
        SbmSpec(num_blocks=2, block_size=5, p_intra=1.5, p_inter=0.1, seed=0)
    spec = SbmSpec(num_blocks=2, block_size=5, p_intra=0.5, p_inter=0.1, seed=3)
    assert SbmSpec.from_json(spec.to_json()) == spec


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
