from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import cluster_bits
from spilltest import (
    Clustering,
    DesignCounts,
    ValidationError,
    hierarchical_assign,
    stratified_hierarchical_assign,
)
from spilltest.assign import (
    ARM_CBR,
    ARM_CR,
    _bernoulli_rerandomized,
    _complete_randomization,
    _encode,
    _hierarchical_from_streams,
    _sub_clustering,
    assignment_from_vectors,
    load_assignment_vectors,
    save_assignment,
    stratified_assignment_from_vectors,
)
from spilltest.partition import Stratification


@pytest.fixture
def clusters8():
    return Clustering.from_assignment(np.repeat(np.arange(4), 2))


@pytest.fixture
def counts8():
    return DesignCounts(
        n_cr=4, n_cbr=4, m_cr=2, m_cbr=2, n_cr_t=2, n_cr_c=2, m_cbr_t=1, m_cbr_c=1
    )


def test_complete_randomization_counts():
    z = _complete_randomization(2, 1, seed=0)
    assert z.sum() == 1
    z = _complete_randomization(10, 3, seed=1)
    assert z.dtype == np.int8 and len(z) == 10 and z.sum() == 3


def test_complete_randomization_validation():
    with pytest.raises(ValidationError):
        _complete_randomization(3, 3, seed=0)
    with pytest.raises(ValidationError):
        _complete_randomization(3, 0, seed=0)


def test_complete_randomization_uniform_law():
    # N=4, n_t=2: each of the 6 patterns should appear with frequency 1/6.
    draws = 100_000
    counts: dict[bytes, int] = {}
    for seed in range(draws):
        z = _complete_randomization(4, 2, seed=seed)
        counts[z.tobytes()] = counts.get(z.tobytes(), 0) + 1
    assert len(counts) == 6
    chi = stats.chisquare(list(counts.values()))
    assert chi.pvalue > 0.001


def test_bernoulli_never_degenerate():
    for seed in range(300):
        z = _bernoulli_rerandomized(4, 0.9, seed=seed)
        assert z.dtype == np.int8 and len(z) == 4
        assert 0 < z.sum() < 4


def test_bernoulli_two_unit_law():
    # N=2, p=0.5 conditioned off degenerate draws: the two mixed patterns
    # are equally likely.
    hits = {(0, 1): 0, (1, 0): 0}
    draws = 4000
    for seed in range(draws):
        z = tuple(_bernoulli_rerandomized(2, 0.5, seed=seed).tolist())
        hits[z] += 1
    assert sum(hits.values()) == draws
    chi = stats.chisquare(list(hits.values()))
    assert chi.pvalue > 0.001


def test_bernoulli_validation():
    with pytest.raises(ValidationError):
        _bernoulli_rerandomized(5, 0.0, seed=0)
    with pytest.raises(ValidationError):
        _bernoulli_rerandomized(5, 1.0, seed=0)


def test_hierarchical_count_contract(clusters8, counts8):
    for seed in range(40):
        a = hierarchical_assign(clusters8, counts8, seed=seed)
        cr = a.unit_arm == 1
        assert cr.sum() == 4
        assert a.treatment[cr].sum() == 2
        # cluster_bits refuses a cluster-arm cluster of mixed treatment.
        cluster_arm, cluster_treatment = cluster_bits(a)
        assert ((cluster_arm == 0) & (cluster_treatment == 1)).sum() == 1


def test_stratified_draw_refuses_a_generator(clusters8):
    # Only the unstratified draw takes a generator; a stratified one spawns
    # a stream per stratum from an integer seed.
    strata = Stratification(np.array([0, 0, 1, 1]))
    with pytest.raises(ValidationError, match=r"^seed=Generator\(PCG64\) at 0x[0-9A-Fa-f]+ is not an integer$"):
        stratified_hierarchical_assign(clusters8, strata, seed=np.random.default_rng(0))


def test_hierarchical_refuses_an_unknown_mechanism(clusters8, counts8):
    with pytest.raises(ValidationError, match="^unknown mechanism 'x'$"):
        hierarchical_assign(clusters8, counts8, cr_arm_mechanism="x")


def test_hierarchical_bernoulli_mechanism(clusters8, counts8):
    for seed in range(60):
        a = hierarchical_assign(clusters8, counts8, seed=seed, cr_arm_mechanism="bernoulli")
        cr = a.unit_arm == 1
        treated = a.treatment[cr].sum()
        assert 0 < treated < 4


def test_bernoulli_draw_records_realized_counts():
    # The coins treat a random number of units; the draw's counts must say how
    # many, or the analysis refuses the draw as not matching its design.
    from spilltest import analyze

    clustering = Clustering.from_assignment(np.repeat(np.arange(8), 10))
    counts = DesignCounts.symmetric(80, 8)
    y = np.random.default_rng(3).normal(size=80)
    realized = set()
    for seed in range(20):
        a = hierarchical_assign(clustering, counts, seed=seed, cr_arm_mechanism="bernoulli")
        n_cr_t = int(a.treatment[a.unit_arm == ARM_CR].sum())
        realized.add(n_cr_t)
        assert (a.counts.n_cr_t, a.counts.n_cr_c) == (n_cr_t, counts.n_cr - n_cr_t)
        assert a.counts.m_cbr_t == counts.m_cbr_t and a.counts.n_cr == counts.n_cr
        loaded = assignment_from_vectors(clustering, a.unit_arm, a.treatment)
        assert loaded.counts == a.counts
        assert analyze(a, y).to_dict() == {**analyze(loaded, y).to_dict(), "provenance": a.provenance}
    assert len(realized) > 1


@pytest.mark.parametrize("mechanism", ["complete", "bernoulli"])
def test_stratified_draw_and_its_saved_csv_analyze_alike(tmp_path, mechanism):
    from spilltest import analyze_stratified

    # Shuffled cluster ids, so each stratum's units are scattered.
    clustering = Clustering.from_assignment(np.random.default_rng(1).permutation(np.repeat(np.arange(16), 5)))
    strat = Stratification(np.arange(16) % 2)
    y = np.random.default_rng(3).normal(size=80)
    drawn = stratified_hierarchical_assign(clustering, strat, seed=9, cr_arm_mechanism=mechanism)
    save_assignment(drawn, tmp_path / "a.csv")
    unit_arm, treatment = load_assignment_vectors(tmp_path / "a.csv")
    loaded = stratified_assignment_from_vectors(clustering, strat, unit_arm, treatment)
    assert [a.counts for a in loaded] == [a.counts for a in drawn]
    assert [a.provenance for a in loaded] == ["loaded", "loaded"]
    report = analyze_stratified(drawn, y).to_dict()
    assert report["provenance"] == "seed=9"
    assert report == {**analyze_stratified(loaded, y).to_dict(), "provenance": "seed=9"}
    with pytest.raises(ValidationError, match="assignment covers 79 units but the clustering has 80"):
        stratified_assignment_from_vectors(clustering, strat, unit_arm[:-1], treatment[:-1])


@pytest.mark.parametrize("listed", [8, 12])
def test_draw_and_reload_refuse_a_stratification_alike(listed):
    # A stratification of 8 or 12 clusters on 10 is refused alike by the
    # draw and by the reload of saved vectors.
    clustering = Clustering.from_assignment(np.repeat(np.arange(10), 2))
    strat = Stratification(np.arange(listed) % 2)
    zeros = np.zeros(20, dtype=np.int8)
    with pytest.raises(ValidationError) as drawn:
        stratified_hierarchical_assign(clustering, strat, seed=0)
    with pytest.raises(ValidationError) as loaded:
        stratified_assignment_from_vectors(clustering, strat, zeros, zeros)
    expected = f"stratification does not cover the clustering of 10 clusters: it lists {listed}"
    assert str(drawn.value) == str(loaded.value) == expected


def test_hierarchical_rejects_unbalanced(counts8):
    lopsided = Clustering.from_assignment([0, 0, 0, 1, 2, 2, 3, 3])
    with pytest.raises(ValidationError, match="equal cluster sizes"):
        hierarchical_assign(lopsided, counts8, seed=0)


def test_hierarchical_rejects_mismatched_counts(clusters8):
    wrong = DesignCounts(
        n_cr=6, n_cbr=6, m_cr=3, m_cbr=3, n_cr_t=3, n_cr_c=3, m_cbr_t=1, m_cbr_c=2
    )
    with pytest.raises(ValidationError):
        hierarchical_assign(clusters8, wrong, seed=0)


def test_symmetric_counts_rejects_odd():
    with pytest.raises(ValidationError):
        DesignCounts.symmetric(10, 5)  # odd cluster count
    with pytest.raises(ValidationError):
        DesignCounts.symmetric(6, 2)  # arm of 3 units cannot split in half
    counts = DesignCounts.symmetric(8, 4)
    assert counts.m_cbr_t == 1 and counts.n_cr_t == 2


def test_design_counts_invariants():
    with pytest.raises(ValidationError):
        DesignCounts(n_cr=4, n_cbr=4, m_cr=2, m_cbr=2, n_cr_t=3, n_cr_c=2, m_cbr_t=1, m_cbr_c=1)
    with pytest.raises(ValidationError):
        DesignCounts(n_cr=4, n_cbr=4, m_cr=1, m_cbr=3, n_cr_t=2, n_cr_c=2, m_cbr_t=2, m_cbr_c=1)


def test_seed_determinism(clusters8, counts8):
    a = hierarchical_assign(clusters8, counts8, seed=11)
    b = hierarchical_assign(clusters8, counts8, seed=11)
    c = hierarchical_assign(clusters8, counts8, seed=12)
    assert np.array_equal(a.treatment, b.treatment)
    assert np.array_equal(a.unit_arm, b.unit_arm)
    assert not (
        np.array_equal(a.treatment, c.treatment) and np.array_equal(a.unit_arm, c.unit_arm)
    )


def test_substreams_are_independent(clusters8, counts8):
    # Changing only the cluster-arm stream must leave the arm split and the
    # unit-randomized arm's treatment untouched.
    root = np.random.SeedSequence(7)
    arm, cr, cbr = root.spawn(3)
    alt_cbr = np.random.SeedSequence(99)
    a = _hierarchical_from_streams(clusters8, counts8, arm, cr, cbr, "complete", "t")
    b = _hierarchical_from_streams(clusters8, counts8, arm, cr, alt_cbr, "complete", "t")
    assert np.array_equal(a.unit_arm, b.unit_arm)
    cr_units = a.unit_arm == 1
    assert np.array_equal(a.treatment[cr_units], b.treatment[cr_units])
    # And changing the unit-arm stream leaves the cluster arm's split alone.
    alt_cr = np.random.SeedSequence(100)
    c = _hierarchical_from_streams(clusters8, counts8, arm, alt_cr, cbr, "complete", "t")
    assert np.array_equal(a.unit_arm, c.unit_arm)
    assert np.array_equal(a.treatment[~cr_units], c.treatment[~cr_units])


def _reference_draw(clustering, counts, seed, mechanism):
    """One draw scattered arm by arm from the three spawned streams, as
    ``_hierarchical_from_streams`` wrote it before ``_encode``; kept as the
    reference."""
    arm_stream, cr_stream, cbr_stream = np.random.SeedSequence(seed).spawn(3)
    m, of = clustering.num_clusters, clustering.assignment
    cluster_arm = np.zeros(m, dtype=np.int8)
    cluster_arm[np.random.default_rng(arm_stream).choice(m, size=counts.m_cr, replace=False)] = ARM_CR
    unit_arm = cluster_arm[of]
    treatment = np.zeros(clustering.num_units, dtype=np.int8)
    cr_units = np.flatnonzero(unit_arm == ARM_CR)
    cr_rng = np.random.default_rng(cr_stream)
    if mechanism == "complete":
        treatment[cr_units[cr_rng.choice(counts.n_cr, size=counts.n_cr_t, replace=False)]] = 1
    else:
        while True:
            z = cr_rng.random(counts.n_cr) < counts.n_cr_t / counts.n_cr
            if 0 < z.sum() < counts.n_cr:
                break
        treatment[cr_units] = z
    cbr_clusters = np.flatnonzero(cluster_arm == ARM_CBR)
    cluster_treatment = np.full(m, -1, dtype=np.int8)
    cluster_treatment[cbr_clusters] = 0
    treated = np.random.default_rng(cbr_stream).choice(counts.m_cbr, size=counts.m_cbr_t, replace=False)
    cluster_treatment[cbr_clusters[treated]] = 1
    cbr_units = unit_arm == ARM_CBR
    treatment[cbr_units] = cluster_treatment[of[cbr_units]]
    return unit_arm, treatment


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([(4, 1), (4, 2), (8, 1), (8, 3), (12, 2), (20, 5)]),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["complete", "bernoulli"]),
)
def test_draw_matches_arm_by_arm_reference(shape, seed, mechanism):
    m, k = shape
    labels = np.random.default_rng(seed).permutation(np.repeat(np.arange(m), k))
    clustering = Clustering.from_assignment(labels)
    counts = DesignCounts.symmetric(m * k, m)
    a = hierarchical_assign(clustering, counts, seed, mechanism)
    expected = _reference_draw(clustering, counts, seed, mechanism)
    for got, want in zip((a.unit_arm, a.treatment), expected):
        assert got.dtype == np.int8 and np.array_equal(got, want)
    assert a.counts.n_cr_t == int(expected[1][expected[0] == ARM_CR].sum())


def test_encode_stack_equals_its_rows():
    rng = np.random.default_rng(5)
    clustering = Clustering.from_assignment(rng.permutation(np.repeat(np.arange(6), 3)))
    m_cr, n_cr, rows = 2, 6, 7
    arms = np.array([_complete_randomization(6, m_cr, rng) for _ in range(rows)])
    cr = rng.integers(0, 2, (rows, n_cr)).astype(np.int8)
    cbr = rng.integers(0, 2, (rows, 6 - m_cr)).astype(np.int8)
    stacked = _encode(clustering, arms, cr, cbr)
    for r in range(rows):
        for whole, row in zip(stacked, _encode(clustering, arms[r], cr[r], cbr[r])):
            assert np.array_equal(whole[r], row)
    unit_arm, treatment = stacked
    of = clustering.assignment
    assert np.array_equal(unit_arm, arms[:, of])
    for r in range(rows):
        cr_units = unit_arm[r] == ARM_CR
        cluster_z = np.zeros(6, dtype=np.int8)
        cluster_z[arms[r] == ARM_CBR] = cbr[r]
        assert np.array_equal(treatment[r][cr_units], cr[r])
        assert np.array_equal(treatment[r][~cr_units], cluster_z[of][~cr_units])


def test_stratified_counts_respected():
    clustering = Clustering.from_assignment(np.repeat(np.arange(8), 2))
    strat = Stratification(np.array([0, 0, 0, 0, 1, 1, 1, 1]))
    for seed in range(25):
        parts = stratified_hierarchical_assign(clustering, strat, seed=seed)
        assert len(parts) == 2
        for a in parts:
            cr = a.unit_arm == 1
            assert cr.sum() == a.counts.n_cr
            assert a.treatment[cr].sum() == a.counts.n_cr_t
        # Strata cover disjoint unit sets.
        assert not set(parts[0].unit_ids.tolist()) & set(parts[1].unit_ids.tolist())


def _reference_sub_clustering(clustering, stratification):
    # The split as it was made stratum by stratum, in O(N) each: the
    # stratum's clusters, its units by np.isin, and each unit's cluster
    # relabeled by its rank among the stratum's clusters.
    out = []
    for s in range(stratification.num_strata):
        cluster_ids = np.flatnonzero(stratification.stratum_of == s)
        unit_ids = np.flatnonzero(np.isin(clustering.assignment, cluster_ids))
        local = np.searchsorted(np.sort(cluster_ids), clustering.assignment[unit_ids])
        out.append((local, unit_ids, cluster_ids))
    return out


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.integers(2, 5), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_sub_clustering_matches_per_stratum_reference(strata, per_stratum, size, seed):
    # Permuted cluster labels over the units and stratum labels over the
    # clusters, strata of unequal sizes.
    rng = np.random.default_rng(seed)
    sizes = rng.integers(2, per_stratum + 1, strata)
    m = int(sizes.sum())
    clustering = Clustering(rng.permutation(np.repeat(np.arange(m), size)))
    stratification = Stratification(rng.permutation(np.repeat(np.arange(strata), sizes)))
    got = _sub_clustering(clustering, stratification)
    want = _reference_sub_clustering(clustering, stratification)
    assert len(got) == len(want) == strata
    for (sub, unit_ids, cluster_ids), (local, ref_units, ref_clusters) in zip(got, want):
        assert np.array_equal(sub.assignment, local)
        assert np.array_equal(unit_ids, ref_units)
        assert np.array_equal(cluster_ids, ref_clusters)


@pytest.mark.parametrize("length", [1, 3])
def test_stratified_refuses_counts_of_another_length(length):
    # Too few used to raise a bare IndexError; too many were dropped.
    clustering = Clustering.from_assignment(np.repeat(np.arange(8), 2))
    strat = Stratification(np.array([0, 0, 0, 0, 1, 1, 1, 1]))
    counts = [DesignCounts.symmetric(8, 4)] * length
    with pytest.raises(ValidationError, match=f"got {length} design counts for 2 strata"):
        stratified_hierarchical_assign(clustering, strat, counts, seed=0)


def test_stratified_independence_across_strata():
    clustering = Clustering.from_assignment(np.repeat(np.arange(8), 2))
    strat = Stratification(np.array([0, 0, 0, 0, 1, 1, 1, 1]))
    draws = 3000
    first_arm = np.empty(draws)
    second_arm = np.empty(draws)
    for seed in range(draws):
        parts = stratified_hierarchical_assign(clustering, strat, seed=seed)
        # Unit 0 of each stratum is in its cluster 0.
        first_arm[seed] = parts[0].unit_arm[0]
        second_arm[seed] = parts[1].unit_arm[0]
    corr = np.corrcoef(first_arm, second_arm)[0, 1]
    assert abs(corr) < 4.0 / np.sqrt(draws)


def test_stratified_single_stratum_matches_plain_law():
    clustering = Clustering.from_assignment(np.repeat(np.arange(4), 2))
    strat = Stratification(np.zeros(4, dtype=np.int64))
    parts = stratified_hierarchical_assign(clustering, strat, seed=0)
    assert len(parts) == 1
    a = parts[0]
    assert a.counts == DesignCounts.symmetric(8, 4)
    assert np.array_equal(a.unit_ids, np.arange(8))


def test_stratified_infeasible_names_stratum():
    # Stratum 0 is a workable 4-cluster design; stratum 1 has an odd cluster
    # count and cannot split into equal arms.
    clustering = Clustering.from_assignment(np.repeat(np.arange(7), 2))
    strat = Stratification(np.array([0, 0, 0, 0, 1, 1, 1]))
    with pytest.raises(ValidationError, match="stratum 1"):
        stratified_hierarchical_assign(clustering, strat, seed=0)


def test_assignment_csv_round_trip(tmp_path, clusters8, counts8):
    a = hierarchical_assign(clusters8, counts8, seed=13)
    path = tmp_path / "a.csv"
    save_assignment(a, path)
    unit_arm, treatment = load_assignment_vectors(path)
    assert np.array_equal(unit_arm, a.unit_arm)
    assert np.array_equal(treatment, a.treatment)
    rebuilt = assignment_from_vectors(clusters8, unit_arm, treatment)
    assert rebuilt.counts == a.counts
    assert np.array_equal(rebuilt.unit_arm, a.unit_arm)
    assert np.array_equal(rebuilt.treatment, a.treatment)


def test_save_assignment_writes_only_what_the_reader_accepts(tmp_path, clusters8, counts8):
    # Each unit 0..N-1 exactly once: a stratum saved twice, or one stratum
    # of units that are not 0..n-1, would write a file the reader refuses.
    a = hierarchical_assign(clusters8, counts8, seed=13)
    path = tmp_path / "a.csv"
    with pytest.raises(ValidationError, match="^unit 0 is in 2 strata, not exactly one$"):
        save_assignment([a, a], path)
    with pytest.raises(ValidationError, match="^unit 0 is in 0 strata, not exactly one$"):
        save_assignment(replace(a, unit_ids=np.arange(8) + 2), path)
    with pytest.raises(ValidationError, match=r"^unit id -1 is negative; unit ids run 0\.\.N-1$"):
        save_assignment(replace(a, unit_ids=np.arange(8) - 1), path)
    assert not path.exists()


def test_assignment_from_vectors_rejects_corrupt(clusters8):
    unit_arm = np.array([1, 0, 1, 1, 0, 0, 0, 0], dtype=np.int8)  # cluster 0 spans arms
    treatment = np.zeros(8, dtype=np.int8)
    with pytest.raises(ValidationError, match="spans both arms"):
        assignment_from_vectors(clusters8, unit_arm, treatment)
    unit_arm = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=np.int8)
    treatment = np.array([1, 1, 0, 0, 1, 0, 0, 0], dtype=np.int8)  # mixed cbr cluster
    with pytest.raises(ValidationError, match="mixed treatment"):
        assignment_from_vectors(clusters8, unit_arm, treatment)


def _per_cluster_bits(clustering, unit_arm, treatment):
    """The per-cluster loop ``assignment_from_vectors`` used before its
    bincount checks, kept as the reference."""
    m = clustering.num_clusters
    cluster_arm = np.empty(m, dtype=np.int8)
    cluster_treatment = np.full(m, -1, dtype=np.int8)
    for c in range(m):
        members = np.flatnonzero(clustering.assignment == c)
        arms = np.unique(unit_arm[members])
        if len(arms) != 1:
            raise ValidationError(f"cluster {c} spans both arms; assignment is corrupt")
        cluster_arm[c] = arms[0]
        if arms[0] == ARM_CBR:
            zs = np.unique(treatment[members])
            if len(zs) != 1:
                raise ValidationError(f"cluster-randomized cluster {c} has mixed treatment")
            cluster_treatment[c] = zs[0]
    return cluster_arm, cluster_treatment


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 6), st.integers(1, 4), st.integers(0, 2**32 - 1), st.integers(0, 3))
def test_assignment_from_vectors_matches_per_cluster_loop(m, size, seed, flips):
    rng = np.random.default_rng(seed)
    clustering = Clustering.from_assignment(rng.permutation(np.repeat(np.arange(m), size)))
    n = clustering.num_units
    unit_arm = rng.integers(0, 2, m)[clustering.assignment].astype(np.int8)
    cluster_z = rng.integers(0, 2, m)[clustering.assignment]
    treatment = np.where(unit_arm == ARM_CR, rng.integers(0, 2, n), cluster_z).astype(np.int8)
    for _ in range(flips):
        vector = unit_arm if rng.random() < 0.5 else treatment
        vector[rng.integers(n)] ^= 1
    try:
        cluster_arm, cluster_treatment = _per_cluster_bits(clustering, unit_arm, treatment)
    except ValidationError as exc:
        with pytest.raises(ValidationError, match=str(exc)):
            assignment_from_vectors(clustering, unit_arm, treatment)
        return
    try:
        rebuilt = assignment_from_vectors(clustering, unit_arm, treatment)
    except ValidationError as exc:  # design counts the loop never checked
        assert "design count" in str(exc) or "unbalanced" in str(exc) or "treated" in str(exc), str(exc)
        return
    assert np.array_equal(rebuilt.unit_arm, unit_arm) and np.array_equal(rebuilt.treatment, treatment)
    assert rebuilt.counts.m_cr == np.count_nonzero(cluster_arm == ARM_CR)
    assert rebuilt.counts.m_cbr_t == np.count_nonzero(cluster_treatment == 1)
