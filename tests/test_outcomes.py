import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spilltest import (
    Graph,
    LinearInterferenceModel,
    PotentialTable,
    ValidationError,
    realize_linear,
    realize_sutva,
)
from conftest import bincount_fractions
from spilltest._table import write_table
from spilltest.outcomes import load_outcomes


@pytest.fixture
def small_table():
    return PotentialTable(y1=np.array([2.0, 5.0, 1.0, 0.0]), y0=np.array([1.0, 3.0, 1.0, -2.0]))


def test_realize_sutva_selects_elementwise(small_table):
    z = np.array([1, 0, 1, 0])
    y = realize_sutva(small_table, z)
    assert y.tolist() == [2.0, 3.0, 1.0, -2.0]
    assert y.dtype == np.float64 and not y.flags.writeable


def test_realize_sutva_fisher_null_independent_of_assignment():
    y = np.array([1.0, 2.0, 3.0])
    table = PotentialTable(y1=y, y0=y)
    a = realize_sutva(table, np.array([1, 1, 0]))
    b = realize_sutva(table, np.array([0, 0, 1]))
    assert np.array_equal(a, b)


def test_realize_sutva_length_mismatch(small_table):
    with pytest.raises(ValidationError):
        realize_sutva(small_table, np.array([1, 0]))


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(1, 12),
    n=st.integers(1, 20),
    dtype=st.sampled_from([np.int8, np.int64, np.float64, bool]),
    seed=st.integers(0, 2**32 - 1),
)
def test_realize_sutva_stack_equals_the_per_row_calls(rows, n, dtype, seed):
    rng = np.random.default_rng(seed)
    table = PotentialTable(y1=rng.normal(size=n), y0=rng.normal(size=n))
    z = rng.integers(0, 2, size=(rows, n)).astype(dtype)
    stack = realize_sutva(table, z)
    assert stack.shape == z.shape and stack.dtype == np.float64 and not stack.flags.writeable
    assert stack.tobytes() == np.stack([realize_sutva(table, zr) for zr in z]).tobytes()


@pytest.mark.parametrize("realizer", ["sutva", "linear"])
def test_both_realizers_refuse_what_is_not_a_row_or_stack_of_bits(cliquepair_graph, realizer):
    if realizer == "sutva":
        table = PotentialTable(y1=np.arange(8.0), y0=np.zeros(8))
        realize, source = (lambda z: realize_sutva(table, z)), "potential table"
    else:
        model = LinearInterferenceModel(alpha=0.0, beta=1.0, gamma=1.0, noise_sd=0.0, graph=cliquepair_graph)
        realize, source = (lambda z: realize_linear(model, z)), "graph"
    for bad in (2, -1, 0.5):
        row = np.array([bad, 0, 1, 0, 1, 0, 1, 0])
        stack = np.zeros((3, 8))
        stack[1, 5] = bad
        for z in (row, stack):
            with pytest.raises(ValidationError, match="only 0 and 1"):
                realize(z)
    for shape in ((7,), (3, 7), (2, 3, 8), ()):
        with pytest.raises(ValidationError, match=f"does not match the {source}"):
            realize(np.zeros(shape, dtype=np.int8))


@pytest.mark.parametrize("field, value", [("alpha", "x"), ("gamma", True), ("beta", float("nan")), ("noise_sd", None)])
def test_model_refuses_a_non_number(cliquepair_graph, field, value):
    params = {"alpha": 0.0, "beta": 1.0, "gamma": 0.5, "noise_sd": 0.0, field: value}
    with pytest.raises(ValidationError, match=f"model {field}={value!r} is not a finite number"):
        LinearInterferenceModel(graph=cliquepair_graph, **params)


def test_realize_linear_noise_free_affine(cliquepair_graph):
    model = LinearInterferenceModel(alpha=2.0, beta=1.5, gamma=0.0, noise_sd=0.0, graph=cliquepair_graph)
    z = np.array([1, 0, 1, 0, 1, 0, 1, 0])
    y = realize_linear(model, z, seed=0)
    assert np.allclose(y, 2.0 + 1.5 * z)
    assert y.dtype == np.float64 and not y.flags.writeable


def test_realize_linear_all_neighbors_treated():
    g = Graph.from_edges(3, [(0, 1), (0, 2)])
    model = LinearInterferenceModel(alpha=1.0, beta=2.0, gamma=0.5, noise_sd=0.0, graph=g)
    y = realize_linear(model, np.array([0, 1, 1]), seed=0)
    # Unit 0 control with every neighbor treated: alpha + gamma.
    assert y[0] == pytest.approx(1.5)


def test_realize_linear_all_control_is_baseline(cliquepair_graph):
    model = LinearInterferenceModel(alpha=0.7, beta=9.0, gamma=3.0, noise_sd=0.0, graph=cliquepair_graph)
    assert np.allclose(realize_linear(model, np.zeros(8), seed=0), 0.7)


def test_realize_linear_seed_determinism(cliquepair_graph):
    model = LinearInterferenceModel(alpha=0.0, beta=1.0, gamma=1.0, noise_sd=2.0, graph=cliquepair_graph)
    z = np.array([1, 1, 0, 0, 1, 1, 0, 0])
    a = realize_linear(model, z, seed=5)
    b = realize_linear(model, z, seed=5)
    c = realize_linear(model, z, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_realize_linear_locality(cliquepair_graph):
    # Unit 0's outcome depends only on z[0] and its neighbors {1, 2, 3}.
    model = LinearInterferenceModel(alpha=0.0, beta=1.0, gamma=1.0, noise_sd=0.0, graph=cliquepair_graph)
    z1 = np.array([1, 0, 1, 0, 0, 0, 0, 0])
    z2 = z1.copy()
    z2[5:] = 1  # flip units far from unit 0
    y1 = realize_linear(model, z1, seed=0)
    y2 = realize_linear(model, z2, seed=0)
    assert y1[0] == pytest.approx(y2[0])


def test_isolated_unit_receives_no_interference():
    g = Graph.from_edges(3, [(0, 1)])
    model = LinearInterferenceModel(alpha=0.0, beta=0.0, gamma=5.0, noise_sd=0.0, graph=g)
    assert realize_linear(model, np.array([1, 1, 0]), seed=0)[2] == 0.0


def _total_effect(realize, source, n):
    """All-treated minus all-control mean outcome."""
    return realize(source, np.ones(n)).mean() - realize(source, np.zeros(n)).mean()


def test_total_treatment_effect_table(small_table):
    assert _total_effect(realize_sutva, small_table, 4) == pytest.approx(1.25)
    y = np.array([0.0, 0.0])
    assert _total_effect(realize_sutva, PotentialTable(y1=y, y0=y), 2) == 0.0
    two = PotentialTable(y1=np.array([2.0, 0.0]), y0=np.array([0.0, 0.0]))
    assert _total_effect(realize_sutva, two, 2) == pytest.approx(1.0)


def test_total_treatment_effect_linear_model(cliquepair_graph):
    # No isolated unit: every unit receives full interference when all are treated.
    model = LinearInterferenceModel(alpha=0.0, beta=1.0, gamma=0.5, noise_sd=0.0, graph=cliquepair_graph)
    assert _total_effect(realize_linear, model, 8) == pytest.approx(1.5)


def test_realized_total_effect_with_isolated_unit():
    # Unit 3 is isolated and receives no interference: 1 + 1 * 3/4.
    g = Graph.from_edges(4, [(0, 1), (0, 2)])
    model = LinearInterferenceModel(alpha=0.0, beta=1.0, gamma=1.0, noise_sd=0.0, graph=g)
    assert _total_effect(realize_linear, model, 4) == pytest.approx(1.75)


def test_model_validation(cliquepair_graph):
    with pytest.raises(ValidationError):
        LinearInterferenceModel(alpha=0.0, beta=1.0, gamma=0.0, noise_sd=-1.0, graph=cliquepair_graph)
    with pytest.raises(ValidationError):
        PotentialTable(y1=np.array([1.0, np.nan]), y0=np.array([0.0, 0.0]))
    with pytest.raises(ValidationError, match="^y1 and y0 must be equal-length non-empty vectors$"):
        PotentialTable(y1=np.zeros(3), y0=np.zeros(4))
    model = LinearInterferenceModel(alpha=0.0, beta=1.0, gamma=1.0, noise_sd=0.0, graph=cliquepair_graph)
    for bad in (0.5, 2, -1, np.nan):
        z = np.array([bad, 0, 1, 0, 1, 0, 1, 0])
        with pytest.raises(ValidationError, match="only 0 and 1"):
            model.treated_neighbor_fractions(z)
        with pytest.raises(ValidationError, match="only 0 and 1"):
            realize_linear(model, z, seed=0)


def _fractions(graph, z):
    model = LinearInterferenceModel(alpha=0.0, beta=0.0, gamma=1.0, noise_sd=0.0, graph=graph)
    return model.treated_neighbor_fractions(z)


@st.composite
def _graphs_and_assignments(draw):
    n = draw(st.integers(1, 30))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=120))
    # Cut every edge of the units picked among the first, middle and last.
    cut = {u for u, pick in zip((0, n // 2, n - 1), draw(st.tuples(*[st.booleans()] * 3))) if pick}
    graph = Graph.from_edges(n, [(i, j) for i, j in pairs if i != j and not {i, j} & cut])
    z = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int8)
    return graph, z


def _case(n, edges, z):
    return Graph.from_edges(n, edges), np.array(z, dtype=np.int8)


@settings(max_examples=300, deadline=None)
@given(_graphs_and_assignments())
@example(_case(3, [], [1, 0, 1]))
@example(_case(1, [], [1]))
@example(_case(4, [(1, 2), (2, 3)], [1, 1, 0, 1]))
@example(_case(5, [(0, 1), (3, 4)], [1, 0, 1, 1, 0]))
@example(_case(4, [(0, 1), (1, 2)], [1, 0, 1, 1]))
@example(_case(5, [(1, 3)], [1, 1, 1, 0, 1]))
def test_fractions_match_bincount_reference(graph_and_z):
    graph, z = graph_and_z
    assert np.array_equal(_fractions(graph, z), bincount_fractions(graph, z))
    assert np.array_equal(_fractions(graph, z.astype(bool)), bincount_fractions(graph, z))


# Stars whose center has degree 2**k - 1 or 2**k: the largest count that
# fits a lane of k bits, and the smallest that needs k + 1. Degree 0 is a
# graph with no edges.
STAR_DEGREES = sorted({2**k + d for k in range(7) for d in (-1, 0)})


@st.composite
def _graphs_and_stacks(draw):
    if draw(st.booleans()):
        degree = draw(st.sampled_from(STAR_DEGREES))
        n = degree + 1 + draw(st.integers(0, 2))
        graph = Graph.from_edges(n, [(0, leaf) for leaf in range(1, degree + 1)])
    else:
        graph, _ = draw(_graphs_and_assignments())
    rows = draw(st.integers(1, 20))
    # Each row all control, all treated, or a coin flip per unit.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    share = rng.choice([0.0, 0.5, 1.0], size=(rows, 1))
    return graph, (rng.random((rows, graph.num_units)) < share).astype(np.int8)


@settings(max_examples=300, deadline=None)
@given(_graphs_and_stacks())
@example((Graph.from_edges(65, [(0, leaf) for leaf in range(1, 65)]), np.ones((20, 65), dtype=np.int8)))
@example((Graph.from_edges(64, [(0, leaf) for leaf in range(1, 64)]), np.ones((20, 64), dtype=np.int8)))
@example((Graph.from_edges(3, []), np.ones((20, 3), dtype=np.int8)))
def test_stacked_fractions_match_bincount_reference_row_by_row(graph_and_stack):
    # A stack packs 64 // bits rows into a word, so 20 rows cross a word
    # boundary at every lane width from 4 bits (degree 8 and above) up.
    graph, z = graph_and_stack
    fractions = _fractions(graph, z)
    assert fractions.shape == z.shape
    for row, reference in zip(fractions, (bincount_fractions(graph, zr) for zr in z)):
        assert row.tobytes() == reference.tobytes()


def test_realize_linear_stack_equals_the_per_row_calls(cliquepair_graph):
    # Max degree 4: 3-bit lanes, 21 rows to a word, so 25 rows take two words.
    model = LinearInterferenceModel(alpha=0.3, beta=1.5, gamma=0.7, noise_sd=2.0, graph=cliquepair_graph)
    z = np.random.default_rng(3).integers(0, 2, size=(25, 8))
    stack = realize_linear(model, z, seed=np.random.default_rng(9))
    assert stack.shape == z.shape and stack.dtype == np.float64 and not stack.flags.writeable
    # One generator fills the rows in order, as 25 one-row calls on it do.
    rng = np.random.default_rng(9)
    rows = [realize_linear(model, zr, seed=rng) for zr in z]
    assert stack.tobytes() == np.stack(rows).tobytes()
    # An integer or SeedSequence seed builds that one generator.
    for seed in (11, np.random.SeedSequence(11)):
        rng = np.random.default_rng(seed)
        rows = [realize_linear(model, zr, seed=rng) for zr in z]
        assert realize_linear(model, z, seed=seed).tobytes() == np.stack(rows).tobytes()
    for shape in ((25, 7), (2, 25, 8), ()):
        with pytest.raises(ValidationError, match="does not match the graph"):
            model.treated_neighbor_fractions(np.zeros(shape))


def test_noise_free_realize_linear_leaves_the_generator_where_it_was(cliquepair_graph):
    model = LinearInterferenceModel(alpha=0.3, beta=1.5, gamma=0.7, noise_sd=0.0, graph=cliquepair_graph)
    rng = np.random.default_rng(4)
    state = rng.bit_generator.state
    realize_linear(model, np.ones((3, 8), dtype=np.int8), seed=rng)
    assert rng.bit_generator.state == state


def test_outcomes_csv_round_trip(tmp_path):
    y = np.array([1.5, -2.25, 0.0, 0.1, 1e-300])
    path = tmp_path / "y.csv"
    write_table(path, ["unit_id", "y"], [list(range(len(y))), y.tolist()], "%d,%r\r\n")
    assert np.array_equal(load_outcomes(path), y)


def test_outcomes_csv_missing_unit(tmp_path):
    path = tmp_path / "y.csv"
    path.write_text("unit_id,y\n0,1.0\n2,2.0\n")
    with pytest.raises(ValidationError, match="missing"):
        load_outcomes(path)


@pytest.mark.parametrize(
    "body, message",
    [
        ("0,1.0\n1,nan\n", "non-finite"),
        ("0,inf\n1,2.0\n", "non-finite"),
        ("0,1.0\n1,2.0\n1,3.0\n", "duplicate unit_id 1"),
    ],
)
def test_outcomes_csv_rejects_bad_rows(tmp_path, body, message):
    path = tmp_path / "y.csv"
    path.write_text("unit_id,y\n" + body)
    with pytest.raises(ValidationError, match=message):
        load_outcomes(path)

