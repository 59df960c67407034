import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from loopybp import (
    GraphFormatError,
    ModelError,
    PairwiseMRF,
    chain_graph,
    complete_graph,
    compute_strengths,
    format_graph_text,
    grid_graph,
    heskes_strength,
    k4_minus_edge,
    marginal_strength,
    mooij_strength,
    parse_graph_file,
    parse_graph_text,
    plain_strength,
    potential_strength,
    random_tree,
    symmetric_binary_potential,
    torus_graph,
    with_uniform_binary,
    write_graph_file,
)

EXAMPLE_MAT = [[0.9, 0.3], [0.1, 0.7]]

positive = st.floats(min_value=0.05, max_value=20.0,
                     allow_nan=False, allow_infinity=False)


def square_mats(side):
    return st.lists(st.lists(positive, min_size=side, max_size=side),
                    min_size=side, max_size=side)


def test_generator_shapes():
    assert len(complete_graph(4, 0.7).edges) == 6
    assert len(k4_minus_edge(0.7).edges) == 5
    assert len(grid_graph(3, 3, 0.7).edges) == 12
    assert len(torus_graph(3, 3, 0.7).edges) == 18
    t = random_tree(9, 0.7, seed=3)
    assert len(t.edges) == 8


def test_torus_is_uniform_degree_four():
    m = torus_graph(3, 3, 0.6)
    assert all(m.degree(v) == 4 for v in range(m.num_nodes))


def test_grid_degree_profile():
    m = grid_graph(3, 3, 0.6)
    degs = sorted(m.degree(v) for v in range(9))
    assert degs == [2, 2, 2, 2, 3, 3, 3, 3, 4]


def test_symmetric_binary_potential_values():
    mat = symmetric_binary_potential(0.7)
    assert np.allclose(mat, [[0.7, 0.3], [0.3, 0.7]])
    with pytest.raises(ValueError):
        symmetric_binary_potential(1.0)


def test_model_validation():
    with pytest.raises(ModelError):
        PairwiseMRF(2, [(0, 0)])
    with pytest.raises(ModelError):
        PairwiseMRF(2, [(0, 1), (1, 0)])
    with pytest.raises(ModelError):
        PairwiseMRF(2, [(0, 2)])
    with pytest.raises(ModelError):
        PairwiseMRF(2, [(0, 1)], node_potentials=[[1.0, -1.0], [1.0, 1.0]])


def test_edge_matrix_orientation():
    """edge_matrix(t, s) must always be indexed [state of t][state of s]."""
    m = PairwiseMRF(2, [(0, 1)],
                    edge_potentials={(0, 1): [[1.0, 2.0], [3.0, 4.0]]})
    assert np.allclose(m.edge_matrix(0, 1), [[1, 2], [3, 4]])
    assert np.allclose(m.edge_matrix(1, 0), [[1, 3], [2, 4]])


def test_with_uniform_binary_replaces_potentials():
    base = grid_graph(3, 3, 0.9)
    redone = with_uniform_binary(base, 0.55)
    assert redone.edges == base.edges
    assert np.allclose(redone.edge_matrix(0, 1), symmetric_binary_potential(0.55))


def test_strength_frozen_values():
    assert potential_strength(EXAMPLE_MAT) == pytest.approx(21.0 ** 0.25, abs=1e-14)
    assert plain_strength(EXAMPLE_MAT) == pytest.approx(3.0, abs=1e-14)
    assert marginal_strength(EXAMPLE_MAT, axis=1) == pytest.approx(
        1.224744871391589, abs=1e-14)
    assert heskes_strength(EXAMPLE_MAT) == pytest.approx(1 - 1 / 21, abs=1e-14)
    d2 = math.sqrt(21.0)
    assert mooij_strength(EXAMPLE_MAT) == pytest.approx((d2 - 1) / (d2 + 1), abs=1e-14)


def test_symmetric_binary_strengths():
    mat = symmetric_binary_potential(0.7)
    assert potential_strength(mat) == pytest.approx(math.sqrt(7 / 3), abs=1e-12)
    assert marginal_strength(mat, axis=1) == pytest.approx(1.0, abs=1e-14)
    assert mooij_strength(mat) == pytest.approx(0.4, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(square_mats(2))
def test_minimized_strength_matches_enumeration(mat):
    assert potential_strength(mat) == pytest.approx(
        oracles.minimized_strength(mat), rel=1e-10)


@settings(max_examples=80, deadline=None)
@given(square_mats(3))
def test_minimized_strength_matches_enumeration_3x3(mat):
    assert potential_strength(mat) == pytest.approx(
        oracles.minimized_strength(mat), rel=1e-10)


@settings(max_examples=150, deadline=None)
@given(square_mats(2))
def test_summed_and_sigma_match_enumeration(mat):
    assert marginal_strength(mat, 0) == pytest.approx(
        oracles.summed_strength(mat, 0), rel=1e-10)
    assert marginal_strength(mat, 1) == pytest.approx(
        oracles.summed_strength(mat, 1), rel=1e-10)
    assert heskes_strength(mat) == pytest.approx(
        oracles.cross_ratio_sigma(mat), rel=1e-10)


@settings(max_examples=150, deadline=None)
@given(square_mats(2))
def test_marginal_strength_never_exceeds_plain(mat):
    # Row or column sums cannot spread further than the raw entries do.
    cap = oracles.plain_strength(mat) * (1 + 1e-12)
    assert marginal_strength(mat, 0) <= cap
    assert marginal_strength(mat, 1) <= cap


def test_strength_table_directed_views():
    m = complete_graph(3, 0.7)
    table = compute_strengths(m)
    d = math.sqrt(7 / 3)
    assert table.pair(0, 1) == pytest.approx(d, abs=1e-12)
    assert table.star(1, 0) == pytest.approx(1.0, abs=1e-14)
    assert table.directed_product(0, 1) == pytest.approx(d, abs=1e-12)
    assert table.weight(0, 2) == pytest.approx(0.4, abs=1e-12)
    with pytest.raises(ModelError):
        table.pair(0, 99)


def test_strength_table_directed_arrays_match_scalar_views():
    # Asymmetric potentials, mixed cardinality, one edge given hi-lo.
    rng = np.random.default_rng(5)
    cards = [2, 3, 4, 2]
    edges = [(0, 1), (2, 1), (2, 3), (3, 0)]
    pots = {(i, j): rng.uniform(0.2, 3.0, size=(cards[i], cards[j]))
            for i, j in edges}
    table = compute_strengths(PairwiseMRF(4, edges, cards, edge_potentials=pots))
    dd, d2 = table.directed_arrays()
    directed = table.model.directed_edges()
    assert dd.tolist() == [table.directed_product(t, s) for t, s in directed]
    assert d2.tolist() == [table.pair(t, s) ** 2 for t, s in directed]


def test_graph_text_roundtrip():
    m = PairwiseMRF(3, [(0, 1), (1, 2)], cardinality=[2, 3, 2],
                    node_potentials=[[1.0, 2.0], [0.5, 1.0, 1.5], [1.0, 1.0]],
                    edge_potentials={(0, 1): [[1, 2, 3], [4, 5, 6]],
                                     (1, 2): [[1, 1], [2, 2], [3, 3]]})
    back = parse_graph_text(format_graph_text(m))
    assert back.cards == m.cards
    assert back.edges == m.edges
    for v in range(3):
        assert np.allclose(back.node_pot[v], m.node_pot[v])
    for (i, j) in m.edges:
        assert np.allclose(back.edge_matrix(i, j), m.edge_matrix(i, j))


def test_graph_file_roundtrip(tmp_path):
    m = torus_graph(3, 3, 0.65)
    path = tmp_path / "torus.graph"
    write_graph_file(m, path)
    back = parse_graph_file(path)
    assert back.edges == m.edges
    assert np.allclose(back.edge_matrix(0, 1), m.edge_matrix(0, 1))


def test_parse_reversed_edge_row():
    """A row written as 'edge 1 0 ...' is stored under (0, 1), transposed."""
    m = parse_graph_text("nodes 2\nedge 1 0 1.0 2.0 3.0 4.0\n")
    assert m.edges == [(0, 1)]
    assert np.allclose(m.edge_matrix(1, 0), [[1, 2], [3, 4]])
    assert np.allclose(m.edge_matrix(0, 1), [[1, 3], [2, 4]])


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GraphFormatError, match="line 2"):
        parse_graph_text("nodes 2\nedge 0 1 1 2 3\n")
    with pytest.raises(GraphFormatError):
        parse_graph_text("edge 0 1 1 2 3 4\n")
    with pytest.raises(GraphFormatError, match="line 3"):
        parse_graph_text("nodes 2\nedge 0 1 1 2 3 4\nwhatever\n")
