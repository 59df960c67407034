import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loopybp
import oracles
from loopybp import models as models_mod
from loopybp import (
    GraphFormatError,
    ModelError,
    PairwiseMRF,
    bound_report,
    build_generator,
    compute_strengths,
    evaluate_condition,
    format_graph_text,
    nonuniform_distance_bound,
    parse_graph_file,
    parse_graph_text,
    run_residual_scheduled,
    with_uniform_binary,
    write_graph_file,
)
from loopybp.cli import main
from loopybp.models import _measures

EXAMPLE_MAT = [[0.9, 0.3], [0.1, 0.7]]

positive = st.floats(min_value=0.05, max_value=20.0,
                     allow_nan=False, allow_infinity=False)


def square_mats(side):
    return st.lists(st.lists(positive, min_size=side, max_size=side),
                    min_size=side, max_size=side)


def test_generator_shapes():
    assert len(build_generator("complete:4", 0.7).edges) == 6
    assert len(build_generator("k4minus", 0.7).edges) == 5
    assert len(build_generator("grid:3x3", 0.7).edges) == 12
    assert len(build_generator("torus:3x3", 0.7).edges) == 18
    t = build_generator("tree:9:3", 0.7)
    assert len(t.edges) == 8


# Every form's (num_nodes, edges), in the order the generators list them:
# the edge order fixes the directed-edge order, and with it every output.
# A torus closes only a dimension of more than two nodes, so torus:2x3
# wraps its rows alone and torus:1x5 is cycle:5.
GENERATED = {
    "k4minus": (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
    "complete:4": (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    "cycle:5": (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
    "chain:4": (4, [(0, 1), (1, 2), (2, 3)]),
    "grid:2x3": (6, [(0, 1), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (4, 5)]),
    "torus:3x3": (9, [(0, 1), (0, 3), (1, 2), (1, 4), (0, 2), (2, 5), (3, 4),
                      (3, 6), (4, 5), (4, 7), (3, 5), (5, 8), (6, 7), (0, 6),
                      (7, 8), (1, 7), (6, 8), (2, 8)]),
    "torus:2x3": (6, [(0, 1), (0, 3), (1, 2), (1, 4), (0, 2), (2, 5), (3, 4),
                      (4, 5), (3, 5)]),
    "torus:1x5": (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
    "tree:8:1": (8, [(0, 1), (0, 2), (1, 3), (3, 4), (4, 5), (0, 6), (1, 7)]),
}


@pytest.mark.parametrize("spec", list(GENERATED))
def test_generated_topologies_are_pinned(spec):
    m = build_generator(spec, 0.7)
    assert (m.num_nodes, m.edges) == GENERATED[spec]
    pot = np.array([[0.7, 1 - 0.7], [1 - 0.7, 0.7]])
    assert all(np.array_equal(mat, pot) for mat in m.edge_pot)


# complete:200 has 19,900 edges and lies within the caps; complete:201 not.
@pytest.mark.parametrize("spec, message", [
    ("complete:1", "complete graph needs at least 2 nodes"),
    ("cycle:2", "cycle needs at least 3 nodes"),
    ("chain:1", "chain needs at least 2 nodes"),
    ("grid:0x5", "grid needs at least 2 nodes"),
    ("grid:1x1", "grid needs at least 2 nodes"),
    ("torus:1x1", "grid needs at least 2 nodes"),
    ("tree:1", "tree needs at least 2 nodes"),
    ("grid:3x", "invalid literal for int() with base 10: ''"),
    ("complete:201",
     "201 nodes and 20100 edges: the limits are 10000 and 20000"),
    ("grid:200x200",
     "40000 nodes and 80000 edges: the limits are 10000 and 20000"),
    ("tree:5:-1", "expected non-negative integer"),
    ("grid:-3x-3", "grid needs at least 2 nodes"),
    ("grid:-101x-101",
     "10201 nodes and 20402 edges: the limits are 10000 and 20000"),
    ("complete:-5", "complete graph needs at least 2 nodes"),
])
def test_bad_generator_specs_name_their_fault(spec, message):
    with pytest.raises(ValueError) as info:
        build_generator(spec, 0.7)
    assert str(info.value) == f"bad generator spec {spec!r}: {message}"


@pytest.mark.parametrize("spec", ["foo:3", "k4minus:4", "complete", "tree:5:1:2"])
def test_unknown_generator_specs_are_refused(spec):
    with pytest.raises(ValueError) as info:
        build_generator(spec, 0.7)
    assert str(info.value) == f"unknown generator spec {spec!r}"


@pytest.mark.parametrize("eta", [1.5, 1.0, 0.0, -0.2, float("nan")])
def test_a_bad_eta_is_an_eta_error(eta):
    with pytest.raises(ValueError) as info:
        build_generator("k4minus", eta)
    assert str(info.value) == "eta must lie strictly between 0 and 1"
    # The spec is read first: a bad spec names itself whatever the eta.
    with pytest.raises(ValueError, match="^bad generator spec 'cycle:2'"):
        build_generator("cycle:2", eta)


def test_no_public_route_builds_past_the_caps():
    # grid_graph(200, 200, 0.6) built 40,000 nodes past the spec caps; the
    # spec is now the one route to a named topology.
    for name in ("complete_graph", "k4_minus_edge", "cycle_graph",
                 "chain_graph", "grid_graph", "torus_graph", "random_tree",
                 "symmetric_binary_potential"):
        assert not hasattr(models_mod, name), name
        assert not hasattr(loopybp, name), name
    with pytest.raises(ValueError, match="the limits are 10000 and 20000"):
        build_generator("grid:200x200", 0.6)


def test_torus_is_uniform_degree_four():
    m = build_generator("torus:3x3", 0.6)
    assert all(len(m.neighbors(v)) == 4 for v in range(m.num_nodes))


def test_grid_degree_profile():
    m = build_generator("grid:3x3", 0.6)
    degs = sorted(len(m.neighbors(v)) for v in range(9))
    assert degs == [2, 2, 2, 2, 3, 3, 3, 3, 4]


def test_symmetric_binary_potential_values():
    mat = build_generator("chain:2", 0.7).edge_pot[0]
    assert np.allclose(mat, [[0.7, 0.3], [0.3, 0.7]])
    with pytest.raises(ValueError):
        build_generator("chain:2", 1.0)


def test_model_validation():
    with pytest.raises(ModelError):
        PairwiseMRF(2, [(0, 0)])
    with pytest.raises(ModelError):
        PairwiseMRF(2, [(0, 1), (1, 0)])
    with pytest.raises(ModelError):
        PairwiseMRF(2, [(0, 2)])
    with pytest.raises(ModelError):
        PairwiseMRF(2, [(0, 1)], node_potentials=[[1.0, -1.0], [1.0, 1.0]])


ONES = [[1.0, 1.0], [1.0, 1.0]]


# Inputs with several faults: the first fault in the documented order names
# the error. Node faults, in node order, come before edge faults; within an
# edge a positivity fault comes before a shape fault; a (hi, lo) key is named
# as given; keys of missing edges are reported last.
@pytest.mark.parametrize("cards, node_pots, edge_pots, message", [
    (2, [[1.0, 1.0], [1.0, -1.0], [0.0, 1.0]], {(0, 1): [[0.0, 1.0], [1.0, 1.0]]},
     "node potential 1 must be strictly positive and finite"),
    (2, [[1.0, 1.0], [1.0, 1.0, 1.0], [np.nan, 1.0]], None,
     "node potential 1 has wrong length"),
    (2, [[1.0, 1.0], [1.0, 1.0], [1.0, 1.0, np.inf]], None,
     "node potential 2 must be strictly positive and finite"),
    (2, [[], [1.0, 1.0], [1.0, 1.0]], None,
     "node potential 0 must be strictly positive and finite"),
    (2, [[1.0, 1.0]] * 2, None, "node potential count mismatch"),
    (2, None, {(1, 2): [[1.0, -1.0, 1.0], [1.0, 1.0, 1.0]], (0, 1): [[1.0, 1.0]]},
     "edge potential (0, 1) has shape (1, 2), expected (2, 2)"),
    (2, None, {(0, 1): [[1.0, -1.0, 1.0], [1.0, 1.0, 1.0]], (1, 2): ONES},
     "edge potential (0, 1) must be strictly positive and finite"),
    (2, None, {(0, 1): ONES, (2, 1): [[1.0, np.nan], [1.0, 1.0]]},
     "edge potential (2, 1) must be strictly positive and finite"),
    ([2, 3, 2], None, {(1, 0): [[1.0, 2.0], [3.0, 4.0]]},
     "edge potential (0, 1) has shape (2, 2), expected (2, 3)"),
    ([2, 3, 2], None, {(2, 1): [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], (1, 0): []},
     "edge potential (1, 0) must be strictly positive and finite"),
    (2, None, {(0, 1): np.ones((2, 2, 1))},
     "edge potential (0, 1) has shape (2, 2, 1), expected (2, 2)"),
    (2, None, {(1, 0): np.ones((2, 2, 1))},
     "edge potential (0, 1) has shape (1, 2, 2), expected (2, 2)"),
    (2, None, {(0, 2): ONES, (1, 2): [[1.0, 1.0], [1.0, 0.0]]},
     "edge potential (1, 2) must be strictly positive and finite"),
    (2, None, {(0, 2): ONES, (1, 2): ONES, (2, 1): ONES, (2, 0): ONES},
     "edge potentials given for missing edges: [(0, 2), (2, 0), (2, 1)]"),
])
def test_model_validation_names_the_first_fault(cards, node_pots, edge_pots,
                                                message):
    with pytest.raises(ModelError) as info:
        PairwiseMRF(3, [(0, 1), (1, 2)], cards, node_pots, edge_pots)
    assert str(info.value) == message


@pytest.mark.parametrize("text, message", [
    ("nodes 3\nnode 2 1 0\nedge 0 1 1 1 1 -1\nnode 1 1 inf\n",
     "node potential 1 must be strictly positive and finite"),
    ("nodes 3\nedge 1 2 1 1 1 1\nedge 1 0 1 nan 1 1\nedge 0 2 0 1 1 1\n",
     "edge potential (0, 1) must be strictly positive and finite"),
    ("nodes 3\nnode 1 1 0 1\nedge 0 1 1 2\n",
     "line 2: node 1 has 3 values, expected 2"),
    ("nodes 3\ncard 2 3\nedge 0 1 1 1 1\nedge 2 1 1 1 1 1 1 0\n",
     "line 3: edge (0, 1) has 3 values, expected 4"),
    ("nodes 3\ncard 1 1\nnode 1 -1\nedge 0 1 1 1\n",
     "every cardinality must be at least 2"),
    ("nodes 3\nedge 0 1 1 1 1 1\nedge 1 0 1 1 1 1\n",
     "line 3: duplicate edge (0, 1)"),
    ("nodes 3\nedge 0 3 1 1 1 1\nedge 1 1 0 0 0 0\n",
     "line 2: edge (0, 3) out of range"),
    ("nodes 3\nnode 0 1 1\ncard 0 3\n",
     "line 3: card for node 0 must precede its node line"),
    ("nodes 2\nnode 0 1 2\nnode 0 3 4\n",
     "line 3: duplicate node line for node 0"),
    ("nodes 2\ncard 1 3\ncard 1 3\n",
     "line 3: duplicate card line for node 1"),
    ("node 0 1 1\n", "line 1: the nodes line must come first"),
    ("# nothing\n", "missing nodes line"),
])
def test_graph_text_names_the_first_fault(text, message):
    with pytest.raises(GraphFormatError) as info:
        parse_graph_text(text)
    assert str(info.value) == message


def test_edge_matrix_orientation():
    """edge_matrix(t, s) must always be indexed [state of t][state of s]."""
    m = PairwiseMRF(2, [(0, 1)],
                    edge_potentials={(0, 1): [[1.0, 2.0], [3.0, 4.0]]})
    assert np.allclose(m.edge_matrix(0, 1), [[1, 2], [3, 4]])
    assert np.allclose(m.edge_matrix(1, 0), [[1, 3], [2, 4]])


def test_directed_edge_ends_follow_canonical_order():
    for m in (build_generator("grid:3x3", 0.9), PairwiseMRF(2, [])):
        directed = m.directed_edges()
        assert m.directed_src.tolist() == [e.src for e in directed]
        assert m.directed_dst.tolist() == [e.dst for e in directed]
        for e in range(m.num_directed):
            assert directed[e ^ 1] == directed[e][::-1]
        with pytest.raises(ValueError):
            m.directed_src[:1] = 0


def test_with_uniform_binary_replaces_potentials():
    base = build_generator("grid:3x3", 0.9)
    redone = with_uniform_binary(base, 0.55)
    assert redone.edges == base.edges
    assert np.allclose(redone.edge_matrix(0, 1), [[0.55, 0.45], [0.45, 0.55]])


def one_edge(mat):
    """The strength table of a two-node model whose one edge carries mat."""
    mat = np.asarray(mat, dtype=float)
    return PairwiseMRF(2, [(0, 1)], list(mat.shape),
                       edge_potentials={(0, 1): mat}).strengths


def test_strength_frozen_values():
    table = one_edge(EXAMPLE_MAT)
    assert table.d_pair[0] == pytest.approx(21.0 ** 0.25, abs=1e-14)
    assert table.d_plain[0] == pytest.approx(3.0, abs=1e-14)
    assert table.d_star_row[0] == pytest.approx(1.224744871391589, abs=1e-14)
    assert table.sigma[0] == pytest.approx(1 - 1 / 21, abs=1e-14)
    d2 = math.sqrt(21.0)
    assert table.n_strength[0] == pytest.approx((d2 - 1) / (d2 + 1),
                                                abs=1e-14)


def test_symmetric_binary_strengths():
    table = build_generator("chain:2", 0.7).strengths
    assert table.d_pair[0] == pytest.approx(math.sqrt(7 / 3), abs=1e-12)
    assert table.d_star_row[0] == pytest.approx(1.0, abs=1e-14)
    assert table.n_strength[0] == pytest.approx(0.4, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(square_mats(2))
def test_minimized_strength_matches_enumeration(mat):
    assert one_edge(mat).d_pair[0] == pytest.approx(
        oracles.minimized_strength(mat), rel=1e-10)


@settings(max_examples=80, deadline=None)
@given(square_mats(3))
def test_minimized_strength_matches_enumeration_3x3(mat):
    assert one_edge(mat).d_pair[0] == pytest.approx(
        oracles.minimized_strength(mat), rel=1e-10)


@settings(max_examples=150, deadline=None)
@given(square_mats(2))
def test_summed_and_sigma_match_enumeration(mat):
    table = one_edge(mat)
    assert table.d_star_col[0] == pytest.approx(
        oracles.summed_strength(mat, 0), rel=1e-10)
    assert table.d_star_row[0] == pytest.approx(
        oracles.summed_strength(mat, 1), rel=1e-10)
    assert table.sigma[0] == pytest.approx(
        oracles.cross_ratio_sigma(mat), rel=1e-10)


@settings(max_examples=150, deadline=None)
@given(square_mats(2))
def test_marginal_strength_never_exceeds_plain(mat):
    # Row or column sums cannot spread further than the raw entries do.
    cap = oracles.plain_strength(mat) * (1 + 1e-12)
    table = one_edge(mat)
    assert table.d_star_col[0] <= cap
    assert table.d_star_row[0] <= cap


def test_strength_table_directed_views():
    m = build_generator("complete:3", 0.7)
    table = compute_strengths(m)
    d = math.sqrt(7 / 3)
    assert table.pair(0, 1) == pytest.approx(d, abs=1e-12)
    assert table.d_star_col[m.edge_index[(0, 1)]] == pytest.approx(1.0,
                                                                 abs=1e-14)
    assert table.dd[m.directed_index(0, 1)] == pytest.approx(d, abs=1e-12)
    assert table.weight(0, 2) == pytest.approx(0.4, abs=1e-12)
    with pytest.raises(ModelError, match="no edge between 0 and 99"):
        table.pair(0, 99)


def test_strength_table_directed_products_match_scalar_views():
    # Asymmetric potentials, mixed cardinality, one edge given hi-lo.
    rng = np.random.default_rng(5)
    cards = [2, 3, 4, 2]
    edges = [(0, 1), (2, 1), (2, 3), (3, 0)]
    pots = {(i, j): rng.uniform(0.2, 3.0, size=(cards[i], cards[j]))
            for i, j in edges}
    table = compute_strengths(PairwiseMRF(4, edges, cards, edge_potentials=pots))
    dd, d2 = table.dd, table.d2
    model = table.model
    directed = model.directed_edges()
    # The summed strength of t -> s sums out s: the row one when t < s.
    star = [(table.d_star_row if t < s else table.d_star_col)[
        model.edge_index[(min(t, s), max(t, s))]] for t, s in directed]
    assert dd.tolist() == [table.pair(t, s) * float(d)
                           for (t, s), d in zip(directed, star)]
    assert d2.tolist() == [table.pair(t, s) ** 2 for t, s in directed]
    assert not dd.flags.writeable and not d2.flags.writeable


def test_strength_table_arrays_are_read_only():
    # One table is shared by every reader of a model.
    table = _mixed_shape_model().strengths
    arrays = [a for a in vars(table).values() if isinstance(a, np.ndarray)]
    assert len(arrays) == 8
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_potentials_are_read_only():
    # The strength table and the engine's tables are derived from them once.
    m = _mixed_shape_model()
    views = list(m.edge_pot) + list(m.node_pot)
    stacks = [s for _, s in (*m.edge_stacks.values(), *m.node_stacks.values())]
    for arr in views + stacks:
        with pytest.raises(ValueError):
            arr[0] = 5.0
    with pytest.raises(ValueError):
        m.edge_pot[0][0, 0] = 5.0


def test_each_model_builds_its_strength_table_once(monkeypatch, capsys):
    builds = []
    build = models_mod.compute_strengths
    monkeypatch.setattr(models_mod, "compute_strengths",
                        lambda model: builds.append(model) or build(model))
    for call in (bound_report,
                 lambda m: run_residual_scheduled(m, max_updates=300)):
        m = build_generator("grid:3x3", 0.7)
        call(m)
        assert builds == [m]
        builds.clear()
    # accuracy reads the table at every node, converge in every condition.
    for argv in (["accuracy", "--generate", "grid:3x3", "--eta", "0.6"],
                 ["converge", "--generate", "grid:3x3", "--eta", "0.6"]):
        assert main(argv) == 0
        assert len(builds) == 1, argv
        builds.clear()
    capsys.readouterr()


def test_a_strength_table_of_another_model_is_refused():
    # Read as torus:3x3's at 0.55, eta 0.9's table gave nudb 8.759, not 0,
    # and flipped the uniform verdict; grid:3x3's raised an IndexError.
    m = build_generator("torus:3x3", 0.55)
    for other in (build_generator("torus:3x3", 0.9),
                  build_generator("grid:3x3", 0.55),
                  build_generator("torus:3x3", 0.55)):
        foreign = compute_strengths(other)
        for call in (lambda: nonuniform_distance_bound(m, foreign),
                     lambda: evaluate_condition(m, "uniform", foreign),
                     lambda: run_residual_scheduled(m, strengths=foreign)):
            with pytest.raises(ValueError, match="another model"):
                call()
    own = compute_strengths(m)
    assert evaluate_condition(m, "uniform", own) == \
        evaluate_condition(m, "uniform")
    assert np.array_equal(nonuniform_distance_bound(m, own)[0],
                          nonuniform_distance_bound(m)[0])
    assert run_residual_scheduled(m, strengths=own)[1].entries == \
        run_residual_scheduled(m)[1].entries


def looped_strengths(model):
    """The strength table as one scalar computation per edge: d, raw range,
    row and column summed strengths, sigma and N, clamped as the table
    clamps them."""
    e = len(model.edges)
    out = [np.ones(e), np.ones(e), np.ones(e), np.ones(e), np.zeros(e),
           np.zeros(e)]
    for m, mat in enumerate(model.edge_pot):
        logm = np.log(mat)
        cross = (logm[:, None, :, None] + logm[None, :, None, :]
                 - logm[None, :, :, None] - logm[:, None, None, :])
        rows, cols = mat.sum(axis=1), mat.sum(axis=0)
        sigma = float(1.0 - np.exp(-cross.max()))
        root = math.sqrt(1.0 - sigma)
        out[0][m] = float(np.exp(0.25 * cross.max()))
        out[1][m] = math.sqrt(float(mat.max()) / float(mat.min()))
        out[2][m] = math.sqrt(float(rows.max()) / float(rows.min()))
        out[3][m] = math.sqrt(float(cols.max()) / float(cols.min()))
        out[4][m] = sigma
        out[5][m] = (1.0 - root) / (1.0 + root)
    for k in (0, 2, 3):
        np.maximum(out[k], 1.0, out=out[k])
    return out


def _mixed_shape_model():
    # Cards chosen so the edges carry 2x2, 2x3, 3x2, 3x3 and 4x9
    # potentials, with shapes interleaved along the edge list.
    rng = np.random.default_rng(12)
    cards = [2, 3, 2, 3, 4, 9, 2, 3]
    edges = [(0, 1), (1, 2), (0, 2), (1, 3), (2, 6), (3, 7), (4, 5), (6, 7),
             (0, 6), (2, 3)]
    pots = {(i, j): rng.lognormal(0.0, 1.0, size=(cards[i], cards[j]))
            for i, j in edges}
    return PairwiseMRF(8, edges, cards, edge_potentials=pots)


@pytest.mark.parametrize("build", [
    _mixed_shape_model,
    lambda: PairwiseMRF(3, []),
    lambda: build_generator("torus:3x3", 0.8),
])
def test_strength_table_matches_per_edge_loop(build):
    m = build()
    table = compute_strengths(m)
    got = [table.d_pair, table.d_plain, table.d_star_row, table.d_star_col,
           table.sigma, table.n_strength]
    for a, b in zip(got, looped_strengths(m)):
        assert a.shape == (len(m.edges),)
        assert np.array_equal(a, b)
    for mat in m.edge_pot:
        one = _measures(mat[None])[:, 0]
        want = looped_strengths(PairwiseMRF(2, [(0, 1)], list(mat.shape),
                                            edge_potentials={(0, 1): mat}))
        # No measure falls below 1, so the clamping changes nothing here.
        assert one.tolist() == [float(w[0]) for w in want]


def _chain_of_random_potentials(nodes, card, seed):
    rng = np.random.default_rng(seed)
    edges = [(i, i + 1) for i in range(nodes - 1)]
    return PairwiseMRF(nodes, edges, card, edge_potentials={
        e: rng.lognormal(0.0, 1.0, size=(card, card)) for e in edges})


@pytest.mark.parametrize("card", [2, 3, 4, 7, 32])
def test_strength_table_slices_give_the_bits_of_one_call(card, monkeypatch):
    # Slices of two potentials split the stack of three 2 + 1; every
    # measure is per potential, so the table must hold the bits of one
    # ``_measures`` call on the whole stack.
    model = _chain_of_random_potentials(4, card, seed=card)
    monkeypatch.setattr(models_mod, "_CROSS_SLICE", 2 * card ** 4)
    table = compute_strengths(model)
    [(_, stack)] = model.edge_stacks.values()
    want = _measures(stack)
    want[[0, 2, 3]] = np.maximum(want[[0, 2, 3]], 1.0)  # the table's clamp
    got = np.stack([table.d_pair, table.d_plain, table.d_star_row,
                    table.d_star_col, table.sigma, table.n_strength])
    assert got.tobytes() == want.tobytes()


def test_strength_table_memory_does_not_grow_with_the_edge_count():
    # Eight 32-state edges: measured as one stack, their cross ratios alone
    # would take 64 MB, and the peak was about 128 MB.
    model = _chain_of_random_potentials(9, 32, seed=1)
    tracemalloc.start()
    try:
        compute_strengths(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2 ** 20


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
    m = build_generator("torus:3x3", 0.65)
    path = tmp_path / "torus.graph"
    write_graph_file(m, path)
    back = parse_graph_file(path)
    assert back.edges == m.edges
    assert np.allclose(back.edge_matrix(0, 1), m.edge_matrix(0, 1))


# A node potential within np.allclose of all ones was once written as no
# node line and read back as all ones.
near_one = st.sampled_from([1.0, 1.0 + 2.0 ** -52, 1.000001])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_graph_text_roundtrips_exactly(data):
    cards = data.draw(st.lists(st.integers(2, 4), min_size=1, max_size=4))
    n = len(cards)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)
                      if pairs else st.just([]))

    def pots(*shape):
        size = math.prod(shape)
        flat = data.draw(st.lists(positive | near_one, min_size=size,
                                  max_size=size))
        return np.reshape(flat, shape)

    m = PairwiseMRF(n, edges, cards, [pots(c) for c in cards],
                    {(i, j): pots(cards[i], cards[j]) for i, j in edges})
    back = parse_graph_text(format_graph_text(m))
    assert (back.cards, back.edges) == (m.cards, m.edges)
    for got, want in zip(back.node_pot + back.edge_pot,
                         m.node_pot + m.edge_pot):
        assert np.array_equal(got, want)


def assert_same_model(got, want):
    """Field by field: the stacks' key order, members, bytes and flags, the
    potential views, the edges and their index, and the neighbours."""
    assert (got.num_nodes, got.cards) == (want.num_nodes, want.cards)
    assert got.edges == want.edges
    assert list(got.edge_index.items()) == list(want.edge_index.items())
    for name in ("node_stacks", "edge_stacks"):
        ours, theirs = getattr(got, name), getattr(want, name)
        assert list(ours) == list(theirs)
        for (members, stack), (w_members, w_stack) in zip(ours.values(),
                                                          theirs.values()):
            for a, b in ((members, w_members), (stack, w_stack)):
                assert (a.dtype, a.shape) == (b.dtype, b.shape)
                assert a.tobytes() == b.tobytes()
                assert a.flags.writeable == b.flags.writeable
            assert not stack.flags.writeable
    for views, w_views in ((got.node_pot, want.node_pot),
                           (got.edge_pot, want.edge_pot)):
        assert len(views) == len(w_views)
        for a, b in zip(views, w_views):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
            assert not a.flags.writeable
    for v in range(want.num_nodes):
        assert got.neighbors(v) == want.neighbors(v)
    assert got.directed_src.tolist() == want.directed_src.tolist()
    assert got.directed_dst.tolist() == want.directed_dst.tolist()


@st.composite
def rewritten_graph_texts(draw):
    """A mixed-card model with its edges in drawn order, and its
    ``format_graph_text`` rewritten every way the format allows without
    changing the model: edges given from the higher node (rows transposed),
    comments, blank lines, upper-case keywords and CRLF line ends."""
    n = draw(st.integers(1, 6))
    cards = draw(st.lists(st.sampled_from([2, 3, 4, 7]), min_size=n,
                          max_size=n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    node_pots = [rng.lognormal(0.0, 1.0, size=c) if draw(st.booleans())
                 else np.ones(c) for c in cards]
    model = PairwiseMRF(n, edges, cards, node_pots, {
        (i, j): rng.lognormal(0.0, 1.0, size=(cards[i], cards[j]))
        for i, j in edges})
    lines = []
    for line in format_graph_text(model).splitlines():
        words = line.split()
        if words[0] == "edge" and draw(st.booleans()):
            lo, hi = int(words[1]), int(words[2])
            line = f"edge {hi} {lo} " + " ".join(
                repr(float(x)) for x in model.edge_matrix(hi, lo).ravel())
        if draw(st.booleans()):
            line = line.replace(words[0], words[0].upper(), 1)
        if draw(st.booleans()):
            line += "  # a comment"
        lines.append(line)
        lines += draw(st.sampled_from([[], [""], ["   "], ["# note"]]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return model, end.join(lines) + end


@settings(max_examples=150, deadline=None)
@given(rewritten_graph_texts())
def test_parsed_text_equals_the_constructed_model(case):
    model, text = case
    assert_same_model(parse_graph_text(text), model)
    assert_same_model(model.copy(), model)


def test_graph_file_keeps_a_node_potential_near_one(tmp_path):
    m = PairwiseMRF(2, [(0, 1)], node_potentials=[[1.0, 1.000001], [1, 1]])
    path = tmp_path / "near_one.graph"
    write_graph_file(m, path)
    assert np.array_equal(parse_graph_file(path).node_pot[0], [1.0, 1.000001])


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
