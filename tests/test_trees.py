import numpy as np
import pytest

import oracles
from loopybp import (
    PairwiseMRF,
    chain_graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    k4_minus_edge,
    run_synchronous,
    saw_tree,
)
from oracles import bethe_tree, label_counts, text_dump, tree_marginal


def adjacency_of(model):
    return {v: model.neighbors(v) for v in range(model.num_nodes)}


def test_bethe_tree_counts():
    assert len(bethe_tree(cycle_graph(3, 0.7), 0, 2)) == 5
    # Non-backtracking branching on K4: 1 + 3 + 6 + 12.
    assert len(bethe_tree(complete_graph(4, 0.7), 0, 3)) == 22
    assert len(bethe_tree(complete_graph(4, 0.7), 0, 0)) == 1


def test_bethe_tree_respects_depth():
    t = bethe_tree(grid_graph(3, 3, 0.7), 4, 2)
    assert t.depth == 2
    assert all(node.depth <= 2 for node in t.nodes)
    assert t.nodes[0].label == 4
    assert t.kind == "bethe(2)"


def test_saw_tree_size_matches_walk_count():
    for model, root in [(complete_graph(4, 0.7), 0),
                        (k4_minus_edge(0.7), 2),
                        (cycle_graph(5, 0.7), 1),
                        (grid_graph(3, 3, 0.7), 0)]:
        t = saw_tree(model, root)
        assert len(t) == oracles.count_saw_walks(adjacency_of(model), root)


def test_saw_tree_k4_shape():
    t = saw_tree(complete_graph(4, 0.7), 0)
    assert len(t) == 16
    assert t.depth == 3
    assert label_counts(t) == {0: 1, 1: 5, 2: 5, 3: 5}


def test_saw_paths_never_repeat_labels():
    t = saw_tree(grid_graph(3, 3, 0.7), 4)
    for node in t.nodes:
        seen = set()
        while node is not None:
            assert node.label not in seen
            seen.add(node.label)
            node = t.nodes[node.parent] if node.parent is not None else None


def test_text_dump_mentions_every_label():
    t = bethe_tree(cycle_graph(3, 0.7), 0, 2)
    dump = text_dump(t)
    assert dump.splitlines()[0] == "0"
    assert sum(label_counts(t).values()) == len(t)


def test_unwrapping_a_tree_reproduces_it():
    m = PairwiseMRF(4, [(0, 1), (1, 2), (1, 3)],
                    node_potentials=[[1.0, 2.0], [2.0, 1.0], [1.0, 1.0], [3.0, 1.0]],
                    edge_potentials={(0, 1): [[2.0, 1.0], [1.0, 3.0]],
                                     (1, 2): [[1.0, 0.5], [0.5, 2.0]],
                                     (1, 3): [[1.2, 0.8], [0.8, 1.2]]})
    want = oracles.enumerate_marginals(
        list(m.cards),
        [list(m.node_pot[v]) for v in range(4)],
        {(i, j): [list(r) for r in m.edge_matrix(i, j)] for i, j in m.edges})
    for root in range(4):
        for tree in (bethe_tree(m, root, 5), saw_tree(m, root)):
            assert np.allclose(tree_marginal(tree), want[root], atol=1e-12)


@pytest.mark.parametrize("steps", [0, 1, 2, 3, 4])
def test_bethe_marginal_equals_iterated_sweeps(steps):
    """Root marginal of the depth-n unwrapping = beliefs after n synchronous
    sweeps from a uniform start."""
    m = grid_graph(3, 3, 0.8)
    root = 4
    if steps == 0:
        got = m.node_pot[root] / m.node_pot[root].sum()
    else:
        got = run_synchronous(m, max_iters=steps, tol=1e-15).beliefs[root]
    want = tree_marginal(bethe_tree(m, root, steps))
    assert np.allclose(got, want, atol=1e-12)


def test_chain_saw_tree_is_the_chain():
    m = chain_graph(5, 0.7)
    t = saw_tree(m, 0)
    assert len(t) == 5
    assert t.depth == 4
