import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from loopybp import accuracy as accuracy_mod
from loopybp import bounds as bounds_mod
from loopybp import models as models_mod
from loopybp import (
    ConvergenceFailure,
    EnumerationLimitError,
    ModelError,
    PairwiseMRF,
    accuracy_bound,
    build_generator,
    exact_marginals,
    ihler_nonuniform_distance_bound,
    nonuniform_distance_bound,
    parse_graph_text,
    run_synchronous,
    saw_accuracy,
    saw_tree,
)


def oracle_form(model):
    return (list(model.cards),
            [list(model.node_pot[v]) for v in range(model.num_nodes)],
            {(i, j): [list(r) for r in model.edge_matrix(i, j)]
             for i, j in model.edges})


def test_exact_marginals_match_loop_enumeration():
    m = PairwiseMRF(4, [(0, 1), (0, 2), (1, 2), (2, 3)],
                    node_potentials=[[1.0, 2.0], [0.7, 0.9], [1.5, 0.4], [1.0, 1.0]],
                    edge_potentials={(0, 1): [[1.1, 0.4], [0.6, 1.9]],
                                     (0, 2): [[0.5, 1.5], [1.2, 0.8]],
                                     (1, 2): [[2.0, 1.0], [0.3, 1.4]],
                                     (2, 3): [[1.0, 0.2], [0.4, 1.3]]})
    got = exact_marginals(m)
    want = oracles.enumerate_marginals(*oracle_form(m))
    for v in range(4):
        assert np.allclose(got[v], want[v], atol=1e-12)


def test_exact_marginals_mixed_cardinality():
    m = PairwiseMRF(3, [(0, 1), (1, 2)], cardinality=[2, 3, 2],
                    node_potentials=[[1.0, 2.0], [1.0, 0.5, 2.0], [3.0, 1.0]],
                    edge_potentials={(0, 1): [[1, 2, 1], [2, 1, 3]],
                                     (1, 2): [[1, 2], [2, 1], [1, 1]]})
    got = exact_marginals(m)
    want = oracles.enumerate_marginals(*oracle_form(m))
    for v in range(3):
        assert np.allclose(got[v], want[v], atol=1e-12)


def test_enumeration_limit_guard():
    big = build_generator("chain:25", 0.6)
    with pytest.raises(EnumerationLimitError):
        exact_marginals(big)


def test_accuracy_bound_algebra():
    ab = accuracy_bound([0.6, 0.4], 1.2, 1.4)
    b = np.array([0.6, 0.4])
    expected_lower = np.maximum(b / 1.4, b / (1.2 ** 2 * (1 - b) + b))
    expected_upper = np.minimum(b * 1.4, 1.2 ** 2 * b / ((1 - b) + 1.2 ** 2 * b))
    assert np.allclose(ab.lower, expected_lower, atol=1e-14)
    assert np.allclose(ab.upper, expected_upper, atol=1e-14)
    assert np.all(ab.lower <= b) and np.all(b <= ab.upper)


def test_accuracy_bound_trivial_factors():
    b = [0.3, 0.7]
    ab = accuracy_bound(b, 1.0, 1.0)
    assert np.allclose(ab.lower, b, atol=1e-14)
    assert np.allclose(ab.upper, b, atol=1e-14)


def test_accuracy_bound_validation():
    with pytest.raises(ValueError):
        accuracy_bound([0.6, 0.5], 1.2, 1.4)       # not normalized
    with pytest.raises(ValueError):
        accuracy_bound([1.0, 0.0], 1.2, 1.4)       # boundary belief
    with pytest.raises(ValueError):
        accuracy_bound([0.6, 0.4], 0.9, 1.4)       # delta below one
    with pytest.raises(ValueError):
        accuracy_bound([0.6, 0.4], 1.2, 0.9)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.01, max_value=0.99),
       st.floats(min_value=1.0, max_value=5.0),
       st.floats(min_value=1.0, max_value=5.0))
def test_accuracy_interval_brackets_belief(b0, delta, eps):
    ab = accuracy_bound([b0, 1.0 - b0], delta, eps)
    assert np.all(ab.lower <= np.array([b0, 1.0 - b0]) + 1e-15)
    assert np.all(ab.upper >= np.array([b0, 1.0 - b0]) - 1e-15)
    assert np.all(ab.lower > 0.0)
    assert np.all(ab.upper < 1.0 + 1e-12)


def test_saw_accuracy_contains_truth_on_loopy_graphs():
    for m in (build_generator("torus:3x3", 0.6), build_generator("grid:3x3", 0.62),
              build_generator("complete:4", 0.65)):
        truth = exact_marginals(m)
        for node in range(m.num_nodes):
            ab = saw_accuracy(m, node)
            assert np.all(ab.lower <= np.asarray(truth[node]) + 1e-12)
            assert np.all(np.asarray(truth[node]) <= ab.upper + 1e-12)


def test_saw_accuracy_tree_is_tight():
    m = build_generator("chain:4", 0.7)
    truth = exact_marginals(m)
    for node in range(4):
        ab = saw_accuracy(m, node)
        assert ab.delta == pytest.approx(1.0, abs=1e-9)
        assert ab.epsilon == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(ab.lower, truth[node], atol=1e-9)
        assert np.allclose(ab.upper, truth[node], atol=1e-9)


def test_saw_accuracy_interval_shrinks_with_weaker_coupling():
    wide = saw_accuracy(build_generator("torus:3x3", 0.64), 0)
    narrow = saw_accuracy(build_generator("torus:3x3", 0.55), 0)
    assert (narrow.upper - narrow.lower).max() < (wide.upper - wide.lower).max()


def test_saw_accuracy_requires_convergence():
    # Biased node potentials knock the uniform start off the symmetric fixed
    # point, so the anti-ferromagnetic run really does oscillate.
    base = build_generator("torus:3x3", 0.25)
    m = PairwiseMRF(9, base.edges,
                    node_potentials=[[1.0, 2.0]] * 9,
                    edge_potentials={e: base.edge_matrix(*e) for e in base.edges})
    with pytest.raises(ConvergenceFailure):
        saw_accuracy(m, 0)


def test_saw_accuracy_refuses_a_walk_tree_over_the_budget():
    # complete:10 has 986,410 self-avoiding walks out of each node, above
    # the budget of 200,000, though its run converges.
    m = build_generator("complete:10", 0.52)
    assert run_synchronous(m, init="uniform").converged
    with pytest.raises(EnumerationLimitError, match="out of node 0"):
        saw_accuracy(m, 0)


def test_saw_accuracy_rejects_a_saturated_belief():
    # Node 0's belief is (1e-300, 1/(1 + 1e-300)) = (1e-300, 1.0) in floats;
    # the interval formulas need entries strictly inside (0, 1).
    m = PairwiseMRF(2, [(0, 1)], node_potentials=[[1e-300, 1.0], [1.0, 1.0]],
                    edge_potentials={(0, 1): [[1.0, 2.0], [2.0, 1.0]]})
    with pytest.raises(ModelError, match="node 0"):
        saw_accuracy(m, 0)
    bound = saw_accuracy(m, 1)
    assert np.all(bound.lower <= bound.belief)


def test_saw_accuracy_solves_its_recursion_once(monkeypatch):
    m = build_generator("torus:3x3", 0.6)
    depth = saw_tree(m, 0).depth
    ihler, _ = ihler_nonuniform_distance_bound(m, n=depth)
    improved, _ = nonuniform_distance_bound(m, n=depth, improved=True)
    calls = []
    solve = bounds_mod._solve_nonuniform
    # Counted both where bounds calls it and where accuracy does.
    for mod in (bounds_mod, accuracy_mod):
        monkeypatch.setattr(mod, "_solve_nonuniform",
                            lambda *args: calls.append(args) or solve(*args))

    # The bound calls above built the model's one table; none is built again.
    builds = []
    build = models_mod.compute_strengths
    monkeypatch.setattr(models_mod, "compute_strengths",
                        lambda model: builds.append(model) or build(model))
    ab = saw_accuracy(m, 0)
    assert builds == []
    assert len(calls) == 1
    assert ab.delta == float(np.exp(0.5 * ihler[0]))
    assert ab.epsilon == float(np.exp(improved[0]))


# A binary grid:3x3 with asymmetric potentials and fields.
ASYMMETRIC_GRID = """nodes 9
node 0 0.8080105601336406 0.913733147254314
node 1 0.8177542220497654 0.9956934103037216
node 2 1.2186427845001393 0.8870879953304835
node 3 0.8841362701201357 0.669836281835328
node 4 0.8204312021340529 0.6558041618706104
node 5 1.19709119995311 1.3296566242232641
node 6 0.8061801731548042 0.7026484143463706
node 7 1.6866043783249827 1.3867058069580223
node 8 0.7423979670939822 1.3137709311366916
edge 0 1 1.4871364114187848 0.761893754876503 0.9622473726383018 0.7208947345580919
edge 0 3 0.521686442221195 0.6514693123632891 1.1556518952687356 0.26635796627602965
edge 1 2 0.44507689247770554 0.7439097928313603 0.5390918451808706 1.175002087665771
edge 1 4 1.7290626523604795 1.1129831148447569 1.0720722718650793 1.4239592159140133
edge 2 5 1.9368896460910867 0.5316848698344632 0.6524803626768712 1.6681920169193811
edge 3 4 2.742271807274549 0.5415600720259713 1.1203364746897246 1.6345199691088919
edge 3 6 2.865968077308412 0.7217694911665099 1.3333021963953091 2.9355121494794094
edge 4 5 0.7063124904224531 0.9622467198607094 2.0925392493746564 0.6705322685160311
edge 4 7 0.7173901017853782 2.3249151507048484 0.8671618040352864 0.6459818895742444
edge 5 8 0.49306113400118345 1.2776796824894656 1.4951625734035412 0.45164123192331357
edge 6 7 0.48882089007116 0.763644345832175 0.662395716369158 0.8017307806036845
edge 7 8 2.6567376991605545 0.4041866249047237 0.9400653970262773 2.344179298704673
"""


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 16: the recursion runs from saturation as if every pinned "
    "leaf of the walk tree sat at its deepest level"))
def test_saw_accuracy_contains_the_exact_marginal_off_the_symmetric_family():
    m = parse_graph_text(ASYMMETRIC_GRID)
    bound = saw_accuracy(m, 4)
    # The belief is 0.81051 and the interval [0.80665, 0.81432]; the exact
    # marginal, 0.82200, lies above it.
    exact = float(exact_marginals(m)[4][0])
    assert bound.lower[0] <= exact <= bound.upper[0]
