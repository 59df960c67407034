import math

import numpy as np
import pytest

import oracles
from loopybp import (
    PairwiseMRF,
    build_generator,
    chain_graph,
    complete_graph,
    compute_strengths,
    condition_ordering_report,
    critical_eta,
    evaluate_condition,
    grid_graph,
    ihler_uniform_condition,
    interaction_matrix,
    k4_minus_edge,
    nonuniform_condition,
    parse_graph_file,
    partial_graph_ordering_check,
    random_tree,
    rate_metric,
    spectral_radius,
    torus_graph,
    uniform_condition,
    walk_summability,
    with_uniform_binary,
)
from loopybp.convergence import CONDITION_NAMES, _saw_statistic
from test_engine import _mixed_card_grid


def eta_weight(eta):
    # Interaction weight of the symmetric binary potential: (d^2-1)/(d^2+1).
    return 2.0 * eta - 1.0


def test_uniform_condition_statistic():
    m = complete_graph(4, 0.7)
    verdict = uniform_condition(compute_strengths(m))
    d = math.sqrt(7.0 / 3.0)
    assert verdict.statistic == pytest.approx(2 * (d - 1) / (d + 1), abs=1e-12)
    assert verdict.threshold == 0.5
    assert verdict.holds
    assert verdict.condition == "uniform"


def test_ihler_condition_statistic():
    m = torus_graph(3, 3, 0.6)
    verdict = ihler_uniform_condition(compute_strengths(m))
    d2 = 0.6 / 0.4
    assert verdict.statistic == pytest.approx(3 * (d2 - 1) / (d2 + 1), abs=1e-12)
    assert verdict.threshold == 1.0
    assert verdict.holds


def test_rate_metric_definition():
    m = complete_graph(4, 0.7)
    table = compute_strengths(m)
    edge = (0, 1)
    d2 = 7.0 / 3.0
    want = abs(2 * (d2 - 1) / (d2 + 1) - 1.0)
    assert rate_metric(table, edge) == pytest.approx(want, abs=1e-12)


def test_analytic_uniform_criticals():
    assert critical_eta(complete_graph(4, 0.9), "uniform") == pytest.approx(
        25 / 34, abs=5e-4)
    assert critical_eta(torus_graph(3, 3, 0.9), "uniform") == pytest.approx(
        49 / 74, abs=5e-4)
    assert critical_eta(complete_graph(4, 0.9), "ihler-uniform") == pytest.approx(
        0.75, abs=5e-4)
    assert critical_eta(torus_graph(3, 3, 0.9), "ihler-uniform") == pytest.approx(
        2 / 3, abs=5e-4)


def _threshold_loop(model, condition, tol=1e-4, lo=0.5, hi=0.9999):
    """The bisection loop critical_eta had before it called the shared
    helper, kept as the reference its digits must match."""

    def holds(eta):
        return evaluate_condition(with_uniform_binary(model, eta),
                                  condition).holds

    if not holds(lo):
        return lo
    if holds(hi):
        return hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("kind", ["complete:4", "k4minus", "grid:3x3",
                                  "torus:3x3"])
def test_critical_eta_matches_threshold_loop(kind):
    model = build_generator(kind, 0.7)
    for condition in CONDITION_NAMES:
        assert critical_eta(model, condition) == \
            _threshold_loop(model, condition), condition


def test_critical_eta_rejects_tolerance_it_cannot_reach():
    model = complete_graph(4, 0.7)
    for tol in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            critical_eta(model, "uniform", tol=tol)
    # Below the float spacing the bracket ends as two adjacent floats.
    assert critical_eta(model, "uniform", tol=1e-300) == pytest.approx(
        25 / 34, abs=1e-15)


def test_saw_statistic_closed_forms():
    """Walk sums over the self-avoiding tree with closure terminals collapse
    to small polynomials in the interaction weight on the K4 family."""
    for eta in (0.6, 0.72, 0.8):
        w = eta_weight(eta)
        got = nonuniform_condition(complete_graph(4, eta), tree="saw").statistic
        assert got == pytest.approx(6 * w ** 3 + 12 * w ** 4, abs=1e-12)
        got = nonuniform_condition(k4_minus_edge(eta), tree="saw").statistic
        want = max(2 * w ** 3 + 6 * w ** 4, 4 * w ** 3 + 2 * w ** 4)
        assert got == pytest.approx(want, abs=1e-12)


def _saw_by_lookup(model, strengths):
    # The walk-sum recursion looking up each edge weight where it is used.
    def rec(c, parent, visited):
        total = 0.0
        extended = False
        for u in model.neighbors(c):
            if u == parent:
                continue
            w = strengths.weight(c, u)
            if u in visited:
                total += w
            else:
                extended = True
                total += w * rec(u, c, visited | {u})
        if not extended and total == 0.0:
            return 1.0
        return total

    stat, witness = 0.0, None
    for v in range(model.num_nodes):
        total = 0.0
        for c in model.neighbors(v):
            total += strengths.weight(v, c) * rec(c, v, {v, c})
        if total > stat:
            stat, witness = total, v
    return stat, witness


@pytest.mark.parametrize("make", [
    lambda: build_generator("complete:4", 0.6),
    lambda: build_generator("k4minus", 0.7),
    lambda: build_generator("grid:3x3", 0.8),
    lambda: build_generator("torus:3x3", 0.6),
    lambda: build_generator("grid:4x4", 0.6),
    _mixed_card_grid])
def test_saw_statistic_equals_per_lookup_recursion(make):
    m = make()
    strengths = compute_strengths(m)
    assert _saw_statistic(m, strengths) == _saw_by_lookup(m, strengths)


def test_saw_criticals_match_polynomial_roots():
    root_k4 = oracles.bisect_root(lambda w: 6 * w ** 3 + 12 * w ** 4 - 1, 0.1, 0.9)
    got = critical_eta(complete_graph(4, 0.9), "saw")
    assert got == pytest.approx((root_k4 + 1) / 2, abs=5e-4)
    root_k4e = oracles.bisect_root(lambda w: 2 * w ** 3 + 6 * w ** 4 - 1, 0.1, 0.9)
    got = critical_eta(k4_minus_edge(0.9), "saw")
    assert got == pytest.approx((root_k4e + 1) / 2, abs=5e-4)


def test_saw_criticals_frozen_grid_torus():
    assert critical_eta(grid_graph(3, 3, 0.9), "saw") == pytest.approx(
        0.7708870692253114, abs=5e-4)
    assert critical_eta(torus_graph(3, 3, 0.9), "saw") == pytest.approx(
        0.6580937754631042, abs=5e-4)


def test_bethe_uniform_closed_form():
    # Uniform degree D: depth-N statistic is (w(D-1))^N.
    for N in (2, 5, 9):
        for eta in (0.6, 0.7):
            w = eta_weight(eta)
            got = nonuniform_condition(torus_graph(3, 3, eta), tree="bethe",
                                       N=N).statistic
            assert got == pytest.approx((3 * w) ** N, rel=1e-10)


def test_bethe_criticals_frozen():
    assert critical_eta(k4_minus_edge(0.9), "bethe", N=8) == pytest.approx(
        0.820598842716217, abs=5e-4)
    assert critical_eta(k4_minus_edge(0.9), "bethe", N=16) == pytest.approx(
        0.8243088473320006, abs=5e-4)
    assert critical_eta(grid_graph(3, 3, 0.9), "bethe", N=18) == pytest.approx(
        0.7810836226463316, abs=5e-4)
    assert critical_eta(grid_graph(3, 3, 0.9), "bethe", N=36) == pytest.approx(
        0.7849328358650207, abs=5e-4)


def test_interaction_matrix_structure():
    m = torus_graph(3, 3, 0.6)
    im = interaction_matrix(m)
    n_dir = m.num_directed
    assert im.matrix.shape == (n_dir, n_dir)
    # Every directed edge of the 4-regular torus feeds 3 non-backtracking
    # successors with the same weight.
    w = eta_weight(0.6)
    assert np.allclose(im.matrix.sum(axis=1), 3 * w, atol=1e-12)
    rho = spectral_radius(im.matrix)
    assert rho == pytest.approx(3 * w, abs=1e-9)


def _mixed_card_graph_file(path):
    # Cardinalities 2 to 4, asymmetric potentials, one edge given hi-lo.
    rng = np.random.default_rng(7)
    cards = [2, 3, 2, 4, 3]
    lines = ["nodes 5", "card 1 3", "card 3 4", "card 4 3"]
    for i, j in ((0, 1), (1, 2), (3, 2), (3, 4), (4, 0), (1, 3)):
        vals = rng.uniform(0.2, 3.0, size=cards[i] * cards[j])
        lines.append(f"edge {i} {j} " + " ".join(f"{v:.6f}" for v in vals))
    path.write_text("\n".join(lines) + "\n")
    return parse_graph_file(path)


def _shuffled_reversed_torus():
    # Edges listed in shuffled order, each as (hi, lo), with random
    # potentials so that the weights differ per edge.
    rng = np.random.default_rng(3)
    edges = [(j, i) for i, j in torus_graph(4, 4, 0.6).edges]
    edges = [edges[k] for k in rng.permutation(len(edges))]
    pots = {e: rng.uniform(0.2, 3.0, size=(2, 2)) for e in edges}
    return PairwiseMRF(16, edges, edge_potentials=pots)


@pytest.mark.parametrize("kind", ["complete:4", "k4minus", "grid:3x3",
                                  "torus:3x3", "tree", "mixed-card-file",
                                  "shuffled-reversed"])
def test_non_backtracking_relation_matches_double_loop(kind, tmp_path):
    if kind == "tree":
        m = random_tree(9, 0.7, seed=2)
    elif kind == "mixed-card-file":
        m = _mixed_card_graph_file(tmp_path / "mixed.graph")
    elif kind == "shuffled-reversed":
        m = _shuffled_reversed_torus()
    else:
        m = build_generator(kind, 0.7)
    directed = [tuple(e) for e in m.directed_edges()]
    pairs = oracles.non_backtracking_pairs(directed)
    seg, feed = m.non_backtracking_pairs()
    assert list(zip(seg.tolist(), feed.tolist())) == pairs
    st = compute_strengths(m)
    expected = oracles.interaction_matrix(directed, st.weight)
    assert np.array_equal(interaction_matrix(m, st).matrix, np.array(expected))
    # The uniform certificate sums over the same relation.
    sums = [0.0] * len(directed)
    for f, g in pairs:
        dd = st.directed_product(*directed[g])
        sums[f] += (dd - 1.0) / (dd + 1.0)
    verdict = uniform_condition(st)
    assert verdict.statistic == pytest.approx(max(sums), rel=1e-14)
    assert verdict.witness == directed[sums.index(max(sums))]


def test_interaction_matrix_tree_radius_is_conservative():
    # The true radius of a tree's nilpotent interaction matrix is 0; the
    # Collatz estimate may level off at an over-estimate but must stay below
    # one so the certificate still fires.
    m = chain_graph(4, 0.8)
    rho = spectral_radius(interaction_matrix(m).matrix)
    assert 0.0 <= rho <= eta_weight(0.8) + 1e-9
    assert walk_summability(m).holds


def test_spectral_radius_handles_periodic_matrices():
    # Plain power iteration stalls on this one; the shifted iteration must not.
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert spectral_radius(swap) == pytest.approx(1.0, abs=1e-9)
    assert spectral_radius(np.array([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(
        3.0, abs=1e-9)


def test_walk_summability_on_grid_is_bipartite_safe():
    # The grid's non-backtracking matrix has a +/- leading pair; radius
    # sqrt(3) times the weight.
    m = grid_graph(3, 3, 0.7)
    verdict = walk_summability(m)
    assert verdict.statistic == pytest.approx(math.sqrt(3.0) * eta_weight(0.7),
                                              abs=1e-8)
    assert verdict.threshold == 1.0
    assert verdict.holds


def test_walk_summability_criticals():
    assert critical_eta(complete_graph(4, 0.9), "walksum") == pytest.approx(
        0.75, abs=5e-4)
    assert critical_eta(torus_graph(3, 3, 0.9), "walksum") == pytest.approx(
        2 / 3, abs=5e-4)
    assert critical_eta(grid_graph(3, 3, 0.9), "walksum") == pytest.approx(
        (1 + 1 / math.sqrt(3.0)) / 2, abs=5e-4)
    assert critical_eta(k4_minus_edge(0.9), "walksum") == pytest.approx(
        0.8286490530691879, abs=5e-4)


def test_walk_summability_needs_edges():
    with pytest.raises(ValueError):
        walk_summability(PairwiseMRF(2, []))


def test_evaluate_condition_names_and_aliases():
    m = torus_graph(3, 3, 0.6)
    for name in CONDITION_NAMES:
        verdict = evaluate_condition(m, name)
        assert verdict.holds
    assert evaluate_condition(m, "saw").statistic == pytest.approx(
        evaluate_condition(m, "nonuniform-saw").statistic, abs=1e-14)
    assert evaluate_condition(m, "bethe").statistic == pytest.approx(
        evaluate_condition(m, "nonuniform-bethe").statistic, abs=1e-14)
    with pytest.raises(ValueError):
        evaluate_condition(m, "definitely-not-a-condition")


def test_condition_ordering_report_clean():
    for m in (complete_graph(4, 0.7), torus_graph(3, 3, 0.64),
              grid_graph(3, 3, 0.77), k4_minus_edge(0.81)):
        report = condition_ordering_report(m)
        assert report.ok
        assert report.violations == []


def test_partial_graph_ordering():
    assert partial_graph_ordering_check(k4_minus_edge(0.9),
                                        complete_graph(4, 0.9), "saw")
    assert partial_graph_ordering_check(grid_graph(3, 3, 0.9),
                                        torus_graph(3, 3, 0.9), "walksum")
    with pytest.raises(ValueError):
        partial_graph_ordering_check(chain_graph(3, 0.7),
                                     complete_graph(4, 0.7), "saw")
    with pytest.raises(ValueError):
        # Neither edge set contains the other.
        partial_graph_ordering_check(chain_graph(4, 0.7),
                                     torus_graph(2, 2, 0.7), "saw")


def test_condition_strictness_at_single_eta():
    """At 0.74 on the torus: walk-summability already failed (2/3) while the
    SAW condition still fails later; both bethe levels agree with their
    premise conditions."""
    m = with_uniform_binary(torus_graph(3, 3, 0.9), 0.65)
    assert evaluate_condition(m, "walksum").holds
    assert evaluate_condition(m, "bethe").holds
    assert evaluate_condition(m, "saw").holds
    hot = with_uniform_binary(m, 0.70)
    assert not evaluate_condition(hot, "walksum").holds
    assert not evaluate_condition(hot, "saw").holds
