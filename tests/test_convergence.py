import math
import time

import numpy as np
import pytest

import oracles
from loopybp import (
    EnumerationLimitError,
    PairwiseMRF,
    build_generator,
    compute_strengths,
    critical_eta,
    evaluate_condition,
    ihler_uniform_condition,
    interaction_matrix,
    nonuniform_condition,
    parse_graph_file,
    saw_tree,
    spectral_radius,
    uniform_condition,
    walk_summability,
    with_uniform_binary,
)
from loopybp import convergence as convergence_mod
from loopybp import trees as trees_mod
from loopybp.convergence import (CONDITION_NAMES, _edge_sums,
                                 _saw_statistic)
from test_engine import _mixed_card_grid


SAW, BETHE = "nonuniform-saw", "nonuniform-bethe"


def eta_weight(eta):
    # Interaction weight of the symmetric binary potential: (d^2-1)/(d^2+1).
    return 2.0 * eta - 1.0


def test_uniform_condition_statistic():
    m = build_generator("complete:4", 0.7)
    verdict = uniform_condition(compute_strengths(m))
    d = math.sqrt(7.0 / 3.0)
    assert verdict.statistic == pytest.approx(2 * (d - 1) / (d + 1), abs=1e-12)
    assert verdict.threshold == 0.5
    assert verdict.holds
    assert verdict.condition == "uniform"


def test_ihler_condition_statistic():
    m = build_generator("torus:3x3", 0.6)
    verdict = ihler_uniform_condition(compute_strengths(m))
    d2 = 0.6 / 0.4
    assert verdict.statistic == pytest.approx(3 * (d2 - 1) / (d2 + 1), abs=1e-12)
    assert verdict.threshold == 1.0
    assert verdict.holds


def rate_metric(strengths, edge) -> float:
    """Distance of the ihler-uniform edge sum from its threshold; the
    derivative magnitude of the error recursion at zero, a proxy for how
    fast messages along (s, p) settle."""
    at = strengths.model.directed_index(*edge)
    return abs(float(_edge_sums(strengths, strengths.d2)[at]) - 1.0)


def test_rate_metric_definition():
    m = build_generator("complete:4", 0.7)
    table = compute_strengths(m)
    edge = (0, 1)
    d2 = 7.0 / 3.0
    want = abs(2 * (d2 - 1) / (d2 + 1) - 1.0)
    assert rate_metric(table, edge) == pytest.approx(want, abs=1e-12)


def test_analytic_uniform_criticals():
    complete, torus = (build_generator(spec, 0.9)
                       for spec in ("complete:4", "torus:3x3"))
    assert critical_eta(complete, "uniform") == pytest.approx(
        25 / 34, abs=5e-4)
    assert critical_eta(torus, "uniform") == pytest.approx(
        49 / 74, abs=5e-4)
    assert critical_eta(complete, "ihler-uniform") == pytest.approx(
        0.75, abs=5e-4)
    assert critical_eta(torus, "ihler-uniform") == pytest.approx(
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
    model = build_generator("complete:4", 0.7)
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
        got = nonuniform_condition(build_generator("complete:4", eta).strengths,
                                   tree="saw").statistic
        assert got == pytest.approx(6 * w ** 3 + 12 * w ** 4, abs=1e-12)
        got = nonuniform_condition(build_generator("k4minus", eta).strengths,
                                   tree="saw").statistic
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
    assert _saw_statistic(strengths) == _saw_by_lookup(m, strengths)


# The SAW statistic and its witness, and every root's SAW tree depth, on the
# desk graphs at eta 0.6, as they were before the walk budget.
DESK_SAW = {
    "complete:4": (0.06719999999999995, 0, [3] * 4),
    "k4minus": (0.035199999999999974, 0, [3] * 4),
    "grid:3x3": (0.013336575999999989, 4, [8, 7] * 4 + [8]),
    "torus:3x3": (0.1056788479999999, 0, [8] * 9),
    "grid:4x4": (0.01766045387325438, 5, [15] * 16),
}


@pytest.mark.parametrize("spec", sorted(DESK_SAW))
def test_desk_saw_statistics_and_depths_are_unchanged(spec):
    m = build_generator(spec, 0.6)
    stat, witness, depths = DESK_SAW[spec]
    got = _saw_statistic(m.strengths)
    assert got[0] == pytest.approx(stat, rel=1e-14)
    assert got[1] == witness
    assert [saw_tree(m, v).depth for v in range(m.num_nodes)] == depths


def test_both_walk_enumerators_share_one_budget(monkeypatch):
    # torus:3x3 has 1,009 self-avoiding walks out of each node, the empty
    # walk included: both enumerators admit exactly that many.
    m = build_generator("torus:3x3", 0.6)
    for budget, fits in ((1009, True), (1008, False)):
        for mod in (convergence_mod, trees_mod):
            monkeypatch.setattr(mod, "_MAX_WALKS", budget)
        for enumerate_walks in (lambda: _saw_statistic(m.strengths),
                                lambda: saw_tree(m, 0)):
            if fits:
                enumerate_walks()
            else:
                with pytest.raises(EnumerationLimitError,
                                   match="more than 1008 self-avoiding "
                                         "walks out of node 0"):
                    enumerate_walks()


def test_walk_budget_admits_grid_5x5_and_torus_4x4_not_grid_6x6():
    # The largest SAW trees of grid:5x5 (at node 0) and torus:4x4.
    assert len(saw_tree(build_generator("grid:5x5", 0.6), 0)) == 153745
    assert len(saw_tree(build_generator("torus:4x4", 0.6), 0)) == 90677
    start = time.perf_counter()
    with pytest.raises(EnumerationLimitError):
        _saw_statistic(build_generator("grid:6x6", 0.6).strengths)
    assert time.perf_counter() - start < 30.0


def test_saw_criticals_match_polynomial_roots():
    root_k4 = oracles.bisect_root(lambda w: 6 * w ** 3 + 12 * w ** 4 - 1, 0.1, 0.9)
    got = critical_eta(build_generator("complete:4", 0.9), SAW)
    assert got == pytest.approx((root_k4 + 1) / 2, abs=5e-4)
    root_k4e = oracles.bisect_root(lambda w: 2 * w ** 3 + 6 * w ** 4 - 1, 0.1, 0.9)
    got = critical_eta(build_generator("k4minus", 0.9), SAW)
    assert got == pytest.approx((root_k4e + 1) / 2, abs=5e-4)


def test_saw_criticals_frozen_grid_torus():
    assert critical_eta(build_generator("grid:3x3", 0.9), SAW) == pytest.approx(
        0.7708870692253114, abs=5e-4)
    assert critical_eta(build_generator("torus:3x3", 0.9), SAW) == pytest.approx(
        0.6580937754631042, abs=5e-4)


def test_bethe_uniform_closed_form():
    # Uniform degree D: depth-N statistic is (w(D-1))^N.
    for N in (2, 5, 9):
        for eta in (0.6, 0.7):
            w = eta_weight(eta)
            got = nonuniform_condition(build_generator("torus:3x3", eta).strengths,
                                       tree="bethe", N=N).statistic
            assert got == pytest.approx((3 * w) ** N, rel=1e-10)


def test_bethe_criticals_frozen():
    k4minus = build_generator("k4minus", 0.9)
    grid = build_generator("grid:3x3", 0.9)
    assert critical_eta(k4minus, BETHE, N=8) == pytest.approx(
        0.820598842716217, abs=5e-4)
    assert critical_eta(k4minus, BETHE, N=16) == pytest.approx(
        0.8243088473320006, abs=5e-4)
    assert critical_eta(grid, BETHE, N=18) == pytest.approx(
        0.7810836226463316, abs=5e-4)
    assert critical_eta(grid, BETHE, N=36) == pytest.approx(
        0.7849328358650207, abs=5e-4)


def test_bethe_walk_sums_past_the_float_range_read_inf():
    # At depth 3000 the walk sums on complete:4 at eta 0.9 overflow, and
    # the next step would subtract inf from inf.
    m = build_generator("complete:4", 0.9)
    deep = nonuniform_condition(m.strengths, tree="bethe", N=1100)
    assert deep.statistic < math.inf
    verdict = nonuniform_condition(m.strengths, tree="bethe", N=3000)
    assert verdict.statistic == math.inf and not verdict.holds


def test_interaction_matrix_structure():
    m = build_generator("torus:3x3", 0.6)
    mat = interaction_matrix(m.strengths)
    n_dir = m.num_directed
    assert mat.shape == (n_dir, n_dir)
    # Every directed edge of the 4-regular torus feeds 3 non-backtracking
    # successors with the same weight.
    w = eta_weight(0.6)
    assert np.allclose(mat.sum(axis=1), 3 * w, atol=1e-12)
    rho = spectral_radius(mat)
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
    edges = [(j, i) for i, j in build_generator("torus:4x4", 0.6).edges]
    edges = [edges[k] for k in rng.permutation(len(edges))]
    pots = {e: rng.uniform(0.2, 3.0, size=(2, 2)) for e in edges}
    return PairwiseMRF(16, edges, edge_potentials=pots)


@pytest.mark.parametrize("kind", ["complete:4", "k4minus", "grid:3x3",
                                  "torus:3x3", "tree", "mixed-card-file",
                                  "shuffled-reversed"])
def test_non_backtracking_relation_matches_double_loop(kind, tmp_path):
    if kind == "tree":
        m = build_generator("tree:9:2", 0.7)
    elif kind == "mixed-card-file":
        m = _mixed_card_graph_file(tmp_path / "mixed.graph")
    elif kind == "shuffled-reversed":
        m = _shuffled_reversed_torus()
    else:
        m = build_generator(kind, 0.7)
    directed = [tuple(e) for e in m.directed_edges()]
    pairs = oracles.non_backtracking_pairs(directed)
    seg, feed = m.non_backtracking_pairs
    assert list(zip(seg.tolist(), feed.tolist())) == pairs
    st = compute_strengths(m)
    expected = oracles.interaction_matrix(directed, st.weight)
    assert np.array_equal(interaction_matrix(st), np.array(expected))
    # The uniform certificate sums over the same relation.
    sums = [0.0] * len(directed)
    for f, g in pairs:
        dd = st.dd[g]
        sums[f] += (dd - 1.0) / (dd + 1.0)
    verdict = uniform_condition(st)
    assert verdict.statistic == pytest.approx(max(sums), rel=1e-14)
    assert verdict.witness == directed[sums.index(max(sums))]


def test_interaction_matrix_tree_radius_is_conservative():
    # The true radius of a tree's nilpotent interaction matrix is 0; the
    # Collatz estimate may level off at an over-estimate but must stay below
    # one so the certificate still fires.
    m = build_generator("chain:4", 0.8)
    rho = spectral_radius(interaction_matrix(m.strengths))
    assert 0.0 <= rho <= eta_weight(0.8) + 1e-9
    assert walk_summability(m.strengths).holds


@pytest.mark.parametrize("make", [
    lambda: build_generator("tree:6:2", 0.06),
    lambda: build_generator("chain:4", 0.7),
    lambda: with_uniform_binary(PairwiseMRF(5, [(0, 1), (2, 3), (3, 4)]),
                                0.9)])
def test_walk_summability_is_zero_on_forests(make):
    # A forest's interaction matrix is nilpotent; the power iteration would
    # creep toward 0 through its whole step budget.
    table = make().strengths
    start = time.perf_counter()
    assert walk_summability(table).statistic == 0.0
    assert time.perf_counter() - start < 0.1


def test_walk_summability_sees_a_cycle_beside_a_tree():
    m = with_uniform_binary(PairwiseMRF(5, [(0, 1), (1, 2), (0, 2), (3, 4)]),
                            0.9)
    assert walk_summability(m.strengths).statistic == pytest.approx(
        eta_weight(0.9), abs=1e-8)


def test_spectral_radius_handles_periodic_matrices():
    # Plain power iteration stalls on this one; the shifted iteration must not.
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert spectral_radius(swap) == pytest.approx(1.0, abs=1e-9)
    assert spectral_radius(np.array([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(
        3.0, abs=1e-9)


def test_walk_summability_on_grid_is_bipartite_safe():
    # The grid's non-backtracking matrix has a +/- leading pair; radius
    # sqrt(3) times the weight.
    m = build_generator("grid:3x3", 0.7)
    verdict = walk_summability(m.strengths)
    assert verdict.statistic == pytest.approx(math.sqrt(3.0) * eta_weight(0.7),
                                              abs=1e-8)
    assert verdict.threshold == 1.0
    assert verdict.holds


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 5: two equal Collatz ratios stop the power iteration "
    "at the max row sum, not at the spectral radius"))
def test_spectral_radius_on_a_grid_matches_the_eigenvalues():
    mat = interaction_matrix(build_generator("grid:5x5", 0.6).strengths)
    # The largest eigenvalue modulus is 0.4735; the iteration reads 0.6.
    assert spectral_radius(mat) == pytest.approx(
        max(abs(np.linalg.eigvals(mat))), abs=1e-6)
    # Where that modulus reaches 1; the iteration's bound gives 0.66668.
    assert critical_eta(build_generator("grid:5x5", 0.6),
                        "walksum") == pytest.approx(0.71118, abs=1e-3)


def test_walk_summability_criticals():
    def critical(spec):
        return critical_eta(build_generator(spec, 0.9), "walksum")

    assert critical("complete:4") == pytest.approx(0.75, abs=5e-4)
    assert critical("torus:3x3") == pytest.approx(2 / 3, abs=5e-4)
    assert critical("grid:3x3") == pytest.approx(
        (1 + 1 / math.sqrt(3.0)) / 2, abs=5e-4)
    assert critical("k4minus") == pytest.approx(0.8286490530691879, abs=5e-4)


def test_edgeless_graph_certificates_are_zero():
    m = PairwiseMRF(2, [])
    assert walk_summability(m.strengths).statistic == 0.0
    for name in CONDITION_NAMES:
        verdict = evaluate_condition(m, name)
        assert (verdict.statistic, verdict.witness) == (0.0, None), name
        assert verdict.holds


def test_evaluate_condition_names_and_aliases():
    m = build_generator("torus:3x3", 0.6)
    for name in CONDITION_NAMES:
        verdict = evaluate_condition(m, name)
        assert verdict.holds
    # One name per certificate: the short forms are not aliases.
    for name in ("saw", "bethe", "definitely-not-a-condition"):
        with pytest.raises(ValueError, match="unknown condition"):
            evaluate_condition(m, name)


def test_walk_deeper_than_the_recursion_limit_is_an_enumeration_limit():
    model = build_generator("chain:1200", 0.6)
    with pytest.raises(EnumerationLimitError, match="too long to follow"):
        evaluate_condition(model, SAW)
    with pytest.raises(EnumerationLimitError, match="too long to follow"):
        saw_tree(model, 0)


def test_condition_ordering_report_clean():
    for spec, eta in (("complete:4", 0.7), ("torus:3x3", 0.64),
                      ("grid:3x3", 0.77), ("k4minus", 0.81)):
        m = build_generator(spec, eta)
        assert oracles.condition_ordering_violations(m) == []


def test_partial_graph_ordering():
    def check(part, whole, eta, condition):
        return oracles.partial_graph_ordering_check(
            build_generator(part, eta), build_generator(whole, eta), condition)

    assert check("k4minus", "complete:4", 0.9, SAW)
    assert check("grid:3x3", "torus:3x3", 0.9, "walksum")
    with pytest.raises(ValueError):
        check("chain:3", "complete:4", 0.7, SAW)
    with pytest.raises(ValueError):
        # Neither edge set contains the other.
        check("chain:4", "torus:2x2", 0.7, SAW)


def test_condition_strictness_at_single_eta():
    """At 0.74 on the torus: walk-summability already failed (2/3) while the
    SAW condition still fails later; both bethe levels agree with their
    premise conditions."""
    m = with_uniform_binary(build_generator("torus:3x3", 0.9), 0.65)
    assert evaluate_condition(m, "walksum").holds
    assert evaluate_condition(m, "nonuniform-bethe").holds
    assert evaluate_condition(m, "nonuniform-saw").holds
    hot = with_uniform_binary(m, 0.70)
    assert not evaluate_condition(hot, "walksum").holds
    assert not evaluate_condition(hot, "nonuniform-saw").holds
