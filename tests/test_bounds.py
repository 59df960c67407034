import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from loopybp import (
    MessageSet,
    ModelError,
    PairwiseMRF,
    bound_report,
    build_generator,
    compute_strengths,
    delta1,
    evaluate_condition,
    ihler_nonuniform_distance_bound,
    ihler_uniform_distance_bound,
    improved_uniform_distance_bound,
    nonuniform_distance_bound,
    parse_graph_text,
    run_residual_scheduled,
    true_distance,
    uniform_distance_bound,
    update_message,
    with_uniform_binary,
)
from loopybp import bounds as bounds_mod
from loopybp import engine as engine_mod
from loopybp.bounds import BOUND_KEYS, _Recursion
from loopybp.convergence import CONDITION_NAMES

D73 = math.sqrt(7.0 / 3.0)

# Fixed-point bounds on the 3x3 torus at eta=0.7, pinned once against the
# scalar-dynamics route (see test_uniform) and kept as regression anchors.
TORUS_07_UDB = 2.426441932959402
TORUS_07_IMPROVED = 2.3318235664963582
TORUS_07_IHLER = 4.5569448002935955
TORUS_07_TRUE = 2.2784724001499472

strengths_triples = st.tuples(
    st.floats(min_value=1.0, max_value=30.0),
    st.floats(min_value=1.0, max_value=30.0),
    st.floats(min_value=1.0, max_value=1e6),
).map(lambda t: (max(t[0], t[1]), min(t[0], t[1]), t[2]))


def test_delta_frozen_values():
    assert delta1(D73, 1.0, 2.0) == pytest.approx(
        ((D73 * 2 + 1) / (D73 + 2)) ** 2, abs=1e-14)
    assert delta1(D73, D73, 2.0) == pytest.approx(
        ((7 / 3 * 2 + 1) / (7 / 3 + 2)) ** 2, abs=1e-14)
    # Decimal anchors for the two expressions above.
    assert delta1(D73, 1.0, 2.0) == pytest.approx(1.3214546656847872, abs=1e-12)
    assert delta1(D73, D73, 2.0) == pytest.approx(1.7100591715976325, abs=1e-12)


def test_delta_trivial_cases():
    assert delta1(2.0, 1.5, 1.0) == pytest.approx(1.0, abs=1e-14)
    assert delta1(1.0, 1.0, 50.0) == pytest.approx(1.0, abs=1e-14)
    assert delta1(1.0, 1.0, 50.0) == pytest.approx(1.0, abs=1e-14)
    assert delta1(2.0, 1.5, np.inf) == pytest.approx(9.0, abs=1e-12)
    assert delta1(3.0, 3.0, np.inf) == pytest.approx(81.0, abs=1e-12)


def test_delta_domain_checks():
    with pytest.raises(ValueError):
        delta1(0.9, 1.0, 2.0)
    with pytest.raises(ValueError):
        delta1(2.0, 0.5, 2.0)
    with pytest.raises(ValueError):
        delta1(2.0, 1.0, 0.99)
    with pytest.raises(ValueError):
        delta1(2.0, 2.0, 0.5)


@settings(max_examples=250, deadline=None)
@given(strengths_triples)
def test_delta1_bracket_and_ordering(triple):
    d_pair, d_star, dE = triple
    v1 = delta1(d_pair, d_star, dE)
    v2 = delta1(d_pair, d_pair, dE)
    cap = (d_pair * d_star) ** 2
    assert 1.0 - 1e-12 <= v1 <= cap * (1 + 1e-12)
    # With d_star <= d_pair the two-strength contraction is the tighter one.
    assert v1 <= v2 * (1 + 1e-12)


@settings(max_examples=120, deadline=None)
@given(strengths_triples, st.floats(min_value=1.0, max_value=50.0))
def test_delta1_monotone_in_incoming_error(triple, bump):
    d_pair, d_star, dE = triple
    assert delta1(d_pair, d_star, dE * bump) >= delta1(d_pair, d_star, dE) - 1e-12


def one_step_error_trial(rng):
    """One exact update under true and perturbed incoming messages.

    Returns (per-state ratio vector, realized incoming dynamic range,
    plain/star strengths of the update edge).
    """
    extra = int(rng.integers(0, 3))
    nodes = 2 + extra
    edges = [(0, 1)] + [(0, 2 + i) for i in range(extra)]
    node_pots = [list(rng.uniform(0.1, 3.0, size=2)) for _ in range(nodes)]
    edge_pots = {e: rng.uniform(0.1, 3.0, size=(2, 2)) for e in edges}
    m = PairwiseMRF(nodes, edges, node_potentials=node_pots,
                    edge_potentials=edge_pots)

    base = MessageSet.random(m, seed=int(rng.integers(1 << 30)))
    pert = base.copy()
    for u in range(1, nodes):
        noisy = np.asarray(base.get(u, 0)) * rng.uniform(0.2, 5.0, size=2)
        pert.set(u, 0, noisy / noisy.sum())

    out_base = update_message(m, base, (0, 1))
    out_pert = update_message(m, pert, (0, 1))
    ratio = out_pert / out_base

    incoming = np.ones(2)
    for u in range(2, nodes):
        incoming *= np.asarray(pert.get(u, 0)) / np.asarray(base.get(u, 0))
    dE = math.sqrt(incoming.max() / incoming.min())

    mat = m.edge_matrix(0, 1)
    d_pair = float(m.strengths.d_plain[m.edge_index[(0, 1)]])
    d_row = math.sqrt(max(mat.sum(axis=1)) / min(mat.sum(axis=1)))
    return ratio, dE, d_pair, d_row


@settings(max_examples=2000, deadline=None)
@given(st.floats(1.0, 30.0), st.floats(1.0, 30.0),
       st.one_of(st.floats(1.0, 1e12), st.just(math.inf)))
def test_delta1_is_one_term_of_the_recursion(d_pair, d_star, dE):
    # delta1 writes the cap as a ratio; every bound sums it as the
    # recursion's log term. The two forms must stay one rule.
    one = np.zeros(1, dtype=int)
    rec = bounds_mod._Recursion(1, one, one, 2.0, np.array([d_pair * d_star]))
    assert math.exp(rec.sums(math.log(dE))[0]) == pytest.approx(
        delta1(d_pair, d_star, dE), rel=1e-13)


def test_one_step_containment_plain_strength():
    """Per-state error ratios of a single exact update stay inside
    [1/Delta1, Delta1] when Delta1 uses the raw dynamic range."""
    rng = np.random.default_rng(20260822)
    for _ in range(2000):
        ratio, dE, d_pair, d_row = one_step_error_trial(rng)
        cap = delta1(d_pair, d_row, max(dE, 1.0))
        assert ratio.max() <= cap * (1 + 1e-9)
        assert ratio.min() >= 1.0 / cap * (1 - 1e-9)


_VARIATION_KINDS = {
    # kind -> (use d_pair*d_star, log coefficient); G_O plain, G_II improved
    "G_O": (True, 2.0),
    "G_I": (False, 2.0),
    "G_II": (False, 1.0),
}


def bound_variation(kind: str, strengths, log_eps: float) -> float:
    """Net change of the error recursion at a node, as a function of log eps.

    ``strengths`` lists (d_pair, d_star) per incoming edge excluding the
    target. Zero at log_eps = 0 for every kind; eventually decreasing with
    slope -1, so the largest root is the recursion's stable fixed point.
    """
    try:
        use_star, coeff = _VARIATION_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown kind {kind!r}") from None
    if log_eps < 0.0:
        raise ValueError("log_eps must be non-negative")
    pairs = np.asarray(strengths, dtype=float).reshape(-1, 2)
    if np.any(pairs < 1.0):
        raise ValueError("strengths must be at least 1")
    v = pairs[:, 0] * (pairs[:, 1] if use_star else pairs[:, 0])
    one_segment = np.zeros(len(v), dtype=int)
    rec = _Recursion(1, one_segment, one_segment, coeff, v)
    return float(rec.sums(float(log_eps))[0]) - log_eps


def test_bound_variation_zero_at_origin():
    strengths = [(1.4, 1.1), (2.0, 1.0), (1.7, 1.3)]
    for kind in ("G_O", "G_I", "G_II"):
        assert bound_variation(kind, strengths, 0.0) == pytest.approx(0.0, abs=1e-14)


def test_bound_variation_uniform_example():
    strengths = [(D73, 1.0)] * 3
    want = 6.0 * math.log((D73 * math.e + 1) / (D73 + math.e)) - 1.0
    assert bound_variation("G_O", strengths, 1.0) == pytest.approx(want, abs=1e-12)


def test_bound_variation_kind_ordering():
    # d_star < d_pair shrinks the G_O log terms relative to G_I, and G_II
    # drops the factor two entirely.
    strengths = [(1.8, 1.2), (2.5, 1.4)]
    for z in (0.3, 1.0, 2.5):
        g_o = bound_variation("G_O", strengths, z)
        g_i = bound_variation("G_I", strengths, z)
        g_ii = bound_variation("G_II", strengths, z)
        assert g_o < g_i
        assert g_ii < g_i
    with pytest.raises(ValueError):
        bound_variation("G_X", strengths, 1.0)
    with pytest.raises(ValueError):
        bound_variation("G_O", strengths, -0.5)


def test_uniform_bound_frozen_torus():
    m = build_generator("torus:3x3", 0.7)
    udb, eps = uniform_distance_bound(m)
    assert np.allclose(udb, TORUS_07_UDB, atol=1e-8)
    assert float(np.max(eps)) == pytest.approx(6.170818269074831, abs=1e-8)
    improved, _ = improved_uniform_distance_bound(m)
    assert np.allclose(improved, TORUS_07_IMPROVED, atol=1e-8)
    ihler, _ = ihler_uniform_distance_bound(m)
    assert np.allclose(ihler, TORUS_07_IHLER, atol=1e-8)


def test_improved_and_ihler_share_fixed_point():
    m = build_generator("torus:3x3", 0.7)
    _, eps_improved = improved_uniform_distance_bound(m)
    _, eps_ihler = ihler_uniform_distance_bound(m)
    assert np.allclose(eps_improved, eps_ihler, atol=1e-10)


def test_zero_region_below_thresholds():
    udb, ihler = uniform_distance_bound, ihler_uniform_distance_bound
    assert np.all(udb(build_generator("complete:4", 0.73))[0] == 0.0)
    assert np.all(udb(build_generator("torus:3x3", 0.66))[0] == 0.0)
    assert np.all(ihler(build_generator("complete:4", 0.745))[0] == 0.0)
    assert np.all(ihler(build_generator("torus:3x3", 0.66))[0] == 0.0)


def test_positive_region_above_thresholds():
    udb, ihler = uniform_distance_bound, ihler_uniform_distance_bound
    assert np.all(udb(build_generator("complete:4", 0.74))[0] > 0.0)
    assert np.all(ihler(build_generator("complete:4", 0.755))[0] > 0.0)


def test_uninformative_potentials_give_zero():
    m = build_generator("chain:4", 0.5)
    for fn in (uniform_distance_bound, ihler_uniform_distance_bound):
        bounds, _ = fn(m)
        assert np.all(bounds == 0.0)


def test_nudb_limit_equals_udb_on_uniform_graphs():
    for m in (build_generator("complete:4", 0.8),
              build_generator("torus:3x3", 0.75)):
        udb, _ = uniform_distance_bound(m)
        nudb, _ = nonuniform_distance_bound(m)
        assert np.allclose(udb, nudb, atol=1e-11)


def test_nudb_monotone_in_iterations():
    m = build_generator("k4minus", 0.9)
    prev = None
    for n in (1, 2, 4, 8, 16):
        cur, _ = nonuniform_distance_bound(m, n=n)
        if prev is not None:
            assert np.all(cur <= prev + 1e-12)
        prev = cur
    limit, _ = nonuniform_distance_bound(m)
    assert np.all(limit <= prev + 1e-12)


def test_nudb_tree_model_reaches_zero():
    m = build_generator("chain:5", 0.9)
    bounds, _ = nonuniform_distance_bound(m, n=6)
    assert np.all(bounds == 0.0)


def test_nudb_beats_udb_off_uniform_graphs():
    for m in (build_generator("k4minus", 0.9), build_generator("grid:3x3", 0.9)):
        udb, _ = uniform_distance_bound(m)
        nudb, _ = nonuniform_distance_bound(m)
        assert np.all(nudb <= udb + 1e-12)
        assert np.any(nudb < udb - 1e-6)


def test_improved_variants_never_looser():
    m = build_generator("k4minus", 0.9)
    udb, _ = uniform_distance_bound(m)
    improved, _ = improved_uniform_distance_bound(m)
    nudb, _ = nonuniform_distance_bound(m)
    improved_nudb, _ = nonuniform_distance_bound(m, improved=True)
    assert np.all(improved <= udb + 1e-9)
    assert np.all(improved_nudb <= nudb + 1e-9)


# ROADMAP item 2's counterexample: a binary complete:4 model with
# asymmetric potentials. Restarts find two fixed points 5.598 nats apart at
# node 2, where the d*d_star assemblies of the d^2 solve read below that.
ASYMMETRIC_K4 = """nodes 4
node 0 0.9976296428023672 1.0127899428301497
node 1 0.9687979278890199 0.9932320574684886
node 2 1.0331033313598756 0.999380828260759
node 3 0.9895928709934941 0.9878857976359449
edge 0 1 5.954847997732856 0.4761375588575133 1.0924429047657374 4.107118612943997
edge 0 2 6.466554457938668 0.5684903516972809 1.4815525645004481 6.813914237740092
edge 0 3 3.609699000425821 1.126470369677585 0.7560100691164943 12.74135285028798
edge 1 2 7.544076560260429 0.7450468655974323 1.1214199382682597 6.12091909944984
edge 1 3 10.016670701459999 1.1830124691403616 1.2599100125382268 3.968316491173939
edge 2 3 8.52525603873645 2.37249959786352 1.3249266531185917 6.11542865139377
"""
BELOW_TRUE = pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 2: at node 2 this column reads below the distance between "
    "two fixed points"))


@pytest.mark.parametrize("key", [
    "udb", "nudb", "ihler_udb", "ihler_nudb",
    pytest.param("improved_udb", marks=BELOW_TRUE),
    pytest.param("improved_nudb", marks=BELOW_TRUE)])
def test_bounds_hold_on_the_asymmetric_counterexample(key):
    m = parse_graph_text(ASYMMETRIC_K4)
    truth = true_distance(m)
    assert truth[2] == pytest.approx(5.59809532361, abs=1e-9)
    assert np.all(bound_report(m).node_bounds[key] >= truth)


def _single_update_draws(count, seed):
    """Seeded single updates t -> s as (psi, phi, msg, err) lists: cards 2
    to 4, log psi ~ N(0, 1), log phi ~ N(0, 0.5^2), log msg ~ N(0, 1), and
    log err ~ N(0, spread^2) with the spread drawn uniformly up to 2."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        ct, cs = rng.integers(2, 5, size=2).tolist()
        spread = rng.uniform(0.0, 2.0)
        yield (np.exp(rng.normal(0.0, 1.0, (ct, cs))).tolist(),
               np.exp(rng.normal(0.0, 0.5, ct)).tolist(),
               np.exp(rng.normal(0.0, 1.0, ct)).tolist(),
               np.exp(rng.normal(0.0, spread, ct)).tolist())


def test_delta1_on_d_squared_caps_every_single_update():
    draws = list(_single_update_draws(10000, seed=11))
    # Each draw's potential on an edge of its own: one strength table.
    edges = [(2 * i, 2 * i + 1) for i in range(len(draws))]
    cards = [n for psi, *_ in draws for n in (len(psi), len(psi[0]))]
    model = PairwiseMRF(2 * len(draws), edges, cards,
                        edge_potentials={e: np.array(draw[0])
                                         for e, draw in zip(edges, draws)})
    for d, (psi, phi, msg, err) in zip(model.strengths.d_pair.tolist(),
                                       draws):
        ratio = oracles.update_error_ratio(psi, phi, msg, err)
        dE = math.sqrt(max(err) / min(err))
        assert ratio <= delta1(d, d, dE) * (1.0 + 1e-12), (psi, phi, msg, err)


# A draw of the stream above, rounded, whose outgoing error exceeds the
# d*d_star_row cap (20.80 against 15.11) that the dd columns and the
# residual priority take for the message 0 -> 1 (``strengths.dd[0]``); the
# d^2 cap reads 24.30. About 15 % of the stream's draws fail that cap.
@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 2: delta1 on d*d_star is not a cap on one update"))
def test_delta1_on_d_times_d_star_caps_a_single_update():
    psi = [[1.387, 0.04697], [0.1325, 5.442]]
    phi, msg, err = [1.766, 0.8187], [0.9974, 1.175], [8.228, 0.2525]
    table = PairwiseMRF(2, [(0, 1)], edge_potentials={(0, 1): psi}).strengths
    ratio = oracles.update_error_ratio(psi, phi, msg, err)
    dE = math.sqrt(max(err) / min(err))
    assert ratio <= delta1(table.d_pair[0], table.d_star_row[0], dE) * (
        1.0 + 1e-12)


def test_true_distance_torus_07():
    got = true_distance(build_generator("torus:3x3", 0.7), seeds=0, runs=12)
    assert got is not None
    assert np.allclose(got, TORUS_07_TRUE, atol=1e-6)


def test_true_distance_unique_fixed_point_is_zero():
    got = true_distance(build_generator("torus:3x3", 0.6), seeds=0, runs=8)
    assert got is not None
    assert np.all(got == 0.0)


def test_true_distance_refuses_saturated_beliefs():
    # Restarts at eta 5e-324 land on distinct fixed points whose beliefs
    # hold exact zeros, so no log ratio between them is finite.
    with pytest.raises(ModelError, match="saturates a float"):
        true_distance(build_generator("grid:2x3", 5e-324), seeds=0, runs=12)


def test_true_distance_unavailable_when_nothing_converges():
    assert true_distance(build_generator("torus:3x3", 0.3), seeds=0, runs=6) is None


@pytest.mark.parametrize("kwargs", [{"runs": 1}])
def test_true_distance_rejects_empty_budgets(kwargs):
    with pytest.raises(ValueError, match="must be at least"):
        true_distance(build_generator("torus:3x3", 0.7), **kwargs)


def test_bound_sandwich_at_torus_07():
    m = build_generator("torus:3x3", 0.7)
    truth = true_distance(m, seeds=0, runs=12)
    improved, _ = improved_uniform_distance_bound(m)
    udb, _ = uniform_distance_bound(m)
    improved_nudb, _ = nonuniform_distance_bound(m, improved=True)
    nudb, _ = nonuniform_distance_bound(m)
    assert np.all(truth <= improved + 1e-9)
    assert np.all(improved <= udb + 1e-9)
    assert np.all(truth <= improved_nudb + 1e-9)
    assert np.all(improved_nudb <= nudb + 1e-9)


def test_bound_report_shape():
    m = build_generator("k4minus", 0.85)
    report = bound_report(m)
    assert set(report.node_bounds) == set(BOUND_KEYS)
    for key in BOUND_KEYS:
        vals = report.node_bounds[key]
        assert vals.shape == (4,)
        assert np.all(vals >= 0.0)
    assert set(report.eps_star) == set(BOUND_KEYS)
    direct, _ = uniform_distance_bound(m)
    assert np.allclose(report.node_bounds["udb"], direct, atol=1e-12)


def test_ihler_nonuniform_matches_uniform_limit():
    m = build_generator("torus:3x3", 0.75)
    uni, _ = ihler_uniform_distance_bound(m)
    non, _ = ihler_nonuniform_distance_bound(m)
    assert np.allclose(uni, non, atol=1e-11)


def test_rebuilt_potentials_shift_thresholds():
    base = with_uniform_binary(build_generator("complete:4", 0.9), 0.70)
    assert np.all(uniform_distance_bound(base)[0] == 0.0)
    hot = with_uniform_binary(base, 0.80)
    assert np.all(uniform_distance_bound(hot)[0] > 0.0)


# -- one solve per distinct recursion ----------------------------------------

ACCEPTANCE_GRAPHS = ("complete:4", "k4minus", "grid:3x3", "torus:3x3")
DESK_ETAS = [round(0.5 + 0.05 * i, 2) for i in range(10)]


def _glass_grid(rows=6, cols=6, seed=3):
    # Glass-style: log-normal asymmetric potentials, a fifth of the nodes
    # with three states.
    rng = np.random.default_rng(seed)
    n = rows * cols
    cards = [3 if rng.uniform() < 0.2 else 2 for _ in range(n)]
    edges = [(v, u) for v in range(n)
             for u in ([v + 1] if (v + 1) % cols else []) +
             ([v + cols] if v + cols < n else [])]
    return PairwiseMRF(
        n, edges, cards,
        node_potentials=[rng.lognormal(0.0, 0.5, size=c) for c in cards],
        edge_potentials={(v, u): rng.lognormal(0.0, 0.5,
                                               size=(cards[v], cards[u]))
                         for v, u in edges})


def _six_solve_report(model, n=None):
    # bound_report as it was before solves were shared: every public bound
    # function called on its own, so each solves its recursion afresh.
    node_bounds, eps = {}, {}
    for key, (b, e) in (
            ("udb", uniform_distance_bound(model)),
            ("improved_udb", improved_uniform_distance_bound(model)),
            ("ihler_udb", ihler_uniform_distance_bound(model))):
        node_bounds[key], eps[key] = b, np.full(model.num_directed, e)
    for key, (b, e) in (
            ("nudb", nonuniform_distance_bound(model, n=n)),
            ("improved_nudb", nonuniform_distance_bound(
                model, n=n, improved=True)),
            ("ihler_nudb", ihler_nonuniform_distance_bound(model, n=n))):
        node_bounds[key], eps[key] = b, e
    return node_bounds, eps


@pytest.fixture
def solve_counts(monkeypatch):
    counts = {"uniform": 0, "nonuniform": 0}

    def counting(name, solver):
        def wrapped(*args):
            counts[name] += 1
            return solver(*args)
        return wrapped

    monkeypatch.setattr(bounds_mod, "_solve_uniform",
                        counting("uniform", bounds_mod._solve_uniform))
    monkeypatch.setattr(bounds_mod, "_solve_nonuniform",
                        counting("nonuniform", bounds_mod._solve_nonuniform))
    return counts


@pytest.mark.parametrize("kind", ["complete:4", "k4minus"])
@pytest.mark.parametrize("eta", [0.75, 0.6])
def test_bound_report_solves_each_recursion_once(kind, eta, solve_counts):
    bound_report(build_generator(kind, eta))
    assert solve_counts == {"uniform": 2, "nonuniform": 2}


def test_bound_report_shares_nothing_between_calls(solve_counts):
    m = build_generator("grid:3x3", 0.7)
    first = bound_report(m)
    assert solve_counts == {"uniform": 2, "nonuniform": 2}
    second = bound_report(m)
    assert solve_counts == {"uniform": 4, "nonuniform": 4}
    assert bounds_mod._SOLVED.get() is None
    ihler_uniform_distance_bound(m)
    ihler_nonuniform_distance_bound(m)
    assert solve_counts == {"uniform": 5, "nonuniform": 5}
    for key in BOUND_KEYS:
        assert np.array_equal(first.node_bounds[key], second.node_bounds[key])


def test_recursion_sums_match_allocating_form():
    m = _glass_grid()
    strengths = compute_strengths(m)
    rng = np.random.default_rng(0)
    for improved in (False, True):
        rec = bounds_mod._recursion(strengths, improved)
        for z in (math.inf, 0.3, rng.uniform(0.0, 3.0, size=rec.n)):
            t = math.exp(-z) if isinstance(z, float) else np.exp(-z[rec.feed])
            vals = rec.coeff * (np.log(rec.v + t) - np.log1p(rec.v * t))
            want = np.bincount(rec.seg, weights=vals, minlength=rec.n)
            assert np.array_equal(rec.sums(z), want)


@pytest.mark.parametrize("kind", ACCEPTANCE_GRAPHS)
def test_shared_report_equals_six_solves_on_desk_sweep(kind):
    for eta in DESK_ETAS:
        m = build_generator(kind, eta)
        report = bound_report(m)
        node_bounds, eps = _six_solve_report(m)
        for key in BOUND_KEYS:
            assert np.array_equal(report.node_bounds[key], node_bounds[key])
            assert np.array_equal(report.eps_star[key], eps[key])


@pytest.mark.parametrize("n", [None, 3])
def test_shared_report_equals_six_solves_on_glass_grid(n):
    m = _glass_grid()
    report = bound_report(m, n=n)
    node_bounds, eps = _six_solve_report(m, n=n)
    for key in BOUND_KEYS:
        assert np.array_equal(report.node_bounds[key], node_bounds[key])
        assert np.array_equal(report.eps_star[key], eps[key])


def test_bound_report_eps_arrays_are_independent():
    m = _glass_grid()
    report = bound_report(m)
    before = {k: v.copy() for k, v in report.eps_star.items()}
    for key in BOUND_KEYS:
        report.eps_star[key][:] = -1.0
        for other in BOUND_KEYS:
            if other != key:
                assert np.array_equal(report.eps_star[other], before[other])
        report.eps_star[key][:] = before[key]


@pytest.mark.parametrize("kind", ACCEPTANCE_GRAPHS)
def test_true_distance_of_a_sweep_equals_per_model_calls(kind):
    models = [build_generator(kind, eta) for eta in DESK_ETAS]
    batched = true_distance(models, seeds=0, runs=12)
    assert len(batched) == len(models)
    for m, got in zip(models, batched):
        want = true_distance(m, seeds=0, runs=12)
        assert (got is None) == (want is None)
        if want is not None:
            assert got.tobytes() == want.tobytes()


def test_true_distance_retires_cycling_restarts(monkeypatch):
    # The grid:3x3 sweep of the desk workload's bounds call: 32 of its 120
    # restarts fall into exact cycles of period 2 to 16 and leave the batch
    # long before the 5,000-sweep budget, with the full budget's outcome.
    models = [build_generator("grid:3x3", eta) for eta in DESK_ETAS]
    sweeps = []
    sweep = engine_mod._sweep_batch
    monkeypatch.setattr(engine_mod, "_sweep_batch",
                        lambda *args: sweeps.append(1) or sweep(*args))
    batched = true_distance(models, seeds=46930, runs=12)
    assert 0 < len(sweeps) <= 1000
    monkeypatch.undo()
    found = engine_mod._multistart(models, range(46930, 46942), 5000, 1e-10)
    assert sum(int(np.sum(status == 3)) for status, _ in found) == 32
    for m, got in zip(models, batched):
        want = true_distance(m, seeds=46930, runs=12)
        assert got.tobytes() == want.tobytes()


def test_true_distance_rejects_models_of_another_topology():
    models = [build_generator("grid:3x3", 0.7),
              build_generator("torus:3x3", 0.7)]
    with pytest.raises(ValueError, match="share edges and cardinalities"):
        true_distance(models)
    assert true_distance([]) == []


def test_one_converge_and_report_build_the_relation_once(monkeypatch):
    # Every consumer reads the model's cached tables: the certificates, the
    # bound reports and the residual scheduler.
    builds = []
    for name in ("in_edge_tables", "non_backtracking_pairs"):
        prop = vars(PairwiseMRF)[name]

        def counted(model, build=prop.func, name=name):
            builds.append(name)
            return build(model)

        monkeypatch.setattr(prop, "func", counted)
    m = _glass_grid(3, 4)  # small: the SAW certificate is exponential
    strengths = compute_strengths(m)
    for condition in CONDITION_NAMES:
        evaluate_condition(m, condition, strengths)
    for n in (None, 3):
        bound_report(m, n=n)
    uniform_distance_bound(m)
    run_residual_scheduled(m, max_updates=300)
    assert sorted(builds) == ["in_edge_tables", "non_backtracking_pairs"]
