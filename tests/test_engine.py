import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from loopybp import (
    MessageSet,
    ModelError,
    PairwiseMRF,
    build_generator,
    compute_strengths,
    empirical_convergent,
    empirical_critical_eta,
    engine,
    parse_graph_text,
    run_residual_scheduled,
    run_synchronous,
    true_distance,
    update_message,
    with_uniform_binary,
)
from loopybp.bounds import _Recursion
from loopybp.engine import (_NEG, _beliefs_batch, _edge_major, _edge_minor,
                            _initial_logm, _Layout, _log_contraction,
                            _log_node, _log_weight_table, _log_weights,
                            _multistart, _random_logm, _run_one,
                            _run_restarts, _sweep_batch)
from loopybp.models import _measures

# Paramagnetic-regime fixed point of the 4-regular torus at eta=0.7,
# pinned by one-dimensional root finding (see test_uniform).
TORUS_07_BELIEF = 0.9070783698104501


def small_asymmetric_model():
    return PairwiseMRF(
        4, [(0, 1), (0, 2), (1, 2), (2, 3)],
        node_potentials=[[1.0, 2.0], [0.7, 0.9], [1.5, 0.4], [1.0, 1.0]],
        edge_potentials={(0, 1): [[1.1, 0.4], [0.6, 1.9]],
                         (0, 2): [[0.5, 1.5], [1.2, 0.8]],
                         (1, 2): [[2.0, 1.0], [0.3, 1.4]],
                         (2, 3): [[1.0, 0.2], [0.4, 1.3]]})


def oracle_form(model):
    cards = list(model.cards)
    node_pots = [list(model.node_pot[v]) for v in range(model.num_nodes)]
    edge_pots = {(i, j): [list(r) for r in model.edge_matrix(i, j)]
                 for i, j in model.edges}
    return cards, node_pots, edge_pots


def test_message_set_basics():
    m = build_generator("complete:3", 0.7)
    ms = MessageSet.uniform(m)
    for t, s in m.directed_edges():
        vec = ms.get(t, s)
        assert vec.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(vec, 0.5)
    r1 = MessageSet.random(m, seed=5)
    r2 = MessageSet.random(m, seed=5)
    for t, s in m.directed_edges():
        assert np.allclose(r1.get(t, s), r2.get(t, s))
    assert np.abs(r1.logm - r2.logm).max() == pytest.approx(0.0, abs=1e-15)
    assert np.abs(r1.logm - ms.logm).max() > 0.0


def test_message_set_set_validates():
    m = build_generator("chain:2", 0.7)
    ms = MessageSet.uniform(m)
    ms.set(0, 1, [0.2, 0.8])
    assert np.allclose(ms.get(0, 1), [0.2, 0.8])
    with pytest.raises(ValueError):
        ms.set(0, 1, [0.2, -0.8])
    with pytest.raises(ValueError):
        ms.set(0, 1, [0.2, 0.2, 0.6])


def test_update_message_matches_loop_oracle():
    m = small_asymmetric_model()
    cards, node_pots, edge_pots = oracle_form(m)
    edge_mats = {}
    for i, j in m.edges:
        edge_mats[(i, j)] = [list(r) for r in m.edge_matrix(i, j)]
        edge_mats[(j, i)] = [list(r) for r in m.edge_matrix(j, i)]
    adjacency = {v: m.neighbors(v) for v in range(m.num_nodes)}
    ms = MessageSet.random(m, seed=11)
    messages = {(t, s): list(ms.get(t, s)) for t, s in m.directed_edges()}
    for t, s in m.directed_edges():
        got = update_message(m, ms, (t, s))
        want = oracles.update_once(cards, node_pots, edge_mats,
                                   adjacency, messages, t, s)
        assert np.allclose(got, want, atol=1e-12)


def synchronous_sweep(model, messages):
    """Every directed edge updated once by update_message against a
    snapshot of ``messages``."""
    vecs = [update_message(model, messages, e) for e in model.directed_edges()]
    return MessageSet(model, vecs)


def test_sweep_routes_agree():
    """The per-edge probability-space route and the batched log-space route
    inside run_synchronous must produce the same sweep."""
    m = small_asymmetric_model()
    init = MessageSet.random(m, seed=2)
    simple = synchronous_sweep(m, init)
    batched = run_synchronous(m, init=init, max_iters=1).messages
    for t, s in m.directed_edges():
        assert np.allclose(simple.get(t, s), batched.get(t, s), atol=1e-12)


def test_tree_beliefs_are_exact():
    m = PairwiseMRF(
        5, [(0, 1), (1, 2), (1, 3), (3, 4)],
        node_potentials=[[1.0, 3.0], [2.0, 1.0], [1.0, 1.0], [0.5, 1.5], [1.0, 2.0]],
        edge_potentials={(0, 1): [[1.0, 0.5], [0.25, 2.0]],
                         (1, 2): [[1.5, 1.0], [1.0, 0.5]],
                         (1, 3): [[2.0, 0.1], [0.3, 1.0]],
                         (3, 4): [[1.0, 2.0], [2.0, 1.0]]})
    result = run_synchronous(m)
    assert result.status == "converged"
    want = oracles.enumerate_marginals(*oracle_form(m))
    for v in range(5):
        assert np.allclose(result.beliefs[v], want[v], atol=1e-10)


def test_uniform_messages_leave_node_potentials():
    m = small_asymmetric_model()
    layout = _Layout(m)
    got = _beliefs_batch(layout, MessageSet.uniform(m).logm[None],
                         layout.log_node)[0]
    for v, pot in enumerate(m.node_pot):
        assert np.allclose(got[v], pot / pot.sum(), atol=1e-14)


def test_uniform_init_stays_paramagnetic():
    # The symmetric point is an exact fixed point, so a uniform start never
    # leaves it even when mirror points exist.
    result = run_synchronous(build_generator("torus:3x3", 0.7))
    assert result.status == "converged"
    assert result.iterations == 1
    for v in range(9):
        assert np.allclose(result.beliefs[v], [0.5, 0.5], atol=1e-12)


def test_random_init_finds_mirror_point():
    result = run_synchronous(build_generator("torus:3x3", 0.7),
                             init="random", seed=0)
    assert result.status == "converged"
    for v in range(9):
        assert np.allclose(sorted(result.beliefs[v]),
                           [1.0 - TORUS_07_BELIEF, TORUS_07_BELIEF], atol=1e-7)


def test_antiferromagnetic_oscillation():
    result = run_synchronous(build_generator("torus:3x3", 0.3),
                             init="random", seed=0)
    assert result.status == "oscillating"
    assert result.period == 2


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 17: a run that converges with alternating sign passes "
    "the lag-2 test first and is reported as a 2-cycle"))
@pytest.mark.parametrize("spec, seed", [
    # The benchmark's desk workload records the first as oscillating,57,2.
    # Run on with tol 0, the change of each falls to exactly 0.
    ("grid:3x3", 39755), ("grid:4x4", 0)])
def test_converging_run_is_not_a_two_cycle(spec, seed):
    result = run_synchronous(build_generator(spec, 0.7), init="random",
                             seed=seed)
    assert result.status == "converged"


def test_budget_exhaustion_status():
    result = run_synchronous(build_generator("complete:4", 0.9), init="random",
                             seed=1, max_iters=3)
    assert result.status == "max_iters"
    assert result.iterations == 3
    assert not result.converged


def test_convergence_is_monotone_tracked():
    result = run_synchronous(build_generator("complete:4", 0.6),
                             init="random", seed=4)
    assert result.status == "converged"
    assert len(result.max_changes) == result.iterations
    assert result.max_changes[-1] < 1e-10


def test_empirical_convergent_flips_with_eta():
    topo = build_generator("complete:4", 0.9)
    assert empirical_convergent(with_uniform_binary(topo, 0.6))
    assert not empirical_convergent(with_uniform_binary(topo, 0.9))


def test_empirical_critical_eta_rejects_zero_tolerance():
    with pytest.raises(ValueError):
        empirical_critical_eta(build_generator("complete:4", 0.7), tol=0.0)


def test_residual_matches_synchronous():
    m = build_generator("torus:3x3", 0.64)
    sync = run_synchronous(m)
    sched, trace = run_residual_scheduled(m)
    assert sched.status == "converged"
    for v in range(9):
        assert np.allclose(sched.beliefs[v], sync.beliefs[v], atol=1e-6)
    assert trace.total_updates == len(trace.entries) + m.num_directed


def test_residual_priorities_dominate_residuals():
    m = build_generator("complete:4", 0.82)
    result, trace = run_residual_scheduled(m, init="random", seed=7)
    assert result.status == "converged"
    assert len(trace.entries) > 0
    for _, priority, realized in trace.entries:
        assert realized <= priority + 1e-12


def test_residual_trace_csv(tmp_path):
    m = build_generator("chain:3", 0.7)
    _, trace = run_residual_scheduled(m)
    out = tmp_path / "trace.csv"
    with open(out, "w") as fh:
        trace.write_csv(fh)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "step,edge,priority,residual"
    assert len(lines) == len(trace.entries) + 1
    if len(lines) > 1:
        assert "->" in lines[1].split(",")[1]


def test_residual_priority_endpoints():
    # A saturated accumulator gives the cap 2*log(d * d_star); none, zero.
    dd = compute_strengths(build_generator("complete:4", 0.7)).dd
    assert _log_contraction(dd, np.inf) == pytest.approx(2.0 * np.log(dd),
                                                          abs=1e-12)
    assert _log_contraction(dd, 0.0) == pytest.approx(np.zeros_like(dd),
                                                       abs=1e-12)


@pytest.mark.parametrize("kind", ["complete:4", "k4minus", "grid:3x3",
                                  "torus:3x3"])
def test_residual_priority_is_the_recursion_term(kind):
    # The scheduler keeps its own copy of the cap term, cheaper per pop than
    # a recursion; it must stay the recursion's term bit for bit.
    rng = np.random.default_rng(0)
    for eta in (0.55, 0.7, 0.9):
        dd = build_generator(kind, eta).strengths.dd
        idx = np.arange(dd.size)
        rec = _Recursion(dd.size, idx, idx, 2.0, dd)
        for acc in (np.full(dd.size, np.inf), np.zeros(dd.size),
                    rng.exponential(size=dd.size),
                    rng.uniform(0.0, 1e-12, size=dd.size)):
            assert np.array_equal(_log_contraction(dd, acc), rec.sums(acc))


def test_residual_on_tree_is_exact():
    m = PairwiseMRF(4, [(0, 1), (1, 2), (1, 3)],
                    node_potentials=[[1.0, 2.0], [2.0, 1.0], [1.0, 1.0], [3.0, 1.0]],
                    edge_potentials={(0, 1): [[2.0, 1.0], [1.0, 3.0]],
                                     (1, 2): [[1.0, 0.5], [0.5, 2.0]],
                                     (1, 3): [[1.2, 0.8], [0.8, 1.2]]})
    result, _ = run_residual_scheduled(m)
    assert result.status == "converged"
    want = oracles.enumerate_marginals(*oracle_form(m))
    for v in range(4):
        assert np.allclose(result.beliefs[v], want[v], atol=1e-8)


def test_grid_random_inits_share_one_point_below_threshold():
    m = build_generator("grid:3x3", 0.6)
    runs = [run_synchronous(m, init="random", seed=s, tol=1e-12) for s in range(4)]
    assert all(r.status == "converged" for r in runs)
    base = runs[0].beliefs
    for r in runs[1:]:
        for v in range(9):
            assert np.allclose(r.beliefs[v], base[v], atol=1e-8)


def test_residual_budget_includes_initial_sweep():
    m = build_generator("cycle:5", 0.6)
    result, trace = run_residual_scheduled(m, max_updates=3)
    assert result.status == "max_iters"
    assert result.iterations == 3
    assert trace.total_updates == 3 and trace.entries == []
    with pytest.raises(ValueError):
        run_residual_scheduled(m, max_updates=0)


# -- the batch kernel against the dense incidence form it replaced ---------


def _incidence(layout):
    inc = np.zeros((layout.model.num_nodes, layout.n_dir))
    inc[layout.dst, np.arange(layout.n_dir)] = 1.0
    return inc


def dense_sweep(layout, logm):
    at_node = np.einsum("ve,rek->rvk", _incidence(layout), logm)
    excl = at_node[:, layout.src, :] - logm[:, layout.rev, :]
    combined = layout.table.transpose(2, 0, 1)
    stacked = combined[None] + excl[:, :, :, None]
    peak = stacked.max(axis=2)
    new = peak + np.log(np.exp(stacked - peak[:, :, None, :]).sum(axis=2))
    new = np.where(layout.mask[None], new, _NEG)
    peak = new.max(axis=2, keepdims=True)
    norm = peak + np.log(np.exp(new - peak).sum(axis=2, keepdims=True))
    return np.where(layout.mask[None], new - norm, _NEG)


def looped_beliefs(model, logm, node_pots=None):
    """Per run and node: the log node potential, plus the incoming
    log-messages in model.neighbors order, normalized in linear space.
    ``node_pots`` holds one list of node potentials per run (default: the
    model's for every run)."""
    out = np.zeros((logm.shape[0], model.num_nodes, max(model.cards)))
    for r in range(logm.shape[0]):
        pots = model.node_pot if node_pots is None else node_pots[r]
        for v in range(model.num_nodes):
            logb = np.log(pots[v])
            for u in model.neighbors(v):
                logb = logb + logm[r, model.directed_index(u, v), :model.cards[v]]
            b = np.exp(logb - logb.max())
            out[r, v, :b.size] = b / b.sum()
    return out


def looped_run_batch(layout, logm0, max_iters, tol, detect_oscillation=True):
    runs = logm0.shape[0]
    status = np.zeros(runs, dtype=int)
    iters = np.zeros(runs, dtype=int)
    snap = logm0.copy()
    changes = [[] for _ in range(runs)]
    mask3 = layout.mask[None]
    prev2 = None
    cur = logm0
    for it in range(1, max_iters + 1):
        new = dense_sweep(layout, cur)
        d1 = np.where(mask3, np.abs(new - cur), 0.0).max(axis=(1, 2))
        if prev2 is None or not detect_oscillation:
            d2 = np.full(runs, np.inf)
        else:
            d2 = np.where(mask3, np.abs(new - prev2), 0.0).max(axis=(1, 2))
        active = status == 0
        for r in np.nonzero(active)[0]:
            changes[r].append(float(d1[r]))
        done_conv = active & (d1 < tol)
        done_osc = active & ~done_conv & (d2 < tol)
        for r in np.nonzero(done_conv | done_osc)[0]:
            snap[r] = new[r]
            iters[r] = it
        status[done_conv] = 1
        status[done_osc] = 2
        prev2 = cur
        cur = new
        if not np.any(status == 0):
            break
    leftover = status == 0
    status[leftover] = 3
    iters[leftover] = max_iters
    for r in np.nonzero(leftover)[0]:
        snap[r] = cur[r]
    return status, iters, snap, changes


def _mixed_card_grid(rows=4, cols=4, seed=5):
    # Asymmetric potentials, about a third of the nodes with three states.
    rng = np.random.default_rng(seed)
    n = rows * cols
    cards = [3 if rng.uniform() < 0.35 else 2 for _ in range(n)]
    lines = [f"nodes {n}"]
    lines += [f"card {v} {c}" for v, c in enumerate(cards) if c != 2]
    lines += ["node {} {}".format(v, " ".join(
        repr(float(x)) for x in rng.lognormal(0.0, 0.5, size=c)))
        for v, c in enumerate(cards)]
    for v in range(n):
        r, c = divmod(v, cols)
        for u in ([v + 1] if c + 1 < cols else []) + \
                 ([v + cols] if r + 1 < rows else []):
            vals = rng.lognormal(0.0, 0.5, size=cards[v] * cards[u])
            lines.append(f"edge {v} {u} " + " ".join(repr(float(x)) for x in vals))
    return parse_graph_text("\n".join(lines) + "\n")


def _with_isolated_node():
    rng = np.random.default_rng(9)
    edges = [(0, 1), (1, 2), (2, 0), (2, 3)]
    return PairwiseMRF(5, edges,
                       node_potentials=rng.uniform(0.3, 2.0, size=(5, 2)),
                       edge_potentials={e: rng.uniform(0.3, 2.0, size=(2, 2))
                                        for e in edges})


KERNEL_MODELS = {
    "complete:4": lambda: build_generator("complete:4", 0.7),
    "k4minus": lambda: build_generator("k4minus", 0.7),
    "grid:3x3": lambda: build_generator("grid:3x3", 0.7),
    "torus:3x3": lambda: build_generator("torus:3x3", 0.7),
    "mixed-card": _mixed_card_grid,
    "isolated-node": _with_isolated_node,
}


def looped_in_edges(model):
    """Both in-edge tables by a per-node loop: each node's in-edges in
    index order and in model.neighbors order, padded with n_dir."""
    n_dir = model.num_directed
    width = max([len(model.neighbors(v)) for v in range(model.num_nodes)] + [1])
    by_index, by_neighbor = [], []
    for v in range(model.num_nodes):
        ins = [model.directed_index(u, v) for u in model.neighbors(v)]
        pad = [n_dir] * (width - len(ins))
        by_index.append(sorted(ins) + pad)
        by_neighbor.append(ins + pad)
    return by_index, by_neighbor


@pytest.mark.parametrize("kind", sorted(KERNEL_MODELS) + ["edgeless"])
def test_in_edge_tables_match_per_node_loop(kind):
    m = PairwiseMRF(3, []) if kind == "edgeless" else KERNEL_MODELS[kind]()
    by_index, by_neighbor = m.in_edge_tables
    want_index, want_neighbor = looped_in_edges(m)
    assert by_index.tolist() == want_index
    assert by_neighbor.tolist() == want_neighbor
    if kind == "torus:3x3":  # wrap edges: index order is not neighbour order
        assert want_index != want_neighbor
    assert m.in_edge_tables is m.in_edge_tables
    for table in (by_index, by_neighbor, *m.non_backtracking_pairs):
        assert not table.flags.writeable


@pytest.mark.parametrize("kind", sorted(KERNEL_MODELS))
def test_sweep_and_beliefs_match_dense_kernel(kind):
    m = KERNEL_MODELS[kind]()
    layout = _Layout(m)
    if kind == "mixed-card":
        assert layout.kmax == 3 and layout.pad is not None
    logm = _random_logm(layout.mask, range(4))
    ref, it = logm.copy(), _edge_minor(logm)
    for _ in range(300):
        it = _sweep_batch(layout, it, layout.table)
        logm = _edge_major(it)
        ref = dense_sweep(layout, ref)
        assert np.array_equal(logm, ref)
        # Beliefs follow the per-node loop's order, not the dense form's.
        assert np.array_equal(_beliefs_batch(layout, logm, layout.log_node),
                              looped_beliefs(m, logm))


@st.composite
def belief_batches(draw):
    """A random model with its edges in shuffled order (so edge index order
    is not neighbour order), random messages for a batch of runs, and
    optionally one set of node potentials per run."""
    n = draw(st.integers(1, 7))
    cards = draw(st.lists(st.sampled_from([2, 3, 4, 7]), min_size=n,
                          max_size=n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    runs = draw(st.integers(1, 3))
    per_run = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = PairwiseMRF(
        n, edges, cards,
        node_potentials=[rng.lognormal(0.0, 1.0, size=c) for c in cards],
        edge_potentials={(i, j): rng.lognormal(0.0, 1.0,
                                               size=(cards[i], cards[j]))
                         for i, j in edges})
    layout = _Layout(model)
    logm = np.where(layout.mask, rng.normal(0.0, 2.0, size=(runs,) +
                                            layout.mask.shape), _NEG)
    node_pots = None
    if per_run:
        node_pots = [[rng.lognormal(0.0, 1.0, size=c) for c in cards]
                     for _ in range(runs)]
    return model, layout, logm, node_pots


@settings(max_examples=300, deadline=None)
@given(belief_batches())
def test_beliefs_match_the_per_node_loop(batch):
    model, layout, logm, node_pots = batch
    log_node = layout.log_node
    if node_pots is not None:
        log_node = np.full((len(node_pots),) + log_node.shape, _NEG)
        for r, pots in enumerate(node_pots):
            for v, pot in enumerate(pots):
                log_node[r, v, :pot.size] = np.log(pot)
    assert np.array_equal(_beliefs_batch(layout, logm, log_node),
                          looped_beliefs(model, logm, node_pots))


# -- the edge-minor kernel layout ------------------------------------------


@settings(max_examples=200, deadline=None)
@given(belief_batches())
def test_edge_minor_sweep_matches_the_dense_form(batch):
    # A shared (sender, target, edge) table and a (sender, run, target,
    # edge) one with other potentials per run; the zero column stays zero.
    model, layout, logm, _ = batch
    runs = len(logm)
    got = _sweep_batch(layout, _edge_minor(logm), layout.table)
    assert not got[:, :, -1].any()
    assert _edge_major(got).tobytes() == dense_sweep(layout, logm).tobytes()
    models = [model] + [_redrawn(model, r) for r in range(1, runs)]
    layouts = [layout] + [_Layout(m) for m in models[1:]]
    table = np.stack([lay.table for lay in layouts], axis=1)
    got = _sweep_batch(layout, _edge_minor(logm), table)
    assert not got[:, :, -1].any()
    for r, lay in enumerate(layouts):
        assert _edge_major(got[r:r + 1]).tobytes() == \
            dense_sweep(lay, logm[r:r + 1]).tobytes()


@settings(max_examples=60, deadline=None)
@given(belief_batches(), st.sampled_from([40, 64, 65]))
def test_restart_batch_matches_one_run_batches(batch, budget):
    # The first run's model has all-ones potentials and converges within
    # two sweeps, so it leaves the batch while the others go on; budget 64
    # also runs the exact-repeat check. Each run must end as it does alone.
    model, layout, _, _ = batch
    flat = PairwiseMRF(model.num_nodes, model.edges, model.cards)
    models = [flat] + [_redrawn(model, r) for r in range(1, 5)]
    table = np.stack([_Layout(m).table for m in models], axis=1)
    logm0 = _random_logm(layout.mask, range(len(models)))
    status, snap = _run_restarts(layout, logm0, table, budget, 1e-9)
    for r in range(len(models)):
        alone = _run_restarts(layout, logm0[r:r + 1], table[:, r:r + 1],
                              budget, 1e-9)
        assert (status[r], snap[r].tobytes()) == \
            (alone[0][0], alone[1][0].tobytes())
    assert status[0] == 1


def test_uniform_starts_agree_on_seven_states():
    # log(1/7) and -log(7) differ in the last bit; every uniform start is
    # the second, so a MessageSet start reproduces init="uniform" exactly.
    assert np.log(1.0 / 7.0) != -np.log(7.0)
    m = PairwiseMRF(3, [(0, 1), (1, 2)], [7, 2, 7],
                    node_potentials=[np.arange(1.0, 8.0), [1.0, 2.0],
                                     np.arange(7.0, 0.0, -1.0)])
    start = MessageSet.uniform(m)
    assert start.logm.tobytes() == \
        _initial_logm(_Layout(m), "uniform", None)[0].tobytes()
    for run in (lambda init: run_synchronous(m, init=init, max_iters=3),
                lambda init: run_residual_scheduled(m, init=init)[0]):
        assert run(start).messages.logm.tobytes() == \
            run("uniform").messages.logm.tobytes()


# A restart batch, as _multistart runs it: no period detection, and runs
# caught in an exact cycle leave early.
RESTART = "restart"


@pytest.mark.parametrize("kind, eta, detect, budget, outcome", [
    ("grid:3x3", 0.6, True, 400, 1), ("mixed-card", None, False, 400, 1),
    ("torus:3x3", 0.3, True, 400, 2), ("complete:4", 0.9, True, 3, 3),
    # Runs leave the batch at sweeps 26, 27, 28 and 32; two reach the budget.
    ("grid:3x3", 0.95, True, 40, (1, 2, 3, 1, 2, 3)),
    # Runs 1, 2 and 4 fall into 2-cycles and leave at an exact-repeat
    # check, with budgets of 5000 (not a multiple of the check spacing) and
    # 640 (one).
    ("grid:3x3", 0.9, RESTART, 5000, (1, 3, 3, 1, 3, 1)),
    ("grid:3x3", 0.9, RESTART, 640, (1, 3, 3, 1, 3, 1)),
    # Converging runs after transients of about 300 and 700 sweeps, and
    # runs that crawl to the budget without repeating. The odd budget puts
    # a snapshot taken one sweep off on the other phase of a 2-cycle.
    ("grid:3x3", 0.8, RESTART, 999, (1, 3, 3, 1, 3, 1)),
    ("grid:3x3", 0.78, RESTART, 1000, 1),
    ("complete:4", 0.75, RESTART, 300, 3)])
def test_run_batch_matches_looped_bookkeeping(kind, eta, detect, budget,
                                              outcome):
    # Runs with period detection go through _run_one one by one; the others
    # through _run_restarts as one batch.
    m = build_generator(kind, eta) if eta is not None else _mixed_card_grid()
    layout = _Layout(m)
    logm0 = _random_logm(layout.mask, range(6))
    want_status, want_iters, want_last, want_changes = looped_run_batch(
        layout, logm0, budget, 1e-10, detect is True)
    assert np.all(want_status == outcome)
    if detect is True:
        for r in range(6):
            status, iters, last, changes = _run_one(layout, logm0[r:r + 1],
                                                    budget, 1e-10)
            assert (status, iters) == (want_status[r], want_iters[r])
            assert last[0].tobytes() == want_last[r].tobytes()
            assert np.array(changes).tobytes() == \
                np.array(want_changes[r]).tobytes()
    else:
        table = np.repeat(layout.table[:, None], 6, axis=1)
        status, last = _run_restarts(layout, logm0, table, budget, 1e-10)
        assert status.tobytes() == want_status.tobytes()
        assert last.tobytes() == want_last.tobytes()


def _redrawn(model, seed):
    # The same edges and cardinalities with fresh log-normal potentials.
    rng = np.random.default_rng(seed)
    return PairwiseMRF(
        model.num_nodes, model.edges, model.cards,
        node_potentials=[rng.lognormal(0.0, 0.5, size=c) for c in model.cards],
        edge_potentials={(v, u): rng.lognormal(
            0.0, 0.5, size=(model.cards[v], model.cards[u]))
            for v, u in model.edges})


def test_multistart_batch_of_models_matches_one_model_batches():
    base = _mixed_card_grid()
    models = [base, _redrawn(base, 1), _redrawn(base, 2)]
    # With 23 sweeps, runs of the second model leave mid-batch while the
    # other two models' runs go on to the budget.
    for budget in (5000, 23):
        batched = _multistart(models, range(3, 9), budget, 1e-12)
        outcomes = set()
        for m, (status, beliefs) in zip(models, batched):
            [(want_status, want_beliefs)] = _multistart([m], range(3, 9),
                                                        budget, 1e-12)
            assert status.tobytes() == want_status.tobytes()
            assert beliefs.shape == want_beliefs.shape
            assert beliefs.tobytes() == want_beliefs.tobytes()
            outcomes.update(status.tolist())
        assert outcomes == ({1} if budget == 5000 else {1, 3})


def test_multistart_rejects_models_of_another_topology():
    grid = build_generator("grid:3x3", 0.7)
    torus = build_generator("torus:3x3", 0.7)
    base = _mixed_card_grid()
    binary = PairwiseMRF(base.num_nodes, base.edges)
    for other, first in ((torus, grid), (binary, base)):
        with pytest.raises(ValueError, match="share edges and cardinalities"):
            _multistart([first, other], range(3), 50, 1e-10)


@pytest.mark.parametrize("call", [
    lambda m: empirical_convergent(m, runs=0),
    lambda m: empirical_convergent(m, max_iters=0),
    lambda m: empirical_critical_eta(m, runs=0),
    lambda m: empirical_critical_eta(m, max_iters=0),
])
def test_restart_probes_reject_empty_budgets(call):
    for m in (build_generator("complete:4", 0.7), PairwiseMRF(2, [])):
        with pytest.raises(ValueError, match="must be at least 1"):
            call(m)


# -- per-edge references on plain lists of linear vectors ------------------
#
# These keep messages as one linear vector per directed edge and take logs
# where they are read: an independent route that the library's padded log
# store must match bit for bit.


def ref_update(model, vecs, t, s):
    """update_message's linear-space arithmetic on a list of vectors."""
    logw = np.log(model.edge_matrix(t, s)) + np.log(model.node_pot[t])[:, None]
    for u in model.neighbors(t):
        if u != s:
            logw = logw + np.log(vecs[model.directed_index(u, t)])[:, None]
    summed = np.exp(logw - logw.max()).sum(axis=0)
    return summed / summed.sum()


def ref_beliefs(model, vecs):
    """Per-node log sums of the incoming vectors' logs, then normalize."""
    out = []
    for v in range(model.num_nodes):
        logb = np.log(model.node_pot[v]).copy()
        for u in model.neighbors(v):
            logb += np.log(vecs[model.directed_index(u, v)])
        b = np.exp(logb - logb.max())
        out.append(b / b.sum())
    return out


def ref_vectors(model, logm):
    """Padded log rows to vectors: per-edge exp, then normalize."""
    out = []
    for e, (_, d) in enumerate(model.directed_edges()):
        vec = np.exp(logm[e, :model.cards[d]])
        out.append(vec / vec.sum())
    return out


def ref_init(model, init, seed=None):
    """Uniform vectors, or the seeded uniform draws normalized, logged and
    turned back into vectors by ref_vectors."""
    directed = model.directed_edges()
    if init == "uniform":
        return [np.full(model.cards[d], 1.0 / model.cards[d]) for _, d in directed]
    raw = np.random.default_rng(seed).uniform(
        size=(len(directed), max(model.cards)))
    logm = np.full(raw.shape, _NEG)
    for e, (_, d) in enumerate(directed):
        row = raw[e, :model.cards[d]]
        logm[e, :row.size] = np.log(row / row.sum())
    return ref_vectors(model, logm)


@pytest.mark.parametrize("kind", sorted(KERNEL_MODELS))
def test_sync_beliefs_match_per_edge_route(kind):
    """run_synchronous renormalizes the kernel's output once for all edges;
    its beliefs must be bit-equal to the per-edge route."""
    m = KERNEL_MODELS[kind]()
    layout = _Layout(m)
    for init, seed, budget in (("uniform", None, 2000), ("random", 0, 5),
                               ("random", 1, 2000)):
        if init == "uniform":
            cards = layout.mask.sum(axis=1)
            logm0 = np.where(layout.mask, -np.log(cards)[:, None], _NEG)[None]
        else:
            logm0 = _random_logm(layout.mask, [seed])
        snap = _run_one(layout, logm0, budget, 1e-10)[2]
        got = run_synchronous(m, init=init, seed=seed, max_iters=budget)
        want = ref_vectors(m, snap[0])
        for e, (_, d) in enumerate(m.directed_edges()):
            assert np.array_equal(got.messages.logm[e, :m.cards[d]],
                                  np.log(want[e]))
        for a, b in zip(got.beliefs, ref_beliefs(m, want)):
            assert np.array_equal(a, b)


# -- the residual scheduler against the argmax loop it replaced ------------


def argmax_residual(model, max_updates, tol, init, seed=None):
    """The scheduler as a linear argmax over priorities on a list of linear
    vectors, recomputing every message with ref_update; returns (status,
    total, entries, vecs)."""
    directed = model.directed_edges()
    n_dir = len(directed)
    vecs = ref_init(model, init, seed)
    dd = compute_strengths(model).dd
    dependents = [[] for _ in range(n_dir)]
    for f in range(n_dir):
        t, s = directed[f]
        for u in model.neighbors(t):
            if u != s:
                dependents[model.directed_index(u, t)].append(f)

    def contraction(d, incoming):
        x = np.exp(-incoming)
        return float(2.0 * (np.log(d + x) - np.log1p(d * x)))

    total = min(n_dir, max_updates)
    for e in range(total):
        vecs[e] = ref_update(model, vecs, *directed[e])
    acc = np.full(n_dir, np.inf)
    prio = 2.0 * np.log(dd)
    entries = []
    status = "max_iters"
    while total < max_updates:
        e = int(np.argmax(prio))
        top = float(prio[e])
        if top < tol:
            status = "converged"
            break
        old = vecs[e]
        new = ref_update(model, vecs, *directed[e])
        realized = float(np.max(np.abs(np.log(new) - np.log(old))))
        vecs[e] = new
        total += 1
        entries.append((directed[e], top, realized))
        acc[e] = 0.0
        prio[e] = 0.0
        for f in dependents[e]:
            acc[f] += realized
            prio[f] = contraction(dd[f], acc[f])
    else:
        if total >= n_dir and float(prio.max()) < tol:
            status = "converged"
    return status, total, entries, vecs


def _shuffled_edges(model, seed=8):
    order = np.random.default_rng(seed).permutation(len(model.edges))
    edges = [model.edges[m] for m in order]
    return PairwiseMRF(model.num_nodes, edges, model.cards, model.node_pot,
                       {e: model.edge_pot[m] for e, m in zip(edges, order)})


RESIDUAL_CASES = {
    # Glass-style: asymmetric log-normal potentials, mixed cardinality.
    "glass-6x6": (lambda: _mixed_card_grid(6, 6, seed=21),
                  dict(init="random", seed=4)),
    "glass-6x6-uniform": (lambda: _mixed_card_grid(6, 6, seed=21),
                          dict(init="uniform")),
    # Edge indices out of neighbour order: the in-edges must still be added
    # in model.neighbors order.
    "glass-6x6-shuffled": (lambda: _shuffled_edges(_mixed_card_grid(6, 6, 21)),
                           dict(init="random", seed=4)),
    **{f"{kind}-random": (lambda kind=kind: build_generator(kind, 0.7),
                          dict(init="random", seed=3))
       for kind in ("complete:4", "k4minus", "grid:3x3", "torus:3x3")},
    # Zero tolerance: once every edge has run, all priorities tie at 0 and
    # the lowest index wins every pop.
    "torus-tol0": (lambda: build_generator("torus:3x3", 0.7),
                   dict(init="uniform", tol=0.0, max_updates=120)),
    "chain-tol0": (lambda: build_generator("chain:4", 0.7),
                   dict(init="random", seed=1, tol=0.0, max_updates=60)),
    # The budget ends inside the initial sweep.
    "inside-sweep": (lambda: _mixed_card_grid(6, 6, seed=21),
                     dict(init="random", seed=2, max_updates=17)),
}


@pytest.mark.parametrize("case", sorted(RESIDUAL_CASES))
def test_residual_scheduler_matches_argmax_loop(case):
    build, opts = RESIDUAL_CASES[case]
    m = build()
    max_updates = opts.get("max_updates", 20000)
    tol = opts.get("tol", 1e-9)
    result, trace = run_residual_scheduled(
        m, max_updates=max_updates, tol=tol, init=opts["init"],
        seed=opts.get("seed"))
    status, total, entries, vecs = argmax_residual(
        m, max_updates, tol, opts["init"], opts.get("seed"))
    assert trace.entries == entries
    assert (result.status, result.iterations, trace.total_updates) == \
        (status, total, total)
    logm = result.messages.logm
    for e, (_, d) in enumerate(m.directed_edges()):
        assert np.array_equal(logm[e, :m.cards[d]], np.log(vecs[e]))
        assert np.all(logm[e, m.cards[d]:] == _NEG)
    for got, want in zip(result.beliefs, ref_beliefs(m, vecs)):
        assert np.array_equal(got, want)
    if case.endswith("tol0"):
        assert entries[-1][1] == 0.0 and status == "max_iters"
    if case == "inside-sweep":
        assert total == 17 and entries == []


@st.composite
def shape_stacked_models(draw):
    """Models with cards 2-4 and 7, asymmetric potentials, edges keyed in
    both orientations, node potentials given or omitted."""
    n = draw(st.integers(2, 6))
    cards = draw(st.lists(st.sampled_from([2, 3, 4, 7]), min_size=n,
                          max_size=n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    edges = [(j, i) if draw(st.booleans()) else (i, j) for i, j in chosen]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    node_pots = None
    if draw(st.booleans()):
        node_pots = [rng.lognormal(0.0, 1.0, size=c) for c in cards]
    return PairwiseMRF(n, edges, cards, node_pots, {
        (i, j): rng.lognormal(0.0, 1.0, size=(cards[i], cards[j]))
        for i, j in edges})


@settings(max_examples=200, deadline=None)
@given(shape_stacked_models())
def test_shape_stacked_tables_match_one_edge_at_a_time(model):
    kmax = max(model.cards)
    table = _log_weight_table(model, _log_node(model, kmax))
    for e, (t, s) in enumerate(model.directed_edges()):
        block = table[:model.cards[t], :model.cards[s], e]
        assert block.tobytes() == _log_weights(model, t, s).tobytes()
        pad = np.ones((kmax, kmax), dtype=bool)
        pad[:model.cards[t], :model.cards[s]] = False
        assert np.all(table[:, :, e][pad] == _NEG)
    strengths = compute_strengths(model)
    got = np.stack([strengths.d_pair, strengths.d_plain, strengths.d_star_row,
                    strengths.d_star_col, strengths.sigma,
                    strengths.n_strength])
    for m, mat in enumerate(model.edge_pot):
        want = _measures(np.array(mat)[None])[:, 0]
        want[[0, 2, 3]] = np.maximum(want[[0, 2, 3]], 1.0)  # the table's clamp
        assert got[:, m].tobytes() == want.tobytes()


def test_engine_calls_build_each_models_tables_once(monkeypatch):
    # The kernel, the restart batch and the residual scheduler all read the
    # layout's one log-weight table, built from the layout's log node
    # potentials: one of each per model and call.
    builds = []
    for name in ("_log_node", "_log_weight_table"):
        def counted(model, *args, build=getattr(engine, name), name=name):
            builds.append((name, id(model)))
            return build(model, *args)

        monkeypatch.setattr(engine, name, counted)
    base = _mixed_card_grid()
    models = [base, _redrawn(base, 1), _redrawn(base, 2)]

    def residual(init):
        result, _ = run_residual_scheduled(base, init=init, seed=1)
        assert result.converged

    for call, built in ((lambda: run_synchronous(base), [base]),
                        (lambda: residual("uniform"), [base]),
                        (lambda: residual("random"), [base]),
                        (lambda: true_distance(models, runs=3),
                         models)):
        builds.clear()
        call()
        assert sorted(builds) == sorted(
            (name, id(m)) for m in built
            for name in ("_log_node", "_log_weight_table"))


def test_residual_scheduler_rejects_overflowing_strengths():
    # A separable potential with row sums 2e200 and 2e-200: their ratio
    # overflows, so d_star would be inf and a dependent's cap
    # log1p(inf * 0) = NaN.
    m = PairwiseMRF(3, [(0, 1), (1, 2)], edge_potentials={
        (0, 1): [[1.0, 2.0], [2.0, 1.0]],
        (1, 2): [[1e200, 1e200], [1e-200, 1e-200]]})
    with pytest.raises(ModelError):
        run_residual_scheduled(m, init="random", seed=1)


# -- MessageSet validation -------------------------------------------------


@pytest.mark.parametrize("fault, message", [
    ([0.2, 0.3, 0.5], "message has length (3,), expected 2"),
    ([0.0, 1.0], "message entries must be strictly positive"),
    ([np.inf, 0.5], "message entries must be strictly positive"),
    ([0.5, 0.5 + 1e-9], "message must sum to 1"),
])
def test_message_set_rejects_one_faulty_vector(fault, message):
    m = _mixed_card_grid()
    vecs = [np.full(m.cards[d], 1.0 / m.cards[d]) for _, d in m.directed_edges()]
    e = next(e for e, (_, d) in enumerate(m.directed_edges())
             if e > 3 and m.cards[d] == 2)
    vecs[e] = np.array(fault)
    with pytest.raises(ModelError) as info:
        MessageSet(m, vecs)
    assert str(info.value) == message


# -- MessageSet storage ----------------------------------------------------


def test_message_set_copy_and_runs_leave_source_alone():
    m = _mixed_card_grid()
    ms = MessageSet.random(m, seed=3)
    before = ms.logm.copy()
    t, s = next(e for e in m.directed_edges() if m.cards[e.dst] == 3)
    dup = ms.copy()
    dup.set(t, s, [0.2, 0.3, 0.5])
    assert not np.array_equal(dup.logm, before)
    sync = run_synchronous(m, init=ms, max_iters=5)
    sched, _ = run_residual_scheduled(m, init=ms, max_updates=200)
    assert np.array_equal(ms.logm, before)
    for out in (sync.messages, sched.messages):
        assert not np.shares_memory(out.logm, ms.logm)


def test_message_set_set_get_round_trip():
    # get is exp of the stored log: the log's rounding, at most half an ulp
    # of |log v|, becomes a relative error of about |log v| ulps of v.
    m = _mixed_card_grid()
    ms = MessageSet.uniform(m)
    rng = np.random.default_rng(0)
    for t, s in m.directed_edges():
        vec = rng.uniform(0.05, 1.0, size=m.cards[s])
        vec /= vec.sum()
        ms.set(t, s, vec)
        assert np.array_equal(ms._log(t, s), np.log(vec))
        got = ms.get(t, s)
        assert np.all(np.abs(got - vec)
                      <= np.spacing(vec) * (1.0 + np.abs(np.log(vec))))
