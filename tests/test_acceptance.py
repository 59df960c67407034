"""End-to-end release checks.

Every check prints one PASS/FAIL line (visible under ``pytest -s``) with the
measured numbers, then asserts. The file runs the full desk-scale studies:
expect roughly a minute and a half of wall time.
"""

import functools
import math
import time

import numpy as np

import oracles
from loopybp.accuracy import ConvergenceFailure, exact_marginals, saw_accuracy
from loopybp.bounds import (delta1, improved_uniform_distance_bound,
                            ihler_uniform_distance_bound, true_distance,
                            uniform_distance_bound)
from loopybp.convergence import _bisect, critical_eta
from loopybp.engine import (MessageSet, empirical_critical_eta,
                            run_residual_scheduled, run_synchronous,
                            update_message)
from loopybp.models import PairwiseMRF, build_generator, compute_strengths
from loopybp.uniform import fixed_points
from test_uniform import udb_completely_uniform

GRAPHS = {
    "complete4": lambda eta: build_generator("complete:4", eta),
    "k4minus": lambda eta: build_generator("k4minus", eta),
    "torus": lambda eta: build_generator("torus:3x3", eta),
    "grid": lambda eta: build_generator("grid:3x3", eta),
}

ETAS = [round(0.5 + 0.01 * i, 2) for i in range(46)]


def _report(label, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


@functools.lru_cache(maxsize=None)
def _empirical_criticals():
    """Multi-start agreement thresholds, computed once and shared."""
    out = {}
    for name, build in GRAPHS.items():
        start = time.perf_counter()
        out[name] = (empirical_critical_eta(build(0.7)),
                     time.perf_counter() - start)
    return out


# -- 1: certified critical interaction strengths ---------------------------


def _bound_zero_critical(build, bound_fn, lo=0.5, hi=0.99, tol=1e-3):
    def zero(eta):
        node_bounds, _ = bound_fn(build(eta))
        return float(np.max(node_bounds)) <= 1e-12

    return _bisect(zero, lo, hi, tol)


def test_criterion_1_certified_criticals():
    """Bisected zero thresholds of the distance bounds and the walk-sum
    certificate against their reference values."""
    got = {
        "udb_k4": _bound_zero_critical(GRAPHS["complete4"],
                                       uniform_distance_bound),
        "udb_torus": _bound_zero_critical(GRAPHS["torus"],
                                          uniform_distance_bound),
        "rng_k4": _bound_zero_critical(GRAPHS["complete4"],
                                       ihler_uniform_distance_bound),
        "rng_torus": _bound_zero_critical(GRAPHS["torus"],
                                          ihler_uniform_distance_bound),
        "saw_k4minus": critical_eta(GRAPHS["k4minus"](0.7), "nonuniform-saw",
                                    tol=1e-3),
        "saw_grid": critical_eta(GRAPHS["grid"](0.7), "nonuniform-saw",
                                 tol=1e-3),
    }
    targets = {
        "udb_k4": (0.735, 0.003),
        "udb_torus": (0.662, 0.003),
        "rng_k4": (0.750, 0.002),
        "rng_torus": (0.6667, 0.002),
        "saw_k4minus": (0.78, 0.01),
        "saw_grid": (0.77, 0.01),
    }
    ok = all(abs(got[k] - v) <= t for k, (v, t) in targets.items())
    detail = " ".join(f"{k}={got[k]:.4f}" for k in targets)
    _report("criterion 1 (certified criticals)", ok, detail)


# -- 2: empirical multi-start thresholds -----------------------------------


def test_criterion_2_empirical_criticals():
    """Seeded 20-start agreement thresholds on all four graphs."""
    targets = {"complete4": 0.75, "torus": 0.67, "k4minus": 0.83,
               "grid": 0.79}
    measured = _empirical_criticals()
    ok = all(abs(measured[k][0] - targets[k]) <= 0.01 for k in targets)
    ok = ok and all(measured[k][1] < 60.0 for k in targets)
    detail = " ".join(f"{k}={measured[k][0]:.4f}({measured[k][1]:.1f}s)"
                      for k in targets)
    _report("criterion 2 (empirical criticals)", ok, detail)


# -- 3: bound values on the strongly coupled torus -------------------------


def test_criterion_3_torus_bound_values():
    """Closed-form uniform bound equals the measured fixed-point distance,
    and the improved bound lands at its reference value."""
    model = build_generator("torus:3x3", 0.7)
    d_pair = compute_strengths(model).pair(0, 1)
    closed = udb_completely_uniform(d_pair, 4)
    improved = float(improved_uniform_distance_bound(model)[0].max())
    truth = true_distance(model, runs=12)
    gap = abs(closed - float(truth.max())) if truth is not None else math.inf
    ok = (abs(closed - 2.2785) <= 0.002 and gap <= 1e-6
          and abs(improved - 2.3318) <= 0.002)
    _report("criterion 3 (torus bound values)", ok,
            f"closed={closed:.4f} |closed-true|={gap:.1e} "
            f"improved={improved:.4f}")


# -- 4: fixed-point dynamics of the uniform binary family ------------------


def test_criterion_4_scalar_dynamics():
    """Stable beliefs and messages at strong coupling, the period-2 orbit at
    strong anti-correlation, and the paramagnetic window."""
    strong = run_synchronous(build_generator("torus:3x3", 0.7),
                             init="random", seed=3)
    x_star = max(fixed_points(0.7, 0.3, 3).fixed)
    belief_ok = strong.converged and all(
        abs(float(np.max(b)) - 0.9071) <= 5e-4 and
        abs(float(np.min(b)) - 0.0929) <= 5e-4 for b in strong.beliefs)
    msg_err = 0.0
    for lo, hi in strong.messages.model.edges:
        for s, t in ((lo, hi), (hi, lo)):
            m0 = float(strong.messages.get(s, t)[0])
            msg_err = max(msg_err, min(abs(m0 - x_star),
                                       abs(m0 - (1.0 - x_star))))
    anti = run_synchronous(build_generator("torus:3x3", 0.3),
                           init="random", seed=0)
    window_ok = True
    for eta in (0.35, 0.40, 0.45, 0.50, 0.55, 0.60, 0.65):
        fp = fixed_points(eta, 1.0 - eta, 3)
        window_ok = (window_ok and fp.regime == "paramagnetic"
                     and len(fp.fixed) == 1
                     and abs(fp.fixed[0] - 0.5) <= 1e-9 and not fp.quasi)
    edges_ok = (fixed_points(0.70, 0.30, 3).regime == "ferromagnetic"
                and fixed_points(0.30, 0.70, 3).regime == "anti-ferromagnetic")
    ok = (belief_ok and abs(x_star - 0.63874) <= 1e-4 and msg_err <= 1e-4
          and anti.status == "oscillating" and anti.period == 2
          and window_ok and edges_ok)
    _report("criterion 4 (scalar dynamics)", ok,
            f"x*={x_star:.5f} msg_err={msg_err:.1e} "
            f"anti={anti.status}/{anti.period} window_ok={window_ok}")


# -- 5: one-step error caps ------------------------------------------------


def symmetric(eta):
    """The symmetric binary pair potential at eta, as generators build it."""
    return np.array([[eta, 1 - eta], [1 - eta, eta]])


def _symmetric_one_step_trial(rng):
    """Exact update under true and perturbed incoming messages on a random
    symmetric-coupling star; returns the per-state ratio extremes and the
    cap computed from the realized incoming error range."""
    extra = int(rng.integers(0, 4))
    nodes = 2 + extra
    edges = [(0, 1)] + [(0, 2 + i) for i in range(extra)]
    pots = {e: symmetric(float(rng.uniform(0.5, 0.95))) for e in edges}
    model = PairwiseMRF(nodes, edges, edge_potentials=pots)
    base = MessageSet.random(model, seed=int(rng.integers(1 << 30)))
    pert = base.copy()
    for u in range(2, nodes):
        noisy = np.asarray(base.get(u, 0)) * rng.uniform(0.1, 10.0, size=2)
        pert.set(u, 0, noisy / noisy.sum())
    out_base = update_message(model, base, (0, 1))
    out_pert = update_message(model, pert, (0, 1))
    incoming = np.ones(2)
    for u in range(2, nodes):
        incoming *= np.asarray(pert.get(u, 0)) / np.asarray(base.get(u, 0))
    dE = math.sqrt(float(incoming.max() / incoming.min()))
    table = compute_strengths(model)
    # The summed strength of 1 -> 0 sums out node 0: the column one.
    cap = delta1(table.pair(0, 1), float(table.d_star_col[0]), max(dE, 1.0))
    ratio = out_pert / out_base
    return float(ratio.max()), float(ratio.min()), cap


def test_criterion_5_one_step_caps():
    """Containment of realized one-step error ratios in [1/cap, cap] over
    10^4 trials, and the two-strength cap below the squared-strength cap
    over 10^4 admissible triples."""
    rng = np.random.default_rng(20260822)
    contained = 0
    for _ in range(10000):
        hi, lo, cap = _symmetric_one_step_trial(rng)
        if hi <= cap * (1 + 1e-9) and lo >= (1 - 1e-9) / cap:
            contained += 1
    ordered = 0
    for _ in range(10000):
        d_star = 1.0 + float(rng.exponential(1.0))
        d_pair = d_star * (1.0 + float(rng.exponential(1.0)))
        dE = math.inf if rng.uniform() < 0.05 else 1.0 + float(rng.exponential(2.0))
        if (delta1(d_pair, d_star, dE)
                <= delta1(d_pair, d_pair, dE) * (1 + 1e-12)):
            ordered += 1
    ok = contained == 10000 and ordered == 10000
    _report("criterion 5 (one-step caps)", ok,
            f"contained={contained}/10000 ordered={ordered}/10000")


# -- 6: agreement with brute-force enumeration -----------------------------

SAW_NODES = {"complete4": (0, 1, 2, 3), "k4minus": (0, 1, 2, 3),
             "grid": (0, 1, 4), "torus": (0, 4)}


def test_criterion_6_oracle_equivalence():
    """Tree beliefs equal enumerated marginals, and accuracy intervals
    contain enumerated marginals across the sweep."""
    rng = np.random.default_rng(6)
    tree_worst = 0.0
    trees_ok = True
    for trial in range(50):
        n = int(rng.integers(2, 13))
        skeleton = build_generator(f"tree:{n}:{trial}", 0.6)
        cards = [int(c) for c in rng.integers(2, 4, size=n)]
        node_pots = [rng.uniform(0.2, 2.5, size=c) for c in cards]
        edge_pots = {e: rng.uniform(0.2, 2.5, size=(cards[e[0]], cards[e[1]]))
                     for e in skeleton.edges}
        model = PairwiseMRF(n, skeleton.edges, cardinality=cards,
                            node_potentials=node_pots,
                            edge_potentials=edge_pots)
        res = run_synchronous(model, max_iters=200, tol=1e-14)
        trees_ok = trees_ok and res.converged
        exact = exact_marginals(model)
        tree_worst = max(tree_worst,
                         max(float(np.abs(np.asarray(b) - e).max())
                             for b, e in zip(res.beliefs, exact)))

    points = 0
    violations = 0
    for name, build in GRAPHS.items():
        for eta in ETAS:
            model = build(eta)
            exact = exact_marginals(model)
            for v in SAW_NODES[name]:
                try:
                    acc = saw_accuracy(model, v)
                except ConvergenceFailure:
                    continue
                points += 1
                if (np.any(exact[v] < acc.lower - 1e-12)
                        or np.any(exact[v] > acc.upper + 1e-12)):
                    violations += 1
    ok = trees_ok and tree_worst <= 1e-10 and violations == 0 and points > 0
    _report("criterion 6 (oracle equivalence)", ok,
            f"tree_worst={tree_worst:.1e} interval_points={points} "
            f"violations={violations}")


# -- 7: certificate ordering across the sweep ------------------------------


def test_criterion_7_condition_ordering():
    """No implication-chain violations at any sweep point, and denser
    graphs certify at weaker coupling than their subgraphs."""
    chain_violations = []
    for name, build in GRAPHS.items():
        for eta in ETAS:
            chain_violations.extend(
                f"{name}@{eta}: {v}"
                for v in oracles.condition_ordering_violations(build(eta)))
    pair_ok = all(
        oracles.partial_graph_ordering_check(build_generator(part, 0.7),
                                             build_generator(whole, 0.7), cond)
        for cond in ("nonuniform-saw", "walksum")
        for part, whole in (("k4minus", "complete:4"),
                            ("grid:3x3", "torus:3x3")))
    ok = not chain_violations and pair_ok
    _report("criterion 7 (condition ordering)", ok,
            f"chain_violations={len(chain_violations)} pair_ok={pair_ok}"
            + (f" first={chain_violations[0]}" if chain_violations else ""))


# -- 8: residual scheduler agreement ---------------------------------------


def test_criterion_8_residual_schedule():
    """On every sweep point inside the agreement region, the prioritized
    scheduler reaches the synchronous beliefs and every logged priority
    dominates the realized change."""
    criticals = _empirical_criticals()
    belief_worst = 0.0
    priority_violations = 0
    run_failures = 0
    counts = {}
    for name, build in GRAPHS.items():
        counts[name] = 0
        for eta in ETAS:
            if eta > criticals[name][0] - 0.01:
                continue
            model = build(eta)
            sync = run_synchronous(model)
            res, trace = run_residual_scheduled(model, init="random", seed=17,
                                                tol=1e-10, max_updates=150000)
            if not (sync.converged and res.converged):
                run_failures += 1
                continue
            counts[name] += 1
            belief_worst = max(belief_worst,
                               max(float(np.abs(np.asarray(b)
                                                - np.asarray(c)).max())
                                   for b, c in zip(sync.beliefs, res.beliefs)))
            for _, priority, realized in trace.entries:
                if realized > priority + 1e-12:
                    priority_violations += 1
    ok = (belief_worst <= 1e-6 and priority_violations == 0
          and run_failures == 0 and all(c >= 10 for c in counts.values()))
    _report("criterion 8 (residual schedule)", ok,
            f"belief_worst={belief_worst:.1e} "
            f"priority_violations={priority_violations} "
            f"points={sum(counts.values())} failures={run_failures}")
