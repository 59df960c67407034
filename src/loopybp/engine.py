"""Sum-product message passing.

Synchronous sweeps run all directed edges against a snapshot of the previous
iteration; the residual scheduler recomputes one message at a time, ordered by
a contraction bound on how much each pending message can still move. Both
share the message layout below, which pads mixed cardinalities to a common
width so a whole batch of runs can be advanced with a few array operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .models import (DirectedEdge, ModelError, PairwiseMRF, StrengthTable,
                     compute_strengths, with_uniform_binary)

_NEG = -1.0e30  # padded state slots in log space; finite so arithmetic stays NaN-free


class MessageSet:
    """One normalized positive vector per directed edge.

    Vector e lives over the states of the target of directed edge e, in the
    canonical order of ``model.directed_edges()``.
    """

    def __init__(self, model: PairwiseMRF, vectors):
        self.model = model
        if len(vectors) != model.num_directed:
            raise ModelError("wrong number of message vectors")
        self.vectors = []
        for e, (_, dst) in enumerate(model.directed_edges()):
            vec = np.asarray(vectors[e], dtype=float)
            _check_message(vec, model.cards[dst])
            self.vectors.append(vec)

    @classmethod
    def uniform(cls, model: PairwiseMRF) -> "MessageSet":
        vecs = [np.full(model.cards[d], 1.0 / model.cards[d])
                for _, d in model.directed_edges()]
        return cls(model, vecs)

    @classmethod
    def random(cls, model: PairwiseMRF, seed=None) -> "MessageSet":
        """Entries drawn uniformly from (0, 1) and normalized; seeded."""
        layout = _Layout(model)
        logm = _random_logm(layout, [seed])
        return _messages_from_logm(layout, logm[0])

    def get(self, src, dst) -> np.ndarray:
        return self.vectors[self.model.directed_index(src, dst)]

    def set(self, src, dst, vec) -> None:
        vec = np.asarray(vec, dtype=float)
        _check_message(vec, self.model.cards[dst])
        self.vectors[self.model.directed_index(src, dst)] = vec

    def copy(self) -> "MessageSet":
        return MessageSet(self.model, [v.copy() for v in self.vectors])

    def max_abs_log_ratio(self, other: "MessageSet") -> float:
        """Largest |log(self / other)| over all edges and states."""
        worst = 0.0
        for a, b in zip(self.vectors, other.vectors):
            worst = max(worst, float(np.max(np.abs(np.log(a) - np.log(b)))))
        return worst


def _check_message(vec, card):
    if vec.shape != (card,):
        raise ModelError(f"message has length {vec.shape}, expected {card}")
    if np.any(vec <= 0.0) or not np.all(np.isfinite(vec)):
        raise ModelError("message entries must be strictly positive")
    if abs(float(vec.sum()) - 1.0) > 1e-12:
        raise ModelError("message must sum to 1")


@dataclass
class RunResult:
    """Outcome of a message-passing run.

    status is one of ``converged``, ``oscillating`` (with ``period``), or
    ``max_iters``. ``max_changes`` records, per iteration (per update for the
    residual scheduler), the largest absolute log-scale message change.
    """

    status: str
    period: Optional[int]
    iterations: int
    messages: MessageSet
    max_changes: np.ndarray
    beliefs: list

    @property
    def converged(self) -> bool:
        return self.status == "converged"


@dataclass
class ScheduleTrace:
    """Pop log of a residual-scheduled run.

    entries holds (edge, priority at pop, realized residual) per scheduled
    update. The initialization sweep that precedes scheduling is counted in
    ``total_updates`` but not traced.
    """

    entries: list
    total_updates: int

    def write_csv(self, fh) -> None:
        fh.write("step,edge,priority,residual\n")
        for step, (edge, prio, res) in enumerate(self.entries, start=1):
            fh.write(f"{step},{edge.src}->{edge.dst},{prio:.12g},{res:.12g}\n")


# -- padded layout ---------------------------------------------------------


class _Layout:
    def __init__(self, model: PairwiseMRF):
        self.model = model
        directed = model.directed_edges()
        n_dir = len(directed)
        kmax = max(model.cards)
        self.n_dir = n_dir
        self.kmax = kmax
        self.src = np.array([e.src for e in directed], dtype=int)
        self.dst = np.array([e.dst for e in directed], dtype=int)
        self.rev = np.arange(n_dir) ^ 1  # canonical order pairs 2m, 2m+1

        self.combined = np.full((n_dir, kmax, kmax), _NEG)
        for e, (t, s) in enumerate(directed):
            mat = model.edge_matrix(t, s)
            kt, ks = model.cards[t], model.cards[s]
            self.combined[e, :kt, :ks] = (np.log(mat)
                                          + np.log(model.node_pot[t])[:, None])

        self.mask = np.zeros((n_dir, kmax), dtype=bool)
        for e in range(n_dir):
            self.mask[e, :model.cards[self.dst[e]]] = True

        self.node_mask = np.zeros((model.num_nodes, kmax), dtype=bool)
        self.log_node = np.full((model.num_nodes, kmax), _NEG)
        for v in range(model.num_nodes):
            self.node_mask[v, :model.cards[v]] = True
            self.log_node[v, :model.cards[v]] = np.log(model.node_pot[v])

        self.incidence = np.zeros((model.num_nodes, n_dir))
        self.incidence[self.dst, np.arange(n_dir)] = 1.0


def _uniform_logm(layout: _Layout, runs: int) -> np.ndarray:
    cards = np.array([layout.model.cards[d] for d in layout.dst], dtype=float)
    base = np.where(layout.mask, -np.log(cards)[:, None], _NEG)
    return np.repeat(base[None], runs, axis=0)


def _random_logm(layout: _Layout, seeds) -> np.ndarray:
    out = np.empty((len(seeds), layout.n_dir, layout.kmax))
    for r, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        raw = rng.uniform(size=(layout.n_dir, layout.kmax))
        raw = np.where(layout.mask, raw, 0.0)
        raw /= raw.sum(axis=1, keepdims=True)
        out[r] = np.where(layout.mask, np.log(raw, where=layout.mask,
                                              out=np.full_like(raw, _NEG)), _NEG)
    return out


def _messages_from_logm(layout: _Layout, logm: np.ndarray) -> MessageSet:
    vecs = []
    for e in range(layout.n_dir):
        card = layout.model.cards[layout.dst[e]]
        vec = np.exp(logm[e, :card])
        vecs.append(vec / vec.sum())
    return MessageSet(layout.model, vecs)


def _logm_from_messages(layout: _Layout, messages: MessageSet) -> np.ndarray:
    logm = np.full((1, layout.n_dir, layout.kmax), _NEG)
    for e, vec in enumerate(messages.vectors):
        logm[0, e, :vec.shape[0]] = np.log(vec)
    return logm


def _sweep_batch(layout: _Layout, logm: np.ndarray) -> np.ndarray:
    """One synchronous update of every directed edge, for a whole batch."""
    at_node = np.einsum("ve,rek->rvk", layout.incidence, logm)
    excl = at_node[:, layout.src, :] - logm[:, layout.rev, :]
    stacked = layout.combined[None] + excl[:, :, :, None]
    peak = stacked.max(axis=2)
    new = peak + np.log(np.exp(stacked - peak[:, :, None, :]).sum(axis=2))
    new = np.where(layout.mask[None], new, _NEG)
    peak = new.max(axis=2, keepdims=True)
    norm = peak + np.log(np.exp(new - peak).sum(axis=2, keepdims=True))
    return np.where(layout.mask[None], new - norm, _NEG)


def _beliefs_batch(layout: _Layout, logm: np.ndarray) -> np.ndarray:
    at_node = np.einsum("ve,rek->rvk", layout.incidence, logm)
    logb = np.where(layout.node_mask[None], at_node + layout.log_node[None], _NEG)
    peak = logb.max(axis=2, keepdims=True)
    probs = np.exp(logb - peak)
    probs = np.where(layout.node_mask[None], probs, 0.0)
    return probs / probs.sum(axis=2, keepdims=True)


def _run_batch(layout: _Layout, logm0: np.ndarray, max_iters: int, tol: float,
               detect_oscillation: bool = True):
    """Advance every run until convergence, period-2 oscillation, or budget.

    Convergence compares against the previous iterate, oscillation against
    the one before that; the smaller lag wins when both match. Each run's
    message state is snapshotted at its own detection point while the rest
    of the batch keeps going.

    Callers that only care whether a run settles (the multi-start agreement
    probe, fixed-point collection) pass ``detect_oscillation=False``: on
    bipartite graphs the update alternates sign along part of the spectrum,
    so a slowly converging run matches its lag-2 predecessor long before it
    matches its lag-1 one and would be misread as a period-2 cycle.
    """
    runs = logm0.shape[0]
    status = np.zeros(runs, dtype=int)  # 0 running, 1 converged, 2 oscillating, 3 budget
    iters = np.zeros(runs, dtype=int)
    snap = logm0.copy()
    changes: list[list[float]] = [[] for _ in range(runs)]
    mask3 = layout.mask[None]

    prev2 = None
    cur = logm0
    for it in range(1, max_iters + 1):
        new = _sweep_batch(layout, cur)
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


_STATUS_NAMES = {1: "converged", 2: "oscillating", 3: "max_iters"}


# -- public single-run API -------------------------------------------------


def update_message(model: PairwiseMRF, messages: MessageSet, edge) -> np.ndarray:
    """Recompute the message along ``edge`` = (t, s) from the current set.

    Sums the sender's states against the edge potential, the sender's node
    potential, and the product of the sender's other incoming messages.
    """
    t, s = edge
    logw = (np.log(model.edge_matrix(t, s))
            + np.log(model.node_pot[t])[:, None])
    for u in model.neighbors(t):
        if u != s:
            logw = logw + np.log(messages.get(u, t))[:, None]
    peak = logw.max()
    summed = np.exp(logw - peak).sum(axis=0)
    total = summed.sum()
    if total <= 0.0 or not np.isfinite(total):
        raise ModelError(f"message {t}->{s} degenerated during normalization")
    return summed / total


def synchronous_sweep(model: PairwiseMRF, messages: MessageSet) -> MessageSet:
    """Update every directed edge once against a snapshot of ``messages``."""
    vecs = [update_message(model, messages, e) for e in model.directed_edges()]
    return MessageSet(model, vecs)


def compute_beliefs(model: PairwiseMRF, messages: Optional[MessageSet]) -> list:
    """Per-node normalized belief: node potential times incoming messages."""
    out = []
    for v in range(model.num_nodes):
        logb = np.log(model.node_pot[v]).copy()
        if messages is not None:
            for u in model.neighbors(v):
                logb += np.log(messages.get(u, v))
        b = np.exp(logb - logb.max())
        out.append(b / b.sum())
    return out


def compute_pairwise_beliefs(model: PairwiseMRF, messages: MessageSet) -> list:
    """Per-edge normalized joint belief, rows indexed by the lower node id."""
    out = []
    for lo, hi in model.edges:
        logb = (np.log(model.edge_pot[model.edge_index[(lo, hi)]])
                + np.log(model.node_pot[lo])[:, None]
                + np.log(model.node_pot[hi])[None, :])
        for u in model.neighbors(lo):
            if u != hi:
                logb += np.log(messages.get(u, lo))[:, None]
        for u in model.neighbors(hi):
            if u != lo:
                logb += np.log(messages.get(u, hi))[None, :]
        b = np.exp(logb - logb.max())
        out.append(b / b.sum())
    return out


def _initial_logm(layout: _Layout, init, seed):
    if isinstance(init, MessageSet):
        return _logm_from_messages(layout, init)
    if init == "uniform":
        return _uniform_logm(layout, 1)
    if init == "random":
        return _random_logm(layout, [seed])
    raise ValueError(f"unknown init {init!r}")


def _trivial_result(model: PairwiseMRF) -> RunResult:
    msgs = MessageSet(model, [])
    return RunResult("converged", None, 0, msgs, np.empty(0),
                     compute_beliefs(model, None))


def run_synchronous(model: PairwiseMRF, init="uniform", max_iters=2000,
                    tol=1e-10, seed=None) -> RunResult:
    """Iterate synchronous sweeps until the largest log-scale message change
    drops below ``tol``, a period-2 cycle is detected at the same tolerance,
    or the budget runs out.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    if model.num_directed == 0:
        return _trivial_result(model)
    layout = _Layout(model)
    logm0 = _initial_logm(layout, init, seed)
    status, iters, snap, changes = _run_batch(layout, logm0, max_iters, tol)
    msgs = _messages_from_logm(layout, snap[0])
    return RunResult(_STATUS_NAMES[int(status[0])],
                     2 if status[0] == 2 else None,
                     int(iters[0]), msgs, np.array(changes[0]),
                     compute_beliefs(model, msgs))


# -- residual scheduling ---------------------------------------------------


def _log_contraction(dd: float, incoming: float) -> float:
    """Log of the squared-ratio cap on an update whose incoming messages have
    accumulated ``incoming`` of log-scale change since it last ran.

    Written through exp(-incoming) so that a saturated (infinite) accumulator
    cleanly yields the cap 2*log(dd).
    """
    t = np.exp(-incoming)
    return float(2.0 * (np.log(dd + t) - np.log1p(dd * t)))


def residual_priority(strengths: StrengthTable, edge, estimates) -> float:
    """Scheduling priority for ``edge`` = (t, s): the contraction cap fed by
    the pending change estimates of the sender's other incoming edges.
    Zero estimates give zero; large estimates saturate at 2*log(d * d_star).
    """
    t, s = edge
    total = 0.0
    for est in estimates:
        if est < 0.0:
            raise ValueError("estimates must be non-negative")
        total += float(est)
    return _log_contraction(strengths.directed_product(t, s), total)


def run_residual_scheduled(model: PairwiseMRF, max_updates=20000, tol=1e-9,
                           init="uniform", seed=None, strengths=None):
    """Priority-driven asynchronous sum-product.

    Starts with one untraced sweep that recomputes every message in index
    order, so each stored vector is the output of an update; from then on the
    contraction cap is a true upper bound on any realized residual. Then
    repeatedly pops the highest-priority edge (ties to the lowest index),
    recomputes it, and feeds the realized residual into the accumulators of
    the edges it influences. Stops when the top priority falls below ``tol``
    (status ``converged``; every pending message is certified to move less
    than that) or when the update budget, which includes the initial sweep,
    is exhausted (status ``max_iters``).

    Returns (RunResult, ScheduleTrace).
    """
    if model.num_directed == 0:
        return _trivial_result(model), ScheduleTrace([], 0)
    if strengths is None:
        strengths = compute_strengths(model)
    directed = model.directed_edges()
    n_dir = len(directed)

    if isinstance(init, MessageSet):
        msgs = init.copy()
    elif init == "uniform":
        msgs = MessageSet.uniform(model)
    elif init == "random":
        msgs = MessageSet.random(model, seed)
    else:
        raise ValueError(f"unknown init {init!r}")

    dd, _ = strengths.directed_arrays()
    seg, feed = model.non_backtracking_pairs()
    dependents = [[] for _ in range(n_dir)]  # dependents[e]: edges e feeds
    for f, e in zip(seg.tolist(), feed.tolist()):
        dependents[e].append(f)

    total = 0
    for e in range(n_dir):
        msgs.vectors[e] = update_message(model, msgs, directed[e])
        total += 1

    acc = np.full(n_dir, np.inf)
    prio = 2.0 * np.log(dd)
    entries = []
    changes = []
    status = "max_iters"
    while total < max_updates:
        e = int(np.argmax(prio))
        top = float(prio[e])
        if top < tol:
            status = "converged"
            break
        old = msgs.vectors[e]
        new = update_message(model, msgs, directed[e])
        realized = float(np.max(np.abs(np.log(new) - np.log(old))))
        msgs.vectors[e] = new
        total += 1
        entries.append((directed[e], top, realized))
        changes.append(realized)
        acc[e] = 0.0
        prio[e] = 0.0
        for f in dependents[e]:
            acc[f] += realized
            prio[f] = _log_contraction(dd[f], acc[f])
    else:
        if float(prio.max()) < tol:
            status = "converged"

    result = RunResult(status, None, total, msgs, np.array(changes),
                       compute_beliefs(model, msgs))
    return result, ScheduleTrace(entries, total)


# -- empirical convergence probe -------------------------------------------


def empirical_convergent(model: PairwiseMRF, runs=20, max_iters=5000,
                         tol=1e-12, agree_tol=1e-8, base_seed=0) -> bool:
    """Whether ``runs`` seeded random starts all converge to one belief set.

    Every run must finish with status converged and every run's beliefs must
    match the first run's within ``agree_tol`` per state. A pair of runs that
    lands on mirrored belief vectors therefore counts as disagreement.

    ``tol`` (the message-change stopping rule) sits far below ``agree_tol``
    so that leftover iteration error cannot masquerade as disagreement
    between runs that share a fixed point.
    """
    if model.num_directed == 0:
        return True
    layout = _Layout(model)
    logm0 = _random_logm(layout, [base_seed + r for r in range(runs)])
    status, _, snap, _ = _run_batch(layout, logm0, max_iters, tol,
                                    detect_oscillation=False)
    if np.any(status != 1):
        return False
    beliefs = _beliefs_batch(layout, snap)
    return float(np.abs(beliefs - beliefs[0]).max()) <= agree_tol


def empirical_critical_eta(model: PairwiseMRF, lo=0.5, hi=0.99, tol=1e-3,
                           runs=20, max_iters=5000, run_tol=1e-12,
                           agree_tol=1e-8, base_seed=0) -> float:
    """Bisect the edge weight at which the multi-start agreement check flips.

    The topology is taken from ``model``; each probe rebuilds it with the
    symmetric binary potential at the probed eta.
    """

    def agreed(eta):
        return empirical_convergent(with_uniform_binary(model, eta), runs,
                                    max_iters, run_tol, agree_tol, base_seed)

    if not agreed(lo):
        return lo
    if agreed(hi):
        return hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if agreed(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
