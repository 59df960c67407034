"""Sum-product message passing.

Synchronous sweeps run all directed edges against a snapshot of the previous
iteration; the residual scheduler recomputes one message at a time, ordered by
a contraction bound on how much each pending message can still move.

Synchronous runs, restart batches and the multi-start probe go through one
batch kernel. Its layout pads mixed cardinalities to a common width and
gathers each node's incoming messages through a padded in-edge table, so a
sweep over a whole batch of runs costs a few dozen array operations whatever
the graph's size.

The residual scheduler does not use that kernel: the kernel normalizes in
log space, while a scheduled update must be ``update_message``'s
linear-space arithmetic so that its pop log does not depend on the route.
It builds per-edge tables once (log base matrices, in-edge lists, the logs
of the stored messages, dependents as index arrays) and keeps the
priorities in one array, so a pop costs an argmax and a few small array
operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .convergence import _bisect
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
        self.vectors = [np.asarray(v, dtype=float) for v in vectors]
        _check_messages(self.vectors,
                        [model.cards[d] for _, d in model.directed_edges()])

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
        _check_messages([vec], [self.model.cards[dst]])
        self.vectors[self.model.directed_index(src, dst)] = vec

    def copy(self) -> "MessageSet":
        return MessageSet(self.model, [v.copy() for v in self.vectors])

    def max_abs_log_ratio(self, other: "MessageSet") -> float:
        """Largest |log(self / other)| over all edges and states."""
        worst = 0.0
        for a, b in zip(self.vectors, other.vectors):
            worst = max(worst, float(np.max(np.abs(np.log(a) - np.log(b)))))
        return worst


def _check_messages(vecs, cards):
    """Validate message vectors against their target cardinalities: shapes
    one by one, then the values of all vectors in one flat array."""
    for vec, card in zip(vecs, cards):
        if vec.shape != (card,):
            raise ModelError(f"message has length {vec.shape}, expected {card}")
    if not vecs:
        return
    flat = np.concatenate(vecs)
    if np.any(flat <= 0.0) or not np.all(np.isfinite(flat)):
        raise ModelError("message entries must be strictly positive")
    starts = np.cumsum(cards) - cards
    if np.any(np.abs(np.add.reduceat(flat, starts) - 1.0) > 1e-12):
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
    """A model in the padded log-space form the batch kernel works on.

    A batch of runs holds its messages in one (runs, n_dir, kmax) array.
    State slots past an edge target's cardinality hold ``_NEG``, so a run's
    padded slots never change. ``in_edges[v]`` lists the directed edges into
    node v in ascending order, padded with the index n_dir of an all-zero
    slot; a node's log-product of incoming messages is then the sum of its
    gathered rows, added in that order.
    """

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

        combined = np.full((n_dir, kmax, kmax), _NEG)
        for e, (t, s) in enumerate(directed):
            kt, ks = model.cards[t], model.cards[s]
            combined[e, :kt, :ks] = _log_weights(model, t, s)
        # sender_rows[i][e]: log weight of sender state i over e's target states
        self.sender_rows = [combined[:, i, :].copy() for i in range(kmax)]

        self.mask = np.zeros((n_dir, kmax), dtype=bool)
        for e in range(n_dir):
            self.mask[e, :model.cards[self.dst[e]]] = True
        self.padded = not bool(self.mask.all())

        self.node_mask = np.zeros((model.num_nodes, kmax), dtype=bool)
        self.log_node = np.full((model.num_nodes, kmax), _NEG)
        for v in range(model.num_nodes):
            self.node_mask[v, :model.cards[v]] = True
            self.log_node[v, :model.cards[v]] = np.log(model.node_pot[v])

        degree = np.bincount(self.dst, minlength=model.num_nodes)
        order = np.argsort(self.dst, kind="stable")
        slot = np.arange(n_dir) - (np.cumsum(degree) - degree)[self.dst[order]]
        width = max(int(degree.max(initial=0)), 1)
        self.in_edges = np.full((model.num_nodes, width), n_dir)
        self.in_edges[self.dst[order], slot] = order
        self.in_padded = bool((degree < width).any())


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


def _node_sums(layout: _Layout, logm: np.ndarray) -> np.ndarray:
    """(runs, V, kmax) sums of each node's incoming log-messages."""
    if layout.in_padded:
        zero = np.zeros((logm.shape[0], 1, layout.kmax))
        logm = np.concatenate((logm, zero), axis=1)
    cols = layout.in_edges.T
    total = logm[:, cols[0]]
    for col in cols[1:]:
        total += logm[:, col]
    return total


def _sweep_batch(layout: _Layout, logm: np.ndarray) -> np.ndarray:
    """One synchronous update of every directed edge, for a whole batch.

    The reductions over sender and target states are written out one state
    at a time: on arrays this small a ufunc call costs far less than a
    numpy reduction over one axis of a 3-D or 4-D array. The sums add states
    in ascending order, which is also numpy's order below eight states.
    """
    at_node = _node_sums(layout, logm)
    excl = at_node[:, layout.src] - logm[:, layout.rev]
    terms = [row[None] + excl[:, :, i, None]
             for i, row in enumerate(layout.sender_rows)]
    peak = terms[0]
    for term in terms[1:]:
        peak = np.maximum(peak, term)
    total = np.exp(terms[0] - peak)
    for term in terms[1:]:
        total += np.exp(term - peak)
    new = peak + np.log(total)
    if layout.padded:
        new = np.where(layout.mask[None], new, _NEG)
    peak = new[:, :, 0]
    for j in range(1, layout.kmax):
        peak = np.maximum(peak, new[:, :, j])
    scaled = np.exp(new - peak[:, :, None])
    total = scaled[:, :, 0]
    for j in range(1, layout.kmax):
        total = total + scaled[:, :, j]
    new -= (peak + np.log(total))[:, :, None]
    if layout.padded:
        new = np.where(layout.mask[None], new, _NEG)
    return new


def _beliefs_batch(layout: _Layout, logm: np.ndarray) -> np.ndarray:
    at_node = _node_sums(layout, logm)
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
    of the batch keeps going. ``changes[r]`` holds run r's largest change per
    sweep, one entry per iteration it ran.

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
    rows = []  # rows[it - 1]: every run's largest change at sweep it

    # Padded slots hold _NEG in every iterate, so their differences are 0
    # and need no mask in the change statistics.
    prev2 = None
    cur = logm0
    for it in range(1, max_iters + 1):
        new = _sweep_batch(layout, cur)
        d1 = np.abs(new - cur).reshape(runs, -1).max(axis=1)
        rows.append(d1)
        outcome = np.where(d1 < tol, 1, 0)
        if prev2 is not None and detect_oscillation:
            d2 = np.abs(new - prev2).reshape(runs, -1).max(axis=1)
            outcome[(outcome == 0) & (d2 < tol)] = 2
        done = (status == 0) & (outcome != 0)
        if done.any():
            status[done] = outcome[done]
            iters[done] = it
            snap[done] = new[done]
            if status.all():
                break
        prev2 = cur
        cur = new

    leftover = status == 0
    status[leftover] = 3
    iters[leftover] = max_iters
    snap[leftover] = cur[leftover]
    table = np.array(rows)
    changes = [table[:iters[r], r] for r in range(runs)]
    return status, iters, snap, changes


_STATUS_NAMES = {1: "converged", 2: "oscillating", 3: "max_iters"}


# -- public single-run API -------------------------------------------------


def update_message(model: PairwiseMRF, messages: MessageSet, edge) -> np.ndarray:
    """Recompute the message along ``edge`` = (t, s) from the current set.

    Sums the sender's states against the edge potential, the sender's node
    potential, and the product of the sender's other incoming messages.
    """
    t, s = edge
    logw = _log_weights(model, t, s)
    for u in model.neighbors(t):
        if u != s:
            logw = logw + np.log(messages.get(u, t))[:, None]
    return _normalized_message(logw, t, s)


def _log_weights(model: PairwiseMRF, t, s) -> np.ndarray:
    """log psi_ts + log phi_t, rows indexed by the sender t's states."""
    return np.log(model.edge_matrix(t, s)) + np.log(model.node_pot[t])[:, None]


def _normalized_message(logw, t, s) -> np.ndarray:
    """Sum the (sender states, target states) log weights over the sender
    and normalize in linear space."""
    peak = logw.max()
    summed = np.exp(logw - peak).sum(axis=0)
    total = summed.sum()
    if total <= 0.0 or not math.isfinite(total):
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


def _log_contraction(dd, incoming):
    """Log of the squared-ratio cap on an update whose incoming messages have
    accumulated ``incoming`` of log-scale change since it last ran;
    elementwise over arrays.

    Written through exp(-incoming) so that a saturated (infinite) accumulator
    cleanly yields the cap 2*log(dd).
    """
    t = np.exp(-incoming)
    return 2.0 * (np.log(dd + t) - np.log1p(dd * t))


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
    return float(_log_contraction(strengths.directed_product(t, s), total))


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
    is exhausted (status ``max_iters``). A budget smaller than the initial
    sweep cuts that sweep short.

    Every update is ``update_message``'s arithmetic, in the same order, on
    tables built once.

    Returns (RunResult, ScheduleTrace).
    """
    if max_updates < 1:
        raise ValueError("max_updates must be at least 1")
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
    ins = [[] for _ in range(n_dir)]  # ins[f]: the edges feeding f
    deps = [[] for _ in range(n_dir)]  # deps[g]: the edges g feeds
    for f, g in zip(seg.tolist(), feed.tolist()):
        ins[f].append(g)
        deps[g].append(f)
    for gs in ins:  # update_message adds them in model.neighbors order
        gs.sort(key=lambda g: directed[g].src)
    deps = [np.array(fs, dtype=np.intp) for fs in deps]
    base = [_log_weights(model, t, s) for t, s in directed]
    vectors = msgs.vectors
    # logs[e]: log of the stored message e, as a column.
    logs = [np.log(v)[:, None] for v in vectors]

    def recompute(e):
        logw = base[e]
        for g in ins[e]:
            logw = logw + logs[g]
        return _normalized_message(logw, *directed[e])

    total = min(n_dir, max_updates)
    for e in range(total):
        vectors[e] = recompute(e)
        logs[e] = np.log(vectors[e])[:, None]

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
        new = recompute(e)
        new_log = np.log(new)[:, None]
        realized = float(np.abs(new_log - logs[e]).max())
        vectors[e] = new
        logs[e] = new_log
        total += 1
        entries.append((directed[e], top, realized))
        changes.append(realized)
        acc[e] = 0.0
        prio[e] = 0.0
        at = deps[e]
        acc[at] += realized
        prio[at] = _log_contraction(dd[at], acc[at])
    else:
        if total >= n_dir and float(prio.max()) < tol:
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

    return _bisect(agreed, lo, hi, tol)
