"""Sum-product message passing.

Synchronous sweeps run all directed edges against a snapshot of the previous
iteration; the residual scheduler recomputes one message at a time, ordered by
a contraction bound on how much each pending message can still move.

Messages live in one padded log array: (n_dir, kmax) in a ``MessageSet``,
(runs, n_dir, kmax) in a batch, with ``_NEG`` in the state slots past an
edge target's cardinality. Synchronous runs, restart batches and the
multi-start probe go through one batch kernel, which gathers each node's
incoming messages through a padded in-edge table, so a sweep over a whole
batch of runs costs a few dozen array operations whatever the graph's size.
A batch may hold several models of one topology, such as one graph at a
sweep of edge weights, with one row of potentials per run. A run that
converges or oscillates leaves the batch, so later sweeps cost only the
runs still going; no run's arithmetic depends on which others share it.
In a restart batch, a run whose iterate repeats an earlier one bit for bit
also leaves, with the outcome its full budget would give.

The residual scheduler does not use that kernel: the kernel normalizes in
log space, while a scheduled update must be ``update_message``'s
linear-space arithmetic so that its pop log does not depend on the route.
It builds per-edge tables once (log base matrices, in-edge lists,
dependents as index arrays), updates the stored logs in place through
per-edge views, and keeps the priorities in one array, so a pop costs an
argmax and a few small array operations.
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
    """One normalized positive vector per directed edge, stored as logs.

    Row e of the (n_dir, kmax) array ``logm``, the batch kernel's layout, is
    the log of the message along edge e of ``model.directed_edges()`` over
    its target's states, padded with ``_NEG``.
    """

    def __init__(self, model: PairwiseMRF, vectors):
        if len(vectors) != model.num_directed:
            raise ModelError("wrong number of message vectors")
        self.model = model
        self.logm = _checked_logs(_target_mask(model), vectors)

    @classmethod
    def _wrap(cls, model: PairwiseMRF, logm: np.ndarray) -> "MessageSet":
        out = cls.__new__(cls)
        out.model, out.logm = model, logm
        return out

    @classmethod
    def uniform(cls, model: PairwiseMRF) -> "MessageSet":
        mask = _target_mask(model)
        share = 1.0 / mask.sum(axis=1)
        return cls._wrap(model, np.where(mask, np.log(share)[:, None], _NEG))

    @classmethod
    def random(cls, model: PairwiseMRF, seed=None) -> "MessageSet":
        """Entries drawn uniformly from (0, 1) and normalized; seeded."""
        mask = _target_mask(model)
        return _renormalized(model, mask, _random_logm(mask, [seed])[0])

    def _log(self, src, dst) -> np.ndarray:
        """The stored log of message src -> dst, without its padded slots."""
        return self.logm[self.model.directed_index(src, dst), :self.model.cards[dst]]

    def get(self, src, dst) -> np.ndarray:
        return np.exp(self._log(src, dst))

    def set(self, src, dst, vec) -> None:
        e = self.model.directed_index(src, dst)
        self.logm[e] = _checked_logs(_target_mask(self.model)[e:e + 1], [vec])[0]

    def copy(self) -> "MessageSet":
        return MessageSet._wrap(self.model, self.logm.copy())

    def max_abs_log_ratio(self, other: "MessageSet") -> float:
        """Largest |log(self / other)| over all edges and states."""
        return float(np.abs(self.logm - other.logm).max(initial=0.0))


def _target_mask(model: PairwiseMRF) -> np.ndarray:
    """(n_dir, kmax) mask of the states of each directed edge's target."""
    dst = np.array(model.edges, dtype=np.intp).reshape(-1, 2)[:, ::-1].ravel()
    return np.arange(max(model.cards)) < np.array(model.cards)[dst][:, None]


def _row_sums(lin: np.ndarray) -> np.ndarray:
    """Sums over the last axis in ascending state order, as numpy's below 8."""
    total = lin[..., 0]
    for j in range(1, lin.shape[-1]):
        total = total + lin[..., j]
    return total


def _masked_log(lin: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return np.where(mask, np.log(np.where(mask, lin, 1.0)), _NEG)


def _checked_logs(mask: np.ndarray, vectors) -> np.ndarray:
    """Logs of the vectors, padded to the mask's rows: shapes are checked
    one by one, values in one pass."""
    lin = np.zeros(mask.shape)
    for e, (vec, card) in enumerate(zip(vectors, mask.sum(axis=1).tolist())):
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (card,):
            raise ModelError(f"message has length {vec.shape}, expected {card}")
        lin[e, :card] = vec
    if np.any(mask & (lin <= 0.0)) or not np.all(np.isfinite(lin)):
        raise ModelError("message entries must be strictly positive")
    if np.any(np.abs(_row_sums(lin) - 1.0) > 1e-12):
        raise ModelError("message must sum to 1")
    return _masked_log(lin, mask)


def _renormalized(model: PairwiseMRF, mask, logm) -> MessageSet:
    """Messages whose rows are exp(logm) normalized in linear space."""
    lin = np.exp(logm)  # exp(_NEG) is 0
    return MessageSet._wrap(model, _masked_log(lin / _row_sums(lin)[:, None], mask))


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
        self.n_dir = n_dir = model.num_directed
        self.kmax = kmax = max(model.cards)
        ends = np.array(model.edges, dtype=int).reshape(-1, 2)
        self.src = ends.ravel()
        self.dst = ends[:, ::-1].ravel()
        self.rev = np.arange(n_dir) ^ 1  # canonical order pairs 2m, 2m+1

        self.sender_rows, self.log_node = _log_potentials(model, kmax)
        self.mask = _target_mask(model)
        self.padded = not bool(self.mask.all())
        self.node_mask = np.arange(kmax) < np.array(model.cards)[:, None]

        degree = np.bincount(self.dst, minlength=model.num_nodes)
        order = np.argsort(self.dst, kind="stable")
        slot = np.arange(n_dir) - (np.cumsum(degree) - degree)[self.dst[order]]
        width = max(int(degree.max(initial=0)), 1)
        self.in_edges = np.full((model.num_nodes, width), n_dir)
        self.in_edges[self.dst[order], slot] = order
        self.in_padded = bool((degree < width).any())


def _log_potentials(model: PairwiseMRF, kmax: int):
    """A model's potentials in padded log form: per sender state i, the
    (n_dir, kmax) log weights of state i over each directed edge's target
    states, and the (V, kmax) log node potentials. Padded slots hold _NEG."""
    combined = np.full((model.num_directed, kmax, kmax), _NEG)
    for e, (t, s) in enumerate(model.directed_edges()):
        combined[e, :model.cards[t], :model.cards[s]] = _log_weights(model, t, s)
    log_node = np.full((model.num_nodes, kmax), _NEG)
    for v, pot in enumerate(model.node_pot):
        log_node[v, :pot.size] = np.log(pot)
    return [combined[:, i, :].copy() for i in range(kmax)], log_node


def _random_logm(mask: np.ndarray, seeds) -> np.ndarray:
    """Per seed, uniform (0, 1) draws over the mask, normalized, as logs."""
    raw = np.empty((len(seeds),) + mask.shape)
    for r, seed in enumerate(seeds):
        raw[r] = np.random.default_rng(seed).uniform(size=mask.shape)
    raw = np.where(mask, raw, 0.0)
    return _masked_log(raw / raw.sum(axis=2, keepdims=True), mask)


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


def _sweep_batch(layout: _Layout, logm: np.ndarray, rows=None) -> np.ndarray:
    """One synchronous update of every directed edge, for a whole batch.

    ``rows`` holds per-run sender rows, (runs, n_dir, kmax) per sender
    state, for a batch whose runs have their own potentials; by default
    every run shares the layout's.

    The reductions over sender and target states are written out one state
    at a time: on arrays this small a ufunc call costs far less than a
    numpy reduction over one axis of a 3-D or 4-D array. The sums add states
    in ascending order, which is also numpy's order below eight states.
    """
    if rows is None:
        rows = layout.sender_rows
    at_node = _node_sums(layout, logm)
    excl = at_node[:, layout.src] - logm[:, layout.rev]
    terms = [row + excl[:, :, i, None] for i, row in enumerate(rows)]
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
    new -= (peak + np.log(_row_sums(np.exp(new - peak[:, :, None]))))[:, :, None]
    if layout.padded:
        new = np.where(layout.mask[None], new, _NEG)
    return new


def _beliefs_batch(layout: _Layout, logm: np.ndarray,
                   log_node=None) -> np.ndarray:
    """Beliefs of every run; ``log_node`` holds per-run log node potentials,
    (runs, V, kmax), by default the layout's for every run."""
    if log_node is None:
        log_node = layout.log_node
    at_node = _node_sums(layout, logm)
    logb = np.where(layout.node_mask[None], at_node + log_node, _NEG)
    peak = logb.max(axis=2, keepdims=True)
    probs = np.exp(logb - peak)
    probs = np.where(layout.node_mask[None], probs, 0.0)
    return probs / probs.sum(axis=2, keepdims=True)


_CYCLE = 64  # sweeps between a restart batch's exact-repeat checks


def _run_batch(layout: _Layout, logm0: np.ndarray, max_iters: int, tol: float,
               detect_oscillation: bool = True, rows=None, track: bool = True):
    """Advance every run until convergence, period-2 oscillation, or budget.

    Convergence compares against the previous iterate, oscillation against
    the one before that; the smaller lag wins when both match. A run is
    snapshotted at its own detection point and then leaves the batch: its
    rows are dropped from the iterates and from ``rows``, the per-run
    sender rows of ``_sweep_batch`` (a list this call takes over and
    shrinks in place), so later sweeps cost only the runs still going.
    Each run's arithmetic does not depend on which other runs share its
    sweep. With ``track``, ``changes[r]`` holds run r's largest change per
    sweep, one entry per iteration it ran; without, ``changes`` is None and
    no per-sweep record is kept.

    Callers that only care whether a run settles (the multi-start agreement
    probe, fixed-point collection) pass ``detect_oscillation=False``: on
    bipartite graphs the update alternates sign along part of the spectrum,
    so a slowly converging run matches its lag-2 predecessor long before it
    matches its lag-1 one and would be misread as a period-2 cycle.

    Such a batch, with neither period detection nor a change record, also
    retires runs caught in an exact cycle. At every sweep ``it`` with
    ``max_iters - it`` a multiple of ``_CYCLE``, a run whose iterate is bit
    for bit the one ``_CYCLE`` sweeps back repeats with a period dividing
    ``_CYCLE`` from there on. Every change of that period was tested against
    ``tol`` inside the window, so the run can never converge, and its
    iterate at the budget is the current one. It leaves at once with
    status 3 and ``iters = max_iters``, the outcome of the full budget.
    (A change record would miss the skipped sweeps, and the lag-2 test
    needs a window one sweep longer, hence the restriction.)
    """
    runs = logm0.shape[0]
    status = np.full(runs, 3)  # 1 converged, 2 oscillating, 3 budget
    iters = np.full(runs, max_iters)
    snap = logm0.copy()
    live = np.arange(runs)  # the runs still going, in batch order
    spans = [[] for _ in range(runs)]  # per run, its changes in pieces
    block = []  # the live runs' largest changes per sweep since a run left

    # Padded slots hold _NEG in every iterate, so their differences are 0
    # and need no mask in the change statistics.
    prev2 = None
    cur = logm0
    retire = not (track or detect_oscillation)
    # The live runs' iterates at the last exact-repeat check, as bits.
    ref = logm0.view(np.uint64) if retire and max_iters % _CYCLE == 0 else None
    for it in range(1, max_iters + 1):
        new = _sweep_batch(layout, cur, rows)
        d1 = np.abs(new - cur).reshape(live.size, -1).max(axis=1)
        if track:
            block.append(d1)
        outcome = np.where(d1 < tol, 1, 0)
        if prev2 is not None and detect_oscillation:
            d2 = np.abs(new - prev2).reshape(live.size, -1).max(axis=1)
            outcome[(outcome == 0) & (d2 < tol)] = 2
        check = retire and (max_iters - it) % _CYCLE == 0
        if check and ref is not None:
            same = (new.view(np.uint64) == ref).reshape(live.size, -1).all(axis=1)
            outcome[(outcome == 0) & same] = 3
        done = outcome != 0
        if done.any():
            if track:
                _close_block(spans, live, block)
                block = []
            gone = live[done]
            status[gone] = outcome[done]
            iters[gone] = np.where(outcome[done] == 3, max_iters, it)
            snap[gone] = new[done]
            stay = ~done
            live = live[stay]
            if not live.size:
                break
            new, cur = new[stay], cur[stay]
            if ref is not None:
                ref = ref[stay]
            if rows is not None:
                for i, row in enumerate(rows):  # frees each old row as it goes
                    rows[i] = row[stay]
        if check:
            ref = new.view(np.uint64)
        prev2 = cur
        cur = new

    if live.size:
        snap[live] = cur
        if track:
            _close_block(spans, live, block)
    changes = [np.concatenate(s) for s in spans] if track else None
    return status, iters, snap, changes


def _close_block(spans, live, block) -> None:
    """Hand each live run its column of the changes recorded since the last
    departure."""
    table = np.array(block).reshape(len(block), live.size)
    for j, r in enumerate(live.tolist()):
        spans[r].append(table[:, j])


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
            logw = logw + messages._log(u, t)[:, None]
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
                logb += messages._log(u, v)
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
                logb += messages._log(u, lo)[:, None]
        for u in model.neighbors(hi):
            if u != lo:
                logb += messages._log(u, hi)[None, :]
        b = np.exp(logb - logb.max())
        out.append(b / b.sum())
    return out


def _initial_logm(layout: _Layout, init, seed):
    if isinstance(init, MessageSet):
        return init.logm[None]
    if init == "uniform":
        mask = layout.mask
        return np.where(mask, -np.log(mask.sum(axis=1))[:, None], _NEG)[None]
    if init == "random":
        return _random_logm(layout.mask, [seed])
    raise ValueError(f"unknown init {init!r}")


def _trivial_result(model: PairwiseMRF) -> RunResult:
    return RunResult("converged", None, 0, MessageSet(model, []),
                     np.empty(0), compute_beliefs(model, None))


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
    msgs = _renormalized(model, layout.mask, snap[0])
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
    # logs[e]: the stored message e, a column view into msgs.logm.
    logs = [msgs.logm[e, :model.cards[s], None]
            for e, (_, s) in enumerate(directed)]

    def recompute(e):
        logw = base[e]
        for g in ins[e]:
            logw = logw + logs[g]
        return _normalized_message(logw, *directed[e])

    total = min(n_dir, max_updates)
    for e in range(total):
        logs[e][:, 0] = np.log(recompute(e))

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
        new_log = np.log(recompute(e))[:, None]
        realized = float(np.abs(new_log - logs[e]).max())
        logs[e][:] = new_log
        total += 1
        entries.append((directed[e], top, realized))
        acc[e] = 0.0
        prio[e] = 0.0
        at = deps[e]
        acc[at] += realized
        prio[at] = _log_contraction(dd[at], acc[at])
    else:
        if total >= n_dir and float(prio.max()) < tol:
            status = "converged"

    result = RunResult(status, None, total, msgs,
                       np.array([r for _, _, r in entries]),
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
    _check_restarts(runs, max_iters)
    if model.num_directed == 0:
        return True
    seeds = range(base_seed, base_seed + runs)
    [(status, beliefs)] = _multistart([model], seeds, max_iters, tol)
    if np.any(status != 1):
        return False
    return float(np.abs(beliefs - beliefs[0]).max()) <= agree_tol


def _check_restarts(runs, max_iters, least_runs=1) -> None:
    if runs < least_runs:
        raise ValueError(f"runs must be at least {least_runs}")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")


def _multistart(models, seeds, max_iters, tol) -> list:
    """Seeded random starts of several models of one topology (the same
    edges and cardinalities), run as one batch without period detection.

    Every model gets the same starts, and the batch holds one row of
    potentials per run: model by model, seed by seed within a model.
    Returns, per model, every run's status code and the beliefs of its
    converged runs in seed order.
    """
    first = models[0]
    for m in models[1:]:
        if m.edges != first.edges or list(m.cards) != list(first.cards):
            raise ValueError("batched models must share edges and cardinalities")
    layout = _Layout(first)
    pots = [(layout.sender_rows, layout.log_node)]
    pots += [_log_potentials(m, layout.kmax) for m in models[1:]]

    def per_run(arrays):
        return np.repeat(np.stack(arrays), len(seeds), axis=0)

    # Per-run rows even for one model: a sweep adds them to the batch
    # without a second broadcast, which costs less than a shared row.
    rows = [per_run([r[i] for r, _ in pots]) for i in range(layout.kmax)]
    log_node = per_run([n for _, n in pots])
    logm0 = np.tile(_random_logm(layout.mask, seeds), (len(models), 1, 1))
    status, _, snap, _ = _run_batch(layout, logm0, max_iters, tol,
                                    detect_oscillation=False, rows=rows,
                                    track=False)
    done = status == 1
    beliefs = _beliefs_batch(layout, snap[done], log_node[done])
    counts = done.reshape(len(models), -1).sum(axis=1)
    return list(zip(status.reshape(len(models), -1),
                    np.split(beliefs, np.cumsum(counts)[:-1])))


def empirical_critical_eta(model: PairwiseMRF, lo=0.5, hi=0.99, tol=1e-3,
                           runs=20, max_iters=5000, run_tol=1e-12,
                           agree_tol=1e-8, base_seed=0) -> float:
    """Bisect the edge weight at which the multi-start agreement check flips.

    The topology is taken from ``model``; each probe rebuilds it with the
    symmetric binary potential at the probed eta.
    """
    _check_restarts(runs, max_iters)

    def agreed(eta):
        return empirical_convergent(with_uniform_binary(model, eta), runs,
                                    max_iters, run_tol, agree_tol, base_seed)

    return _bisect(agreed, lo, hi, tol)
