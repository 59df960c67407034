"""Sum-product message passing.

Synchronous sweeps run all directed edges against a snapshot of the previous
iteration; the residual scheduler recomputes one message at a time, ordered by
a contraction cap on each pending message's next change.

Messages live in one padded log array: (n_dir, kmax) in a ``MessageSet``,
(runs, n_dir, kmax) in a batch, with ``_NEG`` in the state slots past an
edge target's cardinality. Synchronous runs, restart batches and the
multi-start probe go through one batch kernel, which gathers each node's
incoming messages through a padded in-edge table, so a sweep over a whole
batch of runs costs a few dozen array operations whatever the graph's size.
A restart batch may hold several models of one topology, such as one graph
at a sweep of edge weights, with one row of potentials per run. A restart
that converges, or whose iterate repeats an earlier one bit for bit, leaves
the batch, so later sweeps cost only the runs still going; no run's
arithmetic depends on which others share it. Every run, whatever its
schedule, reads its beliefs off one batch routine, ``_beliefs_batch``.

The residual scheduler does not update through that kernel: the kernel
normalizes in log space, while a scheduled update must be
``update_message``'s linear-space arithmetic so that its pop log does not
depend on the route. It builds per-edge tables once (log base matrices,
in-edge lists, dependents as index arrays), updates the stored logs in
place through per-edge views, and keeps the priorities in one array, so a
pop costs an argmax and a few small array operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .convergence import _bisect
from .models import (ModelError, PairwiseMRF, compute_strengths,
                     with_uniform_binary)

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
        """Every message uniform: -log c in each of its target's c states."""
        mask = _target_mask(model)
        share = -np.log(mask.sum(axis=1))
        return cls._wrap(model, np.where(mask, share[:, None], _NEG))

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
    cards = np.array(model.cards)[model.directed_dst]
    return np.arange(max(model.cards)) < cards[:, None]


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
    slot; a sweep's log-product of a node's incoming messages is the sum of
    its gathered rows, added in that order. ``belief_edges[v]`` lists the
    same edges in ``model.neighbors`` order, the order beliefs add them in.
    """

    def __init__(self, model: PairwiseMRF):
        self.model = model
        self.n_dir = n_dir = model.num_directed
        self.kmax = kmax = max(model.cards)
        self.src, self.dst = model.directed_src, model.directed_dst
        self.rev = np.arange(n_dir) ^ 1  # canonical order pairs 2m, 2m+1

        self.log_node = _log_node(model, kmax)
        self.mask = _target_mask(model)
        self.padded = not bool(self.mask.all())
        self.node_mask = np.arange(kmax) < np.array(model.cards)[:, None]

        degree = np.bincount(self.dst, minlength=model.num_nodes)
        first = np.cumsum(degree) - degree
        width = max(int(degree.max(initial=0)), 1)

        def table(order):
            """Edges sorted by target, ``order`` within a target, padded."""
            out = np.full((model.num_nodes, width), n_dir)
            out[self.dst[order], np.arange(n_dir) - first[self.dst[order]]] = order
            return out

        self.in_edges = table(np.argsort(self.dst, kind="stable"))
        self.belief_edges = table(np.lexsort((self.src, self.dst)))
        self.in_padded = bool((degree < width).any())

    @cached_property
    def sender_rows(self) -> list:
        """``_sender_rows``, built on first use: not every caller sweeps."""
        return _sender_rows(self.model, self.kmax)


def _sender_rows(model: PairwiseMRF, kmax: int) -> list:
    """A model's edge and sender node potentials in padded log form, one
    (n_dir, kmax) array per sender state. Padded slots hold _NEG."""
    combined = np.full((model.num_directed, kmax, kmax), _NEG)
    for e, (t, s) in enumerate(model.directed_edges()):
        combined[e, :model.cards[t], :model.cards[s]] = _log_weights(model, t, s)
    return [combined[:, i, :].copy() for i in range(kmax)]


def _log_node(model: PairwiseMRF, kmax: int) -> np.ndarray:
    """The (V, kmax) log node potentials, padded with _NEG."""
    log_node = np.full((model.num_nodes, kmax), _NEG)
    for v, pot in enumerate(model.node_pot):
        log_node[v, :pot.size] = np.log(pot)
    return log_node


def _random_logm(mask: np.ndarray, seeds) -> np.ndarray:
    """Per seed, uniform (0, 1) draws over the mask, normalized, as logs."""
    raw = np.empty((len(seeds),) + mask.shape)
    for r, seed in enumerate(seeds):
        raw[r] = np.random.default_rng(seed).uniform(size=mask.shape)
    raw = np.where(mask, raw, 0.0)
    return _masked_log(raw / raw.sum(axis=2, keepdims=True), mask)


def _node_sums(layout: _Layout, logm: np.ndarray, table: np.ndarray,
               start=None) -> np.ndarray:
    """(runs, V, kmax) sums of each node's incoming log-messages, added in
    the column order of ``table`` to ``start`` if given."""
    if layout.in_padded:
        zero = np.zeros((logm.shape[0], 1, layout.kmax))
        logm = np.concatenate((logm, zero), axis=1)
    cols = table.T
    total = logm[:, cols[0]] if start is None else start + logm[:, cols[0]]
    for col in cols[1:]:
        total += logm[:, col]
    return total


def _sweep_batch(layout: _Layout, logm: np.ndarray, rows) -> np.ndarray:
    """One synchronous update of every directed edge, for a whole batch.

    ``rows`` holds the sender rows per sender state: the layout's
    (n_dir, kmax) ones, shared by every run, or (runs, n_dir, kmax) ones
    for a batch whose runs have their own potentials.

    The reductions over sender and target states are written out one state
    at a time: on arrays this small a ufunc call costs far less than a
    numpy reduction over one axis of a 3-D or 4-D array. The sums add states
    in ascending order, which is also numpy's order below eight states.
    """
    at_node = _node_sums(layout, logm, layout.in_edges)
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
                   log_node: np.ndarray) -> np.ndarray:
    """Beliefs of every run; ``log_node`` holds the log node potentials,
    (V, kmax) shared by every run or (runs, V, kmax) per run. A node's log
    belief is its log node potential plus its incoming log-messages in
    ``model.neighbors`` order, normalized in linear space: below eight
    states, bit for bit a per-node loop in that order."""
    total = _node_sums(layout, logm, layout.belief_edges, log_node)
    logb = np.where(layout.node_mask[None], total, _NEG)
    peak = logb.max(axis=2, keepdims=True)
    probs = np.exp(logb - peak)
    probs = np.where(layout.node_mask[None], probs, 0.0)
    return probs / probs.sum(axis=2, keepdims=True)


def _node_beliefs(layout: _Layout, logm: np.ndarray) -> list:
    """One run's beliefs from its (n_dir, kmax) messages, one vector a node."""
    probs = _beliefs_batch(layout, logm[None], layout.log_node)[0]
    return [b[:c] for b, c in zip(probs, layout.model.cards)]


def _run_one(layout: _Layout, logm: np.ndarray, max_iters: int, tol: float):
    """Sweep one run, a (1, n_dir, kmax) iterate, until convergence, period-2
    oscillation, or budget.

    Convergence compares against the previous iterate, oscillation against
    the one before that; the smaller lag wins when both match. Padded slots
    hold _NEG in every iterate, so their differences are 0. Returns the
    status (1 converged, 2 oscillating, 3 budget), the sweeps run, the last
    iterate and the largest change of every sweep.
    """
    prev2, changes = None, []
    for it in range(1, max_iters + 1):
        new = _sweep_batch(layout, logm, layout.sender_rows)
        changes.append(float(np.abs(new - logm).max()))
        if changes[-1] < tol:
            return 1, it, new, changes
        if prev2 is not None and np.abs(new - prev2).max() < tol:
            return 2, it, new, changes
        prev2, logm = logm, new
    return 3, max_iters, logm, changes


_CYCLE = 64  # sweeps between a restart batch's exact-repeat checks


def _run_restarts(layout: _Layout, logm0: np.ndarray, rows, max_iters: int,
                  tol: float):
    """Advance a batch of runs until each converges or its budget runs out.

    ``rows`` holds the per-run sender rows of ``_sweep_batch``, a list this
    call takes over. A run that converges is snapshotted and leaves the
    batch: its rows are dropped from the iterates and from ``rows`` in
    place, so later sweeps cost only the runs still going. Each run's
    arithmetic does not depend on which other runs share its sweep.

    There is no period detection: on bipartite graphs the update alternates
    sign along part of the spectrum, so a slowly converging run matches its
    lag-2 predecessor long before it matches its lag-1 one and would be
    misread as a period-2 cycle. Runs caught in an exact cycle leave
    instead. At every sweep ``it`` with ``max_iters - it`` a multiple of
    ``_CYCLE``, a run whose iterate is bit for bit the one ``_CYCLE`` sweeps
    back repeats with a period dividing ``_CYCLE`` from there on. Every
    change of that period was tested against ``tol`` inside the window, so
    the run can never converge, and its iterate at the budget is the
    current one: it leaves with status 3, the outcome of the full budget.

    Returns each run's status (1 converged, 3 budget) and last iterate.
    """
    status = np.full(logm0.shape[0], 3)
    snap = logm0.copy()
    live = np.arange(logm0.shape[0])  # the runs still going, in batch order
    cur = logm0
    # The live runs' iterates at the last exact-repeat check, as bits.
    ref = logm0.view(np.uint64) if max_iters % _CYCLE == 0 else None
    for it in range(1, max_iters + 1):
        new = _sweep_batch(layout, cur, rows)
        done = np.abs(new - cur).reshape(live.size, -1).max(axis=1) < tol
        status[live[done]] = 1
        check = (max_iters - it) % _CYCLE == 0
        if check and ref is not None:
            done |= (new.view(np.uint64) == ref).reshape(live.size, -1).all(axis=1)
        if done.any():
            snap[live[done]] = new[done]
            stay = ~done
            live = live[stay]
            if not live.size:
                return status, snap
            new = new[stay]
            if ref is not None:
                ref = ref[stay]
            for i, row in enumerate(rows):  # frees each old row as it goes
                rows[i] = row[stay]
        if check:
            ref = new.view(np.uint64)
        cur = new
    snap[live] = cur
    return status, snap


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


def _initial_logm(layout: _Layout, init, seed):
    if isinstance(init, MessageSet):
        return init.logm[None]
    if init == "uniform":
        return MessageSet.uniform(layout.model).logm[None]
    if init == "random":
        return _random_logm(layout.mask, [seed])
    raise ValueError(f"unknown init {init!r}")


def _trivial_result(model: PairwiseMRF) -> RunResult:
    msgs = MessageSet(model, [])
    return RunResult("converged", None, 0, msgs, np.empty(0),
                     _node_beliefs(_Layout(model), msgs.logm))


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
    status, iters, last, changes = _run_one(layout, logm0, max_iters, tol)
    msgs = _renormalized(model, layout.mask, last[0])
    return RunResult(_STATUS_NAMES[status], 2 if status == 2 else None,
                     iters, msgs, np.array(changes),
                     _node_beliefs(layout, msgs.logm))


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


def run_residual_scheduled(model: PairwiseMRF, max_updates=20000, tol=1e-9,
                           init="uniform", seed=None, strengths=None):
    """Priority-driven asynchronous sum-product.

    Starts with one untraced sweep that recomputes every message in index
    order, so each stored vector is the output of an update; from then on an
    edge's priority is the contraction cap ``_log_contraction`` on its next
    update. Then repeatedly pops the highest-priority edge (ties to the
    lowest index), recomputes it, and feeds the realized residual into the
    accumulators of the edges it influences. Stops when the top priority
    falls below ``tol`` (status ``converged``) or when the update budget,
    which includes the initial sweep, is exhausted (status ``max_iters``).
    A budget smaller than the initial sweep cuts that sweep short.

    The cap is not an upper bound on the realized residual for every model:
    on asymmetric potentials a pop can exceed its priority, and there
    ``converged`` certifies nothing about the messages still pending. On
    symmetric binary potentials no such pop has been seen.

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

    layout = _Layout(model)
    if init == "random":
        # Random starts keep MessageSet.random's linear-space renormalization;
        # the kernel's log-space start differs in last bits, which changes
        # where a run's pops go.
        msgs = MessageSet.random(model, seed)
    else:
        msgs = MessageSet._wrap(model,
                                _initial_logm(layout, init, seed)[0].copy())

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
                       _node_beliefs(layout, msgs.logm))
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
    pots += [(_sender_rows(m, layout.kmax), _log_node(m, layout.kmax))
             for m in models[1:]]

    def per_run(arrays):
        return np.repeat(np.stack(arrays), len(seeds), axis=0)

    # Per-run rows even for one model: a sweep adds them to the batch
    # without a second broadcast, which costs less than a shared row.
    rows = [per_run([r[i] for r, _ in pots]) for i in range(layout.kmax)]
    log_node = per_run([n for _, n in pots])
    logm0 = np.tile(_random_logm(layout.mask, seeds), (len(models), 1, 1))
    status, snap = _run_restarts(layout, logm0, rows, max_iters, tol)
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
