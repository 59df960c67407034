"""Sum-product message passing.

Synchronous sweeps run all directed edges against a snapshot of the previous
iteration; the residual scheduler recomputes one message at a time, ordered by
a contraction cap on each pending message's next change.

Messages live in one padded log array, (n_dir, kmax) in a ``MessageSet``,
with ``_NEG`` in the state slots past an edge target's cardinality.
Synchronous runs, restart batches and the multi-start probe go through one
batch kernel on edge-minor (runs, kmax, n_dir + 1) iterates, converted once
when a run starts and once when it ends: each of a sweep's few dozen array
operations runs over whole rows of n_dir edges, and the padding index of
the in-edge tables gathers the all-zero last column. A restart batch may
hold several models of one topology, such as one graph at a sweep of edge
weights, with one row of potentials per run. A restart that converges, or
whose iterate repeats an earlier one bit for bit, leaves the batch, so
later sweeps cost only the runs still going; no run's arithmetic depends on
which others share it. Every run, whatever its schedule, reads its beliefs
off one batch routine, ``_beliefs_batch``.

The kernel and the residual scheduler read a model's potentials through one
padded (sender state, target state, edge) table of log psi + log phi_sender,
built per shape stack (``_log_weight_table``); a batch with potentials per
run stacks them as (sender state, run, target state, edge).

The residual scheduler does not update through the kernel: the kernel
normalizes in log space, while a scheduled update must be
``update_message``'s linear-space arithmetic so that its pop log does not
depend on the route. It copies each edge's log weights out of the table,
reads its in-edge lists and dependents off the model's in-edge table and
non-backtracking relation, updates the stored logs in place through
per-edge views, and keeps the priorities in one array, so a pop costs an
argmax and a few small array operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .convergence import _bisect
from .models import ModelError, PairwiseMRF, _strengths_of, with_uniform_binary

_NEG = -1.0e30  # padded state slots in log space; finite so arithmetic stays NaN-free


class MessageSet:
    """One normalized positive vector per directed edge, stored as logs.

    Row e of the (n_dir, kmax) array ``logm``, which the batch kernel reads
    transposed, is the log of the message along edge e of
    ``model.directed_edges()`` over its target's states, padded with _NEG.
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


def _target_mask(model: PairwiseMRF) -> np.ndarray:
    """(n_dir, kmax) mask of the states of each directed edge's target."""
    cards = np.array(model.cards)[model.directed_dst]
    return np.arange(max(model.cards)) < cards[:, None]


def _row_sums(lin: np.ndarray) -> np.ndarray:
    """Sums over the last axis, of at least two states, in ascending state
    order, as numpy's below 8."""
    total = lin[..., 0] + lin[..., 1]
    for j in range(2, lin.shape[-1]):
        total += lin[..., j]
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

    A batch of runs holds its messages in one (runs, kmax, n_dir + 1)
    iterate, state-major, whose last column is the all-zero slot that the
    padding index n_dir of ``in_edges`` (index order, which sweeps add a
    node's incoming log-messages in) and ``belief_edges`` (neighbour order,
    for beliefs), ``model.in_edge_tables``, gathers. State slots past an
    edge target's cardinality (``pad``) hold ``_NEG`` and never change.
    """

    def __init__(self, model: PairwiseMRF):
        self.model = model
        self.n_dir = n_dir = model.num_directed
        self.kmax = kmax = max(model.cards)
        self.src, self.dst = model.directed_src, model.directed_dst
        self.rev = np.arange(n_dir) ^ 1  # canonical order pairs 2m, 2m+1

        self.log_node = _log_node(model, kmax)
        self.table = _log_weight_table(model, self.log_node)
        self.mask = _target_mask(model)
        self.pad = ~self.mask.T if not self.mask.all() else None
        self.node_mask = np.arange(kmax) < np.array(model.cards)[:, None]
        self.in_edges, self.belief_edges = model.in_edge_tables


def _log_weight_table(model: PairwiseMRF, log_node: np.ndarray) -> np.ndarray:
    """log psi_ts + log phi_t of every directed edge e = (t, s), computed
    per shape stack from the (V, kmax) ``_log_node``: a (kmax, kmax, n_dir)
    table, axes the sender's state, the target's state and the edge, whose
    block [:, :, e] is ``_log_weights(model, t, s)`` bit for bit, with _NEG
    in the other slots."""
    kmax, src = log_node.shape[1], model.directed_src
    table = np.full((kmax, kmax, model.num_directed), _NEG)
    for (a, b), (members, stack) in model.edge_stacks.items():
        logs = np.log(stack)
        fwd, back = 2 * members, 2 * members + 1  # lo -> hi, hi -> lo
        table[:a, :b, fwd] = (logs + log_node[src[fwd], :a, None]
                              ).transpose(1, 2, 0)
        table[:b, :a, back] = (logs.transpose(0, 2, 1)
                               + log_node[src[back], :b, None]).transpose(1, 2, 0)
    return table


def _log_node(model: PairwiseMRF, kmax: int) -> np.ndarray:
    """The (V, kmax) log node potentials, padded with _NEG."""
    log_node = np.full((model.num_nodes, kmax), _NEG)
    for (card,), (members, stack) in model.node_stacks.items():
        log_node[members, :card] = np.log(stack)
    return log_node


def _random_logm(mask: np.ndarray, seeds) -> np.ndarray:
    """Per seed, uniform (0, 1) draws over the mask, normalized, as logs."""
    raw = np.empty((len(seeds),) + mask.shape)
    for r, seed in enumerate(seeds):
        raw[r] = np.random.default_rng(seed).uniform(size=mask.shape)
    raw = np.where(mask, raw, 0.0)
    return _masked_log(raw / raw.sum(axis=2, keepdims=True), mask)


def _edge_minor(logm: np.ndarray) -> np.ndarray:
    """(runs, n_dir, kmax) messages as a kernel iterate."""
    zero = np.zeros((len(logm), 1, logm.shape[2]))
    return np.concatenate((logm, zero), axis=1).transpose(0, 2, 1).copy()


def _edge_major(it: np.ndarray) -> np.ndarray:
    """A kernel iterate as (runs, n_dir, kmax) messages."""
    return it[:, :, :-1].transpose(0, 2, 1).copy()


def _node_sums(it: np.ndarray, table: np.ndarray, start=None) -> np.ndarray:
    """(runs, kmax, V) sums of each node's incoming log-messages, added in
    the column order of ``table`` to ``start`` if given."""
    cols = it[:, :, table.T]
    total = cols[:, :, 0].copy() if start is None else start + cols[:, :, 0]
    for j in range(1, cols.shape[2]):
        total += cols[:, :, j]
    return total


def _sweep_batch(layout: _Layout, it: np.ndarray, table) -> np.ndarray:
    """One synchronous update of every directed edge, for a whole batch.

    ``table`` is a log-weight table: the layout's (kmax, kmax, n_dir) one,
    shared by every run, or a (kmax, runs, kmax, n_dir) one for a batch
    whose runs have their own potentials. Every operation runs over whole
    rows of n_dir edges; the sums over states are ``_row_sums``.
    """
    excl = _node_sums(it, layout.in_edges)[:, :, layout.src]
    excl -= it[:, :, layout.rev]
    # (sender state, run, target state, edge)
    terms = (table if table.ndim == 4 else table[:, None]) \
        + excl.swapaxes(0, 1)[:, :, None]
    peak = np.maximum.reduce(terms)
    terms -= peak
    np.exp(terms, out=terms)
    total = _row_sums(terms.transpose(1, 2, 3, 0))
    out = np.zeros(it.shape)
    new = out[:, :, :layout.n_dir]
    np.log(total, out=new)
    new += peak
    if layout.pad is not None:
        np.copyto(new, _NEG, where=layout.pad)
    peak = np.maximum.reduce(new, axis=1)
    lin = new - peak[:, None]
    total = _row_sums(np.exp(lin, out=lin).transpose(0, 2, 1))
    np.log(total, out=total)
    total += peak
    new -= total[:, None]
    if layout.pad is not None:
        np.copyto(new, _NEG, where=layout.pad)
    return out


def _beliefs_batch(layout: _Layout, logm: np.ndarray,
                   log_node: np.ndarray) -> np.ndarray:
    """Beliefs of every run from its (n_dir, kmax) messages; ``log_node``
    holds the log node potentials, (V, kmax) shared by every run or (runs,
    V, kmax) per run. A node's log belief is its log node potential plus
    its incoming log-messages in ``model.neighbors`` order, normalized in
    linear space: below eight states, bit for bit a per-node loop in that
    order."""
    total = _node_sums(_edge_minor(logm), layout.belief_edges,
                       log_node.swapaxes(-1, -2)).transpose(0, 2, 1).copy()
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
    """Sweep one run, given as (1, n_dir, kmax) messages, until convergence,
    period-2 oscillation, or budget.

    Convergence compares against the previous iterate, oscillation against
    the one before that; the smaller lag wins when both match. Padded slots
    hold _NEG in every iterate, so their differences are 0. Returns the
    status (1 converged, 2 oscillating, 3 budget), the sweeps run, the last
    messages and the largest change of every sweep.
    """
    cur, prev2, changes = _edge_minor(logm), None, []
    for it in range(1, max_iters + 1):
        new = _sweep_batch(layout, cur, layout.table)
        changes.append(float(np.maximum.reduce(np.abs(new - cur), None)))
        if changes[-1] < tol:
            return 1, it, _edge_major(new), changes
        if (prev2 is not None
                and np.maximum.reduce(np.abs(new - prev2), None) < tol):
            return 2, it, _edge_major(new), changes
        prev2, cur = cur, new
    return 3, max_iters, _edge_major(cur), changes


_CYCLE = 64  # sweeps between a restart batch's exact-repeat checks


def _run_restarts(layout: _Layout, logm0: np.ndarray, table: np.ndarray,
                  max_iters: int, tol: float):
    """Advance a batch of runs, given as (runs, n_dir, kmax) messages, until
    each converges or its budget runs out.

    ``table`` is the (kmax, runs, kmax, n_dir) per-run log-weight table of
    ``_sweep_batch``. A run that converges is snapshotted and leaves the
    batch: its rows are dropped from the iterates and from ``table``, so
    later sweeps cost only the runs still going. Each run's arithmetic does
    not depend on which other runs share its sweep.

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

    Returns each run's status (1 converged, 3 budget) and last messages.
    """
    status = np.full(logm0.shape[0], 3)
    cur = _edge_minor(logm0)
    snap = np.empty_like(cur)
    live = np.arange(logm0.shape[0])  # the runs still going, in batch order
    # The live runs' iterates at the last exact-repeat check, as bits.
    ref = cur.view(np.uint64) if max_iters % _CYCLE == 0 else None
    for it in range(1, max_iters + 1):
        new = _sweep_batch(layout, cur, table)
        done = np.maximum.reduce(np.abs(new - cur), axis=(1, 2)) < tol
        status[live[done]] = 1
        check = (max_iters - it) % _CYCLE == 0
        if check and ref is not None:
            done |= (new.view(np.uint64) == ref).reshape(live.size, -1).all(axis=1)
        if done.any():
            snap[live[done]] = new[done]
            stay = ~done
            live = live[stay]
            if not live.size:
                return status, _edge_major(snap)
            new = new[stay]
            if ref is not None:
                ref = ref[stay]
            table = table[:, stay]
        if check:
            ref = new.view(np.uint64)
        cur = new
    snap[live] = cur
    return status, _edge_major(snap)


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
    tables built once. ``strengths`` defaults to ``model.strengths``; a
    table measured on another model is refused with ValueError.

    Returns (RunResult, ScheduleTrace).
    """
    if max_updates < 1:
        raise ValueError("max_updates must be at least 1")
    dd = _strengths_of(model, strengths).dd
    if model.num_directed == 0:
        return _trivial_result(model), ScheduleTrace([], 0)
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

    # ins[f]: the edges feeding f, in model.neighbors order as
    # update_message adds them; deps[g]: the edges g feeds.
    rows = layout.belief_edges[layout.src]
    keep = (rows != n_dir) & (rows != layout.rev[:, None])
    ins = [row[k].tolist() for row, k in zip(rows, keep)]
    seg, feed = model.non_backtracking_pairs
    deps = np.split(seg[np.argsort(feed, kind="stable")],
                    np.cumsum(np.bincount(feed, minlength=n_dir))[:-1])
    # Copied once: strided views of the table cost more per pop.
    base = [layout.table[:model.cards[t], :model.cards[s], e].copy()
            for e, (t, s) in enumerate(directed)]
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

# The probe's stopping rule sits far below its agreement tolerance, so that
# leftover iteration error cannot pass for disagreement at one fixed point.
_PROBE_TOL, _AGREE_TOL = 1e-12, 1e-8
_EMPIRICAL_LO, _EMPIRICAL_HI = 0.5, 0.99  # the critical-eta bracket


def empirical_convergent(model: PairwiseMRF, runs=20, max_iters=5000,
                         base_seed=0) -> bool:
    """Whether ``runs`` seeded random starts all converge to one belief set.

    Every run must finish with status converged (message change below
    ``_PROBE_TOL``) and every run's beliefs must match the first run's
    within ``_AGREE_TOL`` per state. A pair of runs that lands on mirrored
    belief vectors therefore counts as disagreement.
    """
    _check_restarts(runs, max_iters)
    if model.num_directed == 0:
        return True
    seeds = range(base_seed, base_seed + runs)
    [(status, beliefs)] = _multistart([model], seeds, max_iters, _PROBE_TOL)
    if np.any(status != 1):
        return False
    return float(np.abs(beliefs - beliefs[0]).max()) <= _AGREE_TOL


def _check_restarts(runs, max_iters) -> None:
    if runs < 1:
        raise ValueError("runs must be at least 1")
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
    log_nodes = [layout.log_node] + [_log_node(m, layout.kmax)
                                     for m in models[1:]]
    tables = [layout.table] + [_log_weight_table(m, n)
                               for m, n in zip(models[1:], log_nodes[1:])]

    def per_run(arrays, axis):
        return np.repeat(np.stack(arrays, axis=axis), len(seeds), axis=axis)

    log_node = per_run(log_nodes, 0)
    logm0 = np.tile(_random_logm(layout.mask, seeds), (len(models), 1, 1))
    # A per-run table even for one model costs a sweep less than a shared
    # one. Left unnamed here, it frees the rows of runs as they leave.
    status, snap = _run_restarts(layout, logm0, per_run(tables, 1),
                                 max_iters, tol)
    done = status == 1
    beliefs = _beliefs_batch(layout, snap[done], log_node[done])
    counts = done.reshape(len(models), -1).sum(axis=1)
    return list(zip(status.reshape(len(models), -1),
                    np.split(beliefs, np.cumsum(counts)[:-1])))


def empirical_critical_eta(model: PairwiseMRF, tol=1e-3, runs=20,
                           max_iters=5000, base_seed=0) -> float:
    """Bisect the edge weight at which the multi-start agreement check flips.

    The topology is taken from ``model``; each probe rebuilds it with the
    symmetric binary potential at the probed eta.
    """
    _check_restarts(runs, max_iters)

    def agreed(eta):
        return empirical_convergent(with_uniform_binary(model, eta), runs,
                                    max_iters, base_seed)

    return _bisect(agreed, _EMPIRICAL_LO, _EMPIRICAL_HI, tol)
