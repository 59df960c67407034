"""Convergence certificates.

Five sufficient conditions of increasing cost: two closed-form per-edge
sums, two walk-sum accumulations over computation trees, and the spectral
radius of the non-backtracking interaction matrix. All are monotone in the
potential strengths, which is what makes the critical-eta bisection valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .models import (_MAX_WALKS, EnumerationLimitError, PairwiseMRF,
                     StrengthTable, _strengths_of, with_uniform_binary)

_POWER_TOL, _POWER_STEPS = 1e-10, 100000  # spectral_radius's stopping rule
_CRITICAL_LO, _CRITICAL_HI = 0.5, 0.9999  # critical_eta's bracket


@dataclass
class ConvergenceVerdict:
    """One certificate evaluation.

    ``witness`` is whatever index attains the maximal statistic: a
    DirectedEdge for the edge-rooted conditions, a node id for the
    self-avoiding walk condition, None for the spectral radius.
    """

    condition: str
    statistic: float
    threshold: float
    witness: object

    @property
    def holds(self) -> bool:
        return self.statistic < self.threshold


# -- closed-form conditions ------------------------------------------------


def _edge_sums(strengths: StrengthTable, v) -> np.ndarray:
    """Per directed pair (s, p), the sum of (v - 1)/(v + 1) at the directed
    edges g = (t -> s) with t != p, v indexed by directed edge."""
    model = strengths.model
    seg, feed = model.non_backtracking_pairs
    term = (v - 1.0) / (v + 1.0)
    return np.bincount(seg, weights=term[feed], minlength=model.num_directed)


def _max_edge_sum(strengths: StrengthTable, v):
    """The largest of ``_edge_sums`` and its directed pair. The statistic is
    0 and the witness None when no sum is positive."""
    sums = _edge_sums(strengths, v)
    if not np.any(sums > 0.0):
        return 0.0, None
    best = int(np.argmax(sums))
    return float(sums[best]), strengths.model.directed_edges()[best]


def uniform_condition(strengths: StrengthTable) -> ConvergenceVerdict:
    """Worst-edge sum of (d*d_star - 1)/(d*d_star + 1) against 1/2."""
    stat, witness = _max_edge_sum(strengths, strengths.dd)
    return ConvergenceVerdict("uniform", stat, 0.5, witness)


def ihler_uniform_condition(strengths: StrengthTable) -> ConvergenceVerdict:
    """Worst-edge sum of (d^2 - 1)/(d^2 + 1) against 1."""
    stat, witness = _max_edge_sum(strengths, strengths.d2)
    return ConvergenceVerdict("ihler-uniform", stat, 1.0, witness)


# -- walk-sum conditions ---------------------------------------------------


def _bethe_statistic(strengths: StrengthTable, N: int):
    """Depth-N walk sums per directed edge, bottom up.

    g_k over directed edge (v -> x) accumulates the weight of all
    non-backtracking continuations of length k; a node with no continuation
    keeps a leaf contribution of 1 under its edge weight.
    """
    if N < 1:
        raise ValueError("depth must be at least 1")
    model = strengths.model
    src, dst = model.directed_src, model.directed_dst
    rev = np.arange(src.size) ^ 1
    # Directed edges 2m and 2m+1 both carry the weight of edge m.
    w = np.repeat(strengths.n_strength, 2)
    has_succ = np.bincount(src, minlength=model.num_nodes)[dst] > 1

    g = w.copy()
    # Walk sums past the float range overflow to inf, then to NaN: both read inf.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(N - 1):
            node_sum = np.bincount(src, weights=g, minlength=model.num_nodes)
            g = w * np.where(has_succ, node_sum[dst] - g[rev], 1.0)
        node_sum = np.bincount(src, weights=g, minlength=model.num_nodes)
        h = np.nan_to_num(node_sum[src] - g, nan=np.inf, posinf=np.inf)
    if not h.size:
        return 0.0, None
    best = int(np.argmax(h))
    return float(h[best]), model.directed_edges()[best]


def _saw_statistic(strengths: StrengthTable):
    """Walk sums over self-avoiding continuations, rooted per node.

    An edge back to an already-visited node terminates the walk with its own
    weight; a node whose only neighbor is its parent terminates with
    contribution 1. Raises EnumerationLimitError past ``_MAX_WALKS`` walks
    out of one node, or on a walk deeper than the interpreter's recursion
    limit.
    """
    model = strengths.model
    # Each node's neighbours with their edge weights, in neighbor order.
    adj = [[(u, strengths.weight(c, u)) for u in model.neighbors(c)]
           for c in range(model.num_nodes)]
    on_walk = [False] * model.num_nodes  # the nodes of the current walk

    def rec(c, parent):
        nonlocal walks
        walks += 1
        if walks > _MAX_WALKS:
            raise EnumerationLimitError(f"more than {_MAX_WALKS} "
                                        f"self-avoiding walks out of node {v}")
        total = 0.0
        extended = False
        for u, w in adj[c]:
            if u == parent:
                continue
            if on_walk[u]:
                total += w
            else:
                extended = True
                on_walk[u] = True
                total += w * rec(u, c)
                on_walk[u] = False
        if not extended and total == 0.0:
            return 1.0
        return total

    stat = 0.0
    witness = None
    for v in range(model.num_nodes):
        total, walks = 0.0, 1  # the walk of v alone
        on_walk[v] = True
        try:
            for c, w in adj[v]:
                on_walk[c] = True
                total += w * rec(c, v)
                on_walk[c] = False
        except RecursionError:
            raise EnumerationLimitError(f"a self-avoiding walk out of node "
                                        f"{v} is too long to follow") from None
        on_walk[v] = False
        if total > stat:
            stat = total
            witness = v
    return stat, witness


def nonuniform_condition(strengths: StrengthTable, tree: str,
                         N: Optional[int] = None) -> ConvergenceVerdict:
    """Walk-sum certificate on a computation tree.

    tree="bethe" accumulates to depth N (default twice the node count);
    tree="saw" follows self-avoiding walks to their natural end. Threshold 1
    for both.
    """
    if tree == "saw":
        stat, witness = _saw_statistic(strengths)
        return ConvergenceVerdict("nonuniform-saw", stat, 1.0, witness)
    if tree == "bethe":
        if N is None:
            N = 2 * strengths.model.num_nodes
        stat, witness = _bethe_statistic(strengths, N)
        return ConvergenceVerdict(f"nonuniform-bethe({N})", stat, 1.0, witness)
    raise ValueError(f"unknown tree kind {tree!r}")


# -- spectral condition ----------------------------------------------------


def interaction_matrix(strengths: StrengthTable) -> np.ndarray:
    """Mooij & Kappen's matrix over directed edges: row (i -> j) holds the
    weight of edge (p, i) at column (p -> i) for each neighbour p != j of i."""
    model = strengths.model
    n_dir = model.num_directed
    seg, feed = model.non_backtracking_pairs
    mat = np.zeros((n_dir, n_dir))
    # Directed edges 2m and 2m+1 both carry the weight of edge m.
    mat[seg, feed] = strengths.n_strength[feed >> 1]
    return mat


def spectral_radius(matrix: np.ndarray) -> float:
    """Power iteration for a non-negative matrix, run on matrix + identity
    so that sign-alternating dominant pairs (bipartite structure) still
    settle; the shift is subtracted at the end.

    The per-step estimate is the Collatz max ratio, an upper bound on the
    radius. On an irreducible matrix it converges to the radius itself; on
    a nilpotent one (a forest's interaction) it can level off early at a
    conservative over-estimate."""
    n = matrix.shape[0]
    if n == 0:
        return 0.0
    x = np.ones(n)
    lam = math.inf
    for _ in range(_POWER_STEPS):
        y = matrix @ x + x
        new_lam = float(np.max(y / x))
        x = y / float(np.max(y))
        if abs(new_lam - lam) <= _POWER_TOL * max(1.0, new_lam):
            return new_lam - 1.0
        lam = new_lam
    return lam - 1.0


def _is_forest(model: PairwiseMRF) -> bool:
    """Whether no edge closes a cycle, by union-find with path halving."""
    root = list(range(model.num_nodes))
    for edge in model.edges:
        ends = []
        for v in edge:
            while root[v] != v:
                root[v] = v = root[root[v]]
            ends.append(v)
        if ends[0] == ends[1]:
            return False
        root[ends[0]] = ends[1]
    return True


def walk_summability(strengths: StrengthTable) -> ConvergenceVerdict:
    """Spectral radius of the interaction matrix against 1; exactly 0 on a
    forest, whose matrix is nilpotent."""
    rho = (0.0 if _is_forest(strengths.model)
           else spectral_radius(interaction_matrix(strengths)))
    return ConvergenceVerdict("walksum", rho, 1.0, None)


# -- dispatch and criticals -----------------------------------------------

CONDITION_NAMES = ("uniform", "ihler-uniform", "walksum",
                   "nonuniform-saw", "nonuniform-bethe")


def evaluate_condition(model: PairwiseMRF, condition: str, strengths=None,
                       N: Optional[int] = None) -> ConvergenceVerdict:
    """One certificate, on ``strengths`` if given, else the model's; a
    table measured on another model is refused with ValueError."""
    strengths = _strengths_of(model, strengths)
    if condition == "uniform":
        return uniform_condition(strengths)
    if condition == "ihler-uniform":
        return ihler_uniform_condition(strengths)
    if condition == "walksum":
        return walk_summability(strengths)
    if condition == "nonuniform-saw":
        return nonuniform_condition(strengths, tree="saw")
    if condition == "nonuniform-bethe":
        return nonuniform_condition(strengths, tree="bethe", N=N)
    raise ValueError(f"unknown condition {condition!r}")


def _bisect(pred, lo, hi, tol) -> float:
    """Threshold of a predicate that holds below it and fails above it.

    Returns lo when pred fails there and hi when it holds there; otherwise
    halves the bracket while it is wider than tol and returns its midpoint.
    The halving also stops once the midpoint rounds to an end, since a
    bracket of two adjacent floats cannot shrink.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be finite and positive")
    if not pred(lo):
        return lo
    if pred(hi):
        return hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def critical_eta(model: PairwiseMRF, condition: str, tol=1e-4,
                 N: Optional[int] = None) -> float:
    """Bisect the eta at which the certificate flips, on the model's
    topology rebuilt with the symmetric binary potential."""

    def holds(eta):
        probe = with_uniform_binary(model, eta)
        return evaluate_condition(probe, condition, N=N).holds

    return _bisect(holds, _CRITICAL_LO, _CRITICAL_HI, tol)
