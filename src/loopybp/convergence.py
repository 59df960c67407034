"""Convergence certificates.

Five sufficient conditions of increasing cost: two closed-form per-edge
sums, two walk-sum accumulations over computation trees, and the spectral
radius of the non-backtracking interaction matrix. All are monotone in the
potential strengths, which is what makes the critical-eta bisection valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .models import (PairwiseMRF, StrengthTable, compute_strengths,
                     with_uniform_binary)


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
    witness: object = None

    @property
    def holds(self) -> bool:
        return self.statistic < self.threshold


@dataclass
class InteractionMatrix:
    """Directed-edge square matrix: row (i -> j) has the weight of edge
    (p, i) in column (p -> i) for every p adjacent to i except j."""

    matrix: np.ndarray
    directed: list


@dataclass
class OrderingReport:
    verdicts: list = field(default_factory=list)
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


# -- closed-form conditions ------------------------------------------------


def _max_edge_sum(strengths: StrengthTable, term):
    """Maximize, over directed pairs (s, p), the sum of term[g] over the
    directed edges g = (t -> s) with t != p. ``term`` is indexed by directed
    edge. The statistic is 0 and the witness None when no sum is positive."""
    model = strengths.model
    seg, feed = model.non_backtracking_pairs()
    sums = np.bincount(seg, weights=term[feed], minlength=model.num_directed)
    if not np.any(sums > 0.0):
        return 0.0, None
    best = int(np.argmax(sums))
    return float(sums[best]), model.directed_edges()[best]


def uniform_condition(strengths: StrengthTable) -> ConvergenceVerdict:
    """Worst-edge sum of (d*d_star - 1)/(d*d_star + 1) against 1/2."""
    dd, _ = strengths.directed_arrays()
    stat, witness = _max_edge_sum(strengths, (dd - 1.0) / (dd + 1.0))
    return ConvergenceVerdict("uniform", stat, 0.5, witness)


def ihler_uniform_condition(strengths: StrengthTable) -> ConvergenceVerdict:
    """Worst-edge sum of (d^2 - 1)/(d^2 + 1) against 1."""
    _, d2 = strengths.directed_arrays()
    stat, witness = _max_edge_sum(strengths, (d2 - 1.0) / (d2 + 1.0))
    return ConvergenceVerdict("ihler-uniform", stat, 1.0, witness)


def rate_metric(strengths: StrengthTable, edge) -> float:
    """Distance of the ihler-uniform edge sum from its threshold; the
    derivative magnitude of the error recursion at zero, a proxy for how
    fast messages along (s, p) settle."""
    s, p = edge
    total = 0.0
    for t in strengths.model.neighbors(s):
        if t != p:
            d2 = strengths.pair(t, s) ** 2
            total += (d2 - 1.0) / (d2 + 1.0)
    return abs(total - 1.0)


# -- walk-sum conditions ---------------------------------------------------


def _bethe_statistic(model: PairwiseMRF, strengths: StrengthTable, N: int):
    """Depth-N walk sums per directed edge, bottom up.

    g_k over directed edge (v -> x) accumulates the weight of all
    non-backtracking continuations of length k; a node with no continuation
    keeps a leaf contribution of 1 under its edge weight.
    """
    if N < 1:
        raise ValueError("depth must be at least 1")
    ends = np.array(model.edges, dtype=np.intp).reshape(-1, 2)
    src = ends.ravel()
    dst = ends[:, ::-1].ravel()
    rev = np.arange(src.size) ^ 1
    # Directed edges 2m and 2m+1 both carry the weight of edge m.
    w = np.repeat(strengths.n_strength, 2)
    has_succ = np.bincount(src, minlength=model.num_nodes)[dst] > 1

    g = w.copy()
    for _ in range(N - 1):
        node_sum = np.bincount(src, weights=g, minlength=model.num_nodes)
        g = w * np.where(has_succ, node_sum[dst] - g[rev], 1.0)
    node_sum = np.bincount(src, weights=g, minlength=model.num_nodes)
    h = node_sum[src] - g
    best = int(np.argmax(h))
    return float(h[best]), model.directed_edges()[best]


def _saw_statistic(model: PairwiseMRF, strengths: StrengthTable):
    """Walk sums over self-avoiding continuations, rooted per node.

    An edge back to an already-visited node terminates the walk with its own
    weight; a node whose only neighbor is its parent terminates with
    contribution 1.
    """
    # Each node's neighbours with their edge weights, in neighbor order.
    adj = [[(u, strengths.weight(c, u)) for u in model.neighbors(c)]
           for c in range(model.num_nodes)]

    def rec(c, parent, visited):
        total = 0.0
        extended = False
        for u, w in adj[c]:
            if u == parent:
                continue
            if u in visited:
                total += w
            else:
                extended = True
                total += w * rec(u, c, visited | {u})
        if not extended and total == 0.0:
            return 1.0
        return total

    stat = 0.0
    witness = None
    for v in range(model.num_nodes):
        total = 0.0
        for c, w in adj[v]:
            total += w * rec(c, v, {v, c})
        if total > stat:
            stat = total
            witness = v
    return stat, witness


def nonuniform_condition(model: PairwiseMRF, strengths=None, tree="saw",
                         N: Optional[int] = None) -> ConvergenceVerdict:
    """Walk-sum certificate on a computation tree.

    tree="bethe" accumulates to depth N (default twice the node count);
    tree="saw" follows self-avoiding walks to their natural end. Threshold 1
    for both.
    """
    if strengths is None:
        strengths = compute_strengths(model)
    if tree == "saw":
        stat, witness = _saw_statistic(model, strengths)
        return ConvergenceVerdict("nonuniform-saw", stat, 1.0, witness)
    if tree == "bethe":
        if N is None:
            N = 2 * model.num_nodes
        stat, witness = _bethe_statistic(model, strengths, N)
        return ConvergenceVerdict(f"nonuniform-bethe({N})", stat, 1.0, witness)
    raise ValueError(f"unknown tree kind {tree!r}")


# -- spectral condition ----------------------------------------------------


def interaction_matrix(model: PairwiseMRF, strengths=None) -> InteractionMatrix:
    if strengths is None:
        strengths = compute_strengths(model)
    directed = model.directed_edges()
    n_dir = len(directed)
    seg, feed = model.non_backtracking_pairs()
    mat = np.zeros((n_dir, n_dir))
    # Directed edges 2m and 2m+1 both carry the weight of edge m.
    mat[seg, feed] = strengths.n_strength[feed >> 1]
    return InteractionMatrix(mat, directed)


def spectral_radius(matrix: np.ndarray, tol=1e-10, max_steps=100000) -> float:
    """Power iteration for a non-negative matrix, run on matrix + identity
    so that sign-alternating dominant pairs (bipartite structure) still
    settle; the shift is subtracted at the end.

    The per-step estimate is the Collatz max ratio, an upper bound on the
    radius. On an irreducible matrix it converges to the radius itself; on
    a nilpotent one (tree-structured interaction) it can level off early at
    a conservative over-estimate, which errs on the safe side for every
    certificate built on top of this."""
    n = matrix.shape[0]
    if n == 0:
        return 0.0
    x = np.ones(n)
    lam = None
    for _ in range(max_steps):
        y = matrix @ x + x
        new_lam = float(np.max(y / x))
        x = y / float(np.max(y))
        if lam is not None and abs(new_lam - lam) <= tol * max(1.0, new_lam):
            lam = new_lam
            break
        lam = new_lam
    return lam - 1.0


def walk_summability(model: PairwiseMRF, strengths=None) -> ConvergenceVerdict:
    if model.num_directed == 0:
        raise ValueError("walk-summability needs at least one edge")
    if strengths is None:
        strengths = compute_strengths(model)
    rho = spectral_radius(interaction_matrix(model, strengths).matrix)
    return ConvergenceVerdict("walksum", rho, 1.0, None)


# -- dispatch, criticals, orderings ----------------------------------------

CONDITION_NAMES = ("uniform", "ihler-uniform", "walksum",
                   "nonuniform-saw", "nonuniform-bethe")


def evaluate_condition(model: PairwiseMRF, condition: str, strengths=None,
                       N: Optional[int] = None) -> ConvergenceVerdict:
    if strengths is None:
        strengths = compute_strengths(model)
    if condition == "uniform":
        return uniform_condition(strengths)
    if condition == "ihler-uniform":
        return ihler_uniform_condition(strengths)
    if condition == "walksum":
        return walk_summability(model, strengths)
    if condition in ("saw", "nonuniform-saw"):
        return nonuniform_condition(model, strengths, tree="saw")
    if condition in ("bethe", "nonuniform-bethe"):
        return nonuniform_condition(model, strengths, tree="bethe", N=N)
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
                 N: Optional[int] = None, lo=0.5, hi=0.9999) -> float:
    """Bisect the eta at which the certificate flips, on the model's
    topology rebuilt with the symmetric binary potential."""

    def holds(eta):
        probe = with_uniform_binary(model, eta)
        return evaluate_condition(probe, condition, N=N).holds

    return _bisect(holds, lo, hi, tol)


def partial_graph_ordering_check(model_small: PairwiseMRF,
                                 model_big: PairwiseMRF, condition: str,
                                 tol=1e-4, N: Optional[int] = None) -> bool:
    """Whether the denser model's critical eta is at most the sparser one's.

    Requires model_small's edges to be a subset of model_big's with no
    stronger potentials on the shared edges.
    """
    if model_small.num_nodes != model_big.num_nodes:
        raise ValueError("models must share a node set")
    small_edges = set(model_small.edges)
    if not small_edges.issubset(set(model_big.edges)):
        raise ValueError("small model has edges outside the big model")
    st_small = compute_strengths(model_small)
    st_big = compute_strengths(model_big)
    for i, j in small_edges:
        if st_small.pair(i, j) > st_big.pair(i, j) * (1.0 + 1e-9):
            raise ValueError(f"edge ({i},{j}) is stronger in the small model")
    c_small = critical_eta(model_small, condition, tol=tol, N=N)
    c_big = critical_eta(model_big, condition, tol=tol, N=N)
    return c_big <= c_small + 1e-12


def _clearly_holds(verdict: ConvergenceVerdict) -> bool:
    return verdict.statistic < verdict.threshold * (1.0 - 1e-9)


def condition_ordering_report(model: PairwiseMRF, strengths=None,
                              N: Optional[int] = None) -> OrderingReport:
    """Evaluate every certificate and check the implication chain
    walksum => bethe(N) => bethe(2N) and saw => bethe(N).

    A violation is flagged only when the premise holds by a clear margin,
    so knife-edge statistics that land exactly on a threshold do not
    produce spurious entries.
    """
    if strengths is None:
        strengths = compute_strengths(model)
    if N is None:
        N = 2 * model.num_nodes
    uni = uniform_condition(strengths)
    ihl = ihler_uniform_condition(strengths)
    wsum = walk_summability(model, strengths)
    saw = nonuniform_condition(model, strengths, tree="saw")
    bethe_n = nonuniform_condition(model, strengths, tree="bethe", N=N)
    bethe_2n = nonuniform_condition(model, strengths, tree="bethe", N=2 * N)

    violations = []
    for premise, conclusion in ((wsum, bethe_n), (bethe_n, bethe_2n),
                                (saw, bethe_n)):
        if _clearly_holds(premise) and not conclusion.holds:
            violations.append(f"{premise.condition} holds but "
                              f"{conclusion.condition} fails")
    return OrderingReport([uni, ihl, wsum, saw, bethe_n, bethe_2n],
                          violations)
