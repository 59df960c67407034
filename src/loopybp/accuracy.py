"""Exact marginals by enumeration and belief-accuracy intervals.

The interval construction combines two routes from a belief to the true
marginal: a maximum-error factor eps (p within a factor of the belief) and a
dynamic-range factor delta (error mass reweighted across the distribution).
Taking the tighter side of each produces an interval no wider than either.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import _node_bounds, _recursion, _solve_nonuniform
from .engine import run_synchronous
from .models import EnumerationLimitError, ModelError, PairwiseMRF
from .trees import saw_tree

_MAX_STATES = 1 << 20
_RUN_TOL, _RUN_ITERS = 1e-10, 5000  # saw_accuracy's synchronous run


class ConvergenceFailure(RuntimeError):
    pass


def exact_marginals(model: PairwiseMRF) -> list:
    """Per-node marginals of the full joint, by enumeration.

    Refuses joints beyond 2**20 configurations.
    """
    total = 1
    for c in model.cards:
        total *= c
        if total > _MAX_STATES:
            raise EnumerationLimitError(
                f"joint has more than {_MAX_STATES} configurations")
    n = model.num_nodes
    logj = np.zeros(tuple(model.cards))
    for v in range(n):
        shape = [1] * n
        shape[v] = model.cards[v]
        logj = logj + np.log(model.node_pot[v]).reshape(shape)
    for (lo, hi), mat in zip(model.edges, model.edge_pot):
        shape = [1] * n
        shape[lo] = model.cards[lo]
        shape[hi] = model.cards[hi]
        logj = logj + np.log(mat).reshape(shape)
    joint = np.exp(logj - logj.max())
    joint /= joint.sum()
    out = []
    for v in range(n):
        axes = tuple(i for i in range(n) if i != v)
        out.append(joint.sum(axis=axes))
    return out


@dataclass
class AccuracyBound:
    """Per-state interval around a belief that contains the true marginal."""

    belief: np.ndarray
    delta: float
    epsilon: float
    lower: np.ndarray
    upper: np.ndarray


def accuracy_bound(belief, delta: float, epsilon: float) -> AccuracyBound:
    """Merge the factor-eps and range-delta routes state by state.

    Lower: max of b/eps and b/(delta^2 (1-b) + b); upper: min of eps*b and
    delta^2 b/((1-b) + delta^2 b). delta = epsilon = 1 collapses to b.
    """
    b = np.asarray(belief, dtype=float)
    if np.any(b <= 0.0) or np.any(b >= 1.0) or abs(float(b.sum()) - 1.0) > 1e-9:
        raise ValueError("belief must be normalized with interior entries")
    if delta < 1.0 or epsilon < 1.0:
        raise ValueError("delta and epsilon must be at least 1")
    d2 = delta * delta
    lower = np.maximum(b / epsilon, b / (d2 * (1.0 - b) + b))
    upper = np.minimum(epsilon * b, d2 * b / ((1.0 - b) + d2 * b))
    return AccuracyBound(b, delta, epsilon, lower, upper)


def saw_accuracy(model: PairwiseMRF, node: int) -> AccuracyBound:
    """Accuracy interval at one node from a converged synchronous run.

    The error recursions run for as many steps as the self-avoiding walk
    tree rooted at the node is deep, starting saturated, which worst-cases
    whatever configuration the walks' endpoints are pinned to. Both read the
    improved per-edge recursion, solved once: delta assembles it with the
    squared edge strength (the dynamic-range bound), eps with d * d_star.
    """
    result = run_synchronous(model, init="uniform", max_iters=_RUN_ITERS,
                             tol=_RUN_TOL)
    if not result.converged:
        raise ConvergenceFailure(
            f"synchronous run ended as {result.status} after "
            f"{result.iterations} iterations")
    belief = result.beliefs[node]
    if np.any(belief <= 0.0) or np.any(belief >= 1.0):
        raise ModelError(f"belief at node {node} saturates a float: "
                         "no interval can be formed")
    depth = saw_tree(model, node).depth
    if depth == 0:
        return accuracy_bound(belief, 1.0, 1.0)
    strengths = model.strengths
    z = _solve_nonuniform(_recursion(strengths, True), depth)
    delta = float(np.exp(0.5 * _node_bounds(model, strengths.d2, z)[node]))
    epsilon = float(np.exp(_node_bounds(model, strengths.dd, z)[node]))
    return accuracy_bound(belief, delta, epsilon)
