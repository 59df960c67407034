"""Distance bounds between sum-product fixed points.

The single-update contraction delta1, the per-edge error recursions it
generates, and the node-level log-distance bounds assembled from the
recursions' largest fixed points. All recursions run in log space through
t = exp(-log eps), which keeps the arithmetic stable when eps saturates.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .engine import _multistart
from .models import ModelError, PairwiseMRF, StrengthTable, _strengths_of

_REL_TOL = 1e-14
_MAX_SOLVE = 100000
_ZERO_EPS = 1e-9  # log-eps values below this count as the trivial fixed point
_RESTART_TOL, _RESTART_ITERS = 1e-10, 5000  # true_distance's restarts
_DEDUP_TOL = 1e-6  # belief sets closer than this per state are one fixed point


def delta1(d_pair: float, d_star: float, dE: float) -> float:
    """Squared-ratio cap on the outgoing error of one update.

    Uses both the edge strength and the summed-out marginal strength of the
    sender; dE is the dynamic range of the incoming error. Accepts dE=inf,
    where the cap saturates at (d_pair*d_star)**2.
    """
    if d_pair < 1.0 or d_star < 1.0 or dE < 1.0:
        raise ValueError("strengths and error range must be at least 1")
    dd = d_pair * d_star
    # (dd*dE + 1)/(dd + dE), each rounding monotone in dE, so the cap is too.
    root = dd - (dd * dd - 1.0) / (dd + dE)
    return root * root


# -- recursion plumbing ----------------------------------------------------


class _Recursion:
    """One error recursion on n values: term i adds
    coeff * (log(v[i] + t) - log1p(v[i] * t)), with t = exp(-z[feed[i]]),
    to segment seg[i]."""

    def __init__(self, n: int, seg: np.ndarray, feed: np.ndarray,
                 coeff: float, v: np.ndarray):
        self.n, self.seg, self.feed, self.coeff, self.v = n, seg, feed, coeff, v
        # Scratch for the per-term values, reused by every step.
        self._a = np.empty(v.shape)
        self._b = np.empty(v.shape)

    def sums(self, z) -> np.ndarray:
        """Segment sums at one shared z (a float) or at per-value z (an
        array). z = inf is the saturated initialization: t = 0."""
        t = math.exp(-z) if isinstance(z, float) else np.exp(-z[self.feed])
        a, b = self._a, self._b
        np.log(np.add(self.v, t, out=a), out=a)
        np.log1p(np.multiply(self.v, t, out=b), out=b)
        vals = np.subtract(a, b, out=a)
        if self.coeff != 1.0:  # the improved recursions have coeff 1
            np.multiply(vals, self.coeff, out=vals)
        return np.bincount(self.seg, weights=vals, minlength=self.n)


# The solves shared inside one bound_report, or None outside one.
_SOLVED: ContextVar[Optional[dict]] = ContextVar("_SOLVED", default=None)


def _solve(solver, strengths: StrengthTable, improved: bool, *args):
    """solver on the table's recursion, reused inside one bound_report."""
    store = _SOLVED.get()
    store = {} if store is None else store
    key = (solver, strengths, improved, args)
    if key not in store:
        store[key] = solver(_recursion(strengths, improved), *args)
    return store[key]


def _recursion(strengths: StrengthTable, improved: bool) -> _Recursion:
    """The doubled-log recursion in d*d_star, or (improved) the single-log
    one in squared edge strength, over the model's non-backtracking
    relation: segment seg[i] receives a term driven by edge feed[i]."""
    model = strengths.model
    seg, feed = model.non_backtracking_pairs
    strength, coeff = (strengths.d2, 1.0) if improved else (strengths.dd, 2.0)
    return _Recursion(model.num_directed, seg, feed, coeff, strength[feed])


def _node_bounds(model: PairwiseMRF, strength: np.ndarray, z) -> np.ndarray:
    """Assemble per-node bounds: each incoming edge contributes the squared
    contraction at its own eps, a recursion whose segments are the nodes.
    Values below 1e-9 collapse to exactly 0."""
    edges = np.arange(model.num_directed)
    # astype: bincount over no edges returns integers.
    out = _Recursion(model.num_nodes, model.directed_dst, edges, 2.0,
                     strength).sums(z).astype(float, copy=False)
    out[out < _ZERO_EPS] = 0.0
    return out


# ndarray.max without its Python-level wrapper; the same reduction.
_peak = np.maximum.reduce


def _solve_uniform(rec: _Recursion) -> float:
    """Largest fixed point, in log space, of z <- max over edges of the
    predecessor sums.

    Two-stage zero test: twenty iterations from just above zero that contract
    below 1+1e-9 certify that no nonzero fixed point exists (the map is
    monotone, so a nonzero fixed point would force those iterates upward).
    Otherwise iterate down from the saturated initialization, which the
    recursion's shape makes monotone non-increasing and bounded below.
    """
    if rec.n == 0:
        return 0.0
    top = float(_peak(rec.sums(math.inf)))
    if top <= 0.0:
        return 0.0
    z = math.log1p(1e-6)
    for _ in range(20):
        z = float(_peak(rec.sums(z)))
    if z <= math.log1p(_ZERO_EPS):
        return 0.0
    z = top
    for _ in range(_MAX_SOLVE):
        z, old = float(_peak(rec.sums(z))), z
        if abs(z - old) <= _REL_TOL * max(1.0, old):
            break
    if z <= math.log1p(_ZERO_EPS):
        return 0.0
    return z


def _solve_nonuniform(rec: _Recursion, n: Optional[int]) -> np.ndarray:
    """Per-edge log eps after n recursion steps (n=None: to the fixed point).

    Step 1 is the saturated initialization, so the sequence is monotone
    non-increasing componentwise.
    """
    z = rec.sums(math.inf)
    if rec.n == 0:
        return z
    if n is None:
        gap = np.empty(rec.n)
        for _ in range(_MAX_SOLVE):
            z, old = rec.sums(z), z
            np.abs(np.subtract(z, old, out=gap), out=gap)
            if float(_peak(gap)) <= _REL_TOL * max(1.0, float(_peak(old))):
                break
    else:
        if n < 1:
            raise ValueError("n must be at least 1")
        for _ in range(n - 1):
            z = rec.sums(z)
    return z


# -- node-level bounds -----------------------------------------------------


def uniform_distance_bound(model: PairwiseMRF):
    """Per-node log-distance bound from the doubled-log recursion with the
    combined strength d*d_star. Returns (bounds, eps_star). Not proven on
    asymmetric potentials; it holds by 0.18 on ``bound_report``'s model."""
    z = _solve(_solve_uniform, model.strengths, False)
    return _node_bounds(model, model.strengths.dd, z), math.exp(z)


def improved_uniform_distance_bound(model: PairwiseMRF):
    """Same node assembly, but eps_star comes from the single-log recursion
    in squared edge strength, which has a higher zero threshold. Not a bound
    on ``bound_report``'s asymmetric model: 5.491 against a true 5.598."""
    z = _solve(_solve_uniform, model.strengths, True)
    return _node_bounds(model, model.strengths.dd, z), math.exp(z)


def ihler_uniform_distance_bound(model: PairwiseMRF):
    """Dynamic-range recursion end to end: the single-log eps fixed point
    assembled with the squared edge strength."""
    z = _solve(_solve_uniform, model.strengths, True)
    return _node_bounds(model, model.strengths.d2, z), math.exp(z)


def nonuniform_distance_bound(model: PairwiseMRF, strengths=None,
                              n: Optional[int] = None, improved=False):
    """Per-edge eps recursion kept separate per directed edge.

    ``n`` counts recursion steps including the saturated initialization;
    None runs to the fixed point. ``improved`` switches the per-edge
    recursion to the single-log squared-strength form. ``strengths``
    defaults to ``model.strengths``; a table measured on another model is
    refused with ValueError. Returns (bounds, per-directed-edge eps
    array). Not proven on asymmetric potentials: on ``bound_report``'s
    model it holds by 0.14, and improved reads 5.325 against a true 5.598.
    """
    strengths = _strengths_of(model, strengths)
    z = _solve(_solve_nonuniform, strengths, improved, n)
    return _node_bounds(model, strengths.dd, z), np.exp(z)


def ihler_nonuniform_distance_bound(model: PairwiseMRF,
                                    n: Optional[int] = None):
    z = _solve(_solve_nonuniform, model.strengths, True, n)
    return _node_bounds(model, model.strengths.d2, z), np.exp(z)


# -- empirical distance ----------------------------------------------------


def true_distance(model, seeds: int = 0, runs: int = 12):
    """Largest per-node log belief ratio across fixed points discovered by
    seeded random restarts. None when no restart converges; zeros when all
    converged restarts agree.

    ``model`` may also be a list of models of one topology (the same edges
    and cardinalities), such as one graph at several edge weights: their
    restarts run as one batch, and the result is a list with one entry per
    model, each equal to that model's own call.
    """
    if runs < 2:
        raise ValueError("runs must be at least 2")
    models = [model] if isinstance(model, PairwiseMRF) else list(model)
    if all(m.num_directed == 0 for m in models):
        out = [np.zeros(m.num_nodes) for m in models]
    else:
        found = _multistart(models, range(seeds, seeds + runs),
                            _RESTART_ITERS, _RESTART_TOL)
        out = [_distance_between(m, beliefs)
               if np.any(status == 1) else None
               for m, (status, beliefs) in zip(models, found)]
    return out[0] if isinstance(model, PairwiseMRF) else out


def _distance_between(model: PairwiseMRF, beliefs) -> np.ndarray:
    """Largest per-node log belief ratio between the distinct belief sets."""
    reps: list[np.ndarray] = []
    for b in beliefs:
        if all(float(np.abs(b - r).max()) > _DEDUP_TOL for r in reps):
            reps.append(b)
    if len(reps) == 1:
        return np.zeros(model.num_nodes)
    states = np.arange(beliefs.shape[-1]) < np.array(model.cards)[:, None]
    if np.any(states & (np.array(reps) == 0.0)):
        raise ModelError("a belief saturates a float: no distance can be formed")
    logs = np.log(np.where(states, reps, 1.0))  # padding reads log 1 = 0
    # Rounding is monotone, so the largest pairwise gap |log a - log b| is
    # exactly the largest log less the smallest.
    return np.ptp(logs, axis=0).max(axis=1)


# -- combined report -------------------------------------------------------

BOUND_KEYS = ("udb", "improved_udb", "ihler_udb",
              "nudb", "improved_nudb", "ihler_nudb")


@dataclass
class BoundReport:
    """All node bounds side by side, with the eps values behind them.

    eps_star holds one value per directed edge for every kind; the uniform
    kinds broadcast their shared scalar.
    """

    node_bounds: dict
    eps_star: dict


def bound_report(model: PairwiseMRF, n: Optional[int] = None) -> BoundReport:
    """Compute every bound kind for one model, solving each distinct error
    recursion once. ``n`` is passed to the per-edge recursions; the
    empirical distance is ``true_distance``'s.

    On asymmetric potentials the d*d_star columns can read below the
    distance between two fixed points: 5.491 (improved_udb) and 5.325
    (improved_nudb) against 5.598, at node 2 of a complete:4 model in the
    tests. The Ihler columns held on all 61 multistable models of 360 drawn.
    """
    # The improved and Ihler bounds read one solve; nothing outlives the call.
    token = _SOLVED.set({})
    try:
        results = {
            "udb": uniform_distance_bound(model),
            "improved_udb": improved_uniform_distance_bound(model),
            "ihler_udb": ihler_uniform_distance_bound(model),
            "nudb": nonuniform_distance_bound(model, n=n),
            "improved_nudb": nonuniform_distance_bound(model, n=n,
                                                       improved=True),
            "ihler_nudb": ihler_nonuniform_distance_bound(model, n=n),
        }
    finally:
        _SOLVED.reset(token)
    node_bounds = {key: bounds for key, (bounds, _) in results.items()}
    eps = {key: np.full(model.num_directed, e) if np.ndim(e) == 0 else e
           for key, (_, e) in results.items()}

    for key in BOUND_KEYS:
        if np.any(node_bounds[key] < 0.0):
            raise AssertionError(f"{key} produced a negative bound")
    for tight, loose in (("improved_udb", "udb"), ("improved_nudb", "nudb")):
        if np.any(node_bounds[tight] > node_bounds[loose] + 1e-9):
            raise AssertionError(f"{tight} exceeded {loose}")
    return BoundReport(node_bounds, eps)
