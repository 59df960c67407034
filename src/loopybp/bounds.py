"""Distance bounds between sum-product fixed points.

Single-update contractions (delta1, delta2), the per-edge error recursions
they generate, and the node-level log-distance bounds assembled from the
recursions' largest fixed points. All recursions run in log space through
t = exp(-log eps), which keeps the arithmetic stable when eps saturates.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .engine import _check_restarts, _multistart
from .models import PairwiseMRF, compute_strengths

_REL_TOL = 1e-14
_MAX_SOLVE = 100000
_ZERO_EPS = 1e-9  # log-eps values below this count as the trivial fixed point


def delta1(d_pair: float, d_star: float, dE: float) -> float:
    """Squared-ratio cap on the outgoing error of one update.

    Uses both the edge strength and the summed-out marginal strength of the
    sender; dE is the dynamic range of the incoming error. Accepts dE=inf,
    where the cap saturates at (d_pair*d_star)**2.
    """
    if d_pair < 1.0 or d_star < 1.0 or dE < 1.0:
        raise ValueError("strengths and error range must be at least 1")
    dd = d_pair * d_star
    if math.isinf(dE):
        return dd * dd
    return ((dd * dE + 1.0) / (dd + dE)) ** 2


def delta2(d_pair: float, dE: float) -> float:
    """Squared-ratio cap using the edge strength alone (squared inside):
    delta1 with the edge strength in place of the summed strength."""
    return delta1(d_pair, d_pair, dE)


_VARIATION_KINDS = {
    # kind -> (use d_pair*d_star, log coefficient)
    "G_O": (True, 2.0),
    "G_I": (False, 2.0),
    "G_II": (False, 1.0),
}


def bound_variation(kind: str, strengths, log_eps: float) -> float:
    """Net change of the error recursion at a node, as a function of log eps.

    ``strengths`` lists (d_pair, d_star) per incoming edge excluding the
    target. Zero at log_eps = 0 for every kind; eventually decreasing with
    slope -1, so the largest root is the recursion's stable fixed point.
    """
    try:
        use_star, coeff = _VARIATION_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown kind {kind!r}") from None
    if log_eps < 0.0:
        raise ValueError("log_eps must be non-negative")
    t = math.exp(-log_eps)
    total = 0.0
    for d_pair, d_star in strengths:
        if d_pair < 1.0 or d_star < 1.0:
            raise ValueError("strengths must be at least 1")
        v = d_pair * d_star if use_star else d_pair * d_pair
        total += coeff * (math.log(v + t) - math.log1p(v * t))
    return total - log_eps


# -- recursion plumbing ----------------------------------------------------


class _EdgeTerms:
    """Per-directed-edge strengths plus the non-backtracking relation: term i
    says segment seg[i] receives a contribution driven by edge feed[i]."""

    def __init__(self, model: PairwiseMRF, strengths=None):
        if strengths is None:
            strengths = compute_strengths(model)
        self.num_nodes = model.num_nodes
        self.n_dir = model.num_directed
        self.dst = np.array([e.dst for e in model.directed_edges()], dtype=int)
        self.dd, self.d2 = strengths.directed_arrays()
        self.seg, self.feed = model.non_backtracking_pairs()

    def recursion(self, improved: bool) -> _Recursion:
        """The doubled-log recursion in d*d_star, or (improved) the
        single-log one in squared edge strength."""
        coeff, strength = (1.0, self.d2) if improved else (2.0, self.dd)
        return _Recursion(self.n_dir, self.seg, self.feed, coeff,
                          strength[self.feed])

    def node_bounds(self, strength: np.ndarray, z) -> np.ndarray:
        """Assemble per-node bounds: each incoming edge contributes the
        squared contraction at its own eps. Values below 1e-9 collapse to
        exactly 0."""
        t = np.exp(-z) if np.ndim(z) else np.full(self.n_dir, math.exp(-z))
        contrib = 2.0 * (np.log(strength + t) - np.log1p(strength * t))
        # astype: bincount over no edges returns integers.
        out = np.bincount(self.dst, weights=contrib,
                          minlength=self.num_nodes).astype(float, copy=False)
        out[out < _ZERO_EPS] = 0.0
        return out


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

    def key(self) -> tuple:
        """The recursion's exact content; equal keys give equal solves."""
        return (self.n, self.coeff, self.seg.tobytes(), self.feed.tobytes(),
                self.v.tobytes())

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


# Solves and edge terms shared within one sharing scope (see
# _sharing_solves); None outside.
_SOLVED: ContextVar[Optional[dict]] = ContextVar("_SOLVED", default=None)


@contextmanager
def _sharing_solves():
    """Within the block, each distinct recursion is solved once (the
    improved and Ihler bounds read the same fixed point) and each model's
    edge terms are built once. The store is dropped on exit, so nothing is
    shared between calls."""
    token = _SOLVED.set({})
    try:
        yield
    finally:
        _SOLVED.reset(token)


def _shared(key, build):
    """build(), reused under ``key`` inside a sharing scope."""
    store = _SOLVED.get()
    if store is None:
        return build()
    if key not in store:
        store[key] = build()
    return store[key]


def _solve(solver, rec: _Recursion, *args):
    """solver(rec, *args), reused inside a sharing scope."""
    return _shared((solver, rec.key(), args), lambda: solver(rec, *args))


def _edge_terms(model: PairwiseMRF, strengths) -> _EdgeTerms:
    """_EdgeTerms(model, strengths), reused inside a sharing scope. Models
    and strength tables hash by identity, so the key names these objects."""
    return _shared((_EdgeTerms, model, strengths),
                   lambda: _EdgeTerms(model, strengths))


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
        znew = float(_peak(rec.sums(z)))
        if abs(znew - z) <= _REL_TOL * max(1.0, z):
            z = znew
            break
        z = znew
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
            znew = rec.sums(z)
            np.abs(np.subtract(znew, z, out=gap), out=gap)
            if float(_peak(gap)) <= _REL_TOL * max(1.0, float(_peak(z))):
                z = znew
                break
            z = znew
    else:
        if n < 1:
            raise ValueError("n must be at least 1")
        for _ in range(n - 1):
            z = rec.sums(z)
    return z


# -- node-level bounds -----------------------------------------------------


def uniform_distance_bound(model: PairwiseMRF, strengths=None):
    """Per-node log-distance bound from the doubled-log recursion with the
    combined strength d*d_star. Returns (bounds, eps_star)."""
    terms = _edge_terms(model, strengths)
    z = _solve(_solve_uniform, terms.recursion(improved=False))
    return terms.node_bounds(terms.dd, z), math.exp(z)


def improved_uniform_distance_bound(model: PairwiseMRF, strengths=None):
    """Same node assembly, but eps_star comes from the single-log recursion
    in squared edge strength, which has a higher zero threshold."""
    terms = _edge_terms(model, strengths)
    z = _solve(_solve_uniform, terms.recursion(improved=True))
    return terms.node_bounds(terms.dd, z), math.exp(z)


def ihler_uniform_distance_bound(model: PairwiseMRF, strengths=None):
    """Dynamic-range recursion end to end: the single-log eps fixed point
    assembled with the squared edge strength."""
    terms = _edge_terms(model, strengths)
    z = _solve(_solve_uniform, terms.recursion(improved=True))
    return terms.node_bounds(terms.d2, z), math.exp(z)


def nonuniform_distance_bound(model: PairwiseMRF, strengths=None,
                              n: Optional[int] = None, improved=False):
    """Per-edge eps recursion kept separate per directed edge.

    ``n`` counts recursion steps including the saturated initialization;
    None runs to the fixed point. ``improved`` switches the per-edge
    recursion to the single-log squared-strength form. Returns
    (bounds, per-directed-edge eps array).
    """
    terms = _edge_terms(model, strengths)
    z = _solve(_solve_nonuniform, terms.recursion(improved), n)
    return terms.node_bounds(terms.dd, z), np.exp(z)


def ihler_nonuniform_distance_bound(model: PairwiseMRF, strengths=None,
                                    n: Optional[int] = None):
    terms = _edge_terms(model, strengths)
    z = _solve(_solve_nonuniform, terms.recursion(improved=True), n)
    return terms.node_bounds(terms.d2, z), np.exp(z)


# -- empirical distance ----------------------------------------------------


def true_distance(model, seeds: int = 0, runs: int = 12,
                  max_iters: int = 5000, tol: float = 1e-10,
                  dedup_tol: float = 1e-6):
    """Largest per-node log belief ratio across fixed points discovered by
    seeded random restarts. None when no restart converges; zeros when all
    converged restarts agree.

    ``model`` may also be a list of models of one topology (the same edges
    and cardinalities), such as one graph at several edge weights: their
    restarts run as one batch, and the result is a list with one entry per
    model, each equal to that model's own call.
    """
    _check_restarts(runs, max_iters, least_runs=2)
    models = [model] if isinstance(model, PairwiseMRF) else list(model)
    if all(m.num_directed == 0 for m in models):
        out = [np.zeros(m.num_nodes) for m in models]
    else:
        found = _multistart(models, range(seeds, seeds + runs), max_iters, tol)
        out = [_distance_between(m, beliefs, dedup_tol)
               if np.any(status == 1) else None
               for m, (status, beliefs) in zip(models, found)]
    return out[0] if isinstance(model, PairwiseMRF) else out


def _distance_between(model: PairwiseMRF, beliefs, dedup_tol) -> np.ndarray:
    """Largest per-node log belief ratio between the distinct belief sets."""
    reps: list[np.ndarray] = []
    for b in beliefs:
        if all(float(np.abs(b - r).max()) > dedup_tol for r in reps):
            reps.append(b)
    out = np.zeros(model.num_nodes)
    for i in range(len(reps)):
        for j in range(i):
            for v in range(model.num_nodes):
                k = model.cards[v]
                gap = np.abs(np.log(reps[i][v, :k]) - np.log(reps[j][v, :k]))
                out[v] = max(out[v], float(gap.max()))
    return out


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
    true_log_distance: Optional[np.ndarray] = None


def bound_report(model: PairwiseMRF, strengths=None, n: Optional[int] = None,
                 true_runs: int = 0, seed: int = 0) -> BoundReport:
    """Compute every bound kind for one model, solving each distinct error
    recursion once.

    ``n`` is passed to the per-edge recursions; ``true_runs`` >= 2 adds the
    empirical distance from that many random restarts.
    """
    if strengths is None:
        strengths = compute_strengths(model)
    with _sharing_solves():
        results = {
            "udb": uniform_distance_bound(model, strengths),
            "improved_udb": improved_uniform_distance_bound(model, strengths),
            "ihler_udb": ihler_uniform_distance_bound(model, strengths),
            "nudb": nonuniform_distance_bound(model, strengths, n=n),
            "improved_nudb": nonuniform_distance_bound(model, strengths, n=n,
                                                       improved=True),
            "ihler_nudb": ihler_nonuniform_distance_bound(model, strengths,
                                                          n=n),
        }
    node_bounds = {key: bounds for key, (bounds, _) in results.items()}
    eps = {key: np.full(model.num_directed, e) if np.ndim(e) == 0 else e
           for key, (_, e) in results.items()}

    for key in BOUND_KEYS:
        if np.any(node_bounds[key] < 0.0):
            raise AssertionError(f"{key} produced a negative bound")
    for tight, loose in (("improved_udb", "udb"), ("improved_nudb", "nudb")):
        if np.any(node_bounds[tight] > node_bounds[loose] + 1e-9):
            raise AssertionError(f"{tight} exceeded {loose}")

    true_log = None
    if true_runs >= 2:
        true_log = true_distance(model, seeds=seed, runs=true_runs)
    return BoundReport(node_bounds, eps, true_log)
