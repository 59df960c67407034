"""Distance bounds between sum-product fixed points.

Single-update contractions (delta1, delta2), the per-edge error recursions
they generate, and the node-level log-distance bounds assembled from the
recursions' largest fixed points. All recursions run in log space through
t = exp(-log eps), which keeps the arithmetic stable when eps saturates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

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

    def sums(self, z) -> np.ndarray:
        """Segment sums at one shared z (a float) or at per-value z (an
        array). z = inf is the saturated initialization: t = 0."""
        t = math.exp(-z) if isinstance(z, float) else np.exp(-z[self.feed])
        vals = self.coeff * (np.log(self.v + t) - np.log1p(self.v * t))
        return np.bincount(self.seg, weights=vals, minlength=self.n)


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
    top = float(rec.sums(math.inf).max())
    if top <= 0.0:
        return 0.0
    z = math.log1p(1e-6)
    for _ in range(20):
        z = float(rec.sums(z).max())
    if z <= math.log1p(_ZERO_EPS):
        return 0.0
    z = top
    for _ in range(_MAX_SOLVE):
        znew = float(rec.sums(z).max())
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
        for _ in range(_MAX_SOLVE):
            znew = rec.sums(z)
            if float(np.max(np.abs(znew - z))) <= _REL_TOL * max(1.0, float(z.max())):
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
    terms = _EdgeTerms(model, strengths)
    z = _solve_uniform(terms.recursion(improved=False))
    return terms.node_bounds(terms.dd, z), math.exp(z)


def improved_uniform_distance_bound(model: PairwiseMRF, strengths=None):
    """Same node assembly, but eps_star comes from the single-log recursion
    in squared edge strength, which has a higher zero threshold."""
    terms = _EdgeTerms(model, strengths)
    z = _solve_uniform(terms.recursion(improved=True))
    return terms.node_bounds(terms.dd, z), math.exp(z)


def ihler_uniform_distance_bound(model: PairwiseMRF, strengths=None):
    """Dynamic-range recursion end to end: the single-log eps fixed point
    assembled with the squared edge strength."""
    terms = _EdgeTerms(model, strengths)
    z = _solve_uniform(terms.recursion(improved=True))
    return terms.node_bounds(terms.d2, z), math.exp(z)


def nonuniform_distance_bound(model: PairwiseMRF, strengths=None,
                              n: Optional[int] = None, improved=False):
    """Per-edge eps recursion kept separate per directed edge.

    ``n`` counts recursion steps including the saturated initialization;
    None runs to the fixed point. ``improved`` switches the per-edge
    recursion to the single-log squared-strength form. Returns
    (bounds, per-directed-edge eps array).
    """
    terms = _EdgeTerms(model, strengths)
    z = _solve_nonuniform(terms.recursion(improved), n)
    return terms.node_bounds(terms.dd, z), np.exp(z)


def ihler_nonuniform_distance_bound(model: PairwiseMRF, strengths=None,
                                    n: Optional[int] = None):
    terms = _EdgeTerms(model, strengths)
    z = _solve_nonuniform(terms.recursion(improved=True), n)
    return terms.node_bounds(terms.d2, z), np.exp(z)


# -- empirical distance ----------------------------------------------------


def true_distance(model: PairwiseMRF, seeds: int = 0, runs: int = 12,
                  max_iters: int = 5000, tol: float = 1e-10,
                  dedup_tol: float = 1e-6) -> Optional[np.ndarray]:
    """Largest per-node log belief ratio across fixed points discovered by
    seeded random restarts. None when no restart converges; zeros when all
    converged restarts agree.
    """
    if runs < 2:
        raise ValueError("need at least 2 runs")
    from .engine import _Layout, _beliefs_batch, _random_logm, _run_batch
    if model.num_directed == 0:
        return np.zeros(model.num_nodes)
    layout = _Layout(model)
    logm0 = _random_logm(layout, [seeds + r for r in range(runs)])
    status, _, snap, _ = _run_batch(layout, logm0, max_iters, tol,
                                    detect_oscillation=False)
    good = status == 1
    if not np.any(good):
        return None
    beliefs = _beliefs_batch(layout, snap[good])
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
    """Compute every bound kind for one model.

    ``n`` is passed to the per-edge recursions; ``true_runs`` >= 2 adds the
    empirical distance from that many random restarts.
    """
    if strengths is None:
        strengths = compute_strengths(model)
    n_dir = model.num_directed
    node_bounds = {}
    eps = {}
    for key, (bounds, eps_val) in (
            ("udb", uniform_distance_bound(model, strengths)),
            ("improved_udb", improved_uniform_distance_bound(model, strengths)),
            ("ihler_udb", ihler_uniform_distance_bound(model, strengths))):
        node_bounds[key] = bounds
        eps[key] = np.full(n_dir, eps_val)
    for key, improved in (("nudb", False), ("improved_nudb", True)):
        bounds, eps_vec = nonuniform_distance_bound(model, strengths, n=n,
                                                    improved=improved)
        node_bounds[key] = bounds
        eps[key] = eps_vec
    bounds, eps_vec = ihler_nonuniform_distance_bound(model, strengths, n=n)
    node_bounds["ihler_nudb"] = bounds
    eps["ihler_nudb"] = eps_vec

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
