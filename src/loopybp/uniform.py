"""Scalar dynamics for completely uniform binary models.

When every node has the same degree, a uniform node potential, and the same
symmetric pairwise potential, all messages share one value and the whole
update collapses to a scalar map F on (0, 1). In the log ratio
h = atanh(2x - 1) it reads tanh h' = tanh J tanh(k h), with
tanh J = (a - b)/(a + b), so its fixed and quasi-fixed points are known in
closed form (Mooij & Kappen, JSTAT 2005). This module counts and locates
them and classifies the regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

GRID_POINTS = 10000  # interior points of the grid whose cells bracket roots
_ROOT_TOL = 1e-12
_TINY = float(np.finfo(float).tiny)  # the smallest normal float
# Near x = 1/2, x**k + (1-x)**k is about 2 * 0.5**k: subnormal, so
# imprecise, past k = 1022, and 0 (a NaN ratio) from k = 1075 on.
_MAX_K = 1022


def _validate_abk(a, b, k):
    # Below the smallest normal float, an entry times a factor below 1 can
    # round to 0, and fixed_points' root functions would read exact zeros.
    if a < _TINY or b < _TINY:
        raise ValueError(f"potential entries must be at least {_TINY!r}")
    if k < 1:
        raise ValueError("incoming count k must be at least 1")
    if k > _MAX_K:
        raise ValueError(f"incoming count k must be at most {_MAX_K}")


def _scaled_powers(x, k):
    """x^(k-1) and (1-x)^(k-1), both divided by the power of two of the
    larger: exact, and it keeps what is built from them off the subnormal
    range for large k."""
    xk1 = x ** (k - 1)
    yk1 = (1.0 - x) ** (k - 1)
    _, scale = np.frexp(np.maximum(xk1, yk1))
    return np.ldexp(xk1, -scale), np.ldexp(yk1, -scale)


def _scalar_derivative(x, a, b, k):
    """Analytic F'(x) by the quotient rule on scaled powers, which the
    quotient cancels; the scaling keeps den * den from underflowing. x is
    taken as a numpy float: a Python float's powers can differ in the last
    bit, which near |F'| = 1 can flip a stability flag."""
    x = np.asarray(x, dtype=float)
    xk1, yk1 = _scaled_powers(x, k)
    num = a * x * xk1 + b * (1.0 - x) * yk1
    den = (a + b) * (x * xk1 + (1.0 - x) * yk1)
    dnum = k * (a * xk1 - b * yk1)
    dden = (a + b) * k * (xk1 - yk1)
    out = (dnum * den - num * dden) / (den * den)
    return float(out)


def uniform_belief(x, degree) -> float:
    """Belief at a node of the given degree when every message equals x."""
    if not 0.0 < x < 1.0:
        raise ValueError("x must lie in (0, 1)")
    xk = x ** degree
    return xk / (xk + (1.0 - x) ** degree)


@dataclass
class FixedPointSet:
    """Roots of x = F(x), roots of 1 - x = F(x) that are not fixed points
    (the two ends of the period-2 orbit), each list ascending; stability
    flags (|F'| < 1) of the fixed points, and the regime read off
    F'(1/2)."""

    fixed: list
    stability: list
    quasi: list
    regime: str
    slope_at_half: float


def _root_function(c, c2, k, x):
    """x - F(x) for (c, c2) = (b, a), F(x) - (1 - x) for (a, b), each times
    a positive factor: c (x^(k+1) - (1-x)^(k+1)) + c2 x (1-x) ((1-x)^(k-1)
    - x^(k-1)) on scaled powers. Factored so, neither rounds to exact zeros
    away from its roots."""
    y = 1.0 - x
    xk1, yk1 = _scaled_powers(x, k)
    return c * (x * x * xk1 - y * y * yk1) + c2 * x * y * (yk1 - xk1)




def _bisect(g, lo, hi, glo) -> float:
    """A root of g on [lo, hi], where g has the sign of glo just above lo
    and the other sign at hi: bisection down to _ROOT_TOL, stopped by an
    exact zero."""
    while hi - lo > _ROOT_TOL:
        mid = 0.5 * (lo + hi)
        gmid = float(g(mid))
        if gmid == 0.0:
            return mid
        if (glo < 0.0) == (gmid < 0.0):
            lo, glo = mid, gmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _refine(g, x) -> float:
    """The root of g near x, bisected in the cell of the grid that holds x.

    The grid is the one a sign scan read at GRID_POINTS interior points,
    with its ends 0 and 1, and g has the shape of both root functions in a
    regime with a pair: negative at 0, positive between the lower member
    and 1/2, negative between 1/2 and the upper member, positive at 1. A
    cell that holds the root 1/2 is cut there, to x's side. A grid point
    where g is exactly zero is the root. If the cell of x shows no sign
    change, its neighbours on x's side of 1/2 are tried, as the root may
    lie across a grid point from x; if none shows one either, x is
    returned.
    """
    grid = np.linspace(0.0, 1.0, GRID_POINTS + 2)
    i = min(int(np.searchsorted(grid, x, side="right")) - 1, GRID_POINTS)
    for c in (i, i - 1, i + 1):
        if not 0 <= c <= GRID_POINTS:
            continue
        lo, hi = float(grid[c]), float(grid[c + 1])
        glo, ghi = g(grid[c:c + 2])
        if lo < 0.5 < hi:
            if x < 0.5:
                hi, ghi = 0.5, 1.0
            else:
                lo, glo = 0.5, -1.0
        elif (lo < 0.5) != (x < 0.5):  # across 1/2 from x
            continue
        if glo == 0.0 or ghi == 0.0:
            return lo if glo == 0.0 else hi
        if glo * ghi < 0.0:
            return _bisect(g, lo, hi, glo)
    return x


def _pair_log_ratio(t, k) -> float:
    """The h > 0 with tanh h = t tanh(k h), for 1/k < t < 1: bisection on
    [0, 20], where tanh h - t tanh(k h) is negative below the root and not
    negative above it. Past h = 20, x = 1/(1 + e^(-2h)) rounds to 1."""
    lo, hi = 0.0, 20.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if math.tanh(mid) < t * math.tanh(k * mid):
            lo = mid
        else:
            hi = mid
    return lo


def fixed_points(a, b, k) -> FixedPointSet:
    """All fixed and quasi-fixed points of F on (0, 1), from the theorem.

    With tanh J = (a - b)/(a + b), the slope at 1/2 is k tanh J, and 1/2
    is always a fixed point. Past slope 1 there is one more pair of fixed
    points, below slope -1 one pair of quasi points, and otherwise none. A
    pair is x and 1 - x with x = 1/(1 + e^(-2h)), where h > 0 solves
    tanh h = |tanh J| tanh(k h); each member is then refined by bisection.
    """
    _validate_abk(a, b, k)
    slope = k * (a - b) / (a + b)
    fixed, quasi = [0.5], []
    if abs(slope) > 1.0:
        h = _pair_log_ratio(abs(a - b) / (a + b), k)
        # Kept above 1/2, so that the members take opposite sides of it.
        x = max(1.0 / (1.0 + math.exp(-2.0 * h)), math.nextafter(0.5, 1.0))
        g = partial(_root_function, *((b, a) if slope > 0.0 else (a, b)), k)
        low, high = _refine(g, 1.0 - x), _refine(g, x)
        if slope > 0.0:
            fixed = [low, 0.5, high]
        else:
            quasi = [low, high]
    stability = [bool(abs(_scalar_derivative(f, a, b, k)) < 1.0)
                 for f in fixed]
    if slope > 1.0:
        regime = "ferromagnetic"
    elif slope < -1.0:
        regime = "anti-ferromagnetic"
    else:
        regime = "paramagnetic"
    return FixedPointSet(fixed, stability, quasi, regime, slope)
