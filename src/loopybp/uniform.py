"""Scalar dynamics for completely uniform binary models.

When every node has the same degree, a uniform node potential, and the same
symmetric pairwise potential, all messages share one value and the whole
update collapses to a scalar map F on (0, 1). This module finds its fixed
and quasi-fixed points, classifies the regime, and evaluates the exact
error-variation curve those fixed points induce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .bounds import _Recursion, _solve_uniform

GRID_POINTS = 10000
_VARIATION_GRID = 2000  # sign-scan intervals of error_variation_zeros
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


def _interior(x, a, b, k) -> np.ndarray:
    """Checked inputs of the scalar map: x as an array inside (0, 1)."""
    _validate_abk(a, b, k)
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0) or np.any(x >= 1.0):
        raise ValueError("x must lie in (0, 1)")
    return x


def scalar_update(x, a, b, k):
    """One message update: y = (a x^k + b (1-x)^k) / ((a+b)(x^k + (1-x)^k)).

    Accepts scalars or arrays; x must lie strictly inside (0, 1).
    """
    x = _interior(x, a, b, k)
    xk = x ** k
    yk = (1.0 - x) ** k
    out = (a * xk + b * yk) / ((a + b) * (xk + yk))
    return float(out) if out.ndim == 0 else out


def _scaled_powers(x, k):
    """x^(k-1) and (1-x)^(k-1), both divided by the power of two of the
    larger: exact, and it keeps what is built from them off the subnormal
    range for large k."""
    xk1 = x ** (k - 1)
    yk1 = (1.0 - x) ** (k - 1)
    _, scale = np.frexp(np.maximum(xk1, yk1))
    return np.ldexp(xk1, -scale), np.ldexp(yk1, -scale)


def scalar_derivative(x, a, b, k):
    """Analytic F'(x) by the quotient rule on scaled powers, which the
    quotient cancels; the scaling keeps den * den from underflowing."""
    x = _interior(x, a, b, k)
    xk1, yk1 = _scaled_powers(x, k)
    num = a * x * xk1 + b * (1.0 - x) * yk1
    den = (a + b) * (x * xk1 + (1.0 - x) * yk1)
    dnum = k * (a * xk1 - b * yk1)
    dden = (a + b) * k * (xk1 - yk1)
    out = (dnum * den - num * dden) / (den * den)
    return float(out) if out.ndim == 0 else out


def uniform_belief(x, degree) -> float:
    """Belief at a node of the given degree when every message equals x."""
    if not 0.0 < x < 1.0:
        raise ValueError("x must lie in (0, 1)")
    xk = x ** degree
    return xk / (xk + (1.0 - x) ** degree)


@dataclass
class FixedPointSet:
    """Roots of x = F(x), roots of 1 - x = F(x) that are not fixed points,
    stability flags (|F'| < 1), and the regime read off F'(1/2)."""

    fixed: list
    stability: list
    quasi: list
    regime: str
    slope_at_half: float


def _sign_roots(g, xs, vals) -> list:
    """Roots of g from its values ``vals`` on the ascending grid ``xs``:
    exact zeros on the grid, then a bisection of each sign change down to
    _ROOT_TOL; roots closer than 1e-9 are merged."""
    roots = [float(xs[i]) for i in np.nonzero(vals == 0.0)[0]]
    for i in np.nonzero(vals[:-1] * vals[1:] < 0.0)[0]:
        lo, hi = float(xs[i]), float(xs[i + 1])
        glo = float(vals[i])
        while hi - lo > _ROOT_TOL:
            mid = 0.5 * (lo + hi)
            gmid = float(g(mid))
            if gmid == 0.0:
                lo = hi = mid
                break
            if (glo < 0.0) == (gmid < 0.0):
                lo, glo = mid, gmid
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    roots.sort()
    merged: list[float] = []
    for r in roots:
        if not merged or r - merged[-1] > 1e-9:
            merged.append(r)
    return merged


def _root_function(c, c2, k, x):
    """x - F(x) for (c, c2) = (b, a), F(x) - (1 - x) for (a, b), each times
    a positive factor: c (x^(k+1) - (1-x)^(k+1)) + c2 x (1-x) ((1-x)^(k-1)
    - x^(k-1)) on scaled powers. Factored so, neither rounds to exact zeros
    away from its roots."""
    y = 1.0 - x
    xk1, yk1 = _scaled_powers(x, k)
    return c * (x * x * xk1 - y * y * yk1) + c2 * x * y * (yk1 - xk1)


def fixed_points(a, b, k) -> FixedPointSet:
    """Locate all fixed and quasi-fixed points of F on (0, 1).

    Dense grid plus bisection, so any k works; tangent (double) roots off
    the symmetry point are outside what a sign scan can see.
    """
    _validate_abk(a, b, k)
    xs = np.linspace(0.0, 1.0, GRID_POINTS + 2)[1:-1]
    fixed, quasi_all = (
        _sign_roots(g, xs, g(xs))
        for g in (partial(_root_function, b, a, k),
                  partial(_root_function, a, b, k)))
    quasi = [q for q in quasi_all
             if all(abs(q - f) > 1e-9 for f in fixed)]
    stability = [bool(abs(scalar_derivative(f, a, b, k)) < 1.0)
                 for f in fixed]
    slope = k * (a - b) / (a + b)
    if slope > 1.0:
        regime = "ferromagnetic"
    elif slope < -1.0:
        regime = "anti-ferromagnetic"
    else:
        regime = "paramagnetic"
    return FixedPointSet(fixed, stability, quasi, regime, slope)


def true_error_variation(a, b, k, M, log_E) -> float:
    """Exact error-variation value G(log E) for a fixed-point product M.

    Defined for a > b on 0 <= log E < log(1/M); zero at log E = 0.
    """
    _validate_abk(a, b, k)
    if a <= b:
        raise ValueError("requires a > b")
    if not 0.0 < M < 1.0:
        raise ValueError("M must lie in (0, 1)")
    if log_E < 0.0 or log_E >= math.log(1.0 / M):
        raise ValueError("log_E must lie in [0, log(1/M))")
    me = M * math.exp(log_E)
    u = a * me + b * (1.0 - me)
    v = b * me + a * (1.0 - me)
    u0 = a * M + b * (1.0 - M)
    v0 = b * M + a * (1.0 - M)
    return (k * (math.log(u) - math.log(u0))
            - (math.log(u ** k + v ** k) - math.log(u0 ** k + v0 ** k))
            - log_E)


def error_variation_zeros(a, b, k, M) -> list:
    """Nonzero crossings of G(log E) inside its domain, by sign scan."""
    g = partial(true_error_variation, a, b, k, M)
    ls = np.linspace(0.0, math.log(1.0 / M), _VARIATION_GRID + 1)[1:-1]
    return _sign_roots(g, ls, np.array([g(l) for l in ls]))


def udb_completely_uniform(d_pair, degree) -> float:
    """Belief-level distance bound of one strength and one degree: half of
    ``ihler_uniform_distance_bound`` at a node of such a graph, bit for bit,
    by its recursion on one segment of degree-1 equal terms, assembled over
    the full degree."""
    if d_pair < 1.0:
        raise ValueError("strength must be at least 1")
    if degree < 2:
        raise ValueError("degree must be at least 2")
    # Squared as StrengthTable.d2 squares; one segment, one term per edge.
    seg, v = np.zeros(degree, dtype=int), np.full(degree, float(d_pair) ** 2)
    z = _solve_uniform(_Recursion(1, seg[1:], seg[1:], 1.0, v[1:]))
    return float(_Recursion(1, seg, seg, 1.0, v).sums(z)[0]) if z else 0.0
