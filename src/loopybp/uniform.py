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
_ROOT_TOL = 1e-12


def _validate_abk(a, b, k):
    if a <= 0.0 or b <= 0.0:
        raise ValueError("potential entries must be positive")
    if k < 1:
        raise ValueError("incoming count k must be at least 1")
    # Near x = 1/2, x**k + (1-x)**k is about 2 * 0.5**k: subnormal, so
    # imprecise, past k = 1022, and 0 (a NaN ratio) from k = 1075 on.
    if k > 1022:
        raise ValueError("incoming count k must be at most 1022")


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


def scalar_derivative(x, a, b, k):
    """Analytic F'(x) by the quotient rule, with x^(k-1) and (1-x)^(k-1)
    divided by the power of two of the larger: exact, cancelled by the
    quotient, and it keeps den * den from underflowing for large k."""
    x = _interior(x, a, b, k)
    xk1 = x ** (k - 1)
    yk1 = (1.0 - x) ** (k - 1)
    _, scale = np.frexp(np.maximum(xk1, yk1))
    xk1 = np.ldexp(xk1, -scale)
    yk1 = np.ldexp(yk1, -scale)
    num = a * x * xk1 + b * (1.0 - x) * yk1
    den = (a + b) * (x * xk1 + (1.0 - x) * yk1)
    dnum = k * (a * xk1 - b * yk1)
    dden = (a + b) * k * (xk1 - yk1)
    out = (dnum * den - num * dden) / (den * den)
    return float(out) if out.ndim == 0 else out


def incoming_product(x, k) -> float:
    """Normalized product of k equal incoming messages with value x."""
    if not 0.0 < x < 1.0:
        raise ValueError("x must lie in (0, 1)")
    xk = x ** k
    return xk / (xk + (1.0 - x) ** k)


def uniform_belief(x, degree) -> float:
    """Belief at a node of the given degree when every message equals x."""
    return incoming_product(x, degree)


@dataclass
class FixedPointSet:
    """Roots of x = F(x), roots of 1 - x = F(x) that are not fixed points,
    stability flags (|F'| < 1), and the regime read off F'(1/2)."""

    fixed: list
    stability: list
    quasi: list
    regime: str
    slope_at_half: float


def _sign_roots(g, xs, vals, tol) -> list:
    """Roots of g from its values ``vals`` on the ascending grid ``xs``:
    exact zeros on the grid, then a bisection of each sign change down to
    tol; roots closer than 1e-9 are merged."""
    roots = [float(xs[i]) for i in np.nonzero(vals == 0.0)[0]]
    for i in np.nonzero(vals[:-1] * vals[1:] < 0.0)[0]:
        lo, hi = float(xs[i]), float(xs[i + 1])
        glo = float(vals[i])
        while hi - lo > tol:
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


def fixed_points(a, b, k, tol=_ROOT_TOL) -> FixedPointSet:
    """Locate all fixed and quasi-fixed points of F on (0, 1).

    Dense grid plus bisection, so any k works; tangent (double) roots off
    the symmetry point are outside what a sign scan can see.
    """
    _validate_abk(a, b, k)
    xs = np.linspace(0.0, 1.0, GRID_POINTS + 2)[1:-1]
    fixed, quasi_all = (
        _sign_roots(g, xs, g(xs), tol)
        for g in (lambda x: x - scalar_update(x, a, b, k),
                  lambda x: 1.0 - x - scalar_update(x, a, b, k)))
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


def error_variation_zeros(a, b, k, M, grid=2000, tol=_ROOT_TOL) -> list:
    """Nonzero crossings of G(log E) inside its domain, by sign scan."""
    g = partial(true_error_variation, a, b, k, M)
    ls = np.linspace(0.0, math.log(1.0 / M), grid + 1)[1:-1]
    return _sign_roots(g, ls, np.array([g(l) for l in ls]), tol)


def udb_completely_uniform(d_pair, degree) -> float:
    """Belief-level distance bound specialized to one strength and one
    degree: the graph solver's single-log eps recursion on one segment fed
    by degree-1 equal terms, assembled over the full degree.
    """
    if d_pair < 1.0:
        raise ValueError("strength must be at least 1")
    if degree < 2:
        raise ValueError("degree must be at least 2")
    d2 = d_pair * d_pair
    one_segment = np.zeros(degree - 1, dtype=int)
    z = _solve_uniform(_Recursion(1, one_segment, one_segment, 1.0,
                                  np.full(degree - 1, d2)))
    if z == 0.0:
        return 0.0
    t = math.exp(-z)
    return degree * (math.log(d2 + t) - math.log1p(d2 * t))
