import math
import random
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from loopybp import (
    build_generator,
    compute_strengths,
    fixed_points,
    ihler_uniform_distance_bound,
    uniform_belief,
)
from loopybp.bounds import _Recursion, _solve_uniform
from loopybp.uniform import (_TINY, _root_function, _scalar_derivative,
                             _validate_abk)

# One-dimensional anchors at eta=0.7 with three incoming edges.
X_STAR = 0.6386750490563071
BELIEF_DEG4 = 0.9070783698104501
M3 = 0.8466876226407679


# -- scalar routes that only these tests call ----------------------------


def scalar_update(x, a, b, k):
    """One message update: y = (a x^k + b (1-x)^k) / ((a+b)(x^k + (1-x)^k)).

    Accepts scalars or arrays; x must lie strictly inside (0, 1).
    """
    _validate_abk(a, b, k)
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0) or np.any(x >= 1.0):
        raise ValueError("x must lie in (0, 1)")
    xk = x ** k
    yk = (1.0 - x) ** k
    out = (a * xk + b * yk) / ((a + b) * (xk + yk))
    return float(out) if out.ndim == 0 else out


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
    """Nonzero crossings of G(log E) inside its domain, by a 2,000-interval
    sign scan; crossings closer than 1e-9 are merged."""
    g = partial(true_error_variation, a, b, k, M)
    ls = np.linspace(0.0, math.log(1.0 / M), 2001)[1:-1]
    return _old_bisect_roots(g, ls, np.array([g(l) for l in ls]), 1e-12,
                             merge=True)


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


# -- the scalar map and its fixed points -----------------------------------


def test_scalar_update_matches_oracle():
    for x in (0.1, 0.37, 0.5, 0.82):
        assert scalar_update(x, 0.7, 0.3, 3) == pytest.approx(
            oracles.scalar_map(x, 0.7, 0.3, 3), abs=1e-14)


def test_scalar_update_domain():
    # 0.5**1023 is subnormal, and x**k + (1-x)**k near 1/2 loses precision.
    for k in (1023, 3000):
        with pytest.raises(ValueError, match="at most 1022"):
            fixed_points(0.7, 0.3, k)
    assert scalar_update(0.5, 0.7, 0.3, 1022) == 0.5
    with pytest.raises(ValueError):
        scalar_update(0.0, 0.7, 0.3, 3)
    with pytest.raises(ValueError):
        scalar_update(1.0, 0.7, 0.3, 3)
    with pytest.raises(ValueError):
        scalar_update(0.5, -0.7, 0.3, 3)


@settings(max_examples=150, deadline=None)
@given(st.floats(min_value=0.05, max_value=0.95),
       st.floats(min_value=0.1, max_value=0.9),
       st.integers(min_value=1, max_value=5))
def test_scalar_derivative_matches_finite_difference(x, a, k):
    b = 1.0 - a
    h = 1e-6
    lo = max(x - h, 1e-9)
    hi = min(x + h, 1 - 1e-9)
    numeric = (oracles.scalar_map(hi, a, b, k)
               - oracles.scalar_map(lo, a, b, k)) / (hi - lo)
    assert _scalar_derivative(x, a, b, k) == pytest.approx(numeric, abs=5e-5)


def test_slope_at_half_closed_form():
    for a, b, want in ((0.7, 0.3, 1.2), (0.6, 0.4, 0.6), (0.3, 0.7, -1.2)):
        assert _scalar_derivative(0.5, a, b, 3) == pytest.approx(want,
                                                                 abs=1e-12)


def test_ferromagnetic_fixed_points():
    fp = fixed_points(0.7, 0.3, 3)
    assert fp.regime == "ferromagnetic"
    assert fp.slope_at_half == pytest.approx(1.2, abs=1e-12)
    assert len(fp.fixed) == 3
    assert fp.fixed[1] == pytest.approx(0.5, abs=1e-12)
    assert fp.fixed[2] == pytest.approx(X_STAR, abs=1e-9)
    assert fp.fixed[0] == pytest.approx(1.0 - X_STAR, abs=1e-9)
    assert fp.stability == [True, False, True]
    assert fp.quasi == []
    want = oracles.scalar_fixed_point(0.7, 0.3, 3)
    assert fp.fixed[2] == pytest.approx(want, abs=1e-9)


def test_paramagnetic_regime():
    fp = fixed_points(0.6, 0.4, 3)
    assert fp.regime == "paramagnetic"
    assert fp.fixed == [pytest.approx(0.5, abs=1e-12)]
    assert fp.stability == [True]
    fp_flat = fixed_points(0.9, 0.1, 1)
    assert fp_flat.regime == "paramagnetic"
    assert len(fp_flat.fixed) == 1


def test_antiferromagnetic_quasi_points():
    fp = fixed_points(0.3, 0.7, 3)
    assert fp.regime == "anti-ferromagnetic"
    assert fp.slope_at_half == pytest.approx(-1.2, abs=1e-12)
    assert fp.fixed == [pytest.approx(0.5, abs=1e-12)]
    assert fp.stability == [False]
    # Quasi points are the off-center fixed points of the mirrored map, the
    # two ends of the period-2 orbit.
    assert len(fp.quasi) == 2
    assert sorted(fp.quasi) == [pytest.approx(1.0 - X_STAR, abs=1e-9),
                                pytest.approx(X_STAR, abs=1e-9)]


def test_quasi_points_swap_under_the_map():
    fp = fixed_points(0.3, 0.7, 3)
    lo, hi = sorted(fp.quasi)
    assert scalar_update(lo, 0.3, 0.7, 3) == pytest.approx(hi, abs=1e-9)
    assert scalar_update(hi, 0.3, 0.7, 3) == pytest.approx(lo, abs=1e-9)


def test_belief_and_incoming_product_anchors():
    # The belief of a degree-k node is the product of k incoming messages.
    assert uniform_belief(X_STAR, 3) == pytest.approx(M3, abs=1e-10)
    assert uniform_belief(X_STAR, 4) == pytest.approx(BELIEF_DEG4, abs=1e-10)
    assert uniform_belief(0.5, 4) == pytest.approx(0.5, abs=1e-14)
    for x in (0.0, 1.0):
        with pytest.raises(ValueError, match=r"x must lie in \(0, 1\)"):
            uniform_belief(x, 4)


def test_error_variation_vanishes_at_origin():
    for M in (0.3, 0.5, 0.7):
        assert true_error_variation(0.7, 0.3, 3, M, 0.0) == pytest.approx(
            0.0, abs=1e-12)


def test_error_variation_domain():
    with pytest.raises(ValueError):
        true_error_variation(0.3, 0.7, 3, 0.5, 0.1)   # needs a > b
    with pytest.raises(ValueError):
        true_error_variation(0.7, 0.3, 3, 0.5, -0.1)
    with pytest.raises(ValueError):
        # log E must stay below log(1/M).
        true_error_variation(0.7, 0.3, 3, 0.5, math.log(2.0) + 0.01)


def test_error_variation_crossings():
    """Nonzero crossings sit exactly at log(M'/M) for the fixed-point message
    products, and disappear when the domain cannot reach them."""
    zeros = error_variation_zeros(0.7, 0.3, 3, 0.5)
    assert len(zeros) == 1
    assert zeros[0] == pytest.approx(math.log(M3 / 0.5), abs=1e-9)

    small = 1.0 - M3
    zeros = error_variation_zeros(0.7, 0.3, 3, small)
    assert len(zeros) == 2
    assert zeros[0] == pytest.approx(math.log(0.5 / small), abs=1e-9)
    assert zeros[1] == pytest.approx(math.log(M3 / small), abs=1e-9)

    assert error_variation_zeros(0.7, 0.3, 3, M3) == []


def _old_bisect_roots(g, xs, vals, tol, merge):
    """The two sign-scan root finders as they were before they shared one
    helper: ``fixed_points`` evaluated g on 0-d arrays and merged roots
    closer than 1e-9, ``error_variation_zeros`` did neither."""
    roots = [float(xs[i]) for i in np.nonzero(vals == 0.0)[0]]
    for i in np.nonzero(vals[:-1] * vals[1:] < 0.0)[0]:
        lo, hi = float(xs[i]), float(xs[i + 1])
        glo = float(vals[i])
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            gmid = float(g(np.asarray(mid))) if merge else g(mid)
            if gmid == 0.0:
                lo = hi = mid
                break
            if (glo < 0.0) == (gmid < 0.0):
                lo, glo = mid, gmid
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    roots.sort()
    if not merge:
        return roots
    merged = []
    for r in roots:
        if not merged or r - merged[-1] > 1e-9:
            merged.append(r)
    return merged


def _scan_rows(fixed_g, quasi_g):
    """Fixed and quasi rows of the 10,000-point sign scan, from a function
    whose roots are the fixed points and one whose roots are those and the
    quasi points."""
    xs = np.linspace(0.0, 1.0, 10002)[1:-1]

    def roots(g):
        return _old_bisect_roots(g, xs, g(xs), 1e-12, merge=True)

    fixed = roots(fixed_g)
    quasi = [q for q in roots(quasi_g)
             if all(abs(q - f) > 1e-9 for f in fixed)]
    return fixed, quasi


def _old_fixed_points(a, b, k):
    return _scan_rows(lambda x: x - scalar_update(x, a, b, k),
                      lambda x: 1.0 - x - scalar_update(x, a, b, k))


def _scan_fixed_points(a, b, k):
    """The scan on the root functions ``fixed_points`` factors to keep off
    exact zeros: the reference for its rows wherever the count is right."""
    return _scan_rows(partial(_root_function, b, a, k),
                      partial(_root_function, a, b, k))


def _old_error_variation_zeros(a, b, k, M, grid=2000, tol=1e-12):
    ls = np.linspace(0.0, math.log(1.0 / M), grid + 1)[1:-1]
    vals = np.array([true_error_variation(a, b, k, M, l) for l in ls])
    return _old_bisect_roots(lambda l: true_error_variation(a, b, k, M, l),
                             ls, vals, tol, merge=False)


@pytest.mark.parametrize("k", range(1, 8))
def test_fixed_points_match_old_root_finder(k):
    for eta in np.linspace(0.05, 0.95, 13):
        eta = float(eta)
        fp = fixed_points(eta, 1.0 - eta, k)
        assert (fp.fixed, fp.quasi) == _old_fixed_points(eta, 1.0 - eta, k)


def _eta_with_fixed_point_at(x, k):
    """The eta whose map F(x) = (eta x^k + (1-eta) (1-x)^k) / (x^k + (1-x)^k)
    fixes x, to rounding."""
    xk, yk = x ** k, (1.0 - x) ** k
    ratio = (yk - x * (xk + yk)) / (x * (xk + yk) - xk)
    return ratio / (1.0 + ratio)


def test_fixed_points_match_the_scan_where_its_count_is_right():
    # The grid of etas covers the benchmark's fixed-points calls, eta 0.3,
    # 0.6 and 0.8 at degrees 2 to 6. A fixed point put on a grid point
    # makes its sign change, or an exact zero, fall in a cell next to the
    # closed form's; at k = 35 the one next to the cell of 1/2.
    rng = random.Random(0)
    pairs = [(i / 100, k) for i in range(1, 100)
             for k in (1, 2, 3, 4, 5, 7, 19, 99, 1022)]
    pairs += [(rng.random(), rng.randint(1, 1022)) for _ in range(200)]
    grid = np.linspace(0.0, 1.0, 10002)
    pairs += [(_eta_with_fixed_point_at(float(grid[j]), k), k)
              for k in (2, 3, 35) for j in range(5001, 10001, 100)]
    compared = 0
    for eta, k in pairs:
        fp = fixed_points(eta, 1.0 - eta, k)
        fixed, quasi = _scan_fixed_points(eta, 1.0 - eta, k)
        if (len(fixed), len(quasi)) == (len(fp.fixed), len(fp.quasi)):
            assert (fp.fixed, fp.quasi) == (fixed, quasi), (eta, k)
            compared += 1
    assert compared >= 1000


@pytest.mark.parametrize("eta, fixed, quasi", [
    # Both members of the pair shared the scan cell of 1/2 ...
    (0.66666667, [0.4999566987121854, 0.5, 0.5000433012878144], []),
    (0.33333333, [0.5], [0.4999566987121854, 0.5000433012878144]),
    # ... or lay outside the scan grid [1/10001, 10000/10001].
    (1e-6, [0.5], [1.0000000016926028e-06, 0.9999989999999982])])
def test_fixed_points_the_scan_dropped(eta, fixed, quasi):
    assert _scan_fixed_points(eta, 1.0 - eta, 3) == ([0.5], [])
    fp = fixed_points(eta, 1.0 - eta, 3)
    assert (fp.fixed, fp.quasi) == (fixed, quasi)
    if quasi:
        assert fp.stability == [False]
    else:
        assert fp.stability == [True, False, True]


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=_TINY, max_value=1.0, exclude_max=True),
       st.integers(min_value=2, max_value=1023))
def test_fixed_point_rows_follow_the_theorem(eta, degree):
    """In h = atanh(2x - 1), F reads tanh h' = tanh J tanh(k h). Beside
    h = 0 there is one pair of fixed points when k tanh J > 1, one
    period-2 orbit when k tanh J < -1, and nothing else (Mooij & Kappen,
    JSTAT 2005)."""
    a, b, k = eta, 1.0 - eta, degree - 1
    fp = fixed_points(a, b, k)
    assert len(fp.fixed) == (3 if fp.slope_at_half > 1.0 else 1)
    assert len(fp.quasi) == (2 if fp.slope_at_half < -1.0 else 0)
    assert 0.5 in fp.fixed
    for rows, target in ((fp.fixed, lambda x: x), (fp.quasi, lambda x: 1 - x)):
        assert all(0.0 < x < y < 1.0 for x, y in zip(rows, rows[1:]))
        for x in rows:
            assert abs(oracles.scalar_map(x, a, b, k) - target(x)) <= 1e-9


@pytest.mark.parametrize("a, b, k, M", [
    (0.7, 0.3, 3, 0.5), (0.7, 0.3, 3, 1.0 - M3), (0.7, 0.3, 3, M3),
    (0.8, 0.2, 4, 0.05)])
def test_error_variation_zeros_match_old_root_finder(a, b, k, M):
    assert error_variation_zeros(a, b, k, M) == \
        _old_error_variation_zeros(a, b, k, M)


def test_error_variation_zero_values_really_vanish():
    for z in error_variation_zeros(0.7, 0.3, 3, 1.0 - M3):
        assert true_error_variation(0.7, 0.3, 3, 1.0 - M3, z) == pytest.approx(
            0.0, abs=1e-9)


def test_completely_uniform_bound_matches_graph_route():
    # Both routes run the same solver and the same assembly on the same
    # squared strength, so they agree bit for bit. The last three catch a
    # scalar route with arithmetic of its own: it differs there in the last
    # bit.
    for degree, model in ((3, build_generator("complete:4", 0.8)),
                          (4, build_generator("torus:3x3", 0.7)),
                          (5, build_generator("complete:6", 0.7)),
                          (4, build_generator("torus:3x3", 0.67)),
                          (4, build_generator("torus:3x3", 0.69)),
                          (5, build_generator("complete:6", 0.63))):
        d = compute_strengths(model).pair(0, 1)
        graph, _ = ihler_uniform_distance_bound(model)
        scalar = udb_completely_uniform(d, degree)
        assert scalar > 0.0
        assert all(scalar == float(g) / 2.0 for g in graph)
    assert udb_completely_uniform(math.sqrt(7.0 / 3.0), 4) == pytest.approx(
        2.2784724001499472, abs=1e-9)


def test_completely_uniform_bound_zero_region():
    d_sub = math.sqrt(0.74 / 0.26)
    assert udb_completely_uniform(d_sub, 3) == 0.0
    d_sup = math.sqrt(0.76 / 0.24)
    assert udb_completely_uniform(d_sup, 3) > 0.0


def test_completely_uniform_bound_equals_true_gap():
    # In the ferromagnetic regime the scalar route reproduces the log ratio
    # of the two mirror beliefs.
    gap = math.log(BELIEF_DEG4 / (1.0 - BELIEF_DEG4))
    d = math.sqrt(7.0 / 3.0)
    assert udb_completely_uniform(d, 4) == pytest.approx(gap, abs=1e-9)
