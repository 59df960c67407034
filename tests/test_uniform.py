import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from loopybp import (
    build_generator,
    compute_strengths,
    error_variation_zeros,
    fixed_points,
    ihler_uniform_distance_bound,
    scalar_derivative,
    scalar_update,
    true_error_variation,
    udb_completely_uniform,
    uniform_belief,
)

# One-dimensional anchors at eta=0.7 with three incoming edges.
X_STAR = 0.6386750490563071
BELIEF_DEG4 = 0.9070783698104501
M3 = 0.8466876226407679


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
    assert scalar_derivative(x, a, b, k) == pytest.approx(numeric, abs=5e-5)


def test_slope_at_half_closed_form():
    assert scalar_derivative(0.5, 0.7, 0.3, 3) == pytest.approx(1.2, abs=1e-12)
    assert scalar_derivative(0.5, 0.6, 0.4, 3) == pytest.approx(0.6, abs=1e-12)
    assert scalar_derivative(0.5, 0.3, 0.7, 3) == pytest.approx(-1.2, abs=1e-12)


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


def _old_fixed_points(a, b, k, tol=1e-12):
    xs = np.linspace(0.0, 1.0, 10002)[1:-1]

    def roots(g):
        return _old_bisect_roots(g, xs, g(xs), tol, merge=True)

    fixed = roots(lambda x: x - scalar_update(x, a, b, k))
    quasi = [q for q in roots(lambda x: 1.0 - x - scalar_update(x, a, b, k))
             if all(abs(q - f) > 1e-9 for f in fixed)]
    return fixed, quasi


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
