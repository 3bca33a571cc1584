"""Property tests over wide ranges: |x| up to 1e6 and t up to 1e3, and the
array maps up to the modelled range 1e150."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import shocklab.godunov as fv
from shocklab.burgers import psi_classical, psi_classical_array, psi_weak, psi_weak_array
from shocklab.characteristics import (
    BoundaryCurve,
    RegionTag,
    boundary_x,
    classify,
    classify_array,
    foot_classical,
    foot_classical_array,
    foot_weak,
    foot_weak_array,
    shock_feet,
)
from shocklab.core import GEOM_TOL, DomainError, OnShockError, OutsideDomain, Point, SolutionVariant
from shocklab.geometry import metric, shock_tangent_norms
from shocklab.wave_potential import phi, phi_array

W, CL = SolutionVariant.WEAK, SolutionVariant.CLASSICAL
EPS = np.finfo(float).eps

T = st.floats(min_value=0.0, max_value=1e3)
X = st.floats(min_value=-1e6, max_value=1e6)
NEAR = st.floats(min_value=-20.0, max_value=20.0)
POINTS = st.lists(st.tuples(T, st.one_of(X, NEAR)), min_size=1, max_size=40)


def arrays(points):
    return np.array([p[0] for p in points]), np.array([p[1] for p in points])


def residual(t, x, u):
    return u - t * np.arctan(u) - (x - 2.0 * t)


def rounding(t, x, u):
    """A few ulps of the largest term of the characteristic residual."""
    return 8.0 * EPS * (np.abs(u) + t * math.pi / 2 + np.abs(x) + 2.0 * t)


@st.composite
def near_curves(draw):
    """Points within a few geom_tol of B, C, K or the crease, or anywhere."""
    t = draw(st.one_of(T, st.floats(min_value=0.9, max_value=3.0)))
    kind = draw(st.sampled_from(["B", "C", "K", "crease", "free"]))
    off = draw(st.floats(min_value=-1e-9, max_value=1e-9))
    if kind == "free":
        return t, draw(st.one_of(X, NEAR))
    if kind == "crease":
        return 1.0 + draw(st.floats(min_value=-1e-9, max_value=1e-9)), 2.0 + off
    if t < 1.0:
        t = 2.0 - t
    curve = {"B": BoundaryCurve.SINGULAR_BOUNDARY, "C": BoundaryCurve.CAUCHY_HORIZON,
             "K": BoundaryCurve.SHOCK}[kind]
    return t, boundary_x(curve, t) + off


@settings(deadline=None)
@given(POINTS)
def test_weak_foot_residual_is_rounding(points):
    t, x = arrays(points)
    u = foot_weak_array(t, x)
    assert np.all(np.abs(residual(t, x, u)) <= rounding(t, x, u))


@settings(deadline=None)
@given(POINTS)
def test_classical_foot_residual_is_rounding(points):
    t, x = arrays(points)
    keep = classify_array(t, x) != RegionTag.WEAK_ONLY
    t, x = t[keep], x[keep]
    u = foot_classical_array(t, x)
    r = np.abs(residual(t, x, u))
    # a point inside the band left of B takes the branch point, whose
    # residual is its distance to B
    on_band = np.isin(classify_array(t, x), [RegionTag.ON_SINGULAR_BOUNDARY, RegionTag.ON_CREASE,
                                                  RegionTag.ON_SHOCK])
    assert np.all((r <= rounding(t, x, u)) | (on_band & (r <= 3.0 * GEOM_TOL)))


@settings(deadline=None)
@given(
    t=T,
    x0=st.one_of(X, NEAR),
    gaps=st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=40),
)
def test_weak_field_nonincreasing_in_x(t, x0, gaps):
    # samples at least 1e-6 apart relative to the problem's scale, so that
    # the exact differences exceed the rounding of each value
    scale = 1.0 + abs(x0) + t
    x = x0 + np.concatenate([[0.0], np.cumsum(gaps) * scale])
    x = x[x <= 1e6]
    v = psi_weak_array(np.full_like(x, t), x)
    assert np.all(np.diff(v) <= 0.0)


def assert_scalar_equals_array(points):
    """Scalar feet, fields and potentials equal the batch's, bit for bit, at
    every point, and both paths put the same points outside the classical
    domain."""
    t, x = arrays(points)
    weak_feet, weak_psi, weak_phi = foot_weak_array(t, x), psi_weak_array(t, x), phi_array(t, x, W)
    inside = classify_array(t, x) != RegionTag.WEAK_ONLY
    classical_feet = foot_classical_array(t[inside], x[inside])
    classical_psi = psi_classical_array(t[inside], x[inside])
    classical_phi = phi_array(t[inside], x[inside], CL)
    k = 0
    for i, (a, b) in enumerate(points):
        p = Point(a, b)
        assert phi(p, W) == weak_phi[i]
        try:
            assert foot_weak(p) == weak_feet[i]
            assert psi_weak(p) == weak_psi[i]
        except OnShockError:
            assert a > 1.0 and abs(b - 2.0 * a) <= GEOM_TOL
        try:
            f = phi(p, CL)
        except OutsideDomain:
            f = None
        try:
            u, v = foot_classical(p), psi_classical(p)
        except OutsideDomain:
            assert not inside[i] and f is None
            continue
        assert inside[i]
        assert (u, v, f) == (classical_feet[k], classical_psi[k], classical_phi[k])
        k += 1


@settings(deadline=None)
@given(POINTS)
def test_scalar_and_array_agree(points):
    assert_scalar_equals_array(points)


@settings(deadline=None)
@given(st.lists(near_curves(), min_size=1, max_size=40))
def test_scalar_and_array_agree_near_curves(points):
    assert_scalar_equals_array(points)


@settings(deadline=None)
@given(st.lists(near_curves(), min_size=1, max_size=40))
def test_classify_array_equals_classify(points):
    t, x = arrays(points)
    assert classify_array(t, x).tolist() == [classify(Point(a, b)) for a, b in points]


# Every array map takes the points Point takes: finite, with t >= 0 (-0.0
# included).  The classical maps refuse weak-only points besides.
ARRAY_MAPS = {
    "foot_weak_array": foot_weak_array,
    "psi_weak_array": psi_weak_array,
    "phi_array weak": lambda t, x: phi_array(t, x, W),
    "classify_array": classify_array,
    "foot_classical_array": foot_classical_array,
    "psi_classical_array": psi_classical_array,
    "phi_array classical": lambda t, x: phi_array(t, x, CL),
}
CLASSICAL_MAPS = {"foot_classical_array", "psi_classical_array", "phi_array classical"}
EDGES = st.sampled_from([0.0, -0.0, -5e-324, -1.0, 1e151, 1e300, -1e300, math.nan, math.inf, -math.inf])


@settings(deadline=None)
@given(st.lists(
    st.tuples(st.one_of(st.floats(min_value=-3.0, max_value=30.0), EDGES), st.one_of(NEAR, EDGES)),
    min_size=1, max_size=6,
))
def test_array_maps_refuse_what_point_refuses(points):
    t, x = arrays(points)
    refused = []
    for a, b in points:
        try:
            Point(a, b)
        except DomainError as exc:
            refused.append(f"({a}, {b})")
            # alone, the point is refused by every map with Point's message
            for name, f in ARRAY_MAPS.items():
                with pytest.raises(DomainError) as err:
                    f(np.array([a]), np.array([b]))
                assert str(err.value) == str(exc), name
    weak_only = not refused and bool((classify_array(t, x) == RegionTag.WEAK_ONLY).any())
    for name, f in ARRAY_MAPS.items():
        try:
            f(t, x)
        except OutsideDomain:
            assert name in CLASSICAL_MAPS and weak_only, name
        except DomainError as exc:
            # the message names one of the refused points
            assert any(p in str(exc) for p in refused), (name, str(exc))
        else:
            assert not refused and not (name in CLASSICAL_MAPS and weak_only), name


def magnitudes():
    """0 and magnitudes log-uniform from 1e-10 to the modelled range 1e150."""
    return st.just(0.0) | st.floats(min_value=-10.0, max_value=150.0).map(lambda e: min(10.0 ** e, 1e150))


SIGNED = st.tuples(magnitudes(), st.booleans()).map(lambda m: -m[0] if m[1] else m[0])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(deadline=None)
@given(st.lists(st.tuples(magnitudes(), SIGNED), min_size=1, max_size=6))
def test_array_maps_finite_up_to_the_modelled_range(points):
    # no overflow inside the range Point accepts: a map returns finite
    # values, or a classical map refuses weak-only points
    t, x = arrays(points)
    for name, f in ARRAY_MAPS.items():
        try:
            values = f(t, x)
        except OutsideDomain:
            assert name in CLASSICAL_MAPS, name
            continue
        if name != "classify_array":
            assert np.all(np.isfinite(values)), name


def assert_batch_equals_size_one_calls(t, x, where=None):
    """psi_weak_array of the batch (t, x) equals, bit for bit, its size-1 call
    at every position (or at each position in where)."""
    batch = psi_weak_array(t, x)
    for k in range(t.size) if where is None else where:
        one = psi_weak_array(t[k:k + 1], x[k:k + 1])
        assert batch[k:k + 1].tobytes() == one.tobytes(), (t[k], x[k])


# A Godunov march solves a window of predicted ghost fills in one call and
# serves each fill from it, which rests on the foot solve being
# elementwise.  A ghost-like batch: both ghost cell centers, interleaved as
# the window solve asks for them, at increasing times across t = 1, up to
# a full window of fv._WINDOW times.
@settings(max_examples=15, deadline=None)
@given(
    ghost_x=st.tuples(st.one_of(X, NEAR), st.one_of(X, NEAR)),
    t_lo=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    t_hi=st.floats(min_value=1.0, max_value=3.0, exclude_min=True),
    n=st.sampled_from([2, 3, 17, fv._WINDOW]),
)
def test_ghost_batch_equals_size_one_calls(ghost_x, t_lo, t_hi, n):
    t = np.linspace(t_lo, t_hi, n)
    assert_batch_equals_size_one_calls(np.repeat(t, 2), np.tile(ghost_x, n))


def test_batch_across_blocks_equals_size_one_calls():
    # the solve splits a batch into blocks of 8192 points: every point within
    # 64 of the first block edge, and every 16th point besides
    from shocklab.characteristics import _BLOCK
    rng = np.random.default_rng(0)
    n = _BLOCK + 200
    t = rng.uniform(0.0, 3.0, n)
    x = rng.uniform(-20.0, 20.0, n)
    where = sorted({*range(_BLOCK - 64, _BLOCK + 64), *range(0, n, 16)})
    assert_batch_equals_size_one_calls(t, x, where)


# The rh, lax and bubble suites solve their shock feet in one batch, and a
# float time is the size-1 case.  Times out to 1e6 and just past the
# crease, where the feet close on 0 and the bracket shrinks to sqrt(t-1).
SHOCK_T = st.one_of(
    st.floats(min_value=1.0, max_value=1e6, exclude_min=True),
    st.floats(min_value=1e-12, max_value=1e-3).map(lambda e: 1.0 + e),
)


@settings(deadline=None)
@given(st.lists(SHOCK_T, min_size=1, max_size=60))
def test_shock_feet_batch_equals_float_calls(times):
    neg, pos = shock_feet(np.array(times))
    for k, t in enumerate(times):
        assert (neg[k].hex(), pos[k].hex()) == tuple(u.hex() for u in shock_feet(t)), t


# The metric squares 4 + psi as a product, so a float call rounds like an
# array element; the examples are values where a float's pow() and numpy's
# square differ in the last bit.
@settings(deadline=None)
@given(st.lists(
    st.floats(min_value=-math.pi / 2, max_value=math.pi / 2, exclude_min=True, exclude_max=True),
    min_size=1, max_size=60,
))
@example([-0.10090671945790652, -0.44502275830928384, -1.3665747651698346])
def test_metric_array_equals_float_calls(psis):
    g = metric(np.array(psis))
    for k, p in enumerate(psis):
        h = metric(p)
        assert (g.gtt[k].hex(), g.gtx[k].hex(), g.gxx[k].hex()) == (h.gtt.hex(), h.gtx.hex(), h.gxx.hex()), p


@settings(deadline=None)
@given(st.lists(SHOCK_T, min_size=1, max_size=60))
@example([1.8266749114598961, 58.460865836035644, 53.868699901970295])
def test_shock_tangent_norms_batch_equals_float_calls(times):
    right, left = shock_tangent_norms(np.array(times))
    for k, t in enumerate(times):
        assert (right[k].hex(), left[k].hex()) == tuple(q.hex() for q in shock_tangent_norms(t)), t
