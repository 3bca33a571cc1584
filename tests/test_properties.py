"""Property tests over wide ranges: |x| up to 1e6 and t up to 1e3, and the
array maps up to the modelled range 1e150."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
)
from shocklab.core import GEOM_TOL, DomainError, OnShockError, OutsideDomain, Point, SolutionVariant
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
