"""Property tests over wide ranges: |x| up to 1e6 and t up to 1e3, and the
array maps up to the modelled range 1e150."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import shocklab.godunov as fv
from shocklab.burgers import psi_boundary_extension, psi_classical, psi_classical_array, psi_weak, psi_weak_array
from shocklab.characteristics import (
    BoundaryCurve,
    RegionTag,
    boundary_x,
    boundary_x_deriv,
    classify,
    classify_array,
    foot_classical,
    foot_classical_array,
    foot_weak,
    foot_weak_array,
    outgoing_char,
    shock_feet,
)
from shocklab.core import GEOM_TOL, DomainError, OnShockError, OutsideDomain, Point, SolutionVariant, Vec2
from shocklab.geometry import (
    CausalClass,
    bubble_witness,
    causal_class,
    causal_past_contains,
    horizon_null_check,
    metric,
    shock_character,
    shock_tangent_norms,
    tangency_residual_B,
    timelike_past_contains,
)
from shocklab.wave_potential import dphidx_closed, dphidx_closed_array, horizon_jump_probe, phi, phi_array

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
    "dphidx_closed_array classical": lambda t, x: dphidx_closed_array(t, x, CL),
}
CLASSICAL_MAPS = {"foot_classical_array", "psi_classical_array", "phi_array classical", "dphidx_closed_array classical"}
EDGES = st.sampled_from([0.0, -0.0, -5e-324, -1.0, 1e151, 1e300, -1e300, math.nan, math.inf, -math.inf])


@settings(deadline=None)
@given(st.lists(
    st.tuples(st.one_of(st.floats(min_value=-3.0, max_value=30.0), EDGES), st.one_of(NEAR, EDGES)),
    min_size=1, max_size=6,
))
@example([(math.inf, -math.inf)])  # x + 2t is NaN there: a map must check before it adds
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


def assert_batch_equals_size_one_calls(t, x, where=None, f=psi_weak_array):
    """f (psi_weak_array by default) of the batch (t, x) equals, bit for bit,
    its size-1 call at every position (or at each position in where)."""
    batch = f(t, x)
    for k in range(t.size) if where is None else where:
        one = f(t[k:k + 1], x[k:k + 1])
        assert batch[k:k + 1].tobytes() == one.tobytes(), (t[k], x[k])


# A Godunov march solves a window of predicted ghost fills in one call and
# serves each fill from it, which rests on the foot solve being
# elementwise.  A ghost-like batch: one ghost column, the inflow ghost
# center broadcast against increasing times across t = 1 as the window
# solve asks for it, up to a full window of fv._WINDOW times.
@settings(max_examples=15, deadline=None)
@given(
    ghost_x=st.one_of(X, NEAR),
    t_lo=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    t_hi=st.floats(min_value=1.0, max_value=3.0, exclude_min=True),
    n=st.sampled_from([2, 3, 17, fv._WINDOW]),
)
def test_ghost_batch_equals_size_one_calls(ghost_x, t_lo, t_hi, n):
    t = np.linspace(t_lo, t_hi, n)
    column = np.full(n, ghost_x)
    assert psi_weak_array(t, ghost_x).tobytes() == psi_weak_array(t, column).tobytes()
    assert_batch_equals_size_one_calls(t, column)


def test_batch_across_blocks_equals_size_one_calls():
    # the solve splits a batch into blocks of _BLOCK points: every point within
    # 64 of the first block edge, and every 16th point besides
    from shocklab.characteristics import _BLOCK
    rng = np.random.default_rng(0)
    n = _BLOCK + 200
    t = rng.uniform(0.0, 3.0, n)
    x = rng.uniform(-20.0, 20.0, n)
    where = sorted({*range(_BLOCK - 64, _BLOCK + 64), *range(0, n, 16)})
    assert_batch_equals_size_one_calls(t, x, where)


@pytest.mark.parametrize("f", [psi_classical_array, foot_classical_array])
def test_classical_batch_across_blocks_equals_size_one_calls(f):
    # as above with classical-domain points; a WeakOnly point put in the
    # second block is refused as by its size-1 call
    from shocklab.characteristics import _BLOCK
    rng = np.random.default_rng(0)
    t = rng.uniform(0.0, 3.0, 2 * _BLOCK)
    x = rng.uniform(-20.0, 20.0, 2 * _BLOCK)
    keep = classify_array(t, x) != RegionTag.WEAK_ONLY
    n = _BLOCK + 200
    t, x = t[keep][:n], x[keep][:n]
    where = sorted({*range(_BLOCK - 64, _BLOCK + 64), *range(0, n, 16)})
    assert_batch_equals_size_one_calls(t, x, where, f)
    t[_BLOCK + 100], x[_BLOCK + 100] = 2.2, 0.5
    with pytest.raises(OutsideDomain) as one:
        f(t[_BLOCK + 100:_BLOCK + 101], x[_BLOCK + 100:_BLOCK + 101])
    with pytest.raises(OutsideDomain) as batch:
        f(t, x)
    assert str(batch.value) == str(one.value)


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


# Array forms of the closed-form maps: an array call equals its float calls
# bit for bit, and refuses where the first of them refuses, with the same
# error type and message.

def bits(v):
    """The exact identity of a value: a float by its hex form, a Point or a tuple by its parts."""
    if isinstance(v, Point):
        return bits(v.t), bits(v.x)
    if isinstance(v, tuple):
        return tuple(map(bits, v))
    return v if isinstance(v, (bool, CausalClass)) else float(v).hex()


def assert_array_call_is_float_calls(array_call, float_calls):
    """array_call() gives the list of the float calls' values, or refuses as the first refusing one does."""
    values = []
    for call in float_calls:
        try:
            values.append(call())
        except DomainError as exc:
            with pytest.raises(DomainError) as err:
                array_call()
            assert (type(err.value), str(err.value)) == (type(exc), str(exc))
            return
    assert list(map(bits, array_call())) == list(map(bits, values))


CURVES = list(BoundaryCurve)
# times across the domain of the boundary maps and past each of its ends
BOUNDARY_T = st.one_of(
    st.floats(min_value=1.0, max_value=1e6),
    st.floats(min_value=0.0, max_value=1e-6).map(lambda e: 1.0 + e),
    st.floats(min_value=1e6, max_value=1e150),
    st.sampled_from([1.0, 1e150, 0.5, 1.0 - 2.0 ** -53, 1e151, 1e300, math.nan, math.inf, -math.inf]),
)


# The examples are times where math.atan and np.arctan round B differently.
@settings(deadline=None)
@given(st.sampled_from(CURVES), st.lists(BOUNDARY_T, min_size=1, max_size=30))
@example(BoundaryCurve.SINGULAR_BOUNDARY, [12.198019801980198, 13.14851485148515])
def test_boundary_maps_array_equals_float_calls(kind, times):
    for f in (boundary_x, boundary_x_deriv):
        assert_array_call_is_float_calls(
            lambda: f(kind, np.array(times)).tolist(), [lambda t=t: f(kind, t) for t in times])


@settings(deadline=None)
@given(st.lists(BOUNDARY_T, min_size=1, max_size=30))
def test_tangency_and_horizon_checks_array_equals_float_calls(times):
    for f in (tangency_residual_B, horizon_null_check):
        assert_array_call_is_float_calls(lambda: f(np.array(times)).tolist(), [lambda t=t: f(t) for t in times])


@settings(deadline=None)
@given(st.sampled_from([W, CL]), st.lists(near_curves(), min_size=1, max_size=20))
@example(W, [(2.0, 3.0), (1.8704692666125013, 7.855810818692998), (3.0, 6.0)])
def test_dphidx_closed_array_equals_float_calls(variant, points):
    t, x = arrays(points)
    assert_array_call_is_float_calls(
        lambda: dphidx_closed_array(t, x, variant).tolist(),
        [lambda p=p: dphidx_closed(Point(*p), variant) for p in points],
    )


@settings(deadline=None)
@given(
    st.one_of(st.floats(min_value=-50.0, max_value=2.0, exclude_max=True),
              st.sampled_from([2.0, 5.0, -3e150, -1e151, math.nan])),
    st.lists(st.one_of(st.floats(min_value=1e-9, max_value=0.05),
                       st.sampled_from([0.0, -1e-3, 0.0500001, math.nan])), min_size=1, max_size=20),
)
@example(1.9999999999999996, [0.03125, 0.0])  # the first offset's (t0, x) is on the shock
@example(1.999999999999, [1e-12, 0.01])  # the first offset's (t0 + eps, x) is on the shock
def test_horizon_probe_offsets_equal_float_calls(x, offsets):
    assert_array_call_is_float_calls(
        lambda: horizon_jump_probe(x, np.array(offsets)).tolist(),
        [lambda e=e: horizon_jump_probe(x, e) for e in offsets],
    )


@st.composite
def apex_and_target(draw):
    """An apex on B (now and then off it, or before the crease) and a target at
    or below its time (now and then after it)."""
    kind = draw(st.sampled_from(["on"] * 8 + ["off", "early", "after"]))
    apex, _ = psi_boundary_extension(draw(st.floats(min_value=1e-3, max_value=50.0)))
    if kind == "off":
        apex = Point(apex.t, apex.x + 1e-3)
    if kind == "early":
        apex = Point(0.9, 1.8)
    t = draw(st.floats(min_value=0.0, max_value=1.0)) * apex.t
    if kind == "after":
        t = apex.t * 1.5
    return apex, Point(t, 2.0 * t + draw(st.floats(min_value=-1.0, max_value=3.0)) * apex.t)


@settings(deadline=None)
@given(st.lists(apex_and_target(), min_size=1, max_size=20))
def test_causal_pasts_array_equals_float_calls(pairs):
    apexes = Point(np.array([a.t for a, _ in pairs]), np.array([a.x for a, _ in pairs]))
    targets = Point(np.array([q.t for _, q in pairs]), np.array([q.x for _, q in pairs]))
    for f in (causal_past_contains, timelike_past_contains):
        assert_array_call_is_float_calls(
            lambda: f(apexes, targets).tolist(), [lambda a=a, q=q: f(a, q) for a, q in pairs])

    def witnesses():
        w = bubble_witness(apexes)
        return [Point(t, x) for t, x in zip(w.t.tolist(), w.x.tolist())]

    assert_array_call_is_float_calls(witnesses, [lambda a=a: bubble_witness(a) for a, _ in pairs])


@settings(deadline=None)
@given(
    st.lists(st.one_of(SHOCK_T, st.sampled_from([1.0, 0.5, 1e151, math.nan])), min_size=1, max_size=40),
    st.lists(st.floats(min_value=-math.pi / 2, max_value=math.pi / 2), min_size=1, max_size=40),
    st.sampled_from([Vec2(1.0, 2.0), Vec2(1.0, -2.0), Vec2(1.0, 0.0), Vec2(0.0, 1.0)]),
)
# field values where the metric degenerates (-2, -4) or is not defined (NaN), after a regular one
@example([2.0], [0.1, -2.0], Vec2(1.0, 0.0))
@example([2.0], [0.3, math.nan, -4.0], Vec2(1.0, 2.0))
@example([2.0], [-1.0, -4.0, math.nan], Vec2(0.0, 1.0))
def test_causal_classes_array_equal_float_calls(times, psis, v):
    # the shock's two classes at each time, and the class of v at each field value
    assert_array_call_is_float_calls(
        lambda: list(zip(*shock_character(np.array(times)))), [lambda t=t: shock_character(t) for t in times])
    assert_array_call_is_float_calls(
        lambda: list(causal_class(np.array(psis), v)), [lambda p=p: causal_class(p, v) for p in psis])


@settings(deadline=None)
@given(st.floats(min_value=0.0, max_value=1e75))
@example(math.sqrt(12.198019801980198 - 1.0))
def test_one_formula_for_B_and_the_characteristics(z):
    # B at t is the characteristic from sqrt(t-1), and S(z) the one from z
    p, _ = psi_boundary_extension(z)
    assert bits(p) == bits(outgoing_char(z, p.t))
    for t in (p.t, 1.0 + z):
        if t <= 1e150:
            assert bits(boundary_x(BoundaryCurve.SINGULAR_BOUNDARY, t)) == bits(outgoing_char(math.sqrt(t - 1.0), t).x)
    if p.t <= 1e150 and math.sqrt(p.t - 1.0) == z:
        assert bits(p.x) == bits(boundary_x(BoundaryCurve.SINGULAR_BOUNDARY, p.t))
