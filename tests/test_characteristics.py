import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from shocklab.core import (
    GEOM_TOL,
    DomainError,
    MaxIterExceeded,
    OnShockError,
    OutsideDomain,
    Point,
    psi0,
)
from shocklab import characteristics
from shocklab.burgers import psi_classical, psi_classical_array, psi_weak, psi_weak_array
from shocklab.characteristics import (
    _solve_feet,
    BoundaryCurve,
    RegionTag,
    blowup_time,
    boundary_x,
    boundary_x_deriv,
    classify,
    classify_array,
    foot_classical,
    foot_classical_array,
    foot_weak,
    foot_weak_array,
    outgoing_char,
    shock_arrival_time,
    shock_feet,
)

B, C, K = BoundaryCurve.SINGULAR_BOUNDARY, BoundaryCurve.CAUCHY_HORIZON, BoundaryCurve.SHOCK


def oracle_foot(t: float, x: float, lo: float, hi: float) -> float:
    return brentq(lambda u: u - t * math.atan(u) - (x - 2.0 * t), lo, hi,
                  xtol=1e-15, rtol=8.9e-16)


class TestForwardMap:
    def test_center_characteristic_hits_crease(self):
        p = outgoing_char(0.0, 1.0)
        assert (p.t, p.x) == (1.0, 2.0)

    def test_initial_slice(self):
        for a in (-3.0, 0.0, 2.5):
            p = outgoing_char(a, 0.0)
            assert (p.t, p.x) == (0.0, a)

    def test_explicit_value(self):
        p = outgoing_char(1.0, 2.0)
        assert p.x == pytest.approx(5.0 - math.pi / 2, abs=1e-15)

    def test_blowup_time(self):
        assert blowup_time(1.0) == 2.0
        assert blowup_time(2.0) == 5.0
        assert blowup_time(1e-9) == pytest.approx(1.0, abs=1e-12)
        assert blowup_time(1e75) == 1.0 + 1e75 * 1e75 <= 1e150  # the last foot inside the modelled range
        with pytest.raises(DomainError):
            blowup_time(0.0)
        with pytest.raises(DomainError):
            blowup_time(-1.0)

    def test_shock_arrival(self):
        assert shock_arrival_time(1.0) == pytest.approx(4.0 / math.pi, abs=1e-15)
        assert shock_arrival_time(-1.0) == shock_arrival_time(1.0)
        assert shock_arrival_time(1e-8) == pytest.approx(1.0, abs=1e-8)
        assert shock_arrival_time(-1e150) == -1e150 / math.atan(-1e150) <= 1e150
        with pytest.raises(DomainError):
            shock_arrival_time(0.0)

    @pytest.mark.parametrize("f, x0, message", [
        (blowup_time, math.nan, "non-finite foot x0 = nan"),
        (blowup_time, 1e200, "blowup time of x0 = 1e+200 is beyond the modelled range t <= 1e+150"),
        (shock_arrival_time, math.nan, "non-finite foot x0 = nan"),
        (shock_arrival_time, math.inf, "non-finite foot x0 = inf"),
        (shock_arrival_time, -1e151, "foot x0 = -1e+151 is beyond the modelled range |x| <= 1e+150"),
    ])
    def test_non_finite_or_past_the_range_refused(self, f, x0, message):
        with pytest.raises(DomainError) as err:
            f(x0)
        assert str(err.value) == message

    def test_shock_before_blowup(self):
        for x0 in (0.25, 1.0, 3.0, 10.0):
            assert 1.0 < shock_arrival_time(x0) < blowup_time(x0)


class TestBoundaryCurves:
    def test_examples(self):
        assert boundary_x(B, 2.0) == pytest.approx(5.0 - math.pi / 2, abs=1e-15)
        assert boundary_x(C, 2.0) == 0.0
        assert boundary_x(K, 2.0) == 4.0

    def test_all_meet_crease(self):
        for kind in (B, C, K):
            assert boundary_x(kind, 1.0) == 2.0

    def test_domain_error(self):
        with pytest.raises(DomainError):
            boundary_x(B, 0.99)

    def test_ordering(self):
        # horizon < singular boundary < shock, strictly, past the crease
        for t in np.linspace(1.001, 50.0, 200):
            xc, xb, xk = (boundary_x(kind, float(t)) for kind in (C, B, K))
            assert xc < xb < xk

    def test_shock_boundary_tangency_at_crease(self):
        # (x_B - x_K)(1 + eps)/eps -> 0: the curves separate only at higher order
        quotients = []
        for eps in (1e-2, 1e-4, 1e-6):
            q = (boundary_x(B, 1.0 + eps) - boundary_x(K, 1.0 + eps)) / eps
            quotients.append(abs(q))
        assert quotients[0] > quotients[1] > quotients[2]
        assert quotients[2] <= 1e-2

    def test_deriv(self):
        assert boundary_x_deriv(C, 1.5) == -2.0
        assert boundary_x_deriv(K, 1.5) == 2.0
        assert boundary_x_deriv(B, 2.0) == pytest.approx(2.0 - math.pi / 4, abs=1e-15)
        h = 1e-6
        for t in (1.5, 3.0, 7.0):
            fd = (boundary_x(B, t + h) - boundary_x(B, t - h)) / (2 * h)
            assert fd == pytest.approx(boundary_x_deriv(B, t), abs=1e-9)

    def test_deriv_domain_error(self):
        with pytest.raises(DomainError, match="t >= 1, got t = 0.5"):
            boundary_x_deriv(B, 0.5)

    @pytest.mark.parametrize("t, message", [
        (math.nan, "non-finite boundary time t = nan$"),
        (math.inf, "non-finite boundary time t = inf$"),
        (-math.inf, "non-finite boundary time t = -inf$"),
        (1e151, r"boundary time t = 1e\+151 is beyond the modelled range t <= 1e\+150$"),
        (1e200, r"boundary time t = 1e\+200 is beyond the modelled range t <= 1e\+150$"),
    ])
    @pytest.mark.parametrize("kind", [B, C, K])
    def test_refused_times(self, kind, t, message):
        # a NaN time gave NaN, an infinite one -inf or inf, 1e200 a number
        for f in (boundary_x, boundary_x_deriv):
            with pytest.raises(DomainError, match=message):
                f(kind, t)

    def test_largest_time(self):
        assert boundary_x(C, 1e150) == -2e150
        assert boundary_x(B, 1e150) == pytest.approx((2.0 - math.pi / 2) * 1e150, rel=1e-12)

    def test_array_refused_at_first_bad_time(self):
        with pytest.raises(DomainError, match=r"t = 1e\+200 is beyond"):
            boundary_x(B, np.array([2.0, 1e200, math.nan, 0.5]))
        with pytest.raises(DomainError, match="t >= 1, got t = 0.5$"):
            boundary_x_deriv(K, np.array([[2.0, 0.5], [math.nan, 3.0]]))


TAG_CASES = [
    (0.5, 7.0, RegionTag.OMEGA_A),
    (1.27, 2.5, RegionTag.WEDGE),
    (1.5, 1.2, RegionTag.WEAK_ONLY),
    (0.0, 3.0, RegionTag.INITIAL_SLICE),
    (1.0, 2.0, RegionTag.ON_CREASE),
    (2.0, 4.0, RegionTag.ON_SHOCK),
    (2.0, 0.0, RegionTag.ON_CAUCHY_HORIZON),
    (0.5, 1.0, RegionTag.OMEGA_A),
    (2.5, -4.0, RegionTag.OMEGA_A),       # beneath the horizon
    (2.0, 10.0, RegionTag.OMEGA_A),       # beneath the shock
]


class TestClassify:
    @pytest.mark.parametrize("t,x,tag", TAG_CASES)
    def test_tags(self, t, x, tag):
        assert classify(Point(t, x)) is tag

    def test_on_singular_boundary(self):
        t = 2.0
        assert classify(Point(t, boundary_x(B, t))) is RegionTag.ON_SINGULAR_BOUNDARY

    def test_wedge_bounds(self):
        t = 1.27
        xb = boundary_x(B, t)
        assert classify(Point(t, xb + 1e-6)) is RegionTag.WEDGE
        assert classify(Point(t, 2 * t - 1e-6)) is RegionTag.WEDGE
        assert classify(Point(t, xb - 1e-6)) is RegionTag.WEAK_ONLY


class TestClassifyArray:
    def test_matches_classify_on_examples(self):
        t = np.array([c[0] for c in TAG_CASES])
        x = np.array([c[1] for c in TAG_CASES])
        assert classify_array(t, x).tolist() == [c[2] for c in TAG_CASES]

    def test_bands_match_classify(self):
        # points straddling each band edge of B, C, K and the crease
        ts, xs = [], []
        for t in (1.0 + 1e-11, 1.27, 2.0, 37.5):
            for x0 in (boundary_x(B, t), boundary_x(C, t), boundary_x(K, t), 2.0):
                for off in (-2e-10, -1e-10, -5e-11, 0.0, 5e-11, 1e-10, 2e-10):
                    ts.append(t)
                    xs.append(x0 + off)
        ts += [1.0 - 5e-11, 5e-11, 1e-9]
        xs += [2.0 + 5e-11, 3.0, -1.0]
        tags = classify_array(np.array(ts), np.array(xs))
        assert tags.tolist() == [classify(Point(t, x)) for t, x in zip(ts, xs)]

    def test_scalar_input_gives_0d_array(self):
        tags = classify_array(0.5, 0.0)
        assert isinstance(tags, np.ndarray) and tags.shape == ()
        assert tags.item() is RegionTag.OMEGA_A
        assert not ~(tags == RegionTag.OMEGA_A)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            classify_array(np.array([-0.1]), np.array([0.0]))
        with pytest.raises(DomainError):
            classify_array(np.array([1.0]), np.array([math.nan]))


class TestFootMaps:
    def test_classical_examples(self):
        assert foot_classical(Point(0.5, 1.0)) == pytest.approx(0.0, abs=1e-12)
        expected = oracle_foot(1.0, 2.1, 0.0, 2.0)
        assert foot_classical(Point(1.0, 2.1)) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.7316594726612043, abs=1e-12)
        for a in (-2.0, 0.0, 5.0):
            assert foot_classical(Point(0.0, a)) == a

    def test_classical_outside_domain(self):
        with pytest.raises(OutsideDomain):
            foot_classical(Point(2.2, 0.5))  # weak-only region

    def test_classical_left_family(self):
        # beneath the horizon the foot is negative and beyond -sqrt(t-1)
        p = Point(1.2, 1.0)
        u = foot_classical(p)
        assert u == pytest.approx(oracle_foot(1.2, 1.0, -10.0, -math.sqrt(0.2)), abs=1e-11)
        assert u < -math.sqrt(p.t - 1.0)

    def test_classical_wedge_foot(self):
        # wedge feet live between the branch point and the shock foot
        t = 1.27
        u = foot_classical(Point(t, 2.5))
        assert math.sqrt(t - 1.0) < u < shock_feet(t)[1]

    def test_weak_examples(self):
        u = foot_weak(Point(2.0, 3.0))
        assert u == pytest.approx(oracle_foot(2.0, 3.0, -10.0, -1.0), abs=1e-11)
        assert u == pytest.approx(-3.5996486052653953, abs=1e-10)
        v = foot_weak(Point(2.0, 5.0))
        assert v == pytest.approx(oracle_foot(2.0, 5.0, 1.0, 10.0), abs=1e-11)
        # mirror of the (2, 3) foot: the residual is odd in the foot
        assert v == pytest.approx(3.5996486052653953, abs=1e-10)
        assert foot_weak(Point(0.5, 1.0)) == pytest.approx(0.0, abs=1e-12)

    def test_weak_on_shock_raises(self):
        with pytest.raises(OnShockError):
            foot_weak(Point(2.0, 4.0))

    def test_weak_side_signs(self):
        for t in (1.5, 2.0, 4.0):
            assert foot_weak(Point(t, 2 * t + 0.3)) > 0
            assert foot_weak(Point(t, 2 * t - 0.3)) < 0

    def test_agreement_where_both_defined(self):
        # below the shock and horizon the two foot maps are the same root
        for t, x in ((0.5, 1.0), (0.9, -2.0), (2.0, 4.5), (1.2, 1.0), (3.0, 7.0)):
            assert foot_classical(Point(t, x)) == foot_weak(Point(t, x))

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            x0 = float(rng.uniform(-4.0, 4.0))
            if x0 > 0:
                t_max = 0.9 * blowup_time(x0)
            else:
                t_max = 0.9 * (4.0 - x0) / (4.0 + math.atan(-x0)) if x0 < 0 else 0.9
            t = float(rng.uniform(0.0, t_max))
            p = outgoing_char(x0, t)
            assert foot_classical(p) == pytest.approx(x0, abs=1e-11)

    def test_non_intersection(self):
        # positions at a common time are strictly increasing in the foot
        rng = np.random.default_rng(11)
        for _ in range(200):
            x0a, x0b = sorted(rng.uniform(-3.0, 3.0, size=2))
            if x0a == x0b:
                continue
            caps = []
            for u in (x0a, x0b):
                if u > 0:
                    caps.append(blowup_time(u))
                elif u < 0:
                    caps.append((4.0 - u) / (4.0 + math.atan(-u)))
                else:
                    caps.append(1.0)
            t = float(rng.uniform(0.0, 0.95 * min(caps)))
            assert outgoing_char(x0a, t).x < outgoing_char(x0b, t).x


class TestShockFeet:
    def test_reference_time(self):
        neg, pos = shock_feet(4.0 / math.pi)
        assert pos == pytest.approx(1.0, abs=1e-12)
        assert neg == -pos

    def test_t2(self):
        _, pos = shock_feet(2.0)
        assert pos == pytest.approx(2.3311223704144224, abs=1e-12)

    def test_crease_limit(self):
        _, pos = shock_feet(1.0 + 1e-10)
        assert 0 < pos < 1e-4

    def test_domain_error(self):
        with pytest.raises(DomainError):
            shock_feet(1.0)

    # pinned before shock_feet checked t alone: the same bracket and solve
    @pytest.mark.parametrize("t, expected", [
        (1.0 + 2.0 ** -52, "0x1.c4691f556693cp-26"),
        (1.5, "0x1.737b8c8789642p+0"),
        (7.25, "0x1.56d5191bff311p+3"),
        (1e10, "0x1.d4223fc1a7fafp+33"),
        (5e149, "0x1.eb62974385ea8p+497"),
    ])
    def test_frozen(self, t, expected):
        neg, pos = shock_feet(t)
        assert (neg.hex(), pos.hex()) == ("-" + expected, expected)

    def test_shock_point_past_the_range(self):
        # (t, 2t) lies past the modelled range; t does not
        _, pos = shock_feet(1e150)
        assert pos.hex() == "0x1.eb62974385ea8p+498"

    @pytest.mark.parametrize("t, message", [
        (math.nan, "non-finite shock time t = nan$"),
        (math.inf, "non-finite shock time t = inf$"),
        (0.5, "the shock exists for t > 1, got t = 0.5$"),
        (1e151, r"shock time t = 1e\+151 is beyond the modelled range t <= 1e\+150$"),
    ])
    def test_refused_times(self, t, message):
        with pytest.raises(DomainError, match=message):
            shock_feet(t)


class TestArrayFootMaps:
    def test_weak_matches_scalar(self):
        rng = np.random.default_rng(3)
        ts = rng.uniform(0.05, 5.0, 500)
        xs = 2 * ts + rng.uniform(-6.0, 6.0, 500)
        xs = np.where(np.abs(xs - 2 * ts) < 1e-6, xs + 0.01, xs)
        batch = foot_weak_array(ts, xs)
        for t, x, u in zip(ts, xs, batch):
            assert u == pytest.approx(foot_weak(Point(float(t), float(x))), abs=1e-11)

    def test_classical_matches_scalar(self):
        pts = [(0.5, 1.0), (1.27, 2.5), (2.0, 4.5), (1.2, 1.0), (3.0, -2.5), (1.0, 2.1)]
        ts = np.array([p[0] for p in pts])
        xs = np.array([p[1] for p in pts])
        batch = foot_classical_array(ts, xs)
        for (t, x), u in zip(pts, batch):
            assert u == pytest.approx(foot_classical(Point(t, x)), abs=1e-11)

    def test_classical_array_outside_domain(self):
        with pytest.raises(OutsideDomain):
            foot_classical_array(np.array([2.2]), np.array([0.5]))

    # the maps run per block of characteristics._BLOCK points after one
    # check of the whole batch: a bad point refuses before any WeakOnly one
    # and the first WeakOnly point is refused, in whichever block they lie
    @pytest.mark.parametrize("f", [foot_classical_array, psi_classical_array])
    def test_non_finite_point_refused_before_weak_only(self, f):
        n = characteristics._BLOCK
        t, x = np.full(3 * n, 0.5), np.zeros(3 * n)
        t[5], x[5] = 2.2, 0.5                  # WeakOnly, block 0
        t[2 * n + 7] = math.nan                # block 2
        with pytest.raises(DomainError) as err:
            f(t, x)
        assert (type(err.value), str(err.value)) == (DomainError, "non-finite point (nan, 0.0)")

    @pytest.mark.parametrize("f", [foot_classical_array, psi_classical_array])
    def test_weak_only_point_refused_in_a_later_block(self, f):
        n = characteristics._BLOCK
        t, x = np.full(3 * n, 0.5), np.zeros(3 * n)
        t[2 * n + 7], x[2 * n + 7] = 2.2, 0.5   # WeakOnly, block 2
        with pytest.raises(OutsideDomain) as err:
            f(t, x)
        assert str(err.value) == "(2.2, 0.5) is outside the classical domain"


R = RegionTag
# Offsets across a curve, in units of its band half-width
_BAND_STEPS = np.array([-2.0, -0.5, 0.5, 2.0]) * GEOM_TOL
# (t0, x0, dt, dx, tags): the tags at (t0, x0) + _BAND_STEPS * (dt, dx)
_BAND_EDGES = [
    pytest.param(t, boundary_x(curve, t), 0.0, 1.0, (left, on, on, right), id=f"{curve.value}-t{t}")
    for curve, on, left, right in (
        (K, R.ON_SHOCK, R.WEDGE, R.OMEGA_A),
        (B, R.ON_SINGULAR_BOUNDARY, R.WEAK_ONLY, R.WEDGE),
        (C, R.ON_CAUCHY_HORIZON, R.OMEGA_A, R.WEAK_ONLY),
    )
    for t in (1.27, 2.0, 37.5)
] + [
    pytest.param(1.0, 2.0, 0.0, 1.0, (R.OMEGA_A, R.ON_CREASE, R.ON_CREASE, R.OMEGA_A), id="crease-x"),
    pytest.param(1.0, 2.0, 1.0, 0.0, (R.OMEGA_A, R.ON_CREASE, R.ON_CREASE, R.WEAK_ONLY), id="crease-t"),
]


class TestMembershipBand:
    @pytest.mark.parametrize("t0,x0,dt,dx,tags", _BAND_EDGES)
    def test_band_edges(self, t0, x0, dt, dx, tags):
        # half a band off a curve is on it, two bands off is beside it
        t, x = t0 + dt * _BAND_STEPS, x0 + dx * _BAND_STEPS
        assert classify_array(t, x).tolist() == list(tags)
        assert [classify(Point(a, b)) for a, b in zip(t.tolist(), x.tolist())] == list(tags)

    def test_just_left_of_B_is_outside_on_both_paths(self):
        t = 2.0
        x = boundary_x(B, t) - 1.5e-10
        with pytest.raises(OutsideDomain):
            foot_classical(Point(t, x))
        with pytest.raises(OutsideDomain):
            foot_classical_array(np.array([t]), np.array([x]))

    def test_on_B_foot_is_branch_point(self):
        for t in (1.5, 2.0, 3.0, 10.0, 164.98, 1000.0):
            x = boundary_x(B, t)
            u = foot_classical_array(np.array([t]), np.array([x]))[0]
            assert u == math.sqrt(t - 1.0)

    def test_near_tangency_is_solved_not_snapped(self):
        # the x0 = 1 characteristic touches B at t = 2; just before, the point
        # is inside the band but has a well-defined foot 1
        p = outgoing_char(1.0, 2.0 - 1e-6)
        u = foot_classical_array(np.array([p.t]), np.array([p.x]))[0]
        assert u == pytest.approx(1.0, abs=1e-8)


def _select_start(lo, hi):
    """Newton's start in [lo, hi] by a per-point select: the end farther from 0
    of a bracket that does not straddle it, the reference for _bracket's u0."""
    return np.where(lo >= 0.0, hi, lo)


def _explicit_solve(t, d, lo, hi):
    """The batched Newton solve on given brackets, started at their far ends."""
    return characteristics._blocked(characteristics._solve_block, t, d, lo, hi, _select_start(lo, hi))


class TestSolveFeet:
    def test_matches_brentq_per_point(self):
        # easy points, a point near the crease and a wide-|d| point converge together
        t = np.array([0.5, 2.0, 1.0, 0.9, 3.0])
        d = np.array([0.7, 1.0, 1e-6, -4e5, -0.3])
        lo = np.array([0.0, 1.0, 0.0, -4e5 - 2.0, -10.0])
        hi = np.array([2.0, 10.0, 1.0, 0.0, -math.sqrt(2.0)])
        u = _explicit_solve(t, d, lo, hi)
        for ti, di, a, b, ui in zip(t, d, lo, hi, u):
            f = lambda y: y - ti * math.atan(y) - di
            expected = brentq(f, a, b, xtol=1e-15, rtol=8.9e-16)
            assert ui == pytest.approx(expected, rel=1e-13, abs=1e-13)

    def test_shape_and_blocks(self):
        # more points than one block, in a 2-D layout
        rng = np.random.default_rng(5)
        t = rng.uniform(0.0, 0.99, (3, 7000))
        d = rng.uniform(0.01, 50.0, (3, 7000))
        u = _explicit_solve(t, d, np.zeros_like(t), d + t * math.pi / 2)
        assert u.shape == t.shape
        residual = u - t * np.arctan(u) - d
        assert np.all(np.abs(residual) <= 8 * np.finfo(float).eps * (u + d))

    def test_collapsed_bracket_returned_as_given(self):
        t, d = np.array([2.0, 0.5]), np.array([1.0, 0.0])
        u = _explicit_solve(t, d, np.array([1.25, 0.0]), np.array([1.25, 0.0]))
        assert u.tolist() == [1.25, 0.0]

    def test_max_iter_message_names_worst_point(self, monkeypatch):
        t, d = np.array([0.5, 1.0]), np.array([0.1, 1e-3])
        monkeypatch.setattr(characteristics, "_MAX_SWEEPS", 2)
        with pytest.raises(MaxIterExceeded) as err:
            _explicit_solve(t, d, np.zeros(2), d + t * math.pi / 2)
        msg = str(err.value)
        assert "(t, d) = (1.0, 0.001)" in msg
        assert "residual" in msg and "bracket [0.0, " in msg

    def test_max_iter_names_only_live_points(self, monkeypatch):
        # 100 easy points stop in the one sweep allowed, with residual -1.8e-12,
        # and stay uncompacted in the carried arrays; the hard point, last, sits
        # at B's double root and after that sweep has the smaller residual 1.1e-13
        t = np.append(np.full(100, 1.3282584869235945), 2.0)
        d = np.append(np.full(100, 11507.769383046852), boundary_x(B, 2.0) - 4.0)
        lo, hi, _ = characteristics._bracket(t, d, True, characteristics._focus_foot(t))
        hi[-1] = 1.0 + 2.0 ** -20
        monkeypatch.setattr(characteristics, "_MAX_SWEEPS", 1)
        u = _explicit_solve(t[:-1], d[:-1], lo[:-1], hi[:-1])
        assert np.all(np.abs(u - t[:-1] * np.arctan(u) - d[:-1]) <= 2e-12)
        with pytest.raises(MaxIterExceeded) as err:
            _explicit_solve(t, d, lo, hi)
        msg = str(err.value)
        assert msg.startswith("batched root solve: 1 points unconverged after 1 sweeps")
        assert f"(t, d) = (2.0, {float(d[-1])!r})" in msg and "bracket [1.0, " in msg

    def test_family_solve_is_the_solve_on_its_brackets(self):
        # the weak map's families over three blocks, flat points among them,
        # and the shock's right family
        t = np.append(np.linspace(0.0, 40.0, 30011), [0.0, 0.5, 1.0])
        x = np.append(np.linspace(-1e3, 1e3, 30011)[::-1], [0.0, 1.0, 2.0])
        d = x - 2.0 * t
        ts = t[t > 1.0]
        for t, d, right in ((t, d, (d > 0.0) | ((t > 1.0) & (d == 0.0))),
                            (ts, np.zeros(ts.shape), np.full(ts.shape, True))):
            lo, hi, u0 = characteristics._bracket(t, d, right, characteristics._focus_foot(t))
            want = characteristics._blocked(characteristics._solve_block, t, d, lo, hi, u0)
            assert _solve_feet(t, d, right).tobytes() == want.tobytes()


def _bits(a):
    """The float64 bit patterns of a, so that -0.0 differs from 0.0."""
    return np.asarray(a, dtype=np.float64).view(np.int64)


def _where_bracket(t, d, right, z):
    """_bracket by per-point selects: the reference its sign arithmetic keeps."""
    flat = (d == 0.0) & (t <= 1.0)
    lo = np.where(flat, 0.0, np.where(right, z, d - t * characteristics._HALF_PI))
    hi = np.where(flat, 0.0, np.where(right, d + t * characteristics._HALF_PI, -z))
    return lo, hi


def _where_codes(t, x, xb):
    """_region_codes with the area tags selected per point: its reference."""
    codes = np.where(x < xb, characteristics._WEAK_ONLY, characteristics._WEDGE)
    codes[t < np.maximum(0.5 * x, 2.0 - 0.5 * x)] = characteristics._OMEGA_A
    for tag, band in (
        (characteristics._ON_C, (t > 1.0) & (np.abs(x - (4.0 - 2.0 * t)) <= GEOM_TOL)),
        (characteristics._ON_B, (t > 1.0) & (np.abs(x - xb) <= GEOM_TOL)),
        (characteristics._SHOCK, characteristics.on_shock(t, x)),
        (characteristics._CREASE, (np.abs(t - 1.0) <= GEOM_TOL) & (np.abs(x - 2.0) <= GEOM_TOL)),
        (characteristics._INITIAL, t <= GEOM_TOL),
    ):
        codes[band] = tag
    return codes


def _traced(f, *args):
    """f(*args), with the arguments and result of each _bracket call and the
    bracket and start of each _solve_block call, in call order."""
    brackets, solves = [], []
    bracket, solve = characteristics._bracket, characteristics._solve_block

    def traced_bracket(*a):
        brackets.append((a, bracket(*a)))
        return brackets[-1][1]

    def traced_solve(out, t, d, lo, hi, u0):
        solves.append((lo, hi, u0))
        solve(out, t, d, lo, hi, u0)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(characteristics, "_bracket", traced_bracket)
        mp.setattr(characteristics, "_solve_block", traced_solve)
        f(*args)
    return brackets, solves


def _assert_select_free_rules(t, x):
    """Each sign-arithmetic rule of the foot maps gives the bits of its per-point
    select form on the points (t, x): the brackets of both maps and of
    shock_feet, the Newton start each bracket names and each solve starts
    from (the classical snap's collapsed [z, z] and start z too), the region
    codes and the classical map's family mask."""
    xb = characteristics._x_B(t)
    codes = characteristics._region_codes(t, x, xb)
    want = _where_codes(t, x, xb)
    assert codes.dtype == np.intp and codes.tolist() == want.tolist()
    keep = want != characteristics._WEAK_ONLY
    traces = [_traced(foot_weak_array, t, x), _traced(foot_classical_array, t[keep], x[keep])]
    if (t > 1.0).any():
        traces.append(_traced(shock_feet, t[t > 1.0]))
    for brackets, solves in traces:
        for args, (lo, hi, u0) in brackets:
            want_lo, want_hi = _where_bracket(*args)
            assert np.array_equal(_bits(lo), _bits(want_lo)) and np.array_equal(_bits(hi), _bits(want_hi))
            assert np.array_equal(_bits(u0), _bits(_select_start(want_lo, want_hi)))
        for lo, hi, u0 in solves:
            assert np.array_equal(_bits(u0), _bits(_select_start(lo, hi)))
    if keep.any():
        # the classical map's one block makes its one _bracket call
        (tc, d, right, _), _ = traces[1][0][0]
        kept = want[keep]
        left = (kept == characteristics._ON_C) | ((kept == characteristics._OMEGA_A) & (x[keep] < 2.0 * tc))
        assert right.tolist() == np.where(tc > 1.0, ~left, d > 0.0).tolist()


def _b_ulps(t, k):
    """x k ulps from B at time t (2t, the line B continues, up to the crease)."""
    x = boundary_x(B, t) if t >= 1.0 else 2.0 * t
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


_T_EDGES = [0.0, 1e-12, 0.5, 1.0 - 1e-12, 1.0, math.nextafter(1.0, 2.0), 1.0 + 1e-9, 2.0, 37.5, 1e6]


@st.composite
def _rule_points(draw):
    """A point anywhere, on the line x = 2t (flat points up to the crease), a few
    ulps from B, or within a few GEOM_TOL of C or K."""
    t = draw(st.one_of(st.sampled_from(_T_EDGES), st.floats(0.0, 1e3), st.floats(0.9, 3.0)))
    kind = draw(st.sampled_from(["free", "near", "2t", "B", "C", "K"]))
    if kind == "free":
        return t, draw(st.floats(-1e6, 1e6))
    if kind == "near":
        return t, draw(st.floats(-20.0, 20.0))
    if kind == "2t":
        return t, 2.0 * t
    if kind == "B":
        return t, _b_ulps(t, draw(st.integers(-3, 3)))
    off = draw(st.floats(-3e-9, 3e-9))
    return t, (4.0 - 2.0 * t if kind == "C" else 2.0 * t) + off


class TestSelectFreeRules:
    """The brackets with their Newton starts, the region codes and the
    classical family mask are formed by sign arithmetic; each keeps, bit for
    bit, the per-point np.where form it replaced."""

    def test_edges(self):
        pts = [(t, x) for t in _T_EDGES for x in (2.0 * t, -0.0, 0.0, 4.0 - 2.0 * t, 2.0 * t + 1e-9,
                                                   2.0 * t - 1e-9, -30.0, 40.0)]
        pts += [(t, _b_ulps(t, k)) for t in _T_EDGES for k in (-2, -1, 0, 1, 2)]
        pts += [(1.0, 2.0 + 1e-11), (1.0 + 1e-11, 2.0), (2.0, float.fromhex("0x1.b6f0255dde973p+1"))]
        t, x = np.array(pts).T
        _assert_select_free_rules(t, x)
        # the snap's collapsed brackets [z, z] are among the solved ones
        on_b = np.array([_b_ulps(2.0, -1), _b_ulps(3.0, 0)])
        _, solves = _traced(foot_classical_array, np.array([2.0, 3.0]), on_b)
        (lo, hi, u0), = solves
        assert lo.tolist() == hi.tolist() == u0.tolist() == [1.0, math.sqrt(2.0)]

    @settings(deadline=None)
    @given(st.lists(_rule_points(), min_size=1, max_size=40))
    def test_drawn_points(self, points):
        t, x = np.array(points).T
        _assert_select_free_rules(t, x)

    @pytest.mark.parametrize("t, x", [(2.0, 3.7), (2.0, 3.0), (0.5, 1.0), (0.0, 5.0), (2.0, 4.0)])
    def test_region_codes_keep_0d_arrays(self, t, x):
        ts, xs = np.asarray(t), np.asarray(x)
        codes = characteristics._region_codes(ts, xs, characteristics._x_B(ts))
        assert isinstance(codes, np.ndarray) and codes.shape == () and codes.dtype == np.intp
        assert int(codes) == int(_where_codes(ts, xs, characteristics._x_B(ts)))
        assert classify(Point(t, x)) is characteristics._TAG_ORDER[int(codes)]


class TestWideArrays:
    @pytest.mark.parametrize("t", [0.5, 2.0])
    @pytest.mark.parametrize("L", [40.0, 1e3, 1e6])
    def test_weak_feet_on_wide_samples(self, t, L):
        x = np.linspace(-L, L, 2001)
        u = foot_weak_array(np.full_like(x, t), x)
        d = x - 2.0 * t
        residual = u - t * np.arctan(u) - d
        assert np.all(np.abs(residual) <= 8 * np.finfo(float).eps * (np.abs(u) + np.abs(d) + t))
        assert np.all(np.diff(u) > 0)

    def test_scalar_feet_at_wide_x(self):
        # the residual's rounding floor here is above 1e-12
        for t, x in ((673.8212074159051, 127546.64089624258), (0.5, -1e6), (1000.0, 1e6)):
            u = foot_weak(Point(t, x))
            v = foot_weak_array(np.array([t]), np.array([x]))[0]
            assert u == pytest.approx(v, rel=1e-14)

    def test_max_iter_message_names_t_and_d(self, monkeypatch):
        monkeypatch.setattr(characteristics, "_MAX_SWEEPS", 1)
        with pytest.raises(MaxIterExceeded, match=r"\(t, d\) = \(1\.0, 0\.25\).*bracket \[0\.0, "):
            foot_weak_array(np.array([0.5, 1.0]), np.array([1.2, 2.25]))


class TestFrozenFeet:
    """Exact feet, pinned bit for bit: a change to the solver's arithmetic shows here."""

    @pytest.mark.parametrize("t, x, expected", [
        (2.0, 4.5, "0x1.7fb1d0d0056cfp+1"),           # right family past the crease
        (2.0, 3.0, "-0x1.ccc149165a7b4p+1"),          # left family past the crease
        (0.5, 1.0, "0x0.0p+0"),                       # flat point: d = 0, t <= 1
        (1.0, 2.0, "0x0.0p+0"),
        (1000.0, 1e6, "0x1.e812597350473p+19"),
        (0.5, -1e6, "-0x1.e8483921fa47dp+19"),
    ])
    def test_weak_feet(self, t, x, expected):
        assert foot_weak(Point(t, x)).hex() == expected

    def test_classical_foot_snaps_to_branch_point(self):
        assert foot_classical(Point(3.0, boundary_x(B, 3.0))).hex() == "0x1.6a09e667f3bcdp+0"

    @pytest.mark.parametrize("t, x, expected", [
        (2.0, 3.7, "0x1.d9d41fa5c0c9dp+0"),           # right family past the crease (wedge)
        # 1 ulp left of B at t = 2, inside the rounding band: snapped to sqrt(t-1) = 1 exactly
        (2.0, float.fromhex("0x1.b6f0255dde973p+1"), "0x1.0000000000000p+0"),
        (2.0, 0.0, "-0x1.b682f3418d8eap+2"),          # left family on the horizon C
        (0.5, 1.3, "0x1.1ac7d82b4f95bp-1"),           # before the crease
    ])
    def test_classical_feet(self, t, x, expected):
        assert float(foot_classical_array(t, x)).hex() == expected

    def test_shock_feet_near_crease(self):
        assert [u.hex() for u in shock_feet(1.0 + 1e-6)] == ["-0x1.c60c02321061fp-10", "0x1.c60c02321061fp-10"]

    def test_godunov_inflow_ghost(self):
        # the inflow ghost center x_lo - h/2 of 8000 cells on [-10, 10], and its mirror
        u = foot_weak_array(1.3, np.array([-10.00125, 10.00125]))
        assert [float(v).hex() for v in u] == ["-0x1.d1bb3744323bap+3", "0x1.29bb27d50aa33p+3"]

    def test_batch_across_blocks(self, monkeypatch):
        # 10007 points in blocks of 4096: three solver blocks
        monkeypatch.setattr(characteristics, "_BLOCK", 4096)
        t = np.linspace(0.0, 4.0, 10007)
        x = np.linspace(-30.0, 40.0, 10007)[::-1]
        digest = hashlib.sha256(foot_weak_array(t, x).tobytes()).hexdigest()
        assert digest == "174b654e7649bd9b775d6c39138d0e92ecba31730f56544630b61fee961fda6d"

    def test_classical_batch_across_blocks(self):
        # 28221 classical-domain points on a line through every region: more than two blocks
        t = np.linspace(0.0, 4.0, 30011)
        x = np.linspace(-30.0, 40.0, 30011)[::-1]
        keep = classify_array(t, x) != RegionTag.WEAK_ONLY
        assert keep.sum() == 28221
        digest = hashlib.sha256(foot_classical_array(t[keep], x[keep]).tobytes()).hexdigest()
        assert digest == "0ee356c012461707b958accce4124e5e6037050863f38215dcce4945d6481a4e"


def _solver_batch():
    """206,005 seeded points where the solver and the region rules are hardest:
    random boxes out to |x| = 1e7 and t = 1e3, 1e-6 boxes around the origin and
    the crease, points 0 to 2 ulps either side of B and C, 1e-9 either side of
    K, flat points x = 2t up to the crease, and x = +-0, +-1e-300 and the
    smallest subnormal on the initial slice."""
    rng = np.random.default_rng(35)
    boxes = [((0.0, 4.0), (-30.0, 40.0)), ((0.0, 1e3), (-1e4, 1e4)), ((0.0, 1e3), (-1e7, 1e7)),
             ((0.0, 1e-6), (-1e-6, 1e-6)), ((1.0 - 1e-6, 1.0 + 1e-6), (2.0 - 1e-6, 2.0 + 1e-6))]
    ts, xs = zip(*[(rng.uniform(*tb, 36000), rng.uniform(*xb, 36000)) for tb, xb in boxes])
    t_curve, t_shock, t_flat = rng.uniform(1.0, 1e3, 2000), rng.uniform(1.0, 1e3, 2000), rng.uniform(0.0, 1.0, 2000)
    edges = []
    for x in (boundary_x(B, t_curve), 4.0 - 2.0 * t_curve):
        for k in (-2, -1, 0, 1, 2):
            xk = x
            for _ in range(abs(k)):
                xk = np.nextafter(xk, math.copysign(math.inf, k))
            edges.append(xk)
    t = np.concatenate(ts + (np.tile(t_curve, 10), t_shock, t_shock, t_flat, np.zeros(5)))
    x = np.concatenate(xs + tuple(edges) + (2.0 * t_shock - 1e-9, 2.0 * t_shock + 1e-9, 2.0 * t_flat,
                                            np.array([0.0, -0.0, 1e-300, -1e-300, 5e-324])))
    return t, x


class TestSolverBitPin:
    def test_maps_digest(self):
        # one digest of the region codes, the four foot and psi maps (the classical
        # ones on the points not weak-only) and shock_feet: a refactor of the
        # solver or the rules that moves any bit shows here
        t, x = _solver_batch()
        codes = characteristics._region_codes(t, x, characteristics._x_B(t))
        keep = codes != characteristics._WEAK_ONLY
        digest = hashlib.sha256(codes.tobytes())
        for a in (foot_weak_array(t, x), psi_weak_array(t, x), foot_classical_array(t[keep], x[keep]),
                  psi_classical_array(t[keep], x[keep]), *shock_feet(t[t > 1.0])):
            digest.update(a.tobytes())
        assert (t.size, keep.sum()) == (206005, 188358)
        assert digest.hexdigest() == "77f06c98e12f876fab4cf95342411ca0795f02a0e276c54721d80fc297503511"


def _classical_batch():
    """A 9x12 batch of classical-domain points: before the crease, on and right
    of B, beside and on K, on and left of C."""
    t = np.linspace(0.0, 4.0, 9)[:, None]
    xb = boundary_x(B, np.maximum(t, 1.0))
    x = np.hstack([xb, xb + 1e-12, xb + 0.3, 2.0 * t - 0.1, 2.0 * t, 2.0 * t + 0.1, 2.0 * t + 5.0,
                   4.0 - 2.0 * t, 4.0 - 2.0 * t - 1e-11, 4.0 - 2.0 * t - 1.0, 4.0 - 2.0 * t - 30.0,
                   np.full_like(t, -1e3)])
    t = np.broadcast_to(t, x.shape).copy()
    assert not (classify_array(t, x) == RegionTag.WEAK_ONLY).any()
    return t, x


_MAPS = [foot_weak_array, foot_classical_array, psi_weak_array, psi_classical_array]


class TestBlocks:
    """The batched maps give the same bits at any block size, and the psi maps
    apply psi0 in place on their own foot arrays only."""

    @pytest.mark.parametrize("f", _MAPS)
    def test_maps_bit_equal_at_any_block(self, f, monkeypatch):
        t, x = _classical_batch()
        want = f(t, x)
        for block in (1, 7):
            monkeypatch.setattr(characteristics, "_BLOCK", block)
            got = f(t, x)
            assert got.shape == t.shape and got.tobytes() == want.tobytes()

    def test_solve_feet_bit_equal_at_any_block(self, monkeypatch):
        t, x = _classical_batch()
        d = x - 2.0 * t
        lo, hi, _ = characteristics._bracket(t, d, d > 0.0, characteristics._focus_foot(t))
        want = _explicit_solve(t, d, lo, hi)
        for block in (1, 7):
            monkeypatch.setattr(characteristics, "_BLOCK", block)
            for got in (_explicit_solve(t, d, lo, hi), _solve_feet(t, d, d > 0.0)):
                assert got.shape == t.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("f", [psi_weak_array, psi_classical_array])
    def test_psi_maps_leave_read_only_inputs_alone(self, f):
        t, x = _classical_batch()
        t0, x0 = t.copy(), x.copy()
        t.setflags(write=False)
        x.setflags(write=False)
        v = f(t, x)
        assert t.tobytes() == t0.tobytes() and x.tobytes() == x0.tobytes()
        assert not np.shares_memory(v, t) and not np.shares_memory(v, x)
        assert v.flags.writeable

    @pytest.mark.parametrize("f, foot, scalar", [
        (psi_weak_array, foot_weak_array, psi_weak),
        (psi_classical_array, foot_classical_array, psi_classical),
    ])
    def test_psi_maps_on_0d_pairs(self, f, foot, scalar):
        t, x = np.asarray(2.0), np.asarray(3.7)
        v = f(t, x)
        assert v.shape == () and float(v) == scalar(Point(2.0, 3.7)) == psi0(float(foot(t, x)))
        assert not np.shares_memory(v, t) and not np.shares_memory(v, x)

    @pytest.mark.parametrize("f, foot", [
        (psi_weak_array, foot_weak_array),
        (psi_classical_array, foot_classical_array),
    ])
    def test_psi_maps_broadcast_float_t(self, f, foot):
        # the call of godunov.l1_error: one time against (cells, 15 nodes)
        x = np.linspace(-3.0, 9.0, 4 * 15).reshape(4, 15)
        v = f(0.75, x)
        assert v.shape == x.shape
        assert v.tobytes() == f(np.full_like(x, 0.75), x).tobytes()
        assert v.tobytes() == psi0(foot(0.75, x)).tobytes()
