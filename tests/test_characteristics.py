import hashlib
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from shocklab.core import (
    GEOM_TOL,
    DomainError,
    MaxIterExceeded,
    OnShockError,
    OutsideDomain,
    Point,
)
from shocklab import characteristics
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
        with pytest.raises(DomainError):
            blowup_time(0.0)
        with pytest.raises(DomainError):
            blowup_time(-1.0)

    def test_shock_arrival(self):
        assert shock_arrival_time(1.0) == pytest.approx(4.0 / math.pi, abs=1e-15)
        assert shock_arrival_time(-1.0) == shock_arrival_time(1.0)
        assert shock_arrival_time(1e-8) == pytest.approx(1.0, abs=1e-8)
        with pytest.raises(DomainError):
            shock_arrival_time(0.0)

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


class TestSolveFeet:
    def test_matches_brentq_per_point(self):
        # easy points, a point near the crease and a wide-|d| point converge together
        t = np.array([0.5, 2.0, 1.0, 0.9, 3.0])
        d = np.array([0.7, 1.0, 1e-6, -4e5, -0.3])
        lo = np.array([0.0, 1.0, 0.0, -4e5 - 2.0, -10.0])
        hi = np.array([2.0, 10.0, 1.0, 0.0, -math.sqrt(2.0)])
        u = _solve_feet(t, d, lo, hi)
        for ti, di, a, b, ui in zip(t, d, lo, hi, u):
            f = lambda y: y - ti * math.atan(y) - di
            expected = brentq(f, a, b, xtol=1e-15, rtol=8.9e-16)
            assert ui == pytest.approx(expected, rel=1e-13, abs=1e-13)

    def test_shape_and_blocks(self):
        # more points than one block, in a 2-D layout
        rng = np.random.default_rng(5)
        t = rng.uniform(0.0, 0.99, (3, 7000))
        d = rng.uniform(0.01, 50.0, (3, 7000))
        u = _solve_feet(t, d, np.zeros_like(t), d + t * math.pi / 2)
        assert u.shape == t.shape
        residual = u - t * np.arctan(u) - d
        assert np.all(np.abs(residual) <= 8 * np.finfo(float).eps * (u + d))

    def test_collapsed_bracket_returned_as_given(self):
        t, d = np.array([2.0, 0.5]), np.array([1.0, 0.0])
        u = _solve_feet(t, d, np.array([1.25, 0.0]), np.array([1.25, 0.0]))
        assert u.tolist() == [1.25, 0.0]

    def test_max_iter_message_names_worst_point(self, monkeypatch):
        t, d = np.array([0.5, 1.0]), np.array([0.1, 1e-3])
        monkeypatch.setattr(characteristics, "_MAX_SWEEPS", 2)
        with pytest.raises(MaxIterExceeded) as err:
            _solve_feet(t, d, np.zeros(2), d + t * math.pi / 2)
        msg = str(err.value)
        assert "(t, d) = (1.0, 0.001)" in msg
        assert "residual" in msg and "bracket [0.0, " in msg


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

    def test_shock_feet_near_crease(self):
        assert [u.hex() for u in shock_feet(1.0 + 1e-6)] == ["-0x1.c60c02321061fp-10", "0x1.c60c02321061fp-10"]

    def test_godunov_ghost_pair(self):
        u = foot_weak_array(1.3, np.array([-10.00125, 10.00125]))
        assert [float(v).hex() for v in u] == ["-0x1.d1bb3744323bap+3", "0x1.29bb27d50aa33p+3"]

    def test_batch_across_blocks(self):
        # 10007 points: more than one solver block
        t = np.linspace(0.0, 4.0, 10007)
        x = np.linspace(-30.0, 40.0, 10007)[::-1]
        digest = hashlib.sha256(foot_weak_array(t, x).tobytes()).hexdigest()
        assert digest == "174b654e7649bd9b775d6c39138d0e92ecba31730f56544630b61fee961fda6d"
