import math

import numpy as np
import pytest

from shocklab.core import DomainError, NearSingular, OnShockError, Point, psi0
from shocklab.characteristics import RegionTag, classify, outgoing_char
from shocklab.burgers import (
    ExpansionPrediction,
    dpsidx_classical,
    expansion_near_B,
    expansion_near_S,
    psi_boundary_extension,
    psi_classical,
    psi_classical_array,
    psi_weak,
    psi_weak_array,
    shock_trace,
)


class TestClassicalField:
    def test_examples(self):
        assert psi_classical(Point(0.5, 1.0)) == pytest.approx(0.0, abs=1e-12)
        # foot of (1, 2.1) solves u - arctan(u) = 0.1
        assert psi_classical(Point(1.0, 2.1)) == pytest.approx(-0.6316594726612043, abs=1e-11)
        for a in (-2.0, 0.7):
            assert psi_classical(Point(0.0, a)) == pytest.approx(-math.atan(a), abs=1e-15)

    def test_defined_on_shock(self):
        # the shock is interior to the classical domain
        v = psi_classical(Point(2.0, 4.0))
        assert v == pytest.approx(-math.atan(2.3311223704144224), abs=1e-11)

    def test_range(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            t = float(rng.uniform(0, 0.99))
            x = float(rng.uniform(-10, 10))
            assert -math.pi / 2 < psi_classical(Point(t, x)) < math.pi / 2

    def test_constant_along_characteristics(self):
        for x0 in (-2.0, -0.5, 0.3, 1.5):
            cap = 1.0 + x0 * x0 if x0 > 0 else (4.0 - x0) / (4.0 + math.atan(-x0))
            v1 = psi_classical(outgoing_char(x0, 0.3 * cap))
            v2 = psi_classical(outgoing_char(x0, 0.9 * cap))
            assert abs(v1 - v2) <= 1e-11
            assert v1 == pytest.approx(-math.atan(x0), abs=1e-11)


class TestClassicalDerivative:
    def test_examples(self):
        assert dpsidx_classical(Point(0.5, 1.0)) == pytest.approx(-2.0, abs=1e-11)
        for a in (-1.0, 2.0):
            expect = -1.0 / (1.0 + a * a)
            assert dpsidx_classical(Point(0.0, a)) == pytest.approx(expect, abs=1e-12)

    def test_along_blowup_characteristic(self):
        # foot 1 blows up at t = 2; at t = 1.9 the slope is -10
        p = outgoing_char(1.0, 1.9)
        assert dpsidx_classical(p) == pytest.approx(-10.0, abs=1e-9)

    def test_matches_finite_difference(self):
        h = 1e-6
        for t, x in ((0.5, 1.0), (1.27, 2.6), (0.8, -3.0), (2.0, 6.0)):
            fd = (psi_classical(Point(t, x + h)) - psi_classical(Point(t, x - h))) / (2 * h)
            assert fd == pytest.approx(dpsidx_classical(Point(t, x)), rel=1e-6, abs=1e-8)

    def test_near_singular_raises_on_boundary(self):
        # exactly on the singular boundary the snapped foot gives a zero
        # denominator; off the boundary, foot conditioning (~sqrt of the
        # root tolerance) keeps the computed denominator above geom_tol
        p, _ = psi_boundary_extension(1.0)
        with pytest.raises(NearSingular):
            dpsidx_classical(p)

    def test_large_slope_near_boundary(self):
        p = outgoing_char(1.0, 2.0 - 1e-6)
        assert dpsidx_classical(p) < -1e5

    def test_blowup_rate(self):
        # |dpsidx| grows like 1/(blowup time - t) along the characteristic
        x0 = 1.0
        for t in (1.5, 1.9, 1.99):
            v = dpsidx_classical(outgoing_char(x0, t))
            expect = -0.5 / (1.0 - 0.5 * t)
            assert v == pytest.approx(expect, rel=1e-9)
            assert abs(v) >= 0.5 / (2.0 * (2.0 - t)) * 0.5


class TestWeakField:
    def test_examples(self):
        assert psi_weak(Point(2.0, 3.0)) == pytest.approx(1.2998243026326977, abs=1e-11)
        assert psi_weak(Point(0.5, 1.0)) == pytest.approx(0.0, abs=1e-12)
        # mirror of the (2, 3) value across the shock
        assert psi_weak(Point(2.0, 5.0)) == pytest.approx(-1.2998243026326977, abs=1e-11)

    def test_on_shock_raises(self):
        with pytest.raises(OnShockError):
            psi_weak(Point(2.0, 4.0))

    def test_monotone_in_x(self):
        for t in (0.5, 1.0, 2.0, 5.0):
            xs = np.linspace(-10, 10, 501)
            vals = psi_weak_array(np.full(xs.shape, t), xs)
            assert np.all(np.diff(vals) <= 1e-13)

    def test_agreement_region(self):
        pts = [(0.5, 1.0), (0.9, -2.0), (2.0, 4.5), (1.2, 1.0), (3.0, 7.0)]
        for t, x in pts:
            assert psi_weak(Point(t, x)) == psi_classical(Point(t, x))

    def test_wedge_strict_inequality(self):
        for t, x in ((1.27, 2.5), (1.5, 2.95), (2.0, 3.9), (3.0, 5.9)):
            assert classify(Point(t, x)) is RegionTag.WEDGE
            assert psi_classical(Point(t, x)) < psi_weak(Point(t, x))


class TestBoundaryExtension:
    def test_crease(self):
        pt, v = psi_boundary_extension(0.0)
        assert (pt.t, pt.x) == (1.0, 2.0)
        assert v == 0.0

    def test_z1(self):
        pt, v = psi_boundary_extension(1.0)
        assert pt.t == 2.0
        assert pt.x == pytest.approx(5.0 - math.pi / 2, abs=1e-15)
        assert v == pytest.approx(-math.pi / 4, abs=1e-15)

    def test_z2(self):
        pt, v = psi_boundary_extension(2.0)
        assert pt.t == 5.0
        assert pt.x == pytest.approx((2.0 - math.atan(2.0)) * 5.0 + 2.0, abs=1e-14)
        assert v == pytest.approx(-math.atan(2.0), abs=1e-15)

    def test_negative_z_rejected(self):
        with pytest.raises(DomainError):
            psi_boundary_extension(-0.1)

    def test_is_limit_of_field(self):
        # interior values along the time slice approach the extension value
        pt, v = psi_boundary_extension(1.0)
        for d in (1e-4, 1e-6, 1e-8):
            interior = psi_classical(Point(pt.t, pt.x + d))
            assert abs(interior - v) < 2.0 * math.sqrt(d)


class TestShockTrace:
    def test_reference_time(self):
        tr = shock_trace(4.0 / math.pi)
        assert tr.left_value == pytest.approx(math.pi / 4, abs=1e-12)
        assert tr.right_value == pytest.approx(-math.pi / 4, abs=1e-12)
        assert tr.speed == 2.0

    def test_t2(self):
        tr = shock_trace(2.0)
        expect = math.atan(2.3311223704144224)
        assert tr.left_value == pytest.approx(expect, abs=1e-11)
        assert tr.right_value == pytest.approx(-expect, abs=1e-11)
        assert expect == pytest.approx(1.1655611852072114, abs=1e-12)

    def test_symmetry_and_jump(self):
        for t in (1.1, 2.0, 10.0, 50.0):
            tr = shock_trace(t)
            assert tr.left_value == pytest.approx(-tr.right_value, abs=1e-11)
            assert tr.jump > 0.0

    def test_crease_limit(self):
        tr = shock_trace(1.0 + 1e-9)
        assert tr.jump < 2e-4

    def test_rankine_hugoniot(self):
        for t in (1.01, 2.0, 7.0):
            tr = shock_trace(t)
            mean = 0.5 * ((2 + tr.left_value) + (2 + tr.right_value))
            assert abs(tr.speed - mean) <= 1e-11

    def test_matches_one_sided_field_limits(self):
        t = 2.0
        tr = shock_trace(t)
        eps = 1e-9
        assert psi_weak(Point(t, 2 * t - eps)) == pytest.approx(tr.left_value, abs=1e-6)
        assert psi_weak(Point(t, 2 * t + eps)) == pytest.approx(tr.right_value, abs=1e-6)


class TestExpansions:
    def test_near_B_coefficients(self):
        e2 = expansion_near_B(2.0)
        assert e2.leading_coefficient == pytest.approx(-0.5 * math.sqrt(2.0), abs=1e-14)
        assert e2.exponent == 0.5
        assert e2.base_point.x == pytest.approx(5.0 - math.pi / 2, abs=1e-14)
        e5 = expansion_near_B(5.0)
        assert e5.leading_coefficient == pytest.approx(-0.2 * math.sqrt(2.5), abs=1e-14)

    def test_unsupported_exponent(self):
        with pytest.raises(DomainError, match="unsupported expansion exponent 0.7"):
            ExpansionPrediction(1.0, 0.7, Point(2.0, 3.0))

    def test_near_B_rejects_crease(self):
        with pytest.raises(DomainError):
            expansion_near_B(1.0)

    def test_near_B_predicts_field(self):
        for t_bar in (1.5, 2.0, 5.0):
            pred = expansion_near_B(t_bar)
            base, v0 = psi_boundary_extension(math.sqrt(t_bar - 1.0))
            rels = []
            for d in (1e-4, 1e-6):
                actual = psi_classical(Point(t_bar, base.x + d)) - v0
                rels.append(abs(actual / pred.value(d) - 1.0))
            assert rels[1] < rels[0] < 0.05

    def test_near_S_values(self):
        assert expansion_near_S(3e-6) == pytest.approx(-(9e-6) ** (1.0 / 3.0), abs=1e-12)
        assert expansion_near_S(1e-3 / 3.0) == pytest.approx(-0.1, abs=1e-15)

    def test_near_S_window(self):
        with pytest.raises(DomainError):
            expansion_near_S(0.0)
        with pytest.raises(DomainError):
            expansion_near_S(0.2)

    def test_near_S_predicts_field(self):
        for d in (1e-4, 1e-6):
            actual = psi_classical(Point(1.0, 2.0 + d))
            rel = abs(actual / expansion_near_S(d) - 1.0)
            assert rel < 10.0 * d ** (1.0 / 9.0)
            assert rel < 0.05


class TestArrayEvaluators:
    def test_match_scalar(self):
        pts = [(0.5, 1.0), (1.27, 2.5), (2.0, 4.5), (1.2, 1.0)]
        ts = np.array([p[0] for p in pts])
        xs = np.array([p[1] for p in pts])
        cw = psi_weak_array(ts, xs)
        cc = psi_classical_array(ts, xs)
        for (t, x), w, c in zip(pts, cw, cc):
            assert w == pytest.approx(psi_weak(Point(t, x)), abs=1e-12)
            assert c == pytest.approx(psi_classical(Point(t, x)), abs=1e-12)


class TestDegeneratePoints:
    def test_crease_value(self):
        one, two = np.array([1.0]), np.array([2.0])
        assert abs(psi_weak_array(one, two)[0]) <= 1e-7
        assert abs(psi_classical_array(one, two)[0]) <= 1e-7

    def test_value_on_B_is_boundary_extension(self):
        for z in (0.5, 1.0, math.sqrt(2.0), 3.0, 31.6):
            p, value = psi_boundary_extension(z)
            got = psi_classical_array(np.array([p.t]), np.array([p.x]))[0]
            assert got == psi0(math.sqrt(p.t - 1.0))
            assert got == pytest.approx(value, abs=1e-15)
