import math
from dataclasses import astuple

import numpy as np
import pytest

from shocklab.core import DomainError, Point, Vec2
from shocklab.core import DegenerateMetric, ZeroVector, ApexNotOnBoundary
from shocklab.burgers import psi_boundary_extension, shock_trace
from shocklab.characteristics import foot_classical
from shocklab.geometry import (
    SHOCK_TANGENT,
    CausalClass,
    backward_L_curves,
    bubble_witness,
    causal_class,
    causal_past_contains,
    horizon_null_check,
    inverse_metric,
    metric,
    null_frame,
    shock_character,
    shock_tangent_norms,
    tangency_residual_B,
    timelike_past_contains,
)
from shocklab.verification import _LOG_TIMES

APEX = Point(2.0, 5.0 - math.pi / 2)  # boundary point with foot 1


class TestMetric:
    def test_components_at_zero(self):
        g = metric(0.0)
        assert (g.gtt, g.gtx, g.gxx) == (-1.0, 0.0, 0.25)

    def test_inverse_at_zero(self):
        gi = inverse_metric(0.0)
        assert (gi.gtt, gi.gtx, gi.gxx) == (-1.0, 0.0, 4.0)

    def test_product_identity(self):
        for psi in np.linspace(-1.5, 1.5, 31):
            prod = metric(float(psi)).as_matrix() @ inverse_metric(float(psi)).as_matrix()
            assert np.max(np.abs(prod - np.eye(2))) <= 1e-13

    def test_lorentzian(self):
        for psi in np.linspace(-math.pi / 2 + 1e-6, math.pi / 2 - 1e-6, 101):
            g = metric(float(psi))
            assert g.det < 0.0
            # determinant has the closed form -4/(4+psi)^2
            assert g.det == pytest.approx(-4.0 / (4.0 + psi) ** 2, rel=1e-12)

    def test_degenerate_guard(self):
        for bad in (-2.0, -4.0):
            with pytest.raises(DegenerateMetric):
                metric(bad)
            with pytest.raises(DegenerateMetric):
                inverse_metric(bad)

    def test_array_of_psi(self):
        psi = np.linspace(-1.5, 1.5, 7)
        g, gi = metric(psi), inverse_metric(psi)
        for k, p in enumerate(psi.tolist()):
            assert (g.gtt[k], g.gtx[k], g.gxx[k]) == astuple(metric(p))
            assert (gi.gtx[k], gi.gxx[k]) == astuple(inverse_metric(p))[1:]
        with pytest.raises(DegenerateMetric):
            metric(np.array([0.0, -2.0]))

    def test_frame_null(self):
        for psi in np.linspace(-1.5, 1.5, 64):
            g = metric(float(psi))
            fr = null_frame(float(psi))
            assert abs(g.norm_sq(fr.L)) <= 1e-13
            assert abs(g.norm_sq(fr.Lbar)) <= 1e-13

    def test_inverse_decomposition(self):
        for psi in np.linspace(-1.5, 1.5, 64):
            gi = inverse_metric(float(psi)).as_matrix()
            fr = null_frame(float(psi))
            L = np.array([fr.L.dt, fr.L.dx])
            Lb = np.array([fr.Lbar.dt, fr.Lbar.dx])
            residual = gi + 0.5 * (np.outer(L, Lb) + np.outer(Lb, L))
            assert np.max(np.abs(residual)) <= 1e-13


class TestCausalClass:
    def test_frame_vectors_null(self):
        for psi in (-1.0, 0.0, 1.2):
            fr = null_frame(psi)
            assert causal_class(psi, fr.L) is CausalClass.NULL
            assert causal_class(psi, fr.Lbar) is CausalClass.NULL

    def test_time_and_space_at_zero(self):
        assert causal_class(0.0, Vec2(1.0, 0.0)) is CausalClass.TIMELIKE
        assert causal_class(0.0, Vec2(0.0, 1.0)) is CausalClass.SPACELIKE

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            causal_class(0.0, Vec2(0.0, 0.0))


class TestBoundaryGeometry:
    def test_tangency_residual(self):
        for t in (1.01, 2.0, 5.0, 40.0):
            assert tangency_residual_B(t) <= 1e-10

    def test_tangency_domain(self):
        with pytest.raises(DomainError):
            tangency_residual_B(1.0)

    def test_horizon_null(self):
        for t in (1.5, 3.0, 12.0):
            assert horizon_null_check(t) <= 1e-13

    def test_horizon_null_domain(self):
        with pytest.raises(DomainError, match="needs t > 1, got 1.0"):
            horizon_null_check(1.0)

    def test_shock_character(self):
        for t in (1.1, 4.0 / math.pi, 2.0, 10.0):
            right_cls, left_cls = shock_character(t)
            assert right_cls is CausalClass.SPACELIKE
            assert left_cls is CausalClass.TIMELIKE

    def test_shock_tangent_norm_values(self):
        right, left = shock_tangent_norms(4.0 / math.pi)
        # -16 psi / (4 + psi)^2 at psi = -pi/4 and +pi/4
        assert right == pytest.approx(1.2160613541670577, abs=1e-9)
        assert left == pytest.approx(-0.5487489558357169, abs=1e-9)

    def test_shock_norms_degenerate_at_crease(self):
        right, left = shock_tangent_norms(1.0 + 1e-9)
        assert abs(right) < 1e-4 and abs(left) < 1e-4

    # the suite's 50 times and the first double past the crease, whose
    # norms +-2.6e-8 still lie outside the null band
    @pytest.mark.parametrize("t", [*map(float, _LOG_TIMES), 1.0 + 2.0 ** -52])
    def test_shock_character_classifies_the_tangent_norms(self, t):
        trace = shock_trace(t)
        assert shock_character(t) == (
            causal_class(trace.right_value, SHOCK_TANGENT),
            causal_class(trace.left_value, SHOCK_TANGENT),
        )


class TestPasts:
    def test_explicit_memberships(self):
        assert causal_past_contains(APEX, Point(1.0, 2.1)) is True
        assert timelike_past_contains(APEX, Point(1.0, 2.1)) is False
        assert causal_past_contains(APEX, Point(0.5, 1.0)) is True  # on the center line
        assert causal_past_contains(APEX, Point(1.0, 6.0)) is False
        assert timelike_past_contains(APEX, Point(1.0, 3.0)) is True
        assert timelike_past_contains(APEX, Point(1.0, 6.0)) is False

    def test_right_boundary_is_ingoing_line(self):
        # on the backward ingoing line: causally reachable, not timelike
        t = 1.4
        x = APEX.x + 2.0 * (APEX.t - t)
        assert causal_past_contains(APEX, Point(t, x)) is True
        assert timelike_past_contains(APEX, Point(t, x)) is False

    def test_apex_validation(self):
        with pytest.raises(ApexNotOnBoundary):
            causal_past_contains(Point(2.0, 3.0), Point(1.0, 2.5))
        with pytest.raises(ApexNotOnBoundary):
            bubble_witness(Point(0.5, 1.0))

    def test_target_after_apex(self):
        with pytest.raises(DomainError):
            causal_past_contains(APEX, Point(3.0, 2.0))
        with pytest.raises(DomainError, match="after the apex"):
            timelike_past_contains(APEX, Point(3.0, 2.0))


class TestBubble:
    def test_witness_for_reference_apex(self):
        q = bubble_witness(APEX)
        assert q.t == pytest.approx(1.5, abs=1e-12)
        # interval between the boundary curve and the interior characteristic
        assert 2.7838 < q.x < 2.8220
        assert causal_past_contains(APEX, q) is True
        assert timelike_past_contains(APEX, q) is False

    @pytest.mark.parametrize("z", [0.25, 0.5, 1.0, 2.0, 4.0])
    def test_witness_along_boundary(self, z):
        apex, _ = psi_boundary_extension(z)
        q = bubble_witness(apex)
        assert causal_past_contains(apex, q) is True
        assert timelike_past_contains(apex, q) is False

    def test_bubble_width_shrinks_toward_crease(self):
        widths = []
        for z in (1.0, 0.5, 0.25, 0.1):
            apex, _ = psi_boundary_extension(z)
            t_mid = 0.5 * (1.0 + apex.t)
            from shocklab.characteristics import BoundaryCurve, boundary_x
            lo = boundary_x(BoundaryCurve.SINGULAR_BOUNDARY, t_mid)
            hi = z + t_mid * (2.0 - math.atan(z))
            widths.append(hi - lo)
        assert all(w > 0 for w in widths)
        assert all(a > b for a, b in zip(widths, widths[1:]))


class TestBackwardCurves:
    def test_two_solutions(self):
        # keep the boundary leg strictly past the crease: its curvature
        # blows up at t = 1 and would dominate the difference residual
        gb, gi, (rb, ri) = backward_L_curves(APEX, 0.95, 10_000)
        assert gb.shape == gi.shape == (10_001, 2)
        # shared apex
        assert gb[-1] == pytest.approx([2.0, 5.0 - math.pi / 2], abs=1e-12)
        assert gi[-1] == pytest.approx([2.0, 5.0 - math.pi / 2], abs=1e-12)
        assert rb <= 1e-4 and ri <= 1e-4
        # separation at t = 1.5
        k = np.argmin(np.abs(gb[:, 0] - 1.5))
        gap = abs(gi[k, 1] - gb[k, 1])
        assert gap == pytest.approx(0.0380, abs=2e-3)
        assert gap >= 0.03

    def test_boundary_curve_is_boundary(self):
        gb, _, _ = backward_L_curves(APEX, 0.5, 100)
        from shocklab.characteristics import BoundaryCurve, boundary_x
        for t, x in gb[::10]:
            assert x == pytest.approx(boundary_x(BoundaryCurve.SINGULAR_BOUNDARY, float(t)), abs=1e-12)

    def test_duration_guard(self):
        with pytest.raises(DomainError):
            backward_L_curves(APEX, 1.5, 100)
        with pytest.raises(DomainError, match="duration must be positive"):
            backward_L_curves(APEX, 0.0, 100)

    def test_steps_guard(self):
        with pytest.raises(DomainError, match="at least 2 steps"):
            backward_L_curves(APEX, 0.5, 1)

    def test_extrinsically_spacelike(self):
        # backward characteristics from interior points approaching the apex
        # land, at t = 1, a bounded distance from the crease (x = 2), unlike
        # the boundary's own backward null curve which reaches the crease
        for t_n in (1.9, 1.99, 1.999):
            p = Point(t_n, APEX.x)
            u = foot_classical(p)
            x_at_1 = u + 1.0 * (2.0 - math.atan(u))
            assert x_at_1 - 2.0 >= 0.2
