import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from shocklab.core import (
    DomainError,
    OnShockError,
    OutsideDomain,
    Point,
    SolutionVariant,
)
from shocklab.burgers import psi_weak
from shocklab.characteristics import RegionTag, classify_array
from shocklab.wave_potential import (
    dphidt_closed,
    dphidx_closed,
    horizon_jump_probe,
    lbar_derivative,
    pde_residual_classical,
    phi,
)

W, CL = SolutionVariant.WEAK, SolutionVariant.CLASSICAL


def oracle_psi_weak(t: float, x: float) -> float:
    d = x - 2.0 * t
    f = lambda u: u - t * math.atan(u) - d
    if d == 0.0 and t <= 1.0:
        return 0.0
    if d > 0:
        u = brentq(f, 0.0, d + t * math.pi / 2 + 1.0, xtol=1e-15, rtol=8.9e-16)
    else:
        u = brentq(f, d - t * math.pi / 2 - 1.0, 0.0, xtol=1e-15, rtol=8.9e-16)
    return -math.atan(u)


def oracle_phi_weak(t: float, x: float) -> float:
    """Independent quadrature of the ingoing integral (scipy QUADPACK)."""
    if t == 0.0:
        return 0.0
    f = lambda y: oracle_psi_weak(t + 0.5 * (x - y), y)
    y_star = t + 0.5 * x
    pts = [y_star] if x < y_star < x + 2 * t else None
    val, _ = quad(f, x, x + 2 * t, points=pts, limit=400, epsabs=1e-13, epsrel=1e-13)
    return 0.5 * val


SAMPLE_POINTS = [(0.5, 1.0), (2.0, 3.0), (2.0, 5.0), (1.27, 2.5), (0.2, -5.0), (1.6, 0.5)]
# |x| up to 1e3; at t = 600 the ingoing path crosses the shock
WIDE_POINTS = [(0.5, 1e3), (0.5, -1e3), (3.0, 1e3), (3.0, -1e3), (600.0, 1e3), (600.0, -1e3)]


class TestPhi:
    def test_zero_on_initial_slice(self):
        for a in (-3.0, 0.0, 2.0):
            assert phi(Point(0.0, a), W) == 0.0
            assert phi(Point(0.0, a), CL) == 0.0

    def test_variants_agree_below_shock(self):
        p = Point(0.5, 1.0)
        assert abs(phi(p, CL) - phi(p, W)) <= 2e-10

    def test_against_independent_quadrature(self):
        for t, x in SAMPLE_POINTS + WIDE_POINTS:
            assert phi(Point(t, x), W) == pytest.approx(oracle_phi_weak(t, x), abs=1e-9)

    def test_frozen_value(self):
        assert phi(Point(2.0, 3.0), W) == pytest.approx(-2.0313356695132665, abs=1e-9)

    def test_classical_outside_domain(self):
        with pytest.raises(OutsideDomain):
            phi(Point(2.2, 0.5), CL)

    def test_continuity_across_shock(self):
        t = 2.0
        gaps = []
        for d in (1e-2, 1e-4, 1e-6):
            gaps.append(abs(phi(Point(t, 4.0 + d), W) - phi(Point(t, 4.0 - d), W)))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 1e-5

    def test_continuity_across_horizon(self):
        x = 0.0
        t0 = 2.0
        gaps = []
        for d in (1e-2, 1e-4, 1e-6):
            gaps.append(abs(phi(Point(t0 + d, x), W) - phi(Point(t0 - d, x), W)))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 1e-5


class TestClosedFormDerivative:
    def test_zero_at_initial_slice(self):
        for a in (-2.0, 0.0, 3.0):
            assert dphidx_closed(Point(0.0, a), W) == pytest.approx(0.0, abs=1e-15)

    def test_matches_finite_difference_of_phi(self):
        h = 1e-5
        for t, x in SAMPLE_POINTS:
            fd = (phi(Point(t, x + h), W) - phi(Point(t, x - h), W)) / (2 * h)
            assert abs(dphidx_closed(Point(t, x), W) - fd) <= 1e-6

    def test_classical_variant_matches_fd(self):
        h = 1e-5
        for t, x in ((0.5, 1.0), (1.27, 2.5), (1.2, 1.0)):
            fd = (phi(Point(t, x + h), CL) - phi(Point(t, x - h), CL)) / (2 * h)
            assert abs(dphidx_closed(Point(t, x), CL) - fd) <= 1e-6

    def test_frozen_values(self):
        # finite-difference-of-quadrature oracle values
        assert dphidx_closed(Point(0.5, 1.0), W) == pytest.approx(-0.3240517425288392, abs=1e-9)
        assert dphidx_closed(Point(2.0, 3.0), W) == pytest.approx(-0.7093472255439564, abs=1e-9)

    def test_on_shock_raises(self):
        with pytest.raises(OnShockError):
            dphidx_closed(Point(2.0, 4.0), W)

    def test_c1_matching_from_below_horizon(self):
        # approaching the horizon from below, both potential derivatives
        # converge to their boundary values (first-order matching)
        x = 0.0
        t0 = 2.0 - 0.5 * x
        base_dx = dphidx_closed(Point(t0, x), W)
        base_dt = dphidt_closed(Point(t0, x), W)
        gaps = []
        for d in (1e-3, 1e-5, 1e-7):
            gx = abs(dphidx_closed(Point(t0 - d, x), W) - base_dx)
            gt = abs(dphidt_closed(Point(t0 - d, x), W) - base_dt)
            gaps.append(max(gx, gt))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 1e-6

    def test_dphidt(self):
        # d_t(Phi) - 2 d_x(Phi) = psi identically
        for t, x in SAMPLE_POINTS:
            p = Point(t, x)
            lhs = dphidt_closed(p, W) - 2.0 * dphidx_closed(p, W)
            assert lhs == pytest.approx(psi_weak(p), abs=1e-13)
        h = 1e-5
        p = Point(2.0, 3.0)
        fd = (phi(Point(p.t + h, p.x), W) - phi(Point(p.t - h, p.x), W)) / (2 * h)
        assert abs(dphidt_closed(p, W) - fd) <= 1e-6


class TestLbarDerivative:
    def test_equals_field(self):
        for t, x in SAMPLE_POINTS:
            p = Point(t, x)
            assert abs(lbar_derivative(t, x, W) - psi_weak(p)) <= 1e-6

    def test_classical_variant(self):
        p = Point(0.5, 1.0)
        assert abs(lbar_derivative(p.t, p.x, CL) - 0.0) <= 1e-6

    def test_weak_value_at_reference_point(self):
        assert lbar_derivative(2.0, 3.0, W) == pytest.approx(1.2998243026326977, abs=1e-6)

    def test_on_shock_raises(self):
        with pytest.raises(OnShockError):
            lbar_derivative(2.0, 4.0, W)

    def test_small_time_guard(self):
        with pytest.raises(DomainError):
            lbar_derivative(1e-7, 0.0, W)


# the input point is checked before any step or stencil is formed from it
@pytest.mark.parametrize("call, message", [
    (lambda: lbar_derivative(math.inf, 0.0, W), "non-finite point (inf, 0.0)"),
    (lambda: lbar_derivative(math.nan, 0.0, W), "non-finite point (nan, 0.0)"),
    (lambda: pde_residual_classical(math.inf, 0.0, math.inf), "non-finite point (inf, 0.0)"),
], ids=["lbar_inf", "lbar_nan", "pde_inf"])
def test_stencil_maps_check_the_input_point(call, message):
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message


class TestHorizonProbe:
    def test_domain_guards(self):
        with pytest.raises(DomainError):
            horizon_jump_probe(2.5, 1e-3)
        with pytest.raises(DomainError):
            horizon_jump_probe(0.0, 0.0)
        with pytest.raises(DomainError):
            horizon_jump_probe(0.0, 0.1)

    def test_matches_fd_of_phi(self):
        x, eps = 0.0, 1e-2
        t0 = 2.0 - 0.5 * x
        h = 1e-6
        fd_above = (phi(Point(t0 + eps, x + h), W) - phi(Point(t0 + eps, x - h), W)) / (2 * h)
        fd_base = (phi(Point(t0, x + h), W) - phi(Point(t0, x - h), W)) / (2 * h)
        assert horizon_jump_probe(x, eps) == pytest.approx(fd_above - fd_base, abs=1e-6)

    def test_vanishes_at_horizon(self):
        vals = [abs(horizon_jump_probe(0.0, 1e-2 * 2.0 ** -k)) for k in range(8)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-5

    def test_linear_decay(self):
        # the sqrt-order parts of the shock-crossing terms cancel; what
        # remains decays linearly in the height above the horizon
        eps = np.array([1e-2 * 2.0 ** -k for k in range(11)])
        vals = np.array([abs(horizon_jump_probe(0.0, float(e))) for e in eps])
        slope = np.polyfit(np.log(eps), np.log(vals), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.05)


class TestDerivativeIdentitySample:
    def test_five_hundred_point_sample(self):
        # bulk check of both derivative contracts on one deterministic
        # off-shock sample: the ingoing derivative recovers the field and
        # the closed-form spatial derivative matches differenced quadrature
        from shocklab.verification import halton

        pts = []
        cursor = 0
        while len(pts) < 500:
            batch = halton(1024, skip=cursor)
            cursor += 1024
            for a, b in batch:
                t = 0.1 + 2.4 * a
                x = -5.0 + 12.0 * b
                if abs(x - 2.0 * t) < 0.02:           # off the shock
                    continue
                if abs(t - (2.0 - 0.5 * x)) < 0.02:   # off the horizon line
                    continue
                pts.append((t, x))
                if len(pts) == 500:
                    break
        worst_lbar, worst_dx = 0.0, 0.0
        for t, x in pts:
            p = Point(t, x)
            psi = psi_weak(p)
            worst_lbar = max(worst_lbar, abs(lbar_derivative(t, x, W) - psi))
            h = 1e-5 * max(1.0, t, abs(x))
            fd = (phi(Point(t, x + h), W) - phi(Point(t, x - h), W)) / (2 * h)
            worst_dx = max(worst_dx, abs(dphidx_closed(p, W) - fd))
        assert worst_lbar <= 1e-6
        assert worst_dx <= 1e-6


class TestPdeResidual:
    def test_examples(self):
        assert pde_residual_classical(0.5, 1.0, 1e-4) <= 1e-6
        assert pde_residual_classical(0.2, -5.0, 1e-4) <= 1e-6

    def test_second_order(self):
        p = Point(0.7, 1.3)
        r_coarse = pde_residual_classical(p.t, p.x, 2e-3)
        r_fine = pde_residual_classical(p.t, p.x, 1e-3)
        assert math.log2(r_coarse / r_fine) >= 1.9

    def test_domain_guards(self):
        with pytest.raises(OutsideDomain):
            pde_residual_classical(2.2, 0.5, 1e-4)
        with pytest.raises(DomainError):
            pde_residual_classical(0.5, 1.0, -1e-4)


def wedge_point(t, frac):
    """The point a fraction frac of the way from B to the shock at time t > 1."""
    z = math.sqrt(t - 1.0)
    x_b = (2.0 - math.atan(z)) * t + z
    return t, x_b + frac * (2.0 * t - x_b)


# points of the pde suite's box and of the wedge, each with a step
STENCILS = st.lists(
    st.tuples(
        st.one_of(
            st.tuples(st.floats(0.1, 2.5), st.floats(-6.0, 8.0)),
            st.builds(wedge_point, st.floats(1.5, 2.5), st.floats(0.0, 1.0)),
        ),
        st.floats(1e-6, 1e-3),
    ),
    min_size=1, max_size=10,
)


def interior(stencils):
    """The interior points 0.05 away from the crease, B and C, with their steps."""
    t, x, h = (np.array(c) for c in zip(*[(a, b, c) for (a, b), c in stencils]))
    tags = classify_array(t, x)
    z = np.sqrt(np.maximum(t - 1.0, 0.0))
    keep = (
        ((tags == RegionTag.OMEGA_A) | (tags == RegionTag.WEDGE))
        & (np.hypot(t - 1.0, x - 2.0) >= 0.05)
        & (np.abs(x - (2.0 - np.arctan(z)) * t - z) >= 0.05)
        & (np.abs(x - (4.0 - 2.0 * t)) >= 0.05)
    )
    assume(keep.any())
    return t[keep], x[keep], h[keep]


class TestArrayForms:
    @settings(deadline=None, max_examples=50)
    @given(STENCILS)
    def test_batch_equals_scalar_calls(self, stencils):
        t, x, h = interior(stencils)
        batch = pde_residual_classical(t, x, h)
        assert np.array_equal(batch, [pde_residual_classical(*p) for p in zip(t, x, h)])
        for variant in (W, CL):
            batch = lbar_derivative(t, x, variant)
            assert np.array_equal(batch, [lbar_derivative(a, b, variant) for a, b in zip(t, x)])

    @settings(deadline=None, max_examples=25)
    @given(STENCILS, st.floats(1.2, 2.5), st.floats(0.1, 0.9), st.integers(0, 10))
    def test_weak_only_point_named(self, stencils, tw, frac, k):
        # a second weak-only point at the end: the error names the first
        t, x, h = interior(stencils)
        z = math.sqrt(tw - 1.0)
        lo, hi = 4.0 - 2.0 * tw, (2.0 - math.atan(z)) * tw + z
        xw = lo + frac * (hi - lo)
        assume(classify_array(tw, xw) == RegionTag.WEAK_ONLY and xw != 0.5 * (lo + hi))
        k = min(k, len(t))
        t, x, h = np.insert(t, k, tw), np.insert(x, k, xw), np.insert(h, k, 1e-4)
        t, x, h = np.append(t, tw), np.append(x, 0.5 * (lo + hi)), np.append(h, 1e-4)
        with pytest.raises(OutsideDomain, match=re.escape(f"({tw}, {xw}) must be interior, got WeakOnly")):
            pde_residual_classical(t, x, h)

    @settings(deadline=None, max_examples=25)
    @given(STENCILS, st.floats(0.0, 0.9e-3), st.floats(-6.0, 8.0), st.integers(0, 10))
    def test_stencil_below_initial_slice_named(self, stencils, tb, xb, k):
        t, x, h = interior(stencils)
        k = min(k, len(t))
        expected = re.escape(f"stencil leaves t >= 0 at ({tb}, {xb}) with step 0.001")
        with pytest.raises(DomainError, match=expected):
            pde_residual_classical(np.insert(t, k, tb), np.insert(x, k, xb), np.insert(h, k, 1e-3))
        with pytest.raises(DomainError, match=expected):
            lbar_derivative(np.insert(t, k, tb), np.insert(x, k, xb), W, np.insert(h, k, 1e-3))
