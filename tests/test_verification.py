import json
import math

import numpy as np
import pytest

from shocklab.core import DomainError, OutsideDomain, Point, SolutionVariant
from shocklab.verification import (
    HolderTarget,
    TestFunction,
    agreement_disagreement_scan,
    dyadic_offsets,
    halton,
    holder_fit,
    lax_gaps,
    oleinik_scan,
    rh_residual,
    run_suite,
    standard_test_functions,
    weak_form_residual,
)

W, CL = SolutionVariant.WEAK, SolutionVariant.CLASSICAL


class TestHalton:
    def test_deterministic(self):
        a = halton(16, skip=3)
        b = halton(16, skip=3)
        assert np.array_equal(a, b)

    def test_frozen_first_points(self):
        expected = [[1 / 2, 1 / 3], [1 / 4, 2 / 3], [3 / 4, 1 / 9], [1 / 8, 4 / 9]]
        assert halton(4).tolist() == expected

    def test_matches_per_index_loop(self):
        def radical_inverse(i, base):
            f, r = 1.0, 0.0
            while i > 0:
                f /= base
                r += f * (i % base)
                i //= base
            return r

        skip = 4096 * 63 + 99
        expected = [[radical_inverse(i, 2), radical_inverse(i, 3)] for i in range(skip + 1, skip + 513)]
        assert halton(512, skip=skip).tolist() == expected

    def test_range_and_spread(self):
        pts = halton(256)
        assert np.all((pts > 0) & (pts < 1))
        assert abs(pts[:, 0].mean() - 0.5) < 0.05


class TestTestFunction:
    def test_compact_support(self):
        tf = TestFunction(Point(1.0, 0.0), (0.5, 2.0))
        assert tf.value(1.0, 0.0) == 1.0
        assert tf.value(1.6, 0.0) == 0.0
        assert tf.value(1.0, 2.5) == 0.0
        assert tf.dt(1.49999, 0.0) != 0.0

    def test_derivative_consistency(self):
        tf = TestFunction(Point(1.0, 0.0), (0.5, 2.0))
        h = 1e-7
        for t, x in ((0.8, 0.5), (1.2, -1.0)):
            fd_t = (tf.value(t + h, x) - tf.value(t - h, x)) / (2 * h)
            fd_x = (tf.value(t, x + h) - tf.value(t, x - h)) / (2 * h)
            assert fd_t == pytest.approx(tf.dt(t, x), abs=1e-6)
            assert fd_x == pytest.approx(tf.dx(t, x), abs=1e-6)

    def test_radii_validation(self):
        with pytest.raises(DomainError):
            TestFunction(Point(1.0, 0.0), (0.0, 1.0))


class TestWeakForm:
    def test_smooth_region(self):
        tf = TestFunction(Point(0.5, 0.0), (0.3, 1.0))
        assert abs(weak_form_residual(W, tf)) <= 1e-6

    def test_straddling_shock(self):
        tf = TestFunction(Point(2.0, 4.0), (0.4, 0.8))
        assert abs(weak_form_residual(W, tf)) <= 1e-6

    def test_touching_initial_slice(self):
        tf = TestFunction(Point(0.3, 1.0), (0.5, 1.5))
        assert abs(weak_form_residual(W, tf)) <= 1e-6

    def test_negative_control(self):
        tf = TestFunction(Point(2.0, 4.0), (0.4, 0.8))
        assert abs(weak_form_residual(W, tf, shock_shift=0.05)) >= 1e-3

    def test_classical_variant(self):
        # the classical field is a classical solution across the shock, so
        # the residual vanishes on wedge-straddling supports too
        tf = TestFunction(Point(1.6, 3.8), (0.3, 0.45))
        assert abs(weak_form_residual(CL, tf)) <= 1e-6

    def test_classical_support_guard(self):
        tf = TestFunction(Point(2.0, 1.0), (0.4, 1.0))  # pokes past the horizon
        with pytest.raises(OutsideDomain):
            weak_form_residual(CL, tf)

    def test_panel_refinement_converges(self):
        tf = TestFunction(Point(0.5, 0.0), (0.3, 1.0))
        coarse = abs(weak_form_residual(W, tf, nt_panels=1, nx_panels=1))
        fine = abs(weak_form_residual(W, tf, nt_panels=2, nx_panels=2))
        assert fine <= coarse / 4.0 + 1e-13

    def test_standard_family(self):
        tfs = standard_test_functions()
        assert len(tfs) == 10
        straddling = sum(
            1 for tf in tfs
            if tf.center.t > 1.0 and abs(tf.center.x - 2 * tf.center.t) < 2 * tf.radii[1]
        )
        touching = sum(1 for tf in tfs if tf.center.t - tf.radii[0] < 0)
        assert straddling >= 3
        assert touching >= 2


class TestScans:
    def test_oleinik(self):
        rep = oleinik_scan(2.0, (-10.0, 10.0), 400)
        assert rep.max_quotient <= 1e-10
        assert rep.n_pairs == 400
        assert rep.bound() == pytest.approx(1.5)

    def test_oleinik_smooth_time(self):
        rep = oleinik_scan(0.5, (-10.0, 10.0), 400)
        assert rep.max_quotient < 0.0

    def test_oleinik_validation(self):
        with pytest.raises(DomainError):
            oleinik_scan(2.0, (-1.0, 1.0), 1)

    def test_rh_residual(self):
        for t in (1.01, 4.0 / math.pi, 2.0, 10.0):
            assert rh_residual(t) <= 1e-11

    def test_lax_gaps(self):
        lo, up = lax_gaps(4.0 / math.pi)
        assert lo == pytest.approx(math.pi / 4, abs=1e-11)
        assert up == pytest.approx(math.pi / 4, abs=1e-11)
        lo2, up2 = lax_gaps(2.0)
        assert lo2 == pytest.approx(up2, abs=1e-11)
        assert lo2 == pytest.approx(1.1655611852072114, abs=1e-10)


class TestHolderFits:
    def test_crease(self):
        fit = holder_fit(HolderTarget.CREASE_SPATIAL, Point(1.0, 2.0), dyadic_offsets(1e-3, 11))
        assert fit.exponent == pytest.approx(1.0 / 3.0, abs=0.02)
        assert fit.coefficient == pytest.approx(3.0 ** (1.0 / 3.0), rel=0.05)
        assert fit.r_squared > 0.9999

    def test_singular_boundary(self):
        from shocklab.burgers import expansion_near_B
        fit = holder_fit(HolderTarget.SINGULAR_BOUNDARY_SPATIAL, 2.0, dyadic_offsets(1e-4, 11))
        assert fit.exponent == pytest.approx(0.5, abs=0.02)
        assert fit.coefficient == pytest.approx(abs(expansion_near_B(2.0).leading_coefficient), rel=0.05)

    def test_exponent_stable_under_window_halving(self):
        f1 = holder_fit(HolderTarget.CREASE_SPATIAL, Point(1.0, 2.0), dyadic_offsets(1e-3, 11))
        f2 = holder_fit(HolderTarget.CREASE_SPATIAL, Point(1.0, 2.0), dyadic_offsets(5e-4, 11))
        assert abs(f1.exponent - f2.exponent) <= 0.005

    def test_horizon_probe_decays_linearly(self):
        # the sqrt-order terms cancel in the verified closed form
        fit = holder_fit(HolderTarget.HORIZON_JUMP, 0.0, dyadic_offsets(1e-2, 11))
        assert fit.exponent == pytest.approx(1.0, abs=0.05)

    def test_offset_window_validation(self):
        with pytest.raises(DomainError):
            holder_fit(HolderTarget.CREASE_SPATIAL, Point(1.0, 2.0), (1e-1, 1e-2))
        with pytest.raises(DomainError):
            holder_fit(HolderTarget.CREASE_SPATIAL, Point(1.0, 2.0), (1e-3, 1e-3))

    def test_samples_recorded(self):
        offs = dyadic_offsets(1e-3, 5)
        fit = holder_fit(HolderTarget.CREASE_SPATIAL, Point(1.0, 2.0), offs)
        assert tuple(s[0] for s in fit.samples) == offs


class TestAgreementScan:
    def test_small_scan(self):
        rep = agreement_disagreement_scan(100, seed=0)
        assert rep.max_gap_omega_a <= 1e-11
        assert rep.min_wedge_gap > 0.0
        assert abs(rep.phi_gap_at_probe) >= 1e-4
        assert rep.passed

    def test_requires_minimum_n(self):
        with pytest.raises(DomainError):
            agreement_disagreement_scan(10)


class TestSuiteRunner:
    def test_single_suite(self):
        rep = run_suite("rh", seed=0)
        assert rep.all_passed
        assert rep.checks[0].name == "rankine_hugoniot"

    def test_unknown_suite(self):
        with pytest.raises(DomainError):
            run_suite("nonsense")

    def test_deterministic_reports(self):
        a = json.dumps(run_suite("lax", seed=42).to_dict(), sort_keys=True)
        b = json.dumps(run_suite("lax", seed=42).to_dict(), sort_keys=True)
        assert a == b

    def test_report_shape(self):
        rep = run_suite("nullness")
        d = rep.to_dict()
        assert d["summary"]["total"] == len(d["checks"])
        assert {"name", "status", "measured", "threshold", "claim"} <= set(d["checks"][0])
        for c in rep.checks:
            assert "PASS" in c.line() or "FAIL" in c.line()
