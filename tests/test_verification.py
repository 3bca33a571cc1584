import hashlib
import json
import math
from collections import Counter

import numpy as np
import pytest

from shocklab import characteristics, verification, wave_potential
from shocklab.burgers import psi_classical, psi_classical_array, psi_weak_array, shock_trace
from shocklab.characteristics import (
    BoundaryCurve,
    RegionTag,
    _solve_feet,
    boundary_x,
    classify_array,
    shock_feet,
)
from shocklab.core import DomainError, OutsideDomain, Point, PoorFit, SolutionVariant, gauss_panel, psi0
from shocklab.verification import (
    TestFunction,
    _pde_margins,
    _sample,
    _suite_pde,
    boundary_fit,
    dyadic_offsets,
    halton,
    horizon_fit,
    lax_gaps,
    run_suite,
    standard_test_functions,
    weak_form_residual,
)

W, CL = SolutionVariant.WEAK, SolutionVariant.CLASSICAL
CONTROL = TestFunction(Point(2.0, 4.0), (0.4, 0.8))


def displaced_weak_array(t, x, delta):
    """Entropy field with the side selection displaced to x = 2t + delta > 2t.

    Points in the strip 0 < x - 2t < delta take the smooth left-family
    extension past the shock.
    """
    vals = psi_weak_array(t, x)
    d = x - 2.0 * t
    strip = (t > 1.0) & (d > 0.0) & (d < delta)
    ts, ds = t[strip], d[strip]
    z = np.sqrt(ts - 1.0)
    reach = ts * np.arctan(z) - z
    if np.any(ds >= reach):
        raise DomainError("displacement exceeds the left family's reach")
    vals[strip] = psi0(_solve_feet(ts, ds, np.full(ts.shape, False)))
    return vals


def x_space_weak_form_residual(variant, tf, nt_panels=24, nx_panels=24, shock_shift=0.0):
    """Reference weak-form residual, integrated in x.

    Per t-node, 15-point x-panels split at the cut 2t + shock_shift, and one
    field evaluation (a foot solve) per node: about 135k of them.  Its
    value carries x-space quadrature error at the crease and at the cut,
    up to 3e-7 on the standard test functions.
    """
    t_lo, t_hi, x_lo, x_hi = tf.support
    t_lo = max(t_lo, 0.0)
    if t_hi <= 0.0:
        return 0.0
    if variant is CL:
        verification._require_support_classical(tf)
    gl_n, gl_w = gauss_panel(-1.0, 1.0)
    panels = []  # per t-panel, its rows: (t, t-weight, x-panel mids, x-panel half-widths)
    t_edges = np.linspace(t_lo, t_hi, nt_panels + 1)
    for i in range(nt_panels):
        t_nodes, t_weights = gauss_panel(t_edges[i], t_edges[i + 1])
        panel = []
        for t, wt in zip(t_nodes, t_weights):
            ks = 2.0 * t + shock_shift
            cuts = [x_lo, x_hi]
            if t > 1.0 and x_lo < ks < x_hi:
                cuts = [x_lo, ks, x_hi]
            for a, b in zip(cuts[:-1], cuts[1:]):
                n_sub = max(1, math.ceil(nx_panels * (b - a) / (x_hi - x_lo)))
                edges = np.linspace(a, b, n_sub + 1)
                mids = 0.5 * (edges[:-1] + edges[1:])[:, None]
                halves = 0.5 * (edges[1:] - edges[:-1])[:, None]
                panel.append((t, wt, mids, halves))
        panels.append(panel)
    rows = [row for panel in panels for row in panel]
    sizes = [mids.size * gl_n.size for _, _, mids, _ in rows]
    ts = np.repeat([r[0] for r in rows], sizes)
    xs = np.concatenate([(mids + halves * gl_n).ravel() for _, _, mids, halves in rows])
    if variant is CL:
        ps = psi_classical_array(ts, xs)
    elif shock_shift != 0.0:
        ps = displaced_weak_array(ts, xs, shock_shift)
    else:
        ps = psi_weak_array(ts, xs)
    total = 0.0
    start = 0
    for panel in panels:
        row_ends = np.cumsum([mids.size * gl_n.size for _, _, mids, _ in panel])
        span = slice(start, start + row_ends[-1])
        tn, xn, pn = ts[span], xs[span], ps[span]
        phi_t, phi_x = tf.gradient(tn, xn)
        integrand = pn * phi_t + 0.5 * (2.0 + pn) ** 2 * phi_x
        for (_, wt, _, halves), part in zip(panel, np.split(integrand, row_ends)):
            total += wt * float(np.dot((halves * gl_w).ravel(), part))
        start = span.stop
    if tf.center.t - tf.radii[0] < 0.0:
        edges = np.linspace(x_lo, x_hi, nx_panels + 1)
        for a, b in zip(edges[:-1], edges[1:]):
            xn, xw = gauss_panel(a, b)
            total += float(np.dot(xw, psi0(xn) * tf.value(0.0, xn)))
    return total


# The x-space reference on the standard test functions, and on CONTROL with
# its cut shifted by 0.05 (pinned in TestFrozenBits).
ORACLE_STANDARD = [
    -6.399359984086203e-17, -2.728444081505939e-16, 1.3051315502717504e-15,
    2.410520242614178e-16, 3.29922721087339e-16, 2.885205596081879e-16,
    2.527317724350326e-07, 6.814959384874654e-16, 3.0031260322964375e-17,
    -3.940166884282797e-16,
]
ORACLE_CONTROL = -0.007356879231779953


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

    def test_frozen_digest(self):
        # 4096 points at each of six skips, up to indices near the largest seed's 2**62
        h = hashlib.sha256()
        for skip in (0, 7, 42, 12387, 2**40, 2**62 - 5000):
            h.update(halton(4096, skip=skip).tobytes())
        assert h.hexdigest() == "4734ce980eeb208e4cec4770ce8d7b1c586b7e940def70794540e6d36bdcce95"

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
        assert tf.gradient(1.49999, 0.0)[0] != 0.0

    def test_derivative_consistency(self):
        tf = TestFunction(Point(1.0, 0.0), (0.5, 2.0))
        h = 1e-7
        for t, x in ((0.8, 0.5), (1.2, -1.0)):
            fd_t = (tf.value(t + h, x) - tf.value(t - h, x)) / (2 * h)
            fd_x = (tf.value(t, x + h) - tf.value(t, x - h)) / (2 * h)
            phi_t, phi_x = tf.gradient(t, x)
            assert fd_t == pytest.approx(phi_t, abs=1e-6)
            assert fd_x == pytest.approx(phi_x, abs=1e-6)

    def test_radii_validation(self):
        for radii in [(0.0, 1.0), (math.nan, 1.0), (0.3, math.inf)]:
            with pytest.raises(DomainError, match="radii must be finite and positive"):
                TestFunction(Point(1.0, 0.0), radii)
        for radii in [(0.3,), (0.3, 1.0, 2.0)]:
            with pytest.raises(DomainError, match="two radii"):
                TestFunction(Point(1.0, 2.0), radii)
        # past the modelled range; a radius lost in the rounding of its center
        for center, radii in [(Point(1.0, 0.0), (1e200, 1.0)), (Point(1.0, 0.0), (1.0, 2e150)),
                              (Point(1e150, 0.0), (1e140, 1.0))]:
            with pytest.raises(DomainError, match="beyond the modelled range"):
                TestFunction(center, radii)
        for center, radii in [(Point(1e20, 0.0), (1.0, 1.0)), (Point(1.0, 1e150), (0.5, 1.0))]:
            with pytest.raises(DomainError, match="is empty"):
                TestFunction(center, radii)

    def test_far_from_the_support(self):
        # scaled offsets of 1e149 off the support: both factors are 0, with no overflow warning
        tf = TestFunction(Point(1e149, 0.0), (1e149, 1.0))
        assert tf.value(1e149, 1e149) == 0.0
        assert tf.gradient(1e149, 1e149) == (0.0, 0.0)
        assert weak_form_residual(W, tf) == 0.0


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

    def test_classical_support_before_the_crease(self):
        # a support ending before t = 1 cannot reach the weak-only region
        tf = TestFunction(Point(0.5, 3.0), (0.3, 1.0))
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

    def test_matches_x_space_oracle(self):
        got = [weak_form_residual(W, tf) for tf in standard_test_functions()]
        got.append(weak_form_residual(W, CONTROL, shock_shift=0.05))
        assert np.max(np.abs(np.subtract(got, ORACLE_STANDARD + [ORACLE_CONTROL]))) <= 3e-7

    @pytest.mark.parametrize("center, radii", [
        (Point(1.6, 3.8), (0.3, 0.45)),   # right of B, across the shock line
        (Point(2.0, -2.0), (0.4, 0.5)),   # left of the horizon
    ])
    def test_classical_matches_x_space_oracle(self, center, radii):
        tf = TestFunction(center, radii)
        assert abs(weak_form_residual(CL, tf) - x_space_weak_form_residual(CL, tf)) <= 3e-7

    def test_rounding_level(self):
        assert max(abs(weak_form_residual(W, tf)) for tf in standard_test_functions()) <= 1e-13

    def test_control_converged(self):
        coarse = weak_form_residual(W, CONTROL, shock_shift=0.05)
        fine = weak_form_residual(W, CONTROL, nt_panels=32, nx_panels=32, shock_shift=0.05)
        assert abs(fine - coarse) <= 1e-12
        assert abs(abs(coarse) - 7.356926030751e-3) <= 1e-12

    def test_negative_shift_extends_the_right_family(self):
        assert abs(weak_form_residual(W, CONTROL, shock_shift=-0.05)) >= 1e-3

    @pytest.mark.parametrize("panels", [(0, 16), (16, 0)])
    def test_needs_a_panel_per_axis(self, panels):
        with pytest.raises(DomainError, match="panel"):
            weak_form_residual(W, CONTROL, *panels)

    @pytest.mark.parametrize("shift", [0.5, -0.5, math.nan, math.inf, -math.inf])
    def test_cut_beyond_reach(self, shift):
        # at t = 1.6 a family reaches t*arctan(z) - z = 0.28 past the shock; a
        # non-finite shift is refused first
        match = "reach" if math.isfinite(shift) else "shock_shift must be finite"
        with pytest.raises(DomainError, match=match):
            weak_form_residual(W, CONTROL, shock_shift=shift)

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


def oleinik_quotients(t, xs):
    """Forward difference quotients of the entropy field at time t between consecutive xs."""
    return np.diff(psi_weak_array(t, xs)) / np.diff(xs)


class TestScans:
    def test_oleinik(self):
        # the one-sided bound 1 + 1/t holds with room: no quotient is positive past rounding
        assert np.max(oleinik_quotients(2.0, np.linspace(-10.0, 10.0, 401))) <= 1e-10

    def test_oleinik_smooth_time(self):
        assert np.max(oleinik_quotients(0.5, np.linspace(-10.0, 10.0, 401))) < 0.0

    def test_oleinik_reversed_range(self):
        # the same pairs, in the other order: the same quotients up to rounding
        forward = oleinik_quotients(2.0, np.linspace(-10.0, 10.0, 401))
        backward = oleinik_quotients(2.0, np.linspace(10.0, -10.0, 401))
        assert np.max(backward) == pytest.approx(np.max(forward), rel=1e-12)

    def test_rh_residual(self):
        # the shock speed is the mean of the one-sided characteristic speeds, each time alone and in one batch
        times = (1.01, 4.0 / math.pi, 2.0, 10.0)
        for tr in [shock_trace(t) for t in times] + [shock_trace(np.array(times))]:
            mean = 0.5 * ((2.0 + tr.left_value) + (2.0 + tr.right_value))
            assert np.all(np.abs(tr.speed - mean) <= 1e-11)

    def test_lax_gaps(self):
        lo, up = lax_gaps(4.0 / math.pi)
        assert lo == pytest.approx(math.pi / 4, abs=1e-11)
        assert up == pytest.approx(math.pi / 4, abs=1e-11)
        lo2, up2 = lax_gaps(2.0)
        assert lo2 == pytest.approx(up2, abs=1e-11)
        assert lo2 == pytest.approx(1.1655611852072114, abs=1e-10)

    def test_lax_gaps_at_the_end_of_the_range(self):
        # 2t = 2e150 lies past the modelled range; the shock time does not
        lo, up = lax_gaps(1e150)
        assert lo == up > 0.0

    def test_lax_gaps_next_to_the_crease(self):
        # both gaps are arctan(x0), x0 ~ sqrt(3e-11), up to the rounding of
        # 2 - arctan(x0) and 2 + arctan(x0): an ulp of 2, not a factor 1/sqrt(3)
        lo, up = lax_gaps(1.0 + 1e-11)
        assert lo > 0.0 and up > 0.0
        assert lo == pytest.approx(up, rel=0.0, abs=2.0 ** -51)
        assert lo == pytest.approx(math.atan(shock_feet(1.0 + 1e-11)[1]), rel=0.0, abs=2.0 ** -51)

    @pytest.mark.parametrize("t", [1.001, 1.0 + 1e-6, 2.0, 100.0, 5e149])
    def test_lax_gaps_right_value_is_the_classical_value(self, t):
        # where the point (t, 2t) is in range and off the crease band the
        # classical field right of the shock is the trace's right value, bit for bit
        assert shock_trace(t).right_value == psi_classical(Point(t, 2.0 * t))


class TestHolderFits:
    def test_crease(self):
        fit = boundary_fit(1.0, dyadic_offsets(1e-3, 11))
        assert fit.exponent == pytest.approx(1.0 / 3.0, abs=0.02)
        assert fit.coefficient == pytest.approx(3.0 ** (1.0 / 3.0), rel=0.05)
        assert fit.r_squared > 0.9999

    def test_singular_boundary(self):
        from shocklab.burgers import expansion_near_B
        fit = boundary_fit(2.0, dyadic_offsets(1e-4, 11))
        assert fit.exponent == pytest.approx(0.5, abs=0.02)
        assert fit.coefficient == pytest.approx(abs(expansion_near_B(2.0).leading_coefficient), rel=0.05)

    def test_exponent_stable_under_window_halving(self):
        f1 = boundary_fit(1.0, dyadic_offsets(1e-3, 11))
        f2 = boundary_fit(1.0, dyadic_offsets(5e-4, 11))
        assert abs(f1.exponent - f2.exponent) <= 0.005

    def test_horizon_probe_decays_linearly(self):
        # the sqrt-order terms cancel in the verified closed form
        fit = horizon_fit(0.0, dyadic_offsets(1e-2, 11))
        assert fit.exponent == pytest.approx(1.0, abs=0.05)

    def test_offset_window_validation(self):
        with pytest.raises(DomainError):
            boundary_fit(1.0, (1e-1, 1e-2))
        with pytest.raises(DomainError):
            boundary_fit(1.0, (1e-3, 1e-3))
        # two parameters: fewer than 3 offsets would give r^2 = 1 whatever the data
        for fit in (boundary_fit, horizon_fit):
            for count in range(3):
                with pytest.raises(DomainError, match=f"need at least 3 offsets, got {count}"):
                    fit(2.0, dyadic_offsets(1e-3, count))

    @pytest.mark.parametrize("fit, at, offset", [(boundary_fit, 1e12, "0.0001"), (horizon_fit, -1e12, "2.5e-05")],
                             ids=["boundary", "horizon"])
    def test_zero_drops_refused(self, fit, at, offset):
        # far out every probe offset rounds away, and a log of 0.0 is no point of the fit
        with pytest.raises(DomainError, match=f"fit value at offset {offset} is 0.0, not finite and positive"):
            fit(at, dyadic_offsets(1e-4, 5))

    def test_boundary_fit_needs_t_past_the_crease(self):
        # t = 1 is the crease, B's first point; before it B does not exist
        with pytest.raises(DomainError, match="boundary curves are defined for t >= 1"):
            boundary_fit(0.999, dyadic_offsets(1e-4, 5))

    def test_poor_fit(self):
        # offsets up to 1e-2 from B just past the crease bend the log-log line
        with pytest.raises(PoorFit, match=r"r\^2 = 0.998444 < 0.999"):
            boundary_fit(1.001, dyadic_offsets(1e-2, 11))

    # float.hex of (exponent, coefficient, r_squared)
    @pytest.mark.parametrize("t_bar, start, expected", [
        (1.0, 1e-3, ("0x1.54ff3764e90c7p-2", "0x1.6fb6004179de1p+0", "0x1.fffff49fab407p-1")),
        (1.5, 1e-4, ("0x1.ff462160095bdp-2", "0x1.ebd76667eb032p-1", "0x1.fffff1c6c90e7p-1")),
        (2.0, 1e-4, ("0x1.ff66b380ac1d2p-2", "0x1.66d9e9d8380c0p-1", "0x1.fffff65095a21p-1")),
        (5.0, 1e-4, ("0x1.ff908af299e58p-2", "0x1.41bdf2409445ep-2", "0x1.fffffae14dbf3p-1")),
    ], ids=["crease", "B_1.5", "B_2", "B_5"])
    def test_frozen_fits(self, t_bar, start, expected):
        fit = boundary_fit(t_bar, dyadic_offsets(start, 11))
        assert tuple(v.hex() for v in (fit.exponent, fit.coefficient, fit.r_squared)) == expected

    def test_samples_recorded(self):
        offs = dyadic_offsets(1e-3, 5)
        fit = boundary_fit(1.0, offs)
        assert tuple(s[0] for s in fit.samples) == offs


class TestAgreementSuite:
    def test_thresholds(self, verify_runs):
        # the seed-0 run states the three thresholds, meets them and passes
        checks = {c.name: c for c in verify_runs["all", 0].report.checks if c.name in (
            "agreement_region", "wedge_disagreement", "potential_disagreement")}
        assert {name: c.threshold for name, c in checks.items()} == {
            "agreement_region": 1e-11, "wedge_disagreement": 0.0, "potential_disagreement": 1e-4}
        assert checks["agreement_region"].measured <= 1e-11
        assert checks["wedge_disagreement"].measured > 0.0
        assert checks["potential_disagreement"].measured >= 1e-4
        assert all(c.passed for c in checks.values())


class TestSuiteRunner:
    def test_single_suite(self):
        rep = run_suite("rh", seed=0)
        assert rep.all_passed
        assert rep.checks[0].name == "rankine_hugoniot"

    def test_unknown_suite(self):
        with pytest.raises(DomainError):
            run_suite("nonsense")

    def test_largest_seed(self):
        # every Halton index the pde and agreement samples read fits in int64
        assert run_suite("pde", 2**62).all_passed
        assert run_suite("agreement", 2**62).all_passed

    def test_deterministic_reports(self):
        a = json.dumps(run_suite("lax", seed=42).to_dict(), sort_keys=True)
        b = json.dumps(run_suite("lax", seed=42).to_dict(), sort_keys=True)
        assert a == b

    def test_report_shape(self):
        rep = run_suite("nullness")
        d = rep.to_dict()
        assert d["summary"]["total"] == len(d["checks"])
        assert {"name", "status", "measured", "threshold", "claim"} <= set(d["checks"][0])


def counting(monkeypatch, calls, module, name):
    """Replace module.name with a wrapper that counts its calls in calls[name]."""
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


class TestFrozenBits:
    # exact values: the x-space reference residuals, the foot-variable residuals
    # of the weakform suite, and the pde suite at seed 42
    def test_standard_weak_form_residuals(self):
        got = [x_space_weak_form_residual(W, tf) for tf in standard_test_functions()]
        assert got == ORACLE_STANDARD

    def test_shifted_shock_control(self):
        assert x_space_weak_form_residual(W, CONTROL, shock_shift=0.05) == ORACLE_CONTROL

    def test_weak_form_residual_bits(self):
        # the foot-variable residuals of the weakform suite, bit for bit
        got = [weak_form_residual(W, tf).hex() for tf in standard_test_functions()]
        assert got == [
            "-0x1.6300000000000p-54", "-0x1.5200000000000p-56", "-0x1.3900000000000p-52",
            "-0x1.8000000000000p-53", "0x0.0p+0", "0x1.0000000000000p-52",
            "-0x1.2000000000000p-61", "0x1.8000000000000p-53", "-0x1.0000000000000p-55",
            "0x1.4000000000000p-52",
        ]
        assert weak_form_residual(W, CONTROL, shock_shift=0.05).hex() == "-0x1.e224bcb37f5fep-8"

    def test_pde_suite_seed_42(self):
        measured = {c.name: c.measured for c in run_suite("pde", seed=42).checks}
        assert measured == {"pde_residual": 9.063615302729033e-09, "pde_fd_order": 1.992960551699347}


class TestCallCounts:
    @pytest.mark.parametrize("variant, shift", [(CL, 0.0), (W, 0.0), (W, 0.05)],
                             ids=["classical", "weak", "shifted"])
    def test_weak_form_one_foot_solve(self, monkeypatch, variant, shift):
        calls = Counter()
        for name in ("psi_classical_array", "psi_weak_array", "_solve_feet"):
            counting(monkeypatch, calls, verification, name)
        center = Point(1.6, 3.8) if variant is CL else Point(2.0, 4.0)
        weak_form_residual(variant, TestFunction(center, (0.3, 0.45)), shock_shift=shift)
        assert calls == {"_solve_feet": 1}

    def test_weak_form_feet_only_at_interval_ends(self, monkeypatch):
        # below t = 1 each of the 2 * 15 t-nodes has one interval, so two feet
        sizes = []
        solve = verification._solve_feet

        def recording(t, d, right):
            sizes.append(t.size)
            return solve(t, d, right)

        monkeypatch.setattr(verification, "_solve_feet", recording)
        weak_form_residual(W, TestFunction(Point(0.5, 0.0), (0.3, 1.0)), nt_panels=2)
        assert sizes == [60]

    def test_oleinik_suite_one_field_call(self, monkeypatch):
        calls = Counter()
        counting(monkeypatch, calls, verification, "psi_weak_array")
        run_suite("oleinik")
        assert calls == {"psi_weak_array": 1}

    def test_pde_suite(self, monkeypatch):
        calls = Counter()
        counting(monkeypatch, calls, wave_potential, "phi_array")
        counting(monkeypatch, calls, wave_potential, "psi_classical_array")
        for module in (characteristics, wave_potential, verification):
            for name in ("phi", "classify"):
                if hasattr(module, name):
                    counting(monkeypatch, calls, module, name)
        _suite_pde(seed=0)
        # two residual calls: 200 sample points, then 10 points at two steps
        assert calls == {"phi_array": 2, "psi_classical_array": 4}

    def test_holder_suite_closed_form_calls(self, monkeypatch):
        # each horizon fit probes its 11 offsets at once: one array of points
        # above the horizon and one on it, so 6 closed-form d_x Phi calls of
        # 11 points where 33 float probes made 66 size-1 calls
        sizes, calls = [], Counter()
        array_call = wave_potential.dphidx_closed_array
        monkeypatch.setattr(wave_potential, "dphidx_closed_array",
                            lambda t, x, v: sizes.append(np.size(t)) or array_call(t, x, v))
        counting(monkeypatch, calls, wave_potential, "dphidx_closed")
        counting(monkeypatch, calls, verification, "horizon_jump_probe")
        run_suite("holder")
        assert sizes == [11] * 6
        assert calls == {"horizon_jump_probe": 3}


def keeps_pde_point(t, x, tag):
    """The pde suite's margins, for one point."""
    if tag not in (RegionTag.OMEGA_A, RegionTag.WEDGE):
        return False
    if math.hypot(t - 1.0, x - 2.0) < 0.05:
        return False
    if tag is RegionTag.WEDGE and x - boundary_x(BoundaryCurve.SINGULAR_BOUNDARY, t) < 0.05:
        return False
    return not (t > 1.0 and x < 2.0 * t and abs((4.0 - 2.0 * t) - x) < 0.05)


def pde_points_per_point_loop(seed):
    """The pde suite's sample as first written: one point at a time."""
    pts = []
    cursor = seed
    while len(pts) < 200:
        batch = halton(1024, skip=cursor)
        cursor += 1024
        cand_t = 0.1 + batch[:, 0] * 2.4
        cand_x = -6.0 + batch[:, 1] * 14.0
        tags = classify_array(cand_t, cand_x)
        for t, x, tag in zip(cand_t.tolist(), cand_x.tolist(), tags):
            if keeps_pde_point(t, x, tag):
                pts.append((t, x))
                if len(pts) == 200:
                    break
    return np.array(pts).T


class TestSampler:
    @pytest.mark.parametrize("seed", [0, 7, 42, 99])
    def test_pde_sample_matches_per_point_loop(self, seed):
        got = np.stack(_sample(200, (0.1, 2.5, -6.0, 8.0), seed, _pde_margins))
        assert np.array_equal(got, pde_points_per_point_loop(seed))

    def test_mask_that_never_holds(self):
        with pytest.raises(DomainError, match="could not collect 1 sample points"):
            _sample(1, (0.0, 1.0, 0.0, 1.0), 0, lambda t, x, tags: np.zeros(t.shape, dtype=bool))

    def test_pde_sample_holds_wedge_points(self):
        t, x = _sample(200, (0.1, 2.5, -6.0, 8.0), 0, _pde_margins)
        assert np.any(classify_array(t, x) == RegionTag.WEDGE)

    @pytest.mark.parametrize("box", [(0.1, 2.4, -6.0, 14.0), (0.9, 0.2, 1.9, 0.2)])
    def test_pde_margins_match_per_point_rule(self, box):
        # (t_lo, t_span, x_lo, x_span): the pde box, and a box around the crease
        t, x = (np.array(box[0::2]) + halton(16384) * np.array(box[1::2])).T
        tags = classify_array(t, x)
        expected = [keeps_pde_point(a, b, tag) for a, b, tag in zip(t.tolist(), x.tolist(), tags)]
        assert np.array_equal(_pde_margins(t, x, tags), expected)
