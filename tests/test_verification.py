import json
import math
from collections import Counter

import numpy as np
import pytest

from shocklab import characteristics, verification, wave_potential
from shocklab.burgers import psi_classical_array, psi_weak_array
from shocklab.characteristics import (
    BoundaryCurve,
    RegionTag,
    _bracket,
    _solve_feet,
    boundary_x,
    classify_array,
)
from shocklab.core import DomainError, OutsideDomain, Point, PoorFit, SolutionVariant, gauss_panel, psi0
from shocklab.verification import (
    HolderTarget,
    TestFunction,
    _pde_margins,
    _sample,
    _suite_pde,
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
    vals[strip] = psi0(_solve_feet(ts, ds, *_bracket(ts, ds, False)))
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
        integrand = pn * tf.dt(tn, xn) + 0.5 * (2.0 + pn) ** 2 * tf.dx(tn, xn)
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

    @pytest.mark.parametrize("shift", [0.5, -0.5])
    def test_cut_beyond_reach(self, shift):
        # at t = 1.6 a family reaches t*arctan(z) - z = 0.28 past the shock
        with pytest.raises(DomainError, match="reach"):
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
        with pytest.raises(DomainError, match="scan time must be positive"):
            oleinik_scan(0.0, (-1.0, 1.0), 10)

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

    @pytest.mark.parametrize("base", [1.0, Point(1.0, 2.5)])
    def test_crease_fit_needs_the_crease(self, base):
        with pytest.raises(DomainError, match="crease fit must anchor at"):
            holder_fit(HolderTarget.CREASE_SPATIAL, base, dyadic_offsets(1e-3, 5))

    def test_boundary_fit_needs_t_past_the_crease(self):
        with pytest.raises(DomainError, match="boundary fit needs t > 1"):
            holder_fit(HolderTarget.SINGULAR_BOUNDARY_SPATIAL, 1.0, dyadic_offsets(1e-4, 5))

    def test_unknown_target(self):
        with pytest.raises(DomainError, match="unknown fit target CreaseSpatial"):
            holder_fit("CreaseSpatial", Point(1.0, 2.0), dyadic_offsets(1e-3, 5))

    def test_poor_fit(self):
        # offsets up to 1e-2 from B just past the crease bend the log-log line
        with pytest.raises(PoorFit, match=r"r\^2 = 0.998444 < 0.999"):
            holder_fit(HolderTarget.SINGULAR_BOUNDARY_SPATIAL, 1.001, dyadic_offsets(1e-2, 11))

    # float.hex of (exponent, coefficient, r_squared)
    @pytest.mark.parametrize("target, base, start, expected", [
        (HolderTarget.CREASE_SPATIAL, Point(1.0, 2.0), 1e-3,
         ("0x1.54ff3764e90c7p-2", "0x1.6fb6004179de1p+0", "0x1.fffff49fab407p-1")),
        (HolderTarget.SINGULAR_BOUNDARY_SPATIAL, 1.5, 1e-4,
         ("0x1.ff462160095bdp-2", "0x1.ebd76667eb032p-1", "0x1.fffff1c6c90e7p-1")),
        (HolderTarget.SINGULAR_BOUNDARY_SPATIAL, 2.0, 1e-4,
         ("0x1.ff66b380ac1d2p-2", "0x1.66d9e9d8380c0p-1", "0x1.fffff65095a21p-1")),
        (HolderTarget.SINGULAR_BOUNDARY_SPATIAL, 5.0, 1e-4,
         ("0x1.ff908af299e58p-2", "0x1.41bdf2409445ep-2", "0x1.fffffae14dbf3p-1")),
    ], ids=["crease", "B_1.5", "B_2", "B_5"])
    def test_frozen_fits(self, target, base, start, expected):
        fit = holder_fit(target, base, dyadic_offsets(start, 11))
        assert tuple(v.hex() for v in (fit.exponent, fit.coefficient, fit.r_squared)) == expected

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


def counting(monkeypatch, calls, module, name):
    """Replace module.name with a wrapper that counts its calls in calls[name]."""
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


class TestFrozenBits:
    # exact values: the x-space reference residuals, and the pde suite at seed 42
    def test_standard_weak_form_residuals(self):
        got = [x_space_weak_form_residual(W, tf) for tf in standard_test_functions()]
        assert got == ORACLE_STANDARD

    def test_shifted_shock_control(self):
        assert x_space_weak_form_residual(W, CONTROL, shock_shift=0.05) == ORACLE_CONTROL

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

        def recording(t, d, lo, hi):
            sizes.append(t.size)
            return solve(t, d, lo, hi)

        monkeypatch.setattr(verification, "_solve_feet", recording)
        weak_form_residual(W, TestFunction(Point(0.5, 0.0), (0.3, 1.0)), nt_panels=2)
        assert sizes == [60]

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
