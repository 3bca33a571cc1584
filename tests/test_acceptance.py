"""Acceptance gate: every quantitative claim at its stated tolerance.

Each claim is measured once: the criteria read the session's runs of
`shocklab verify` (the verify_runs fixture of conftest.py), C11 and C12 its
seed-0 run of every suite and the rest its seed-7 run, and assert their own
thresholds on the recorded values.

Each criterion prints one PASS/FAIL line (run with `pytest -s` to see them
while green; failing lines surface in the captured output regardless).
Criterion 6 is marked as a strict expected failure: the claimed sqrt
profile of the potential-derivative probe above the Cauchy horizon is
contradicted by the finite-difference-of-quadrature oracle (the
sqrt-order terms cancel identically; see README, Known deviations).
"""

import math

import numpy as np
import pytest

import shocklab as sl
from shocklab import Point
from shocklab.characteristics import BoundaryCurve
from shocklab.geometry import CausalClass


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[acceptance] {'PASS' if passed else 'FAIL'} {criterion}: {detail}")


def log_spaced(n=50, lo=1.001, hi=100.0):
    return np.exp(np.linspace(math.log(lo), math.log(hi), n))


@pytest.fixture(scope="module")
def run7(verify_runs):
    """The session's run of `shocklab verify --suite all --seed 7`."""
    return verify_runs["all", 7]


class TestAcceptance:
    def test_c01_rankine_hugoniot(self, run7):
        worst = run7.measured["rankine_hugoniot"]
        report("C01 rankine-hugoniot", worst <= 1e-11, f"max residual {worst:.3e} <= 1e-11")
        assert worst <= 1e-11

    def test_c02_lax_entropy(self, run7):
        # the gaps at the 50 times and, last, just past the crease
        ((lower, upper),) = run7.gaps
        min_gap = float(min(lower[:-1].min(), upper[:-1].min()))
        dev, near = run7.measured["lax_gaps_match_feet"], run7.measured["lax_gaps_crease_limit"]
        ok = min_gap > 0.0 and dev <= 1e-10 and near < 2e-3
        report("C02 lax-entropy", ok,
               f"min gap {min_gap:.3e} > 0, foot deviation {dev:.3e} <= 1e-10, "
               f"crease value {near:.3e} < 2e-3")
        assert ok

    def test_c03_oleinik(self, run7):
        worst = run7.measured["oleinik_one_sided"]
        report("C03 oleinik", worst <= 1e-10, f"max forward quotient {worst:.3e} <= 1e-10")
        assert worst <= 1e-10

    def test_c04_weak_form(self, run7):
        worst, control = run7.measured["weak_form_identity"], run7.measured["weak_form_negative_control"]
        ok = worst <= 1e-6 and control >= 1e-3
        report("C04 weak-form", ok,
               f"max |residual| {worst:.3e} <= 1e-6 over 10 test functions, "
               f"negative control {control:.3e} >= 1e-3")
        assert ok

    def test_c05_holder_crease_and_boundary(self, run7):
        # the holder suite's fits: the crease, B at t = 1.5, 2, 5, then the horizon
        crease, *on_b = run7.fits[:4]
        ok = abs(crease.exponent - 1.0 / 3.0) <= 0.02
        ok = ok and abs(crease.coefficient / 3.0 ** (1.0 / 3.0) - 1.0) <= 0.05
        detail = [f"crease ({crease.exponent:.4f}, {crease.coefficient:.4f})"]
        for t_bar, fit in zip((1.5, 2.0, 5.0), on_b):
            pred = abs(sl.expansion_near_B(t_bar).leading_coefficient)
            ok = ok and abs(fit.exponent - 0.5) <= 0.02
            ok = ok and abs(fit.coefficient / pred - 1.0) <= 0.05
            detail.append(f"B(t={t_bar}) ({fit.exponent:.4f}, {fit.coefficient:.4f})")
        report("C05 holder-exponents", ok, "; ".join(detail))
        assert ok

    @pytest.mark.xfail(
        strict=True,
        reason="stated sqrt profile with coefficient sqrt(6) contradicts the "
        "finite-difference-of-quadrature oracle: the shock-crossing log term "
        "and the crossing-motion term cancel at sqrt order, so the probe "
        "decays linearly (measured exponent ~1.0); see README, Known deviations",
    )
    def test_c06_horizon_roughness(self, run7):
        oks, details = [], []
        for x, fit in zip((-2.0, 0.0, 1.0), run7.fits[4:]):
            ok = abs(fit.exponent - 0.5) <= 0.02
            ok = ok and abs(fit.coefficient / math.sqrt(6.0) - 1.0) <= 0.05
            oks.append(ok)
            details.append(f"x={x} ({fit.exponent:.4f}, {fit.coefficient:.4f})")
        report("C06 horizon-roughness", all(oks),
               "; ".join(details) + " vs stated (0.5, 2.4495)")
        assert all(oks)

    def test_c07_nullness_and_tangency(self, run7):
        psis = np.linspace(-math.pi / 2 + 1e-9, math.pi / 2 - 1e-9, 10_000)
        s = (4.0 + psis) ** 2
        gtt, gtx, gxx = -8.0 * (2.0 + psis) / s, -2.0 * psis / s, 4.0 / s
        gLL = np.abs(gtt + 2.0 * gtx * (2.0 + psis) + gxx * (2.0 + psis) ** 2)
        gBB = np.abs(gtt - 4.0 * gtx + 4.0 * gxx)
        null_worst = float(max(gLL.max(), gBB.max()))
        tang_worst = run7.measured["boundary_tangency"]
        tangent_exact = sl.boundary_x_deriv(BoundaryCurve.CAUCHY_HORIZON, 2.0) == -2.0
        ok = null_worst <= 1e-13 and tang_worst <= 1e-10 and tangent_exact
        report("C07 nullness-tangency", ok,
               f"frame norms {null_worst:.3e} <= 1e-13, boundary tangency "
               f"{tang_worst:.3e} <= 1e-10, horizon tangent exactly (1, -2)")
        assert ok

    def test_c08_shock_causal_character(self):
        rc, lc = sl.shock_character(log_spaced())
        ok = set(rc) == {CausalClass.SPACELIKE} and set(lc) == {CausalClass.TIMELIKE}
        # reference values at t = 4/pi from the tangent-norm formula
        # -16 psi/(4+psi)^2 at psi = -/+ pi/4: +1.2160614 and -0.5487490
        right, left = sl.shock_tangent_norms(4.0 / math.pi)
        exp_right = -16.0 * (-math.pi / 4.0) / (4.0 - math.pi / 4.0) ** 2
        exp_left = -16.0 * (math.pi / 4.0) / (4.0 + math.pi / 4.0) ** 2
        dev = max(abs(right - exp_right), abs(left - exp_left))
        ok = ok and dev <= 1e-3
        report("C08 shock-causal-character", ok,
               f"signs correct on 50 samples; t=4/pi norms ({right:.6f}, {left:.6f}) "
               f"within {dev:.1e} of ({exp_right:.6f}, {exp_left:.6f})")
        assert ok

    def test_c09_causal_bubbles(self, run7):
        # one verdict: the witnesses of 5 apexes up B and the pair (1, 2.1) below (2, 5 - pi/2)
        verdict = run7.measured["causal_bubbles"]
        report("C09 causal-bubbles", verdict == 1.0,
               f"witnesses at 5 apexes and the explicit pair causal-not-timelike: verdict {verdict} == 1")
        assert verdict == 1.0

    def test_c10_nonunique_backward_curves(self):
        apex = Point(2.0, 5.0 - math.pi / 2)
        gb, gi, (rb, ri) = sl.backward_L_curves(apex, 0.95, 10_000)
        k = int(np.argmin(np.abs(gb[:, 0] - 1.5)))
        gap = abs(gi[k, 1] - gb[k, 1])
        ok = rb <= 1e-4 and ri <= 1e-4 and gap >= 0.03
        report("C10 backward-curves", ok,
               f"residuals ({rb:.2e}, {ri:.2e}) <= 1e-4 at 10^4 nodes, "
               f"separation {gap:.4f} >= 0.03 at t=1.5")
        assert ok

    def test_c11_agreement_disagreement(self, verify_runs):
        measured = verify_runs["all", 0].measured
        gap_a, gap_w = measured["agreement_region"], measured["wedge_disagreement"]
        gap_phi = measured["potential_disagreement"]
        ok = gap_a <= 1e-11 and gap_w > 0.0 and gap_phi >= 1e-4
        report("C11 agreement-disagreement", ok,
               f"agreement gap {gap_a:.3e} <= 1e-11 on 1000 points, "
               f"min wedge gap {gap_w:.3e} > 0 on 1000 points, "
               f"potential gap {gap_phi:.3e} >= 1e-4")
        assert ok

    def test_c12_first_order_system(self, verify_runs):
        measured = verify_runs["all", 0].measured
        res, order = measured["pde_residual"], measured["pde_fd_order"]
        # the stated example points at the stated step size
        examples = max(
            sl.pde_residual_classical(0.5, 1.0, 1e-4),
            sl.pde_residual_classical(0.2, -5.0, 1e-4),
        )
        ok = res <= 1e-6 and order >= 1.9 and examples <= 1e-6
        report("C12 first-order-system", ok,
               f"max residual {res:.3e} <= 1e-6 at 200 points, "
               f"min FD order {order:.3f} >= 1.9 on 10 points, "
               f"example points {examples:.3e} <= 1e-6")
        assert ok

    def test_c13_godunov_oracle(self, run7):
        # the godunov suite's two marches and their two L1 errors
        (s4,), (sw, s8) = run7.states
        e4, e8 = run7.errors
        assert (s4.n_cells, s4.time, sw.n_cells, sw.time, s8.time) == (4000, 2.0, 8000, 1.27, 2.0)
        i = int(np.argmin(np.abs(sw.cell_centers - 2.5)))
        u = float(sw.cell_averages[i])
        pw = sl.psi_weak(Point(1.27, 2.5))
        pc = sl.psi_classical(Point(1.27, 2.5))
        ok = (e4 <= 1e-2 and e8 / e4 <= 0.75
              and abs(u - pw) <= 0.05 and abs(u - pc) >= 0.5)
        report("C13 godunov-oracle", ok,
               f"L1(n=4000) {e4:.4e} <= 1e-2, ratio {e8 / e4:.3f} <= 0.75, "
               f"wedge cell {u:.4f} within 0.05 of entropy {pw:.4f} and "
               f">= 0.5 from classical {pc:.4f}")
        assert ok
        # frozen: the one march serves both end times bit for bit
        assert (e4, e8, u) == (0.00781216453767635, 0.003827092042893625, 0.8283574257847297)
        # the suite's three checks, the report's last, passed on these same measurements
        assert [(c.name, c.passed, c.measured) for c in run7.report.checks[-3:]] == [
            ("godunov_l1", True, e4), ("godunov_l1_ratio", True, e8 / e4),
            ("godunov_entropy_selection", True, abs(u - pw)),
        ]

    def test_c14_crease_location(self):
        at_crease = [sl.boundary_x(kind, 1.0) for kind in BoundaryCurve]
        near = [sl.boundary_x(kind, 1.0 + 1e-12) for kind in BoundaryCurve]
        pt, v = sl.psi_boundary_extension(0.0)
        ok = (all(x == 2.0 for x in at_crease)
              and all(abs(x - 2.0) <= 1e-5 for x in near)
              and (pt.t, pt.x, v) == (1.0, 2.0, 0.0))
        report("C14 crease-location", ok,
               f"all three curves reach x=2 at t=1; boundary map at parameter 0 "
               f"is exactly ((1, 2), 0)")
        assert ok
