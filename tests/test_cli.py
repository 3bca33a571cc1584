import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from shocklab.burgers import psi_classical, psi_weak
from shocklab.characteristics import RegionTag, classify, classify_array, foot_weak
from shocklab import cli
from shocklab.cli import main
from shocklab.core import GEOM_TOL, InvariantViolation, OnShockError, OutsideDomain, Point, SolutionVariant
from shocklab.wave_potential import lbar_derivative, phi


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# The benchmark's verdict table: suite -> check name -> status.
EXPECTED_VERIFY = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "expected_verify.json").read_text()
)


def verdicts(out):
    return {c["name"]: c["status"] for c in json.loads(out)["checks"]}


def parse_kv(text):
    out = {}
    for line in text.strip().splitlines():
        k, _, v = line.partition("=")
        out[k] = v
    return out


class TestEval:
    def test_classical_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--t", "0.5", "--x", "1", "--variant", "classical",
            "--fields", "psi,region",
        )
        assert code == 0
        kv = parse_kv(out)
        assert abs(float(kv["psi"])) < 1e-12
        assert kv["region"] == "OmegaA"

    def test_wedge_weak_positive(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--t", "1.27", "--x", "2.5", "--variant", "weak", "--fields", "psi",
        )
        assert code == 0
        assert float(parse_kv(out)["psi"]) > 0

    def test_on_shock_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys, "eval", "--t", "2", "--x", "4", "--variant", "weak", "--fields", "psi",
        )
        assert code == 2
        assert "shock" in err.lower()

    def test_outside_classical_domain_stderr(self, capsys):
        code, out, err = run_cli(
            capsys, "eval", "--t", "2.2", "--x", "0.5", "--variant", "classical", "--fields", "psi",
        )
        assert (code, out) == (2, "")
        assert err == "error: (2.2, 0.5) is outside the classical domain\n"

    def test_outside_classical_domain_phi_stderr(self, capsys):
        code, out, err = run_cli(
            capsys, "eval", "--t", "2.2", "--x", "0.5", "--variant", "classical", "--fields", "phi",
        )
        assert (code, out) == (2, "")
        assert err == "error: classical potential undefined at (2.2, 0.5)\n"

    # on B (foot 1) and at the crease (foot 0) the classical derivative is undefined
    @pytest.mark.parametrize("t, x", [("2", repr(5.0 - math.pi / 2)), ("1", "2")], ids=["B", "crease"])
    def test_undefined_derivative_exit_2(self, capsys, t, x):
        code, out, err = run_cli(
            capsys, "eval", "--t", t, "--x", x, "--variant", "classical", "--fields", "dpsi_dx",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: 1 + t*psi0'(x0) = ")

    def test_metric_and_frame_fields(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--t", "0.5", "--x", "1", "--variant", "classical",
            "--fields", "metric,frame,dphi_dx,dphi_dt,phi,dpsi_dx",
        )
        assert code == 0
        kv = parse_kv(out)
        assert float(kv["metric_tt"]) == pytest.approx(-1.0, abs=1e-12)
        assert float(kv["metric_xx"]) == pytest.approx(0.25, abs=1e-12)
        assert float(kv["L_x"]) == pytest.approx(2.0, abs=1e-12)
        assert float(kv["Lbar_x"]) == -2.0
        assert float(kv["dpsi_dx"]) == pytest.approx(-2.0, abs=1e-9)
        # the ingoing identity ties the three potential fields to psi
        lbar = float(kv["dphi_dt"]) - 2.0 * float(kv["dphi_dx"])
        assert lbar == pytest.approx(float(kv["psi"]) if "psi" in kv else 0.0, abs=1e-9)

    # sha256 of stdout for every field at once, in the wedge and, for the weak
    # variant, in the weak-only region; the weak variant has no dpsi_dx
    ALL_FIELDS = "psi,dpsi_dx,phi,dphi_dx,dphi_dt,region,metric,frame"
    NO_DPSI = "psi,phi,dphi_dx,dphi_dt,region,metric,frame"

    @pytest.mark.parametrize("t, x, variant, fields, digest", [
        ("2", "3.7", "classical", ALL_FIELDS,
         "1ccf57bee2e4b1d5e92ce2c88c2225bdcffdc83bccbe00ffc3cd123197b9b75c"),
        ("0", "0.3", "classical", ALL_FIELDS,
         "19a0e3a41f7e907cb3bb49fded3de79d31c2e38e3162d5ca6f3ff7289d505558"),
        ("2", "3.7", "weak", NO_DPSI,
         "ae12ef75fb137e3a4a16769e81e7426a5cbee972413a104b5b2cf10f27e51eca"),
        ("2", "1.0", "weak", NO_DPSI,
         "e893cfe8a1dabcafd146199be2a11f4b2cdb6e976ad0c271a5bb79bcee55d89b"),
    ])
    def test_all_fields_frozen(self, capsys, t, x, variant, fields, digest):
        code, out, err = run_cli(capsys, "eval", "--t", t, "--x", x, "--variant", variant, "--fields", fields)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_all_fields_weak_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys, "eval", "--t", "2", "--x", "3.7", "--variant", "weak", "--fields", self.ALL_FIELDS,
        )
        assert (code, out) == (2, "")
        assert err == "error: dpsi_dx is provided for the classical variant\n"

    def test_unknown_field_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--t", "1", "--x", "1", "--fields", "bogus")
        assert code == 2
        assert "unknown field" in err


class TestClassifyVerb:
    def test_classify(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--t", "1.5", "--x", "1.2")
        assert code == 0
        assert out.strip() == "region=WeakOnly"

    def test_internal_error_exit_1(self, capsys, monkeypatch):
        def broken(p):
            raise InvariantViolation("broken invariant")
        monkeypatch.setattr(cli, "classify", broken)
        code, out, err = run_cli(capsys, "classify", "--t", "1.5", "--x", "1.2")
        assert (code, out, err) == (1, "", "internal error: broken invariant\n")


class TestPointRule:
    # the CLI refuses what Point refuses, with the shared message
    @pytest.mark.parametrize("verb", ["eval", "classify"])
    def test_negative_time_exit_2(self, capsys, verb):
        code, out, err = run_cli(capsys, verb, "--t", "-1", "--x", "0")
        assert (code, out) == (2, "")
        assert err == "error: t < 0 at (-1.0, 0.0); only t >= 0 is modelled\n"

    @pytest.mark.parametrize("argv, point", [
        (("eval", "--t", "1e200", "--x", "0"), "(1e+200, 0.0)"),
        (("grid", "--t-range", "0:1", "--x-range=-1e200:1e200", "--nt", "2", "--nx", "3"), "(0.0, -1e+200)"),
    ], ids=["eval", "grid"])
    def test_beyond_the_modelled_range_exit_2(self, capsys, argv, point):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {point} is beyond the modelled range t, |x| <= 1e+150\n"


class TestBoundary:
    def test_singular_boundary(self, capsys):
        code, out, _ = run_cli(capsys, "boundary", "--curve", "B", "--t-range", "1:2", "--n", "3")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "t,x"
        t0, x0 = map(float, rows[1].split(","))
        t2, x2 = map(float, rows[3].split(","))
        assert (t0, x0) == (1.0, 2.0)
        assert t2 == 2.0 and x2 == pytest.approx(5.0 - math.pi / 2, abs=1e-12)

    def test_horizon(self, capsys):
        code, out, _ = run_cli(capsys, "boundary", "--curve", "C", "--t-range", "1:2", "--n", "2")
        rows = out.strip().splitlines()[1:]
        assert [tuple(map(float, r.split(","))) for r in rows] == [(1.0, 2.0), (2.0, 0.0)]

    def test_shock(self, capsys):
        code, out, _ = run_cli(capsys, "boundary", "--curve", "K", "--t-range", "1:3", "--n", "3")
        rows = out.strip().splitlines()[1:]
        assert [tuple(map(float, r.split(","))) for r in rows] == [
            (1.0, 2.0), (2.0, 4.0), (3.0, 6.0)]

    def test_bad_range_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "boundary", "--curve", "B", "--t-range", "0.5:2", "--n", "3")
        assert code == 2


class TestGrid:
    def test_region_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "grid", "--t-range", "0:3", "--x-range=-2:8",
            "--nt", "7", "--nx", "11", "--field", "region",
        )
        assert code == 0
        tags = {row.split(",")[2] for row in out.strip().splitlines()[1:]}
        assert {"OmegaA", "Wedge", "WeakOnly", "InitialSlice"} <= tags

    def test_classical_grid_has_na(self, capsys):
        code, out, _ = run_cli(
            capsys, "grid", "--t-range", "1.3:2.3", "--x-range=-1:6",
            "--nt", "5", "--nx", "9", "--variant", "classical", "--field", "psi",
        )
        assert code == 0
        values = [row.split(",")[2] for row in out.strip().splitlines()[1:]]
        assert "NA" in values

    def test_weak_grid_full(self, capsys):
        code, out, _ = run_cli(
            capsys, "grid", "--t-range", "0.1:2.9", "--x-range=-1.05:6.03",
            "--nt", "5", "--nx", "9", "--variant", "weak", "--field", "psi",
        )
        assert code == 0
        values = [row.split(",")[2] for row in out.strip().splitlines()[1:]]
        assert "NA" not in values

    def test_characteristic_overlay(self, capsys):
        code, out, _ = run_cli(
            capsys, "grid", "--t-range", "0:1", "--x-range", "0:2",
            "--nt", "3", "--nx", "3", "--field", "region", "--characteristics", "2",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert "curve,foot,t,x" in lines
        assert any(line.startswith("outgoing,") for line in lines)
        assert any(line.startswith("ingoing,") for line in lines)


def reference_grid(t_range, x_range, nt, nx, field, variant):
    """Per-point classify and scalar psi or phi: the grid as evaluated cell by cell."""
    (t0, t1), (x0, x1) = t_range, x_range
    rows = []
    for t in np.linspace(t0, t1, nt):
        for x in np.linspace(x0, x1, nx):
            p = Point(float(t), float(x))
            if field == "region":
                cell = classify(p).value
            else:
                try:
                    if field == "phi":
                        cell = phi(p, SolutionVariant(variant))
                    else:
                        cell = psi_classical(p) if variant == "classical" else psi_weak(p)
                except (OutsideDomain, OnShockError):
                    cell = "NA"
            rows.append((repr(float(t)), repr(float(x)), cell))
    return rows


class TestGridCounts:
    def test_one_time_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys, "grid", "--t-range", "0:1", "--x-range", "0:1", "--nt", "1", "--nx", "3",
        )
        assert (code, out, err) == (2, "", "error: invalid grid ranges or counts\n")


class TestGridEquivalence:
    # boxes through the crease, B, C and K; the second puts grid rows on
    # t = 1 and t = 2 and a cell on the crease and on the shock
    BOXES = [((0.0, 3.7), (-9.0, 13.0), 37, 61), ((0.0, 2.0), (0.0, 4.0), 9, 17),
             ((1.5, 2.5), (-0.5, 5.5), 11, 97)]

    @pytest.mark.parametrize("box", BOXES)
    @pytest.mark.parametrize("field,variant", [("region", "weak"), ("psi", "weak"), ("psi", "classical"),
                                               ("phi", "weak"), ("phi", "classical")])
    def test_matches_per_point_reference(self, capsys, box, field, variant):
        (t0, t1), (x0, x1), nt, nx = box
        code, out, _ = run_cli(
            capsys, "grid", f"--t-range={t0}:{t1}", f"--x-range={x0}:{x1}",
            "--nt", str(nt), "--nx", str(nx), "--field", field, "--variant", variant,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t,x,value"
        rows = [tuple(line.split(",")) for line in lines[1:]]
        ref = reference_grid((t0, t1), (x0, x1), nt, nx, field, variant)
        assert [r[:2] for r in rows] == [r[:2] for r in ref]
        for (_, _, cell), (_, _, want) in zip(rows, ref):
            if field == "region" or want == "NA" or cell == "NA":
                assert cell == want
            else:
                assert float(cell) == pytest.approx(want, abs=1e-12 if field == "phi" else 1e-7)

    def test_wide_phi_grid(self, capsys):
        code, out, err = run_cli(
            capsys, "grid", "--t-range=0.5:1", "--x-range=100:200", "--nt", "2", "--nx", "2",
            "--field", "phi",
        )
        assert code == 0, err
        values = [float(row.split(",")[2]) for row in out.strip().splitlines()[1:]]
        assert len(values) == 4
        # |psi| < pi/2 along an ingoing segment of length 2t
        assert all(-1.0 * math.pi / 2 < v / t < 0.0 for v, t in zip(values, (0.5, 0.5, 1.0, 1.0)))


class TestShockBand:
    # one band for "on K": the weak foot, the weak potential's ingoing
    # derivative, the NA cells of a weak psi grid and the region map agree
    # just inside and just outside its edges, also next to the crease
    @pytest.mark.parametrize("t", [1.0 - 1e-6, 1.0 + 1e-9, 1.0 + 1e-6, 1.5, 4.0])
    @pytest.mark.parametrize("offset", [
        s * GEOM_TOL * f for s in (-1.0, 1.0) for f in (1.0 - 1e-3, 1.0 + 1e-3)
    ] + [0.0])
    def test_members_agree(self, capsys, t, offset):
        x = 2.0 * t + offset
        inside = t > 1.0 and abs(offset) < GEOM_TOL
        try:
            foot_weak(Point(t, x))
            foot_raises = False
        except OnShockError:
            foot_raises = True
        try:
            lbar_derivative(t, x, SolutionVariant.WEAK)
            lbar_raises = False
        except OnShockError:
            lbar_raises = True
        # the grid's first cell is (t, x) exactly: linspace keeps its ends
        code, out, _ = run_cli(
            capsys, "grid", f"--t-range={t!r}:{t + 1.0!r}", f"--x-range={x!r}:{x + 1.0!r}",
            "--nt", "2", "--nx", "2", "--field", "psi", "--variant", "weak",
        )
        assert code == 0
        first = out.splitlines()[1].split(",")
        assert (float(first[0]), float(first[1])) == (t, x)
        tagged = classify_array(t, x) == RegionTag.ON_SHOCK
        assert (foot_raises, lbar_raises, first[2] == "NA", bool(tagged)) == (inside,) * 4


class TestShockVerb:
    def test_before_the_crease_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "shock", "--t-range", "0.5:3", "--n", "5")
        assert (code, out, err) == (2, "", "error: need 1 < t_min < t_max and n >= 2\n")

    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "shock", "--t-range", "1.2:2", "--n", "3")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "t,x,left_value,right_value,speed,lax_lower,lax_upper"
        last = rows[-1].split(",")
        assert float(last[1]) == 4.0
        assert float(last[4]) == 2.0
        assert float(last[5]) == pytest.approx(float(last[6]), abs=1e-10)


class TestGodunovVerb:
    def test_run_with_compare(self, capsys, tmp_path):
        out_file = tmp_path / "grid.csv"
        code, out, _ = run_cli(
            capsys, "godunov", "--t-end", "0.5", "--n-cells", "200",
            "--output", str(out_file), "--compare",
        )
        assert code == 0
        assert "l1_error=" in out
        text = out_file.read_text()
        assert text.startswith("x_center,value")
        assert len(text.strip().splitlines()) == 201

    @pytest.mark.parametrize("n_cells", ["0", "1", "-3"])
    def test_too_few_cells_exit_2(self, capsys, n_cells):
        code, out, err = run_cli(capsys, "godunov", "--t-end", "0.5", "--n-cells", n_cells)
        assert (code, out) == (2, "")
        assert err == f"error: need at least 2 cells, got {n_cells}\n"

    def test_wide_domain_compare(self, capsys):
        code, out, err = run_cli(
            capsys, "godunov", "--t-end", "0.5", "--n-cells", "200",
            "--x-range=-200:200", "--compare",
        )
        assert code == 0, err
        assert math.isfinite(float(out.strip().splitlines()[-1].partition("=")[2]))

    @pytest.mark.parametrize("t_end", ["nan", "inf", "-inf"])
    def test_non_finite_end_exit_2(self, capsys, t_end):
        code, out, err = run_cli(capsys, "godunov", f"--t-end={t_end}")
        assert (code, out) == (2, "")
        assert err == f"error: t_end = {t_end} is not finite\n"

    # sha256 of stdout: the march and its L1 comparison, byte for byte
    @pytest.mark.parametrize("argv, digest", [
        (("--t-end", "2", "--n-cells", "800"),
         "6a6898ad615567e4f68450c255bdd4fe8db32a08e6714b53a2a71ee35e9647e9"),
        (("--t-end", "0.5", "--n-cells", "200", "--x-range=-200:200"),
         "b145f471ac112802c33368c103ad6a12405fb07e604c5fc01f1641f9d4390a21"),
    ])
    def test_compare_output_frozen(self, capsys, argv, digest):
        code, out, err = run_cli(capsys, "godunov", *argv, "--compare")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_step_bound_exit_2(self, capsys):
        # cells 2.5e-321 wide: a march of ~1e320 CFL steps is refused before it starts
        code, out, err = run_cli(capsys, "godunov", "--x-range=0:1e-320", "--t-end", "0.1", "--n-cells", "4")
        assert (code, out) == (2, "")
        assert err == "error: t_end = 0.1 takes more than 100000000 CFL steps on cells of width 2.5e-321\n"


class TestRanges:
    # every verb that takes a range: its argv up to the range flag
    VERBS = {
        "grid_t": ("grid", "--x-range=0:1", "--nt", "2", "--nx", "2", "--t-range"),
        "grid_x": ("grid", "--t-range=0:1", "--nt", "2", "--nx", "2", "--x-range"),
        "boundary": ("boundary", "--curve", "B", "--n", "3", "--t-range"),
        "shock": ("shock", "--n", "3", "--t-range"),
        "godunov": ("godunov", "--t-end", "0.5", "--n-cells", "8", "--x-range"),
    }

    @pytest.mark.parametrize("text", ["1", "1:2:3", "a:2", "0:nan", "nan:2", "1:inf", "-inf:inf"])
    @pytest.mark.parametrize("verb", list(VERBS))
    def test_not_two_finite_numbers_exit_2(self, capsys, verb, text):
        *argv, flag = self.VERBS[verb]
        code, out, err = run_cli(capsys, *argv, f"{flag}={text}")
        assert (code, out) == (2, "")
        assert err == f"error: range must be two finite numbers lo:hi, got {text!r}\n"


class TestVerifyVerb:
    def test_rh_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "rh")
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["failed"] == 0
        assert doc["checks"][0]["name"] == "rankine_hugoniot"

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "--suite", "lax", "--seed", "7")
        _, out2, _ = run_cli(capsys, "verify", "--suite", "lax", "--seed", "7")
        assert out1 == out2

    def test_holder_suite_reports_known_failures(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "holder")
        assert code == 1
        doc = json.loads(out)
        failing = [c["name"] for c in doc["checks"] if c["status"] == "fail"]
        assert failing and all(name.startswith("holder_horizon") for name in failing)

    def test_policy_echo(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "--suite", "rh")
        doc = json.loads(out)
        assert doc["policy"] == {"geom_tol": GEOM_TOL}
        assert doc["seed"] == 0


class TestVerdictTable:
    # verify's name -> status map must equal the table the benchmark checks
    def test_all_suites_seed_7(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "--suite", "all", "--seed", "7")
        assert verdicts(out) == {k: v for suite in EXPECTED_VERIFY.values() for k, v in suite.items()}
        # and every value of the report, byte for byte
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "56fd1e41b2b33f6e78f01b20e7607ac84a322c26610e898906f4e8478d1e844e"
        )

    def test_pde_suite_every_seed(self, capsys):
        for seed in range(100):
            _, out, _ = run_cli(capsys, "verify", "--suite", "pde", "--seed", str(seed))
            assert verdicts(out) == EXPECTED_VERIFY["pde"], f"seed {seed}"


class TestRoundTrip:
    def test_omega_a_cells_agree_across_variants(self, capsys):
        # any grid cell tagged OmegaA evaluates identically in both variants
        code, out, _ = run_cli(
            capsys, "grid", "--t-range", "0.2:0.9", "--x-range=-3:3",
            "--nt", "4", "--nx", "7", "--field", "region",
        )
        cells = [row.split(",") for row in out.strip().splitlines()[1:]]
        checked = 0
        for t, x, tag in cells:
            if tag != "OmegaA":
                continue
            _, o1, _ = run_cli(capsys, "eval", "--t", t, "--x", x,
                               "--variant", "classical", "--fields", "psi")
            _, o2, _ = run_cli(capsys, "eval", "--t", t, "--x", x,
                               "--variant", "weak", "--fields", "psi")
            assert o1 == o2
            checked += 1
        assert checked >= 5
