import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from shocklab.burgers import psi_classical, psi_weak
from shocklab.characteristics import BoundaryCurve, RegionTag, boundary_x, classify, classify_array, foot_weak, outgoing_char
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

# Every pinned invocation: argv, exit code, exact stderr and the sha256 of
# stdout; a verify record may list check records, `measured` as float.hex.
GOLDEN = json.loads(Path(__file__).with_name("golden_cli.json").read_text())


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
    @pytest.mark.parametrize("verb", ["classify"])
    def test_negative_time_exit_2(self, capsys, verb):
        code, out, err = run_cli(capsys, verb, "--t", "-1", "--x", "0")
        assert (code, out) == (2, "")
        assert err == "error: t < 0 at (-1.0, 0.0); only t >= 0 is modelled\n"


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

    @pytest.mark.parametrize("curve", ["B"])
    def test_past_the_range_prints_no_rows(self, capsys, curve):
        code, out, err = run_cli(capsys, "boundary", "--curve", curve, "--t-range", "1:1e200", "--n", "3")
        assert (code, out) == (2, "")
        assert err == "error: boundary time t = 5e+199 is beyond the modelled range t <= 1e+150\n"

    @pytest.mark.parametrize("curve", ["B", "C", "K"])
    def test_rows_are_float_calls(self, capsys, curve):
        # one array call; each row equals the float call at its time
        code, out, err = run_cli(capsys, "boundary", "--curve", curve, "--t-range", "1:100", "--n", "1000")
        assert (code, err) == (0, "")
        rows = [f"{t!r},{boundary_x(BoundaryCurve(curve), t)!r}" for t in np.linspace(1.0, 100.0, 1000).tolist()]
        assert out == "t,x\n" + "\n".join(rows) + "\n"


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

    def test_characteristic_rows_are_float_calls(self, capsys):
        # one array call per family; each row equals its float call
        code, out, err = run_cli(
            capsys, "grid", "--t-range", "0.5:3", "--x-range=-3:5",
            "--nt", "7", "--nx", "2", "--field", "region", "--characteristics", "4",
        )
        assert (code, err) == (0, "")
        ts, rows = np.linspace(0.5, 3.0, 7).tolist(), []
        for x0 in np.linspace(-3.0, 5.0, 4).tolist():
            rows += [f"outgoing,{x0!r},{t!r},{outgoing_char(x0, t).x!r}" for t in ts]
            rows += [f"ingoing,{x0!r},{t!r},{x0 - 2.0 * (t - 0.5)!r}" for t in ts]
        assert out.split("curve,foot,t,x\n")[1] == "\n".join(rows) + "\n"


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

    def test_table_to_the_end_of_the_range(self, capsys):
        code, out, err = run_cli(capsys, "shock", "--t-range", "2:1e150", "--n", "2")
        assert (code, err) == (0, "")
        rows = out.strip().splitlines()
        assert len(rows) == 3
        last = rows[-1].split(",")
        assert float(last[0]) == 1e150
        assert float(last[5]) == float(last[6]) == math.pi / 2

    def test_one_batched_solve_equals_the_rows(self, capsys, monkeypatch):
        # one shock_trace and one lax_gaps call on the whole linspace; each
        # row equals its size-1 calls
        import shocklab.characteristics as ch
        from shocklab.burgers import shock_trace
        from shocklab.verification import lax_gaps

        rows = ["t,x,left_value,right_value,speed,lax_lower,lax_upper"]
        for t in np.linspace(1.1, 3.0, 200):
            tr = shock_trace(float(t))
            lo, up = lax_gaps(float(t))
            rows.append(",".join(map(cli._fmt, (t, 2.0 * t, tr.left_value, tr.right_value, tr.speed, lo, up))))
        solves = []
        solve_feet = ch._solve_feet
        monkeypatch.setattr(ch, "_solve_feet", lambda t, d, right: solves.append(t) or solve_feet(t, d, right))
        code, out, err = run_cli(capsys, "shock", "--t-range", "1.1:3", "--n", "200")
        assert (code, err) == (0, "")
        assert out == "\n".join(rows) + "\n"
        assert len(solves) <= 2


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

    def test_too_many_cells_exit_2(self, capsys, monkeypatch):
        # 1e11 cells, 800 GB: refused before np.zeros could allocate them
        def no_alloc(*args, **kwargs):
            raise AssertionError("the grid was allocated before its cell count was checked")

        monkeypatch.setattr(np, "zeros", no_alloc)
        code, out, err = run_cli(capsys, "godunov", "--t-end", "0.1", "--n-cells", "100000000000", "--x-range=-1:1")
        assert (code, out) == (2, "")
        assert err == "error: need at most 100000000 cells, got 100000000000\n"

    def test_wide_domain_compare(self, capsys):
        code, out, err = run_cli(
            capsys, "godunov", "--t-end", "0.5", "--n-cells", "200",
            "--x-range=-200:200", "--compare",
        )
        assert code == 0, err
        assert math.isfinite(float(out.strip().splitlines()[-1].partition("=")[2]))

    def test_unwritable_output_exit_2(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(capsys, "godunov", "--t-end", "0.5", "--n-cells", "8", "--output", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {path}: No such file or directory\n"


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

    def test_holder_suite_reports_known_failures(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "holder")
        assert code == 1
        doc = json.loads(out)
        failing = [c["name"] for c in doc["checks"] if c["status"] == "fail"]
        assert failing and all(name.startswith("holder_horizon") for name in failing)

    @pytest.mark.parametrize("suite", ["pde", "all"])
    @pytest.mark.parametrize("seed", ["-1", str(2**62 + 1), "99999999999999999999"])
    def test_seed_outside_the_sampler_range_exit_2(self, capsys, suite, seed):
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--seed", seed)
        assert (code, out, err) == (2, "", f"error: seed must lie in [0, 2**62], got {seed}\n")

    def test_policy_echo(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "--suite", "rh")
        doc = json.loads(out)
        assert doc["policy"] == {"geom_tol": GEOM_TOL}
        assert doc["seed"] == 0


class TestVerdictTable:
    # verify's name -> status map must equal the table the benchmark checks
    def test_all_suites_seed_7(self, verify_runs):
        run = verify_runs["all", 7]
        assert run.code == 1
        assert verdicts(run.out) == {k: v for suite in EXPECTED_VERIFY.values() for k, v in suite.items()}

    # the two suites that read the seed, at every seed the benchmark draws
    @pytest.mark.parametrize("suite", ["pde", "agreement"])
    def test_seeded_suites_every_seed(self, capsys, suite):
        for seed in range(100):
            _, out, _ = run_cli(capsys, "verify", "--suite", suite, "--seed", str(seed))
            assert verdicts(out) == EXPECTED_VERIFY[suite], f"seed {seed}"


@pytest.mark.skipif(sys.platform != "linux", reason="verify forks on Linux only")
def test_verify_all_on_the_fork_path(capsys, fork_pids):
    # uninstrumented, the godunov and weakform suites each fork one child, which
    # is reaped by the time verify returns, and stdout is the golden record's
    argv = ["verify", "--suite", "all", "--seed", "7"]
    (record,) = (record for record in GOLDEN if record["argv"] == argv)
    code, out, err = run_cli(capsys, *argv)
    assert (code, err, hashlib.sha256(out.encode()).hexdigest()) == (
        record["code"], record["stderr"], record["stdout_sha256"])
    assert len(fork_pids) == 2
    for pid in fork_pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.mark.parametrize("record", GOLDEN, ids=lambda record: " ".join(record["argv"]))
def test_golden(capsys, verify_runs, record):
    # a verify invocation the session has run is read from that run; any other runs here
    runs = {("verify", "--suite", suite, "--seed", str(seed)): run for (suite, seed), run in verify_runs.items()}
    run = runs.get(tuple(record["argv"]))
    code, out, err = (run.code, run.out, run.err) if run else run_cli(capsys, *record["argv"])
    # the check records first, so a moved check is named before the whole output's sha256
    if "checks" in record:
        got = {c["name"]: dict(c, measured=float(c["measured"]).hex()) for c in json.loads(out)["checks"]}
        assert [got.get(c["name"]) for c in record["checks"]] == record["checks"]
    assert (code, err, hashlib.sha256(out.encode()).hexdigest()) == (
        record["code"], record["stderr"], record["stdout_sha256"])


def test_golden_table_is_well_formed():
    # a repeated argv would run twice and pin nothing new; a stray key would pin nothing
    argvs = [tuple(record["argv"]) for record in GOLDEN]
    assert [argv for argv in set(argvs) if argvs.count(argv) > 1] == []
    keys = {"argv", "code", "stderr", "stdout_sha256"}
    assert [record["argv"] for record in GOLDEN if set(record) - {"checks"} != keys] == []


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


class TestParserBuiltOnce:
    # main parses with one parser built at import: each call gives the same
    # stdout, stderr and exit code as on a freshly built parser, whatever ran
    # before it, a usage error included
    CALLS = (
        ("grid", "--t-range", "0:3", "--x-range=-6:8", "--nt", "5", "--nx", "7",
         "--field", "psi", "--variant", "classical"),
        ("grid", "--t-range", "0:3"),
        ("eval", "--t", "2.0", "--x", "4.5", "--variant", "classical"),
        ("verify", "--suite", "rh"),
    )

    @staticmethod
    def outcome(capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_calls_carry_no_state(self, capsys, monkeypatch):
        sequence = [self.outcome(capsys, argv) for argv in self.CALLS * 2]
        first = []
        for argv in self.CALLS:
            monkeypatch.setattr(cli, "_PARSER", cli.build_parser())
            first.append(self.outcome(capsys, argv))
        assert [code for code, _, _ in first] == [0, 2, 0, 0]
        assert sequence == first * 2
