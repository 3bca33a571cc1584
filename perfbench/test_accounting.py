"""Self-tests of the benchmark's own accounting.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import accounting  # noqa: E402
import oracle  # noqa: E402
import probe  # noqa: E402
import workloads  # noqa: E402
from spans import CALLBACKS, Tracer, self_times  # noqa: E402


def test_self_time_of_nested_spans():
    # 0 [0, 10] has children 1 [1, 4] and 2 [3, 6] (overlapping) and
    # 3 [9, 12] (clipped to the parent); 1 has child 4 [2, 3].
    start = [0.0, 1.0, 3.0, 9.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    parent = [-1, 0, 0, 0, 1]
    assert self_times(start, end, parent).tolist() == [4.0, 2.0, 3.0, 3.0, 1.0]


def test_tracer_counts_callbacks_and_names_nested_spans():
    tracer = Tracer()

    def solver(p_func, dp_func, lo, hi, tol):
        for _ in range(3):
            p_func(lo)
        return lo

    traced = tracer.wrap(solver, "core.solve_monotone_array", callback=CALLBACKS["core.solve_monotone_array"])
    outer = tracer.wrap(lambda: traced(lambda u: u, None, np.zeros(5), np.ones(5), 1e-14), "burgers.field_array")
    outer()
    assert tracer.counts["core.solve_monotone_array.sweeps"] == 3
    assert tracer.counts["core.solve_monotone_array.points"] == 5
    (summary,) = tracer.summaries([(0, len(tracer.start))])
    assert summary["core.solve_monotone_array.calls"] == 1
    assert summary["burgers.field_array.calls"] == 1
    total = summary["burgers.field_array.total_s"]
    assert math.isclose(summary["burgers.field_array.self_s"] + summary["core.solve_monotone_array.total_s"], total)


@pytest.mark.parametrize("n, p", [(19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
                                  (200, 95.0), (999, 95.0), (1000, 99.0), (10_000, 99.9)])
def test_tail_percentile_rule(n, p):
    assert accounting.tail_percentile(n) == p


def test_op_tail_reports_percentile_and_samples_beyond():
    lat = np.arange(1, 201, dtype=float)
    value, pct, beyond = accounting.op_tail(lat)
    assert pct == 95.0 and beyond == 10 and value == pytest.approx(np.percentile(lat, 95))


def _package():
    sys.path.insert(0, str(HERE.parent / "src"))
    import shocklab
    import shocklab.cli  # noqa: F401

    return shocklab


def test_error_rate_counts_a_failing_input():
    import worker

    runner = worker.Runner(_package())
    good = workloads.Op(label="good", points=4, argv=workloads._grid_argv((0.5, 0.6, 0.0, 0.1), 2, 2, "psi", "weak"))
    # --nt 1 is a usage error: exit 2 where the op expects 0
    bad = workloads.Op(label="bad", points=4, argv=workloads._grid_argv((0.5, 0.6, 0.0, 0.1), 1, 4, "psi", "weak"))
    workloads.attach_references([good])
    log = [worker.record(op, i, *runner.run(op)) for i, op in enumerate((good, bad))]
    assert log[0]["error"] is None and log[0]["matched"]
    assert log[1]["error"].startswith("exit 2")
    assert accounting.error_rate(log) == 0.5
    metrics, _ = accounting.summarize(log, [4, 4])
    assert metrics["ok_rate"] == 0.5


def test_summary_divides_times_by_host_factors():
    # two rounds of two ops; slot 1 fails once, so 3 of 4 ops succeed.  The
    # first op ran at half speed by its own probe samples, the others had
    # too few samples and take the run's quarter speed.
    ref = probe.REF_S

    def entry(slot, latency, p25=None, error=None):
        return {"slot": slot, "latency": latency, "error": error, "matched": True, "probe_p25": p25}

    log = [entry(0, 2.0, 2 * ref), entry(1, 1.0), entry(0, 3.0), entry(1, 0.5, error="MaxIterExceeded")]
    raw, _ = accounting.summarize(log, [10, 20])
    assert raw["round_s"] == 2.5 and raw["points_per_s"] == 20.0 / 2.5 and raw["ok_rate"] == 0.75
    norm, prov = accounting.summarize(log, [10, 20], run_p5=4 * ref)
    assert norm["round_s"] == 0.75 + 0.125 and norm["points_per_s"] == 20.0 / 0.875
    assert prov["raw_round_s"] == 2.5 and prov["host_factor"] == 4.0 and prov["ops_with_own_factor"] == 1


def test_host_probe_time_is_not_charged_to_the_op():
    import worker

    runner = worker.Runner(_package())

    def call(t, x):
        runner.probe.busy += 100.0  # as if the probe had run for 100 s inside the call
        return -np.arctan(oracle.foot(t, x, "weak"))

    runner.funcs["psi_weak_array"] = call
    runner.probe = probe.HostProbe()
    op = workloads.Op(label="a", points=1, func="psi_weak_array", t=np.array([0.5]), x=np.array([1.0]))
    assert -100.0 < runner.run(op)[0] < -99.0


def test_host_probe_samples_while_active():
    with probe.HostProbe() as p:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(p.durations) >= 10 and p.busy >= sum(p.durations)
    with pytest.raises(ValueError, match="fewer than"):
        p.summary()


def _grid_csv(op, values):
    rows = ["t,x,value"]
    for t, x, v in zip(op.ref["t"], op.ref["x"], values):
        rows.append(f"{float(t)!r},{float(x)!r},{'NA' if isinstance(v, str) or np.isnan(v) else repr(float(v))}")
    return "\n".join(rows) + "\n"


def test_reference_check_rejects_a_perturbed_value():
    t = np.array([0.3, 1.5, 2.5, 2.0])
    x = np.array([1.0, 2.0, 4.8, -1.0])
    op = workloads.Op(label="a", points=4, func="psi_weak_array", t=t, x=x)
    workloads.attach_references([op])
    exact = -np.arctan(oracle.foot(t, x, "weak"))
    assert workloads.check_array(op, exact)
    assert not workloads.check_array(op, exact + np.array([0.0, 0.0, 1e-9, 0.0]))

    grid = workloads.Op(label="g", points=12, argv=workloads._grid_argv((1.2, 1.6, 2.0, 3.5), 3, 4, "phi", "classical"))
    workloads.attach_references([grid])
    ref = grid.ref["phi"]
    assert np.isnan(ref).any() and not np.isnan(ref).all()
    assert workloads.check_grid(grid, _grid_csv(grid, ref))
    k = int(np.flatnonzero(~np.isnan(ref))[0])
    bumped = ref.copy()
    bumped[k] += 1e-7
    assert not workloads.check_grid(grid, _grid_csv(grid, bumped))
    filled = np.where(np.isnan(ref), 0.0, ref)
    assert not workloads.check_grid(grid, _grid_csv(grid, filled))


def test_region_reference_matches_package_tags():
    classify = _package().classify
    point = _package().Point
    t, x = workloads.grid_points(workloads._grid_argv((0.0, 3.0, -2.0, 8.0), 7, 11, "region", "weak"))
    tags = [classify(point(float(a), float(b))).value for a, b in zip(t, x)]
    assert tags == list(oracle.region(t, x))


def _report(statuses):
    return json.dumps({"checks": [{"name": k, "status": v} for k, v in statuses.items()]})


def test_verify_check_accepts_only_the_known_horizon_failures():
    (op,) = [o for o in workloads.build_round("verify", 1) if o.argv[2] == "holder"]
    workloads.attach_references([op])
    expected = dict(op.ref["statuses"])
    assert sorted(k for k, v in expected.items() if v == "fail") == [
        "holder_horizon_x-2.0", "holder_horizon_x0.0", "holder_horizon_x1.0"]
    assert op.expect_exit == 1
    assert workloads.check_verify(op, _report(expected))
    assert not workloads.check_verify(op, _report(dict(expected, holder_crease="fail")))
    assert not workloads.check_verify(op, _report(dict(expected, **{"holder_horizon_x0.0": "pass"})))
    total = sum(len(v) for v in workloads.EXPECTED_VERIFY.values())
    fails = [k for v in workloads.EXPECTED_VERIFY.values() for k, s in v.items() if s == "fail"]
    assert (total, len(fails)) == (29, 3)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_repeat_per_seed(workload):
    # seed 1 is the tuning seed; seed 7 is held out
    for seed in (1, 7):
        assert workloads.digest(workloads.build_round(workload, seed)) == \
            workloads.digest(workloads.build_round(workload, seed))
    assert workloads.digest(workloads.build_round(workload, 1)) != \
        workloads.digest(workloads.build_round(workload, 7))


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(accounting.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(accounting.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
