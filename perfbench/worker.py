"""One workload run in its own process; started by run.py, not by hand.

Imports shocklab from the checkout's ``src/``, runs the warm-up ops, reports
that it is ready, then runs whole rounds of the workload in a closed loop
(one client) and prints one JSON line with raw measurements.  Untraced
rounds run under ``probe.HostProbe``, whose samples give the host's
speed.  With ``--trace 1`` the first round runs untraced (the overhead
baseline) and the rest run with the layers wrapped by ``spans.Tracer``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import numpy as np  # noqa: E402

import accounting  # noqa: E402
import workloads  # noqa: E402
from probe import MIN_SAMPLES, HostProbe  # noqa: E402
from spans import Tracer  # noqa: E402

MIN_ROUNDS = 2


def import_package():
    """shocklab from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import shocklab
    import shocklab.cli  # noqa: F401

    where = Path(shocklab.__file__).resolve()
    if (ROOT / "src") not in where.parents:
        raise ImportError(f"shocklab imported from {where}, not from {ROOT / 'src'}")
    return shocklab


class Runner:
    """Executes ops against the package's CLI and array functions."""

    def __init__(self, package):
        self.probe = None  # a HostProbe: its time inside an op is not the op's
        self.main = package.cli.main
        self.funcs = {
            "psi_weak_array": package.burgers.psi_weak_array,
            "psi_classical_array": package.burgers.psi_classical_array,
        }

    def run(self, op):
        """(latency_s, error or None, output, probe p25 or None) of one op.

        Only the call is timed; the p25 is of the host probe's samples
        taken during the call (see probe.py).
        """
        if self.probe is None:
            return (*self._call(op), None)
        busy, first = self.probe.busy, len(self.probe.durations)
        latency, error, output = self._call(op)
        return latency - (self.probe.busy - busy), error, output, self.probe.op_p25(first)

    def _call(self, op):
        if op.argv:
            out, err = io.StringIO(), io.StringIO()
            error = None
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    rc = self.main(list(op.argv))
                except SystemExit as exc:
                    rc = exc.code
                except Exception as exc:  # any exception is a failed op
                    error = f"{type(exc).__name__}: {exc}"
                t1 = time.perf_counter()
            if error is None and rc != op.expect_exit:
                error = f"exit {rc}: {err.getvalue().strip()[:200]}"
            return t1 - t0, error, out.getvalue()
        fn = self.funcs[op.func]
        error, values = None, None
        t0 = time.perf_counter()
        try:
            values = fn(op.t, op.x)
        except Exception as exc:  # any exception is a failed op
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        return t1 - t0, error, values


def record(op, slot, latency, error, output, probe_p25=None):
    """Log entry of one op; its output is checked unless the op failed."""
    matched = error is not None or (
        workloads.check_cli(op, output) if op.argv else workloads.check_array(op, output)
    )
    nbytes = len(output.encode()) if op.argv else 0
    return {"slot": slot, "latency": latency, "error": error, "matched": matched, "bytes": nbytes,
            "probe_p25": probe_p25}


def run_round(runner, ops, log):
    """One pass over the round; returns its summed op latency."""
    wall = 0.0
    for slot, op in enumerate(ops):
        log.append(record(op, slot, *runner.run(op)))
        wall += log[-1]["latency"]
    return wall


def untraced(runner, ops, seconds):
    """Whole rounds for about `seconds`; (log, rounds, host probe summary)."""
    log, rounds = [], 0
    begin = time.perf_counter()
    with HostProbe() as probe:
        runner.probe = probe
        while True:
            r0 = time.perf_counter()
            run_round(runner, ops, log)
            rounds += 1
            last = time.perf_counter() - r0
            if rounds >= MIN_ROUNDS and time.perf_counter() - begin + last > seconds:
                break
    runner.probe = None
    return log, rounds, probe.summary()


def traced(runner, package, ops, seconds):
    """One untraced round, then traced rounds; counts and times per round."""
    begin = time.perf_counter()
    base_wall = run_round(runner, ops, [])
    tracer = Tracer()
    tracer.install(package)
    main = runner.main
    runner.main = tracer.wrap(main, "cli.main")
    runner.funcs = {k: tracer.wrap(f, "burgers.field_array") for k, f in runner.funcs.items()}
    rounds, log = [], []
    try:
        while True:
            r0 = time.perf_counter()
            first_span = len(tracer.start)
            before = dict(tracer.counts)
            n_log = len(log)
            for slot, op in enumerate(ops):
                tracer.op_id = len(log)
                idx = tracer.open("op")
                result = runner.run(op)
                tracer.close(idx)
                log.append(record(op, slot, *result))
            counts = {k: v - before.get(k, 0) for k, v in tracer.counts.items()}
            counts["cli.output_bytes"] = sum(r["bytes"] for r in log[n_log:])
            rounds.append({"spans": (first_span, len(tracer.start)), "counts": counts,
                           "wall": sum(r["latency"] for r in log[n_log:])})
            last = time.perf_counter() - r0
            if time.perf_counter() - begin + last > seconds:
                break
    finally:
        tracer.uninstall()
        runner.main = main
    return tracer, rounds, log, base_wall


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    package = import_package()
    runner = Runner(package)
    for op in workloads.warmup_ops(args.workload):
        runner.run(op)
    print(json.dumps({"ready": time.monotonic()}), flush=True)
    if args.setup_only:
        probe = HostProbe()
        probe.sample(MIN_SAMPLES)
        print(json.dumps(probe.summary()), flush=True)
        return 0

    ops = workloads.build_round(args.workload, args.seed)
    digest = workloads.digest(ops)
    workloads.attach_references(ops)
    report = {"digest": digest, "labels": [op.label for op in ops],
              "points": [op.points for op in ops]}
    if args.trace:
        tracer, rounds, log, base_wall = traced(runner, package, ops, args.seconds)
        report["rss_mb"] = accounting.peak_rss_mb()
        report["layers"] = accounting.layer_report(tracer, rounds, base_wall)
        if args.spans_out:
            np.savez_compressed(args.spans_out, names=np.array(tracer.names), **tracer.arrays())
        report["rounds"] = len(rounds)
    else:
        log, n_rounds, report["probe"] = untraced(runner, ops, args.seconds)
        report["rss_mb"] = accounting.peak_rss_mb()
        report["rounds"] = n_rounds
    report["log"] = log
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
