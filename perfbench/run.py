"""shocklab benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 50 --trace 0

Runs from the root of a source checkout and measures the package in
``src/``.  The launcher pins numpy/BLAS to one thread, starts the workload
in a fresh process seven times to measure set-up, then once more to run it in a
closed loop with one client for about ``--seconds`` (whole rounds, at
least two).  Reported times are divided by host factors, the speed of
the shared host while the ops ran (see probe.py); the raw times are in the
provenance.  It prints a provenance line, with ``--trace 1`` a line of all
per-layer numbers, and as the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones (see accounting.py).  Full results and the trace spans go to
``.perfbench_out/`` in the checkout.  Exits non-zero, printing no result,
when the package cannot be imported or run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import accounting  # noqa: E402
import workloads  # noqa: E402
from probe import REF_S  # noqa: E402

SETUP_LAUNCHES = 7
DEADLINE_S = 170.0
THREADS = "1"  # one client, elementwise numpy: BLAS pools only add noise


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = THREADS
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def launch(argv, timeout):
    """Run the worker; (setup_s, its last line).  Raises on any failure."""
    cmd = [sys.executable, str(HERE / "worker.py"), *argv]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(), cwd=str(ROOT), text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker timed out after {timeout:.0f} s")
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    if len(lines) < 2:
        raise RuntimeError(f"worker printed {len(lines)} lines: {err.strip()[-2000:]}")
    return json.loads(lines[0])["ready"] - t0, json.loads(lines[-1])


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref
    return ref


def src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    begin = time.monotonic()

    base = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = [launch([*base, "--seconds", "0", "--setup-only"], 60.0)
                  for _ in range(SETUP_LAUNCHES)]
        OUT.mkdir(exist_ok=True)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        run_argv = [*base, "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            # one span file per workload, overwritten: a traced run can hold millions of spans
            run_argv += ["--spans-out", str(OUT / f"spans-{args.workload}.npz")]
        _, report = launch(run_argv, DEADLINE_S - (time.monotonic() - begin))
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    log = report["log"]
    # the traced run has no host probe: its end-to-end numbers stay raw
    run_p5 = report["probe"]["p5"] if "probe" in report else None
    try:
        e2e, prov = accounting.summarize(log, report["points"], run_p5)
    except ValueError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    # each launch's set-up time over its own host factor (probe.py)
    e2e["setup_s"] = statistics.median(s * REF_S / probe["p5"] for s, probe in setups)
    e2e["peak_rss_mb"] = report["rss_mb"]
    mismatched = [r for r in log if not r["matched"]]
    errors = sorted({f"{report['labels'][r['slot']]}: {r['error']}" for r in log if r["error"]})
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "input_digest": report["digest"],
        "git_sha": git_sha(),
        "src_digest": src_digest(),
        "nproc": os.cpu_count(),
        "blas_threads": int(THREADS),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "rounds": report["rounds"],
        "ops_per_round": len(report["labels"]),
        "points_per_op": dict(zip(report["labels"], report["points"])),
        "setup_s_runs": [s for s, _ in setups],
        "setup_host_factors": [probe["factor"] for _, probe in setups],
        "host_probe": report.get("probe"),
        **prov,
        "failed_ops": errors,
        "mismatched_ops": sorted({report["labels"][r["slot"]] for r in mismatched}),
    }
    if args.trace:
        metrics = accounting.per_layer_metrics(report["layers"])
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in accounting.END_TO_END}
    result = {
        "correct": not mismatched,
        "attempted": len(log),
        "failed": sum(1 for r in log if r["error"] or not r["matched"]),
        "metrics": metrics,
    }
    full = {"provenance": provenance, "end_to_end": e2e, "layers": report.get("layers"),
            "result": result, "log": log}
    (OUT / f"result-{tag}.json").write_text(json.dumps(full, indent=1, sort_keys=True))
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    if args.trace:
        print(json.dumps({"layers": report["layers"]}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
