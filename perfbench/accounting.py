"""Metric definitions and the arithmetic behind them.

Kept apart from the runner so that the self-tests in ``test_accounting.py``
exercise exactly the code that produces the reported numbers.
"""

from __future__ import annotations

import resource
import statistics

import numpy as np

from probe import REF_S

# (name, unit): what a user of the package sees, measured with tracing off.
# Op latency percentiles are reported in the provenance line, not here:
# every workload must report every metric, and on verify the median op is
# a 5 ms suite sampled two or three times per run.  Times are divided by
# host factors (probe.py), the raw ones go to provenance.
END_TO_END = (
    ("setup_s", "s"),          # process start to first timed op, median of 7 launches
    ("round_s", "s"),          # one pass over the round: sum of each op's fastest latency
    ("points_per_s", "1/s"),   # values of successful ops in a round / round_s
    ("ok_rate", "ratio"),      # successful ops / attempted ops (1 - error rate)
    ("peak_rss_mb", "MB"),     # ru_maxrss of the workload's process
)

# (name, unit): single-layer numbers from the traced run, per round.  Work
# counts for every layer; times only for layers that run on every workload
# (a layer a workload never enters would report a time of exactly zero).
PER_LAYER = (
    ("core.solve_monotone_array.calls", "count"),
    ("core.solve_monotone_array.points", "count"),
    ("core.solve_monotone_array.sweeps", "count"),
    ("core.solve_monotone_array.failed", "count"),
    ("core.solve_monotone_array.sweeps_per_call", "sweeps/call"),
    ("core.solve_monotone_array.self_s", "s"),
    ("core.find_root.calls", "count"),
    ("core.find_root.f_evals", "count"),
    ("core.adaptive_quad.calls", "count"),
    ("core.adaptive_quad.integrand_calls", "count"),
    ("core.adaptive_quad.nodes", "count"),
    ("core.adaptive_quad.failed", "count"),
    ("characteristics.classify.calls", "count"),
    ("characteristics.classify.self_s", "s"),
    ("characteristics.foot_scalar.calls", "count"),
    ("characteristics.foot_array.calls", "count"),
    ("characteristics.foot_array.self_s", "s"),
    ("burgers.field_scalar.calls", "count"),
    ("burgers.field_array.calls", "count"),
    ("burgers.field_array.self_s", "s"),
    ("wave_potential.phi.calls", "count"),
    ("wave_potential.closed_form.calls", "count"),
    ("geometry.calls", "count"),
    ("verification.weak_form_residual.calls", "count"),
    ("godunov.step.calls", "count"),
    ("godunov.ghost_solve.calls", "count"),
    ("godunov.l1_error.calls", "count"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
)

TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile that leaves at least 10 of n samples beyond it."""
    best = None
    for p in TAIL_LADDER:
        # in tenths of a percent, so the comparison is exact integer arithmetic
        if n * (1000 - round(10 * p)) >= TAIL_MIN_BEYOND * 1000:
            best = p
    return best


def op_tail(latencies) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it); the maximum when n < 20."""
    lat = np.asarray(latencies, dtype=float)
    p = tail_percentile(lat.size)
    if p is None:
        p = 100.0
    value = float(np.percentile(lat, p))
    return value, p, int(np.sum(lat > value))


def error_rate(log) -> float:
    """Failed ops (raised, unexpected exit, or wrong output) / attempted ops."""
    return sum(1 for r in log if r["error"] or not r["matched"]) / len(log)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def summarize(log, points, run_p5=None) -> tuple[dict, dict]:
    """End-to-end metrics (all but setup_s) and their provenance from an op log.

    The log holds whole rounds.  With the host probe's run-wide 5th
    percentile `run_p5`, each latency is divided by its op's host factor:
    the op's own probe p25, or else `run_p5`, over REF_S (see probe.py).
    Without it, latencies stay raw.
    """
    ok = [r for r in log if not r["error"] and r["matched"]]
    if not ok:
        raise ValueError("no operation succeeded")
    ok_lat = [r["latency"] for r in ok]
    by_slot: dict[int, list[float]] = {}
    by_slot_norm: dict[int, list[float]] = {}
    for r in log:
        p = (r["probe_p25"] or run_p5) if run_p5 else REF_S
        by_slot.setdefault(r["slot"], []).append(r["latency"])
        by_slot_norm.setdefault(r["slot"], []).append(r["latency"] * REF_S / p)
    wall = sum(r["latency"] for r in log)
    rounds = len(log) / len(by_slot)
    tail, pct, beyond = op_tail(ok_lat)
    # Best of the run's repeats per op: on a shared host slower repeats are
    # interference, and the fastest is the steadiest estimate across runs.
    raw_round = sum(min(v) for v in by_slot.values())
    round_s = sum(min(v) for v in by_slot_norm.values())
    metrics = {
        "round_s": round_s,
        "points_per_s": sum(points[r["slot"]] for r in ok) / rounds / round_s,
        "ok_rate": len(ok) / len(log),
    }
    prov = {
        "op_p50_ms": 1e3 * statistics.median(ok_lat),
        "op_tail_ms": 1e3 * tail,
        "tail_percentile": pct,
        "tail_samples": len(ok_lat),
        "tail_samples_beyond": beyond,
        "error_rate": error_rate(log),
        "timed_wall_s": wall,
        "raw_round_s": raw_round,
        "host_factor": (run_p5 or REF_S) / REF_S,
        "ops_with_own_factor": sum(1 for r in log if r["probe_p25"]),
    }
    return metrics, prov


def layer_report(tracer, rounds, base_wall) -> dict:
    """Per-layer counts (first traced round) and times (median over rounds)."""
    summaries = tracer.summaries([r["spans"] for r in rounds])
    per_round = []
    for summary, r in zip(summaries, rounds):
        merged = dict(summary)
        merged.update(r["counts"])
        per_round.append(merged)
    keys = sorted(set().union(*per_round))
    out = {}
    for k in keys:
        vals = [pr.get(k, 0) for pr in per_round]
        out[k] = statistics.median(vals) if k.endswith("_s") else vals[0]
    counts_repeat = all(
        {k: v for k, v in pr.items() if not k.endswith("_s")}
        == {k: v for k, v in per_round[0].items() if not k.endswith("_s")}
        for pr in per_round
    )
    solve_calls = out.get("core.solve_monotone_array.calls", 0)
    out["core.solve_monotone_array.sweeps_per_call"] = (
        out.get("core.solve_monotone_array.sweeps", 0) / solve_calls if solve_calls else 0.0
    )
    phi_calls = out.get("wave_potential.phi.calls", 0)
    out["wave_potential.phi.ms_per_call"] = (
        1e3 * out["wave_potential.phi.total_s"] / phi_calls if phi_calls else None
    )
    steps = out.get("godunov.step.calls", 0)
    out["godunov.step.us_per_step"] = 1e6 * out["godunov.step.total_s"] / steps if steps else None
    out["trace.overhead_ratio"] = statistics.median(r["wall"] for r in rounds) / base_wall
    out["trace.round_walls_s"] = [base_wall] + [r["wall"] for r in rounds]
    out["trace.rounds"] = len(rounds)
    out["trace.counts_repeat"] = counts_repeat
    return out


def per_layer_metrics(layers: dict) -> dict:
    """The PER_LAYER subset of a layer report; a layer that never ran reads 0."""
    return {name: {"value": layers.get(name, 0), "unit": unit} for name, unit in PER_LAYER}
