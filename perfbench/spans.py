"""Outside-in tracing of shocklab's layers, installed from the benchmark.

The package binds names at import (``from .core import solve_monotone_array``),
so each public function is wrapped in the namespace of every module that
calls it; nothing under ``src/`` is edited.  A wrapper records one span per
call (name, start, end, parent span, op id) in flat in-memory arrays and
counts work through the callbacks the layers hand to each other: Newton
sweeps via ``p_func``, integrand calls via ``f_vec``, scalar residual
evaluations via ``f``.

Self time of a span is its duration minus the part of it that its child
spans cover; a layer's total time counts only spans not nested in a span of
the same layer.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict

import numpy as np

# layer name -> [(module, attribute), ...]: every binding of the layer's
# public functions in a module that calls them (its own module included).
BINDINGS = {
    "core.solve_monotone_array": [("characteristics", "solve_monotone_array"), ("core", "solve_monotone_array")],
    "core.find_root": [("characteristics", "find_root")],
    "core.adaptive_quad": [("wave_potential", "adaptive_quad")],
    "characteristics.classify": [
        (m, "classify") for m in ("characteristics", "wave_potential", "verification", "cli")
    ],
    "characteristics.foot_scalar": [
        ("burgers", "foot_weak"), ("burgers", "foot_classical"), ("burgers", "shock_feet"),
        ("verification", "shock_feet"),
    ],
    "characteristics.foot_array": [("burgers", "foot_weak_array"), ("burgers", "foot_classical_array")],
    "burgers.field_scalar": [
        (m, f) for m in ("wave_potential", "verification", "cli", "geometry")
        for f in ("psi_weak", "psi_classical")
    ],
    "burgers.field_array": [
        (m, f) for m in ("wave_potential", "verification", "geometry")
        for f in ("psi_weak_array", "psi_classical_array")
    ],
    "wave_potential.phi": [(m, "phi") for m in ("wave_potential", "verification", "cli")],
    "wave_potential.closed_form": [
        ("wave_potential", "dphidx_closed"), ("cli", "dphidx_closed"), ("cli", "dphidt_closed"),
        ("verification", "horizon_jump_probe"),
    ],
    "geometry": [
        ("verification", f) for f in (
            "bubble_witness", "causal_past_contains", "timelike_past_contains",
            "shock_tangent_norms", "tangency_residual_B", "horizon_null_check",
        )
    ] + [("cli", "metric"), ("cli", "null_frame")],
    "verification.weak_form_residual": [("verification", "weak_form_residual")],
    "godunov.step": [("godunov", "step")],
    "godunov.solve": [("godunov", "solve")],
    "godunov.l1_error": [("godunov", "l1_error")],
}

# Work counted through the callback handed to a layer: (argument position,
# keyword name, counter suffix, node counter suffix or None).
CALLBACKS = {
    "core.solve_monotone_array": (0, "p_func", "sweeps", None),
    "core.find_root": (0, "f", "f_evals", None),
    "core.adaptive_quad": (0, "f_vec", "integrand_calls", "nodes"),
}


class Tracer:
    """In-memory span recorder and work counters for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self.nested = array("b")
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._open_names: dict[str, int] = defaultdict(int)
        self.op_id = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(nid)
        self.op.append(self.op_id)
        self.nested.append(1 if self._open_names[name] else 0)
        self.end.append(0.0)
        self._open_names[name] += 1
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._open_names[self.names[self.name[idx]]] -= 1

    def current(self) -> str | None:
        return self.names[self.name[self._stack[-1]]] if self._stack else None

    # -- wrappers ----------------------------------------------------------

    def wrap(self, fn, name, callback=None, span_name=None):
        """fn with a span per call; `span_name(args)` may pick the name per call."""
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = span_name(args) if span_name else name
            if callback is not None:
                args, kwargs = self._count_callback(label, callback, args, kwargs)
            idx = self.open(label)
            try:
                return fn(*args, **kwargs)
            except Exception:
                counts[label + ".failed"] += 1
                raise
            finally:
                self.close(idx)

        return traced

    def _count_callback(self, label, callback, args, kwargs):
        pos, key, counter, node_counter = callback
        counts = self.counts
        if label == "core.solve_monotone_array":
            lo = args[2] if len(args) > 2 else kwargs.get("lo")
            counts[label + ".points"] += int(np.size(lo))
        inner = args[pos] if len(args) > pos else kwargs[key]

        def counted(v, *a, **k):
            counts[f"{label}.{counter}"] += 1
            if node_counter is not None:
                counts[f"{label}.{node_counter}"] += int(np.size(v))
            return inner(v, *a, **k)

        if len(args) > pos:
            args = args[:pos] + (counted,) + args[pos + 1:]
        else:
            kwargs = dict(kwargs, **{key: counted})
        return args, kwargs

    def _patch(self, module, attr, wrapper):
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self, package) -> None:
        """Wrap every binding in BINDINGS plus the suite runner and ghost solves."""
        mods = {m: getattr(package, m) for m in (
            "core", "characteristics", "burgers", "wave_potential", "geometry",
            "verification", "godunov", "cli",
        )}
        for layer, bindings in BINDINGS.items():
            for mod, attr in bindings:
                if hasattr(mods[mod], attr):
                    fn = getattr(mods[mod], attr)
                    self._patch(mods[mod], attr, self.wrap(fn, layer, CALLBACKS.get(layer)))
        cli = mods["cli"]
        if hasattr(cli, "run_suite"):
            self._patch(cli, "run_suite", self.wrap(
                cli.run_suite, "verification.suite",
                span_name=lambda a: f"verification.suite.{a[0] if a else 'all'}"))
        godunov = mods["godunov"]
        if hasattr(godunov, "psi_weak_array"):
            # the field arrays that step() asks for are its ghost-cell solves
            self._patch(godunov, "psi_weak_array", self.wrap(
                godunov.psi_weak_array, "burgers.field_array",
                span_name=lambda a: "godunov.ghost_solve" if self.current() == "godunov.step"
                else "burgers.field_array"))

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    # -- summaries -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "name": np.frombuffer(self.name, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
            "nested": np.frombuffer(self.nested, dtype=np.int8).copy(),
        }

    def summaries(self, ranges) -> list[dict[str, float]]:
        """Per-layer calls, total_s and self_s for each (first, stop) span range."""
        a = self.arrays()
        selfs = self_times(a["start"], a["end"], a["parent"])
        dur = a["end"] - a["start"]
        out = []
        for first, stop in ranges:
            sl = slice(first, stop)
            names, nested = a["name"][sl], a["nested"][sl]
            summary: dict[str, float] = {}
            for nid, name in enumerate(self.names):
                mine = names == nid
                if mine.any():
                    summary[f"{name}.calls"] = int(mine.sum())
                    summary[f"{name}.total_s"] = float(dur[sl][mine & (nested == 0)].sum())
                    summary[f"{name}.self_s"] = float(selfs[sl][mine].sum())
            out.append(summary)
        return out


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the union of its children's intervals.

    Children are clipped to the parent's interval; overlapping children
    count once.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent)
    out = end - start
    has_parent = np.nonzero(parent >= 0)[0]
    if has_parent.size == 0:
        return out
    order = has_parent[np.lexsort((start[has_parent], parent[has_parent]))]
    groups = np.split(order, np.nonzero(np.diff(parent[order]))[0] + 1)
    for kids in groups:
        p = int(parent[kids[0]])
        lo_p, hi_p = start[p], end[p]
        covered, cur_lo, cur_hi = 0.0, None, None
        for k in kids:
            a, b = max(start[k], lo_p), min(end[k], hi_p)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[p] -= covered
    return out
