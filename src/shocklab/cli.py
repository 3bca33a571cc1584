"""Command-line surface: field evaluation, region maps, boundary tables,
grid export, shock traces, the finite-volume oracle, and the check suites.

Tables are CSV (header row, comma separator, `NA` marker for cells outside
a variant's domain); `eval` prints key=value lines; `verify` prints a JSON
report.  Exit codes: 0 success / all checks passed, 1 failed check or
internal error, 2 usage or domain error.  All configuration is by flags;
identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .core import (
    DomainError,
    Point,
    ShockLabError,
    SolutionVariant,
)
from .characteristics import (
    BoundaryCurve,
    RegionTag,
    boundary_x,
    classify,
    classify_array,
    on_shock,
    outgoing_char,
)
from .burgers import (
    dpsidx_classical,
    psi,
    psi_classical_array,
    psi_weak_array,
    shock_trace,
)
from .geometry import metric, null_frame
from .verification import SUITE_NAMES, lax_gaps, run_suite
from .wave_potential import dphidt_closed, dphidx_closed, phi, phi_array
from . import godunov as fv

_CURVES = {
    "B": BoundaryCurve.SINGULAR_BOUNDARY,
    "C": BoundaryCurve.CAUCHY_HORIZON,
    "K": BoundaryCurve.SHOCK,
}

_EVAL_FIELDS = ("psi", "dpsi_dx", "phi", "dphi_dx", "dphi_dt", "region", "metric", "frame")


def _fmt(v: float) -> str:
    return repr(float(v))


def _parse_range(text: str) -> tuple[float, float]:
    """(lo, hi) of "lo:hi"; DomainError unless both are finite numbers."""
    try:
        lo, hi = map(float, text.split(":"))
    except ValueError:
        lo = hi = math.nan
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"range must be two finite numbers lo:hi, got {text!r}")
    return lo, hi


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_eval(args) -> int:
    p = Point(args.t, args.x)
    variant = SolutionVariant(args.variant)
    fields = [f.strip() for f in args.fields.split(",") if f.strip()]
    for f in fields:
        if f not in _EVAL_FIELDS:
            raise DomainError(f"unknown field {f!r}; choose from {_EVAL_FIELDS}")
    out = []
    for f in fields:
        if f == "psi":
            out.append(f"psi={_fmt(psi(p, variant))}")
        elif f == "dpsi_dx":
            if variant is not SolutionVariant.CLASSICAL:
                raise DomainError("dpsi_dx is provided for the classical variant")
            out.append(f"dpsi_dx={_fmt(dpsidx_classical(p))}")
        elif f == "phi":
            out.append(f"phi={_fmt(phi(p, variant))}")
        elif f == "dphi_dx":
            out.append(f"dphi_dx={_fmt(dphidx_closed(p, variant))}")
        elif f == "dphi_dt":
            out.append(f"dphi_dt={_fmt(dphidt_closed(p, variant))}")
        elif f == "region":
            out.append(f"region={classify(p).value}")
        elif f == "metric":
            g = metric(psi(p, variant))
            out.append(f"metric_tt={_fmt(g.gtt)}")
            out.append(f"metric_tx={_fmt(g.gtx)}")
            out.append(f"metric_xx={_fmt(g.gxx)}")
        elif f == "frame":
            fr = null_frame(psi(p, variant))
            out.append(f"L_t={_fmt(fr.L.dt)}")
            out.append(f"L_x={_fmt(fr.L.dx)}")
            out.append(f"Lbar_t={_fmt(fr.Lbar.dt)}")
            out.append(f"Lbar_x={_fmt(fr.Lbar.dx)}")
    print("\n".join(out))
    return 0


def _cmd_classify(args) -> int:
    print(f"region={classify(Point(args.t, args.x)).value}")
    return 0


def _cmd_boundary(args) -> int:
    t_min, t_max = _parse_range(args.t_range)
    if not (1.0 <= t_min < t_max) or args.n < 2:
        raise DomainError("need 1 <= t_min < t_max and n >= 2")
    curve = _CURVES[args.curve]
    print("t,x")
    for t in np.linspace(t_min, t_max, args.n):
        print(f"{_fmt(t)},{_fmt(boundary_x(curve, float(t)))}")
    return 0


def _cmd_shock(args) -> int:
    t_min, t_max = _parse_range(args.t_range)
    if not (1.0 < t_min < t_max) or args.n < 2:
        raise DomainError("need 1 < t_min < t_max and n >= 2")
    print("t,x,left_value,right_value,speed,lax_lower,lax_upper")
    for t in np.linspace(t_min, t_max, args.n):
        tr = shock_trace(float(t))
        lo, up = lax_gaps(float(t))
        print(
            f"{_fmt(t)},{_fmt(2.0 * t)},{_fmt(tr.left_value)},{_fmt(tr.right_value)},"
            f"{_fmt(tr.speed)},{_fmt(lo)},{_fmt(up)}"
        )
    return 0


def _cmd_grid(args) -> int:
    t_min, t_max = _parse_range(args.t_range)
    x_min, x_max = _parse_range(args.x_range)
    if args.nt < 2 or args.nx < 2 or t_min < 0 or t_min >= t_max or x_min >= x_max:
        raise DomainError("invalid grid ranges or counts")
    variant = SolutionVariant(args.variant)
    ts = np.linspace(t_min, t_max, args.nt)
    xs = np.linspace(x_min, x_max, args.nx)
    cells = _grid_cells(ts, xs, args.field, variant)
    print("t,x,value")
    x_txt = [_fmt(x) for x in xs]
    nx = len(xs)
    print("\n".join(
        f"{t_txt},{x},{cell}"
        for i, t_txt in enumerate(_fmt(t) for t in ts)
        for x, cell in zip(x_txt, cells[i * nx:(i + 1) * nx])
    ))
    if args.characteristics > 0:
        print("curve,foot,t,x")
        feet = np.linspace(x_min, x_max, args.characteristics)
        for x0 in feet:
            for t in ts:
                p = outgoing_char(float(x0), float(t))
                print(f"outgoing,{_fmt(x0)},{_fmt(p.t)},{_fmt(p.x)}")
            for t in ts:
                # ingoing lines have fixed slope -2 through (t_min, x0)
                print(f"ingoing,{_fmt(x0)},{_fmt(t)},{_fmt(x0 - 2.0 * (t - t_min))}")
    return 0


def _grid_cells(ts, xs, field: str, variant: SolutionVariant) -> list[str]:
    """Row-major cells of a region, psi or phi grid, `NA` where the field is undefined.

    Both classical fields are undefined in the weak-only region; weak psi
    on the shock, where psi_weak raises OnShockError.  Weak phi is defined
    everywhere.
    """
    tt, xx = (a.ravel() for a in np.meshgrid(ts, xs, indexing="ij"))
    if field == "region":
        return [tag.value for tag in classify_array(tt, xx)]
    if variant is SolutionVariant.CLASSICAL:
        na = classify_array(tt, xx) == RegionTag.WEAK_ONLY
    else:
        na = (field == "psi") & on_shock(tt, xx)
    t_def, x_def = tt[~na], xx[~na]
    if field == "phi":
        values = phi_array(t_def, x_def, variant)
    elif variant is SolutionVariant.CLASSICAL:
        values = psi_classical_array(t_def, x_def)
    else:
        values = psi_weak_array(t_def, x_def)
    cells = np.full(tt.size, "NA", dtype=object)
    cells[~na] = list(map(repr, values.tolist()))  # Python floats: repr is _fmt
    return cells.tolist()


def _cmd_godunov(args) -> int:
    x_min, x_max = _parse_range(args.x_range)
    state = fv.initial_state(args.n_cells, x_min, x_max, args.cfl)
    state = fv.solve(args.t_end, state)
    text = fv.state_to_csv(state)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.compare:
        print(f"l1_error={_fmt(fv.l1_error(state))}")
    return 0


def _cmd_verify(args) -> int:
    report = run_suite(args.suite, args.seed)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0 if report.all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="shocklab",
        description="Numerical laboratory for a shock-forming quasilinear wave model",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("eval", help="evaluate fields at one event")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--variant", choices=["classical", "weak"], default="weak")
    p.add_argument("--fields", default="psi,region")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("classify", help="region tag of one event")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("boundary", help="sample a boundary curve as CSV")
    p.add_argument("--curve", choices=list(_CURVES), required=True)
    p.add_argument("--t-range", required=True, help="t_min:t_max")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_boundary)

    p = sub.add_parser("shock", help="shock trace and admissibility gaps as CSV")
    p.add_argument("--t-range", required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_shock)

    p = sub.add_parser("grid", help="field or region values on a grid as CSV")
    p.add_argument("--t-range", required=True)
    p.add_argument("--x-range", required=True)
    p.add_argument("--nt", type=int, required=True)
    p.add_argument("--nx", type=int, required=True)
    p.add_argument("--variant", choices=["classical", "weak"], default="weak")
    p.add_argument("--field", choices=["psi", "phi", "region"], default="psi")
    p.add_argument("--characteristics", type=int, default=0,
                   help="emit this many outgoing/ingoing curves after the grid")
    p.set_defaults(func=_cmd_grid)

    p = sub.add_parser("godunov", help="run the finite-volume oracle, emit CSV")
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--n-cells", type=int, default=4000)
    p.add_argument("--x-range", default="-10:10")
    p.add_argument("--cfl", type=float, default=0.9)
    p.add_argument("--output", default=None)
    p.add_argument("--compare", action="store_true",
                   help="also print the L1 distance to the exact entropy field")
    p.set_defaults(func=_cmd_godunov)

    p = sub.add_parser("verify", help="run check suites, print a JSON report")
    p.add_argument("--suite", choices=("all",) + SUITE_NAMES, default="all")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ShockLabError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
