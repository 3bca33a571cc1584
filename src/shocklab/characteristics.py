"""Outgoing characteristics, foot maps, boundary curves, and the region map.

Straight characteristics emanate from the initial slice: the curve with
foot x0 is (t, x0 + t*(2 + psi0(x0))).  Characteristics from x0 > 0 focus
and blow up at t = 1 + x0^2 along the singular boundary B, those from
x0 <= 0 run into the null line C: x = 4 - 2t (the Cauchy horizon), and in
the entropy solution the ones from +x0 and -x0 annihilate pairwise on the
shock K: x = 2t.  All three curves meet at the crease (1, 2).

Inverting a characteristic through a point (t, x) means solving

    u - t*arctan(u) = x - 2t

for the foot u.  The residual is monotone on each half-axis and, past the
focusing time, on each branch |u| >= sqrt(t-1), so every foot map below is
a bracketed root find.  All of them go through one batched Newton solve
(_solve_feet) and all region tags through one set of rules
(_region_codes); a scalar foot map or classify is a size-1 array call, so
scalar and array answers agree bit for bit.  The maps accept the points
Point accepts (core._check_points) and share one shock band (on_shock).
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .core import (
    GEOM_TOL,
    DomainError,
    MaxIterExceeded,
    OnShockError,
    OutsideDomain,
    Point,
    _check_points,
    _raise_at,
    psi0,
)

__all__ = [
    "RegionTag",
    "BoundaryCurve",
    "outgoing_char",
    "blowup_time",
    "shock_arrival_time",
    "foot_classical",
    "foot_weak",
    "foot_weak_array",
    "foot_classical_array",
    "shock_feet",
    "boundary_x",
    "boundary_x_deriv",
    "on_shock",
    "classify",
    "classify_array",
]

_HALF_PI = math.pi / 2.0


class RegionTag(enum.Enum):
    """Where an event sits relative to the solution domains and boundaries."""

    OMEGA_A = "OmegaA"                    # both solutions defined and equal
    WEDGE = "Wedge"                       # both defined, weak > classical
    WEAK_ONLY = "WeakOnly"                # beyond the classical domain
    ON_SHOCK = "OnShock"
    ON_SINGULAR_BOUNDARY = "OnSingularBoundary"
    ON_CAUCHY_HORIZON = "OnCauchyHorizon"
    ON_CREASE = "OnCrease"
    INITIAL_SLICE = "InitialSlice"


class BoundaryCurve(enum.Enum):
    SINGULAR_BOUNDARY = "B"
    CAUCHY_HORIZON = "C"
    SHOCK = "K"


# ---------------------------------------------------------------------------
# Forward map and termination times
# ---------------------------------------------------------------------------

def outgoing_char(x0: float, t: float) -> Point:
    """Point reached at time t by the characteristic with foot x0."""
    return Point(t, x0 + t * (2.0 + float(psi0(x0))))


def blowup_time(x0: float) -> float:
    """Focusing time 1 + x0^2 of the characteristic from x0 > 0.

    Only feet x0 > 0 reach the singular boundary; characteristics from
    x0 <= 0 leave the classical domain through the Cauchy horizon first.
    """
    if x0 <= 0.0:
        raise DomainError(f"blowup time defined for x0 > 0, got {x0}")
    return 1.0 + x0 * x0


def shock_arrival_time(x0: float) -> float:
    """Time x0/arctan(x0) at which the characteristic from x0 != 0 meets the shock.

    Even in x0 and always > 1; the x0 = 0 characteristic instead terminates
    at the crease at t = 1.
    """
    if x0 == 0.0:
        raise DomainError("the x0 = 0 characteristic terminates at the crease")
    return x0 / math.atan(x0)


# ---------------------------------------------------------------------------
# Boundary curves
# ---------------------------------------------------------------------------

def boundary_x(kind: BoundaryCurve, t: float) -> float:
    """Space coordinate of the boundary curve `kind` at time t >= 1."""
    if t < 1.0:
        raise DomainError(f"boundary curves are defined for t >= 1, got t = {t}")
    if kind is BoundaryCurve.CAUCHY_HORIZON:
        return 4.0 - 2.0 * t
    if kind is BoundaryCurve.SHOCK:
        return 2.0 * t
    z = math.sqrt(t - 1.0)
    return (2.0 - math.atan(z)) * t + z


def boundary_x_deriv(kind: BoundaryCurve, t: float) -> float:
    """Analytic slope dx/dt of the boundary curve at time t > 1."""
    if t < 1.0:
        raise DomainError(f"boundary curves are defined for t >= 1, got t = {t}")
    if kind is BoundaryCurve.CAUCHY_HORIZON:
        return -2.0
    if kind is BoundaryCurve.SHOCK:
        return 2.0
    return 2.0 - math.atan(math.sqrt(t - 1.0))


# ---------------------------------------------------------------------------
# Region classification
# ---------------------------------------------------------------------------

def on_shock(t, x):
    """Whether (t, x) lies in the GEOM_TOL band around the shock K: x = 2t, t > 1.

    The package's one test for "on K"; t and x broadcast.
    """
    return (t > 1.0) & (np.abs(x - 2.0 * t) <= GEOM_TOL)


# Region tags by precedence: where several rules hold, the first wins.
_TAG_ORDER = (
    RegionTag.INITIAL_SLICE,
    RegionTag.ON_CREASE,
    RegionTag.ON_SHOCK,
    RegionTag.ON_SINGULAR_BOUNDARY,
    RegionTag.ON_CAUCHY_HORIZON,
    RegionTag.OMEGA_A,
    RegionTag.WEDGE,
    RegionTag.WEAK_ONLY,
)
_TAG_OBJECTS = np.array(_TAG_ORDER, dtype=object)
_INITIAL, _CREASE, _SHOCK, _ON_B, _ON_C, _OMEGA_A, _WEDGE, _WEAK_ONLY = range(len(_TAG_ORDER))


def _region_codes(t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Index into _TAG_ORDER of each point's tag: the region rules of
    classify, classify_array and the classical foot map.

    Rules are applied from the last to the first, so the first that holds
    wins.  Past the crease a point off the curves and outside Omega_A is
    weak-only left of B and in the wedge right of it: x >= 2t outside
    Omega_A means x == 2t, which the shock band already takes.
    """
    _check_points(t, x)
    post = t > 1.0
    z = np.sqrt(np.maximum(t - 1.0, 0.0))
    xb = (2.0 - np.arctan(z)) * t + z
    codes = np.where(x < xb, _WEAK_ONLY, _WEDGE)
    codes[t < np.maximum(0.5 * x, 2.0 - 0.5 * x)] = _OMEGA_A
    codes[post & (np.abs(x - (4.0 - 2.0 * t)) <= GEOM_TOL)] = _ON_C
    codes[post & (np.abs(x - xb) <= GEOM_TOL)] = _ON_B
    codes[on_shock(t, x)] = _SHOCK
    codes[(np.abs(t - 1.0) <= GEOM_TOL) & (np.abs(x - 2.0) <= GEOM_TOL)] = _CREASE
    codes[t <= GEOM_TOL] = _INITIAL
    return codes


def classify(p: Point) -> RegionTag:
    """Unique region tag of p; on-curve tags win within GEOM_TOL."""
    return _TAG_ORDER[int(_region_codes(np.asarray(p.t), np.asarray(p.x)))]


def classify_array(t, x) -> np.ndarray:
    """Region tags (an object array of RegionTag) of arrays of points.

    Applies the rules and GEOM_TOL bands of classify to every point of the
    broadcast arrays t and x at once; classify is its size-1 case.
    """
    t, x = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(x, dtype=float))
    codes = _region_codes(t, x)
    # index the flat codes: a 0-d index would return a bare RegionTag
    return _TAG_OBJECTS[codes.ravel()].reshape(codes.shape)


# ---------------------------------------------------------------------------
# Foot maps (characteristic inversion)
# ---------------------------------------------------------------------------

# Relative rounding allowance of the residual at the branch point, whose
# error is set by forming d = x - 2t.
_ROUNDING = 4.0 * np.finfo(float).eps


def _bracket(t, d, right):
    """Bracket of the foot on the right family (u >= sqrt(t-1)) or the left one.

    Up to the crease sqrt(t-1) reads as 0, and the foot on the line x = 2t
    is exactly 0.
    """
    z = np.sqrt(np.maximum(t - 1.0, 0.0))
    flat = (d == 0.0) & (t <= 1.0)
    lo = np.where(flat, 0.0, np.where(right, z, d - t * _HALF_PI))
    hi = np.where(flat, 0.0, np.where(right, d + t * _HALF_PI, -z))
    return lo, hi


# Points per block of the batched solve, which bounds its working arrays.
_BLOCK = 8192
# Relative step below which a Newton iterate counts as converged: a few ulp.
_STEP_TOL = 1e-14
# Newton sweeps before a block gives up with MaxIterExceeded.
_MAX_SWEEPS = 160


def _solve_feet(t, d, lo, hi):
    """Roots of u - t*arctan(u) = d, one per bracket [lo, hi], by batched Newton.

    Each bracket holds one sign change of the increasing residual.  Newton
    starts on its convex side (hi where lo >= 0, lo elsewhere: the
    curvature has the sign of u), so the iterates approach the root
    monotonically with no bisection, also at a double root, where a
    residual test would stop far from it.  Steps are clipped to the
    bracket.  A point stops once rounding makes its residual change sign,
    vanish or stop shrinking, or once its step is at most
    _STEP_TOL*(1 + |u|); it keeps the iterate with the smaller residual and
    leaves the active set.  Large inputs are solved in blocks of _BLOCK
    points; points with lo == hi are returned as given.  t, d, lo and hi
    are float arrays of one shape: the callers have broadcast them.

    Raises MaxIterExceeded after _MAX_SWEEPS sweeps, naming the active point
    (t, d) with the largest residual, its iterate, residual and bracket.
    """
    shape = lo.shape
    t, d, lo, hi = t.ravel(), d.ravel(), lo.ravel(), hi.ravel()
    out = np.empty(lo.size)
    for first in range(0, lo.size, _BLOCK):
        blk = slice(first, first + _BLOCK)
        out[blk] = _solve_block(t[blk], d[blk], lo[blk], hi[blk])
    return out.reshape(shape)


def _solve_block(t, d, lo, hi):
    u = np.where(lo >= 0.0, hi, lo)
    out = np.empty(u.size)
    pos = np.arange(u.size)          # block positions of the active points
    r = u - t * np.arctan(u) - d
    best, done = u, (r == 0.0) | (lo >= hi)
    with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
        for sweep in range(_MAX_SWEEPS + 1):
            if done.any():
                out[pos[done]] = best[done]
                live = ~done
                pos, t, d, u, r, lo, hi = pos[live], t[live], d[live], u[live], r[live], lo[live], hi[live]
            if pos.size == 0:
                return out
            if sweep == _MAX_SWEEPS:
                break
            un = np.minimum(np.maximum(u - r / (1.0 - t / (1.0 + u * u)), lo), hi)
            rn = un - t * np.arctan(un) - d
            better = np.abs(rn) < np.abs(r)
            done = ~better | (rn * r <= 0.0) | (np.abs(un - u) <= _STEP_TOL * (1.0 + np.abs(un)))
            best = np.where(better, un, u)
            u, r = un, rn
    i = int(np.argmax(np.abs(r)))
    raise MaxIterExceeded(
        f"batched root solve: {pos.size} points unconverged after {_MAX_SWEEPS} sweeps; "
        f"worst point (t, d) = ({float(t[i])!r}, {float(d[i])!r}): u = {float(u[i])!r}, "
        f"residual {float(r[i]):.3e}, bracket [{float(lo[i])!r}, {float(hi[i])!r}]"
    )


def foot_weak_array(t, x) -> np.ndarray:
    """Entropy-solution feet for arrays of points; shock-side chosen by sign(x - 2t)."""
    t, x = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(x, dtype=float))
    _check_points(t, x)
    d = x - 2.0 * t
    lo, hi = _bracket(t, d, (d > 0.0) | ((t > 1.0) & (d == 0.0)))
    return _solve_feet(t, d, lo, hi)


def foot_classical_array(t, x) -> np.ndarray:
    """Classical feet for arrays of points in cl(Omega_C).

    Membership and branch follow the region tags of classify_array: points
    tagged WeakOnly raise OutsideDomain; past the crease the left family
    serves points on the Cauchy horizon and in Omega_A left of the shock,
    the right family the rest.  Right-family points at or left of the
    singular boundary, to within the rounding of x - 2t, get the branch
    point sqrt(t-1) exactly instead of a solve at its double root.
    """
    t, x = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(x, dtype=float))
    codes = _region_codes(t, x)
    _raise_at(codes == _WEAK_ONLY, OutsideDomain, "{p} is outside the classical domain", t, x)
    d = x - 2.0 * t
    post = t > 1.0
    left = (codes == _ON_C) | ((codes == _OMEGA_A) & (x < 2.0 * t))
    right = np.where(post, ~left, d > 0.0)
    lo, hi = _bracket(t, d, right)
    z = np.sqrt(np.maximum(t - 1.0, 0.0))
    snap = post & right & (z - t * np.arctan(z) - d >= -_ROUNDING * (np.abs(x) + 2.0 * t))
    return _solve_feet(t, d, np.where(snap, z, lo), np.where(snap, z, hi))


def foot_weak(p: Point) -> float:
    """Foot of the entropy-solution characteristic through p.

    The foot is positive iff p lies right of the shock line x = 2t and
    negative iff left of it; on the shock itself (t > 1) the value is
    two-sided and an OnShockError is raised.
    """
    t, x = p.t, p.x
    if on_shock(t, x):
        raise OnShockError(f"({t}, {x}) is on the shock; use shock_trace for the limits")
    return float(foot_weak_array(t, x))


def foot_classical(p: Point) -> float:
    """Foot of the unique classical characteristic through p in cl(Omega_C).

    Raises OutsideDomain when p lies strictly beyond the singular boundary
    and Cauchy horizon (the weak-only region).
    """
    return float(foot_classical_array(p.t, p.x))


def shock_feet(t: float) -> tuple[float, float]:
    """Feet (-x0, +x0) of the two characteristics meeting the shock at time t > 1.

    x0 > 0 solves x0 = t*arctan(x0): it is the right-family foot of the
    shock point (t, 2t), bracketed by sqrt(t-1) and t*pi/2.
    """
    if t <= 1.0:
        raise DomainError(f"the shock exists for t > 1, got t = {t}")
    x0 = float(foot_weak_array(t, 2.0 * t))
    return -x0, x0
