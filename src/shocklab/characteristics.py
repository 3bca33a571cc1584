"""Outgoing characteristics, foot maps, boundary curves, and the region map.

Straight characteristics emanate from the initial slice: the curve with
foot x0 is (t, x0 + t*(2 + psi0(x0))), written once (_char_x).
Characteristics from x0 > 0 focus and blow up at t = 1 + x0^2 along the
singular boundary B, x_B(t) = _char_x(sqrt(t-1), t), those from x0 <= 0
run into the null line C: x = 4 - 2t (the Cauchy horizon), and in the
entropy solution the ones from +x0 and -x0 annihilate pairwise on the
shock K: x = 2t.  All three curves meet at the crease (1, 2).  The curve
maps take a float or an array of times; the float call is the size-1 case.

Inverting a characteristic through a point (t, x) means solving

    u - t*arctan(u) = x - 2t

for the foot u.  The residual is monotone on each half-axis and, past the
focusing time, on each branch |u| >= sqrt(t-1), so every foot map below is
a bracketed root find.  All of them go through one batched Newton solve
(_solve_block, per block, started by _bracket) and all region tags through
one set of rules (_region_codes); a scalar foot map or classify is a size-1
array call, so scalar and array answers agree bit for bit.  The maps accept
the points Point accepts (core._check_points) and share one shock band.
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
    _MODELLED_RANGE,
    _check_points,
    _check_times,
    _float_call,
    _raise_at,
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

def _char_x(x0, t):
    """x at time t of the characteristic with foot x0, x0 + t*(2 + psi0(x0)):
    the package's one form of it, for floats or broadcast arrays."""
    return _char_x_atan(x0, np.arctan(x0), t)


def _char_x_atan(x0, atan_x0, t):
    """_char_x with arctan(x0) given, for a caller that has formed it already;
    the one place the line's arithmetic is written."""
    return x0 + t * (2.0 - atan_x0)


def _focus_foot(t):
    """sqrt(max(t-1, 0)): the foot whose characteristic focuses on B at time t, 0 up to the crease."""
    return np.sqrt(np.maximum(t - 1.0, 0.0))


def _x_B(t):
    """x of B at times t >= 1, where the characteristic from sqrt(t-1) focuses; 2t before."""
    return _char_x(_focus_foot(t), t)


def outgoing_char(x0, t) -> Point:
    """Point reached at time t by the characteristic with foot x0; x0 and t
    broadcast, and floats (the size-1 case) give a Point of floats."""
    return Point(*(_float_call(a) for a in np.broadcast_arrays(t, _char_x(x0, t))))


def blowup_time(x0: float) -> float:
    """Focusing time 1 + x0^2 of the characteristic from x0 > 0.

    Only feet x0 > 0 reach the singular boundary; characteristics from
    x0 <= 0 leave the classical domain through the Cauchy horizon first.
    A non-finite x0 and one focusing past the modelled range are refused.
    """
    if not math.isfinite(x0):
        raise DomainError(f"non-finite foot x0 = {x0}")
    if x0 <= 0.0:
        raise DomainError(f"blowup time defined for x0 > 0, got {x0}")
    t = 1.0 + x0 * x0
    if t > _MODELLED_RANGE:
        raise DomainError(f"blowup time of x0 = {x0} is beyond the modelled range t <= {_MODELLED_RANGE:g}")
    return t


def shock_arrival_time(x0: float) -> float:
    """Time x0/arctan(x0) at which the characteristic from x0 != 0 meets the shock.

    Even in x0 and always > 1; the x0 = 0 characteristic instead terminates
    at the crease at t = 1.  A non-finite x0 and one past the modelled range
    are refused.
    """
    if not math.isfinite(x0):
        raise DomainError(f"non-finite foot x0 = {x0}")
    if x0 == 0.0:
        raise DomainError("the x0 = 0 characteristic terminates at the crease")
    # then the time, about 2|x0|/pi, is inside the modelled range too
    if abs(x0) > _MODELLED_RANGE:
        raise DomainError(f"foot x0 = {x0} is beyond the modelled range |x| <= {_MODELLED_RANGE:g}")
    return x0 / math.atan(x0)


# ---------------------------------------------------------------------------
# Boundary curves
# ---------------------------------------------------------------------------

def _boundary_times(t) -> np.ndarray:
    return _check_times(t, "boundary", lambda ts: ts < 1.0, "boundary curves are defined for t >= 1, got t = {t}")


def boundary_x(kind: BoundaryCurve, t):
    """Space coordinate of the boundary curve `kind` at times 1 <= t <= 1e150.

    t is a float or an array of times, the float call the size-1 case; the
    first non-finite time, or one outside the range, raises DomainError.
    """
    ts = _boundary_times(t)
    if kind is BoundaryCurve.SINGULAR_BOUNDARY:
        return _float_call(_x_B(ts))
    return _float_call(4.0 - 2.0 * ts if kind is BoundaryCurve.CAUCHY_HORIZON else 2.0 * ts)


def boundary_x_deriv(kind: BoundaryCurve, t):
    """Analytic slope dx/dt of the boundary curve at times t, refused as by boundary_x."""
    ts = _boundary_times(t)
    if kind is BoundaryCurve.SINGULAR_BOUNDARY:
        return _float_call(2.0 - np.arctan(_focus_foot(ts)))
    return _float_call(np.full(ts.shape, -2.0 if kind is BoundaryCurve.CAUCHY_HORIZON else 2.0))


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


def _region_codes(t: np.ndarray, x: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """Index into _TAG_ORDER of each (checked) point's tag, given x of B at
    its time (_x_B(t)): the region rules of classify, classify_array and the
    classical foot map.

    Rules are applied from the last to the first, so the first that holds
    wins.  Past the crease a point off the curves and outside Omega_A is
    weak-only left of B and in the wedge right of it: x >= 2t outside
    Omega_A means x == 2t, which the shock band already takes.  The three
    area tags, which split the points about evenly, are summed from their
    masks (_OMEGA_A, _WEDGE and _WEAK_ONLY are consecutive) rather than
    selected per point; the rare curve tags are then assigned.
    """
    post = t > 1.0
    omega = t < np.maximum(0.5 * x, 2.0 - 0.5 * x)
    # np.array keeps a 0-d pair's codes an array, which the assignments below need
    codes = np.array((x < xb) & ~omega, dtype=np.intp)
    codes += _WEDGE
    codes -= omega
    codes[post & (np.abs(x - (4.0 - 2.0 * t)) <= GEOM_TOL)] = _ON_C
    codes[post & (np.abs(x - xb) <= GEOM_TOL)] = _ON_B
    codes[on_shock(t, x)] = _SHOCK
    codes[(np.abs(t - 1.0) <= GEOM_TOL) & (np.abs(x - 2.0) <= GEOM_TOL)] = _CREASE
    codes[t <= GEOM_TOL] = _INITIAL
    return codes


def classify(p: Point) -> RegionTag:
    """Unique region tag of p; on-curve tags win within GEOM_TOL."""
    t = np.asarray(p.t)
    return _TAG_ORDER[int(_region_codes(t, np.asarray(p.x), _x_B(t)))]


def classify_array(t, x) -> np.ndarray:
    """Region tags (an object array of RegionTag) of arrays of points.

    Applies the rules and GEOM_TOL bands of classify to every point of the
    broadcast arrays t and x at once; classify is its size-1 case.
    """
    t, x = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(x, dtype=float))
    _check_points(t, x)
    codes = _region_codes(t, x, _x_B(t))
    # index the flat codes: a 0-d index would return a bare RegionTag
    return _TAG_OBJECTS[codes.ravel()].reshape(codes.shape)


# ---------------------------------------------------------------------------
# Foot maps (characteristic inversion)
# ---------------------------------------------------------------------------

# Relative rounding allowance of the residual at the branch point, whose
# error is set by forming d = x - 2t.
_ROUNDING = 4.0 * np.finfo(float).eps


def _bracket(t, d, right, z):
    """Bracket [lo, hi] of the foot on the right family (u >= z) or the left
    one (u <= -z), given the branch point z = _focus_foot(t), and Newton's
    start u0, its far end: [z, d + t*pi/2] from d + t*pi/2 on the right,
    [d - t*pi/2, -z] from d - t*pi/2 on the left.

    All three are formed by sign arithmetic, with no per-point select: with
    s = right - 1/2 the far end u0 is d + copysign(t*pi/2, s) and the near
    end copysign(z, s), and lo and hi are their minimum and maximum (the far
    end lies beyond the near one on every bracket of a point of the family).
    Up to the crease z is 0, and the foot on the line x = 2t is exactly 0:
    those rare flat points get lo = hi = u0 = 0.
    """
    s = right - 0.5
    far = d + np.copysign(t * _HALF_PI, s)
    near = np.copysign(z, s)
    lo, hi = np.minimum(near, far), np.maximum(near, far)
    flat = (d == 0.0) & (t <= 1.0)
    if flat.any():
        lo, hi, far = (np.where(flat, 0.0, a) for a in (lo, hi, far))
    return lo, hi, far


# Points per block of the batched maps: their working arrays stay in a core's
# L2 cache, and each block's fixed cost is spread over enough points.
_BLOCK = 12288
# Relative step below which a Newton iterate counts as converged: a few ulp.
_STEP_TOL = 1e-14
# Newton sweeps before a block gives up with MaxIterExceeded.
_MAX_SWEEPS = 160


def _blocked(block, *arrays):
    """Float results, in the shape of the arrays (of one shape), of
    block(out, *runs) on each run of _BLOCK points; block writes the run's
    results into out, its slice of the returned array, so no block copies."""
    out = np.empty(arrays[0].shape)
    flat_out, flat = out.reshape(-1), [a.reshape(-1) for a in arrays]
    for i in range(0, out.size, _BLOCK):
        block(flat_out[i:i + _BLOCK], *(a[i:i + _BLOCK] for a in flat))
    return out


def _solve_feet(t, d, right):
    """Feet of the points (t, d = x - 2t) on the right family where right
    holds and on the left one elsewhere, per block (_family_feet)."""
    return _blocked(_family_feet, t, d, right)


def _family_feet(out, t, d, right):
    _solve_block(out, t, d, *_bracket(t, d, right, _focus_foot(t)))


def _solve_block(out, t, d, lo, hi, u):
    """Roots of u - t*arctan(u) = d, one per bracket [lo, hi] that holds one
    sign change of the increasing residual, by batched Newton from u, the
    bracket's end on the convex side (the curvature has the sign of u).

    So the iterates approach the root monotonically with no bisection, also
    at a double root, where a residual test would stop far from it.  Steps
    are clipped to the bracket.  A point stops once rounding makes its
    residual change sign, vanish or stop shrinking, or once its step is at
    most _STEP_TOL*(1 + |u|); it keeps the iterate with the smaller
    residual, written to out once.  Points with lo == hi (== u) are returned
    as given.  Stopped points stay in the carried arrays, marked dead in a
    live mask, until at most half of them are live; only then are the
    arrays compacted.

    Raises MaxIterExceeded after _MAX_SWEEPS sweeps, naming the live point
    (t, d) with the largest residual, its iterate, residual and bracket.
    """
    r = u - t * np.arctan(u) - d
    stop = (r == 0.0) | (lo >= hi)
    if stop.any():
        out[stop] = u[stop]
    live = ~stop
    n_live = np.count_nonzero(live)
    pos = np.arange(u.size)          # block positions of the carried points
    with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
        for _ in range(_MAX_SWEEPS):
            if 2 * n_live <= pos.size:
                if n_live == 0:
                    return
                # compact by index: one flatnonzero and a take per array beats boolean gathers
                keep = np.flatnonzero(live)
                pos, t, d, u, r, lo, hi = (a.take(keep) for a in (pos, t, d, u, r, lo, hi))
                live = np.ones(n_live, dtype=bool)
            un = np.minimum(np.maximum(u - r / (1.0 - t / (1.0 + u * u)), lo), hi)
            rn = un - t * np.arctan(un) - d
            better = np.abs(rn) < np.abs(r)
            stop = np.flatnonzero(live & (~better | (rn * r <= 0.0)
                                          | (np.abs(un - u) <= _STEP_TOL * (1.0 + np.abs(un)))))
            if stop.size:
                out[pos.take(stop)] = np.where(better.take(stop), un.take(stop), u.take(stop))
                live[stop] = False
                n_live -= stop.size
            u, r = un, rn
    if n_live == 0:
        return
    keep = np.flatnonzero(live)
    i = keep[np.argmax(np.abs(r.take(keep)))]
    raise MaxIterExceeded(
        f"batched root solve: {n_live} points unconverged after {_MAX_SWEEPS} sweeps; "
        f"worst point (t, d) = ({float(t[i])!r}, {float(d[i])!r}): u = {float(u[i])!r}, "
        f"residual {float(r[i]):.3e}, bracket [{float(lo[i])!r}, {float(hi[i])!r}]"
    )


def foot_weak_array(t, x) -> np.ndarray:
    """Entropy-solution feet for arrays of points; shock-side chosen by sign(x - 2t).
    After one check of the batch the whole map runs per block (_blocked)."""
    t, x = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(x, dtype=float))
    _check_points(t, x)
    return _blocked(_weak_feet, t, x)


def _weak_feet(out, t, x):
    d = x - 2.0 * t
    _family_feet(out, t, d, (d > 0.0) | ((t > 1.0) & (d == 0.0)))


def foot_classical_array(t, x) -> np.ndarray:
    """Classical feet for arrays of points in cl(Omega_C).

    Membership and branch follow the region tags of classify_array: points
    tagged WeakOnly raise OutsideDomain; past the crease the left family
    serves points on the Cauchy horizon and in Omega_A left of the shock,
    the right family the rest.  Right-family points at or left of the
    singular boundary, to within the rounding of x - 2t, get the branch
    point sqrt(t-1) exactly instead of a solve at its double root.  After
    one check of the batch the whole map runs per block (_blocked).
    """
    t, x = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(x, dtype=float))
    _check_points(t, x)
    return _blocked(_classical_feet, t, x)


def _classical_feet(out, t, x):
    # the branch point and its arctan, formed once for B, the bracket and the snap
    z = _focus_foot(t)
    atan_z = np.arctan(z)
    codes = _region_codes(t, x, _char_x_atan(z, atan_z, t))
    _raise_at(codes == _WEAK_ONLY, OutsideDomain, "{p} is outside the classical domain", t, x)
    d = x - 2.0 * t
    post = t > 1.0
    left = (codes == _ON_C) | ((codes == _OMEGA_A) & (x < 2.0 * t))
    # up to the crease left holds only where d < 0, so there right is d > 0
    right = ~left & (post | (d > 0.0))
    lo, hi, u0 = _bracket(t, d, right, z)
    snap = post & right & (z - t * atan_z - d >= -_ROUNDING * (np.abs(x) + 2.0 * t))
    if snap.any():
        lo, hi, u0 = (np.where(snap, z, a) for a in (lo, hi, u0))
    _solve_block(out, t, d, lo, hi, u0)


_ON_SHOCK = "{p} is on the shock; use shock_trace for the limits"


def _refuse_on_shock(t, x) -> None:
    """Raise OnShockError at the first point of the arrays t, x on the shock, where psi_W is two-sided."""
    _raise_at(on_shock(t, x), OnShockError, _ON_SHOCK, t, x)


def foot_weak(p: Point) -> float:
    """Foot of the entropy-solution characteristic through p.

    The foot is positive iff p lies right of the shock line x = 2t and
    negative iff left of it; on the shock itself (t > 1) the value is
    two-sided and an OnShockError is raised.
    """
    _refuse_on_shock(np.asarray(p.t), np.asarray(p.x))
    return float(foot_weak_array(p.t, p.x))


def foot_classical(p: Point) -> float:
    """Foot of the unique classical characteristic through p in cl(Omega_C).

    Raises OutsideDomain when p lies strictly beyond the singular boundary
    and Cauchy horizon (the weak-only region).
    """
    return float(foot_classical_array(p.t, p.x))


def shock_feet(t):
    """Feet (-x0, +x0) of the two characteristics meeting the shock at time t > 1.

    x0 > 0 solves x0 = t*arctan(x0): it is the right-family foot of the
    shock point (t, 2t), bracketed by sqrt(t-1) and t*pi/2.  t is a float,
    which gives two floats, or an array of times, which gives two arrays of
    its shape from one batched solve; a float is its size-1 case.  Only t
    is checked (finite, 1 < t <= 1e150, the modelled range), at its first
    bad time: 2t may lie past the range when t does not.
    """
    ts = _check_times(t, "shock", lambda ts: ts <= 1.0, "the shock exists for t > 1, got t = {t}")
    x0 = _float_call(_solve_feet(ts, np.zeros(ts.shape), np.full(ts.shape, True)))
    return -x0, x0
