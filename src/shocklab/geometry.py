"""Acoustic Lorentzian geometry of the model and its boundary causality.

The field-dependent metric

    g(psi) = [ -8(2+psi)/(4+psi)^2   -2 psi/(4+psi)^2 ]
             [ -2 psi/(4+psi)^2       4/(4+psi)^2     ]

has determinant -4/(4+psi)^2 < 0, hence is Lorentzian away from
psi = -4, and its null directions are spanned by the frame
L = (1, 2+psi), Lbar = (1, -2): the two characteristic families.  The
inverse is (-1, -psi/2; -psi/2, 2(2+psi)) and decomposes as
-(L (x) Lbar + Lbar (x) L)/2.

On the boundary of the classical domain the extended field makes the
singular boundary an integral curve of the extended L (intrinsically
null) while backward L-curves from any of its points are non-unique: one
runs down the boundary itself, one is the interior characteristic that
focused there.  The gap between those two backward curves is exactly the
region swept by causal-but-not-timelike pasts, a causal bubble attached
to every boundary point.  The shock is spacelike for the pre-shock field
and timelike for the post-shock field (both measured against the fixed
tangent (1, 2)), and the Cauchy horizon x = 4 - 2t is a null line of the
extended metric with tangent exactly Lbar.

The metric, the causal classes, the boundary checks and the causal pasts are
array-first: they take floats or arrays (apexes and targets as Points of
arrays), and the float call is the size-1 case.  The null frame stays
float-only, as Vec2 is.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import (
    GEOM_TOL,
    ApexNotOnBoundary,
    DegenerateMetric,
    DomainError,
    Point,
    Vec2,
    ZeroVector,
    _MODELLED_RANGE,
    _check_times,
    _float_call,
    _raise_first,
)
from .characteristics import BoundaryCurve, _char_x, _focus_foot, _x_B, boundary_x, boundary_x_deriv
from .burgers import psi_boundary_extension, psi_classical_array, psi_weak_array, shock_trace

__all__ = [
    "Metric2",
    "NullFrame",
    "CausalClass",
    "metric",
    "inverse_metric",
    "causal_class",
    "null_frame",
    "tangency_residual_B",
    "shock_character",
    "shock_tangent_norms",
    "causal_past_contains",
    "timelike_past_contains",
    "bubble_witness",
    "backward_L_curves",
    "horizon_null_check",
]

SHOCK_TANGENT = Vec2(1.0, 2.0)


@dataclass(frozen=True)
class Metric2:
    """Symmetric 2x2 covariant (or contravariant) form in (t, x) components."""

    gtt: float
    gtx: float
    gxx: float

    def apply(self, u: Vec2, v: Vec2) -> float:
        return (
            self.gtt * u.dt * v.dt
            + self.gtx * (u.dt * v.dx + u.dx * v.dt)
            + self.gxx * u.dx * v.dx
        )

    def norm_sq(self, v: Vec2) -> float:
        return self.apply(v, v)

    @property
    def det(self) -> float:
        return self.gtt * self.gxx - self.gtx * self.gtx

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.gtt, self.gtx], [self.gtx, self.gxx]])


@dataclass(frozen=True)
class NullFrame:
    """Characteristic frame at field value psi: L outgoing, Lbar ingoing."""

    L: Vec2
    Lbar: Vec2


class CausalClass(enum.Enum):
    TIMELIKE = "Timelike"
    NULL = "Null"
    SPACELIKE = "Spacelike"


# ---------------------------------------------------------------------------
# Metric and frame
# ---------------------------------------------------------------------------

def _check_regular(psi: float | np.ndarray) -> None:
    """Refuse, at the first refusing value as its float call does, a non-finite
    psi and one within GEOM_TOL of -4 or -2, where the metric degenerates."""
    p = np.asarray(psi, dtype=float)
    _raise_first((
        (~np.isfinite(p), DegenerateMetric, "non-finite field value psi = {psi}"),
        ((np.abs(p + 4.0) <= GEOM_TOL) | (np.abs(p + 2.0) <= GEOM_TOL), DegenerateMetric,
         "metric degenerate at psi = {psi}"),
    ), p, p, psi=p)


def metric(psi: float | np.ndarray) -> Metric2:
    """Covariant acoustic metric at field value psi (a float or an array of them)."""
    _check_regular(psi)
    q = 4.0 + psi
    s = q * q  # a product, so that a float and an array round alike
    return Metric2(gtt=-8.0 * (2.0 + psi) / s, gtx=-2.0 * psi / s, gxx=4.0 / s)


def inverse_metric(psi: float | np.ndarray) -> Metric2:
    """Contravariant form (-1, -psi/2; -psi/2, 2(2+psi)), also for an array of psi."""
    _check_regular(psi)
    return Metric2(gtt=-1.0, gtx=-0.5 * psi, gxx=2.0 * (2.0 + psi))


def null_frame(psi: float) -> NullFrame:
    return NullFrame(L=Vec2(1.0, 2.0 + psi), Lbar=Vec2(1.0, -2.0))


_CLASSES = np.array([CausalClass.TIMELIKE, CausalClass.NULL, CausalClass.SPACELIKE], dtype=object)


def _class_of_norm(q):
    """Causal classes (an object array of CausalClass) of vectors of metric
    norms q, with a GEOM_TOL-wide null band; a float q gives the member."""
    # an object array indexed by a 0-d index gives the element itself
    return _CLASSES[np.where(np.abs(q) <= GEOM_TOL, 1, np.where(q < 0.0, 0, 2))]


def causal_class(psi, v: Vec2):
    """Sign classification of g(v, v) with a GEOM_TOL-wide null band, for a
    float psi or an array of them (v stays one vector, as Vec2 is float-only)."""
    if v.is_zero:
        raise ZeroVector("cannot classify the zero vector")
    return _class_of_norm(metric(psi).norm_sq(v))


# ---------------------------------------------------------------------------
# Boundary tangency and shock causal character
# ---------------------------------------------------------------------------

def tangency_residual_B(t):
    """|x_B'(t) - (2 + psi_ext)| on the singular boundary at times t > 1: the
    extended outgoing speed matches the boundary slope identically."""
    ts = _check_times(t, "boundary", lambda ts: ts <= 1.0, "singular boundary needs t > 1, got {t}")
    slope = boundary_x_deriv(BoundaryCurve.SINGULAR_BOUNDARY, ts)
    _, psi_ext = psi_boundary_extension(_focus_foot(ts))
    return _float_call(np.abs(slope - (2.0 + psi_ext)))


def shock_tangent_norms(t):
    """g(T, T) for the shock tangent T = (1, 2), against the pre-shock
    (right/classical) and post-shock (left) fields; equals
    -16 psi / (4 + psi)^2 at the one-sided values.

    An array of times gives two arrays, from one batched foot solve.
    """
    trace = shock_trace(t)
    right = metric(trace.right_value).norm_sq(SHOCK_TANGENT)
    left = metric(trace.left_value).norm_sq(SHOCK_TANGENT)
    return right, left


def shock_character(t):
    """Causal class of the shock tangent against the two one-sided metrics.

    Expected (Spacelike, Timelike) for t > 1: supersonic for the field in
    its past, subsonic for the field in its future, degenerating to null
    at the crease.  The classes of the two shock_tangent_norms; an array of
    times gives two object arrays of classes.
    """
    right, left = shock_tangent_norms(t)
    return _class_of_norm(right), _class_of_norm(left)


def horizon_null_check(t):
    """|g(Lbar, Lbar)| on the Cauchy horizon at times t > 1 with the extended field value.

    The horizon x = 4 - 2t has tangent exactly Lbar = (1, -2), so this is
    the norm of its tangent: the horizon is a straight null line.
    """
    # up to t = 5e149, where x = 4 - 2t reaches the end -1e150 of the modelled range
    needs = "the Cauchy horizon needs t > 1, got {t}"
    ts = _check_times(t, "horizon", lambda ts: ts <= 1.0, needs, last=0.5 * _MODELLED_RANGE)
    x = boundary_x(BoundaryCurve.CAUCHY_HORIZON, ts)
    psi_ext = psi_weak_array(ts, x)  # smooth across the horizon, which meets the shock only at t = 1
    return _float_call(np.abs(metric(psi_ext).norm_sq(Vec2(1.0, -2.0))))


# ---------------------------------------------------------------------------
# Causal and timelike pasts on the closed classical domain
# ---------------------------------------------------------------------------

def _past_edges(apex: Point, t):
    """(causal_left, timelike_left, right) edges at times t of the past of an apex on
    B, broadcast: B, continued by x = 2t below the crease (a null curve riding B); the
    interior characteristic focusing at the apex (timelike curves cannot ride B); the
    backward ingoing line.  Refused at the first entry whose apex is not past the crease
    and on B to 100*GEOM_TOL*max(1, |x|) (ApexNotOnBoundary) or whose t is after it."""
    at, ax, t = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (apex.t, apex.x, t)))
    off = np.abs(ax - _x_B(at))
    _raise_first((
        (at <= 1.0, ApexNotOnBoundary, "apex time {apex_t} is not past the crease"),
        (off > 100.0 * GEOM_TOL * np.maximum(1.0, np.abs(ax)), ApexNotOnBoundary,
         "apex {p} off the singular boundary by {off:.3e}"),
        (t > at, DomainError, "target must not lie after the apex"),
    ), at, ax, apex_t=at, off=off)
    return _x_B(t), _char_x(_focus_foot(at), t), ax + 2.0 * (at - t)


def _in_past(apex: Point, target: Point):
    causal_left, timelike_left, right = _past_edges(apex, target.t)
    x = np.asarray(target.x, dtype=float)
    tol = GEOM_TOL * np.maximum(1.0, np.abs(x))
    return (causal_left - tol <= x) & (x <= right + tol), (timelike_left + tol < x) & (x < right - tol)


def causal_past_contains(apex: Point, target: Point):
    """Whether target can be reached from a singular-boundary apex by a past
    causal curve: weak membership (edges included, to GEOM_TOL times
    max(1, |x|)) in the past bounded by _past_edges.  Points of arrays give
    an array; Points of floats, the size-1 case, a bool."""
    return _float_call(_in_past(apex, target)[0])


def timelike_past_contains(apex: Point, target: Point):
    """Whether target is in the strictly timelike past of a singular-boundary
    apex: strict membership, with the band of causal_past_contains, between
    the interior characteristic and the ingoing line.  Takes Points of
    arrays as causal_past_contains does."""
    return _float_call(_in_past(apex, target)[1])


def bubble_witness(apex: Point) -> Point:
    """A point in the causal-but-not-timelike past of a boundary apex (or a Point of
    arrays of them): halfway up to the apex in time, midway between the two left
    edges, whose gap is nonempty for every apex strictly past the crease."""
    t_mid = 0.5 * (1.0 + np.asarray(apex.t, dtype=float))
    lo, hi, _ = _past_edges(apex, t_mid)
    return Point(*(_float_call(a) for a in np.broadcast_arrays(t_mid, 0.5 * (lo + hi))))


# Least step of backward_L_curves per unit of the apex's scale max(1, |t|, |x|).
_SQRT_EPS = float(np.finfo(float).eps) ** 0.5


def backward_L_curves(
    apex: Point, duration: float, steps: int
) -> tuple[np.ndarray, np.ndarray, tuple[float, float]]:
    """Two distinct backward solutions of dgamma/ds = L(gamma) from a boundary apex.

    Returns (curve_boundary, curve_interior, residuals): each curve is an
    (steps+1, 2) array of (t, x) samples on s in [-duration, 0], the first
    running down the singular boundary, the second down the interior
    characteristic that focuses at the apex.  Residuals are the maximum
    central-difference defects |dx/ds - (2 + psi)| with psi from the
    boundary extension and from the classical field respectively.  A step
    below sqrt(eps) * max(1, |t|, |x|) of the apex is refused: the samples'
    rounding enters the residuals divided by the step (at the apex
    (2, 5 - pi/2), about 5e-8 at that bound and 0.5 at a step of 1e-15),
    where it would pass for a defect of the curves.
    """
    _past_edges(apex, apex.t)  # the apex before the other arguments
    if steps < 2:
        raise DomainError("need at least 2 steps")
    if duration <= 0.0:
        raise DomainError("duration must be positive")
    if apex.t - duration < 1.0:
        raise DomainError("boundary curve leaves t >= 1; shorten the duration")
    step, bound = duration / steps, _SQRT_EPS * max(1.0, abs(apex.t), abs(apex.x))
    if not step >= bound:
        raise DomainError(f"duration {duration!r} in {steps} steps is below the rounding of the apex time: "
                          f"step {step!r} < {bound!r} = sqrt(eps) * max(1, |t|, |x|)")
    ts = apex.t + np.linspace(-duration, 0.0, steps + 1)
    xb, x_int, _ = _past_edges(apex, ts)
    ds = ts[1] - ts[0]
    fd_b = (xb[2:] - xb[:-2]) / (2.0 * ds)
    fd_i = (x_int[2:] - x_int[:-2]) / (2.0 * ds)
    _, psi_b = psi_boundary_extension(_focus_foot(ts[1:-1]))
    psi_int = psi_classical_array(ts[1:-1], x_int[1:-1])
    res_b = float(np.max(np.abs(fd_b - (2.0 + psi_b))))
    res_i = float(np.max(np.abs(fd_i - (2.0 + psi_int))))
    return np.column_stack([ts, xb]), np.column_stack([ts, x_int]), (res_b, res_i)
