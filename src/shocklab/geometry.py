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
"""

from __future__ import annotations

import enum
import math
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
)
from .characteristics import BoundaryCurve, boundary_x, boundary_x_deriv
from .burgers import psi_boundary_extension, psi_classical_array, psi_weak, shock_trace

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
    if np.any((np.abs(psi + 4.0) <= GEOM_TOL) | (np.abs(psi + 2.0) <= GEOM_TOL)):
        raise DegenerateMetric(f"metric degenerate at psi = {psi}")


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


def _class_of_norm(q: float) -> CausalClass:
    """Causal class of a vector of metric norm q, with a GEOM_TOL-wide null band."""
    if abs(q) <= GEOM_TOL:
        return CausalClass.NULL
    return CausalClass.TIMELIKE if q < 0.0 else CausalClass.SPACELIKE


def causal_class(psi: float, v: Vec2) -> CausalClass:
    """Sign classification of g(v, v) with a GEOM_TOL-wide null band."""
    if v.is_zero:
        raise ZeroVector("cannot classify the zero vector")
    return _class_of_norm(metric(psi).norm_sq(v))


# ---------------------------------------------------------------------------
# Boundary tangency and shock causal character
# ---------------------------------------------------------------------------

def tangency_residual_B(t: float) -> float:
    """|x_B'(t) - (2 + psi_ext)| on the singular boundary: the extended
    outgoing speed matches the boundary slope identically."""
    if t <= 1.0:
        raise DomainError(f"singular boundary needs t > 1, got {t}")
    slope = boundary_x_deriv(BoundaryCurve.SINGULAR_BOUNDARY, t)
    _, psi_ext = psi_boundary_extension(math.sqrt(t - 1.0))
    return abs(slope - (2.0 + psi_ext))


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


def shock_character(t: float) -> tuple[CausalClass, CausalClass]:
    """Causal class of the shock tangent against the two one-sided metrics.

    Expected (Spacelike, Timelike) for t > 1: supersonic for the field in
    its past, subsonic for the field in its future, degenerating to null
    at the crease.  The classes of the two shock_tangent_norms.
    """
    right, left = shock_tangent_norms(t)
    return _class_of_norm(right), _class_of_norm(left)


def horizon_null_check(t: float) -> float:
    """|g(Lbar, Lbar)| on the Cauchy horizon with the extended field value.

    The horizon x = 4 - 2t has tangent exactly Lbar = (1, -2), so this is
    the norm of its tangent: the horizon is a straight null line.
    """
    if t <= 1.0:
        raise DomainError(f"the Cauchy horizon needs t > 1, got {t}")
    x = boundary_x(BoundaryCurve.CAUCHY_HORIZON, t)
    psi_ext = psi_weak(Point(t, x))  # smooth across the horizon
    return abs(metric(psi_ext).norm_sq(Vec2(1.0, -2.0)))


# ---------------------------------------------------------------------------
# Causal and timelike pasts on the closed classical domain
# ---------------------------------------------------------------------------

def _require_apex_on_B(apex: Point) -> float:
    """Validate the apex and return its boundary foot sqrt(t - 1)."""
    if apex.t <= 1.0:
        raise ApexNotOnBoundary(f"apex time {apex.t} is not past the crease")
    xb = boundary_x(BoundaryCurve.SINGULAR_BOUNDARY, apex.t)
    scale = max(1.0, abs(apex.x))
    if abs(apex.x - xb) > 100.0 * GEOM_TOL * scale:
        raise ApexNotOnBoundary(
            f"apex ({apex.t}, {apex.x}) off the singular boundary by {abs(apex.x - xb):.3e}"
        )
    return math.sqrt(apex.t - 1.0)


def _past_left_causal(t: float) -> float:
    """Left boundary of the causal past: down the singular boundary to the
    crease, then the center characteristic x = 2t."""
    if t >= 1.0:
        return boundary_x(BoundaryCurve.SINGULAR_BOUNDARY, t)
    return 2.0 * t


def _past_right(apex: Point, t: float) -> float:
    """Right boundary: the backward ingoing line through the apex."""
    return apex.x + 2.0 * (apex.t - t)


def causal_past_contains(apex: Point, target: Point) -> bool:
    """Whether target can be reached from apex by a past causal curve.

    The apex must lie on the singular boundary (to within 100*GEOM_TOL
    times max(1, |x|)) and the target at or before the apex time.  The
    past of a singular-boundary point is bounded on the left by the
    boundary itself continued by the center characteristic below the
    crease (a null curve that rides the boundary), and on the right by
    the backward ingoing line; membership is weak (boundaries included).
    """
    _require_apex_on_B(apex)
    t = target.t
    if t > apex.t:
        raise DomainError("target must not lie after the apex")
    tol = GEOM_TOL * max(1.0, abs(target.x))
    return _past_left_causal(t) - tol <= target.x <= _past_right(apex, t) + tol


def timelike_past_contains(apex: Point, target: Point) -> bool:
    """Whether target is in the strictly timelike past of apex.

    The apex must lie on the singular boundary (to within 100*GEOM_TOL
    times max(1, |x|)) and the target at or before the apex time.
    Timelike curves cannot ride the null singular boundary, so the left
    boundary tightens to the interior characteristic that focuses at the
    apex; membership is strict.
    """
    z = _require_apex_on_B(apex)
    t = target.t
    if t > apex.t:
        raise DomainError("target must not lie after the apex")
    left = z + t * (2.0 - math.atan(z))
    tol = GEOM_TOL * max(1.0, abs(target.x))
    return left + tol < target.x < _past_right(apex, t) - tol


def bubble_witness(apex: Point) -> Point:
    """A point in the causal-but-not-timelike past of a boundary apex.

    Taken halfway up to the apex in time, midway between the two left
    boundaries (the singular boundary and the interior characteristic);
    the gap is nonempty for every apex strictly past the crease.
    """
    z = _require_apex_on_B(apex)
    t_mid = 0.5 * (1.0 + apex.t)
    lo = _past_left_causal(t_mid)
    hi = z + t_mid * (2.0 - math.atan(z))
    return Point(t_mid, 0.5 * (lo + hi))


def backward_L_curves(
    apex: Point, duration: float, steps: int
) -> tuple[np.ndarray, np.ndarray, tuple[float, float]]:
    """Two distinct backward solutions of dgamma/ds = L(gamma) from a boundary apex.

    Returns (curve_boundary, curve_interior, residuals): each curve is an
    (steps+1, 2) array of (t, x) samples on s in [-duration, 0], the first
    running down the singular boundary, the second down the interior
    characteristic that focuses at the apex.  Residuals are the maximum
    central-difference defects |dx/ds - (2 + psi)| with psi from the
    boundary extension and from the classical field respectively.
    """
    z = _require_apex_on_B(apex)
    if steps < 2:
        raise DomainError("need at least 2 steps")
    if duration <= 0.0:
        raise DomainError("duration must be positive")
    if apex.t - duration < 1.0:
        raise DomainError("boundary curve leaves t >= 1; shorten the duration")
    ts = apex.t + np.linspace(-duration, 0.0, steps + 1)
    zs = np.sqrt(ts - 1.0)
    xb = (2.0 - np.arctan(zs)) * ts + zs
    gamma_boundary = np.column_stack([ts, xb])
    x_int = z + ts * (2.0 - math.atan(z))
    gamma_interior = np.column_stack([ts, x_int])

    ds = ts[1] - ts[0]
    fd_b = (xb[2:] - xb[:-2]) / (2.0 * ds)
    fd_i = (x_int[2:] - x_int[:-2]) / (2.0 * ds)
    speed_b = 2.0 - np.arctan(zs[1:-1])  # 2 + extended field on the boundary
    psi_int = psi_classical_array(ts[1:-1], x_int[1:-1])
    res_b = float(np.max(np.abs(fd_b - speed_b)))
    res_i = float(np.max(np.abs(fd_i - (2.0 + psi_int))))
    return gamma_boundary, gamma_interior, (res_b, res_i)
