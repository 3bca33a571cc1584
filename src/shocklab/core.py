"""Domain types, the fixed initial datum, and shared numeric kernels.

The model is the Cauchy problem for a 1+1-dimensional quasilinear wave
equation whose ingoing-derivative field ``psi = d_t(Phi) - 2 d_x(Phi)``
satisfies a decoupled Burgers equation with flux ``(2 + psi)^2 / 2`` and
initial profile ``psi0(x) = -arctan(x)``.  Everything downstream (foot
maps, boundary curves, wave potentials, acoustic geometry) reduces to
closed-form expressions in this datum, the batched root solve of the foot
equation u - t*arctan(u) = x - 2t (in characteristics) and the 15-point
Gauss-Legendre panel rule, which lives here.

All computation is 64-bit floating point; the artifact is restricted to
times 0 <= t <= 1e150 and |x| <= 1e150 (_check_points).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Point",
    "Vec2",
    "SolutionVariant",
    "GEOM_TOL",
    "ShockLabError",
    "DomainError",
    "OutsideDomain",
    "OnShockError",
    "MaxIterExceeded",
    "NearSingular",
    "DegenerateMetric",
    "ZeroVector",
    "ApexNotOnBoundary",
    "InvariantViolation",
    "PoorFit",
    "psi0",
    "psi0_prime",
    "psi0_second",
    "gauss_panel",
]


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class ShockLabError(Exception):
    """Base class for all library errors."""


class DomainError(ShockLabError):
    """Argument outside the mathematical domain of an operation."""


class OutsideDomain(DomainError):
    """Point lies outside the classical solution's closed domain."""


class OnShockError(DomainError):
    """Point lies on the shock curve; the weak field is two-valued there."""


class MaxIterExceeded(ShockLabError):
    """Iteration cap hit before the solve converged."""


class NearSingular(DomainError):
    """Derivative evaluation requested within the blowup tolerance band."""


class DegenerateMetric(DomainError):
    """Metric requested at a field value where it fails to be Lorentzian."""


class ZeroVector(DomainError):
    """Causal classification of the zero vector is undefined."""


class ApexNotOnBoundary(DomainError):
    """Causal-past query apex does not lie on the singular boundary."""


class InvariantViolation(ShockLabError):
    """A scheme invariant (range bound, total variation) was broken."""


class PoorFit(ShockLabError):
    """Power-law fit quality below the acceptance threshold."""


def _raise_at(bad, error, message: str, t, x, **at) -> None:
    """Raise error(message) at the first point p where bad holds, with the values there of at."""
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        p = f"({float(t.flat[i])}, {float(x.flat[i])})"
        raise error(message.format(p=p, **{k: v.flat[i] for k, v in at.items()}))


# Largest |x| and t modelled.  The foot solve squares its iterate u, and
# |u| <= |x - 2t| + t*pi/2, so beyond about 1e153 the arithmetic overflows.
_MODELLED_RANGE = 1e150


def _check_points(t: np.ndarray, x: np.ndarray) -> None:
    """Raise DomainError at the first point outside the model: non-finite,
    t < 0, or t or |x| beyond _MODELLED_RANGE.

    The one point rule: Point is its size-1 case, and every map of arrays
    of points applies it first.
    """
    # NaN fails every comparison, so one mask holds every accepted point
    if ((t >= 0.0) & (t <= _MODELLED_RANGE) & (np.abs(x) <= _MODELLED_RANGE)).all():
        return
    _raise_at(~(np.isfinite(t) & np.isfinite(x)), DomainError, "non-finite point {p}", t, x)
    _raise_at(t < 0.0, DomainError, "t < 0 at {p}; only t >= 0 is modelled", t, x)
    _raise_at(
        (t > _MODELLED_RANGE) | (np.abs(x) > _MODELLED_RANGE), DomainError,
        f"{{p}} is beyond the modelled range t, |x| <= {_MODELLED_RANGE:g}", t, x,
    )


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Point:
    """Spacetime event (t, x) that _check_points accepts."""

    t: float
    x: float

    def __post_init__(self):
        _check_points(np.asarray(self.t), np.asarray(self.x))


@dataclass(frozen=True)
class Vec2:
    """Tangent vector with time component dt and space component dx."""

    dt: float
    dx: float

    def __post_init__(self):
        if not (math.isfinite(self.dt) and math.isfinite(self.dx)):
            raise DomainError(f"non-finite vector ({self.dt}, {self.dx})")

    @property
    def is_zero(self) -> bool:
        return self.dt == 0.0 and self.dx == 0.0


class SolutionVariant(enum.Enum):
    """Which Burgers solution backs a field evaluation.

    CLASSICAL is valid on the closure of the maximal classical domain;
    WEAK (the entropy solution) is valid for all t >= 0.
    """

    CLASSICAL = "classical"
    WEAK = "weak"


# Half-width of the band within which a point counts as on a curve (B, C,
# K, the crease) or a quantity as zero.  It is the model's only tolerance:
# the curves are closed-form, foot solves stop at their rounding floor (see
# characteristics._solve_feet) and the potential uses a fixed quadrature rule.
GEOM_TOL = 1e-10


# ---------------------------------------------------------------------------
# Initial datum
# ---------------------------------------------------------------------------

def psi0(x):
    """Initial profile -arctan(x); strictly decreasing, range (-pi/2, pi/2)."""
    return -np.arctan(x)


def psi0_prime(x):
    """First derivative -1/(1+x^2); always in [-1, 0)."""
    x = np.asarray(x, dtype=float) if not np.isscalar(x) else x
    return -1.0 / (1.0 + x * x)


def psi0_second(x):
    """Second derivative 2x/(1+x^2)^2; same sign as x."""
    s = 1.0 + x * x
    return 2.0 * x / (s * s)


# ---------------------------------------------------------------------------
# Quadrature kernel: 15-point Gauss-Legendre panels
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)


def gauss_panel(a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 15-point Gauss-Legendre rule on [a, b]."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * _GL_NODES, half * _GL_WEIGHTS
