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
times t >= 0.
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


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Point:
    """Spacetime event (t, x); the artifact restricts to t >= 0."""

    t: float
    x: float

    def __post_init__(self):
        if not (math.isfinite(self.t) and math.isfinite(self.x)):
            raise DomainError(f"non-finite point ({self.t}, {self.x})")
        if self.t < 0.0:
            raise DomainError(f"t = {self.t} < 0; only t >= 0 is modelled")


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
