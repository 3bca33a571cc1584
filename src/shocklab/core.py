"""Domain types, the fixed initial datum, and shared numeric kernels.

The model is the Cauchy problem for a 1+1-dimensional quasilinear wave
equation whose ingoing-derivative field ``psi = d_t(Phi) - 2 d_x(Phi)``
satisfies a decoupled Burgers equation with flux ``(2 + psi)^2 / 2`` and
initial profile ``psi0(x) = -arctan(x)``.  Everything downstream (foot
maps, boundary curves, wave potentials, acoustic geometry) reduces to
closed-form expressions in this datum plus one batched bracketed root
solver (a scalar root is a size-1 batch) and a 15-point Gauss-Legendre
panel rule, which live here.

All computation is 64-bit floating point; the artifact is restricted to
times t >= 0.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

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
    "solve_monotone_array",
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


class NearSingular(ShockLabError):
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
# the curves are closed-form, root solves stop at their rounding floor (see
# solve_monotone_array) and the wave potential uses a fixed quadrature rule.
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
# Root finding: batched, bracketed Newton
# ---------------------------------------------------------------------------

# Points per block of the batched solver: large inputs are solved block by
# block so that its working arrays stay the same size whatever the input.
_BLOCK = 8192
# Relative step below which a Newton iterate counts as converged: a few ulp.
_STEP_TOL = 1e-14


def solve_monotone_array(
    p_func: Callable[[np.ndarray, slice | np.ndarray], np.ndarray],
    dp_func: Callable[[np.ndarray, slice | np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    max_iter: int = 160,
    describe: Callable[[int], str] | None = None,
) -> np.ndarray:
    """Vectorized Newton for a batch of bracketed scalar roots, converging per point.

    Each bracket [lo_i, hi_i] must hold exactly one sign change of the
    increasing residual (negative at lo, positive at hi).  ``p_func(u, idx)``
    and ``dp_func(u, idx)`` evaluate the residual and its derivative at the
    iterates u of the points idx, a slice or an index array into the
    flattened brackets.

    Newton starts on the convex side of the bracket, at hi where lo >= 0
    and at lo elsewhere: for a residual whose curvature has the sign of u
    (every characteristic residual u - t*arctan(u) - d) the iterates then
    approach the root monotonically with no bisection, also at a double
    root, where a residual test would stop far from it.  Steps are clipped
    to the bracket.  A point stops once rounding makes its residual change
    sign, vanish or stop shrinking, or once its step is at most
    _STEP_TOL*(1 + |u|); the iterate with the smaller residual is kept.
    Converged points leave the active set, and large inputs are solved in
    blocks of _BLOCK points.  Points with lo == hi are returned as given.

    Raises MaxIterExceeded after max_iter sweeps, naming the active point
    with the largest residual (``describe(i)`` labels flat index i), its
    iterate, residual and bracket.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    shape = lo.shape
    lo, hi = lo.ravel(), hi.ravel()
    out = np.empty(lo.size)
    for first in range(0, lo.size, _BLOCK):
        blk = slice(first, min(first + _BLOCK, lo.size))
        out[blk] = _solve_block(p_func, dp_func, lo[blk], hi[blk], blk, max_iter, describe)
    return out.reshape(shape)


def _solve_block(p_func, dp_func, lo, hi, blk, max_iter, describe):
    u = np.where(lo >= 0.0, hi, lo)
    out = np.empty(u.size)
    pos = np.arange(u.size)          # block positions of the active points
    idx = blk                        # their flat indices, as handed to the callbacks
    r = p_func(u, idx)
    best, done = u, (r == 0.0) | (lo >= hi)
    with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
        for sweep in range(max_iter + 1):
            if done.any():
                out[pos[done]] = best[done]
                live = ~done
                pos, u, r, lo, hi = pos[live], u[live], r[live], lo[live], hi[live]
                idx = pos + blk.start
            if pos.size == 0:
                return out
            if sweep == max_iter:
                break
            un = np.minimum(np.maximum(u - r / dp_func(u, idx), lo), hi)
            rn = p_func(un, idx)
            better = np.abs(rn) < np.abs(r)
            done = ~better | (rn * r <= 0.0) | (np.abs(un - u) <= _STEP_TOL * (1.0 + np.abs(un)))
            best = np.where(better, un, u)
            u, r = un, rn
    i = int(np.argmax(np.abs(r)))
    j = int(pos[i]) + blk.start
    what = describe(j) if describe is not None else f"point #{j}"
    raise MaxIterExceeded(
        f"batched root solve: {pos.size} points unconverged after {max_iter} sweeps; "
        f"worst {what}: u = {float(u[i])!r}, residual {float(r[i]):.3e}, "
        f"bracket [{float(lo[i])!r}, {float(hi[i])!r}]"
    )


# ---------------------------------------------------------------------------
# Quadrature kernel: 15-point Gauss-Legendre panels
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)


def gauss_panel(a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 15-point Gauss-Legendre rule on [a, b]."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * _GL_NODES, half * _GL_WEIGHTS
