"""Domain types, the fixed initial datum, and shared numeric kernels.

The model is the Cauchy problem for a 1+1-dimensional quasilinear wave
equation whose ingoing-derivative field ``psi = d_t(Phi) - 2 d_x(Phi)``
satisfies a decoupled Burgers equation with flux ``(2 + psi)^2 / 2`` and
initial profile ``psi0(x) = -arctan(x)``.  Everything downstream (foot
maps, boundary curves, wave potentials, acoustic geometry) reduces to
closed-form expressions in this datum plus one batched bracketed root
solver (a scalar root is a size-1 batch) and segmented Gauss-Legendre
quadrature, which live here.

All computation is 64-bit floating point; the artifact is restricted to
times t >= 0.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Point",
    "Vec2",
    "SolutionVariant",
    "NumericPolicy",
    "DEFAULT_POLICY",
    "ShockLabError",
    "DomainError",
    "OutsideDomain",
    "OnShockError",
    "MaxIterExceeded",
    "NearSingular",
    "DegenerateMetric",
    "ZeroVector",
    "ApexNotOnBoundary",
    "QuadFailure",
    "InvariantViolation",
    "PoorFit",
    "psi0",
    "psi0_prime",
    "psi0_second",
    "solve_monotone_array",
    "gauss_panel",
    "adaptive_quad",
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
    """Iteration cap hit before meeting the requested tolerance."""


class NearSingular(ShockLabError):
    """Derivative evaluation requested within the blowup tolerance band."""


class DegenerateMetric(DomainError):
    """Metric requested at a field value where it fails to be Lorentzian."""


class ZeroVector(DomainError):
    """Causal classification of the zero vector is undefined."""


class ApexNotOnBoundary(DomainError):
    """Causal-past query apex does not lie on the singular boundary."""


class QuadFailure(ShockLabError):
    """Adaptive quadrature could not meet the requested tolerance."""


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


@dataclass(frozen=True)
class NumericPolicy:
    """Shared tolerances and iteration caps.

    quad_tol is the absolute adaptive-quadrature target, geom_tol is the
    band half-width for on-curve membership tests.  root_tol and max_iter
    steer no solver: every foot solve stops at its rounding floor (see
    solve_monotone_array).  They are kept because verify reports echo the
    policy and --root-tol is a CLI flag.
    """

    root_tol: float = 1e-12
    quad_tol: float = 1e-10
    geom_tol: float = 1e-10
    max_iter: int = 100

    def __post_init__(self):
        for name in ("root_tol", "quad_tol", "geom_tol"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise DomainError(f"{name} must be strictly positive, got {v}")
        if self.max_iter < 1:
            raise DomainError("max_iter must be >= 1")


DEFAULT_POLICY = NumericPolicy()


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


def solve_monotone_array(
    p_func: Callable[[np.ndarray, slice | np.ndarray], np.ndarray],
    dp_func: Callable[[np.ndarray, slice | np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    tol: float,
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
    tol*(1 + |u|); the iterate with the smaller residual is kept.
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
        out[blk] = _solve_block(p_func, dp_func, lo[blk], hi[blk], blk, tol, max_iter, describe)
    return out.reshape(shape)


def _solve_block(p_func, dp_func, lo, hi, blk, tol, max_iter, describe):
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
            done = ~better | (rn * r <= 0.0) | (np.abs(un - u) <= tol * (1.0 + np.abs(un)))
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
# Quadrature kernels: 15-point Gauss-Legendre panels with adaptive bisection
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)


def gauss_panel(a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 15-point Gauss-Legendre rule on [a, b]."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * _GL_NODES, half * _GL_WEIGHTS


def _panel_integral(f_vec, a: float, b: float) -> float:
    nodes, weights = gauss_panel(a, b)
    return float(np.dot(weights, f_vec(nodes)))


def adaptive_quad(
    f_vec: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float,
    breakpoints: Sequence[float] = (),
    max_depth: int = 48,
) -> float:
    """Integral of f over [a, b] to absolute tolerance tol.

    f_vec must accept a node array and return values elementwise.  The
    interval is pre-split at the supplied breakpoints (known kinks or
    jumps); each segment is then bisected recursively, accepting the
    two-half estimate once it agrees with the parent panel to the
    segment's share of the tolerance.  Raises QuadFailure when bisection
    depth is exhausted before convergence.
    """
    if b <= a:
        if b == a:
            return 0.0
        return -adaptive_quad(f_vec, b, a, tol, breakpoints, max_depth)

    cuts = [a] + sorted(c for c in set(breakpoints) if a < c < b) + [b]
    total_len = b - a
    total = 0.0
    for seg_a, seg_b in zip(cuts[:-1], cuts[1:]):
        seg_tol = max(tol * (seg_b - seg_a) / total_len, 1e-3 * tol)
        total += _adaptive_segment(f_vec, seg_a, seg_b, seg_tol, max_depth)
    return total


def _adaptive_segment(f_vec, a, b, tol, max_depth) -> float:
    whole = _panel_integral(f_vec, a, b)
    stack = [(a, b, whole, tol, 0)]
    acc = 0.0
    while stack:
        a0, b0, coarse, tol0, depth = stack.pop()
        m = 0.5 * (a0 + b0)
        left = _panel_integral(f_vec, a0, m)
        right = _panel_integral(f_vec, m, b0)
        fine = left + right
        if abs(fine - coarse) <= max(tol0, 1e-16 * (1.0 + abs(fine))):
            acc += fine
        elif depth >= max_depth:
            raise QuadFailure(
                f"segment [{a0}, {b0}] not converged at depth {max_depth} "
                f"(estimate gap {abs(fine - coarse):.3e}, tol {tol0:.3e})"
            )
        else:
            half_tol = 0.5 * tol0
            stack.append((a0, m, left, half_tol, depth + 1))
            stack.append((m, b0, right, half_tol, depth + 1))
    return acc
