"""Wave potential along ingoing characteristics and its first derivatives.

The potential of either Burgers field is the half-integral of the field
along the ingoing line of slope -2 through the point, back to the initial
slice:

    Phi(t, x) = 1/2 * integral_{y=x}^{x+2t} psi(t + (x - y)/2, y) dy,

so Phi(0, .) = 0 and the ingoing derivative d_t(Phi) - 2 d_x(Phi)
recovers the field exactly.  The integral is taken in the foot variable u
of the path points, in which the path is explicit: no root solve per node,
and no sqrt or cube-root degeneracy at the singular boundary or the
crease.  A fixed Gauss-Legendre rule on panels graded in asinh(u)
evaluates it for a whole array of points at once (phi_array; phi is its
size-1 call; lbar_derivative and pde_residual_classical difference it on
arrays).  The path crosses the line x = 2s at most once, at crossing time
t/2 + x/4; when that time exceeds 1 the weak feet jump there from -x0 to
+x0 and the interval in u is split.

The spatial derivative has a closed form.  Differentiating the integral in
x translates the path, which (i) turns the integrand derivative into an
exact log-derivative along the path and (ii) moves the shock-crossing
location, so

    d_x(Phi) = log((4 + psi(0, x+2t)) / (4 + psi(t, x)))
             + [ log((4 + psi_left)/(4 + psi_right))
                 - (psi_left - psi_right)/4 ]           (jump, weak only)

with the one-sided shock values taken at the crossing time.  Both terms of
the bracket vanish like sqrt of the height above the Cauchy horizon and
cancel at that order, so d_x(Phi) of the weak potential is differentiable
across the horizon; the formula is verified against finite differences of
the quadrature in the test suite.

"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    DomainError,
    OnShockError,
    OutsideDomain,
    Point,
    SolutionVariant,
    _check_points,
    _raise_at,
    gauss_panel,
    psi0,
)
from .characteristics import RegionTag, classify_array, foot_classical_array, foot_weak_array, on_shock
from .characteristics import _bracket, _solve_feet
from .burgers import psi, psi_classical_array, shock_trace

__all__ = [
    "phi",
    "phi_array",
    "dphidx_closed",
    "dphidt_closed",
    "lbar_derivative",
    "horizon_jump_probe",
    "pde_residual_classical",
]


# 15-point Gauss-Legendre rule on [-1, 1], shared with core.gauss_panel.
_GL_X, _GL_W = gauss_panel(-1.0, 1.0)


def _shock_crossing(t, x):
    """Whether the ingoing path from (t, x) crosses the shock K, and when.

    The path meets the line x = 2s at time t_c = t/2 + x/4, inside the
    path when -2t < x < 2t; it crosses the shock only if t_c > 1.
    Returns (crosses, t_c) for scalars or arrays alike.
    """
    t_c = 0.5 * t + 0.25 * x
    return (-2.0 * t < x) & (x < 2.0 * t) & (t_c > 1.0), t_c


def _foot_integral(c, a, s_a, b, s_b):
    """Integral of psi0(u) y'(u) / 2 over the feet u in [a, b] of the lines y + 2s = c.

    s_a and s_b are the path times of the ends.  The integral runs in the
    offset c - u = s * (4 + psi0(u)), formed from the ends' path times, so
    that the ends keep their relative accuracy when |c| is large.  Panel
    edges are equally spaced in asinh(u), at most one unit apart: every
    panel then keeps the same distance, relative to its width, from the
    integrand's singularities at u = +-i.  The 15 nodes of a panel are
    affine in u.  Each interval gets its own panel count and its panels
    are summed in order from +0.0, so its value does not depend on the
    other intervals of the batch.
    """
    va, vb = np.arcsinh(a), np.arcsinh(b)
    n = np.maximum(np.ceil(vb - va), 1.0)
    total = np.zeros(np.shape(c))
    hi = s_a * (4.0 + psi0(a))
    end = s_b * (4.0 + psi0(b))
    for k in range(1, int(n.max(initial=0.0)) + 1):
        lo = np.where(k >= n, end, c - np.sinh(va + (vb - va) * (k / n)))
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        r = mid[..., None] + half[..., None] * _GL_X
        u = c[..., None] - r
        w = 4.0 + psi0(u)
        # 1/2 psi0(u) y'(u), with y' = 2 (1 - s/(1 + u^2)) / w and s = r / w
        g = psi0(u) * (1.0 - r / (w * (1.0 + u * u))) / w
        total += half * np.sum(g * _GL_W, axis=-1)
        hi = lo
    return total


def phi_array(t, x, variant: SolutionVariant) -> np.ndarray:
    """Wave potential of the requested field variant at arrays of points.

    Along the ingoing line y + 2s = c through (t, x), c = x + 2t, the
    point whose foot is u sits at s(u) = (c - u)/(4 + psi0(u)), y(u) =
    c - 2 s(u), so Phi = 1/2 integral of psi0(u) y'(u) over u from the
    foot of (t, x) to c, with no root solve per node.  Where the weak
    path crosses the shock the feet jump from -x0 to +x0 and the interval
    is split there.  The classical variant raises OutsideDomain if any
    point is weak-only.  Zero on the initial slice.
    """
    t, x = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(x, dtype=float))
    zero = np.zeros(t.shape)
    # the foot maps check the points before any arithmetic on them
    if variant is SolutionVariant.CLASSICAL:
        u = foot_classical_array(t, x)
        crosses, t_c = np.zeros(t.shape, dtype=bool), zero
    else:
        u = foot_weak_array(t, x)
        crosses, t_c = _shock_crossing(t, x)
        t_c = np.where(crosses, t_c, 0.0)
    c = x + 2.0 * t
    # x0: the right-family foot of the crossing point (t_c, 2 t_c), solved
    # directly, as that point may lie past the modelled |x| range
    x0 = np.where(crosses, _solve_feet(t_c, zero, *_bracket(t_c, zero, crosses)), c) if crosses.any() else c
    # [u, -x0] and [x0, c] where the path crosses the shock at time t_c,
    # [u, c] and the empty [c, c] elsewhere
    parts = _foot_integral(
        np.stack([c, c]),
        np.stack([u, x0]), np.stack([t, t_c]),
        np.stack([np.where(crosses, -x0, c), c]), np.stack([t_c, zero]),
    )
    return parts[0] + parts[1]


def phi(p: Point, variant: SolutionVariant) -> float:
    """Wave potential of the requested field variant at p: a size-1 phi_array call.

    Raises OutsideDomain for the classical variant at weak-only points.
    """
    try:
        return float(phi_array(p.t, p.x, variant))
    except OutsideDomain:
        raise OutsideDomain(f"classical potential undefined at ({p.t}, {p.x})") from None


def dphidx_closed(p: Point, variant: SolutionVariant) -> float:
    """Closed-form spatial derivative of the potential (see module docstring).

    For the weak variant on the shock the field value is two-sided and an
    OnShockError is raised; the classical variant is smooth there.
    """
    t, x = p.t, p.x
    psi_here = psi(p, variant)
    value = math.log((4.0 + float(psi0(x + 2.0 * t))) / (4.0 + psi_here))
    if variant is SolutionVariant.WEAK:
        crosses, t_cross = _shock_crossing(t, x)
        if crosses:
            trace = shock_trace(t_cross)
            value += math.log((4.0 + trace.left_value) / (4.0 + trace.right_value))
            value -= 0.25 * (trace.left_value - trace.right_value)
    return value


def dphidt_closed(p: Point, variant: SolutionVariant) -> float:
    """Time derivative via the exact ingoing identity d_t Phi = psi + 2 d_x Phi."""
    return psi(p, variant) + 2.0 * dphidx_closed(p, variant)


def lbar_derivative(t, x, variant: SolutionVariant, h=None) -> np.ndarray:
    """Ingoing derivative d_t(Phi) - 2 d_x(Phi) by symmetric differencing along (1, -2).

    t, x and the steps h (default 1e-5 * max(1, |t|, |x|)) broadcast.
    Contract: equals the field value off the shock up to the
    finite-difference error and the rounding of phi divided by h.
    """
    t, x = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(x, dtype=float))
    _check_points(t, x)
    if h is None:
        h = 1e-5 * np.maximum(np.maximum(1.0, np.abs(t)), np.abs(x))
    t, x, h = np.broadcast_arrays(t, x, np.asarray(h, dtype=float))
    _raise_at(t - h < 0.0, DomainError, "stencil leaves t >= 0 at {p} with step {h}", t, x, h=h)
    if variant is SolutionVariant.WEAK:
        _raise_at(on_shock(t, x), OnShockError, "{p} is on the shock", t, x)
    up, dn = phi_array(np.stack([t + h, t - h]), np.stack([x - 2.0 * h, x + 2.0 * h]), variant)
    return (up - dn) / (2.0 * h)


def horizon_jump_probe(x: float, eps: float) -> float:
    """Change of the weak d_x(Phi) a height eps above the Cauchy horizon at fixed x < 2.

    The shock-crossing terms individually scale like sqrt(eps) but cancel
    at that order, so the probe decays linearly in eps (continuity and
    differentiability of d_x(Phi) across the horizon).
    """
    if not (x < 2.0):
        raise DomainError(f"horizon probe requires x < 2, got {x}")
    if not (0.0 < eps <= 0.05):
        raise DomainError(f"probe offset must lie in (0, 0.05], got {eps}")
    t0 = 2.0 - 0.5 * x
    above = dphidx_closed(Point(t0 + eps, x), SolutionVariant.WEAK)
    base = dphidx_closed(Point(t0, x), SolutionVariant.WEAK)
    return above - base


def pde_residual_classical(t, x, h) -> np.ndarray:
    """First-order-system residual of the classical pair (psi, Phi) at arrays of points.

    t, x and the steps h broadcast.  Per point, the larger of the transport
    residual |L psi| (differenced along (1, 2 + psi)) and the ingoing
    residual |Lbar Phi - psi|; every stencil must stay inside the classical
    domain.  Expected size O(h^2) plus the rounding of phi divided by h.
    """
    t, x, h = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (t, x, h)))
    _check_points(t, x)
    _raise_at(h <= 0.0, DomainError, "step must be positive, got {h} at {p}", t, x, h=h)
    _raise_at(t - h < 0.0, DomainError, "stencil leaves t >= 0 at {p} with step {h}", t, x, h=h)
    tags = classify_array(t, x)
    interior = np.isin(tags, (RegionTag.OMEGA_A, RegionTag.WEDGE, RegionTag.ON_SHOCK))
    _raise_at(~interior, OutsideDomain, "residual point {p} must be interior, got {tag.value}", t, x, tag=tags)
    psi_here = psi_classical_array(t, x)
    step = h * (2.0 + psi_here)
    fwd, bwd = psi_classical_array(np.stack([t + h, t - h]), np.stack([x + step, x - step]))
    transport = np.abs(fwd - bwd) / (2.0 * h)
    ingoing = np.abs(lbar_derivative(t, x, SolutionVariant.CLASSICAL, h) - psi_here)
    return np.maximum(transport, ingoing)
