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
the quadrature in the test suite.  It is evaluated on arrays of points
(dphidx_closed_array, and the horizon probe on arrays of offsets); the
float call dphidx_closed is its size-1 case.
"""

from __future__ import annotations

import numpy as np

from .core import (
    DomainError,
    OnShockError,
    OutsideDomain,
    Point,
    SolutionVariant,
    _MODELLED_RANGE,
    _check_points,
    _float_call,
    _raise_at,
    _raise_first,
    gauss_panel,
    psi0,
)
from .characteristics import RegionTag, classify_array, foot_classical_array, foot_weak_array, on_shock
from .characteristics import _ON_SHOCK, _refuse_on_shock, shock_feet
from .burgers import psi, psi_classical_array, psi_weak_array

__all__ = [
    "phi",
    "phi_array",
    "dphidx_closed",
    "dphidx_closed_array",
    "dphidt_closed",
    "lbar_derivative",
    "horizon_jump_probe",
    "pde_residual_classical",
]


# 15-point Gauss-Legendre rule on [-1, 1], shared with core.gauss_panel.
_GL_X, _GL_W = gauss_panel(-1.0, 1.0)


def _shock_crossing(t, x):
    """Which ingoing paths from the points (t, x) cross the shock K, when, and where.

    The path meets the line x = 2s at time t_c = t/2 + x/4, inside the
    path when -2t < x < 2t; it crosses the shock only if t_c > 1.  Returns
    the mask of crossing points and, for those points only, t_c and the
    shock feet (-x0, +x0) at t_c from one batched shock_feet solve.
    """
    t_c = 0.5 * t + 0.25 * x
    crosses = (-2.0 * t < x) & (x < 2.0 * t) & (t_c > 1.0)
    t_c = t_c[crosses]
    return crosses, t_c, *shock_feet(t_c)


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
        p = psi0(u)
        w = 4.0 + p
        # 1/2 psi0(u) y'(u), with y' = 2 (1 - s/(1 + u^2)) / w and s = r / w
        g = p * (1.0 - r / (w * (1.0 + u * u))) / w
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
    weak = variant is SolutionVariant.WEAK
    # the foot maps check the points before any arithmetic on them
    u = (foot_weak_array if weak else foot_classical_array)(t, x)
    c = x + 2.0 * t
    # the piece [u, end]: end = c, or -x0 at time t_c where the weak path
    # crosses K, and then a second piece [x0, c]
    end, s_end, second = np.array(c), np.zeros(t.shape), np.zeros(t.shape)
    if weak:
        crosses, t_c, neg, pos = _shock_crossing(t, x)
        end[crosses], s_end[crosses] = neg, t_c
        second[crosses] = _foot_integral(c[crosses], pos, t_c, c[crosses], 0.0)
    total = _foot_integral(c, u, t, end, s_end)
    total += second  # in place: an ndarray, also on a size-1 call
    return total


def phi(p: Point, variant: SolutionVariant) -> float:
    """Wave potential of the requested field variant at p: a size-1 phi_array call.

    Raises OutsideDomain for the classical variant at weak-only points.
    """
    try:
        return float(phi_array(p.t, p.x, variant))
    except OutsideDomain:
        raise OutsideDomain(f"classical potential undefined at ({p.t}, {p.x})") from None


def dphidx_closed_array(t, x, variant: SolutionVariant) -> np.ndarray:
    """Closed-form spatial derivative of the potential (module docstring) at broadcast
    arrays of points; refused at the first point where the field is: on the shock
    (two-sided) for the weak variant, weak-only for the classical one."""
    t, x = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(x, dtype=float))
    weak = variant is SolutionVariant.WEAK
    _check_points(t, x)
    if weak:
        _refuse_on_shock(t, x)
    field = (psi_weak_array if weak else psi_classical_array)(t, x)
    # an ndarray, writable, also on a size-1 call
    value = np.asarray(np.log((4.0 + psi0(x + 2.0 * t)) / (4.0 + field)))
    if weak:
        crosses, _, neg, pos = _shock_crossing(t, x)
        left, right = psi0(neg), psi0(pos)
        # (v + log) - jump/4: the jump terms added one after the other
        value[crosses] = value[crosses] + np.log((4.0 + left) / (4.0 + right)) - 0.25 * (left - right)
    return value


def dphidx_closed(p: Point, variant: SolutionVariant) -> float:
    """Closed-form spatial derivative of the potential at p: a size-1 dphidx_closed_array call."""
    return float(dphidx_closed_array(p.t, p.x, variant))


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
        _refuse_on_shock(t, x)
    up, dn = phi_array(np.stack([t + h, t - h]), np.stack([x - 2.0 * h, x + 2.0 * h]), variant)
    return np.asarray((up - dn) / (2.0 * h))  # an ndarray, also on a size-1 call


def horizon_jump_probe(x, eps):
    """Change of the weak d_x(Phi) a height eps in (0, 0.05] above the Cauchy horizon at x < 2.

    The shock-crossing terms individually scale like sqrt(eps) but cancel
    at that order, so the probe decays linearly in eps (continuity and
    differentiability of d_x(Phi) across the horizon).  x and eps broadcast
    (two dphidx_closed_array calls); floats are the size-1 case."""
    x, eps = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(eps, dtype=float))
    t0, weak = 2.0 - 0.5 * x, SolutionVariant.WEAK
    with np.errstate(invalid="ignore"):  # inf - inf only where x and eps are refused
        t1 = t0 + eps
    _raise_first((  # from x = -1e150 on, the probe points (t1, x) and (t0, x) are modelled
        (~((-_MODELLED_RANGE <= x) & (x < 2.0)), DomainError,
         f"horizon probe requires {-_MODELLED_RANGE:g} <= x < 2, got {{x}}"),
        (~((0.0 < eps) & (eps <= 0.05)), DomainError, "probe offset must lie in (0, 0.05], got {eps}"),
        # within GEOM_TOL/2 of x = 2 the probe points touch the shock; the two
        # dphidx_closed_array calls below refuse them in this order
        (on_shock(t1, x), OnShockError, _ON_SHOCK.format(p="({t1}, {x})")),
        (on_shock(t0, x), OnShockError, _ON_SHOCK.format(p="({t0}, {x})")),
    ), x, eps, x=x, eps=eps, t0=t0, t1=t1)
    return _float_call(dphidx_closed_array(t1, x, weak) - dphidx_closed_array(t0, x, weak))


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
    return np.asarray(np.maximum(transport, ingoing))  # an ndarray, also on a size-1 call
