"""Independent reference values for the benchmark's correctness checks.

Nothing here imports shocklab.  Every value is recomputed from the model's
defining equations with plain numpy, by methods the package does not use:

* feet by vectorized bisection on the characteristic equation
  ``u - t*atan(u) = x - 2t`` on the branch the variant selects;
* field values ``psi = -atan(foot)``, checked as an interval: the foot of
  a correct answer solves the characteristic equation to within
  ``FOOT_RESIDUAL_TOL`` plus rounding, so the check adapts to the
  conditioning near the singular boundary and the crease;
* region tags from the curve definitions (B, C, K and the crease);
* wave potentials by Gauss-Legendre quadrature in the foot variable u,
  where the integrand is smooth (no root solve per node, no adaptivity).
"""

from __future__ import annotations

import math

import numpy as np

HALF_PI = math.pi / 2.0
EPS = np.finfo(float).eps

# A foot u is accepted when |u - t*atan(u) - (x - 2t)| <= FOOT_RESIDUAL_TOL
# plus rounding; 1e-12 is the package's scalar root tolerance, the looser of
# its two root tolerances.
FOOT_RESIDUAL_TOL = 1e-12
# A potential is accepted within PHI_TOL * (1 + |reference|); the package
# integrates to an absolute 1e-10 per evaluation.
PHI_TOL = 1e-9
# On-curve band half-width of the region map (the package's geom_tol default).
GEOM_TOL = 1e-10

_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)


# ---------------------------------------------------------------------------
# Feet
# ---------------------------------------------------------------------------

def _bisect(t, d, lo, hi, shift):
    """Root of u - t*atan(u) - d - shift, increasing on [lo, hi], per element.

    Bisects each bracket until its midpoint equals an endpoint, i.e. to
    adjacent floats, so the result does not depend on a tolerance.
    """
    shape = np.broadcast(t, d, lo, hi, shift).shape
    t, d, lo, hi, shift = (
        np.array(a, dtype=float).ravel() for a in np.broadcast_arrays(t, d, lo, hi, shift)
    )
    idx = np.arange(lo.size)
    while idx.size:
        lo_i, hi_i = lo[idx], hi[idx]
        mid = 0.5 * (lo_i + hi_i)
        live = (mid > lo_i) & (mid < hi_i)
        idx, mid = idx[live], mid[live]
        neg = (mid - t[idx] * np.arctan(mid) - d[idx] - shift[idx]) < 0.0
        lo[idx[neg]] = mid[neg]
        hi[idx[~neg]] = mid[~neg]
    return (0.5 * (lo + hi)).reshape(shape)


def _branches(t, d, right):
    """Bracket of the foot: pre-crease full line, else the chosen branch."""
    z = np.sqrt(np.maximum(t - 1.0, 0.0))
    post = t > 1.0
    lo = np.where(post & right, z, d - t * HALF_PI - 1.0)
    hi = np.where(post & ~right, -z, d + t * HALF_PI + 1.0)
    return lo, hi


def _right_branch(t, x, variant):
    """True where the point takes a foot on the right family (u >= sqrt(t-1))."""
    if variant == "weak":
        return x - 2.0 * t >= 0.0
    return x > 4.0 - 2.0 * t


def foot(t, x, variant):
    """Foot of the characteristic through (t, x) for the variant ("weak" or "classical")."""
    t, x = np.broadcast_arrays(np.asarray(t, float), np.asarray(x, float))
    d = x - 2.0 * t
    lo, hi = _branches(t, d, _right_branch(t, x, variant))
    return _bisect(t, d, lo, hi, 0.0)


def foot_interval(t, x, variant):
    """Smallest and largest foot whose residual is within tolerance."""
    t, x = np.broadcast_arrays(np.asarray(t, float), np.asarray(x, float))
    d = x - 2.0 * t
    lo, hi = _branches(t, d, _right_branch(t, x, variant))
    slack = FOOT_RESIDUAL_TOL + 16.0 * EPS * (np.abs(d) + np.abs(lo) + np.abs(hi) + t * HALF_PI)
    u_min = _bisect(t, d, lo, hi, -slack)
    u_max = _bisect(t, d, lo, hi, slack)
    return u_min, u_max


def shock_foot(t):
    """Positive foot x0 of x0 = t*atan(x0) for t > 1."""
    t = np.asarray(t, float)
    z = np.sqrt(t - 1.0)
    return _bisect(t, np.zeros_like(t), z, t * HALF_PI, 0.0)


# ---------------------------------------------------------------------------
# Regions and field values
# ---------------------------------------------------------------------------

def boundary_b(t):
    """x of the singular boundary B at t >= 1."""
    z = np.sqrt(np.maximum(t - 1.0, 0.0))
    return (2.0 - np.arctan(z)) * t + z


def region(t, x, tol=GEOM_TOL):
    """Region tag per point, on-curve tags winning within tol."""
    t, x = np.broadcast_arrays(np.asarray(t, float), np.asarray(x, float))
    xb = boundary_b(t)
    post = t > 1.0
    out = np.full(t.shape, "WeakOnly", dtype=object)
    out[post & (x > xb) & (x < 2.0 * t)] = "Wedge"
    out[t < np.maximum(0.5 * x, 2.0 - 0.5 * x)] = "OmegaA"
    out[post & (np.abs(x - (4.0 - 2.0 * t)) <= tol)] = "OnCauchyHorizon"
    out[post & (np.abs(x - xb) <= tol)] = "OnSingularBoundary"
    out[post & (np.abs(x - 2.0 * t) <= tol)] = "OnShock"
    out[(np.abs(t - 1.0) <= tol) & (np.abs(x - 2.0) <= tol)] = "OnCrease"
    out[t <= tol] = "InitialSlice"
    return out


def psi_na(t, x, variant, tol=GEOM_TOL):
    """True where the variant's field is undefined (the grid's NA cells)."""
    t, x = np.broadcast_arrays(np.asarray(t, float), np.asarray(x, float))
    if variant == "weak":
        return (t > 1.0) & (np.abs(x - 2.0 * t) <= tol)
    return region(t, x, tol) == "WeakOnly"


def psi_interval(t, x, variant):
    """Accepted range [low, high] of the field value per point."""
    u_min, u_max = foot_interval(t, x, variant)
    return -np.arctan(u_max), -np.arctan(u_min)


def in_interval(values, low, high):
    """Per-point check of field values against their accepted interval."""
    values = np.asarray(values, float)
    pad = 4.0 * EPS
    return np.isfinite(values) & (values >= low - pad) & (values <= high + pad)


# ---------------------------------------------------------------------------
# Wave potential in the foot variable
# ---------------------------------------------------------------------------

def _foot_integral(c, a, b, panels):
    """Integral of psi0(u) * dy/du over u in [a, b] along the line y + 2s = c.

    On that line the point with foot u sits at s(u) = (c - u)/(4 - atan u),
    y(u) = c - 2 s(u); integrating by parts gives
    [psi0(u) y(u)]_a^b + integral_a^b y(u)/(1 + u^2) du, whose integrand is
    smooth in u.
    """
    def y_of(c, u):
        return c - 2.0 * (c - u) / (4.0 - np.arctan(u))

    edges = np.linspace(0.0, 1.0, panels + 1)
    lo_e, hi_e = edges[:-1], edges[1:]
    # reference nodes on [0, 1]: panel-major, then Gauss node
    s = (0.5 * (lo_e + hi_e))[:, None] + (0.5 * (hi_e - lo_e))[:, None] * _GL_X[None, :]
    w = (0.5 * (hi_e - lo_e))[:, None] * _GL_W[None, :]
    s, w = s.ravel(), w.ravel()
    u = a[:, None] + (b - a)[:, None] * s[None, :]
    g = y_of(c[:, None], u) / (1.0 + u * u)
    quad = (g @ w) * (b - a)
    boundary = -np.arctan(b) * y_of(c, b) + np.arctan(a) * y_of(c, a)
    return boundary + quad


def phi(t, x, variant, panels=48):
    """Wave potential 1/2 * integral of psi along the ingoing line from (t, x).

    NaN where the classical variant is undefined.  For the weak variant
    the foot jumps from -x0 to +x0 where the line crosses the shock after
    t = 1.
    """
    t, x = np.broadcast_arrays(np.asarray(t, float).ravel(), np.asarray(x, float).ravel())
    c = x + 2.0 * t
    u_top = foot(t, x, variant)
    t_cross = 0.5 * t + 0.25 * x
    crosses = (variant == "weak") & (x < 2.0 * t) & (x > -2.0 * t) & (t_cross > 1.0)
    x0 = np.zeros_like(t)
    if crosses.any():
        x0[crosses] = shock_foot(t_cross[crosses])
    upper_a = np.where(crosses, x0, u_top)
    total = _foot_integral(c, upper_a, c, panels)
    if crosses.any():
        total[crosses] += _foot_integral(c[crosses], u_top[crosses], -x0[crosses], panels)
    out = 0.5 * total
    out[t == 0.0] = 0.0
    if variant == "classical":
        out[psi_na(t, x, "classical")] = np.nan
    return out


def phi_matches(values, reference):
    """Per-point check of potentials: NaN exactly where the reference is NaN."""
    values = np.asarray(values, float)
    reference = np.asarray(reference, float)
    na_ref = np.isnan(reference)
    na_val = np.isnan(values)
    close = np.abs(values - reference) <= PHI_TOL * (1.0 + np.abs(reference))
    return np.where(na_ref, na_val, ~na_val & close)
