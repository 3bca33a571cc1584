"""Quantitative verification of the model's structural claims.

Each check turns one mathematical claim into a number with a threshold:
the distributional (weak-form) identity against compactly supported test
functions, the one-sided entropy condition, the jump and admissibility
conditions on the shock, power-law fits of the boundary degeneracies,
frame nullness and boundary tangency, causal-bubble membership, the
first-order-system residual, cross-solution agreement and disagreement,
and the independent finite-volume oracle.  A suite run aggregates the
results into a machine-readable report with one pass/fail line per check.

The weak-form residual integrates in each characteristic family's foot
variable u, where the field is psi0(u): only interval ends need a foot solve.

Sampling is deterministic: a Halton sequence (bases 2 and 3) offset by the
seed (the seed skips that many indices, so nearby seeds share almost every
candidate), filtered through the region classifier, so reports reproduce
bit-for-bit for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    _MODELLED_RANGE,
    GEOM_TOL,
    DomainError,
    OutsideDomain,
    Point,
    PoorFit,
    SolutionVariant,
    gauss_panel,
    psi0,
)
from .characteristics import (
    BoundaryCurve,
    RegionTag,
    _focus_foot,
    _solve_feet,
    _x_B,
    boundary_x,
    classify_array,
    shock_feet,
)
from .burgers import (
    expansion_near_B,
    psi_boundary_extension,
    psi_classical,
    psi_classical_array,
    psi_weak_array,
    shock_trace,
)
from .geometry import (
    CausalClass,
    _class_of_norm,
    bubble_witness,
    causal_past_contains,
    inverse_metric,
    metric,
    shock_tangent_norms,
    tangency_residual_B,
    timelike_past_contains,
    horizon_null_check,
)
from .wave_potential import (
    horizon_jump_probe,
    pde_residual_classical,
    phi,
)
from . import godunov as fv

__all__ = [
    "TestFunction",
    "FitReport",
    "CheckResult",
    "Report",
    "halton",
    "weak_form_residual",
    "lax_gaps",
    "boundary_fit",
    "horizon_fit",
    "dyadic_offsets",
    "SUITE_NAMES",
    "run_suite",
]

_HALF_PI = math.pi / 2.0
WEDGE_PROBE = Point(1.27, 2.5)
# Least r^2 a power-law fit must reach.
_R2_MIN = 0.999
# 50 log-spaced times from just past the crease to t = 100.
_LOG_TIMES = np.exp(np.linspace(math.log(1.001), math.log(100.0), 50))


# ---------------------------------------------------------------------------
# Deterministic low-discrepancy sampling
# ---------------------------------------------------------------------------

def halton(n: int, skip: int = 0) -> np.ndarray:
    """First n points of the 2D Halton sequence (bases 2, 3) after `skip`."""
    cols = []
    for base in (2, 3):
        # radical inverse of every index at once; finished indices add 0.0.
        # The digit weight f is the same for every index, so it is one float.
        i = np.arange(skip + 1, skip + n + 1)
        f, r = 1.0, np.zeros(n)
        while np.any(i > 0):
            f /= base
            i, digit = np.divmod(i, base)
            r += f * digit
        cols.append(r)
    return np.column_stack(cols)


def _sample(n: int, box, skip: int, keep) -> tuple[np.ndarray, np.ndarray]:
    """First n Halton points of the box (t_lo, t_hi, x_lo, x_hi) where keep(t, x, tags) holds,
    from at most 64 batches; a Halton point depends only on its index, not on its batch."""
    t_lo, t_hi, x_lo, x_hi = box
    ts, xs = np.empty(0), np.empty(0)
    for cursor in range(skip, skip + 4096 * 64, 4096):
        batch = halton(4096, skip=cursor)
        cand_t, cand_x = (np.array([t_lo, x_lo]) + batch * np.array([t_hi - t_lo, x_hi - x_lo])).T
        hits = np.flatnonzero(keep(cand_t, cand_x, classify_array(cand_t, cand_x)))
        ts, xs = np.append(ts, cand_t[hits]), np.append(xs, cand_x[hits])
        if len(ts) >= n:
            return ts[:n], xs[:n]
    raise DomainError(f"could not collect {n} sample points in the box {box}")


# ---------------------------------------------------------------------------
# Test functions and the weak-form identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestFunction:
    """Tensor bump (1 - s^2)^3 per coordinate, centered with given radii.

    Compactly supported and C^2, polynomial on its support, so tensor
    Gauss panels integrate it without mollifier error.
    """

    __test__ = False  # not a pytest class, despite the name

    center: Point
    radii: tuple[float, float]

    def __post_init__(self):
        if len(self.radii) != 2:
            raise DomainError(f"a test function takes two radii (t, x), got {self.radii}")
        if not all(0.0 < r < math.inf for r in self.radii):  # NaN fails both comparisons
            raise DomainError(f"test-function radii must be finite and positive, got {self.radii}")
        t_lo, t_hi, x_lo, x_hi = self.support
        if max(t_hi, -x_lo, x_hi) > _MODELLED_RANGE:
            raise DomainError(
                f"test-function support {self.support} is beyond the modelled range t, |x| <= {_MODELLED_RANGE:g}"
            )
        if not (t_lo < t_hi and x_lo < x_hi):  # a radius below half an ulp of its center
            raise DomainError(f"test-function support {self.support} is empty")

    @staticmethod
    def _bump(s):
        """The bump (1 - s^2)^3 and its slope -6s(1 - s^2)^2, both 0 off
        |s| < 1: s clipped to [-1, 1] gives q = 1 - s^2 = 0 there, and far
        off the support s^2 cannot overflow."""
        s = np.clip(s, -1.0, 1.0)
        q = 1.0 - s * s
        return q ** 3, -6.0 * s * q ** 2

    def value(self, t, x):
        return self._bump((t - self.center.t) / self.radii[0])[0] * self._bump(
            (x - self.center.x) / self.radii[1]
        )[0]

    def gradient(self, t, x):
        """(d_t phi, d_x phi) at (t, x), broadcast over arrays.

        Each coordinate's scaled offset, its |s| < 1 and its 1 - s^2 are
        formed once and serve both partials.
        """
        bt, dbt = self._bump((t - self.center.t) / self.radii[0])
        bx, dbx = self._bump((x - self.center.x) / self.radii[1])
        return dbt / self.radii[0] * bx, bt * dbx / self.radii[1]

    @property
    def support(self) -> tuple[float, float, float, float]:
        return (
            self.center.t - self.radii[0],
            self.center.t + self.radii[0],
            self.center.x - self.radii[1],
            self.center.x + self.radii[1],
        )


def _panels(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of n uniform 15-point Gauss-Legendre panels on [0, 1]."""
    nodes, weights = gauss_panel(0.0, 1.0)
    return ((np.arange(n)[:, None] + nodes) / n).ravel(), np.tile(weights / n, n)


def _t_rule(t_lo: float, t_hi: float, breaks, n_panels: int) -> tuple[np.ndarray, np.ndarray]:
    """About n_panels Gauss panels on [t_lo, t_hi], split at the breaks inside it; pieces
    past t = 1 are uniform in s = sqrt(t - 1), in which the shock feet are analytic."""
    edges = sorted({t_lo, t_hi, *(b for b in breaks if t_lo < b < t_hi)})
    ts, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        frac, w = _panels(max(1, math.ceil(n_panels * (b - a) / (t_hi - t_lo))))
        if a < 1.0:
            ts.append(a + (b - a) * frac)
            ws.append((b - a) * w)
        else:
            s_a, s_b = math.sqrt(a - 1.0), math.sqrt(b - 1.0)
            s = s_a + (s_b - s_a) * frac
            ts.append(1.0 + s * s)
            ws.append(2.0 * s * (s_b - s_a) * w)
    return np.concatenate(ts), np.concatenate(ws)


def weak_form_residual(
    variant: SolutionVariant,
    tf: TestFunction,
    nt_panels: int = 16,
    nx_panels: int = 16,
    shock_shift: float = 0.0,
) -> float:
    """Distributional residual of the field equation against one test function.

    Integrates psi * d_t(phi) + (2+psi)^2/2 * d_x(phi) over the support
    intersected with t >= 0, plus the initial-slice term when the support
    touches t = 0.  Each t-node's x-integral runs in the foot variable u
    (x = 2t + u - t*arctan(u), psi = psi0(u)): past t = 1 over [x_lo, k] on
    the left family and [k, x_hi] on the right, k = 2t + shock_shift clipped
    to the support; the classical field keeps one family.  A nonzero
    shock_shift (negative control) breaks the Rankine-Hugoniot cancellation.
    """
    if nt_panels < 1 or nx_panels < 1:
        raise DomainError("need at least one panel per axis")
    if not math.isfinite(shock_shift):
        raise DomainError(f"shock_shift must be finite, got {shock_shift}")
    t_lo, t_hi, x_lo, x_hi = tf.support
    t_lo = max(t_lo, 0.0)
    classical = variant is SolutionVariant.CLASSICAL
    if classical:
        _require_support_classical(tf)
    t, wt = _t_rule(t_lo, t_hi, (1.0, 0.5 * (x_lo - shock_shift), 0.5 * (x_hi - shock_shift)), nt_panels)
    post = t > 1.0
    if classical:  # left of the horizon the left family, else the right one
        k = np.where(post & (x_hi <= 4.0 - 2.0 * t + GEOM_TOL), x_hi, x_lo)
    else:
        k = np.where(post, np.clip(2.0 * t + shock_shift, x_lo, x_hi), x_lo)
    left, right = k > x_lo, k < x_hi
    dk = k - 2.0 * t
    z = _focus_foot(t)
    beyond = (left & (dk > 0.0)) | (right & (dk < 0.0))
    if np.any(post & beyond & (np.abs(dk) >= t * np.arctan(z) - z)):
        raise DomainError("the shifted cut lies beyond its family's reach")
    # the nonempty intervals [xa, xb], left ones first; up to t = 1 a foot takes the sign of x - 2t
    ti, wi = np.concatenate([t[left], t[right]]), np.concatenate([wt[left], wt[right]])
    xa = np.concatenate([np.full(left.sum(), x_lo), k[right]])
    xb = np.concatenate([k[left], np.full(right.sum(), x_hi)])
    te = np.tile(ti, 2)
    de = np.concatenate([xa, xb]) - 2.0 * te
    fam = np.where(te > 1.0, np.tile(np.arange(ti.size) >= left.sum(), 2), de > 0.0)
    ua, ub = np.split(_solve_feet(te, de, fam), 2)
    frac, wu = _panels(nx_panels)
    total = 0.0
    for rows in np.array_split(np.arange(ti.size), math.ceil(ti.size / 32)):  # small temporaries
        tr, u = ti[rows, None], ua[rows, None] + (ub - ua)[rows, None] * frac
        a = np.arctan(u)
        x, p = 2.0 * tr + u - tr * a, -a  # p = psi0(u)
        phi_t, phi_x = tf.gradient(tr, x)
        f = (p * phi_t + 0.5 * (2.0 + p) ** 2 * phi_x) * (1.0 - tr / (1.0 + u * u))
        total += float(np.dot(wi[rows] * (ub - ua)[rows], f @ wu))
    if tf.center.t - tf.radii[0] < 0.0:
        xn = x_lo + (x_hi - x_lo) * frac
        total += (x_hi - x_lo) * float(np.dot(wu, psi0(xn) * tf.value(0.0, xn)))
    return total


def _require_support_classical(tf: TestFunction) -> None:
    """Reject supports that poke into the weak-only region.

    The weak-only interval (4 - 2t, x_B(t)) only grows with t, since
    dx_B/dt = 2 - arctan(sqrt(t-1)) > 0, so testing the support's last time
    suffices.
    """
    _, t_hi, x_lo, x_hi = tf.support
    if t_hi <= 1.0:
        return
    xb = boundary_x(BoundaryCurve.SINGULAR_BOUNDARY, t_hi)
    xh = 4.0 - 2.0 * t_hi
    if x_lo < xb - GEOM_TOL and x_hi > xh + GEOM_TOL:
        raise OutsideDomain("test-function support leaves the classical domain")


# ---------------------------------------------------------------------------
# Admissibility gaps on the shock
# ---------------------------------------------------------------------------

def lax_gaps(t):
    """Admissibility gaps (speed - right characteristic, left characteristic - speed).

    Both are strictly positive for t > 1 and both equal arctan of the
    positive shock foot, to within the rounding of 2 +/- that arctan,
    degenerating to zero at the crease.  The classical value right of the
    shock is the trace's right value, the field at the positive foot: it is
    defined for every shock time in the modelled range, where 2t may not be.
    An array of times gives two arrays, from one batched foot solve.
    """
    trace = shock_trace(t)
    lower = trace.speed - (2.0 + trace.right_value)
    upper = (2.0 + trace.left_value) - trace.speed
    return lower, upper


# ---------------------------------------------------------------------------
# Power-law fits of the boundary degeneracies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitReport:
    """Log-log least-squares fit value ~ coefficient * offset**exponent."""

    exponent: float
    coefficient: float
    r_squared: float
    samples: tuple[tuple[float, float], ...]


def dyadic_offsets(start: float, count: int) -> tuple[float, ...]:
    """Strictly decreasing offsets start * 2**-k, k = 0..count-1."""
    return tuple(start * 2.0 ** -k for k in range(count))


def _fit(offsets, values_at) -> FitReport:
    """Power law of values_at(offsets) against the offsets.

    At least 3 offsets, strictly decreasing inside the validated window
    [1e-8, 1e-2]: fewer cannot test a two-parameter fit.  The first offset
    whose value is not finite and positive (no point of a log-log fit)
    raises DomainError, and PoorFit is raised when r^2 falls below 0.999.
    """
    offsets = tuple(float(d) for d in offsets)
    if len(offsets) < 3:
        raise DomainError(f"need at least 3 offsets, got {len(offsets)}")
    if any(b >= a for a, b in zip(offsets, offsets[1:])):
        raise DomainError("offsets must be strictly decreasing")
    if offsets[0] > 1e-2 + 1e-15 or offsets[-1] < 1e-8 - 1e-22:
        raise DomainError("offsets outside the validated window [1e-8, 1e-2]")
    vals = values_at(offsets)
    for d, v in zip(offsets, vals):
        if not 0.0 < v < math.inf:
            raise DomainError(f"fit value at offset {d!r} is {float(v)!r}, not finite and positive")
    lx, ly = np.log(np.array(offsets)), np.log(vals)
    A = np.vstack([lx, np.ones_like(lx)]).T
    (slope, intercept), res, _, _ = np.linalg.lstsq(A, ly, rcond=None)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    ss_res = float(res[0]) if len(res) else float(np.sum((ly - A @ [slope, intercept]) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    if r2 < _R2_MIN:
        raise PoorFit(f"power-law fit r^2 = {r2:.6f} < {_R2_MIN}")
    return FitReport(
        exponent=float(slope),
        coefficient=math.exp(intercept),
        r_squared=r2,
        samples=tuple(zip(offsets, (float(v) for v in vals))),
    )


def boundary_fit(t_bar: float, offsets) -> FitReport:
    """Fitted power law of the field drop right of the singular boundary at fixed time t_bar >= 1.

    A square root is expected for t_bar > 1; t_bar = 1 is B's end at the
    crease (1, 2), where a cube root is expected.
    """
    x_bar = boundary_x(BoundaryCurve.SINGULAR_BOUNDARY, t_bar)
    _, v0 = psi_boundary_extension(_focus_foot(t_bar))
    return _fit(offsets, lambda d: np.abs(psi_classical_array(t_bar, x_bar + np.array(d)) - v0))


def horizon_fit(x: float, offsets) -> FitReport:
    """Fitted power law of the potential-derivative probe at fixed x, the offsets above the Cauchy horizon."""
    return _fit(offsets, lambda d: np.abs(horizon_jump_probe(x, np.array(d))))


# ---------------------------------------------------------------------------
# Suite runner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    threshold: float
    claim: str


def _at_most(name: str, measured: float, threshold: float, claim: str) -> CheckResult:
    """The check that measured <= threshold."""
    return CheckResult(name, measured <= threshold, measured, threshold, claim)


def _power_law(name: str, fit: FitReport, exponent: float, coefficient: float, claim: str) -> CheckResult:
    """The check that a fit's exponent is within 0.02 of `exponent` and its coefficient within 5 %."""
    ok = abs(fit.exponent - exponent) <= 0.02 and abs(fit.coefficient / coefficient - 1.0) <= 0.05
    return CheckResult(name, ok, fit.exponent, exponent, claim)


@dataclass
class Report:
    seed: int
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def n_passed(self) -> int:
        return sum(1 for c in self.checks if c.passed)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "policy": {"geom_tol": GEOM_TOL},
            "checks": [
                {
                    "name": c.name,
                    "status": "pass" if c.passed else "fail",
                    "measured": c.measured,
                    "threshold": c.threshold,
                    "claim": c.claim,
                }
                for c in self.checks
            ],
            "summary": {
                "passed": self.n_passed,
                "failed": len(self.checks) - self.n_passed,
                "total": len(self.checks),
            },
        }


def _suite_rh(seed: int) -> list[CheckResult]:
    # |shock speed - mean of the one-sided characteristic speeds| at the 50 times, one batched foot solve
    trace = shock_trace(_LOG_TIMES)
    mean_speed = 0.5 * ((2.0 + trace.left_value) + (2.0 + trace.right_value))
    worst = float(np.max(np.abs(trace.speed - mean_speed)))
    return [_at_most(
        "rankine_hugoniot", worst, 1e-11, "shock speed equals the mean of the one-sided characteristic speeds",
    )]


def _suite_lax(seed: int) -> list[CheckResult]:
    # the 50 times and, last, one just past the crease, in one batch
    lower, upper = lax_gaps(np.append(_LOG_TIMES, 1.0 + 1e-6))
    near = float(max(lower[-1], upper[-1]))
    lower, upper = lower[:-1], upper[:-1]
    # math.atan: np.arctan may round differently
    expected = np.array([math.atan(x0) for x0 in shock_feet(_LOG_TIMES)[1].tolist()])
    dev = float(np.max(np.maximum(np.abs(lower - expected), np.abs(upper - expected))))
    min_gap = float(min(lower.min(), upper.min()))
    results = [
        CheckResult(
            "lax_gaps_match_feet", dev <= 1e-10 and min_gap > 0.0, dev, 1e-10,
            "both admissibility gaps are positive and equal arctan of the shock foot",
        ),
        CheckResult(
            "lax_gaps_crease_limit", near < 2e-3, near, 2e-3,
            "admissibility gaps vanish at the crease",
        ),
    ]
    return results


def _suite_oleinik(seed: int) -> list[CheckResult]:
    # the forward quotients of 400 pairs in [-10, 10] at four times, from one field call: the
    # entropy field is nonincreasing in x, which is stronger than the one-sided bound 1 + 1/t
    xs = np.linspace(-10.0, 10.0, 401)
    vals = psi_weak_array(np.array([[0.5], [1.0], [2.0], [5.0]]), xs)
    worst = float(np.max(np.diff(vals, axis=1) / np.diff(xs)))
    return [_at_most(
        "oleinik_one_sided", worst, 1e-10, "forward difference quotients of the entropy field are nonpositive",
    )]


def standard_test_functions() -> list[TestFunction]:
    """Ten deterministic test functions: three straddling the shock, two
    touching the initial slice, five in mixed smooth regions."""
    return [
        TestFunction(Point(2.0, 4.0), (0.4, 0.8)),      # straddles K
        TestFunction(Point(1.5, 3.0), (0.3, 0.6)),      # straddles K near crease
        TestFunction(Point(3.0, 6.0), (0.5, 1.2)),      # straddles K, late
        TestFunction(Point(0.3, 1.0), (0.5, 1.5)),      # touches t = 0
        TestFunction(Point(0.2, -3.0), (0.4, 1.0)),     # touches t = 0
        TestFunction(Point(0.5, 0.0), (0.3, 1.0)),
        TestFunction(Point(1.1, 2.2), (0.3, 0.5)),      # near the crease
        TestFunction(Point(2.0, -1.0), (0.5, 1.0)),     # above the horizon
        TestFunction(Point(0.8, 5.0), (0.2, 0.7)),
        TestFunction(Point(1.6, 1.0), (0.4, 0.9)),
    ]


def _suite_weakform(seed: int) -> list[CheckResult]:
    worst = max(
        abs(weak_form_residual(SolutionVariant.WEAK, tf))
        for tf in standard_test_functions()
    )
    control = abs(weak_form_residual(
        SolutionVariant.WEAK, TestFunction(Point(2.0, 4.0), (0.4, 0.8)), shock_shift=0.05,
    ))
    return [
        _at_most(
            "weak_form_identity", worst, 1e-6,
            "the entropy field satisfies the divergence-form equation distributionally",
        ),
        CheckResult(
            "weak_form_negative_control", control >= 1e-3, control, 1e-3,
            "a displaced shock breaks the distributional identity (test has power)",
        ),
    ]


def _suite_holder(seed: int) -> list[CheckResult]:
    out = [_power_law(
        "holder_crease", boundary_fit(1.0, dyadic_offsets(1e-3, 11)), 1.0 / 3.0, 3.0 ** (1.0 / 3.0),
        "cube-root field profile at the crease with coefficient 3^(1/3)",
    )]
    for t_bar in (1.5, 2.0, 5.0):
        out.append(_power_law(
            f"holder_singular_boundary_t{t_bar}", boundary_fit(t_bar, dyadic_offsets(1e-4, 11)),
            0.5, abs(expansion_near_B(t_bar).leading_coefficient),
            "square-root field profile transverse to the singular boundary",
        ))
    for x in (-2.0, 0.0, 1.0):
        out.append(_power_law(
            f"holder_horizon_x{x}", horizon_fit(x, dyadic_offsets(1e-2, 11)), 0.5, math.sqrt(6.0),
            "potential-derivative probe above the Cauchy horizon: sqrt profile with "
            "coefficient sqrt(6); expected to fail, since the oracle-verified "
            "derivative is differentiable there and the probe decays linearly "
            "(see README, Known deviations)",
        ))
    return out


def _suite_tangency(seed: int) -> list[CheckResult]:
    worst = float(np.max(tangency_residual_B(_LOG_TIMES)))
    return [_at_most(
        "boundary_tangency", worst, 1e-10, "the extended outgoing speed matches the singular-boundary slope",
    )]


def _suite_nullness(seed: int) -> list[CheckResult]:
    p = np.linspace(-_HALF_PI + 1e-6, _HALF_PI - 1e-6, 10_000)
    g, inv = metric(p), inverse_metric(p)
    gtt, gtx, gxx = g.gtt, g.gtx, g.gxx
    # frame norms: L = (1, 2+p), Lbar = (1, -2)
    gLL = gtt + 2.0 * gtx * (2.0 + p) + gxx * (2.0 + p) ** 2
    gBB = gtt - 4.0 * gtx + 4.0 * gxx
    worst_null = float(np.max(np.maximum(np.abs(gLL), np.abs(gBB))))
    worst_det = float(np.max(g.det))
    # product with the inverse, componentwise
    itt, itx, ixx = np.broadcast_arrays(inv.gtt, inv.gtx, inv.gxx)
    prod = np.stack([
        gtt * itt + gtx * itx - 1.0,
        gtt * itx + gtx * ixx,
        gtx * itt + gxx * itx,
        gtx * itx + gxx * ixx - 1.0,
    ])
    worst_inv = float(np.max(np.abs(prod)))
    # inverse-metric decomposition -(L@Lbar + Lbar@L)/2
    dec = np.stack([
        itt + 1.0,
        itx + 0.5 * (-2.0 + (2.0 + p)),
        ixx + (2.0 + p) * (-2.0),
    ])
    worst_dec = float(np.max(np.abs(dec)))
    horizon = float(np.max(horizon_null_check(np.array([1.5, 3.0, 10.0]))))
    return [
        _at_most("frame_nullness", worst_null, 1e-13, "both frame directions are null for every field value"),
        CheckResult(
            "lorentzian_signature", worst_det < 0.0, worst_det, 0.0,
            "the metric determinant is negative on the field range",
        ),
        _at_most("inverse_metric_identity", worst_inv, 1e-13, "metric times inverse metric is the identity"),
        _at_most(
            "inverse_metric_decomposition", worst_dec, 1e-13, "the inverse metric equals -(L@Lbar + Lbar@L)/2",
        ),
        _at_most(
            "horizon_nullness", horizon, 1e-13, "the Cauchy horizon tangent is null for the extended metric",
        ),
    ]


def _suite_bubble(seed: int) -> list[CheckResult]:
    # witnesses of five apexes up B, and (1, 2.1) below the apex (2, 5 - pi/2): one array call each
    apex, _ = psi_boundary_extension(np.array([0.25, 0.5, 1.0, 2.0, 4.0]))
    q = bubble_witness(apex)
    apex = Point(np.append(apex.t, 2.0), np.append(apex.x, 5.0 - _HALF_PI))
    q = Point(np.append(q.t, 1.0), np.append(q.x, 2.1))
    ok = bool(np.all(causal_past_contains(apex, q) & ~timelike_past_contains(apex, q)))
    # the 50 times and, last, the reference time 4/pi, in one batch
    right, left = shock_tangent_norms(np.append(_LOG_TIMES, 4.0 / math.pi))
    sc_ok = bool(np.all(_class_of_norm(right[:-1]) == CausalClass.SPACELIKE)
                 and np.all(_class_of_norm(left[:-1]) == CausalClass.TIMELIKE))
    right, left = float(right[-1]), float(left[-1])
    exp_right = -16.0 * (-math.pi / 4.0) / (4.0 - math.pi / 4.0) ** 2
    exp_left = -16.0 * (math.pi / 4.0) / (4.0 + math.pi / 4.0) ** 2
    val_dev = max(abs(right - exp_right), abs(left - exp_left))
    return [
        CheckResult(
            "causal_bubbles", ok, 1.0 if ok else 0.0, 1.0,
            "every singular-boundary point has a causal-but-not-timelike past region",
        ),
        CheckResult(
            "shock_causal_character", sc_ok and val_dev <= 1e-3, val_dev, 1e-3,
            "the shock tangent is spacelike for the pre-shock metric and "
            "timelike for the post-shock metric, with the exact tangent norms",
        ),
    ]


def _pde_margins(t, x, tags) -> np.ndarray:
    """Interior points 0.05 off the crease, (wedge) B and, left of the shock past t = 1, C."""
    x_b = _x_B(t)
    return (
        ((tags == RegionTag.OMEGA_A) | ((tags == RegionTag.WEDGE) & (x - x_b >= 0.05)))
        & (np.hypot(t - 1.0, x - 2.0) >= 0.05)
        & ~((t > 1.0) & (x < 2.0 * t) & (np.abs((4.0 - 2.0 * t) - x) < 0.05))
    )


def _suite_pde(seed: int) -> list[CheckResult]:
    t, x = _sample(200, (0.1, 2.5, -6.0, 8.0), seed, _pde_margins)
    h = 1e-5 * np.maximum(np.maximum(1.0, np.abs(t)), np.abs(x))
    worst = float(np.max(pde_residual_classical(t, x, h)))
    # second order at 10 points: one call with the steps 4e-3 and 2e-3
    r_coarse, r_fine = pde_residual_classical(0.7, 1.1 + 0.08 * np.arange(10), np.array([[4e-3], [2e-3]]))
    min_order = min(map(math.log2, r_coarse[r_fine > 0] / r_fine[r_fine > 0]))
    return [
        _at_most(
            "pde_residual", worst, 1e-6,
            "the classical pair satisfies the first-order system to finite-difference accuracy",
        ),
        CheckResult(
            "pde_fd_order", min_order >= 1.9, min_order, 1.9,
            "the finite-difference residual converges at second order",
        ),
    ]


def _suite_agreement(seed: int) -> list[CheckResult]:
    # 1000 points where the two fields must agree, 1000 in the wedge where they must differ
    ta, xa = _sample(1000, (0.05, 3.0, -8.0, 8.0), seed, lambda t, x, tags: tags == RegionTag.OMEGA_A)
    gap_a = float(np.max(np.abs(psi_classical_array(ta, xa) - psi_weak_array(ta, xa))))
    tw, xw = _sample(1000, (1.02, 5.0, 2.0, 11.0), seed + 1, lambda t, x, tags: tags == RegionTag.WEDGE)
    gap_w = float(np.min(psi_weak_array(tw, xw) - psi_classical_array(tw, xw)))
    gap_phi = abs(phi(WEDGE_PROBE, SolutionVariant.WEAK) - phi(WEDGE_PROBE, SolutionVariant.CLASSICAL))
    return [
        _at_most(
            "agreement_region", gap_a, 1e-11,
            "classical and entropy fields agree below the shock and horizon",
        ),
        CheckResult(
            "wedge_disagreement", gap_w > 0.0, gap_w, 0.0,
            "the entropy field strictly exceeds the classical one in the wedge",
        ),
        CheckResult(
            "potential_disagreement", gap_phi >= 1e-4, gap_phi, 1e-4,
            "the two wave potentials differ at the wedge probe point",
        ),
    ]


def _suite_godunov(seed: int) -> list[CheckResult]:
    # each march solves its own ghost fills ahead, in windows of predicted fill times
    (s4,) = fv.solve_at((2.0,), fv.initial_state(4000))
    sw, s8 = fv.solve_at((WEDGE_PROBE.t, 2.0), fv.initial_state(8000))
    e4 = fv.l1_error(s4)
    e8 = fv.l1_error(s8)
    i = int(np.argmin(np.abs(sw.cell_centers - WEDGE_PROBE.x)))
    u = float(sw.cell_averages[i])
    pw = float(psi_weak_array(np.array([WEDGE_PROBE.t]), np.array([WEDGE_PROBE.x]))[0])
    pc = psi_classical(WEDGE_PROBE)
    entropy_ok = abs(u - pw) <= 0.05 and abs(u - pc) >= 0.5
    return [
        _at_most("godunov_l1", e4, 1e-2, "the monotone scheme converges to the entropy field in L1"),
        _at_most("godunov_l1_ratio", e8 / e4, 0.75, "the L1 error keeps decreasing under refinement"),
        CheckResult(
            "godunov_entropy_selection", entropy_ok, abs(u - pw), 0.05,
            "the scheme selects the entropy branch, not the classical one, in the wedge",
        ),
    ]


_SUITES = {
    "rh": _suite_rh,
    "lax": _suite_lax,
    "oleinik": _suite_oleinik,
    "holder": _suite_holder,
    "weakform": _suite_weakform,
    "tangency": _suite_tangency,
    "nullness": _suite_nullness,
    "bubble": _suite_bubble,
    "pde": _suite_pde,
    "agreement": _suite_agreement,
    "godunov": _suite_godunov,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(suite: str = "all", seed: int = 0) -> Report:
    """Run one named check suite (or all of them) and return the report."""
    if suite == "all":
        names = SUITE_NAMES
    elif suite in _SUITES:
        names = (suite,)
    else:
        raise DomainError(f"unknown suite {suite!r}; choose from {('all',) + SUITE_NAMES}")
    # the sampler reads Halton indices up to about seed + 2**18, which must fit in int64
    if not 0 <= seed <= 2**62:
        raise DomainError(f"seed must lie in [0, 2**62], got {seed}")
    report = Report(seed=seed)
    for name in names:
        report.checks.extend(_SUITES[name](seed))
    return report
