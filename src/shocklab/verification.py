"""Quantitative verification of the model's structural claims.

Each check turns one mathematical claim into a number with a threshold:
the distributional (weak-form) identity against compactly supported test
functions, the one-sided entropy condition, the jump and admissibility
conditions on the shock, power-law fits of the boundary degeneracies,
frame nullness and boundary tangency, causal-bubble membership, the
first-order-system residual, cross-solution agreement/disagreement scans,
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

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
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
    _bracket,
    _solve_feet,
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
    "OleinikReport",
    "AgreementReport",
    "HolderTarget",
    "CheckResult",
    "Report",
    "halton",
    "weak_form_residual",
    "oleinik_scan",
    "rh_residual",
    "lax_gaps",
    "holder_fit",
    "dyadic_offsets",
    "agreement_disagreement_scan",
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
        # radical inverse of every index at once; finished indices add 0.0
        i = np.arange(skip + 1, skip + n + 1)
        f, r = np.ones(n), np.zeros(n)
        while np.any(i > 0):
            f /= base
            r += f * (i % base)
            i //= base
        cols.append(r)
    return np.column_stack(cols)


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
        if self.radii[0] <= 0.0 or self.radii[1] <= 0.0:
            raise DomainError("test-function radii must be positive")

    @staticmethod
    def _bump(s):
        return np.where(np.abs(s) < 1.0, (1.0 - s * s) ** 3, 0.0)

    @staticmethod
    def _dbump(s):
        return np.where(np.abs(s) < 1.0, -6.0 * s * (1.0 - s * s) ** 2, 0.0)

    def value(self, t, x):
        return self._bump((t - self.center.t) / self.radii[0]) * self._bump(
            (x - self.center.x) / self.radii[1]
        )

    def dt(self, t, x):
        return (
            self._dbump((t - self.center.t) / self.radii[0])
            / self.radii[0]
            * self._bump((x - self.center.x) / self.radii[1])
        )

    def dx(self, t, x):
        return self._bump((t - self.center.t) / self.radii[0]) * self._dbump(
            (x - self.center.x) / self.radii[1]
        ) / self.radii[1]

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
    z = np.sqrt(np.maximum(t - 1.0, 0.0))
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
    ua, ub = np.split(_solve_feet(te, de, *_bracket(te, de, fam)), 2)
    frac, wu = _panels(nx_panels)
    total = 0.0
    for rows in np.array_split(np.arange(ti.size), math.ceil(ti.size / 32)):  # small temporaries
        tr, u = ti[rows, None], ua[rows, None] + (ub - ua)[rows, None] * frac
        x, p = 2.0 * tr + u - tr * np.arctan(u), psi0(u)
        f = (p * tf.dt(tr, x) + 0.5 * (2.0 + p) ** 2 * tf.dx(tr, x)) * (1.0 - tr / (1.0 + u * u))
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
# Entropy, jump, and admissibility checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OleinikReport:
    """Forward difference-quotient scan of the entropy field at fixed time."""

    t: float
    max_quotient: float
    n_pairs: int

    def bound(self) -> float:
        return 1.0 + 1.0 / self.t


def oleinik_scan(t: float, x_range: tuple[float, float], n: int) -> OleinikReport:
    """Max forward difference quotient over n consecutive pairs in x_range.

    The entropy field is nonincreasing in x at fixed t, so the maximum is
    <= 0 up to root-solver noise: strictly stronger than the one-sided
    bound C (1 + 1/t) for any C > 0 (bound() reports it for C = 1).
    """
    if n < 2:
        raise DomainError("need at least 2 sample pairs")
    if t <= 0.0:
        raise DomainError("scan time must be positive")
    xs = np.linspace(x_range[0], x_range[1], n + 1)
    vals = psi_weak_array(t, xs)
    quot = np.diff(vals) / np.diff(xs)
    return OleinikReport(t=t, max_quotient=float(np.max(quot)), n_pairs=n)


def rh_residual(t: float) -> float:
    """|shock speed - mean of one-sided characteristic speeds| at time t > 1."""
    trace = shock_trace(t)
    mean_speed = 0.5 * ((2.0 + trace.left_value) + (2.0 + trace.right_value))
    return abs(trace.speed - mean_speed)


def lax_gaps(t: float) -> tuple[float, float]:
    """Admissibility gaps (speed - right characteristic, left characteristic - speed).

    Both are strictly positive for t > 1 and both equal arctan of the
    positive shock foot, degenerating to zero at the crease.
    """
    trace = shock_trace(t)
    psi_right_classical = psi_classical(Point(t, 2.0 * t))
    lower = trace.speed - (2.0 + psi_right_classical)
    upper = (2.0 + trace.left_value) - trace.speed
    return lower, upper


# ---------------------------------------------------------------------------
# Power-law fits of the boundary degeneracies
# ---------------------------------------------------------------------------

class HolderTarget(enum.Enum):
    CREASE_SPATIAL = "CreaseSpatial"
    SINGULAR_BOUNDARY_SPATIAL = "SingularBoundarySpatial"
    HORIZON_JUMP = "HorizonJump"


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


def _fit_power_law(offsets, values) -> tuple[float, float, float]:
    lx = np.log(np.asarray(offsets, dtype=float))
    ly = np.log(np.asarray(values, dtype=float))
    A = np.vstack([lx, np.ones_like(lx)]).T
    (slope, intercept), res, _, _ = np.linalg.lstsq(A, ly, rcond=None)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    ss_res = float(res[0]) if len(res) else float(np.sum((ly - A @ [slope, intercept]) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(math.exp(intercept)), r2


def holder_fit(target: HolderTarget, base, offsets) -> FitReport:
    """Fitted power law of a boundary degeneracy.

    SINGULAR_BOUNDARY_SPATIAL: field drop right of the boundary at fixed
    time `base` (square root expected).  CREASE_SPATIAL: the same drop at
    B's t = 1 end, the crease (1, 2), which `base` must be (cube root
    expected).  HORIZON_JUMP: the potential derivative probe above the
    horizon at fixed x = `base`.

    Offsets must be strictly decreasing inside the validated window
    [1e-8, 1e-2]; raises PoorFit when r^2 falls below 0.999.
    """
    offsets = tuple(float(d) for d in offsets)
    if any(b >= a for a, b in zip(offsets, offsets[1:])):
        raise DomainError("offsets must be strictly decreasing")
    if offsets[0] > 1e-2 + 1e-15 or offsets[-1] < 1e-8 - 1e-22:
        raise DomainError("offsets outside the validated window [1e-8, 1e-2]")

    if target is HolderTarget.HORIZON_JUMP:
        x = float(base)
        vals = np.array([abs(horizon_jump_probe(x, d)) for d in offsets])
    else:
        if target is HolderTarget.CREASE_SPATIAL:
            if not isinstance(base, Point) or abs(base.t - 1.0) > 1e-9 or abs(base.x - 2.0) > 1e-9:
                raise DomainError("crease fit must anchor at (1, 2)")
            t_bar = 1.0  # the crease is the t = 1 end of B
        elif target is HolderTarget.SINGULAR_BOUNDARY_SPATIAL:
            t_bar = float(base)
            if t_bar <= 1.0:
                raise DomainError("boundary fit needs t > 1")
        else:
            raise DomainError(f"unknown fit target {target}")
        x_bar = boundary_x(BoundaryCurve.SINGULAR_BOUNDARY, t_bar)
        _, v0 = psi_boundary_extension(math.sqrt(t_bar - 1.0))
        xs = np.array([x_bar + d for d in offsets])
        vals = np.abs(psi_classical_array(t_bar, xs) - v0)

    slope, coeff, r2 = _fit_power_law(offsets, vals)
    if r2 < _R2_MIN:
        raise PoorFit(f"power-law fit r^2 = {r2:.6f} < {_R2_MIN}")
    return FitReport(
        exponent=slope,
        coefficient=coeff,
        r_squared=r2,
        samples=tuple(zip(offsets, (float(v) for v in vals))),
    )


# ---------------------------------------------------------------------------
# Agreement / disagreement scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AgreementReport:
    n: int                        # points sampled in each of the two regions
    max_gap_omega_a: float        # max |psi_C - psi_W| where they must agree
    min_wedge_gap: float          # min (psi_W - psi_C) where they must differ
    phi_gap_at_probe: float       # Phi_W - Phi_C at WEDGE_PROBE

    @property
    def passed(self) -> bool:
        return (
            self.max_gap_omega_a <= 1e-11
            and self.min_wedge_gap > 0.0
            and abs(self.phi_gap_at_probe) >= 1e-4
        )


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


def agreement_disagreement_scan(n: int, seed: int = 0) -> AgreementReport:
    """Compare the two solutions where they must agree and must differ.

    Samples n points in the pre-shock agreement region (equality to root
    tolerance) and n in the wedge between shock and singular boundary
    (strict ordering), and evaluates the potential gap at the fixed wedge
    probe point.
    """
    if n < 100:
        raise DomainError("scan needs n >= 100")
    ta, xa = _sample(n, (0.05, 3.0, -8.0, 8.0), seed, lambda t, x, tags: tags == RegionTag.OMEGA_A)
    gap_a = np.abs(
        psi_classical_array(ta, xa) - psi_weak_array(ta, xa)
    )
    tw, xw = _sample(n, (1.02, 5.0, 2.0, 11.0), seed + 1, lambda t, x, tags: tags == RegionTag.WEDGE)
    gap_w = psi_weak_array(tw, xw) - psi_classical_array(tw, xw)
    phi_w = phi(WEDGE_PROBE, SolutionVariant.WEAK)
    phi_c = phi(WEDGE_PROBE, SolutionVariant.CLASSICAL)
    return AgreementReport(
        n=n,
        max_gap_omega_a=float(np.max(gap_a)),
        min_wedge_gap=float(np.min(gap_w)),
        phi_gap_at_probe=phi_w - phi_c,
    )


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

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: measured={self.measured:.6e} threshold={self.threshold:.6e} ({self.claim})"


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
    worst = max(rh_residual(float(t)) for t in _LOG_TIMES)
    return [CheckResult(
        "rankine_hugoniot", worst <= 1e-11, worst, 1e-11,
        "shock speed equals the mean of the one-sided characteristic speeds",
    )]


def _suite_lax(seed: int) -> list[CheckResult]:
    dev, min_gap = 0.0, math.inf
    for t in _LOG_TIMES:
        lower, upper = lax_gaps(float(t))
        x0 = shock_feet(float(t))[1]
        expected = math.atan(x0)
        dev = max(dev, abs(lower - expected), abs(upper - expected))
        min_gap = min(min_gap, lower, upper)
    near = max(lax_gaps(1.0 + 1e-6))
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
    worst = max(
        oleinik_scan(t, (-10.0, 10.0), 400).max_quotient for t in (0.5, 1.0, 2.0, 5.0)
    )
    return [CheckResult(
        "oleinik_one_sided", worst <= 1e-10, worst, 1e-10,
        "forward difference quotients of the entropy field are nonpositive",
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
        CheckResult(
            "weak_form_identity", worst <= 1e-6, worst, 1e-6,
            "the entropy field satisfies the divergence-form equation distributionally",
        ),
        CheckResult(
            "weak_form_negative_control", control >= 1e-3, control, 1e-3,
            "a displaced shock breaks the distributional identity (test has power)",
        ),
    ]


def _suite_holder(seed: int) -> list[CheckResult]:
    out = []
    crease = holder_fit(HolderTarget.CREASE_SPATIAL, Point(1.0, 2.0), dyadic_offsets(1e-3, 11))
    c_ok = abs(crease.exponent - 1.0 / 3.0) <= 0.02 and abs(
        crease.coefficient / 3.0 ** (1.0 / 3.0) - 1.0
    ) <= 0.05
    out.append(CheckResult(
        "holder_crease", c_ok, crease.exponent, 1.0 / 3.0,
        "cube-root field profile at the crease with coefficient 3^(1/3)",
    ))
    for t_bar in (1.5, 2.0, 5.0):
        fit = holder_fit(HolderTarget.SINGULAR_BOUNDARY_SPATIAL, t_bar, dyadic_offsets(1e-4, 11))
        pred = abs(expansion_near_B(t_bar).leading_coefficient)
        ok = abs(fit.exponent - 0.5) <= 0.02 and abs(fit.coefficient / pred - 1.0) <= 0.05
        out.append(CheckResult(
            f"holder_singular_boundary_t{t_bar}", ok, fit.exponent, 0.5,
            "square-root field profile transverse to the singular boundary",
        ))
    for x in (-2.0, 0.0, 1.0):
        fit = holder_fit(HolderTarget.HORIZON_JUMP, x, dyadic_offsets(1e-2, 11))
        ok = abs(fit.exponent - 0.5) <= 0.02 and abs(fit.coefficient / math.sqrt(6.0) - 1.0) <= 0.05
        out.append(CheckResult(
            f"holder_horizon_x{x}", ok, fit.exponent, 0.5,
            "potential-derivative probe above the Cauchy horizon: sqrt profile with "
            "coefficient sqrt(6); expected to fail, since the oracle-verified "
            "derivative is differentiable there and the probe decays linearly "
            "(see README, Known deviations)",
        ))
    return out


def _suite_tangency(seed: int) -> list[CheckResult]:
    worst = max(tangency_residual_B(float(t)) for t in _LOG_TIMES)
    return [CheckResult(
        "boundary_tangency", worst <= 1e-10, worst, 1e-10,
        "the extended outgoing speed matches the singular-boundary slope",
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
    horizon = max(horizon_null_check(float(t)) for t in (1.5, 3.0, 10.0))
    return [
        CheckResult(
            "frame_nullness", worst_null <= 1e-13, worst_null, 1e-13,
            "both frame directions are null for every field value",
        ),
        CheckResult(
            "lorentzian_signature", worst_det < 0.0, worst_det, 0.0,
            "the metric determinant is negative on the field range",
        ),
        CheckResult(
            "inverse_metric_identity", worst_inv <= 1e-13, worst_inv, 1e-13,
            "metric times inverse metric is the identity",
        ),
        CheckResult(
            "inverse_metric_decomposition", worst_dec <= 1e-13, worst_dec, 1e-13,
            "the inverse metric equals -(L@Lbar + Lbar@L)/2",
        ),
        CheckResult(
            "horizon_nullness", horizon <= 1e-13, horizon, 1e-13,
            "the Cauchy horizon tangent is null for the extended metric",
        ),
    ]


def _suite_bubble(seed: int) -> list[CheckResult]:
    ok = True
    for z in (0.25, 0.5, 1.0, 2.0, 4.0):
        apex, _ = psi_boundary_extension(z)
        q = bubble_witness(apex)
        in_causal = causal_past_contains(apex, q)
        in_timelike = timelike_past_contains(apex, q)
        ok = ok and in_causal and not in_timelike
    apex = Point(2.0, 5.0 - _HALF_PI)
    target = Point(1.0, 2.1)
    explicit = causal_past_contains(apex, target) and not timelike_past_contains(apex, target)
    sc_ok = True
    val_dev = 0.0
    for t in _LOG_TIMES:
        right, left = shock_tangent_norms(float(t))
        sc_ok = sc_ok and right > 0.0 and left < 0.0
    t_ref = 4.0 / math.pi
    right, left = shock_tangent_norms(t_ref)
    exp_right = -16.0 * (-math.pi / 4.0) / (4.0 - math.pi / 4.0) ** 2
    exp_left = -16.0 * (math.pi / 4.0) / (4.0 + math.pi / 4.0) ** 2
    val_dev = max(abs(right - exp_right), abs(left - exp_left))
    return [
        CheckResult(
            "causal_bubbles", ok and explicit, 1.0 if (ok and explicit) else 0.0, 1.0,
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
    z = np.sqrt(np.maximum(t - 1.0, 0.0))
    x_b = (2.0 - np.arctan(z)) * t + z
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
        CheckResult(
            "pde_residual", worst <= 1e-6, worst, 1e-6,
            "the classical pair satisfies the first-order system to finite-difference accuracy",
        ),
        CheckResult(
            "pde_fd_order", min_order >= 1.9, min_order, 1.9,
            "the finite-difference residual converges at second order",
        ),
    ]


def _suite_agreement(seed: int) -> list[CheckResult]:
    rep = agreement_disagreement_scan(1000, seed)
    return [
        CheckResult(
            "agreement_region", rep.max_gap_omega_a <= 1e-11, rep.max_gap_omega_a, 1e-11,
            "classical and entropy fields agree below the shock and horizon",
        ),
        CheckResult(
            "wedge_disagreement", rep.min_wedge_gap > 0.0, rep.min_wedge_gap, 0.0,
            "the entropy field strictly exceeds the classical one in the wedge",
        ),
        CheckResult(
            "potential_disagreement", abs(rep.phi_gap_at_probe) >= 1e-4,
            abs(rep.phi_gap_at_probe), 1e-4,
            "the two wave potentials differ at the wedge probe point",
        ),
    ]


def _suite_godunov(seed: int) -> list[CheckResult]:
    s4 = fv.solve(2.0, fv.initial_state(4000))
    e4 = fv.l1_error(s4)
    sw, s8 = fv.solve_at((WEDGE_PROBE.t, 2.0), fv.initial_state(8000))
    e8 = fv.l1_error(s8)
    i = int(np.argmin(np.abs(sw.cell_centers - WEDGE_PROBE.x)))
    u = float(sw.cell_averages[i])
    pw = float(psi_weak_array(np.array([WEDGE_PROBE.t]), np.array([WEDGE_PROBE.x]))[0])
    pc = psi_classical(WEDGE_PROBE)
    entropy_ok = abs(u - pw) <= 0.05 and abs(u - pc) >= 0.5
    return [
        CheckResult(
            "godunov_l1", e4 <= 1e-2, e4, 1e-2,
            "the monotone scheme converges to the entropy field in L1",
        ),
        CheckResult(
            "godunov_l1_ratio", e8 / e4 <= 0.75, e8 / e4, 0.75,
            "the L1 error keeps decreasing under refinement",
        ),
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
    report = Report(seed=seed)
    for name in names:
        report.checks.extend(_SUITES[name](seed))
    return report
