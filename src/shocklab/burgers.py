"""Pointwise evaluation of the classical and entropy Burgers fields.

Both solutions transport the initial profile psi0 along straight
characteristics; they differ only in which characteristic a point is
assigned to.  The classical field uses the non-intersecting foliation of
the maximal classical domain (feet beyond the focusing branch point), the
entropy field kills each pair of crossing characteristics on the shock
x = 2t.  On the fixed-time slice the entropy field is nonincreasing in x
and jumps downward across the shock, with the jump sizes fixed by the
paired feet (-x0(t), +x0(t)).

Near the boundary the classical field degenerates with known leading
orders: a cube-root profile in x - 2 at the crease and a square-root
profile transverse to the singular boundary, with coefficients determined
by the initial datum at the boundary foot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    GEOM_TOL,
    DomainError,
    NearSingular,
    Point,
    SolutionVariant,
    _check_times,
    _float_call,
    _raise_at,
    psi0,
    psi0_prime,
    psi0_second,
)
from .characteristics import (
    foot_classical,
    foot_classical_array,
    foot_weak,
    foot_weak_array,
    outgoing_char,
    shock_feet,
)

__all__ = [
    "ShockTrace",
    "ExpansionPrediction",
    "psi_classical",
    "psi_classical_array",
    "dpsidx_classical",
    "psi_weak",
    "psi_weak_array",
    "psi",
    "psi_boundary_extension",
    "shock_trace",
    "expansion_near_B",
    "expansion_near_S",
]


@dataclass(frozen=True)
class ShockTrace:
    """One-sided limits of the entropy field on the shock at time t > 1.

    left_value (+arctan x0) is the limit from x < 2t, right_value
    (-arctan x0) from x > 2t; the shock speed is exactly 2, the mean of
    the two characteristic speeds 2 + psi.
    """

    t: float
    left_value: float
    right_value: float

    @property
    def speed(self) -> float:
        return 2.0

    @property
    def jump(self) -> float:
        return self.left_value - self.right_value


@dataclass(frozen=True)
class ExpansionPrediction:
    """Leading singular term coefficient * offset**exponent at a base point."""

    leading_coefficient: float
    exponent: float
    base_point: Point

    def __post_init__(self):
        if self.exponent not in (0.5, 1.0 / 3.0):
            raise DomainError(f"unsupported expansion exponent {self.exponent}")

    def value(self, offset: float) -> float:
        return self.leading_coefficient * offset ** self.exponent


# ---------------------------------------------------------------------------
# Field evaluation
# ---------------------------------------------------------------------------

def psi_classical(p: Point) -> float:
    """Classical field value psi0(foot) on the closed classical domain.

    Defined across the shock (which is interior to the classical domain)
    and, by continuous extension, on the crease and singular boundary.
    Raises OutsideDomain beyond them.
    """
    return float(psi0(foot_classical(p)))


def psi_classical_array(t, x) -> np.ndarray:
    u = foot_classical_array(t, x)
    return psi0(u, out=u)


def dpsidx_classical(p: Point) -> float:
    """Spatial derivative psi0'(x0) / (1 + t*psi0'(x0)) of the classical field.

    Diverges like the inverse distance to the blowup time along each
    characteristic; evaluation inside the GEOM_TOL band around the
    degeneracy raises NearSingular instead of returning a huge number.
    """
    x0 = foot_classical(p)
    g = float(psi0_prime(x0))
    denom = 1.0 + p.t * g
    if abs(denom) < GEOM_TOL:
        raise NearSingular(f"1 + t*psi0'(x0) = {denom:.3e} at foot {x0}")
    return g / denom


def psi_weak(p: Point) -> float:
    """Entropy field value; two-sided on the shock (raises OnShockError there)."""
    return float(psi0(foot_weak(p)))


def psi_weak_array(t, x) -> np.ndarray:
    u = foot_weak_array(t, x)
    return psi0(u, out=u)


def psi(p: Point, variant: SolutionVariant) -> float:
    """Field value of the requested variant at p: psi_classical or psi_weak."""
    if variant is SolutionVariant.CLASSICAL:
        return psi_classical(p)
    return psi_weak(p)


def psi_boundary_extension(z) -> tuple[Point, float]:
    """Boundary point S(z) = (1 + z^2, (2 - arctan z)(1 + z^2) + z) and field value there.

    z = 0 is the crease (1, 2) with value 0; z > 0 walks up the singular
    boundary carrying the continuously extended value psi0(z).  An array of
    z gives a Point of arrays and an array of values (a float, the size-1 case)."""
    zs = np.asarray(z, dtype=float)
    _raise_at(zs < 0.0, DomainError, "boundary parameter must be >= 0, got {z}", zs, zs, z=zs)
    return outgoing_char(z, 1.0 + z * z), _float_call(psi0(zs))


def shock_trace(t) -> ShockTrace:
    """One-sided limits and speed of the shock at time t > 1.

    The Rankine-Hugoniot identity speed = mean of the one-sided
    characteristic speeds holds exactly by the +/-x0 pairing of feet.  An
    array of times gives a trace whose values are arrays of its shape, from
    one batched foot solve (shock_feet); a float time is its size-1 case.
    """
    neg, pos = shock_feet(t)
    left, right = psi0(neg), psi0(pos)
    if np.ndim(t) == 0:
        left, right = float(left), float(right)
    return ShockTrace(t=t, left_value=left, right_value=right)


# ---------------------------------------------------------------------------
# Boundary expansions
# ---------------------------------------------------------------------------

def expansion_near_B(t_bar: float) -> ExpansionPrediction:
    """Square-root profile of the classical field right of the singular boundary.

    At fixed time t_bar > 1 with boundary foot x0 = sqrt(t_bar - 1),

        psi(t_bar, x_B + delta) - psi(t_bar, x_B)
            ~ psi0'(x0) * sqrt(2|psi0'(x0)| / psi0''(x0)) * delta**(1/2).

    The crease itself (t_bar = 1) is excluded: psi0''(0) = 0 makes the
    coefficient singular exactly there, where the cube-root profile of
    expansion_near_S takes over.  A non-finite t_bar and one past the
    modelled range t <= 1e150 are refused.
    """
    _check_times(t_bar, "singular-boundary expansion", lambda ts: ts <= 1.0,
                 "singular-boundary expansion needs t > 1, got {t}")
    x0 = math.sqrt(t_bar - 1.0)
    g1 = float(psi0_prime(x0))
    g2 = float(psi0_second(x0))
    coeff = g1 * math.sqrt(2.0 * abs(g1) / g2)
    base, _ = psi_boundary_extension(x0)
    return ExpansionPrediction(leading_coefficient=coeff, exponent=0.5, base_point=base)


def expansion_near_S(delta: float) -> float:
    """Predicted drop -(3*delta)**(1/3) of the field at (1, 2 + delta)."""
    if not (0.0 < delta <= 0.1):
        raise DomainError(f"crease expansion validated for 0 < delta <= 0.1, got {delta}")
    return -((3.0 * delta) ** (1.0 / 3.0))
