"""Independent first-order Godunov oracle for the divergence-form field equation.

The entropy field solves d_t(u) + d_x((2+u)^2 / 2) = 0, so a monotone
finite-volume scheme converges to it without any knowledge of the
characteristic construction.  Every wave speed 2 + u is positive on the
invariant range [-pi/2, pi/2], which the maximum-principle check keeps the
cells in, so the exact-Riemann flux of the convex flux (2+u)^2/2 is the
upwind flux f(u_left) there.  This module marches that conservative
explicit update with CFL-limited steps on one local array, with Dirichlet
ghost cells fed by the exact entropy field and both invariant checks on
every step, and compares the result in L1 against exact per-cell averages
with the shock cell split.  `solve_at` is the one march (`solve` is its
one-end case); it takes only full CFL steps, and each end is reached by
its capped final steps on a copy, so every state equals that of a march
to its end alone.  Inputs are checked once, at entry: the ends (finite,
nondecreasing, at most 1e8 CFL steps away) by `solve_at`, the bounds,
time and cells by `GodunovState`.  Agreement here validates the entropy
selection of the exact construction; disagreement at the wedge values
would expose a wrong branch choice.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .core import DomainError, InvariantViolation, gauss_panel
from .burgers import psi_weak_array

__all__ = [
    "GodunovState",
    "initial_state",
    "solve",
    "solve_at",
    "l1_error",
    "state_to_csv",
]

_RANGE_SLACK = 1e-12
_HALF_PI = math.pi / 2.0
# Every wave speed 2 + u on the invariant range is at least 2 - pi/2, so a
# march over time T takes at least T*(2 - pi/2)/(cfl*h) CFL steps; solve_at
# refuses one that would take more than _MAX_STEPS.
_MIN_SPEED = 2.0 - _HALF_PI
_MAX_STEPS = 10 ** 8


@dataclass(frozen=True)
class GodunovState:
    """Immutable snapshot of the finite-volume grid."""

    x_lo: float
    x_hi: float
    cell_averages: np.ndarray
    time: float
    cfl: float = 0.9

    def __post_init__(self):
        # inf or NaN in either bound makes the width non-finite too
        if not math.isfinite(self.x_hi - self.x_lo):
            raise DomainError(f"need finite x_lo, x_hi and width, got {self.x_lo}, {self.x_hi}")
        if not (self.x_lo < self.x_hi):
            raise DomainError("empty spatial domain")
        if np.ndim(self.cell_averages) != 1:
            raise DomainError(f"cell_averages must be 1-D, got shape {np.shape(self.cell_averages)}")
        if self.n_cells < 2:
            raise DomainError(f"need at least 2 cells, got {self.n_cells}")
        if not (0.0 < self.cfl < 1.0):
            raise DomainError(f"cfl must be in (0, 1), got {self.cfl}")
        if not 0.0 <= self.time < math.inf:
            raise DomainError(f"time must be finite and >= 0, got {self.time}")
        # NaN compares false, so it fails this test
        if not np.all(np.abs(self.cell_averages) <= _HALF_PI + _RANGE_SLACK):
            raise InvariantViolation("cell averages leave the invariant range [-pi/2, pi/2]")

    @property
    def n_cells(self) -> int:
        return len(self.cell_averages)

    @property
    def h(self) -> float:
        return (self.x_hi - self.x_lo) / self.n_cells

    @property
    def cell_centers(self) -> np.ndarray:
        return self.x_lo + (np.arange(self.n_cells) + 0.5) * self.h

    @property
    def total_variation(self) -> float:
        return float(np.sum(np.abs(np.diff(self.cell_averages))))


def initial_state(n_cells: int, x_lo: float = -10.0, x_hi: float = 10.0, cfl: float = 0.9) -> GodunovState:
    """Grid initialized with the initial profile sampled at cell centers.

    The grid is checked, on zero cells, before the profile is sampled.
    """
    if n_cells < 2:
        raise DomainError(f"need at least 2 cells, got {n_cells}")
    s = GodunovState(x_lo=x_lo, x_hi=x_hi, cell_averages=np.zeros(n_cells), time=0.0, cfl=cfl)
    return replace(s, cell_averages=-np.arctan(s.cell_centers))


def _flux(u):
    return 0.5 * (2.0 + u) ** 2


def _fill_ghosts(ext: np.ndarray, s: GodunovState, t: float) -> float:
    """Fill the ghost cells ext[0] and ext[-1] of grid s at time t; return the CFL step.

    The ghost values are the exact entropy field at the ghost cell centers,
    from one 2-point field call.
    """
    h = s.h
    ext[[0, -1]] = psi_weak_array(t, np.array([s.x_lo - 0.5 * h, s.x_hi + 0.5 * h]))
    # CFL over the extended array: ghost speeds bound the boundary-cell waves.
    # Every speed 2 + u is positive and rounds monotonically in u, so the
    # fastest is 2 + max(ext).
    return s.cfl * h / (2.0 + float(np.max(ext)))


def _update(ext: np.ndarray, s: GodunovState, dt: float) -> None:
    """Advance the cells ext[1:-1] of grid s in place by the upwind flux over dt.

    Raises InvariantViolation if the maximum principle or total-variation
    monotonicity breaks; ext is then left part-way through the step.
    """
    h = s.h
    flux = _flux(ext[:-1])
    u_new = ext[1:-1] - dt / h * (flux[1:] - flux[:-1])
    lo_bound = float(np.min(ext)) - _RANGE_SLACK
    hi_bound = float(np.max(ext)) + _RANGE_SLACK
    if np.any(u_new < lo_bound) or np.any(u_new > hi_bound):
        raise InvariantViolation("maximum principle violated in a Godunov step")
    tv_old = float(np.sum(np.abs(np.diff(ext))))
    ext[1:-1] = u_new
    if float(np.sum(np.abs(np.diff(ext)))) > tv_old + 1e-10 * (1.0 + tv_old):
        raise InvariantViolation("total variation increased in a Godunov step")


def solve_at(t_ends: Sequence[float], s0: GodunovState) -> tuple[GodunovState, ...]:
    """March once from s0 and return the state at each of the nondecreasing t_ends.

    Each state equals solve(t_end, s0) bit for bit.  The shared march takes
    only full CFL steps; each end is reached on a copy of the cells with the
    capped steps a march to that end alone takes, starting from the CFL
    step already computed at the point where the march to it leaves.
    Raises DomainError, before any step, on a non-finite or decreasing end
    and on an end that takes more than _MAX_STEPS CFL steps to reach.
    """
    for i, (before, t_end) in enumerate(zip((s0.time, *t_ends), t_ends)):
        if not math.isfinite(t_end):
            raise DomainError(f"t_end = {t_end} is not finite")
        if t_end < before:
            what = "the end time before it" if i else "the state time"
            raise DomainError(f"t_end = {t_end} precedes {what} {before}")
        # a product, not a step count: h may underflow to 0
        if (t_end - s0.time) * _MIN_SPEED > _MAX_STEPS * s0.cfl * s0.h:
            raise DomainError(
                f"t_end = {t_end} takes more than {_MAX_STEPS} CFL steps on cells of width {s0.h!r}"
            )
    states = []
    ext = np.concatenate([[0.0], s0.cell_averages, [0.0]])
    t, dt = s0.time, None  # dt: CFL step of the ghosts filled at t, None if not filled
    for t_end in t_ends:
        if t_end == s0.time:
            states.append(s0)
            continue
        while t < t_end:
            if dt is None:
                dt = _fill_ghosts(ext, s0, t)
            if dt > t_end - t:
                break
            _update(ext, s0, dt)
            t, dt = t + dt, None
        # the march to t_end alone leaves the shared one here
        cells, t_cut, dt_cut = ext.copy(), t, dt
        while t_cut < t_end:
            if dt_cut is None:
                dt_cut = _fill_ghosts(cells, s0, t_cut)
            dt_cut = min(dt_cut, t_end - t_cut)
            _update(cells, s0, dt_cut)
            t_cut, dt_cut = t_cut + dt_cut, None
        states.append(replace(s0, cell_averages=cells[1:-1], time=t_cut))
    return tuple(states)


def solve(t_end: float, s0: GodunovState) -> GodunovState:
    """March the state to exactly t_end with a matched final partial step."""
    return solve_at((t_end,), s0)[0]


def l1_error(s: GodunovState) -> float:
    """L1 distance of the grid to the exact entropy field at the state time.

    Exact per-cell averages are computed with 15-point panels, splitting
    the single cell that contains the shock at its exact location x = 2t.
    """
    t = s.time
    h = s.h
    edges = s.x_lo + np.arange(s.n_cells + 1) * h
    # one panel per cell, vectorized; the shock cell handled separately
    gl_nodes, gl_weights = gauss_panel(0.0, 1.0)
    left = edges[:-1][:, None]
    cell_nodes = left + h * gl_nodes[None, :]
    cell_weights = h * gl_weights[None, :]

    shock_x = 2.0 * t
    shock_cell = None
    if t > 1.0 and edges[0] < shock_x < edges[-1]:
        shock_cell = int(np.floor((shock_x - s.x_lo) / h))

    vals = psi_weak_array(t, cell_nodes)
    exact_avg = np.sum(cell_weights * vals, axis=1) / h
    if shock_cell is not None and 0 <= shock_cell < s.n_cells:
        a, b = edges[shock_cell], edges[shock_cell + 1]
        avg = 0.0
        for p, q in ((a, shock_x), (shock_x, b)):
            if q > p:
                xn, xw = gauss_panel(p, q)
                avg += float(np.dot(xw, psi_weak_array(t, xn)))
        exact_avg[shock_cell] = avg / h
    return float(np.sum(np.abs(s.cell_averages - exact_avg)) * h)


# ---------------------------------------------------------------------------
# Grid-state CSV exchange
# ---------------------------------------------------------------------------

def state_to_csv(s: GodunovState) -> str:
    """Serialize as (x_center, value) rows with a header line."""
    rows = zip(s.cell_centers.tolist(), s.cell_averages.tolist())
    return "".join(["x_center,value\n", *(f"{x!r},{v!r}\n" for x, v in rows)])
