"""Independent first-order Godunov oracle for the divergence-form field equation.

The entropy field solves d_t(u) + d_x((2+u)^2 / 2) = 0, so a monotone
finite-volume scheme converges to it without any knowledge of the
characteristic construction.  Every wave speed 2 + u is positive on the
invariant range [-pi/2, pi/2], which the maximum-principle check keeps the
cells in, so the exact-Riemann flux of the convex flux (2+u)^2/2 is the
upwind flux f(u_left) there.  The update then reads one inflow ghost left
of the cells and nothing right of them: an outflow boundary of an upwind
scheme needs no data.  This module marches that conservative explicit
update with CFL-limited steps on one local array per grid, with a
Dirichlet inflow ghost fed by the exact entropy field and both invariant
checks on every step, each taken over the ghost and the cells the update
reads, and compares the result in L1 against exact per-cell averages with
the shock cell split.  The comparison has two parts: the averages
(_exact_averages) read only the grid and a time, so they can be taken
before or beside the march, and the distance (_l1_distance) refuses a
state whose time is not theirs bit for bit; `l1_error` composes them at
the state time.  `solve_at` is the one march, and `solve` its
one-end case.  A march solves its own ghost fills ahead: its fills are
served from a table of ghosts solved at a window of up to 1024 predicted
fill times (after the first window, up to twice the fills the last window
served).  It predicts them by the march's own CFL rule, with the ghost as
the largest state, and solves the window again until its times stop
changing, one field call per sweep.  A fill is served only when its time
matches a solved time bit for bit; a miss starts the next window at the
missed time, and no window holds a time the march could not ask for.  The
foot solve is elementwise, so every state equals that of a march that
asks the field at each fill, bit for bit, and a wrong prediction costs
only a miss.  One stepping loop (`_steps`) takes both the shared march's
full CFL steps, stopping before a step that would pass an end, and each
end's capped final steps on a copy, so every state equals that of a
march to its end alone.  Between steps a march carries its ghost and
cells and three numbers (`_March`): the min and max of the cells and
their own total variation tv_cells, none of which a ghost fill touches.
A step's invariant checks then read the maximum-principle bounds as
those of the cells and the ghost, and the old total variation as the
ghost's |diff| term plus tv_cells, without a pass over the cells.  A
step writes the new cells in place through three scratch buffers (flux,
jump and diff), each on a 64-byte cache line, which copies share, and
views built once per march; it folds the flux's half into the step
factor and sums the diff over the cells once.  The entropy field is nonincreasing in x, and a monotone
scheme keeps it so.  Where the new cells are nonincreasing behind a
ghost no lower (no signed diff of the ghost and cells is above 0), the
bounds are the end cells and the total variation is 0.0 minus the sum
of the signed diffs: the step then makes 8 passes over the cells, one
ufunc call each.  Any other step, NaN included, takes the min and max
reductions and an abs pass, 11 passes.  Either way the carried min and
max equal np.min and np.max in value, and tv_cells equals the sum of
|diff| bit for bit, so every state and error is that of the whole-array
reductions.  A ghost fill writes only the ghost, and a copy copies only
the ghost and cells.  Inputs are checked once, at entry and before any
step: the ends (finite, nondecreasing, at most 1e8 CFL steps away) by
`solve_at`, the bounds, time and cells (2 to 1e8 of them) by
`GodunovState`.  A step that leaves the time where it stands (a CFL step
at most half an ulp of t, so t+dt rounds back to t) raises where it is
taken: a march of such steps never reaches its end.
Agreement here validates the entropy selection of the exact
construction; disagreement at the wedge values would expose a wrong
branch choice.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .core import _MODELLED_RANGE, DomainError, InvariantViolation, gauss_panel
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
# refuses one that would take more than _MAX_STEPS, and a grid holds at most
# _MAX_STEPS cells.
_MIN_SPEED = 2.0 - _HALF_PI
_MAX_STEPS = 10 ** 8


def _check_n_cells(n_cells: int) -> None:
    """Raise DomainError unless a grid of n_cells has 2 to _MAX_STEPS cells."""
    if not 2 <= n_cells <= _MAX_STEPS:
        bound = "least 2" if n_cells < 2 else f"most {_MAX_STEPS}"
        raise DomainError(f"need at {bound} cells, got {n_cells}")


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
        _check_n_cells(self.n_cells)
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

    The cell count is checked before anything is allocated, and the rest
    of the grid, on zero cells, before the profile is sampled.
    """
    _check_n_cells(n_cells)
    s = GodunovState(x_lo=x_lo, x_hi=x_hi, cell_averages=np.zeros(n_cells), time=0.0, cfl=cfl)
    return replace(s, cell_averages=-np.arctan(s.cell_centers))


def _aligned_empty(size: int) -> np.ndarray:
    """An uninitialised float64 array of size whose data starts on a 64-byte cache line.

    numpy's vector loops load and store unaligned, and with 64-byte
    (AVX-512) vectors every access to an array off a line boundary straddles
    two lines: on a 2-core Xeon with numpy 2.4.6 an 8000-cell step took
    about 15 us with its scratch buffers on line boundaries and up to 19 us
    off them, where np.empty puts a buffer at any multiple of 16 bytes.
    """
    raw = np.empty(size + 7)
    start = -raw.ctypes.data % 64 // 8
    return raw[start:start + size]


@dataclass
class _March:
    """The cells of a march behind their inflow ghost, and what it carries between steps.

    ext holds the ghost, then the cells: every value the update reads,
    and the only array a march owns.  lo and hi are the min and max of the
    cells ext[1:], and tv_cells their total variation, the sum of
    |diff(ext[1:])| as np.add.reduce gives it: the update sets all three,
    and a fill, which writes only the ghost ext[0], leaves them.  lo and
    hi equal what np.min and np.max would give in value (a zero may carry
    the other sign), and tv_cells what np.add.reduce would give bit for
    bit, NaN included.  h is the cell width and reach the CFL numerator
    cfl*h of the grid.  flux, jump and adiff are the update's scratch
    buffers, each on a 64-byte cache line (_aligned_empty), which a copy
    shares: no step reads what an earlier one left.
    After an update adiff holds diff(ext) if the step took the ordered
    path and |diff(ext)| if not (_update).  The views cells = ext[1:],
    upwind = ext[:-1], flux_out = flux[1:], flux_in = flux[:-1] and
    adiff_cells = adiff[1:] are built once, in __post_init__, so a copy
    (through replace) gets views of its own ext.
    """

    ext: np.ndarray
    adiff: np.ndarray
    flux: np.ndarray
    jump: np.ndarray
    h: float
    reach: float
    lo: float
    hi: float
    tv_cells: float
    cells: np.ndarray = field(init=False, repr=False)
    upwind: np.ndarray = field(init=False, repr=False)
    flux_out: np.ndarray = field(init=False, repr=False)
    flux_in: np.ndarray = field(init=False, repr=False)
    adiff_cells: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.cells, self.upwind = self.ext[1:], self.ext[:-1]
        self.flux_out, self.flux_in = self.flux[1:], self.flux[:-1]
        self.adiff_cells = self.adiff[1:]

    @classmethod
    def start(cls, s0: GodunovState) -> _March:
        cells = s0.cell_averages
        ext = np.concatenate([[0.0], cells])
        adiff = np.abs(np.diff(ext), out=_aligned_empty(cells.size))
        lo, hi = float(np.minimum.reduce(cells)), float(np.maximum.reduce(cells))
        tv_cells = float(np.add.reduce(adiff[1:]))
        return cls(ext, adiff, _aligned_empty(ext.size), _aligned_empty(cells.size), s0.h, s0.cfl * s0.h,
                   lo, hi, tv_cells)

    def copy(self) -> _March:
        return replace(self, ext=self.ext.copy())


def _min(a: float, b: float) -> float:
    """The smaller of a and b, NaN if either is, as np.minimum gives it."""
    return a if a <= b or a != a else b


def _max(a: float, b: float) -> float:
    """The larger of a and b, NaN if either is, as np.maximum gives it."""
    return a if a >= b or a != a else b


def _fill_ghost(m: _March, ghost: float) -> float:
    """Set the inflow ghost of march m to ghost, the exact entropy field at
    its center at the time of the fill; return the CFL step."""
    m.ext[0] = ghost
    # CFL over the extended array: the ghost's speed bounds the inflow wave
    return _cfl_step(m.reach, _max(m.hi, ghost))


def _cfl_step(reach: float, u_max):
    """The CFL step on a grid of CFL numerator reach = cfl*h where u_max (a
    float, or an array of them) is the largest state.

    Every speed 2 + u is positive and rounds monotonically in u, so the
    fastest is 2 + u_max.
    """
    return reach / (2.0 + u_max)


def _update(m: _March, dt: float) -> None:
    """Advance the cells of the filled march m in place by the upwind flux over dt.

    The flux (2 + u)^2 / 2 is never formed: its half goes into the step
    factor, as jump = diff((2 + u)^2) * ((dt/h) * 0.5).  Every (2 + u)^2 on
    the invariant range is at least (2 - pi/2)^2, so no difference or
    product is subnormal and the halving is exact either way.  The signed
    diff d = diff(ext) of the ghost and new cells goes into adiff.  On the
    ordered path, max(d) <= 0, lo and hi are the last and first cell and
    tv_cells is 0.0 - sum(d[1:]): negation is exact and rounding treats
    both signs alike, so this is sum(|d[1:]|) bit for bit, and the 0.0 -
    turns a sum of -0.0 into +0.0.  It makes 8 passes over the cells, one
    ufunc call each.  Any other step (a NaN fails max(d) <= 0) takes the
    min and max reductions and |d| in place: 11 passes.  The bounds are
    those of the cells, lo and hi, and the ghost; the total variation, old
    and new, is the ghost's term |ext[1] - ghost| plus the cells' carried
    sum tv_cells.  Both checks run on every step.  Raises
    InvariantViolation if the maximum principle or total-variation
    monotonicity breaks; m is then left part-way through the step.
    """
    cells, flux, jump, adiff = m.cells, m.flux, m.jump, m.adiff
    ghost = float(m.ext[0])
    lo_bound = _min(m.lo, ghost) - _RANGE_SLACK
    hi_bound = _max(m.hi, ghost) + _RANGE_SLACK
    tv_old = float(abs(m.ext[1] - ghost)) + m.tv_cells
    np.add(m.ext, 2.0, out=flux)
    np.square(flux, out=flux)
    np.subtract(m.flux_out, m.flux_in, out=jump)
    np.multiply(jump, dt / m.h * 0.5, out=jump)
    cells -= jump
    np.subtract(cells, m.upwind, out=adiff)
    # a NaN fails this test
    if np.maximum.reduce(adiff) <= 0.0:
        # nonincreasing behind a ghost no lower: the bounds are the end cells
        # and each |diff| is -diff, so 0.0 - sum(diff) is sum(|diff|) bit for
        # bit, and tv_cells - diff[0] is |diff[0]| + tv_cells
        m.lo, m.hi = float(cells[-1]), float(cells[0])
        m.tv_cells = 0.0 - float(np.add.reduce(m.adiff_cells))
        tv_new = m.tv_cells - float(adiff[0])
    else:
        m.lo, m.hi = float(np.minimum.reduce(cells)), float(np.maximum.reduce(cells))
        np.abs(adiff, out=adiff)
        m.tv_cells = float(np.add.reduce(m.adiff_cells))
        tv_new = float(adiff[0]) + m.tv_cells
    # a NaN cell makes both bounds NaN: then, as on a breach, compare cell by cell
    if not (m.lo >= lo_bound and m.hi <= hi_bound):
        if np.any(cells < lo_bound) or np.any(cells > hi_bound):
            raise InvariantViolation("maximum principle violated in a Godunov step")
    if tv_new > tv_old + 1e-10 * (1.0 + tv_old):
        raise InvariantViolation("total variation increased in a Godunov step")


def _check_ends(t_ends: tuple[float, ...], s0: GodunovState) -> None:
    """Raise DomainError on a non-finite or decreasing end of a march from s0
    and on one that takes more than _MAX_STEPS CFL steps to reach."""
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


def _steps(m: _March, fill: Callable[[float], float], t: float, dt: float | None, t_end: float,
           capped: bool) -> tuple[float, float | None]:
    """March m from time t towards t_end; return the time reached and its CFL step.

    dt is the CFL step of the ghost filled at t, None if not filled, and
    each fill's ghost comes from fill.  Uncapped, the march stops before
    a step that would pass t_end and hands back that step; capped, the
    step is cut to land on t_end.  Raises DomainError if t + dt rounds
    back to t: the cells took the step and the time did not, and a march
    whose steps are all that short never reaches t_end.
    """
    while t < t_end:
        if dt is None:
            dt = _fill_ghost(m, fill(t))
        if dt > t_end - t:
            if not capped:
                break
            dt = t_end - t
        _update(m, dt)
        if t + dt == t:
            raise DomainError(f"t_end = {t_end} is out of reach: a CFL step of {dt!r} leaves t = {t!r} unchanged")
        t, dt = t + dt, None
    return t, dt


# Most fill times a grid's ghost is solved ahead for, and fixed-point sweeps per window.
_WINDOW = 1024
_SWEEPS = 8


def _window(t_miss: float, steps: np.ndarray, t_last: float) -> np.ndarray:
    """Fill times of a march from its fill at t_miss that takes the given CFL steps.

    t_miss, then each time plus its step, added as the march adds them:
    at most one time more than there are steps.  The window stops before
    the first time the march could not ask the field for: one that does
    not exceed the time before it (NaN fails every comparison), one at or
    past the march's last end t_last, or one beyond the modelled range,
    which the field refuses.
    """
    with np.errstate(over="ignore"):  # an infinite time fails times < t_last
        times = np.cumsum(np.concatenate([[t_miss], steps]))
    ok = (times[1:] > times[:-1]) & (times[1:] < t_last) & (times[1:] <= _MODELLED_RANGE)
    return times[:1 + (ok.size if ok.all() else int(ok.argmin()))]


def _prefetch(s0: GodunovState, t_last: float, t_miss: float, size: int) -> dict[float, float]:
    """Ghost table of grid s0, on its march to t_last, for a window of at
    most size fill times from the missed fill time t_miss.

    The window first guesses the shortest CFL step the invariant range
    allows.  Each sweep makes one psi_weak_array call at the inflow ghost
    center and every time of the window, then predicts the window again
    from the new ghosts by the march's own rule (_cfl_step), with the
    ghost as the largest state.  The window settles when its times stop
    changing, or after _SWEEPS sweeps.  The table maps every time of the
    last solved window to the ghost solved at exactly that time.
    """
    reach = s0.cfl * s0.h
    window = _window(t_miss, np.full(size - 1, _cfl_step(reach, _HALF_PI)), t_last)
    for _ in range(_SWEEPS):
        times = window
        ghosts = psi_weak_array(times, s0.x_lo - 0.5 * s0.h)
        # a ghost of -2, which only a fake field gives, predicts an infinite step
        with np.errstate(divide="ignore"):
            window = _window(t_miss, _cfl_step(reach, ghosts)[:size - 1], t_last)
        if np.array_equal(window, times):
            break
    return dict(zip(times.tolist(), ghosts.tolist()))


def _ghost_table(s0: GodunovState, t_last: float) -> Callable[[float], float]:
    """fill(t): the inflow ghost of grid s0 at fill time t, on its march to t_last.

    A fill whose time is in the table, bit for bit, is served from it with
    no field call.  A miss replaces the table with a new window starting
    at the missed time (_prefetch).  The first window holds up to _WINDOW
    times; each later one up to twice the fills the last window served,
    so a grid whose predictions keep missing solves short windows.
    """
    table, served = {}, 0

    def fill(t: float) -> float:
        nonlocal table, served
        if t not in table:
            size = min(_WINDOW, 2 * served) if table else _WINDOW
            table, served = _prefetch(s0, t_last, t, size), 0
        served += 1
        return table[t]

    return fill


def solve_at(t_ends: Sequence[float], s0: GodunovState) -> tuple[GodunovState, ...]:
    """March once from s0 and return the state at each of the nondecreasing t_ends.

    Each state equals solve(t_end, s0) bit for bit.  The shared march takes
    only full CFL steps; each end is reached on a copy of the march (ghost,
    cells and carried numbers) with the capped steps a march to that end
    alone takes, starting from the CFL step already computed at the point
    where the march to it leaves.  Each fill's ghost comes from the grid's
    ghost table (_ghost_table): the ghost fills are solved ahead in windows
    of predicted fill times; the foot solve is elementwise, so a served
    ghost equals a solve at that one time, and a wrong prediction costs
    only a miss.  No window holds a time the march could not ask the field
    for.  Raises DomainError, before any step, on a non-finite or
    decreasing end and on an end that takes more than _MAX_STEPS CFL steps
    to reach; and where it is taken, on a step that leaves the time
    unchanged.
    """
    t_ends = tuple(t_ends)
    _check_ends(t_ends, s0)
    if not t_ends:
        return ()
    fill = _ghost_table(s0, t_ends[-1])
    states = []
    march = _March.start(s0)
    t, dt = s0.time, None
    for t_end in t_ends:
        if t_end == s0.time:
            states.append(s0)
            continue
        t, dt = _steps(march, fill, t, dt, t_end, capped=False)
        # the march to t_end alone leaves the shared one here
        cut = march.copy()
        t_cut, _ = _steps(cut, fill, t, dt, t_end, capped=True)
        states.append(replace(s0, cell_averages=cut.cells, time=t_cut))
    return tuple(states)


def solve(t_end: float, s0: GodunovState) -> GodunovState:
    """March the state to exactly t_end with a matched final partial step."""
    return solve_at((t_end,), s0)[0]


def _exact_averages(s: GodunovState, t: float) -> np.ndarray:
    """Exact per-cell averages of the entropy field at time t over the grid of s.

    Each cell takes one 15-point panel, except the single cell that
    contains the shock at its exact location x = 2t, which is split there.
    Only the grid of s is read: its cells and time are not.
    """
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
    return exact_avg


def _l1_distance(s: GodunovState, exact_avg: np.ndarray, t: float) -> float:
    """L1 distance of the cells of s to exact_avg, the exact averages over its grid at time t.

    Raises InvariantViolation, naming both times, unless s is at time t
    bit for bit: averages at another time measure nothing.
    """
    if s.time != t:
        raise InvariantViolation(f"the state at t = {s.time!r} is compared with exact averages at t = {t!r}")
    return float(np.sum(np.abs(s.cell_averages - exact_avg)) * s.h)


def l1_error(s: GodunovState) -> float:
    """L1 distance of the grid to the exact entropy field at the state time.

    Exact per-cell averages are computed with 15-point panels, splitting
    the single cell that contains the shock at its exact location x = 2t
    (_exact_averages), and the cells are compared with them (_l1_distance).
    """
    return _l1_distance(s, _exact_averages(s, s.time), s.time)


# ---------------------------------------------------------------------------
# Grid-state CSV exchange
# ---------------------------------------------------------------------------

def state_to_csv(s: GodunovState) -> str:
    """Serialize as (x_center, value) rows with a header line."""
    rows = zip(s.cell_centers.tolist(), s.cell_averages.tolist())
    return "".join(["x_center,value\n", *(f"{x!r},{v!r}\n" for x, v in rows)])
