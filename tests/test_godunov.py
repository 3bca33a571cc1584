import math
import warnings

import numpy as np
import pytest
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

import shocklab.godunov as fv
from shocklab.core import DomainError, InvariantViolation, Point
from shocklab.burgers import psi_classical, psi_weak, psi_weak_array
from shocklab.godunov import GodunovState, initial_state, l1_error, solve, solve_at, state_to_csv


def flux(u):
    return 0.5 * (2.0 + u) ** 2


def godunov_flux(u_left, u_right):
    """Reference exact-Riemann interface flux for the convex flux (2+u)^2/2.

    Shock case (u_left > u_right): max of the endpoint fluxes.
    Rarefaction case: min over the fan, which is the sonic value 0 when
    the fan straddles u = -2 and the upwind endpoint otherwise.
    """
    ul = np.asarray(u_left, dtype=float)
    ur = np.asarray(u_right, dtype=float)
    shock_val = np.maximum(flux(ul), flux(ur))
    rare_val = np.where(ur <= -2.0, flux(ur), np.where(ul >= -2.0, flux(ul), 0.0))
    out = np.where(ul > ur, shock_val, rare_val)
    return float(out) if out.ndim == 0 else out


_on_range = st.floats(-math.pi / 2, math.pi / 2)


def inflow(ghost):
    """A fake field that gives ghost at every requested point: one value per
    point of the broadcast (t, x)."""
    return lambda t, x: np.full(np.broadcast_shapes(np.shape(t), np.shape(x)), ghost)


def switch_field(tau, before, after):
    """A fake field, elementwise: before (the exact field if None) at times
    below tau, and after from tau on."""
    def field(t, x):
        t = np.broadcast_to(t, np.broadcast_shapes(np.shape(t), np.shape(x)))
        first = psi_weak_array(t, x) if before is None else inflow(before)(t, x)
        return np.where(t < tau, first, after)
    return field


def reference_solve_at(t_ends, s0, field=psi_weak_array, right_ghost=False, steps=None):
    """The march as it stood before it carried state between steps: the oracle of TestReferenceMarch.

    Every step fills the inflow ghost from field, takes the CFL step from
    np.max of the extended array and recomputes both invariant checks from
    the whole array.  With right_ghost, the march as it stood before it
    dropped its outflow ghost: the extended array also ends in a ghost at
    x_hi + h/2, which the update never reads but the CFL step and both
    checks do; use it only with the exact field.  steps, if a list, gets
    the dt of every update.  solve_at's entry checks are left out.  A step
    that leaves the time unchanged raises, as in solve_at; without that the
    march would take it forever.
    """
    h, n = s0.h, s0.n_cells
    ghost_at = [0, -1] if right_ghost else [0]
    ghost_x = np.array([s0.x_lo - 0.5 * h, s0.x_hi + 0.5 * h][:len(ghost_at)])

    def advance(t, dt, t_end):
        if t + dt == t:
            raise DomainError(f"t_end = {t_end} is out of reach: a CFL step of {dt!r} leaves t = {t!r} unchanged")
        return t + dt

    def fill(ext, t):
        ext[ghost_at] = field(t, ghost_x)
        return s0.cfl * h / (2.0 + float(np.max(ext)))

    def update(ext, dt):
        if steps is not None:
            steps.append(dt)
        f = flux(ext[:n + 1])
        u_new = ext[1:n + 1] - dt / h * (f[1:] - f[:-1])
        lo_bound = float(np.min(ext)) - 1e-12
        hi_bound = float(np.max(ext)) + 1e-12
        if np.any(u_new < lo_bound) or np.any(u_new > hi_bound):
            raise InvariantViolation("maximum principle violated in a Godunov step")
        tv_old = float(np.sum(np.abs(np.diff(ext))))
        ext[1:n + 1] = u_new
        if float(np.sum(np.abs(np.diff(ext)))) > tv_old + 1e-10 * (1.0 + tv_old):
            raise InvariantViolation("total variation increased in a Godunov step")

    states = []
    ext = np.concatenate([[0.0], s0.cell_averages, [0.0] * right_ghost])
    t, dt = s0.time, None
    for t_end in t_ends:
        if t_end == s0.time:
            states.append(s0)
            continue
        while t < t_end:
            if dt is None:
                dt = fill(ext, t)
            if dt > t_end - t:
                break
            update(ext, dt)
            t, dt = advance(t, dt, t_end), None
        cells, t_cut, dt_cut = ext.copy(), t, dt
        while t_cut < t_end:
            if dt_cut is None:
                dt_cut = fill(cells, t_cut)
            dt_cut = min(dt_cut, t_end - t_cut)
            update(cells, dt_cut)
            t_cut, dt_cut = advance(t_cut, dt_cut, t_end), None
        states.append(replace(s0, cell_averages=cells[1:n + 1], time=t_cut))
    return tuple(states)


# the grid arguments of grid_job: n_cells, x_lo, width, cfl, t0, seed
_grid = st.tuples(
    st.integers(2, 400),
    st.floats(-1e3, 1e3),
    st.floats(1e-3, 1e3),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(0.0, 5.0),
    st.none() | st.integers(0, 2 ** 32 - 1),
)


def grid_job(n_cells, x_lo, width, cfl, t0, seed, steps):
    """A state with the initial profile, or cells uniform on the invariant range
    from a seed, and its ends: cumulative offsets in units of the shortest CFL
    step, so nondecreasing and, at an offset of 0, equal to the start time."""
    s0 = replace(initial_state(n_cells, x_lo, x_lo + width, cfl), time=t0)
    if seed is not None:
        rng = np.random.default_rng(seed)
        s0 = replace(s0, cell_averages=rng.uniform(-math.pi / 2, math.pi / 2, n_cells))
    unit = cfl * s0.h / (2.0 + math.pi / 2)
    return [t0 + unit * k for k in np.cumsum(steps)], s0


_steps = st.lists(st.just(0.0) | st.floats(0.0, 20.0), min_size=1, max_size=3)


def within_reach(t_ends, s0):
    """The exact field, as a fake that fails the test on a point the march of
    s0 to t_ends could not ask for: one off its inflow ghost center, or at a
    time that is non-finite, below the start or at or past the last end."""
    ghost_x = s0.x_lo - 0.5 * s0.h

    def field(t, x):
        t, x = np.broadcast_arrays(t, x)
        # NaN fails both comparisons
        inside = (x == ghost_x) & (t >= s0.time) & (t < t_ends[-1])
        assert inside.all(), f"a field call outside the march's reach: (t, x) = {t[~inside][0]!r}, {x[~inside][0]!r}"
        return psi_weak_array(t, x)
    return field


class TestFlux:
    def test_constant(self):
        assert godunov_flux(0.0, 0.0) == 2.0

    def test_shock_case(self):
        # decreasing data: max of the endpoint fluxes (upwind left on range)
        assert godunov_flux(1.0, -1.0) == 4.5

    def test_array(self):
        ul = np.array([0.0, 1.0, -1.0])
        ur = np.array([0.0, -1.0, 1.0])
        assert np.allclose(godunov_flux(ul, ur), [2.0, 4.5, 0.5])

    def test_consistency(self):
        for u in (-1.5, -0.3, 0.0, 1.2):
            assert godunov_flux(u, u) == pytest.approx(flux(u), abs=1e-15)


class TestState:
    def test_initial_state(self):
        s = initial_state(100)
        assert s.n_cells == 100
        assert s.time == 0.0
        assert np.allclose(s.cell_averages, -np.arctan(s.cell_centers))

    @pytest.mark.parametrize("n_cells", [2, 200, 4000, 8000])
    def test_initial_cells_sample_the_centers(self, n_cells):
        s = initial_state(n_cells, -3.3, 7.1)
        assert s.cell_averages.tobytes() == (-np.arctan(s.cell_centers)).tobytes()

    @pytest.mark.parametrize("x_lo", [-math.inf, math.nan])
    def test_bounds_checked_before_sampling(self, x_lo):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="^need finite x_lo, x_hi and width"):
                initial_state(8, x_lo)

    @pytest.mark.parametrize("n_cells", [0, 1, -3])
    def test_too_few_cells(self, n_cells):
        with pytest.raises(DomainError, match=f"need at least 2 cells, got {n_cells}$"):
            initial_state(n_cells)

    def test_too_many_cells_refused_before_allocating(self, monkeypatch):
        # more than _MAX_STEPS cells: refused before np.zeros could allocate them
        def no_alloc(*args, **kwargs):
            raise AssertionError("the grid was allocated before its cell count was checked")

        monkeypatch.setattr(np, "zeros", no_alloc)
        with pytest.raises(DomainError, match=f"^need at most 100000000 cells, got {fv._MAX_STEPS + 1}$"):
            initial_state(fv._MAX_STEPS + 1)

    def test_validation(self):
        with pytest.raises(DomainError, match="need at least 2 cells, got 1$"):
            GodunovState(-1.0, 1.0, np.zeros(1), 0.0)
        with pytest.raises(DomainError):
            initial_state(100, cfl=1.5)
        with pytest.raises(DomainError):
            GodunovState(0.0, -1.0, np.zeros(10), 0.0)
        with pytest.raises(InvariantViolation):
            GodunovState(-1.0, 1.0, np.array([0.0, 3.0, 0.0, 0.0]), 0.0)

    # one non-finite or misshapen input per case; the rest is a valid state
    @pytest.mark.parametrize("changes, error, message", [
        (dict(x_lo=-math.inf), DomainError, "need finite x_lo, x_hi and width, got -inf, 1.0$"),
        (dict(x_hi=math.inf), DomainError, "need finite x_lo, x_hi and width, got -1.0, inf$"),
        (dict(x_lo=-1e308, x_hi=1e308), DomainError, r"width, got -1e\+308, 1e\+308$"),
        (dict(time=math.nan), DomainError, "time must be finite and >= 0, got nan$"),
        (dict(cell_averages=np.zeros((2, 4))), DomainError, r"must be 1-D, got shape \(2, 4\)$"),
        (dict(cell_averages=np.array(0.0)), DomainError, r"must be 1-D, got shape \(\)$"),
        (dict(cell_averages=np.array([0.0, math.nan, 0.0])), InvariantViolation, "invariant range"),
    ], ids=["inf_x_lo", "inf_x_hi", "overflowing_width", "nan_time", "2d_cells", "0d_cells", "nan_cell"])
    def test_entry_rejects(self, changes, error, message):
        valid = dict(x_lo=-1.0, x_hi=1.0, cell_averages=np.zeros(4), time=0.0)
        with pytest.raises(error, match=message):
            GodunovState(**{**valid, **changes})

    def test_csv_frozen(self):
        assert state_to_csv(initial_state(4)) == (
            "x_center,value\n"
            "-7.5,1.4382447944982226\n"
            "-2.5,1.1902899496825317\n"
            "2.5,-1.1902899496825317\n"
            "7.5,-1.4382447944982226\n"
        )


def one_step(s):
    """s solved to the end of the first CFL step its march takes: one full update."""
    ghost = psi_weak_array(s.time, np.array([s.x_lo - 0.5 * s.h]))
    ext = np.concatenate([ghost, s.cell_averages])
    return solve(s.time + s.cfl * s.h / float(np.max(np.abs(2.0 + ext))), s)


class TestStep:
    def test_constant_interior_preserved(self):
        s = GodunovState(-10.0, 10.0, np.full(64, 0.3), time=0.5)
        s2 = one_step(s)
        # interior cells see equal fluxes on both faces
        assert np.allclose(s2.cell_averages[1:-1], 0.3, atol=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(
        cells=st.lists(_on_range, min_size=2, max_size=40),
        ghost=_on_range,
        cfl=st.floats(0.05, 0.95),
        width=st.floats(0.5, 50.0),
        cut=st.floats(1e-6, 10.0),
    )
    def test_equals_exact_riemann_update(self, cells, ghost, cfl, width, cut):
        # on the invariant range the upwind step is the exact-Riemann step, bit
        # for bit; a solve from time 0 that ends within one CFL step takes one
        # step.  The outflow face sees the last cell on both sides
        u = np.array(cells)
        s = GodunovState(-width, width, u, time=0.0, cfl=cfl)
        ext = np.concatenate([[ghost], u, u[-1:]])
        dt = min(cfl * s.h / float(np.max(np.abs(2.0 + ext))), cut)
        f = godunov_flux(ext[:-1], ext[1:])
        expected = u - dt / s.h * (f[1:] - f[:-1])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fv, "psi_weak_array", inflow(ghost))
            s2 = solve(dt, s)
        assert s2.time == dt
        assert s2.cell_averages.tobytes() == expected.tobytes()

    def test_mass_conservation(self):
        s = initial_state(256)
        # telescoping: interior fluxes cancel, only the inflow and outflow
        # face fluxes move mass; the outflow face sees the last cell on both sides
        u = s.cell_averages
        h = s.h
        gl = -math.atan(s.x_lo - 0.5 * h)  # exact entropy field at t = 0
        ext = np.concatenate([[gl], u, u[-1:]])
        f = godunov_flux(ext[:-1], ext[1:])
        dt = 0.9 * h / np.max(np.abs(2.0 + ext))
        expected_change = -dt * (f[-1] - f[0])
        s2 = solve(dt, s)
        change = (np.sum(s2.cell_averages) - np.sum(u)) * h
        assert change == pytest.approx(expected_change, abs=1e-12)

    def test_local_truncation(self):
        s = initial_state(512)
        s2 = one_step(s)
        dt = s2.time
        linf = float(np.max(np.abs(s2.cell_averages - s.cell_averages)))
        # |du| <= dt * max|f'| * max|psi0'| + O(h) boundary effects
        assert linf <= dt * (2.0 + math.pi / 2) * 1.0 + s.h

    def test_inflow_ghost_from_one_field_call(self, monkeypatch):
        calls, fill_times = [], []

        def counted(t, x):
            calls.append(np.broadcast_arrays(t, x))
            return psi_weak_array(t, x)

        def recorded(t, x):
            fill_times.append(t)
            return psi_weak_array(t, x)

        s0 = initial_state(64)
        reference_solve_at((0.2,), s0, recorded)
        monkeypatch.setattr(fv, "psi_weak_array", counted)
        s = solve(0.2, s0)
        # two full CFL steps and a capped one, each after one ghost fill; the
        # three fill times are one window, and each sweep's call holds the
        # inflow ghost center once at each of its times until the times settle
        assert len(fill_times) == 3 and s.time == 0.2
        assert len(calls) == 3
        for t, x in calls:
            assert x.tolist() == [s0.x_lo - 0.5 * s0.h] * 3
        assert calls[-1][0].tolist() == fill_times

    def test_invariants_over_run(self):
        # _update enforces the stencil-wise maximum principle and extended
        # total-variation monotonicity on every step; at run level the values
        # stay inside the invariant range and the interior variation moves
        # only by the (tiny) drift of the Dirichlet inflow values
        s0 = initial_state(400)
        tv0 = s0.total_variation
        for s in solve_at([0.05 * k for k in range(1, 21)], s0):
            assert s.cell_averages.min() >= -math.pi / 2
            assert s.cell_averages.max() <= math.pi / 2
            # inflow drift is bounded by the ghost-value rate (~0.03/unit time)
            assert s.total_variation <= tv0 + 0.05 * s.time + 1e-9


class TestEntryChecks:
    @pytest.mark.parametrize("t_end", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("march", [
        lambda t, s: solve(t, s), lambda t, s: solve_at((0.5, t), s),
    ], ids=["solve", "solve_at"])
    def test_non_finite_end_rejected_before_any_step(self, monkeypatch, march, t_end):
        s0 = initial_state(64)

        def no_step(t, x):
            raise AssertionError("a ghost fill ran before the end time was checked")

        monkeypatch.setattr(fv, "psi_weak_array", no_step)
        with pytest.raises(DomainError, match=f"^t_end = {t_end} is not finite$"):
            march(t_end, s0)

    # a cell width of 2.5e-321 and one that underflows to 0
    @pytest.mark.parametrize("x_hi", [1e-320, 5e-324])
    @pytest.mark.parametrize("march", [
        lambda t, s: solve(t, s), lambda t, s: solve_at((0.0, t), s),
    ], ids=["solve", "solve_at"])
    def test_end_beyond_step_bound_rejected_before_any_step(self, monkeypatch, march, x_hi):
        s0 = initial_state(4, 0.0, x_hi)

        def no_step(t, x):
            raise AssertionError("a ghost fill ran before the step bound was checked")

        monkeypatch.setattr(fv, "psi_weak_array", no_step)
        with pytest.raises(DomainError, match=f"^t_end = 0.1 takes more than 100000000 CFL steps "
                                              f"on cells of width {s0.h!r}$"):
            march(0.1, s0)

    def test_step_bound_edge(self, monkeypatch):
        # every speed is at least 2 - pi/2: the bound is 1e8 steps of cfl*h/(2 - pi/2)
        s0 = initial_state(4, 0.0, 4.0)
        edge = 1e8 * s0.cfl * s0.h / (2.0 - math.pi / 2)

        class Marched(Exception):
            pass

        def first_step(t, x):
            raise Marched

        monkeypatch.setattr(fv, "psi_weak_array", first_step)
        with pytest.raises(Marched):
            solve(edge * (1.0 - 1e-9), s0)
        with pytest.raises(DomainError, match="takes more than 100000000 CFL steps"):
            solve(edge * (1.0 + 1e-9), s0)


class TestStepAdvances:
    @pytest.mark.parametrize("march", [
        lambda t, s: solve(t, s), lambda t, s: solve_at((s.time, t), s),
    ], ids=["solve", "solve_at"])
    def test_step_that_leaves_the_time_unchanged_raises(self, monkeypatch, march):
        # every CFL step, about 1.4e-16, is below half an ulp of 5 (4.4e-16):
        # t + dt == t, and the march would never reach an end past 5
        s0 = replace(initial_state(2, 0.0, 1e-3, cfl=1e-12), time=5.0)
        calls = []

        def counted(t, x):
            calls.append(np.broadcast(t, x).size)
            return psi_weak_array(t, x)

        monkeypatch.setattr(fv, "psi_weak_array", counted)
        t_end = math.nextafter(5.0, 6.0)
        message = f"^t_end = {t_end!r} is out of reach: a CFL step of [-+.e0-9]+ leaves t = 5.0 unchanged$"
        with pytest.raises(DomainError, match=message):
            march(t_end, s0)
        assert calls == [1]
        assert outcome(lambda: reference_solve_at((t_end,), s0))[0] is DomainError
        # an end at the start time takes no step
        assert solve(5.0, s0) is s0

    def test_steps_of_about_half_an_ulp_march(self):
        # the shortest step the invariant range allows, cfl*h/(2 + pi/2), is
        # half an ulp of 5; the cells' speeds make every step a little longer,
        # so each one advances the time, by one ulp
        t_end = 5.0 + 20 * math.ulp(5.0)
        s0 = replace(initial_state(4, 0.0, 4.0, cfl=0.5 * math.ulp(5.0) * (2.0 + math.pi / 2)), time=5.0)
        got = outcome(lambda: solve_at((t_end,), s0))
        assert got == outcome(lambda: reference_solve_at((t_end,), s0))
        assert got[0][0] == t_end.hex()


class TestChecksKept:
    # an inflow ghost below the sonic point u = -2: the upwind flux is then
    # not the exact-Riemann flux, and the per-step checks must stop the march.
    # grid: that ghost, and the cells and cfl of a grid on [-1, 1] it breaks
    @pytest.mark.parametrize("grid, message", [
        # cell 0 rises above every stencil value
        ((-5.213242170978961, [0.535, 0.606, -1.056, -1.496], 0.92), "maximum principle violated"),
        # cell 0 rises, but stays below the largest cell
        ((-4.455921452193967, [-0.807, -0.764, -1.341, -0.761, 0.827, 0.622], 0.42), "total variation increased"),
    ], ids=["ghost=-5.213,4cells,cfl=0.92", "ghost=-4.456,6cells,cfl=0.42"])
    # solve_at's first end is reached by a capped step on the copy of the cells
    @pytest.mark.parametrize("march", [
        lambda s: solve(1.0, s), lambda s: solve_at((1e-3, 1.0), s),
    ], ids=["solve", "solve_at"])
    def test_raises(self, monkeypatch, march, grid, message):
        ghost, cells, cfl = grid
        monkeypatch.setattr(fv, "psi_weak_array", inflow(ghost))
        with pytest.raises(InvariantViolation, match=message):
            march(GodunovState(-1.0, 1.0, np.array(cells), 0.0, cfl))

    # switch: the inflow ghost before tau, on the range, and from tau on, below
    # the sonic point.  The check fires on a march that carried the cells' min,
    # max and total variation through three full steps; "capped": the first
    # end lies inside the first step past tau, so the shared march fills the
    # ghost and hands it, with the cells and what it carries, to the copy
    @pytest.mark.parametrize("switch, message", [
        ((-1.0, -6.5), "maximum principle violated"),
        ((-1.0, -5.0), "total variation increased"),
    ], ids=["ghost=-1.0,then=-6.5", "ghost=-1.0,then=-5.0"])
    @pytest.mark.parametrize("where", ["shared", "capped"])
    def test_raises_after_valid_steps(self, monkeypatch, switch, message, where):
        tau = 0.36
        fills = []
        switched = switch_field(tau, *switch)

        def field(t, x):
            fills.append(np.max(t))  # the reference's fill times
            return switched(t, x)

        s0 = GodunovState(-1.0, 1.0, np.array([0.76, 0.2, 1.26, -0.88]), 0.0, 0.8)
        want_steps = []
        with pytest.raises(InvariantViolation, match=message):
            reference_solve_at((5.0,), s0, field, steps=want_steps)
        t_bad = fills[-1]
        assert len(fills) == 4 and t_bad > tau
        if where == "capped":
            t_ends = (t_bad + 0.5 * want_steps[-1], 5.0)
            want_steps[-1] = t_ends[0] - t_bad
        else:
            t_ends = (5.0,)
        with pytest.raises(InvariantViolation) as want:
            reference_solve_at(t_ends, s0, field)
        steps = []
        update = fv._update
        monkeypatch.setattr(fv, "_update", lambda m, dt: steps.append(dt) or update(m, dt))
        monkeypatch.setattr(fv, "psi_weak_array", field)
        with pytest.raises(InvariantViolation, match=message) as got:
            solve_at(t_ends, s0)
        assert str(got.value) == str(want.value)
        assert steps == want_steps


def outcome(march):
    """(time, cell bytes) of each state, or the type and message of the error raised."""
    try:
        return [(float(s.time).hex(), s.cell_averages.tobytes()) for s in march()]
    except (DomainError, InvariantViolation) as e:
        return type(e), str(e)


class TestReferenceMarch:
    # solve_at carries the cells' min, max and total variation between steps;
    # the reference recomputes the checks from the whole array on every
    # step.  solve_at asks the field only for points its march could ask for
    @settings(max_examples=40, deadline=None)
    @given(grid=_grid, steps=_steps)
    def test_equals_reference(self, grid, steps):
        t_ends, s0 = grid_job(*grid, steps)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fv, "psi_weak_array", within_reach(t_ends, s0))
            got = outcome(lambda: solve_at(t_ends, s0))
        assert got == outcome(lambda: reference_solve_at(t_ends, s0))

    # on the exact field every state and error equals, bit for bit, that of
    # a march that also fills a right ghost at x_hi + h/2: psi_weak is
    # nonincreasing in x, so that ghost is never the largest state, and the
    # checks it fed never decided a step
    @settings(max_examples=60, deadline=None)
    @given(grid=_grid, steps=_steps)
    def test_equals_two_ghost_march(self, grid, steps):
        t_ends, s0 = grid_job(*grid, steps)
        got = outcome(lambda: solve_at(t_ends, s0))
        assert got == outcome(lambda: reference_solve_at(t_ends, s0, right_ghost=True))

    def test_wrong_predictions_only_miss(self, monkeypatch):
        # the cells' max, 1.5, exceeds the ghost throughout, so every fill
        # time the march predicts from the ghost alone is wrong: each fill
        # misses and starts a window of its own, and the states still equal
        # the reference's
        s0 = GodunovState(-10.0, 10.0, np.full(64, 1.5), 0.0)
        t_ends = (0.5, 1.0)
        fills, misses = [], []
        fill, prefetch = fv._fill_ghost, fv._prefetch
        monkeypatch.setattr(fv, "_fill_ghost", lambda *a: fills.append(a[1]) or fill(*a))
        monkeypatch.setattr(fv, "_prefetch", lambda *a: misses.append(a) or prefetch(*a))
        got = outcome(lambda: solve_at(t_ends, s0))
        assert got == outcome(lambda: reference_solve_at(t_ends, s0))
        assert len(misses) == len(fills) >= 10

    def test_always_missing_grid_solves_short_windows(self, monkeypatch):
        # as above, on 400 cells to t = 1: every fill misses.  The first
        # window is whole; each later one holds twice the fills its last
        # window served, here two times settled in two sweeps: at most 2
        # field calls and 4 ghost points per fill after the first
        s0 = GodunovState(-10.0, 10.0, np.full(400, 1.5), 0.0)
        points, fills, rounds = [], [], []

        def counted(t, x):
            points.append(np.broadcast(t, x).size)
            return psi_weak_array(t, x)

        def prefetched(*args):
            first = len(points)
            table = prefetch(*args)
            rounds.append((len(points) - first, sum(points[first:])))
            return table

        fill, prefetch = fv._fill_ghost, fv._prefetch
        monkeypatch.setattr(fv, "psi_weak_array", counted)
        monkeypatch.setattr(fv, "_fill_ghost", lambda *a: fills.append(a[1]) or fill(*a))
        monkeypatch.setattr(fv, "_prefetch", prefetched)
        got = outcome(lambda: solve_at((1.0,), s0))
        monkeypatch.undo()
        assert got == outcome(lambda: reference_solve_at((1.0,), s0))
        assert len(rounds) == len(fills) >= 70
        assert all(calls <= 2 and n <= 4 for calls, n in rounds[1:])

    # ghosts: the exact field throughout, that field until t = 1 and a NaN
    # inflow ghost after, or constant cells behind a ghost of the same value,
    # whose total variation stays +0.0 on every step; each march takes at
    # least the given numbers of steps and capped steps
    @pytest.mark.parametrize("ghosts, n_steps, n_capped", [(None, 60, 3), (math.nan, 10, 1), ("constant", 50, 3)],
                             ids=["None", "nan", "constant"])
    def test_carried_state_equals_whole_array_reductions(self, monkeypatch, ghosts, n_steps, n_capped):
        # before every update, in the shared march and in each capped copy
        def same(a, b):
            return a == b or (math.isnan(a) and math.isnan(b))

        s0 = initial_state(201)
        if ghosts is None:
            field = psi_weak_array
        elif ghosts == "constant":
            s0, field = replace(s0, cell_averages=np.full(201, 0.5)), inflow(0.5)
        else:
            field = switch_field(1.0, None, ghosts)
        steps, capped, parents, cuts = [], [], [], []
        update, copy = fv._update, fv._March.copy

        def copied(m):
            parents.append(m)
            cuts.append(copy(m))
            return cuts[-1]

        def checked(m, dt):
            ext = m.ext
            assert float(m.tv_cells).hex() == float(np.add.reduce(np.abs(np.diff(ext[1:])))).hex()
            # each view is of this march's own arrays
            for view, base in ((m.cells, ext), (m.upwind, ext), (m.flux_out, m.flux),
                               (m.flux_in, m.flux), (m.adiff_cells, m.adiff)):
                assert np.shares_memory(view, base)
            assert same(m.lo, np.min(ext[1:])) and same(m.hi, np.max(ext[1:]))
            # the bounds the update takes from the carried range and the ghost
            assert same(fv._min(m.lo, ext[0]), np.min(ext)) and same(fv._max(m.hi, ext[0]), np.max(ext))
            # the scratch buffers start on 64-byte cache lines
            assert all(buf.ctypes.data % 64 == 0 for buf in (m.flux, m.jump, m.adiff))
            if any(m is cut for cut in cuts):
                # a capped copy owns its ghost and cells and shares the scratch buffers
                shared = parents[0]
                assert not any(np.shares_memory(ext, other.ext) for other in (shared, *cuts) if other is not m)
                assert m.flux is shared.flux and m.jump is shared.jump and m.adiff is shared.adiff
                capped.append(dt)
            steps.append(dt)
            update(m, dt)

        monkeypatch.setattr(fv, "_update", checked)
        monkeypatch.setattr(fv._March, "copy", copied)
        monkeypatch.setattr(fv, "psi_weak_array", field)
        with np.errstate(invalid="ignore"):
            outcome(lambda: solve_at((0.3, 1.27, 2.0), s0))
        # every copy is of the one shared march
        assert all(parent is parents[0] for parent in parents)
        assert len(steps) >= n_steps
        assert len(capped) >= n_capped

    # the godunov suite's two marches on their real grids: 4000 cells to
    # t = 2, and 8000 cells to t = 1.27 and 2
    @pytest.mark.parametrize("t_ends, n_cells", [((2.0,), 4000), ((1.27, 2.0), 8000)])
    def test_real_grids_equal_reference(self, t_ends, n_cells):
        s0 = initial_state(n_cells)
        assert outcome(lambda: solve_at(t_ends, s0)) == outcome(lambda: reference_solve_at(t_ends, s0))

    def test_random_cells_take_the_general_path(self, update_paths):
        # unordered cells leave the ordered path for the whole-array
        # reductions, and the states still equal the reference's
        t_ends, s0 = grid_job(64, -10.0, 20.0, 0.9, 0.5, 20261021, [10.0, 30.0])
        got = outcome(lambda: solve_at(t_ends, s0))
        assert update_paths["general"] >= 1
        assert got == outcome(lambda: reference_solve_at(t_ends, s0))

    # a non-finite inflow ghost: NaN must reach the CFL step and the bounds as
    # np.max and np.min of the whole array would carry it (a NaN step or time
    # ends the march with an invalid state); -inf breaks the maximum
    # principle
    @pytest.mark.parametrize("ghosts", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "minus_inf"])
    @pytest.mark.parametrize("tau", [0.0, 1.2])
    def test_non_finite_ghosts(self, monkeypatch, ghosts, tau):
        field = switch_field(tau, -1.0, ghosts)
        s0 = GodunovState(-10.0, 10.0, np.linspace(-1.0, -1.2, 64), 0.0)
        with np.errstate(invalid="ignore"):
            want = outcome(lambda: reference_solve_at((3.0, 5.0), s0, field))
            monkeypatch.setattr(fv, "psi_weak_array", field)
            assert outcome(lambda: solve_at((3.0, 5.0), s0)) == want
        assert isinstance(want, tuple)


class TestSolve:
    def test_one_state_per_solve(self, monkeypatch):
        built = []
        post_init = GodunovState.__post_init__

        def counted(self):
            built.append(self.time)
            post_init(self)

        s0 = initial_state(400)
        monkeypatch.setattr(GodunovState, "__post_init__", counted)
        s = solve(2.0, s0)
        assert built == [2.0]
        assert s.time == 2.0
        built.clear()
        assert [s.time for s in solve_at((1.27, 2.0), s0)] == [1.27, 2.0]
        assert built == [1.27, 2.0]

    @pytest.mark.parametrize("t_end, n_cells, expected", [
        (2.0, 800, 0.03899372247601471),
        (0.5, 200, 0.06192566358829541),
    ])
    def test_frozen_l1_error(self, t_end, n_cells, expected):
        s = solve(t_end, initial_state(n_cells))
        assert s.time == t_end
        assert l1_error(s) == expected

    def test_noop(self):
        s = initial_state(64)
        assert solve(0.0, s) is s

    def test_exact_final_time(self):
        s = solve(0.7, initial_state(128))
        assert s.time == pytest.approx(0.7, abs=1e-14)

    def test_backward_rejected(self):
        s = solve(0.5, initial_state(64))
        with pytest.raises(DomainError):
            solve(0.2, s)

    def test_initial_l1_error_small(self):
        # cell centers vs exact averages differ at O(h^2)
        assert l1_error(initial_state(4000)) <= 1e-5

    def test_convergence(self):
        errs = []
        for n in (500, 1000):
            errs.append(l1_error(solve(2.0, initial_state(n))))
        assert errs[1] < errs[0]
        order = math.log2(errs[0] / errs[1])
        assert order >= 0.5

    def test_shock_capture(self):
        s = solve(2.0, initial_state(2000))
        jumps = np.abs(np.diff(s.cell_averages))
        x_jump = s.cell_centers[int(np.argmax(jumps))]
        assert abs(x_jump - 4.0) <= 3 * s.h

    def test_wedge_entropy_selection(self):
        s = solve(1.27, initial_state(2000))
        i = int(np.argmin(np.abs(s.cell_centers - 2.5)))
        u = float(s.cell_averages[i])
        assert abs(u - psi_weak(Point(1.27, 2.5))) <= 0.05
        assert abs(u - psi_classical(Point(1.27, 2.5))) >= 0.5


class TestSolveAt:
    @settings(max_examples=40, deadline=None)
    @given(
        n_cells=st.integers(8, 48),
        t0=st.sampled_from([0.0, 0.35, 1.1]),
        offsets=st.lists(st.just(0.0) | st.floats(0.0, 1.5), min_size=1, max_size=4),
        repeat=st.booleans(),
    )
    def test_equals_separate_solves(self, n_cells, t0, offsets, repeat):
        s0 = replace(initial_state(n_cells), time=t0)
        t_ends = sorted(t0 + d for d in (offsets * 2 if repeat else offsets))
        got = solve_at(t_ends, s0)
        want = [solve(t, s0) for t in t_ends]
        assert len(got) == len(t_ends)
        for a, b in zip(got, want):
            assert a.time == b.time
            assert a.cell_averages.tobytes() == b.cell_averages.tobytes()

    def test_ends_within_one_step(self):
        # all three ends leave the shared march at the same CFL step
        s0 = initial_state(64)
        t_ends = (0.5, 0.5 + 1e-9, 0.5 + 2e-9)
        for a, t in zip(solve_at(t_ends, s0), t_ends):
            b = solve(t, s0)
            assert (a.time, a.cell_averages.tobytes()) == (b.time, b.cell_averages.tobytes())

    def test_second_capped_step(self, monkeypatch):
        # one CFL step spans the march, but t0 + (t_end - t0) rounds below
        # t_end, so a second capped step lands on t_end exactly
        t0, t_end = 0.25405573465904935, 0.7571879348098128
        assert t0 + (t_end - t0) < t_end
        fills = []
        fill = fv._fill_ghost
        monkeypatch.setattr(fv, "_fill_ghost", lambda *a: fills.append(a[1]) or fill(*a))
        s = solve_at((t_end,), replace(initial_state(4), time=t0))[0]
        assert len(fills) == 2 and s.time == t_end

    def test_start_time_returns_the_state(self):
        s0 = initial_state(64)
        first, last = solve_at((0.0, 0.3), s0)
        assert first is s0 and last.time == 0.3
        assert solve_at((), s0) == ()

    @pytest.mark.parametrize("t_ends", [(1.0, 0.5), (0.2, 0.7, 0.6), (-0.1, 0.5)])
    def test_decreasing_rejected(self, t_ends):
        with pytest.raises(DomainError):
            solve_at(t_ends, initial_state(64))

    def test_one_march_for_both_ends(self, monkeypatch):
        # the second end costs at most the fill of a second capped step
        fills = []
        fill = fv._fill_ghost
        monkeypatch.setattr(fv, "_fill_ghost", lambda *a: fills.append(a[1]) or fill(*a))
        s0 = initial_state(400)
        solve(2.0, s0)
        n_solve = len(fills)
        fills.clear()
        solve_at((1.27, 2.0), s0)
        assert len(fills) <= n_solve + 1

    def test_godunov_suite_field_calls(self, verify_runs):
        # the godunov suite's 4000- and 8000-cell marches in the seed-7 run of
        # every suite: 4,661 ghost fills, as at one field call per fill (1,554
        # and 3,107), served from 6 windows (2 and 4) of 4 to 7 fixed-point
        # sweeps, one field call each; and the four exact-average calls (at
        # one time each) of the two l1_error comparisons
        run = verify_runs["all", 7]
        assert run.fills == 4661
        assert (run.windows[4000], run.windows[8000]) == (2, 4)
        assert (run.calls[1], run.calls[0]) == (36, 4)

    def test_godunov_suite_updates_take_the_ordered_path(self, verify_runs):
        # the entropy field is nonincreasing in x and the monotone scheme keeps
        # it so: each of the 4,662 updates of the two marches leaves
        # nonincreasing cells behind a ghost no lower
        assert verify_runs["all", 7].updates == {"ordered": 4662}
