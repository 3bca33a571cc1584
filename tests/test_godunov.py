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
from shocklab.verification import run_suite


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
    h = s.h
    ghosts = psi_weak_array(s.time, np.array([s.x_lo - 0.5 * h, s.x_hi + 0.5 * h]))
    ext = np.concatenate([ghosts[:1], s.cell_averages, ghosts[1:]])
    return solve(s.time + s.cfl * h / float(np.max(np.abs(2.0 + ext))), s)


class TestStep:
    def test_constant_interior_preserved(self):
        s = GodunovState(-10.0, 10.0, np.full(64, 0.3), time=0.5)
        s2 = one_step(s)
        # interior cells see equal fluxes on both faces
        assert np.allclose(s2.cell_averages[1:-1], 0.3, atol=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(
        cells=st.lists(_on_range, min_size=2, max_size=40),
        ghosts=st.tuples(_on_range, _on_range),
        cfl=st.floats(0.05, 0.95),
        width=st.floats(0.5, 50.0),
        cut=st.floats(1e-6, 10.0),
    )
    def test_equals_exact_riemann_update(self, cells, ghosts, cfl, width, cut):
        # on the invariant range the upwind step is the exact-Riemann step, bit
        # for bit; a solve from time 0 that ends within one CFL step takes one step
        u = np.array(cells)
        s = GodunovState(-width, width, u, time=0.0, cfl=cfl)
        ext = np.concatenate([[ghosts[0]], u, [ghosts[1]]])
        dt = min(cfl * s.h / float(np.max(np.abs(2.0 + ext))), cut)
        f = godunov_flux(ext[:-1], ext[1:])
        expected = u - dt / s.h * (f[1:] - f[:-1])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fv, "psi_weak_array", lambda t, x: np.array(ghosts))
            s2 = solve(dt, s)
        assert s2.time == dt
        assert s2.cell_averages.tobytes() == expected.tobytes()

    def test_mass_conservation(self):
        s = initial_state(256)
        # telescoping: interior fluxes cancel, only boundary fluxes move mass
        u = s.cell_averages
        h = s.h
        gl = -math.atan(s.x_lo - 0.5 * h)  # exact entropy field at t = 0
        gr = -math.atan(s.x_hi + 0.5 * h)
        ext = np.concatenate([[gl], u, [gr]])
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

    def test_both_ghost_cells_from_one_field_call(self, monkeypatch):
        calls = []

        def counted(t, x):
            calls.append(np.size(x))
            return psi_weak_array(t, x)

        monkeypatch.setattr(fv, "psi_weak_array", counted)
        s = solve(0.2, initial_state(64))
        # two full CFL steps and a capped one, each after one ghost fill
        assert calls == [2, 2, 2]
        assert s.time == 0.2

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


class TestChecksKept:
    # ghost values off the invariant range: the upwind flux is then not the
    # exact-Riemann flux, and the per-step checks must stop the march
    @pytest.mark.parametrize("ghosts, message", [
        # a left ghost below the sonic point u = -2 pushes cell 0 above every stencil value
        ((-3.9, -1.5), "maximum principle violated"),
        ((-6.0, 6.0), "total variation increased"),
    ])
    # solve_at's first end is reached by a capped step on the copy of the cells
    @pytest.mark.parametrize("march", [
        lambda s: solve(1.0, s), lambda s: solve_at((1e-3, 1.0), s),
    ], ids=["solve", "solve_at"])
    def test_raises(self, monkeypatch, march, ghosts, message):
        monkeypatch.setattr(fv, "psi_weak_array", lambda t, x: np.array(ghosts))
        with pytest.raises(InvariantViolation, match=message):
            march(GodunovState(-10.0, 10.0, np.full(64, -1.5), 0.0))


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
        fill = fv._fill_ghosts
        monkeypatch.setattr(fv, "_fill_ghosts", lambda *a: fills.append(a[2]) or fill(*a))
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
        calls = []

        def counted(t, x):
            calls.append(t)
            return psi_weak_array(t, x)

        monkeypatch.setattr(fv, "psi_weak_array", counted)
        s0 = initial_state(400)
        solve(2.0, s0)
        n_solve = len(calls)
        calls.clear()
        solve_at((1.27, 2.0), s0)
        assert len(calls) <= n_solve + 1

    def test_godunov_suite_field_calls(self, monkeypatch):
        # one 2-point ghost fill per step of the 4000- and 8000-cell marches,
        # and the four exact-average calls of the two l1_error comparisons
        calls = []

        def counted(t, x):
            calls.append(np.size(x))
            return psi_weak_array(t, x)

        monkeypatch.setattr(fv, "psi_weak_array", counted)
        run_suite("godunov")
        assert len(calls) == 4665
        assert calls.count(2) == 4661
