import math

import numpy as np
import pytest

from shocklab.core import DomainError, InvariantViolation, Point
from shocklab.burgers import psi_classical, psi_weak, psi_weak_array
from shocklab.godunov import (
    GodunovState,
    godunov_flux,
    initial_state,
    l1_error,
    solve,
    state_from_csv,
    state_to_csv,
    step,
)


def flux(u):
    return 0.5 * (2.0 + u) ** 2


class TestFlux:
    def test_constant(self):
        assert godunov_flux(0.0, 0.0) == 2.0

    def test_shock_case(self):
        # decreasing data: max of the endpoint fluxes (upwind left on range)
        assert godunov_flux(1.0, -1.0) == 4.5

    def test_rarefaction_case(self):
        assert godunov_flux(-1.0, 1.0) == 0.5

    def test_transonic_rarefaction(self):
        # fan straddling the sonic point u = -2 gives the sonic flux 0
        assert godunov_flux(-3.0, 1.0) == 0.0

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

    def test_validation(self):
        with pytest.raises(DomainError):
            initial_state(100, cfl=1.5)
        with pytest.raises(DomainError):
            GodunovState(0.0, -1.0, 10, np.zeros(10), 0.0)
        with pytest.raises(InvariantViolation):
            GodunovState(-1.0, 1.0, 4, np.array([0.0, 3.0, 0.0, 0.0]), 0.0)

    def test_csv_round_trip(self):
        s = initial_state(32)
        text = state_to_csv(s)
        back = state_from_csv(text, time=0.0)
        assert back.n_cells == 32
        assert np.allclose(back.cell_averages, s.cell_averages)
        assert back.x_lo == pytest.approx(s.x_lo)
        assert back.x_hi == pytest.approx(s.x_hi)


class TestStep:
    def test_constant_interior_preserved(self):
        s = GodunovState(-10.0, 10.0, 64, np.full(64, 0.3), time=0.5)
        s2 = step(s)
        # interior cells see equal fluxes on both faces
        assert np.allclose(s2.cell_averages[1:-1], 0.3, atol=1e-15)

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
        s2 = step(s)
        change = (np.sum(s2.cell_averages) - np.sum(u)) * h
        assert change == pytest.approx(expected_change, abs=1e-12)

    def test_local_truncation(self):
        s = initial_state(512)
        s2 = step(s)
        dt = s2.time
        linf = float(np.max(np.abs(s2.cell_averages - s.cell_averages)))
        # |du| <= dt * max|f'| * max|psi0'| + O(h) boundary effects
        assert linf <= dt * (2.0 + math.pi / 2) * 1.0 + s.h

    def test_both_ghost_cells_from_one_field_call(self, monkeypatch):
        import shocklab.godunov as fv

        calls = []

        def counted(t, x):
            calls.append(np.size(x))
            return psi_weak_array(t, x)

        monkeypatch.setattr(fv, "psi_weak_array", counted)
        s = initial_state(64)
        s2 = step(step(s))
        assert calls == [2, 2]
        assert s2.time > 0.0

    def test_invariants_over_run(self):
        # step() enforces the stencil-wise maximum principle and extended
        # total-variation monotonicity internally; at run level the values
        # stay inside the invariant range and the interior variation moves
        # only by the (tiny) drift of the Dirichlet inflow values
        s = initial_state(400)
        tv0 = s.total_variation
        for _ in range(20):
            s = step(s)
            assert s.cell_averages.min() >= -math.pi / 2
            assert s.cell_averages.max() <= math.pi / 2
            # inflow drift is bounded by the ghost-value rate (~0.03/unit time)
            assert s.total_variation <= tv0 + 0.05 * s.time + 1e-9


class TestSolve:
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
