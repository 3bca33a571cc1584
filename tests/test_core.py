import math

import numpy as np
import pytest
from scipy.optimize import brentq

from shocklab.core import (
    GEOM_TOL,
    DomainError,
    MaxIterExceeded,
    Point,
    Vec2,
    psi0,
    psi0_prime,
    psi0_second,
)
from shocklab import characteristics
from shocklab.characteristics import _solve_feet


class TestInitialDatum:
    def test_values(self):
        assert psi0(0.0) == 0.0
        assert psi0(1.0) == pytest.approx(-math.pi / 4, abs=1e-15)

    def test_odd_symmetry(self):
        xs = np.linspace(-8, 8, 41)
        assert np.allclose(psi0(xs), -psi0(-xs), atol=1e-15)

    def test_strictly_decreasing(self):
        xs = np.linspace(-20, 20, 400)
        vals = psi0(xs)
        assert np.all(np.diff(vals) < 0)

    def test_prime_values(self):
        assert psi0_prime(0.0) == -1.0
        assert psi0_prime(1.0) == -0.5
        assert psi0_prime(3.0) == pytest.approx(-0.1, abs=1e-15)

    def test_prime_matches_finite_difference(self):
        # central differences converge at second order
        for x in (-2.0, 0.3, 1.0, 3.0):
            errs = []
            for h in (1e-3, 1e-4):
                fd = (psi0(x + h) - psi0(x - h)) / (2 * h)
                errs.append(abs(fd - psi0_prime(x)))
            order = math.log10(errs[0] / errs[1])
            assert order >= 1.9

    def test_second_values(self):
        assert psi0_second(0.0) == 0.0
        assert psi0_second(1.0) == pytest.approx(0.5, abs=1e-15)
        assert psi0_second(-1.0) == pytest.approx(-0.5, abs=1e-15)

    def test_second_matches_finite_difference(self):
        for x in (-1.0, 0.5, 2.0):
            h = 1e-4
            fd = (psi0_prime(x + h) - psi0_prime(x - h)) / (2 * h)
            assert fd == pytest.approx(psi0_second(x), abs=1e-7)


class TestDomainTypes:
    def test_point_rejects_negative_time(self):
        with pytest.raises(DomainError):
            Point(-0.1, 0.0)

    def test_point_rejects_non_finite(self):
        with pytest.raises(DomainError):
            Point(math.nan, 0.0)
        with pytest.raises(DomainError):
            Point(1.0, math.inf)

    def test_vec2(self):
        assert Vec2(1.0, -2.0).is_zero is False
        assert Vec2(0.0, 0.0).is_zero is True
        with pytest.raises(DomainError):
            Vec2(math.inf, 0.0)

    def test_policy_defaults(self):
        assert GEOM_TOL <= 1e-10


class TestSolveMonotoneArray:
    def test_matches_brentq_per_point(self):
        # easy points, a point near the crease and a wide-|d| point converge together
        t = np.array([0.5, 2.0, 1.0, 0.9, 3.0])
        d = np.array([0.7, 1.0, 1e-6, -4e5, -0.3])
        lo = np.array([0.0, 1.0, 0.0, -4e5 - 2.0, -10.0])
        hi = np.array([2.0, 10.0, 1.0, 0.0, -math.sqrt(2.0)])
        u = _solve_feet(t, d, lo, hi)
        for ti, di, a, b, ui in zip(t, d, lo, hi, u):
            f = lambda y: y - ti * math.atan(y) - di
            expected = brentq(f, a, b, xtol=1e-15, rtol=8.9e-16)
            assert ui == pytest.approx(expected, rel=1e-13, abs=1e-13)

    def test_shape_and_blocks(self):
        # more points than one block, in a 2-D layout
        rng = np.random.default_rng(5)
        t = rng.uniform(0.0, 0.99, (3, 7000))
        d = rng.uniform(0.01, 50.0, (3, 7000))
        u = _solve_feet(t, d, np.zeros_like(t), d + t * math.pi / 2)
        assert u.shape == t.shape
        residual = u - t * np.arctan(u) - d
        assert np.all(np.abs(residual) <= 8 * np.finfo(float).eps * (u + d))

    def test_collapsed_bracket_returned_as_given(self):
        t, d = np.array([2.0, 0.5]), np.array([1.0, 0.0])
        u = _solve_feet(t, d, np.array([1.25, 0.0]), np.array([1.25, 0.0]))
        assert u.tolist() == [1.25, 0.0]

    def test_max_iter_message_names_worst_point(self, monkeypatch):
        t, d = np.array([0.5, 1.0]), np.array([0.1, 1e-3])
        monkeypatch.setattr(characteristics, "_MAX_SWEEPS", 2)
        with pytest.raises(MaxIterExceeded) as err:
            _solve_feet(t, d, np.zeros(2), d + t * math.pi / 2)
        msg = str(err.value)
        assert "(t, d) = (1.0, 0.001)" in msg
        assert "residual" in msg and "bracket [0.0, " in msg
