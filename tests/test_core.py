import math

import numpy as np
import pytest

from shocklab.core import (
    GEOM_TOL,
    DomainError,
    Point,
    Vec2,
    _check_points,
    psi0,
    psi0_prime,
    psi0_second,
)


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

    @pytest.mark.parametrize("t, x, message", [
        (-1.0, 0.0, "t < 0 at (-1.0, 0.0); only t >= 0 is modelled"),
        (math.nan, 0.0, "non-finite point (nan, 0.0)"),
        (1e151, 0.0, "(1e+151, 0.0) is beyond the modelled range t, |x| <= 1e+150"),
        (0.0, -1e300, "(0.0, -1e+300) is beyond the modelled range t, |x| <= 1e+150"),
    ])
    def test_point_is_the_size_1_point_check(self, t, x, message):
        with pytest.raises(DomainError) as err:
            Point(t, x)
        assert str(err.value) == message
        with pytest.raises(DomainError) as err:
            _check_points(np.array([2.0, t]), np.array([1.0, x]))
        assert str(err.value) == message

    def test_point_at_the_edge_of_the_range(self):
        p = Point(1e150, -1e150)
        assert (p.t, p.x) == (1e150, -1e150)

    def test_vec2(self):
        assert Vec2(1.0, -2.0).is_zero is False
        assert Vec2(0.0, 0.0).is_zero is True
        with pytest.raises(DomainError):
            Vec2(math.inf, 0.0)

    def test_policy_defaults(self):
        assert GEOM_TOL <= 1e-10
