import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from orthoentropy.errors import ToleranceError
from orthoentropy.specfun import (
    EULER_GAMMA,
    _entropy_correction_digamma,
    digamma,
    entropy_correction,
    entropy_correction_series,
    entropy_integrand,
    zeta_odd,
)

mpmath.mp.dps = 40

LOG2 = math.log(2.0)


class TestDigamma:
    def test_at_one_is_minus_gamma(self):
        assert abs(digamma(1.0) + EULER_GAMMA) < 1e-13

    def test_at_two(self):
        assert abs(digamma(2.0) - (1.0 - EULER_GAMMA)) < 1e-13

    def test_at_half_via_duplication(self):
        # duplication formula with x = 1/2 pins psi(1/2) = psi(1) - 2 log 2
        assert abs(digamma(0.5) - (-EULER_GAMMA - 2.0 * LOG2)) < 1e-13

    def test_duplication_formula_on_grid(self):
        for x in np.linspace(0.05, 20.0, 57):
            lhs = digamma(2.0 * x)
            rhs = 0.5 * digamma(x) + 0.5 * digamma(x + 0.5) + LOG2
            assert abs(lhs - rhs) < 1e-13

    def test_true_error_against_mpmath(self):
        for x in np.geomspace(1e-3, 1e6, 120):
            truth = float(mpmath.digamma(mpmath.mpf(float(x))))
            assert abs(digamma(float(x)) - truth) < 1e-13

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, math.nan, math.inf])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            digamma(bad)

    @given(st.floats(min_value=0.1, max_value=10.0))
    def test_recurrence(self, x):
        assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) < 1e-13


class TestEulerGamma:
    def test_value(self):
        assert abs(EULER_GAMMA - 0.57721566490153286) < 1e-16

    def test_consistent_with_digamma(self):
        assert abs(-digamma(1.0) - EULER_GAMMA) < 1e-13

    def test_harmonic_sum_limit(self):
        n = 10 ** 6
        harmonic = float(np.sum(1.0 / np.arange(1, n + 1)))
        assert abs(harmonic - math.log(n) - EULER_GAMMA) < 0.5 / n


class TestZetaOdd:
    def test_frozen_values(self):
        # frozen from direct summation of 1e6 terms plus an integral tail
        assert abs(zeta_odd(3) - 1.2020569031595943) < 1e-13
        assert abs(zeta_odd(5) - 1.0369277551433699) < 1e-13

    def test_against_brute_force_summation(self):
        n = 10 ** 6
        j = np.arange(1, n + 1, dtype=float)
        for m in (3, 5, 7):
            brute = float(np.sum(j ** -m)) + n ** (1 - m) / (m - 1) + 0.5 * n ** -m
            assert abs(zeta_odd(m) - brute) < 1e-13

    def test_decreasing_to_one(self):
        values = [zeta_odd(2 * k + 1) for k in range(1, 40)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        # strict until the values hit the double-precision floor at 1.0
        assert all(a > b for a, b in zip(values[:20], values[1:21]))
        assert all(v >= 1.0 for v in values)
        assert zeta_odd(129) - 1.0 < 1e-13

    def test_correctly_rounded_against_mpmath(self):
        for m in range(3, 300, 2):
            assert zeta_odd(m) == float(mpmath.zeta(m))

    @pytest.mark.parametrize("bad", [1, 2, 4, 0, -3, 100])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            zeta_odd(bad)


class TestEntropyCorrection:
    def test_half_value(self):
        assert abs(entropy_correction(0.5) - (2.0 * LOG2 - 1.0)) < 1e-13

    # the two routes stay independent: the digamma form at every x
    def test_series_matches_closed_at_reciprocals(self):
        for k in range(2, 11):
            x = 1.0 / k
            assert abs(_entropy_correction_digamma(x) - entropy_correction_series(x)) < 1e-12

    def test_dual_route_on_grid(self):
        for x in np.arange(0.05, 1.0, 0.05):
            diff = abs(_entropy_correction_digamma(float(x)) - entropy_correction_series(float(x)))
            assert diff < 1e-12

    @pytest.mark.parametrize("x", [1e-8, 1e-6, 1e-4, 1e-2, 0.125, 0.2])
    def test_relatively_accurate_at_small_x(self, x):
        # the digamma form cancels here: -0.0 at 1e-8, 7.7e-5 off at 1e-6
        xm = mpmath.mpf(x)
        exact = -xm * (mpmath.digamma(1 - xm) + 2 * mpmath.euler + mpmath.digamma(1 + xm))
        value = entropy_correction(x)
        assert value > 0.0
        assert abs((value - exact) / exact) < 1e-14

    def test_small_argument_cubic_behavior(self):
        x = 1e-3
        assert abs(entropy_correction(x) / x ** 3 - 2.0 * zeta_odd(3)) < 1e-5

    def test_positive_on_interval(self):
        for x in np.linspace(0.01, 0.99, 99):
            assert entropy_correction(float(x)) > 0.0

    def test_convexity_consequence(self):
        for x in np.linspace(0.01, 0.99, 99):
            assert entropy_correction(0.5 * x) - 0.5 * entropy_correction(float(x)) < 0.0

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 1.5])
    def test_closed_domain_errors(self, bad):
        with pytest.raises(ValueError):
            entropy_correction(bad)

    def test_series_at_zero(self):
        assert entropy_correction_series(0.0) == 0.0
        # the first term underflows to 0, which ends the sum
        assert entropy_correction_series(1e-300) == 0.0

    @pytest.mark.parametrize("x", [1e-8, 1e-5, 1e-3])
    def test_series_relatively_accurate_at_small_x(self, x):
        xm = mpmath.mpf(x)
        exact = -xm * (mpmath.digamma(1 - xm) + 2 * mpmath.euler + mpmath.digamma(1 + xm))
        value = entropy_correction_series(x)
        assert abs((value - exact) / exact) < 1e-13

    def test_series_truncation_error(self):
        # the terms shrink by x^2 = 0.999 per step: more than 20000 are needed
        with pytest.raises(ToleranceError):
            entropy_correction_series(0.9995)


class TestEntropyIntegrand:
    def test_exact_zero_at_zero(self):
        assert entropy_integrand(0.0) == 0.0

    def test_at_one(self):
        assert entropy_integrand(1.0) == 0.0

    def test_at_inverse_sqrt_two(self):
        assert abs(entropy_integrand(1.0 / math.sqrt(2.0)) + 0.5 * LOG2) < 1e-15

    def test_underflowing_argument(self):
        assert entropy_integrand(1e-300) == 0.0

    @given(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
    def test_even_and_bounded(self, x):
        value = entropy_integrand(x)
        assert value == entropy_integrand(-x)
        assert -2.0 / math.e <= value <= 0.0

    @given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
    def test_strictly_negative_inside(self, x):
        assert entropy_integrand(x) < 0.0
