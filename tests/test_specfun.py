import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import psi, zetac

from orthoentropy.asymptotics import _integrand_even
from orthoentropy.specfun import _ZETAC_ODD, _entropy_correction_digamma, entropy_correction

mpmath.mp.dps = 40

LOG2 = math.log(2.0)


def exact_correction(x):
    """-x (psi(1-x) + 2 gamma + psi(1+x)) in mpmath.

    The bracket cancels like x^2, which leaves 24 of the 40 digits at 1e-8."""
    xm = mpmath.mpf(x)
    return -xm * (mpmath.digamma(1 - xm) + 2 * mpmath.euler + mpmath.digamma(1 + xm))


class TestDigamma:
    """The digamma route: the oracle on scipy's ``psi`` and numpy's Euler gamma.

    The oracle is only as good as ``psi``; these pin the identities and the
    mpmath values it relies on, at the arguments 1 - x and 1 + x it uses."""

    def test_at_one_is_minus_gamma(self):
        assert abs(psi(1.0) + np.euler_gamma) < 1e-13

    def test_at_two(self):
        assert abs(psi(2.0) - (1.0 - np.euler_gamma)) < 1e-13

    def test_at_half_via_duplication(self):
        # duplication formula with x = 1/2 pins psi(1/2) = psi(1) - 2 log 2,
        # so the oracle at 1/2 is 2 log 2 - 1
        assert abs(psi(0.5) - (-np.euler_gamma - 2.0 * LOG2)) < 1e-13
        assert abs(_entropy_correction_digamma(0.5) - (2.0 * LOG2 - 1.0)) < 1e-13

    def test_duplication_formula_on_grid(self):
        for x in np.linspace(0.005, 0.995, 57):
            lhs = psi(2.0 * x)
            rhs = 0.5 * psi(x) + 0.5 * psi(x + 0.5) + LOG2
            assert abs(lhs - rhs) < 1e-13

    def test_true_error_against_mpmath(self):
        for x in np.linspace(0.25, 0.99, 75):
            for arg in (1.0 - x, 1.0 + x):
                assert abs(psi(arg) - float(mpmath.digamma(mpmath.mpf(arg)))) < 1e-13
            exact = exact_correction(x)
            assert abs((_entropy_correction_digamma(float(x)) - exact) / exact) < 1e-14

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, math.nan, math.inf])
    def test_domain_errors(self, bad):
        # the route the oracle checks rejects everything outside (0, 1)
        with pytest.raises(ValueError):
            entropy_correction(bad)

    @given(st.floats(min_value=0.1, max_value=10.0))
    def test_recurrence(self, x):
        assert abs(psi(x + 1.0) - psi(x) - 1.0 / x) < 1e-13


class TestEulerGamma:
    def test_value(self):
        assert abs(np.euler_gamma - 0.57721566490153286) < 1e-16

    def test_consistent_with_digamma(self):
        # psi(1) = -gamma makes the oracle's bracket vanish at x = 0
        assert abs(_entropy_correction_digamma(1e-8)) < 1e-13

    def test_harmonic_sum_limit(self):
        n = 10 ** 6
        harmonic = float(np.sum(1.0 / np.arange(1, n + 1)))
        assert abs(harmonic - math.log(n) - np.euler_gamma) < 0.5 / n


class TestZetaOdd:
    """The table of zeta(2k+1) - 1, k = 1, 2, ..., behind the correction."""

    def test_frozen_values(self):
        # frozen from direct summation of 1e6 terms plus an integral tail
        assert abs(1.0 + _ZETAC_ODD[0] - 1.2020569031595943) < 1e-13
        assert abs(1.0 + _ZETAC_ODD[1] - 1.0369277551433699) < 1e-13

    def test_against_brute_force_summation(self):
        n = 10 ** 6
        j = np.arange(2, n + 1, dtype=float)
        for m in (3, 5, 7):
            brute = float(np.sum(j ** -m)) + n ** (1 - m) / (m - 1) + 0.5 * n ** -m
            assert abs(_ZETAC_ODD[(m - 3) // 2] - brute) < 1e-13

    def test_decreasing_to_one(self):
        assert all(a > b > 0.0 for a, b in zip(_ZETAC_ODD, _ZETAC_ODD[1:]))
        # the table stops at the first coefficient below half an ulp of 1.0
        half_ulp = 2.0 ** -53
        assert _ZETAC_ODD[-1] >= half_ulp
        assert zetac(2 * len(_ZETAC_ODD) + 3) < half_ulp

    def test_correctly_rounded_against_mpmath(self):
        for k, c in enumerate(_ZETAC_ODD, start=1):
            exact = mpmath.zeta(2 * k + 1) - 1
            assert abs((c - exact) / exact) <= 2.0 ** -53

    @pytest.mark.parametrize("bad", [1, 2, 4, 0, -3, 100])
    def test_domain_errors(self, bad):
        # the table takes no argument; the route it feeds rejects every
        # integer, none of which lies in (0, 1)
        with pytest.raises(ValueError):
            entropy_correction(bad)


class TestEntropyCorrection:
    def test_half_value(self):
        assert abs(entropy_correction(0.5) - (2.0 * LOG2 - 1.0)) < 1e-13

    # the two routes stay independent: the digamma form at every x
    def test_series_matches_closed_at_reciprocals(self):
        for k in range(2, 11):
            x = 1.0 / k
            assert abs(_entropy_correction_digamma(x) - entropy_correction(x)) < 1e-12

    def test_dual_route_on_grid(self):
        for x in np.arange(0.05, 1.0, 0.05):
            diff = abs(_entropy_correction_digamma(float(x)) - entropy_correction(float(x)))
            assert diff < 1e-12

    @pytest.mark.parametrize("x", [1e-8, 1e-6, 1e-4, 1e-2, 0.125, 0.2])
    def test_relatively_accurate_at_small_x(self, x):
        # the digamma form cancels here: 1.4e-14 off at 1/20, 8e-11 at 1e-3
        exact = exact_correction(x)
        value = entropy_correction(x)
        assert value > 0.0
        assert abs((value - exact) / exact) < 1e-14

    def test_small_argument_cubic_behavior(self):
        x = 1e-3
        assert abs(entropy_correction(x) / x ** 3 - 2.0 * float(mpmath.zeta(3))) < 1e-5

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
        # the series starts at 2 zeta(3) x^3, which underflows to 0
        assert entropy_correction(1e-300) == 0.0
        assert entropy_correction(5e-324) == 0.0
        assert entropy_correction(1e-100) > 0.0

    @pytest.mark.parametrize("x", [1e-8, 1e-5, 1e-3])
    def test_series_relatively_accurate_at_small_x(self, x):
        # the odd-zeta series in mpmath, which does not cancel
        xm = mpmath.mpf(x)
        exact = 2 * mpmath.nsum(lambda k: mpmath.zeta(2 * k + 1) * xm ** (2 * k + 1), [1, mpmath.inf])
        value = entropy_correction(x)
        assert abs((value - exact) / exact) < 1e-13

    def test_series_truncation_error(self):
        # the 26-term table near x = 1, where the unsubtracted series needed
        # 15253 terms at 0.999 and gave up at 0.9995
        for x in (0.9995, 0.9999, 1.0 - 1e-6):
            exact = exact_correction(x)
            assert abs((entropy_correction(x) - exact) / exact) < 1e-15


class TestEntropyIntegrand:
    """y^2 log(y^2) as the asymptotics sum it, with 0 at y = 0."""

    def test_exact_zero_at_zero(self):
        assert _integrand_even(np.float64(0.0)) == 0.0

    def test_at_one(self):
        assert _integrand_even(np.float64(1.0)) == 0.0

    def test_at_inverse_sqrt_two(self):
        assert abs(_integrand_even(np.float64(1.0 / math.sqrt(2.0))) + 0.5 * LOG2) < 1e-15

    def test_underflowing_argument(self):
        assert _integrand_even(np.float64(1e-300)) == 0.0

    @given(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
    def test_even_and_bounded(self, x):
        value = _integrand_even(np.float64(x))
        assert value == _integrand_even(np.float64(-x))
        assert -2.0 / math.e <= value <= 0.0

    @given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
    def test_strictly_negative_inside(self, x):
        assert _integrand_even(np.float64(x)) < 0.0
