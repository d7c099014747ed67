import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import xlogy

from orthoentropy.asymptotics import (
    IrrationalAngle,
    RationalAngle,
    SubsequenceItem,
    asymptotic_polynomial,
    chebyshev_divergence_limit,
    christoffel_limit_ratios,
    identity_suite,
    limit_divergence,
    periodic_average,
    phase_average,
    phase_average_empirical,
    phase_shift,
    pv_log_h_oracle,
    rationalize,
    zero_entropy_gaps,
    zero_subsequence,
)
from orthoentropy.entropy import chebyshev_distribution_entropy
from orthoentropy.orthopoly import WeightSpec, eval_orthonormal, weight_recurrence
from orthoentropy.specfun import entropy_correction

LOG2 = math.log(2.0)
CHEB_T = WeightSpec.chebyshev_t()
CHEB_U = WeightSpec.chebyshev_u()
LEGENDRE = WeightSpec.legendre()
EXP_WEIGHT = WeightSpec(0.0, 0.0, (0.0, 1.0))  # h(x) = exp(x)


class TestAngles:
    def test_rational_reduces(self):
        angle = RationalAngle(2, 4)
        assert (angle.s, angle.k) == (1, 2)
        assert abs(angle.theta - math.pi / 2.0) < 1e-15

    @pytest.mark.parametrize("s,k", [(0, 1), (3, 3), (5, 3), (-1, 2)])
    def test_rational_validation(self, s, k):
        with pytest.raises(ValueError):
            RationalAngle(s, k)

    @pytest.mark.parametrize("theta", [0.0, math.pi, -1.0, 4.0])
    def test_irrational_validation(self, theta):
        with pytest.raises(ValueError):
            IrrationalAngle(theta)

    def test_rationalize_recovers_fraction(self):
        guess = rationalize(math.pi * 2.0 / 5.0)
        assert guess == RationalAngle(2, 5)

    def test_rationalize_rejects_far_values(self):
        assert rationalize(1.0, max_denominator=50) is None


class TestPhaseShift:
    def test_chebyshev_first_kind_reduction(self):
        for theta in np.linspace(0.1, math.pi - 0.1, 17):
            assert abs(phase_shift(CHEB_T, theta) - (math.pi / 4.0 - theta / 2.0)) < 1e-15

    def test_chebyshev_second_kind_reduction(self):
        for theta in np.linspace(0.1, math.pi - 0.1, 17):
            assert abs(phase_shift(CHEB_U, theta) - (theta / 2.0 - math.pi / 4.0)) < 1e-15

    def test_exponential_h_gives_half_sine(self):
        for theta in np.linspace(0.1, math.pi - 0.1, 17):
            assert abs(phase_shift(EXP_WEIGHT, theta) - 0.5 * math.sin(theta)) < 1e-15

    def test_constant_coefficient_is_inert(self):
        weight = WeightSpec(0.0, 0.0, (5.0,))
        assert phase_shift(weight, 1.1) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            phase_shift(CHEB_T, 0.0)


class TestPvOracle:
    def test_unit_h_vanishes(self):
        for x in (-0.5, 0.0, 0.4):
            assert abs(pv_log_h_oracle(CHEB_T, x)) < 1e-10

    def test_exponential_h_gives_pi(self):
        # log h = t pairs against the constant second-kind polynomial
        for x in (-0.4, 0.2):
            assert abs(pv_log_h_oracle(EXP_WEIGHT, x) - math.pi) < 1e-9

    def test_consistent_with_spectral_phase(self):
        weight = WeightSpec(-0.5, -0.5, (0.0, 0.5, 0.25))
        for x in (-0.5, 0.1, 0.6):
            theta = math.acos(x)
            base = 0.5 * ((weight.alpha + weight.beta) * theta - weight.alpha * math.pi)
            recomposed = base + math.sin(theta) / (2.0 * math.pi) * pv_log_h_oracle(weight, x)
            assert abs(phase_shift(weight, theta) - recomposed) < 1e-8

    def test_schedule_validation(self):
        # the largest excision radius, 0.2, must stay inside (-1, 1)
        for x in (0.95, -0.8):
            with pytest.raises(ValueError):
                pv_log_h_oracle(EXP_WEIGHT, x)


class TestPhaseAverage:
    def test_chebyshev_half_angle_vanishes(self):
        assert abs(phase_average(CHEB_T, RationalAngle(1, 2))) < 1e-15

    def test_legendre_half_angle_vanishes(self):
        assert abs(phase_average(LEGENDRE, RationalAngle(1, 2))) < 1e-15

    def test_nonpositive(self):
        for k in range(2, 25):
            for s in range(1, k):
                if math.gcd(s, k) == 1:
                    assert phase_average(CHEB_T, RationalAngle(s, k)) <= 0.0

    def test_numerator_invariance(self):
        for weight in (CHEB_T, CHEB_U):
            for k in range(2, 21):
                base = phase_average(weight, RationalAngle(1, k))
                for s in range(2, k):
                    if math.gcd(s, k) == 1:
                        assert abs(phase_average(weight, RationalAngle(s, k)) - base) < 1e-12

    def test_bits_match_k_point_sum(self):
        # reference: the k-point sum written out, the same operations in the
        # same order, so the same bits
        for weight in (CHEB_T, CHEB_U, LEGENDRE):
            for s, k in ((1, 2), (1, 3), (2, 5), (3, 7), (5, 12)):
                angle = RationalAngle(s, k)
                phi = phase_shift(weight, angle.theta)
                y = np.cos((np.arange(k) + 0.5) * angle.theta + phi - 0.25 * math.pi)
                sq = y * y
                expected = float(xlogy(sq, sq).sum()) / k
                assert phase_average(weight, angle) == expected


class TestPhaseAverageEmpirical:
    def test_single_term(self):
        theta = 0.9
        phi = phase_shift(CHEB_T, theta)
        sq = math.cos(0.5 * theta + phi - math.pi / 4.0) ** 2
        expected = sq * math.log(sq)
        assert abs(phase_average_empirical(CHEB_T, theta, 1) - expected) < 1e-15

    def test_exact_at_full_periods(self):
        angle = RationalAngle(1, 3)
        exact = phase_average(CHEB_T, angle)
        for n in (30, 99, 300):
            assert abs(phase_average_empirical(CHEB_T, angle.theta, n) - exact) < 1e-14

    def test_remainder_bound(self):
        max_f = 1.0 / math.e
        for weight in (CHEB_T, CHEB_U, LEGENDRE):
            for s, k in ((1, 2), (1, 3), (2, 5)):
                angle = RationalAngle(s, k)
                exact = phase_average(weight, angle)
                for n in (10, 100, 1000, 9999):
                    err = abs(phase_average_empirical(weight, angle.theta, n) - exact)
                    assert err <= 2.0 * k * max_f / n + 1e-12

    def test_irrational_errors_decrease(self):
        target = 0.5 - LOG2
        for theta in (1.0, math.sqrt(2.0), math.pi ** 2 / 6.0):
            errors = [
                abs(phase_average_empirical(CHEB_T, theta, n) - target)
                for n in (1000, 10000, 100000)
            ]
            assert errors[0] > errors[1] > errors[2]
            assert errors[2] < 1e-4


class TestPeriodicAverage:
    def test_constant(self):
        average, remainder = periodic_average(lambda _: 3.5, 4, 11)
        assert average == 3.5
        assert remainder == 0.0

    def test_alternating_example(self):
        average, remainder = periodic_average(lambda i: (1.0, 0.0)[i % 2], 2, 5)
        assert abs(average - 0.6) < 1e-15
        assert abs(remainder - 0.1) < 1e-15

    def test_remainder_shrinks(self):
        g = lambda i: math.sin(2.0 * math.pi * i / 7.0) + 0.25
        values = [abs(periodic_average(g, 7, n)[1]) for n in (10, 100, 1000, 10000)]
        assert values[-1] < values[0] / 100.0

    @given(
        st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=1, max_size=8),
        st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=60)
    def test_matches_brute_force(self, period, n):
        k = len(period)
        g = lambda i: period[i % k]
        average, remainder = periodic_average(g, k, n)
        brute = math.fsum(g(i) for i in range(n)) / n
        assert abs(average - brute) < 1e-12
        assert abs((average - math.fsum(period) / k) - remainder) < 1e-12


class TestLimitDivergence:
    def test_irrational_value(self):
        for weight in (CHEB_T, CHEB_U, LEGENDRE):
            assert limit_divergence(weight, IrrationalAngle(1.0)) == 1.0 - LOG2

    def test_half_angle_gives_log2(self):
        for weight in (CHEB_T, LEGENDRE):
            assert abs(limit_divergence(weight, RationalAngle(1, 2)) - LOG2) < 1e-14

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            limit_divergence(CHEB_T, 0.5)


class TestChebyshevDivergenceLimit:
    def test_k_two(self):
        assert abs(chebyshev_divergence_limit(2) - LOG2) < 1e-13

    def test_cross_route_small_k(self):
        for k in range(2, 21):
            closed = chebyshev_divergence_limit(k)
            for s in range(1, k):
                if math.gcd(s, k) == 1:
                    via_average = limit_divergence(CHEB_T, RationalAngle(s, k))
                    assert abs(via_average - closed) < 1e-10

    def test_sign_pattern(self):
        base = 1.0 - LOG2
        for k in range(2, 60):
            value = chebyshev_divergence_limit(k)
            if k % 2 == 0:
                assert value > base
            else:
                assert value < base

    def test_cross_route_wide_grids(self):
        # even denominators to 100 and odd to 99, numerator 1
        for k in range(2, 101):
            via_average = limit_divergence(CHEB_T, RationalAngle(1, k))
            assert abs(via_average - chebyshev_divergence_limit(k)) < 1e-10, k

    def test_domain(self):
        with pytest.raises(ValueError):
            chebyshev_divergence_limit(1)


class TestAsymptoticPolynomial:
    def test_chebyshev_first_kind_exact(self):
        for n in (1, 5, 40):
            for theta in np.linspace(0.2, math.pi - 0.2, 9):
                x = math.cos(theta)
                exact = math.sqrt(2.0 / math.pi) * math.cos(n * theta)
                assert abs(asymptotic_polynomial(CHEB_T, n, x) - exact) < 1e-12

    def test_chebyshev_second_kind_exact(self):
        for n in (0, 1, 5, 40):
            for theta in np.linspace(0.2, math.pi - 0.2, 9):
                x = math.cos(theta)
                exact = math.sqrt(2.0 / math.pi) * math.sin((n + 1) * theta) / math.sin(theta)
                assert abs(asymptotic_polynomial(CHEB_U, n, x) - exact) < 1e-12

    def test_legendre_decay_under_doubling(self):
        worst = {}
        for n in (100, 200):
            rec = weight_recurrence(LEGENDRE, n + 1)
            errs = [
                abs(
                    asymptotic_polynomial(LEGENDRE, n, float(x))
                    - eval_orthonormal(rec, float(x), n + 1)[n]
                )
                for x in np.linspace(-0.8, 0.8, 33)
            ]
            worst[n] = max(errs)
        assert worst[100] < 2.0 / 100.0
        assert worst[200] < worst[100]


class TestChristoffelLimitRatios:
    def test_chebyshev_converges(self):
        # the deviation oscillates with n, so the doubling check carries an
        # absolute slack in the style of the universality tolerance
        errs = {}
        for n in (1000, 2000):
            rec = weight_recurrence(CHEB_T, n + 1)
            ratio, tail = christoffel_limit_ratios(CHEB_T, 0.3, n, rec)
            errs[n] = abs(ratio - 1.0)
            assert errs[n] < 0.02
            assert tail < 2.0 / (n - 1) + 1e-12
        assert errs[2000] < 2.0 * errs[1000] + 1e-3

    def test_chebyshev_tail_bound_at_origin(self):
        # lambda_n(0) = pi/(n-1) at even n and p_n(0)^2 <= 2/pi, so the
        # sharp bound is 2/(n-1); odd n gives exactly 0
        for n in (100, 500):
            rec = weight_recurrence(CHEB_T, n + 1)
            _, tail = christoffel_limit_ratios(CHEB_T, 0.0, n, rec)
            assert tail <= 2.0 / (n - 1) + 1e-12
        rec = weight_recurrence(CHEB_T, 102)
        _, tail = christoffel_limit_ratios(CHEB_T, 0.0, 101, rec)
        assert tail < 1e-25

    def test_legendre_at_half(self):
        rec = weight_recurrence(LEGENDRE, 4001)
        ratio, _ = christoffel_limit_ratios(LEGENDRE, 0.5, 4000, rec)
        assert abs(ratio - 1.0) < 0.02

    def test_universality_doubling_invariant(self):
        points = (0.0, 0.3, -0.3, 0.6, -0.6)
        for weight in (CHEB_T, CHEB_U, LEGENDRE):
            rec = weight_recurrence(weight, 4001)
            for x in points:
                err_half, _ = christoffel_limit_ratios(weight, x, 2000, rec)
                err_full, _ = christoffel_limit_ratios(weight, x, 4000, rec)
                err_half = abs(err_half - 1.0)
                err_full = abs(err_full - 1.0)
                assert err_full < 2.0 * err_half + 1e-3
                assert err_full < 0.02


class TestZeroSubsequence:
    def test_family_four_example(self):
        items = zero_subsequence(4, RationalAngle(1, 2), 3)
        assert [(it.n, it.j) for it in items] == [(1, 1), (3, 2), (5, 3)]

    def test_family_two_example(self):
        items = zero_subsequence(2, RationalAngle(1, 2), 2)
        assert [(it.n, it.j) for it in items] == [(3, 2), (5, 3)]

    def test_family_one_skips_zero_indices(self):
        items = zero_subsequence(1, IrrationalAngle(1.0), 3)
        assert [(it.n, it.j) for it in items] == [(5, 1), (7, 2), (11, 3)]

    def test_family_three_skips_zero_indices(self):
        items = zero_subsequence(3, IrrationalAngle(1.0), 3)
        assert [(it.n, it.j) for it in items] == [(4, 1), (6, 1), (10, 3)]

    def test_precondition_errors(self):
        with pytest.raises(ValueError):
            zero_subsequence(2, RationalAngle(1, 3), 5)  # odd k
        with pytest.raises(ValueError):
            zero_subsequence(1, RationalAngle(1, 2), 5)
        with pytest.raises(ValueError):
            zero_subsequence(4, IrrationalAngle(1.0), 5)
        with pytest.raises(ValueError):
            zero_subsequence(5, RationalAngle(1, 2), 5)

    def test_item_validation(self):
        with pytest.raises(ValueError):
            SubsequenceItem(3, 4)


class TestZeroEntropyGaps:
    def test_matches_manual_computation(self):
        angle = RationalAngle(1, 3)
        items = [SubsequenceItem(5, 2), SubsequenceItem(8, 3)]
        gaps = zero_entropy_gaps("second", angle, items)
        from orthoentropy.entropy import zero_entropy_second_kind

        for item, gap in zip(items, gaps):
            expected = zero_entropy_second_kind(item.n, item.j) - chebyshev_distribution_entropy(
                "second", item.n, angle.theta
            )
            assert abs(gap - expected) < 1e-15

    def test_half_angle_families_are_exact(self):
        angle = RationalAngle(1, 2)
        first = zero_entropy_gaps("first", angle, zero_subsequence(2, angle, 30))
        second = zero_entropy_gaps("second", angle, zero_subsequence(4, angle, 30))
        assert max(abs(g) for g in first) < 1e-10
        assert max(abs(g) for g in second) < 1e-10

    def test_odd_k_gaps_stay_below_bound(self):
        k = 3
        angle = RationalAngle(1, k)
        bound = 2.0 * entropy_correction(0.5 / k) - entropy_correction(1.0 / k)
        assert bound < 0.0
        items = [SubsequenceItem(n, 1 + (n // 3)) for n in range(200, 260)]
        gaps = zero_entropy_gaps("first", angle, items)
        assert all(g < bound + 0.05 for g in gaps)


class TestIdentitySuite:
    def test_small_caps(self):
        results = dict(identity_suite())
        assert results["even_k_closed_form"] < 1e-11
        assert results["odd_k_closed_form"] < 1e-11
        assert results["odd_sine_sum"] < 1e-11
        assert results["odd_split_sum"] < 1e-11
        assert results["convexity_margin"] < 0.0

    def test_hand_checked_even_case(self):
        # k = 2: both sides vanish
        lhs = 2.0 * phase_average(CHEB_T, RationalAngle(1, 2))
        rhs = 1.0 - 2.0 * LOG2 + entropy_correction(0.5)
        assert abs(lhs) < 1e-15 and abs(rhs) < 1e-15

    def test_hand_checked_sine_case(self):
        # three-point sine sum against the closed form
        squares = (math.sin(math.pi / 3.0) ** 2, math.sin(2.0 * math.pi / 3.0) ** 2)
        lhs = sum(sq * math.log(sq) for sq in squares) / 3.0
        rhs = 0.5 * (1.0 - 2.0 * LOG2 + entropy_correction(1.0 / 3.0))
        assert abs(lhs - rhs) < 1e-12
