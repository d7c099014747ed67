import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

import orthoentropy.orthopoly as op
from orthoentropy.entropy import christoffel_distribution
from orthoentropy.errors import ConvergenceError, NumericError
from orthoentropy.orthopoly import (
    QuadratureRule,
    RecurrenceCoefficients,
    WeightSpec,
    chebyshev_zero,
    christoffel,
    eval_orthonormal,
    gauss_jacobi,
    jacobi_recurrence,
    stieltjes_recurrence,
    weight_recurrence,
)

CHEB_T = WeightSpec.chebyshev_t()
CHEB_U = WeightSpec.chebyshev_u()
LEGENDRE = WeightSpec.legendre()
SEEDED_JACOBI = WeightSpec(*np.random.default_rng(20141008).uniform(-0.95, 1.5, 2))


def numpy_scalar_orthonormal(rec, x, n):
    """Forward recurrence on numpy scalars: the bit-exact reference kernel."""
    a, b = rec.a, rec.b
    sb = np.sqrt(b[:n])
    vals = np.empty(n)
    vals[0] = 1.0 / sb[0]
    if n > 1:
        vals[1] = (x - a[0]) * vals[0] / sb[1]
    for k in range(1, n - 1):
        vals[k + 1] = ((x - a[k]) * vals[k] - sb[k] * vals[k - 1]) / sb[k + 1]
    return vals


def golub_welsch(alpha, beta, size):
    """Gauss-Jacobi rule from the Jacobi matrix's eigenvalues and eigenvectors."""
    rec = jacobi_recurrence(alpha, beta, size + 1)
    nodes, vecs = eigh_tridiagonal(rec.a[:size], np.sqrt(rec.b[1:size]))
    return QuadratureRule(nodes, rec.b[0] * vecs[0] ** 2)


def mpmath_gauss_jacobi(alpha, beta, seeds):
    """40-digit Gauss-Jacobi nodes and Christoffel weights, one Newton step from each seed.

    Float seeds within ~1e-16 of the nodes come out accurate to ~1e-31.
    The general recurrence formulas used need alpha + beta not in {0, -1}.
    """
    with mpmath.workdps(40):
        al, be = mpmath.mpf(alpha), mpmath.mpf(beta)
        ab = al + be
        size = len(seeds)
        mass = 2 ** (ab + 1) * mpmath.gamma(al + 1) * mpmath.gamma(be + 1) / mpmath.gamma(ab + 2)
        # orthonormal recurrence: s[k+1] p_{k+1} = (x - a[k]) p_k - s[k] p_{k-1}
        a = [(be * be - al * al) / ((2 * k + ab) * (2 * k + ab + 2)) for k in range(size)]
        s = [mpmath.sqrt(mass)] + [
            mpmath.sqrt(4 * k * (k + al) * (k + be) * (k + ab)
                        / ((2 * k + ab) ** 2 * ((2 * k + ab) ** 2 - 1)))
            for k in range(1, size + 1)
        ]

        def scan(x):
            """p_size(x), p_size'(x) and sum_{k<size} p_k(x)^2."""
            p_prev, p, d_prev, d, ksum = 0, 1 / s[0], 0, 0, 0
            for k in range(size):
                ksum += p * p
                p_prev, p, d_prev, d = (
                    p, ((x - a[k]) * p - s[k] * p_prev) / s[k + 1],
                    d, (p + (x - a[k]) * d - s[k] * d_prev) / s[k + 1],
                )
            return p, d, ksum

        nodes, weights = [], []
        for seed in seeds:
            x = mpmath.mpf(float(seed))
            p, d, _ = scan(x)
            x -= p / d
            nodes.append(x)
            weights.append(1 / scan(x)[2])
        return nodes, weights


class TestWeightSpec:
    def test_invalid_exponents(self):
        with pytest.raises(ValueError):
            WeightSpec(-1.0, 0.0)
        with pytest.raises(ValueError):
            WeightSpec(0.0, -1.5)

    def test_nonfinite_coefficients(self):
        with pytest.raises(ValueError):
            WeightSpec(0.0, 0.0, (math.inf,))

    def test_density_values(self):
        w = WeightSpec(0.0, 0.0, (0.0, 1.0))  # h(x) = exp(x)
        assert abs(w.h(0.5) - math.exp(0.5)) < 1e-14
        assert abs(w.w(0.5) - math.exp(0.5)) < 1e-14
        assert abs(CHEB_T.w(0.6) - 1.0 / math.sqrt(1.0 - 0.36)) < 1e-14

    def test_round_trip_dict(self):
        w = WeightSpec(0.25, -0.5, (0.1, 0.2))
        assert WeightSpec.from_dict(w.to_dict()) == w

    def test_trivial_h(self):
        assert CHEB_T.trivial_h
        assert WeightSpec(0.0, 0.0, (0.0, 0.0)).trivial_h
        assert not WeightSpec(0.0, 0.0, (0.0, 1.0)).trivial_h


class TestJacobiRecurrence:
    def test_chebyshev_first_kind(self):
        rec = jacobi_recurrence(-0.5, -0.5, 20)
        assert np.abs(rec.a).max() < 1e-15
        assert abs(rec.b[0] - math.pi) < 1e-14
        assert abs(rec.b[1] - 0.5) < 1e-14
        assert np.abs(rec.b[2:] - 0.25).max() < 1e-14

    def test_chebyshev_second_kind(self):
        rec = jacobi_recurrence(0.5, 0.5, 20)
        assert np.abs(rec.a).max() < 1e-15
        assert abs(rec.b[0] - math.pi / 2.0) < 1e-14
        assert np.abs(rec.b[1:] - 0.25).max() < 1e-14

    def test_legendre(self):
        rec = jacobi_recurrence(0.0, 0.0, 20)
        assert np.abs(rec.a).max() < 1e-15
        assert abs(rec.b[0] - 2.0) < 1e-15
        expected = np.array([k * k / (4.0 * k * k - 1.0) for k in range(1, 20)])
        assert np.abs(rec.b[1:] - expected).max() < 1e-15

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            jacobi_recurrence(-1.0, 0.0, 5)
        with pytest.raises(ValueError):
            jacobi_recurrence(0.0, 0.0, 0)

    @given(
        st.floats(min_value=-0.95, max_value=3.0),
        st.floats(min_value=-0.95, max_value=3.0),
    )
    @settings(max_examples=50)
    def test_positive_b(self, alpha, beta):
        rec = jacobi_recurrence(alpha, beta, 30)
        assert np.all(rec.b > 0.0)


class TestRecurrenceCoefficients:
    def test_validation(self):
        with pytest.raises(ValueError):
            RecurrenceCoefficients(3, np.zeros(2), np.ones(2))
        with pytest.raises(ValueError):
            RecurrenceCoefficients(2, np.zeros(2), np.array([1.0, -1.0]))


class TestStieltjes:
    def test_matches_closed_form_for_unit_h(self):
        for logh in ((), (0.0,)):
            rec = stieltjes_recurrence(WeightSpec(0.25, -0.3, logh), 50)
            ref = jacobi_recurrence(0.25, -0.3, 50)
            assert np.abs(rec.a - ref.a).max() < 1e-12
            assert np.abs(rec.b - ref.b).max() < 1e-12

    def test_constant_h_gives_jacobi_recurrence(self):
        rec = stieltjes_recurrence(WeightSpec(-0.5, -0.5, (0.3,)), 30)
        ref = jacobi_recurrence(-0.5, -0.5, 30)
        assert abs(rec.b[0] - ref.b[0]) < 1e-12
        assert np.abs(rec.b[1:] - ref.b[1:]).max() < 1e-12
        assert np.abs(rec.a - ref.a).max() < 1e-12

    def test_structurally_small_rule_rejected(self):
        with pytest.raises(ValueError):
            stieltjes_recurrence(WeightSpec(0.0, 0.0, (0.0, 1.0)), 30, rule_size=10)

    def test_default_rule_resolves_h_at_low_degree(self):
        # 2n + ceil(M/2) + 8 = 23 nodes missed the reference here by 5.5e-9
        weight = WeightSpec(-0.5803, -0.2883, (0.9009, -0.9676, 0.9727, -0.042, 0.9739))
        x = -0.6939
        default = stieltjes_recurrence(weight, 6)
        reference = stieltjes_recurrence(weight, 6, rule_size=400)
        assert abs(
            christoffel_distribution(default, x, 6).shannon
            - christoffel_distribution(reference, x, 6).shannon
        ) < 1e-12

    def test_rule_floor_leaves_larger_default_rules_alone(self):
        weight = WeightSpec(0.0, 0.0, (0.0, 1.0))
        default = stieltjes_recurrence(weight, 31)
        explicit = stieltjes_recurrence(weight, 31, rule_size=2 * 31 + 1 + 8)
        assert np.array_equal(default.a, explicit.a)
        assert np.array_equal(default.b, explicit.b)

    def test_overflowing_h_raises_numeric_error(self):
        # h = exp(800 x) overflows the quadrature mass outright
        with pytest.raises(NumericError):
            stieltjes_recurrence(WeightSpec(0.0, 0.0, (0.0, 800.0)), 30)


class TestWeightRecurrence:
    def test_dispatch_constant_h(self):
        via_dispatch = weight_recurrence(WeightSpec(-0.5, -0.5, (0.3,)), 25)
        via_stieltjes = stieltjes_recurrence(WeightSpec(-0.5, -0.5, (0.3,)), 25)
        assert np.abs(via_dispatch.a - via_stieltjes.a).max() < 1e-12
        assert np.abs(via_dispatch.b - via_stieltjes.b).max() < 1e-12

    def test_dispatch_general_h(self):
        rec = weight_recurrence(WeightSpec(0.0, 0.0, (0.0, 1.0)), 10)
        ref = stieltjes_recurrence(WeightSpec(0.0, 0.0, (0.0, 1.0)), 10)
        assert np.abs(rec.b - ref.b).max() < 1e-14


class TestGaussJacobi:
    def test_chebyshev_first_kind_rule(self):
        n = 5
        rule = gauss_jacobi(-0.5, -0.5, n)
        expected = np.sort([math.cos((2 * j - 1) * math.pi / (2 * n)) for j in range(1, n + 1)])
        assert np.abs(rule.nodes - expected).max() < 1e-13
        assert np.abs(rule.weights - math.pi / n).max() < 1e-13

    def test_chebyshev_second_kind_rule(self):
        n = 3
        rule = gauss_jacobi(0.5, 0.5, n)
        expected_nodes = np.sort([math.cos(j * math.pi / (n + 1)) for j in range(1, n + 1)])
        expected_weights = np.array(
            sorted(
                math.pi / (n + 1) * math.sin(j * math.pi / (n + 1)) ** 2
                for j in range(1, n + 1)
            )
        )
        assert np.abs(rule.nodes - expected_nodes).max() < 1e-13
        assert np.abs(np.sort(rule.weights) - expected_weights).max() < 1e-13

    def test_two_point_legendre(self):
        rule = gauss_jacobi(0.0, 0.0, 2)
        assert np.abs(rule.nodes - np.array([-1.0, 1.0]) / math.sqrt(3.0)).max() < 1e-14
        assert np.abs(rule.weights - 1.0).max() < 1e-14

    def test_size_one(self):
        rule = gauss_jacobi(-0.5, -0.5, 1)
        assert abs(rule.nodes[0]) < 1e-15
        assert abs(rule.weights[0] - math.pi) < 1e-14

    def test_weights_sum_to_mass(self):
        for alpha, beta, mass in ((-0.5, -0.5, math.pi), (0.0, 0.0, 2.0)):
            rule = gauss_jacobi(alpha, beta, 20)
            assert abs(rule.weights.sum() - mass) < 1e-13

    def test_polynomial_exactness(self):
        rule = gauss_jacobi(0.0, 0.0, 8)
        for degree in range(16):
            exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
            approx = float(np.sum(rule.weights * rule.nodes ** degree))
            assert abs(approx - exact) < 1e-13

    def test_newton_branch_matches_golub_welsch(self):
        reference = golub_welsch(0.3, -0.2, 50)
        newton = gauss_jacobi(0.3, -0.2, 50)
        assert np.abs(newton.nodes - reference.nodes).max() < 1e-12
        assert np.abs(newton.weights - reference.weights).max() < 1e-12

    def test_newton_branch_chebyshev(self):
        n = 64
        rule = gauss_jacobi(-0.5, -0.5, n)
        expected = np.sort([math.cos((2 * j - 1) * math.pi / (2 * n)) for j in range(1, n + 1)])
        assert np.abs(rule.nodes - expected).max() < 1e-13
        assert np.abs(rule.weights - math.pi / n).max() < 1e-13

    def test_weights_relatively_accurate_against_mpmath(self):
        # Golub-Welsch eigenvector weights miss by 1.7e-10 relative here
        rule = gauss_jacobi(4.0, 0.0, 150)
        nodes, weights = mpmath_gauss_jacobi(4.0, 0.0, rule.nodes)
        assert max(abs(float(x - t)) for x, t in zip(rule.nodes, nodes)) < 1e-15
        assert max(abs(float(w / v - 1)) for w, v in zip(rule.weights, weights)) < 1e-11

    def test_eigensolver_failure_raises_convergence_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(op, "eigvalsh_tridiagonal", fail)
        with pytest.raises(ConvergenceError):
            gauss_jacobi(0.0, 0.0, 10)

    def test_quadrature_rule_validation(self):
        with pytest.raises(ValueError):
            QuadratureRule(np.array([0.5, 0.1]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            QuadratureRule(np.array([0.1, 0.5]), np.array([1.0, -1.0]))


class TestEvalOrthonormal:
    def test_chebyshev_first_kind_values(self):
        rec = jacobi_recurrence(-0.5, -0.5, 60)
        for theta in (0.3, 1.0, 2.2):
            x = math.cos(theta)
            vals = eval_orthonormal(rec, x, 50)
            expected = np.array(
                [1.0 / math.sqrt(math.pi)]
                + [math.sqrt(2.0 / math.pi) * math.cos(m * theta) for m in range(1, 50)]
            )
            assert np.abs(vals - expected).max() < 1e-12

    def test_chebyshev_second_kind_values(self):
        rec = jacobi_recurrence(0.5, 0.5, 60)
        for theta in (0.4, 1.3, 2.8):
            x = math.cos(theta)
            vals = eval_orthonormal(rec, x, 50)
            expected = np.array(
                [
                    math.sqrt(2.0 / math.pi) * math.sin((m + 1) * theta) / math.sin(theta)
                    for m in range(50)
                ]
            )
            assert np.abs(vals - expected).max() < 1e-12

    @pytest.mark.parametrize("weight", [CHEB_T, CHEB_U, LEGENDRE, SEEDED_JACOBI])
    def test_bits_match_numpy_scalar_loop(self, weight):
        rec = weight_recurrence(weight, 4097)
        for x in (-1.0, -0.3, 0.7, 1.0):
            for n in (1, 2, 3, 4097):
                vals = eval_orthonormal(rec, x, n)
                assert np.array_equal(vals, numpy_scalar_orthonormal(rec, x, n))

    @pytest.mark.parametrize("weight", [CHEB_T, LEGENDRE, SEEDED_JACOBI])
    def test_prefix_is_shorter_evaluation(self, weight):
        rec = weight_recurrence(weight, 4097)
        for x in (-0.3, 0.7):
            full = eval_orthonormal(rec, x, 4097)
            for n in (1, 2, 3, 250, 4096):
                assert np.array_equal(full[:n], eval_orthonormal(rec, x, n))

    def test_single_value(self):
        rec = jacobi_recurrence(0.0, 0.0, 5)
        vals = eval_orthonormal(rec, 0.7, 1)
        assert vals.shape == (1,)
        assert abs(vals[0] - 1.0 / math.sqrt(rec.b[0])) < 1e-15

    def test_preconditions(self):
        rec = jacobi_recurrence(0.0, 0.0, 5)
        with pytest.raises(ValueError):
            eval_orthonormal(rec, 1.5, 3)
        with pytest.raises(ValueError):
            eval_orthonormal(rec, 0.0, 6)
        with pytest.raises(ValueError):
            eval_orthonormal(rec, 0.0, 0)


class TestChristoffel:
    def test_n_one_gives_total_mass(self):
        assert abs(christoffel(jacobi_recurrence(-0.5, -0.5, 3), 0.2, 1) - math.pi) < 1e-13
        assert abs(christoffel(jacobi_recurrence(0.0, 0.0, 3), -0.4, 1) - 2.0) < 1e-13

    def test_chebyshev_universality(self):
        rec = jacobi_recurrence(-0.5, -0.5, 2001)
        value = 2000 * christoffel(rec, 0.3, 2000)
        assert abs(value / math.pi - 1.0) < 0.005

    def test_legendre_universality_at_origin(self):
        rec = jacobi_recurrence(0.0, 0.0, 2001)
        value = 2000 * christoffel(rec, 0.0, 2000)
        assert abs(value / math.pi - 1.0) < 0.01

    def test_nonincreasing_in_n(self):
        rec = jacobi_recurrence(0.25, -0.4, 40)
        for x in (-0.5, 0.0, 0.6):
            lam = [christoffel(rec, x, n) for n in range(1, 40)]
            assert all(a >= b for a, b in zip(lam, lam[1:]))


class TestChebyshevZero:
    def test_first_kind_example(self):
        assert abs(chebyshev_zero("first", 2, 1) - math.sqrt(2.0) / 2.0) < 1e-15

    def test_second_kind_example(self):
        assert abs(chebyshev_zero("second", 3, 2)) < 1e-15

    def test_strictly_decreasing_in_j(self):
        for kind, n in (("first", 9), ("second", 12)):
            zeros = [chebyshev_zero(kind, n, j) for j in range(1, n + 1)]
            assert all(a > b for a, b in zip(zeros, zeros[1:]))
            assert all(-1.0 < z < 1.0 for z in zeros)

    def test_polynomial_vanishes_at_zero(self):
        rec = jacobi_recurrence(-0.5, -0.5, 14)
        for j in (1, 5, 12):
            z = chebyshev_zero("first", 12, j)
            assert abs(eval_orthonormal(rec, z, 13)[12]) < 1e-12
        rec = jacobi_recurrence(0.5, 0.5, 14)
        for j in (1, 6, 12):
            z = chebyshev_zero("second", 12, j)
            assert abs(eval_orthonormal(rec, z, 13)[12]) < 1e-12

    def test_index_errors(self):
        with pytest.raises(IndexError):
            chebyshev_zero("first", 4, 0)
        with pytest.raises(IndexError):
            chebyshev_zero("second", 4, 5)
        with pytest.raises(ValueError):
            chebyshev_zero("third", 4, 1)
