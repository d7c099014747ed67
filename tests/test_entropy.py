import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from orthoentropy.cli import RunConfig, _emit_rows
from orthoentropy.entropy import (
    DiscreteDistribution,
    EntropyReport,
    chebyshev_distribution_entropy,
    christoffel_distribution,
    christoffel_entropies,
    csv_line,
    entropy_kernel_split,
    format_float,
    kl_divergence,
    shannon_entropy,
    zero_entropy_direct,
    zero_entropy_first_kind,
    zero_entropy_second_kind,
)
from orthoentropy.orthopoly import (
    RecurrenceCoefficients,
    WeightSpec,
    chebyshev_zero,
    jacobi_recurrence,
    stieltjes_recurrence,
)
from orthoentropy.specfun import entropy_correction

LOG2 = math.log(2.0)

CHEB_T_REC = jacobi_recurrence(-0.5, -0.5, 60)
CHEB_U_REC = jacobi_recurrence(0.5, 0.5, 60)
LEGENDRE_REC = jacobi_recurrence(0.0, 0.0, 60)

probability_vectors = (
    st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=40)
    .map(lambda raw: np.array(raw) / np.sum(raw))
)


class TestDiscreteDistribution:
    def test_validation(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            DiscreteDistribution(np.array([1.5, -0.5]))
        with pytest.raises(ValueError):
            DiscreteDistribution(np.array([]))

    def test_accessors(self):
        dist = DiscreteDistribution(np.array([0.5, 0.5]))
        assert abs(dist.shannon - LOG2) < 1e-15
        assert abs(dist.divergence) < 1e-15


class TestChristoffelDistribution:
    def test_single_cell(self):
        dist = christoffel_distribution(CHEB_T_REC, 0.42, 1)
        assert dist.probs.shape == (1,)
        assert dist.probs[0] == 1.0

    def test_chebyshev_origin_n3(self):
        # p_0^2 = 1/pi, p_1^2 = 0, p_2^2 = 2/pi at x = 0
        dist = christoffel_distribution(CHEB_T_REC, 0.0, 3)
        assert np.abs(dist.probs - np.array([1.0 / 3.0, 0.0, 2.0 / 3.0])).max() < 1e-14

    def test_sums_to_one_and_in_range(self):
        for rec in (CHEB_T_REC, CHEB_U_REC, LEGENDRE_REC):
            for x in (-0.6, 0.0, 0.3):
                for n in (1, 2, 5, 50):
                    dist = christoffel_distribution(rec, x, n)
                    assert abs(dist.probs.sum() - 1.0) < 1e-12
                    assert np.all(dist.probs >= 0.0)
                    assert np.all(dist.probs <= 1.0)

    def test_normalization_independence(self):
        b7 = LEGENDRE_REC.b.copy()
        b7[0] *= 7.0
        scaled = RecurrenceCoefficients(LEGENDRE_REC.n_max, LEGENDRE_REC.a, b7)
        for n in (1, 3, 20):
            a = christoffel_distribution(LEGENDRE_REC, 0.37, n).probs
            b = christoffel_distribution(scaled, 0.37, n).probs
            assert np.abs(a - b).max() < 1e-14

    def test_rejects_endpoints(self):
        with pytest.raises(ValueError):
            christoffel_distribution(CHEB_T_REC, 1.0, 3)


class TestChristoffelEntropies:
    @pytest.mark.parametrize("rec", [
        LEGENDRE_REC,
        jacobi_recurrence(0.3, -0.4, 60),
        stieltjes_recurrence(WeightSpec(-0.3, 0.6, (0.2, 0.5, -0.3)), 60),
    ])
    def test_same_bits_as_one_distribution_per_size(self, rec):
        ns = [1, 2, 7, 33, 60]
        for x in (-0.85, 0.1, 0.6):
            expected = [shannon_entropy(christoffel_distribution(rec, x, n)) for n in ns]
            assert christoffel_entropies(rec, x, ns) == expected

    def test_preconditions(self):
        for ns in ([], [0, 3], [-1, 3]):
            with pytest.raises(ValueError):
                christoffel_entropies(LEGENDRE_REC, 0.2, ns)
        with pytest.raises(ValueError):
            christoffel_entropies(LEGENDRE_REC, 1.0, [3])
        with pytest.raises(ValueError):
            christoffel_entropies(LEGENDRE_REC, 0.2, [3, 61])


class TestShannonEntropy:
    def test_uniform_attains_log_n(self):
        for n in (1, 2, 7, 100):
            dist = DiscreteDistribution(np.full(n, 1.0 / n))
            assert abs(shannon_entropy(dist) - math.log(n)) < 1e-12

    def test_point_mass_is_zero(self):
        dist = DiscreteDistribution(np.array([1.0, 0.0, 0.0, 0.0]))
        assert shannon_entropy(dist) == 0.0

    def test_worked_example(self):
        dist = DiscreteDistribution(np.array([1.0 / 3.0, 0.0, 2.0 / 3.0]))
        assert abs(shannon_entropy(dist) - (math.log(3.0) - 2.0 / 3.0 * LOG2)) < 1e-15

    @given(probability_vectors)
    def test_jensen_bounds(self, probs):
        dist = DiscreteDistribution(probs)
        entropy = shannon_entropy(dist)
        assert -1e-12 <= entropy <= math.log(len(dist)) + 1e-12
        assert kl_divergence(dist) >= -1e-12


class TestKlDivergence:
    def test_uniform_is_zero(self):
        dist = DiscreteDistribution(np.full(9, 1.0 / 9.0))
        assert abs(kl_divergence(dist)) < 1e-12

    def test_point_mass(self):
        n = 6
        probs = np.zeros(n)
        probs[0] = 1.0
        assert abs(kl_divergence(DiscreteDistribution(probs)) - math.log(n)) < 1e-15

    def test_worked_example(self):
        dist = DiscreteDistribution(np.array([1.0 / 3.0, 0.0, 2.0 / 3.0]))
        assert abs(kl_divergence(dist) - 2.0 / 3.0 * LOG2) < 1e-15


class TestKernelSplit:
    def test_matches_direct_route(self):
        for rec in (CHEB_T_REC, CHEB_U_REC, LEGENDRE_REC):
            for x in (-0.7, -0.1, 0.3, 0.8):
                for n in (1, 2, 5, 17, 60):
                    direct = shannon_entropy(christoffel_distribution(rec, x, n))
                    assert abs(entropy_kernel_split(rec, x, n) - direct) < 1e-12

    def test_chebyshev_origin_n3(self):
        expected = math.log(3.0) - 2.0 / 3.0 * LOG2
        assert abs(entropy_kernel_split(CHEB_T_REC, 0.0, 3) - expected) < 1e-14

    def test_single_cell_is_zero(self):
        assert abs(entropy_kernel_split(CHEB_T_REC, 0.3, 1)) < 1e-15


class TestClosedFormZeroEntropies:
    def test_first_kind_n1(self):
        assert abs(zero_entropy_first_kind(1, 1)) < 1e-12

    def test_first_kind_formula_instantiation(self):
        expected = math.log(4.0) + LOG2 - 1.0 + LOG2 / 4.0 - entropy_correction(1.0 / 8.0)
        assert abs(zero_entropy_first_kind(4, 1) - expected) < 1e-15
        assert abs(zero_entropy_first_kind(4, 1) - zero_entropy_direct("first", 4, 1)) < 1e-10

    def test_second_kind_n1(self):
        assert abs(zero_entropy_second_kind(1, 1)) < 1e-12

    def test_second_kind_formula_instantiation(self):
        # n=3, j=2: gcd(2, 4) = 2 and the value collapses to log 2
        assert abs(zero_entropy_second_kind(3, 2) - LOG2) < 1e-12
        assert abs(zero_entropy_second_kind(3, 2) - zero_entropy_direct("second", 3, 2)) < 1e-10

    def test_closed_forms_match_direct_summation(self):
        for n in range(1, 61):
            for j in range(1, n + 1):
                first = abs(zero_entropy_first_kind(n, j) - zero_entropy_direct("first", n, j))
                second = abs(zero_entropy_second_kind(n, j) - zero_entropy_direct("second", n, j))
                assert first < 1e-10, (n, j)
                assert second < 1e-10, (n, j)

    def test_direct_route_matches_recurrence_route(self):
        n = 9
        for j in (1, 4, 9):
            z = chebyshev_zero("first", n, j)
            via_recurrence = shannon_entropy(christoffel_distribution(CHEB_T_REC, z, n))
            assert abs(zero_entropy_direct("first", n, j) - via_recurrence) < 1e-11

    def test_index_errors(self):
        with pytest.raises(IndexError):
            zero_entropy_first_kind(4, 5)
        with pytest.raises(IndexError):
            zero_entropy_second_kind(4, 0)

    def test_distribution_entropy_rejects_bad_theta(self):
        with pytest.raises(ValueError):
            chebyshev_distribution_entropy("first", 5, 0.0)
        with pytest.raises(ValueError):
            chebyshev_distribution_entropy("second", 5, math.pi)


def report_csv_line(report):
    return csv_line(getattr(report, f.name) for f in fields(report))


class TestEntropyReport:
    def test_invariant_validation(self):
        with pytest.raises(ValueError):
            EntropyReport(n=3, x=0.0, shannon=math.log(3.0) + 1.0, divergence=0.0)
        with pytest.raises(ValueError):
            EntropyReport(n=3, x=0.0, shannon=0.5, divergence=-0.5)

    def test_csv_row_shape(self):
        shannon = math.log(3.0) - 2.0 / 3.0 * LOG2
        report = EntropyReport(3, 0.0, shannon, 2.0 / 3.0 * LOG2)
        row = report_csv_line(report)
        cells = row.split(",")
        assert len(cells) == len(fields(EntropyReport))
        assert cells[0] == "3"
        assert cells[1] == "0"
        assert cells[4] == "" and cells[5] == ""
        assert float(cells[2]) == shannon

    def test_csv_row_with_limit(self):
        report = EntropyReport(10, 0.5, 1.0, math.log(10.0) - 1.0, LOG2, 0.01)
        cells = report_csv_line(report).split(",")
        assert float(cells[4]) == LOG2
        assert float(cells[5]) == 0.01

    def test_json_mirror(self, capsys):
        report = EntropyReport(3, 0.0, 0.5, math.log(3.0) - 0.5)
        _emit_rows(RunConfig("entropy", WeightSpec.chebyshev_t(), fmt="json"), [report])
        (data,) = json.loads(capsys.readouterr().out)
        assert list(data) == ["n", "x", "shannon", "divergence", "d_infinity", "gap"]
        assert data["d_infinity"] is None
        assert json.loads(json.dumps(data)) == data

    def test_csv_line_cells(self):
        assert csv_line([None, "rational", 7, 0.1, -0.0]) == ",rational,7,0.10000000000000001,-0"

    def test_format_float_round_trips(self):
        for value in (math.pi, 1.0 / 3.0, 1e-300, -0.0, 123456.789):
            assert float(format_float(value)) == value
