import json
import math
import tracemalloc
from dataclasses import fields

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from orthoentropy.cli import EntropyReport, _csv_cell, _emit_rows
from orthoentropy.entropy import (
    _BLOCK,
    DiscreteDistribution,
    _blocks,
    chebyshev_distribution_entropy,
    christoffel_distribution,
    christoffel_entropy_grid,
    shannon_entropy,
    zero_entropy_direct,
    zero_entropy_first_kind,
    zero_entropy_second_kind,
)
from orthoentropy.errors import NumericError
from orthoentropy.orthopoly import (
    RecurrenceCoefficients,
    WeightSpec,
    chebyshev_zero,
    eval_orthonormal,
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
        # the entries are computed values; the shape is an argument
        with pytest.raises(NumericError):
            DiscreteDistribution(np.array([0.5, 0.6]))
        with pytest.raises(NumericError):
            DiscreteDistribution(np.array([1.5, -0.5]))
        with pytest.raises(ValueError):
            DiscreteDistribution(np.array([]))

    def test_accessors(self):
        dist = DiscreteDistribution(np.array([0.5, 0.5]))
        assert abs(shannon_entropy(dist) - LOG2) < 1e-15
        assert abs(math.log(2) - shannon_entropy(dist)) < 1e-15


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
        scaled = RecurrenceCoefficients(LEGENDRE_REC.a, b7)
        for n in (1, 3, 20):
            a = christoffel_distribution(LEGENDRE_REC, 0.37, n).probs
            b = christoffel_distribution(scaled, 0.37, n).probs
            assert np.abs(a - b).max() < 1e-14

    def test_rejects_endpoints(self):
        with pytest.raises(ValueError):
            christoffel_distribution(CHEB_T_REC, 1.0, 3)


def mpmath_entropies(vals, ns):
    """log K - S/K of the given doubles p_k, summed in 30 digits, at each n in ns."""
    with mpmath.workdps(30):
        out, k_sum, s_sum = [], mpmath.mpf(0), mpmath.mpf(0)
        for k, v in enumerate(vals[: max(ns)]):
            q = mpmath.mpf(float(v)) ** 2
            k_sum += q
            s_sum += q * mpmath.log(q) if q else 0
            if k + 1 in ns:
                out.append(mpmath.log(k_sum) - s_sum / k_sum)
        return out


def point_entropies(rec, x, ns):
    """The single-point source: one point per call."""
    return christoffel_entropy_grid(rec, [x], ns)[:, 0]


class TestChristoffelEntropies:
    # the entropies of every size at one point: a one-point grid
    def test_preconditions(self):
        for ns in ([], [0, 3], [-1, 3], [3, 3], [5, 3]):
            with pytest.raises(ValueError):
                point_entropies(LEGENDRE_REC, 0.2, ns)
        with pytest.raises(ValueError):
            point_entropies(LEGENDRE_REC, 1.0, [3])
        with pytest.raises(ValueError):
            point_entropies(LEGENDRE_REC, 0.2, [3, 61])


class TestChristoffelEntropyGrid:
    NS = (1, 2, 7, 63, 64, 65, 250, 1000, 4000)

    def test_matches_direct_route(self):
        rng = np.random.default_rng(20141009)
        for alpha, beta in rng.uniform(-0.99, 5.0, (4, 2)):
            rec = jacobi_recurrence(alpha, beta, max(self.NS))
            xs = [-0.9999, *sorted(rng.uniform(-1.0, 1.0, 6)), 0.9999]
            grid = christoffel_entropy_grid(rec, xs, self.NS)
            assert grid.shape == (len(self.NS), len(xs))
            for j, x in enumerate(xs):
                direct = [shannon_entropy(christoffel_distribution(rec, x, n)) for n in self.NS]
                assert np.abs(grid[:, j] - direct).max() < 1e-13, (alpha, beta, x)
                assert np.abs(point_entropies(rec, x, self.NS) - direct).max() < 1e-13
        ns = [1, 2, 7, 33, 60]
        for rec in (LEGENDRE_REC, jacobi_recurrence(0.3, -0.4, 60),
                    stieltjes_recurrence(WeightSpec(-0.3, 0.6, (0.2, 0.5, -0.3)), 60)):
            for x in (-0.85, 0.1, 0.6):
                direct = [shannon_entropy(christoffel_distribution(rec, x, n)) for n in ns]
                assert np.abs(point_entropies(rec, x, ns) - direct).max() < 1e-13

    def test_reduction_against_mpmath(self):
        # Both sources sum the same doubles p_k as the direct route.  A case
        # may land one ulp farther from the 30-digit sum (at most 8.9e-16
        # over 40 seeds of this set-up), but over the set the worst and mean
        # errors of each source are no larger than those of direct summation.
        ns = (7, 250, 1000, 4000)
        rng = np.random.default_rng(20141010)
        grid_errs, point_errs, direct_errs = [], [], []
        for alpha, beta in rng.uniform(-0.99, 5.0, (2, 2)):
            rec = jacobi_recurrence(alpha, beta, max(ns))
            xs = [-0.9999, *sorted(rng.uniform(-0.99, 0.99, 4)), 0.9999]
            grid = christoffel_entropy_grid(rec, xs, ns)
            for j, x in enumerate(xs):
                refs = mpmath_entropies(eval_orthonormal(rec, x, max(ns)), ns)
                point = point_entropies(rec, x, ns)
                for i, n in enumerate(ns):
                    direct = shannon_entropy(christoffel_distribution(rec, x, n))
                    grid_errs.append(abs(float(grid[i, j] - refs[i])))
                    point_errs.append(abs(float(point[i] - refs[i])))
                    direct_errs.append(abs(float(direct - refs[i])))
        for errs in (grid_errs, point_errs):
            assert all(e <= d + 1e-15 for e, d in zip(errs, direct_errs))
            assert max(errs) <= max(direct_errs) + 4e-16
            assert np.mean(errs) <= np.mean(direct_errs)

    @pytest.mark.parametrize("rec", [LEGENDRE_REC, CHEB_U_REC])
    def test_zero_cells(self, rec):
        # every odd p_k vanishes at x = 0: half the cells are exactly 0
        xs = [-0.5, -0.25, 0.0, 0.25, 0.5]
        ns = [1, 2, 3, 8, 33, 60]
        assert eval_orthonormal(rec, 0.0, 60)[1::2].max() == 0.0
        grid = christoffel_entropy_grid(rec, xs, ns)
        assert np.all(np.isfinite(grid))
        for j, x in enumerate(xs):
            direct = [shannon_entropy(christoffel_distribution(rec, x, n)) for n in ns]
            assert np.abs(grid[:, j] - direct).max() < 1e-14
            assert np.abs(point_entropies(rec, x, ns) - direct).max() < 1e-14

    def test_overflow_raises_numeric_error(self):
        rec = jacobi_recurrence(300.0, 0.0, 5000)
        with pytest.raises(NumericError, match="overflows at x = 0.99 "):
            christoffel_entropy_grid(rec, [-0.5, 0.99], [10, 5000])
        with pytest.raises(NumericError, match="overflows at x = 0.99 "):
            point_entropies(rec, 0.99, [10, 5000])
        with pytest.raises(NumericError, match="overflows at x = 0.99 "):
            christoffel_distribution(rec, 0.99, 5000)

    @pytest.mark.parametrize("xs", [[-0.9, 0.2, 0.95], [0.2]], ids=["grid", "point"])
    def test_blocks_contract(self, xs):
        # the squares of eval_orthonormal in order, cut at every schedule
        # entry: at most _BLOCK rows over a grid, one block per segment at a point
        ns = (1, 2, 63, 64, 65, 128, 129, 300)
        rec = jacobi_recurrence(0.3, -0.4, ns[-1])
        blocks = list(_blocks(rec, np.array(xs), ns))
        expected = np.stack([eval_orthonormal(rec, x, ns[-1]) ** 2 for x in xs], axis=1)
        assert np.array_equal(np.concatenate([sq for sq, _ in blocks]), expected)
        ends = [end for _, end in blocks]
        for start, (sq, end) in zip([0, *ends], blocks):
            assert sq.shape == (end - start, len(xs))
            assert end <= min(n for n in ns if n > start)
        assert set(ns) <= set(ends)
        if len(xs) > 1:
            assert max(len(sq) for sq, _ in blocks) <= _BLOCK
        else:
            assert ends == list(ns)

    # tracemalloc counts numpy buffers.  One point holds O(largest segment)
    # and a grid O(points * _BLOCK): no list or array of all n values.
    @pytest.mark.parametrize("xs, n_top, limit_mib", [
        ([0.3], 102400, 4.0), ([-0.4, 0.3], 12800, 0.5),
    ], ids=["point", "two_points"])
    def test_peak_memory(self, xs, n_top, limit_mib):
        ns = [n for n in (100 * 2 ** i for i in range(11)) if n <= n_top]
        rec = jacobi_recurrence(0.5, -0.3, n_top)
        tracemalloc.start()
        try:
            christoffel_entropy_grid(rec, xs, ns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mib * 2 ** 20

    def test_preconditions(self):
        for xs in ([], [0.2, 1.0], [[0.1, 0.2]]):
            with pytest.raises(ValueError):
                christoffel_entropy_grid(LEGENDRE_REC, xs, [3])
        for ns in ([], [0, 3], [-1, 3], [3, 3], [5, 3], [3, 61]):
            with pytest.raises(ValueError):
                christoffel_entropy_grid(LEGENDRE_REC, [0.1, 0.2], ns)


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
        assert -1e-12 <= entropy <= math.log(probs.size) + 1e-12
        assert math.log(probs.size) - entropy >= -1e-12


class TestKlDivergence:
    # the divergence from the uniform distribution is log n - entropy
    def test_uniform_is_zero(self):
        dist = DiscreteDistribution(np.full(9, 1.0 / 9.0))
        assert abs(math.log(9) - shannon_entropy(dist)) < 1e-12

    def test_point_mass(self):
        n = 6
        probs = np.zeros(n)
        probs[0] = 1.0
        divergence = math.log(n) - shannon_entropy(DiscreteDistribution(probs))
        assert abs(divergence - math.log(n)) < 1e-15

    def test_worked_example(self):
        dist = DiscreteDistribution(np.array([1.0 / 3.0, 0.0, 2.0 / 3.0]))
        assert abs(math.log(3) - shannon_entropy(dist) - 2.0 / 3.0 * LOG2) < 1e-15


class TestKernelSplit:
    # the split form log K - S/K is the production reduction
    def test_matches_direct_route(self):
        ns = (1, 2, 5, 17, 60)
        for rec in (CHEB_T_REC, CHEB_U_REC, LEGENDRE_REC):
            for x in (-0.7, -0.1, 0.3, 0.8):
                direct = [shannon_entropy(christoffel_distribution(rec, x, n)) for n in ns]
                assert np.abs(point_entropies(rec, x, ns) - direct).max() < 1e-12

    def test_chebyshev_origin_n3(self):
        expected = math.log(3.0) - 2.0 / 3.0 * LOG2
        assert abs(point_entropies(CHEB_T_REC, 0.0, [3])[0] - expected) < 1e-14
        assert abs(christoffel_entropy_grid(CHEB_T_REC, [-0.5, 0.0], [3])[0, 1] - expected) < 1e-14

    def test_single_cell_is_zero(self):
        assert abs(point_entropies(CHEB_T_REC, 0.3, [1])[0]) < 1e-15
        assert np.abs(christoffel_entropy_grid(CHEB_T_REC, [-0.5, 0.3], [1])).max() < 1e-15


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


def report_csv_row(report):
    return ",".join(_csv_cell(getattr(report, f.name)) for f in fields(report))


class TestEntropyReport:
    def test_invariant_validation(self):
        # the entropy and the divergence are computed values
        with pytest.raises(NumericError):
            EntropyReport(n=3, x=0.0, shannon=math.log(3.0) + 1.0, divergence=0.0)
        with pytest.raises(NumericError):
            EntropyReport(n=3, x=0.0, shannon=0.5, divergence=-0.5)

    def test_csv_row_shape(self):
        shannon = math.log(3.0) - 2.0 / 3.0 * LOG2
        report = EntropyReport(3, 0.0, shannon, 2.0 / 3.0 * LOG2)
        row = report_csv_row(report)
        cells = row.split(",")
        assert len(cells) == len(fields(EntropyReport))
        assert cells[0] == "3"
        assert cells[1] == "0"
        assert cells[4] == "" and cells[5] == ""
        assert float(cells[2]) == shannon

    def test_csv_row_with_limit(self):
        report = EntropyReport(10, 0.5, 1.0, math.log(10.0) - 1.0, LOG2, 0.01)
        cells = report_csv_row(report).split(",")
        assert float(cells[4]) == LOG2
        assert float(cells[5]) == 0.01

    def test_json_mirror(self, capsys):
        report = EntropyReport(3, 0.0, 0.5, math.log(3.0) - 0.5)
        _emit_rows("json", None, [report])
        (data,) = json.loads(capsys.readouterr().out)
        assert list(data) == ["n", "x", "shannon", "divergence", "d_infinity", "gap"]
        assert data["d_infinity"] is None
        assert json.loads(json.dumps(data)) == data

    def test_csv_cells(self):
        cells = map(_csv_cell, [None, "rational", 7, 0.1, -0.0])
        assert ",".join(cells) == ",rational,7,0.10000000000000001,-0"

    def test_float_cell_round_trips(self):
        for value in (math.pi, 1.0 / 3.0, 1e-300, -0.0, 123456.789):
            assert float(_csv_cell(value)) == value
