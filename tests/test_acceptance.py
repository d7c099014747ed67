"""Acceptance suite.

Each test pins one headline guarantee of the package at a fixed tolerance
and prints PASS lines (visible with ``pytest -s``); a failing guarantee
fails its test.  The checks that ``orthoentropy verify`` also runs come
from ``orthoentropy.checks``, here at its wider acceptance scope; tests
05-07 have no ``verify`` counterpart.  Everything else runs through the
public API.
"""

import math

import numpy as np
import pytest

import orthoentropy as oe
from orthoentropy.checks import ACCEPTANCE_SCOPE, CHECKS

LOG2 = math.log(2.0)

CHEB_T = oe.WeightSpec.chebyshev_t()
CHEB_U = oe.WeightSpec.chebyshev_u()
LEGENDRE = oe.WeightSpec.legendre()
NAMED_WEIGHTS = (("chebyshev_t", CHEB_T), ("chebyshev_u", CHEB_U), ("legendre", LEGENDRE))


def report(number: int, name: str, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({detail})")


@pytest.mark.parametrize("check", CHECKS, ids=lambda check: check.__name__)
def test_registry_check(check):
    for name, observed, bound in check(ACCEPTANCE_SCOPE):
        assert observed < bound, name
        print(f"ACCEPTANCE {name}: PASS ({observed:.2e} < {bound:g})")


def divergence(rec, x, n):
    """log n minus the entropy, by direct summation of the distribution."""
    return math.log(n) - oe.shannon_entropy(oe.christoffel_distribution(rec, x, n))


def test_05_rational_convergence():
    worst_err = 0.0
    n0 = 10_000
    for _, weight in NAMED_WEIGHTS:
        rec = oe.weight_recurrence(weight, 2 * n0 + 1)
        for s, k in ((1, 2), (1, 3), (2, 5)):
            angle = oe.RationalAngle(s, k)
            d_inf = oe.limit_divergence(weight, angle)
            x = math.cos(angle.theta)
            # doubled size in the same residue class mod k, so the periodic
            # part of the finite-n remainder is comparable
            n1 = 2 * n0 - ((2 * n0 - n0) % k)
            e0 = abs(divergence(rec, x, n0) - d_inf)
            e1 = abs(divergence(rec, x, n1) - d_inf)
            assert e0 < 0.02, (weight, s, k)
            assert e1 <= 0.6 * e0 + 1e-9, (weight, s, k)
            worst_err = max(worst_err, e0)
    report(5, "rational-angle convergence", f"max error at n=1e4 is {worst_err:.2e} < 0.02, halves under doubling")


def test_06_irrational_case():
    target = 0.5 - LOG2
    emp = abs(oe.phase_average_empirical(CHEB_T, 1.0, 100_000) - target)
    assert emp < 0.01
    rec = oe.weight_recurrence(LEGENDRE, 10_001)
    end_to_end = abs(divergence(rec, math.cos(1.0), 10_000) - (1.0 - LOG2))
    assert end_to_end < 0.03
    report(6, "irrational angle", f"phase-average error = {emp:.2e} < 0.01, "
           f"end-to-end divergence error = {end_to_end:.2e} < 0.03")


def zero_entropy_gaps(kind, angle, items):
    """Closed-form zero entropy minus the entropy at x = cos(theta), per item."""
    closed = oe.zero_entropy_first_kind if kind == "first" else oe.zero_entropy_second_kind
    return [
        closed(item.n, item.j) - oe.chebyshev_distribution_entropy(kind, item.n, angle.theta)
        for item in items
    ]


def test_07_zero_subsequence_gaps():
    # compatible families: gaps shrink toward 0
    final_gaps = []
    for kind, family, angle in (
        ("second", 4, oe.RationalAngle(1, 3)),
        ("second", 4, oe.RationalAngle(1, 2)),
        ("first", 2, oe.RationalAngle(1, 4)),
        ("first", 2, oe.RationalAngle(1, 2)),
    ):
        count = 1300 // angle.k + 60  # reaches n around 1300 for either family
        items = oe.zero_subsequence(family, angle, count)
        gaps = zero_entropy_gaps(kind, angle, items)
        tail = [abs(g) for it, g in zip(items, gaps) if it.n > 1000]
        assert tail, "subsequence never reached n > 1000"
        assert max(tail) < 0.01, (kind, family, angle)
        head_mean = np.mean(np.abs(gaps[:25]))
        tail_mean = np.mean(np.abs(gaps[-25:]))
        assert tail_mean <= head_mean + 1e-12, (kind, family, angle)
        final_gaps.append(max(tail))

    # first kind with odd denominator: gaps bounded away from zero
    worst_excess = -math.inf
    for k in (3, 5, 7):
        angle = oe.RationalAngle(1, k)
        bound = 2.0 * oe.entropy_correction(0.5 / k) - oe.entropy_correction(1.0 / k)
        assert bound < 0.0
        for n in range(1001, 1101):
            at_x = oe.chebyshev_distribution_entropy("first", n, angle.theta)
            divisors = {math.gcd(2 * j - 1, n) for j in range(1, n + 1)}
            for d in divisors:
                closed = (
                    math.log(n) + LOG2 - 1.0 + LOG2 / n
                    - oe.entropy_correction(d / (2.0 * n))
                )
                gap = closed - at_x
                assert gap < bound + 0.01, (k, n, d)
                worst_excess = max(worst_excess, gap - bound)
    report(7, "zero-subsequence gaps", f"compatible families max |gap| = {max(final_gaps):.2e} < 0.01 "
           f"past n=1e3; odd-k gaps within {worst_excess:.2e} of the negative bound (< 0.01)")
