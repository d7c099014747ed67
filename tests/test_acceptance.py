"""Acceptance suite.

Each test pins one headline guarantee of the package at a fixed tolerance
and prints a single PASS line (visible with ``pytest -s``); a failing
guarantee fails its test.  Everything runs through the public API.
"""

import math

import numpy as np

import orthoentropy as oe

LOG2 = math.log(2.0)

CHEB_T = oe.WeightSpec.chebyshev_t()
CHEB_U = oe.WeightSpec.chebyshev_u()
LEGENDRE = oe.WeightSpec.legendre()
NAMED_WEIGHTS = (("chebyshev_t", CHEB_T), ("chebyshev_u", CHEB_U), ("legendre", LEGENDRE))


def report(number: int, name: str, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({detail})")


def test_01_closed_form_exactness():
    worst = 0.0
    for n in range(1, 201):
        for j in range(1, n + 1):
            worst = max(
                worst,
                abs(oe.zero_entropy_first_kind(n, j) - oe.zero_entropy_direct("first", n, j)),
                abs(oe.zero_entropy_second_kind(n, j) - oe.zero_entropy_direct("second", n, j)),
            )
    assert worst < 1e-10
    report(1, "closed-form zero entropies", f"max |closed - direct| = {worst:.2e} < 1e-10")


def test_02_correction_dual_route():
    worst = 0.0
    for i in range(1, 100):
        x = i / 100.0
        worst = max(worst, abs(oe.entropy_correction(x) - oe.entropy_correction_series(x)))
    assert worst < 1e-12
    half = abs(oe.entropy_correction(0.5) - (2.0 * LOG2 - 1.0))
    assert half < 1e-12
    report(2, "correction dual route", f"max route gap = {worst:.2e} < 1e-12, half-value err = {half:.2e}")


def test_03_identity_suite():
    results = dict(oe.identity_suite(even_k_max=200, odd_k_max=199, grid_points=1000))
    for name in ("even_k_closed_form", "odd_k_closed_form", "odd_sine_sum", "odd_split_sum"):
        assert results[name] < 1e-10, name
    assert results["convexity_margin"] < 0.0
    worst = max(results[n] for n in ("even_k_closed_form", "odd_k_closed_form",
                                     "odd_sine_sum", "odd_split_sum"))
    report(3, "identity suite", f"max identity error = {worst:.2e} < 1e-10, "
           f"convexity margin = {results['convexity_margin']:.2e} < 0")


def test_04_divergence_limit_cross_route():
    worst = 0.0
    base = 1.0 - LOG2
    for k in range(2, 51):
        closed = oe.chebyshev_divergence_limit(k)
        if k % 2 == 0:
            assert closed > base
        else:
            assert closed < base
        for s in range(1, k):
            if math.gcd(s, k) == 1:
                via_average = oe.limit_divergence(CHEB_T, oe.RationalAngle(s, k))
                worst = max(worst, abs(via_average - closed))
    assert worst < 1e-10
    report(4, "limit divergence cross-route", f"max route gap = {worst:.2e} < 1e-10, sign pattern exact")


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
            e0 = abs(oe.kl_divergence(oe.christoffel_distribution(rec, x, n0)) - d_inf)
            e1 = abs(oe.kl_divergence(oe.christoffel_distribution(rec, x, n1)) - d_inf)
            assert e0 < 0.02, (weight, s, k)
            assert e1 <= 0.6 * e0 + 1e-9, (weight, s, k)
            worst_err = max(worst_err, e0)
    report(5, "rational-angle convergence", f"max error at n=1e4 is {worst_err:.2e} < 0.02, halves under doubling")


def test_06_irrational_case():
    target = 0.5 - LOG2
    emp = abs(oe.phase_average_empirical(CHEB_T, 1.0, 100_000) - target)
    assert emp < 0.01
    rec = oe.weight_recurrence(LEGENDRE, 10_001)
    divergence = oe.kl_divergence(oe.christoffel_distribution(rec, math.cos(1.0), 10_000))
    end_to_end = abs(divergence - (1.0 - LOG2))
    assert end_to_end < 0.03
    report(6, "irrational angle", f"phase-average error = {emp:.2e} < 0.01, "
           f"end-to-end divergence error = {end_to_end:.2e} < 0.03")


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
        gaps = oe.zero_entropy_gaps(kind, angle, items)
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


def test_08_kernel_universality():
    worst_ratio = 0.0
    worst_tail = 0.0
    n = 4000
    for _, weight in NAMED_WEIGHTS:
        rec = oe.weight_recurrence(weight, n + 1)
        for x in (0.0, 0.3, -0.3, 0.6, -0.6):
            ratio, tail = oe.christoffel_limit_ratios(weight, x, n, rec)
            assert 0.98 <= ratio <= 1.02, (weight, x)
            assert tail < 0.01, (weight, x)
            worst_ratio = max(worst_ratio, abs(ratio - 1.0))
            worst_tail = max(worst_tail, tail)
    report(8, "kernel universality", f"max |ratio - 1| = {worst_ratio:.2e} <= 0.02, "
           f"max tail mass = {worst_tail:.2e} < 0.01 at n = 4000")


def test_09_phase_and_asymptotics():
    exp_weight = oe.WeightSpec(0.0, 0.0, (0.0, 1.0))
    spectral = max(
        abs(oe.phase_shift(exp_weight, theta) - 0.5 * math.sin(theta))
        for theta in np.linspace(0.1, math.pi - 0.1, 25)
    )
    assert spectral < 1e-10

    oracle = 0.0
    for x in (-0.4, 0.2, 0.5):
        theta = math.acos(x)
        recomposed = math.sin(theta) / (2.0 * math.pi) * oe.pv_log_h_oracle(exp_weight, x)
        oracle = max(oracle, abs(oe.phase_shift(exp_weight, theta) - recomposed))
    assert oracle < 1e-6

    cosine = 0.0
    for n in (1, 2, 3, 5, 8, 40, 100):
        for theta in np.linspace(0.2, math.pi - 0.2, 9):
            x = math.cos(theta)
            exact_t = math.sqrt(2.0 / math.pi) * math.cos(n * theta)
            exact_u = math.sqrt(2.0 / math.pi) * math.sin((n + 1) * theta) / math.sin(theta)
            cosine = max(
                cosine,
                abs(oe.asymptotic_polynomial(CHEB_T, n, x) - exact_t),
                abs(oe.asymptotic_polynomial(CHEB_U, n, x) - exact_u),
            )
    assert cosine < 1e-12
    report(9, "phase and bulk asymptotics", f"spectral err = {spectral:.2e} < 1e-10, "
           f"excision oracle err = {oracle:.2e} < 1e-6, cosine form err = {cosine:.2e} < 1e-12")


def test_10_generalized_weight_orthonormality():
    worst = 0.0
    for spec in ((0.0, 0.0, (0.0, 1.0)),
                 (-0.5, -0.5, (0.0, 0.5, 0.25)),
                 (0.5, -0.5, (0.0, 1.0))):
        weight = oe.WeightSpec(*spec)
        rec = oe.stieltjes_recurrence(weight, 31)
        oracle = oe.gauss_jacobi(weight.alpha, weight.beta, 150)
        wh = oracle.weights * np.asarray(weight.h(oracle.nodes))
        table = np.stack(
            [oe.eval_orthonormal(rec, float(t), 31) for t in oracle.nodes]
        )
        gram = table.T @ (wh[:, None] * table)
        defect = float(np.abs(gram - np.eye(31)).max())
        assert defect < 1e-10, spec
        worst = max(worst, defect)
    report(10, "generalized-weight orthonormality", f"max |gram - identity| = {worst:.2e} < 1e-10")
