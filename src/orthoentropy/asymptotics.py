"""Large-n limits of the distribution entropy and their verification tools.

The limiting divergence at x = cos(theta) is log(2) plus twice a phase
average, which depends on whether theta/pi is rational: a k-point average
on the rational grid, and 1/2 - log(2) off it, so that the limit there is
1 - log(2).  This module provides the phase function with its exact
Chebyshev treatment of the principal-value integral, a brute force
excision oracle for that integral, the phase average, the closed-form
limit for the first-kind Chebyshev weight, the bulk cosine approximation
of the polynomials, kernel-limit diagnostics, the zero subsequence
families, and an identity suite tying the averages to the
entropy-correction function.  Angles are always declared by the caller:
a float never certifies that theta/pi is rational.  The entropies at
finite n live in ``entropy``; this module does not use them.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice
from typing import Union

import numpy as np
from scipy.integrate import quad
from scipy.special import xlogy

from .errors import NumericError
from .orthopoly import RecurrenceCoefficients, WeightSpec, eval_orthonormal
from .specfun import entropy_correction

__all__ = [
    "Angle",
    "IrrationalAngle",
    "RationalAngle",
    "SubsequenceItem",
    "asymptotic_polynomial",
    "chebyshev_divergence_limit",
    "christoffel_limit_ratios",
    "identity_suite",
    "limit_divergence",
    "phase_average",
    "phase_average_empirical",
    "phase_shift",
    "pv_log_h_oracle",
    "zero_subsequence",
]

_LOG2 = math.log(2.0)
_QUARTER_PI = 0.25 * math.pi


def _integrand_even(y: np.ndarray) -> np.ndarray:
    """Vectorized y^2 log(y^2) with 0 at y = 0."""
    sq = y * y
    return xlogy(sq, sq)


@dataclass(frozen=True)
class RationalAngle:
    """Angle theta = pi * s / k with 0 < s < k, reduced at construction.

    The reduced k must fit a float, and theta must round into (0, pi), so
    that theta is a float that ``phase_shift`` accepts.
    """

    s: int
    k: int

    def __post_init__(self) -> None:
        s, k = int(self.s), int(self.k)
        if not 0 < s < k:
            raise ValueError(f"need 0 < s < k, got s={s}, k={k}")
        g = math.gcd(s, k)
        s, k = s // g, k // g
        if k > sys.float_info.max:
            raise ValueError(f"theta = pi s/k needs k to fit a float, got a {k.bit_length()}-bit k")
        if not 0.0 < math.pi * s / k < math.pi:
            raise ValueError(f"theta = pi s/k rounds to {math.pi * s / k!r}, outside (0, pi)")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "k", k)

    @property
    def theta(self) -> float:
        return math.pi * self.s / self.k


@dataclass(frozen=True)
class IrrationalAngle:
    """Angle theta in (0, pi) that the caller asserts has theta/pi irrational.

    Rationality is never inferred from the float: the limiting divergence
    is discontinuous at every point, so numeric detection is ill-posed.
    """

    theta: float

    def __post_init__(self) -> None:
        if not 0.0 < self.theta < math.pi:
            raise ValueError(f"theta must lie in (0, pi), got {self.theta}")


Angle = Union[RationalAngle, IrrationalAngle]


def phase_shift(weight: WeightSpec, theta: float) -> float:
    """Phase of the bulk cosine approximation at x = cos(theta).

    Equals ((alpha+beta)*theta - alpha*pi)/2 plus half the sine series
    sum_m c_m sin(m*theta).  The sine series is the exact finite Hilbert
    transform of log h expanded in the Chebyshev basis, so the
    principal-value integral never needs numerical excision here; the
    constant coefficient c_0 contributes nothing.  Raises NumericError
    when the phase overflows, for exponents or coefficients near the
    largest double.
    """
    if not 0.0 < theta < math.pi:
        raise ValueError(f"theta must lie in (0, pi), got {theta}")
    base = 0.5 * ((weight.alpha + weight.beta) * theta - weight.alpha * math.pi)
    series = 0.0
    for m, c in enumerate(weight.logh_cheb):
        if c != 0.0:
            series += c * math.sin(m * theta)
    phase = base + 0.5 * series
    if not math.isfinite(phase):
        raise NumericError(f"the phase at theta = {theta!r} is not finite")
    return phase


_EXCISION_RATIO = 2.0
_EXCISION_RADII = tuple(0.2 / _EXCISION_RATIO ** i for i in range(8))
# largest gap allowed between the last two extrapolated estimates
_EXTRAPOLATION_TOL = 1e-7


def pv_log_h_oracle(weight: WeightSpec, x: float) -> float:
    """Principal value of the integral of log h(t) / (sqrt(1-t^2) (t-x)).

    Brute-force evaluation: excise (x - eps, x + eps) symmetrically for
    the radii eps = 0.2 * 2^-i, i < 8, integrate each piece adaptively
    after the substitution t = cos(tau), then Richardson-extrapolate in
    the odd powers of eps.  Test oracle for :func:`phase_shift`; slow by
    design, and defined for |x| < 0.8.
    """
    if not -1.0 < x < 1.0:
        raise ValueError(f"x must lie in (-1, 1), got {x}")
    largest = _EXCISION_RADII[0]
    if x + largest >= 1.0 or x - largest <= -1.0:
        raise ValueError(f"the excision radius {largest} reaches an endpoint from x = {x}")

    def integrand(tau: float) -> float:
        c = math.cos(tau)
        return weight.log_h(c) / (c - x)

    def excised(e: float) -> float:
        upper = math.acos(x + e)
        lower = math.acos(x - e)
        right, _ = quad(integrand, 0.0, upper, limit=400, epsabs=1e-13, epsrel=1e-13)
        left, _ = quad(integrand, lower, math.pi, limit=400, epsabs=1e-13, epsrel=1e-13)
        return right + left

    # Neville tableau removing the odd error powers eps, eps^3, eps^5, ...
    diag = [excised(e) for e in _EXCISION_RADII]
    for m in range(1, len(diag)):
        factor = _EXCISION_RATIO ** (2 * m - 1) - 1.0
        for i in range(len(diag) - 1, m - 1, -1):
            diag[i] = diag[i] + (diag[i] - diag[i - 1]) / factor
    if abs(diag[-1] - diag[-2]) > _EXTRAPOLATION_TOL:
        raise NumericError(
            "excision extrapolation did not stabilize: last two estimates "
            f"differ by {abs(diag[-1] - diag[-2]):.3e}"
        )
    return diag[-1]


def phase_average(weight: WeightSpec, angle: Angle) -> float:
    """Average of the entropy integrand y^2 log(y^2) along the phase progression.

    For a rational angle s/k the progression has period k, so this is the
    k-point average.  For an irrational angle it is equidistributed, so
    this is the integrand's mean 1/2 - log(2), whatever the weight.  Always
    nonpositive, since the integrand is nonpositive on [-1, 1].
    """
    if isinstance(angle, RationalAngle):
        return phase_average_empirical(weight, angle.theta, angle.k)
    if isinstance(angle, IrrationalAngle):
        return 0.5 - _LOG2
    raise TypeError(f"expected RationalAngle or IrrationalAngle, got {type(angle)!r}")


def phase_average_empirical(weight: WeightSpec, theta: float, n: int) -> float:
    """Empirical n-term average of the entropy integrand at angle theta."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    phi = phase_shift(weight, theta)
    i = np.arange(n)
    y = np.cos((i + 0.5) * theta + phi - _QUARTER_PI)
    return float(_integrand_even(y).sum()) / n


def limit_divergence(weight: WeightSpec, angle: Angle) -> float:
    """Limiting Kullback-Leibler divergence at x = cos(theta):
    log(2) + 2 * phase_average.

    For an irrational angle this is exactly the double 1 - log(2).
    """
    return _LOG2 + 2.0 * phase_average(weight, angle)


def chebyshev_divergence_limit(k: int) -> float:
    """Closed form of the limiting divergence for the first-kind Chebyshev
    weight at any reduced rational angle with denominator k >= 2.

    Strictly above 1 - log(2) for even k, strictly below for odd k, so the
    limit function attains neither its maximum nor its minimum at
    irrational angles.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    base = 1.0 - _LOG2
    if k % 2 == 0:
        return base + entropy_correction(1.0 / k)
    return base + 2.0 * (entropy_correction(0.5 / k) - 0.5 * entropy_correction(1.0 / k))


def asymptotic_polynomial(weight: WeightSpec, n: int, x: float) -> float:
    """Leading-order cosine approximation of p_n(x) in the bulk.

    sqrt(2/pi) * w(x)^(-1/2) * (1-x^2)^(-1/4) * cos((n+1/2)theta + phase - pi/4),
    dropping the O(1/n) correction.  Exact for both Chebyshev weights.
    """
    if not -1.0 < x < 1.0:
        raise ValueError(f"x must lie in (-1, 1), got {x}")
    theta = math.acos(x)
    phi = phase_shift(weight, theta)
    amp = math.sqrt(2.0 / math.pi) / (math.sqrt(weight.w(x)) * (1.0 - x * x) ** 0.25)
    return amp * math.cos((n + 0.5) * theta + phi - _QUARTER_PI)


def christoffel_limit_ratios(
    weight: WeightSpec, x: float, n: int, rec: RecurrenceCoefficients
) -> tuple[float, float]:
    """Kernel-limit diagnostics at x: the pair
    (n * lambda_n(x) / (pi w(x) sqrt(1-x^2)), lambda_n(x) * p_n(x)^2).

    The first component tends to 1 and the second to 0 as n grows.  ``rec``
    is the recurrence of ``weight`` with n_max >= n + 1.
    """
    if not -1.0 < x < 1.0:
        raise ValueError(f"x must lie in (-1, 1), got {x}")
    vals = eval_orthonormal(rec, x, n + 1)
    head = vals[:n]
    lam = 1.0 / float(np.dot(head, head))
    ratio = n * lam / (math.pi * float(weight.w(x)) * math.sqrt(1.0 - x * x))
    return ratio, lam * float(vals[n]) ** 2


@dataclass(frozen=True)
class SubsequenceItem:
    """Index pair (n, j) addressing the j-th zero of the degree-n polynomial."""

    n: int
    j: int

    def __post_init__(self) -> None:
        if not 1 <= self.j <= self.n:
            raise ValueError(f"need 1 <= j <= n, got (n={self.n}, j={self.j})")


def _primes() -> Iterator[int]:
    """The primes in increasing order, each once, by sieves to doubling bounds."""
    low, bound = 2, 64
    while True:
        sieve = np.ones(bound + 1, dtype=bool)
        for p in range(2, int(bound ** 0.5) + 1):
            if sieve[p]:
                sieve[p * p :: p] = False
        yield from (low + int(i) for i in np.flatnonzero(sieve[low:]))
        low, bound = bound + 1, 2 * bound


def zero_subsequence(family: int, angle: Angle, count: int) -> list[SubsequenceItem]:
    """First ``count`` index pairs (n, j) of the zero-tracking families.

    family 1: (p, floor(theta*p/pi)) over primes p           (irrational)
    family 2: (k(2m+1)/2, (s(2m+1)+1)/2) for m = 1, 2, ...   (rational, k even)
    family 3: (p-1, floor(theta*(p-1)/pi)) over primes p     (irrational)
    family 4: (m*k - 1, s*m) for m = 1, 2, ...               (rational)

    Families 1 and 3 skip items whose j would be 0 (smallest primes when
    theta/pi < 1/p), since zeros are indexed from 1.  Items come back in
    increasing order of n.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if family in (1, 3):
        if not isinstance(angle, IrrationalAngle):
            raise ValueError(f"family {family} requires an irrational angle")
        ratio = angle.theta / math.pi
        ns = (p if family == 1 else p - 1 for p in _primes())
        pairs = ((n, math.floor(ratio * n)) for n in ns)
        return list(islice((SubsequenceItem(n, j) for n, j in pairs if j >= 1), count))
    if family == 2:
        if not isinstance(angle, RationalAngle):
            raise ValueError("family 2 requires a rational angle")
        if angle.k % 2 != 0:
            raise ValueError("family 2 requires an even denominator k")
        return [
            SubsequenceItem(angle.k * (2 * m + 1) // 2, (angle.s * (2 * m + 1) + 1) // 2)
            for m in range(1, count + 1)
        ]
    if family == 4:
        if not isinstance(angle, RationalAngle):
            raise ValueError("family 4 requires a rational angle")
        return [SubsequenceItem(m * angle.k - 1, angle.s * m) for m in range(1, count + 1)]
    raise ValueError(f"family must be 1, 2, 3 or 4, got {family}")


def identity_suite() -> list[tuple[str, float]]:
    """Evaluate both sides of the averaged-entropy identities independently.

    Returns (name, discrepancy) pairs where each discrepancy is a maximum
    over even k <= 200 or odd k <= 199.  All entries except the last are
    absolute errors of exact identities; "convexity_margin" is the signed
    maximum of correction(x/2) - correction(x)/2 over 1000 interior points
    of an even grid on (0, 1) and must be negative.
    """
    cheb_t = WeightSpec.chebyshev_t()

    err_even = 0.0
    for k in range(2, 201, 2):
        lhs = 2.0 * phase_average(cheb_t, RationalAngle(1, k))
        rhs = 1.0 - 2.0 * _LOG2 + entropy_correction(1.0 / k)
        err_even = max(err_even, abs(lhs - rhs))

    err_odd = 0.0
    err_sine = 0.0
    err_split = 0.0
    for k in range(3, 200, 2):
        average = phase_average(cheb_t, RationalAngle(1, k))
        rhs = 0.5 - _LOG2 + entropy_correction(0.5 / k) - 0.5 * entropy_correction(1.0 / k)
        err_odd = max(err_odd, abs(average - rhs))

        i = np.arange(1, k)
        sine_sum = float(_integrand_even(np.sin(i * math.pi / k)).sum()) / k
        sine_rhs = 0.5 * (1.0 - 2.0 * _LOG2 + entropy_correction(1.0 / k))
        err_sine = max(err_sine, abs(sine_sum - sine_rhs))

        half_cos_sum = float(_integrand_even(np.cos(i * math.pi / (2 * k))).sum()) / k
        split = 2.0 * half_cos_sum - sine_sum
        err_split = max(err_split, abs(average - split))

    xs = np.linspace(0.0, 1.0, 1002)[1:-1]
    margin = max(
        entropy_correction(0.5 * x) - 0.5 * entropy_correction(x) for x in xs
    )

    return [
        ("even_k_closed_form", err_even),
        ("odd_k_closed_form", err_odd),
        ("odd_sine_sum", err_sine),
        ("odd_split_sum", err_split),
        ("convexity_margin", margin),
    ]
