"""Large-n limits of the distribution entropy and their verification tools.

The limiting divergence at x = cos(theta) depends on whether theta/pi is
rational: it is 1 - log(2) off the rational grid and log(2) plus twice a
k-point phase average on it.  This module provides the phase function with
its exact Chebyshev treatment of the principal-value integral, a brute
force excision oracle for that integral, the phase averages (exact and
empirical), the periodic-averaging identity behind the rational case, the
closed-form limit for the first-kind Chebyshev weight, the bulk cosine
approximation of the polynomials, kernel-limit diagnostics, the zero
subsequence families, and an identity suite tying the averages to the
entropy-correction function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, Union

import numpy as np
from scipy.integrate import quad
from scipy.special import xlogy

from .entropy import (
    chebyshev_distribution_entropy,
    zero_entropy_first_kind,
    zero_entropy_second_kind,
)
from .errors import ConvergenceError
from .orthopoly import (
    RecurrenceCoefficients,
    WeightSpec,
    _require_kind,
    eval_orthonormal,
    weight_recurrence,
)
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
    "periodic_average",
    "phase_average",
    "phase_average_empirical",
    "phase_shift",
    "pv_log_h_oracle",
    "rationalize",
    "zero_entropy_gaps",
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
    """Angle theta = pi * s / k with 0 < s < k, reduced at construction."""

    s: int
    k: int

    def __post_init__(self) -> None:
        s, k = int(self.s), int(self.k)
        if not 0 < s < k:
            raise ValueError(f"need 0 < s < k, got s={s}, k={k}")
        g = math.gcd(s, k)
        object.__setattr__(self, "s", s // g)
        object.__setattr__(self, "k", k // g)

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


def rationalize(theta: float, max_denominator: int = 1000) -> RationalAngle | None:
    """Advisory continued-fraction guess for theta/pi as a reduced fraction.

    Exploration aid only: a float can never certify that theta/pi is
    rational, so callers must decide for themselves whether to trust the
    returned angle.  Returns None when no convincing fraction exists.
    """
    frac = Fraction(theta / math.pi).limit_denominator(max_denominator)
    if not 0 < frac < 1:
        return None
    if abs(float(frac) * math.pi - theta) > 1e-9:
        return None
    return RationalAngle(frac.numerator, frac.denominator)


def phase_shift(weight: WeightSpec, theta: float) -> float:
    """Phase of the bulk cosine approximation at x = cos(theta).

    Equals ((alpha+beta)*theta - alpha*pi)/2 plus half the sine series
    sum_m c_m sin(m*theta).  The sine series is the exact finite Hilbert
    transform of log h expanded in the Chebyshev basis, so the
    principal-value integral never needs numerical excision here; the
    constant coefficient c_0 contributes nothing.
    """
    if not 0.0 < theta < math.pi:
        raise ValueError(f"theta must lie in (0, pi), got {theta}")
    base = 0.5 * ((weight.alpha + weight.beta) * theta - weight.alpha * math.pi)
    series = 0.0
    for m, c in enumerate(weight.logh_cheb):
        if c != 0.0:
            series += c * math.sin(m * theta)
    return base + 0.5 * series


_DEFAULT_EPSILONS = tuple(0.2 * 0.5 ** i for i in range(8))


def pv_log_h_oracle(
    weight: WeightSpec,
    x: float,
    epsilons: Sequence[float] | None = None,
    check_tol: float = 1e-7,
) -> float:
    """Principal value of the integral of log h(t) / (sqrt(1-t^2) (t-x)).

    Brute-force evaluation: excise (x - eps, x + eps) symmetrically for a
    geometric schedule of radii, integrate each piece adaptively after the
    substitution t = cos(tau), then Richardson-extrapolate in the odd
    powers of eps.  Test oracle for :func:`phase_shift`; slow by design.
    """
    if not -1.0 < x < 1.0:
        raise ValueError(f"x must lie in (-1, 1), got {x}")
    eps = tuple(float(e) for e in (_DEFAULT_EPSILONS if epsilons is None else epsilons))
    if len(eps) < 3:
        raise ValueError("need at least 3 excision radii")
    if any(e <= 0.0 for e in eps):
        raise ValueError("excision radii must be positive")
    ratios = [eps[i] / eps[i + 1] for i in range(len(eps) - 1)]
    ratio = ratios[0]
    if ratio <= 1.0 or any(abs(r - ratio) > 1e-9 * ratio for r in ratios):
        raise ValueError("excision radii must decrease geometrically")
    if x + eps[0] >= 1.0 or x - eps[0] <= -1.0:
        raise ValueError("largest excision radius reaches the endpoints; shrink it")

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
    diag = [excised(e) for e in eps]
    for m in range(1, len(eps)):
        factor = ratio ** (2 * m - 1) - 1.0
        for i in range(len(eps) - 1, m - 1, -1):
            diag[i] = diag[i] + (diag[i] - diag[i - 1]) / factor
    if abs(diag[-1] - diag[-2]) > check_tol:
        raise ConvergenceError(
            "excision extrapolation did not stabilize: last two estimates "
            f"differ by {abs(diag[-1] - diag[-2]):.3e}"
        )
    return diag[-1]


def phase_average(weight: WeightSpec, angle: RationalAngle) -> float:
    """k-point average of the entropy integrand along the phase progression.

    Always nonpositive, since the integrand is nonpositive on [-1, 1].
    """
    return phase_average_empirical(weight, angle.theta, angle.k)


def phase_average_empirical(weight: WeightSpec, theta: float, n: int) -> float:
    """Empirical n-term average of the entropy integrand at angle theta."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    phi = phase_shift(weight, theta)
    i = np.arange(n)
    y = np.cos((i + 0.5) * theta + phi - _QUARTER_PI)
    return float(_integrand_even(y).sum()) / n


def periodic_average(g: Callable[[int], float], k: int, n: int) -> tuple[float, float]:
    """Average (1/n) sum_{i<n} g(i) of a k-periodic g, with its deviation
    from the period mean.

    Writing n - 1 = p*k + q, the deviation equals the exact folding
    correction (1/n) * (sum_{i<=q} g(i) - (q+1)/k * sum_{i<k} g(i)), which
    is what gets returned; for bounded g it vanishes like 1/n.
    """
    if k < 1:
        raise ValueError("period k must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    period = [float(g(i)) for i in range(k)]
    period_sum = math.fsum(period)
    q = (n - 1) % k
    head = math.fsum(period[: q + 1])
    remainder = (head - (q + 1) * period_sum / k) / n
    return period_sum / k + remainder, remainder


def limit_divergence(weight: WeightSpec, angle: Angle) -> float:
    """Limiting Kullback-Leibler divergence at x = cos(theta).

    1 - log(2) for an irrational angle; log(2) + 2 * phase_average for a
    rational one.
    """
    if isinstance(angle, RationalAngle):
        return _LOG2 + 2.0 * phase_average(weight, angle)
    if isinstance(angle, IrrationalAngle):
        return 1.0 - _LOG2
    raise TypeError(f"expected RationalAngle or IrrationalAngle, got {type(angle)!r}")


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
    weight: WeightSpec,
    x: float,
    n: int,
    rec: RecurrenceCoefficients | None = None,
) -> tuple[float, float]:
    """Kernel-limit diagnostics at x: the pair
    (n * lambda_n(x) / (pi w(x) sqrt(1-x^2)), lambda_n(x) * p_n(x)^2).

    The first component tends to 1 and the second to 0 as n grows.  Pass a
    prebuilt recurrence with n_max >= n + 1 to amortize construction.
    """
    if not -1.0 < x < 1.0:
        raise ValueError(f"x must lie in (-1, 1), got {x}")
    if rec is None:
        rec = weight_recurrence(weight, n + 1)
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


def _primes(count: int) -> list[int]:
    """First ``count`` primes by a growing sieve."""
    bound = max(64, int(count * (math.log(max(count, 2)) + 2)))
    while True:
        sieve = np.ones(bound + 1, dtype=bool)
        sieve[:2] = False
        for p in range(2, int(bound ** 0.5) + 1):
            if sieve[p]:
                sieve[p * p :: p] = False
        found = np.flatnonzero(sieve)
        if len(found) >= count:
            return [int(p) for p in found[:count]]
        bound *= 2


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
        items: list[SubsequenceItem] = []
        budget = count + 8
        while True:
            for p in _primes(budget):
                n = p if family == 1 else p - 1
                j = math.floor(ratio * n)
                if j >= 1:
                    items.append(SubsequenceItem(n, j))
                if len(items) == count:
                    return items
            items.clear()
            budget *= 2
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


def zero_entropy_gaps(
    kind: str, angle: Angle, items: Sequence[SubsequenceItem]
) -> list[float]:
    """Closed-form zero entropy minus the entropy at x = cos(theta), per item.

    The entropy at x uses the explicit Chebyshev trigonometric forms, so
    the gaps isolate the closed forms from recurrence round-off.  Along the
    compatible families the gaps vanish; for the first kind with odd
    denominator k they stay below the strictly negative bound
    2*correction(1/(2k)) - correction(1/k).
    """
    _require_kind(kind)
    closed = zero_entropy_first_kind if kind == "first" else zero_entropy_second_kind
    theta = angle.theta
    gaps = []
    entropy_at_x: dict[int, float] = {}
    for item in items:
        if item.n not in entropy_at_x:
            entropy_at_x[item.n] = chebyshev_distribution_entropy(kind, item.n, theta)
        gaps.append(closed(item.n, item.j) - entropy_at_x[item.n])
    return gaps


def identity_suite(
    even_k_max: int = 200, odd_k_max: int = 199, grid_points: int = 1000
) -> list[tuple[str, float]]:
    """Evaluate both sides of the averaged-entropy identities independently.

    Returns (name, discrepancy) pairs where each discrepancy is a maximum
    over the scanned range.  All entries except the last are absolute
    errors of exact identities; "convexity_margin" is the signed maximum
    of correction(x/2) - correction(x)/2 over a grid in (0, 1) and must be
    negative.
    """
    cheb_t = WeightSpec.chebyshev_t()

    err_even = 0.0
    for k in range(2, even_k_max + 1, 2):
        lhs = 2.0 * phase_average(cheb_t, RationalAngle(1, k))
        rhs = 1.0 - 2.0 * _LOG2 + entropy_correction(1.0 / k)
        err_even = max(err_even, abs(lhs - rhs))

    err_odd = 0.0
    err_sine = 0.0
    err_split = 0.0
    for k in range(3, odd_k_max + 1, 2):
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

    xs = np.linspace(0.0, 1.0, grid_points + 2)[1:-1]
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
