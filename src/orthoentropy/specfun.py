"""Scalar special-function substrate.

Digamma, the Euler-Mascheroni constant, Riemann zeta at odd integers, the
entropy-correction function (closed form and power series), and the
entropy integrand x^2 log(x^2).  Everything here is pure, deterministic,
and safe to call from any thread; the odd-zeta cache is built once at
import time and never mutated.
"""

from __future__ import annotations

import math
import operator
import sys
from fractions import Fraction

from scipy.special import zeta

from .errors import ToleranceError

__all__ = [
    "EULER_GAMMA",
    "digamma",
    "entropy_correction",
    "entropy_correction_series",
    "entropy_integrand",
    "zeta_odd",
]

#: Euler-Mascheroni constant to 20 significant digits.
EULER_GAMMA = 0.57721566490153286061

_DIGAMMA_SHIFT = 10.0

# Coefficients of x^(-2n), n = 1..7, in the asymptotic tail of digamma:
# -B_{2n} / (2n), with B the Bernoulli numbers.
_DIGAMMA_TAIL = (
    -1.0 / 12.0,
    1.0 / 120.0,
    -1.0 / 252.0,
    1.0 / 240.0,
    -1.0 / 132.0,
    691.0 / 32760.0,
    -1.0 / 12.0,
)


def digamma(x: float) -> float:
    """Digamma psi(x) = Gamma'(x)/Gamma(x) for x > 0.

    Argument raising to x >= 10 followed by the Bernoulli asymptotic
    expansion; absolute error stays below 1e-13 across [1e-3, 1e6].
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"digamma requires a finite x > 0, got {x}")
    raised = []
    if x < 0.01:
        # The result is dominated by -1/x here; carry its exact low part so
        # the final rounding stays within half an ulp.
        q = 1.0 / x
        low = float(Fraction(1) / Fraction(x) - Fraction(q))
        raised += [-q, -low]
        x += 1.0
    while x < _DIGAMMA_SHIFT:
        raised.append(-1.0 / x)
        x += 1.0
    r = 1.0 / (x * x)
    tail = 0.0
    for c in reversed(_DIGAMMA_TAIL):
        tail = (tail + c) * r
    return math.fsum(raised + [math.log(x), -0.5 / x, tail])


_ODD_ZETA_CACHE_MAX = 129
_ODD_ZETA = tuple(float(zeta(m)) for m in range(3, _ODD_ZETA_CACHE_MAX + 1, 2))


def zeta_odd(m: int) -> float:
    """Riemann zeta at an odd integer m >= 3, correctly rounded.

    Values up to m = 129 come from scipy's ``zeta``, cached in an
    immutable tuple at import.
    """
    m = operator.index(m)
    if m % 2 == 0 or m < 3:
        raise ValueError(f"zeta_odd requires an odd integer >= 3, got {m}")
    if m <= _ODD_ZETA_CACHE_MAX:
        return _ODD_ZETA[(m - 3) // 2]
    # zeta(m) - 1 < 2^(1-m) lies far below half an ulp of 1.0
    return 1.0


# The odd-zeta series gives up after this many terms; it needs 1633 at
# x = 0.99 and 15253 at x = 0.999.
_SERIES_MAX_TERMS = 20_000
_HALF_ULP = 0.5 * sys.float_info.epsilon


# the digamma form is 1.1e-14 relative off at x = 1/8 and 7.7e-5 at 1e-6
_SERIES_CROSSOVER = 0.25


def entropy_correction(x: float) -> float:
    """Correction term of the closed-form zero entropies, for 0 < x < 1.

    Equals -x * (psi(1-x) + 2*gamma + psi(1+x)).  Positive on (0, 1), with
    the everywhere-positive power series 2 * sum_{k>=1} zeta(2k+1) x^(2k+1);
    the limit at x = 0 is 0 and is left to the caller.  Below x = 1/4, where
    the digamma form cancels, the value comes from the series.
    """
    x = float(x)
    if not 0.0 < x < 1.0:
        raise ValueError(f"entropy_correction requires 0 < x < 1, got {x}")
    if x < _SERIES_CROSSOVER:
        return entropy_correction_series(x)
    return _entropy_correction_digamma(x)


def _entropy_correction_digamma(x: float) -> float:
    """The digamma form at every x in (0, 1), kept whole for the dual-route check."""
    x = float(x)
    return -x * (digamma(1.0 - x) + 2.0 * EULER_GAMMA + digamma(1.0 + x))


def entropy_correction_series(x: float) -> float:
    """Series route for :func:`entropy_correction`, valid on 0 <= x < 1.

    Terms 2*zeta(2k+1)*x^(2k+1) are accumulated until the next one is at
    most half an ulp of the partial sum; a term that underflows to 0 ends
    the sum.  The discarded tail is then below 1/(1-x^2) half-ulps, so the
    result is relatively accurate down to the smallest x.  Raises
    ToleranceError when that takes more than 20000 terms, which happens
    only close to x = 1.
    """
    x = float(x)
    if not 0.0 <= x < 1.0:
        raise ValueError(f"entropy_correction_series requires 0 <= x < 1, got {x}")
    terms = []
    total = 0.0
    for k in range(1, _SERIES_MAX_TERMS + 1):
        # direct powers, not a running product: repeated multiplication
        # compounds rounding over the thousands of terms needed near x = 1
        term = 2.0 * zeta_odd(2 * k + 1) * x ** (2 * k + 1)
        if term <= _HALF_ULP * total:
            return math.fsum(terms)
        terms.append(term)
        total += term
    raise ToleranceError(
        f"odd-zeta series did not fall below half an ulp within "
        f"{_SERIES_MAX_TERMS} terms at x={x}"
    )


def entropy_integrand(x: float) -> float:
    """x^2 * log(x^2), with the limit value 0 at x = 0.

    Even in x by construction; on [-1, 1] the range is [-1/e, 0] with the
    value 0 attained exactly at |x| in {0, 1}.
    """
    sq = x * x
    if sq == 0.0:
        return 0.0
    return sq * math.log(sq)
