"""Scalar special-function substrate: the entropy-correction function.

The correction -x (psi(1-x) + 2 gamma + psi(1+x)) = 2 sum_{k>=1} zeta(2k+1)
x^(2k+1) behind the closed-form zero entropies and the rational-angle
limits.  It is summed as one pole-subtracted series on all of (0, 1); the
digamma form, on scipy's ``psi``, stays as its independent oracle.  Pure,
deterministic and safe to call from any thread; the zeta table is built
once at import time and never mutated.
"""

from __future__ import annotations

import sys
from itertools import count, takewhile

import numpy as np
from scipy.special import psi, zetac

__all__ = ["entropy_correction"]

# zeta(2k+1) - 1 for k = 1, 2, ..., up to the last coefficient of at least
# half an ulp of 1.0; they fall like 2^-(2k+1), so the table has 26 entries.
_ZETAC_ODD = tuple(takewhile(lambda c: c >= 0.5 * sys.float_info.epsilon,
                             (float(zetac(2 * k + 1)) for k in count(1))))


def entropy_correction(x: float) -> float:
    """Correction term of the closed-form zero entropies, for 0 < x < 1.

    Equals -x * (psi(1-x) + 2*gamma + psi(1+x)) = 2 sum_{k>=1} zeta(2k+1)
    x^(2k+1), positive on (0, 1).  The pole at x = 1 is subtracted (the
    zeta - 1 series of Abramowitz & Stegun 6.3):
    2 x^3 (1/((1-x)(1+x)) + sum_{k>=1} (zeta(2k+1) - 1) x^(2k-2)).  Every
    term is positive, so nothing cancels at any x, and the remainder is
    summed by Horner from the zeta table.  The limit at x = 0 is 0 and is
    left to the caller.
    """
    x = float(x)
    if not 0.0 < x < 1.0:
        raise ValueError(f"entropy_correction requires 0 < x < 1, got {x}")
    y = x * x
    tail = 0.0
    for c in reversed(_ZETAC_ODD):
        tail = tail * y + c
    return 2.0 * x ** 3 * (1.0 / ((1.0 - x) * (1.0 + x)) + tail)


def _entropy_correction_digamma(x: float) -> float:
    """The digamma form at every x in (0, 1), the oracle of the dual-route check.

    It cancels towards x = 0: relatively 1.4e-14 off at x = 1/20, 8e-11 at 1e-3.
    """
    x = float(x)
    return float(-x * (psi(1.0 - x) + 2.0 * np.euler_gamma + psi(1.0 + x)))
