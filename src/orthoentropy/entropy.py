"""Christoffel-normalized discrete distributions and their entropies.

The distribution at a point x assigns cell j the mass lambda_n(x) *
p_{j-1}(x)^2, which sums to 1 by the definition of the Christoffel
function and does not depend on how the weight is normalized.  For both
Chebyshev weights the entropy at a zero of p_n has an exact closed form
in terms of the entropy-correction function and an integer gcd.

Every entropy row comes from one streamed reduction over blocks of one
forward recurrence, at one point or over a grid; direct summation of a
validated distribution stays as its independent oracle.  This module
holds numerics only: how a row is printed is decided in ``cli``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import islice

import numpy as np
from scipy.special import xlogy

from .errors import NumericError
from .orthopoly import (RecurrenceCoefficients, _forward, _require_kind, _zero_angle,
                        eval_orthonormal)
from .specfun import entropy_correction

__all__ = [
    "DiscreteDistribution",
    "chebyshev_distribution_entropy",
    "christoffel_distribution",
    "christoffel_entropy_grid",
    "shannon_entropy",
    "zero_entropy_direct",
    "zero_entropy_first_kind",
    "zero_entropy_second_kind",
]

_LOG2 = math.log(2.0)
# log 2 = _LN2_HI + _LN2_LO; the last 20 bits of _LN2_HI are zero, so
# j * _LN2_HI is exact for every binary exponent j of a double
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
# rows of p_k(x)^2 that the grid path reduces at a time
_BLOCK = 64


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probability vector: nonnegative entries summing to 1 within 1e-12.

    The shape is checked with ValueError; the entries are computed values,
    checked with NumericError.
    """

    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.array(self.probs, dtype=float)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("probs must be a nonempty 1-d array")
        if not np.all(np.isfinite(probs)) or np.any(probs < 0.0):
            raise NumericError("probabilities must be finite and nonnegative")
        if abs(float(probs.sum()) - 1.0) > 1e-12:
            raise NumericError("probabilities must sum to 1 within 1e-12")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)


def _overflow(x: float, n: int) -> NumericError:
    return NumericError(f"p_k(x)^2 overflows at x = {x!r} for some k < {n}")


def christoffel_distribution(
    rec: RecurrenceCoefficients, x: float, n: int
) -> DiscreteDistribution:
    """Distribution with cells proportional to p_0(x)^2, ..., p_{n-1}(x)^2.

    The direct route, kept as the oracle of :func:`christoffel_entropy_grid`.
    """
    if not -1.0 < x < 1.0:
        raise ValueError(f"x must lie in (-1, 1), got {x}")
    vals = eval_orthonormal(rec, x, n)
    with np.errstate(over="ignore"):
        sq = vals * vals
        total = sq.sum()
    if not np.isfinite(total):
        raise _overflow(x, n)
    return DiscreteDistribution(sq / total)


def _neumaier_add(total: np.ndarray, comp: np.ndarray, term: np.ndarray) -> None:
    """total + comp += term in place, with Neumaier's compensation."""
    s = total + term
    comp += np.where(np.abs(total) >= np.abs(term), (total - s) + term, (term - s) + total)
    total[...] = s


def _blocks(rec: RecurrenceCoefficients, x: np.ndarray, ns: Sequence[int]):
    """Yield (p_k(x)^2 for steps k < end, end), L rows by x.size columns.

    Over a grid a block is at most ``_BLOCK`` steps; at one point it is a
    whole segment [n_{i-1}, n_i) of the schedule.  No block crosses an n_i.
    """
    grid = x.size > 1
    values = _forward(rec, x if grid else float(x[0]), ns[-1])
    dtype, most = ((float, x.size), _BLOCK) if grid else (float, ns[-1])
    start = 0
    for end in ns:
        while start < end:
            length = min(most, end - start)
            vals = np.fromiter(islice(values, length), dtype, length)
            start += length
            yield (vals * vals).reshape(length, x.size), start


def christoffel_entropy_grid(
    rec: RecurrenceCoefficients, xs: Sequence[float], ns: Sequence[int]
) -> np.ndarray:
    """Entropies at every point of ``xs`` (columns) for every n in ``ns`` (rows).

    The one reduction behind ``entropy`` and ``scan`` streams
    K = sum p_k^2 and S = sum p_k^2 log(p_k^2 / 2^e) over blocks of
    squares, each reduced together (``xlogy``, so 0 log 0 = 0) and added to
    K and S with Neumaier's compensated summation.  The entropy
    log(K / 2^e) - S/K is read off at each n, with K / 2^e = m 2^j and
    log 2 split in two, so that only log(m) and S/K are rounded before the
    last addition.

    The exact scale 2^e follows the running mean of p_k^2: after a block
    whose mean has a binary exponent more than 2 away from e, e moves
    there and S -= K (e_new - e) log 2.  Without it log K and S/K would
    cancel where p^2 is large, near an endpoint of a heavy weight.

    The blocks come from one :func:`_forward` pass, with the values
    p_k(x) of :func:`eval_orthonormal` bit for bit.  A grid runs it over
    all points, ``_BLOCK`` steps a block, in O(len(xs) * _BLOCK) memory.
    One point runs it on a Python float, the faster pass there, a block
    per segment [n_{i-1}, n_i) of the schedule, in O(largest segment).
    Raises NumericError when K or S is not finite, or K is not positive, at
    some point and n: some p_k(x)^2 (or p_k(x)^2 log p_k(x)^2) overflowed,
    since K >= p_0^2 = 1 / b[0] > 0 otherwise.
    """
    x = np.array(xs, dtype=float)
    if x.ndim != 1 or x.size == 0 or not np.all((-1.0 < x) & (x < 1.0)):
        raise ValueError(f"points must be a nonempty list in (-1, 1), got {xs}")
    if not ns or min(ns) < 1 or list(ns) != sorted(set(ns)):
        raise ValueError(f"sizes must be strictly increasing positive integers, got {ns}")
    if ns[-1] > rec.n_max:
        raise ValueError(f"sizes must not exceed {rec.n_max}, got {ns[-1]}")
    out = np.empty((len(ns), x.size))
    k_sum, k_comp, s_sum, s_comp = (np.zeros_like(x) for _ in range(4))
    # C ints, as np.frexp gives: np.ldexp is 15 times slower on int64
    exponent = np.zeros(x.size, dtype=np.intc)
    row = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for sq, end in _blocks(rec, x, ns):
            block_sum = sq.sum(axis=0)
            kernel = k_sum + k_comp
            mean_exponent = np.frexp((kernel + block_sum) / end)[1]
            new_exponent = np.where(np.abs(mean_exponent - exponent) > 2, mean_exponent, exponent)
            shift = kernel * ((new_exponent - exponent) * _LOG2)
            exponent = new_exponent
            _neumaier_add(k_sum, k_comp, block_sum)
            terms = xlogy(sq, np.ldexp(sq, -exponent)).sum(axis=0)
            _neumaier_add(s_sum, s_comp, terms - shift)
            if end == ns[row]:
                kernel = k_sum + k_comp
                s = s_sum + s_comp
                bad = ~(np.isfinite(kernel) & np.isfinite(s) & (kernel > 0.0))
                if bad.any():
                    raise _overflow(float(x[np.argmax(bad)]), end)
                mantissa, j = np.frexp(np.ldexp(kernel, -exponent))
                out[row] = j * _LN2_HI + ((j * _LN2_LO + np.log(mantissa)) - s / kernel)
                row += 1
    return out


def shannon_entropy(dist: DiscreteDistribution) -> float:
    """-sum nu_i log(nu_i), with 0 * log(0) = 0; lies in [0, log n]."""
    p = dist.probs
    return float(-xlogy(p, p).sum())


def _require_zero_index(n: int, j: int) -> None:
    if n < 1:
        raise IndexError(f"n must be >= 1, got {n}")
    if not 1 <= j <= n:
        raise IndexError(f"zero index j={j} outside 1..{n}")


def zero_entropy_first_kind(n: int, j: int) -> float:
    """Exact entropy at the j-th zero for the first-kind Chebyshev weight.

    log(n) + log(2) - 1 + log(2)/n - correction(d / (2n)) with
    d = gcd(2j - 1, n), the terms added with one rounding (``math.fsum``).
    """
    _require_zero_index(n, j)
    d = math.gcd(2 * j - 1, n)
    return math.fsum((math.log(n), _LOG2, -1.0, _LOG2 / n, -entropy_correction(d / (2.0 * n))))


def zero_entropy_second_kind(n: int, j: int) -> float:
    """Exact entropy at the j-th zero for the second-kind Chebyshev weight.

    log(n+1) + log(2) - 1 - correction(d / (n+1)) with d = gcd(j, n+1),
    the terms added with one rounding (``math.fsum``).
    """
    _require_zero_index(n, j)
    d = math.gcd(j, n + 1)
    return math.fsum((math.log(n + 1), _LOG2, -1.0, -entropy_correction(d / (n + 1.0))))


def chebyshev_distribution_entropy(kind: str, n: int, theta: float) -> float:
    """Entropy of the size-n distribution at x = cos(theta), Chebyshev weight.

    Uses the explicit trigonometric polynomial values rather than the
    recurrence, which keeps closed-form verification free of recurrence
    round-off.  Relative cell weights suffice since the entropy of the
    normalized vector only needs the total.
    """
    _require_kind(kind)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 < theta < math.pi:
        raise ValueError(f"theta must lie in (0, pi), got {theta}")
    m = np.arange(n)
    if kind == "first":
        rel = np.cos(m * theta) ** 2
        rel[0] = 0.5
    else:
        rel = np.sin((m + 1) * theta) ** 2
    total = float(rel.sum())
    return math.log(total) - float(xlogy(rel, rel).sum()) / total


def zero_entropy_direct(kind: str, n: int, j: int) -> float:
    """Entropy at the j-th zero by direct summation (oracle for the closed forms)."""
    return chebyshev_distribution_entropy(kind, n, _zero_angle(kind, n, j))
