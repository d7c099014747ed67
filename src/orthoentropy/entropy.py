"""Christoffel-normalized discrete distributions and their entropies.

The distribution at a point x assigns cell j the mass lambda_n(x) *
p_{j-1}(x)^2, which sums to 1 by the definition of the Christoffel
function and does not depend on how the weight is normalized.  For both
Chebyshev weights the entropy at a zero of p_n has an exact closed form
in terms of the entropy-correction function and an integer gcd.

Every entropy row comes from one streamed reduction; direct summation of
a validated distribution stays as its independent oracle.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from .errors import NumericError
from .orthopoly import RecurrenceCoefficients, _forward, _require_kind, eval_orthonormal
from .specfun import entropy_correction

__all__ = [
    "DiscreteDistribution",
    "EntropyReport",
    "chebyshev_distribution_entropy",
    "christoffel_distribution",
    "christoffel_entropy_grid",
    "csv_line",
    "format_float",
    "kl_divergence",
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
    """Probability vector: nonnegative entries summing to 1 within 1e-12."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.array(self.probs, dtype=float)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("probs must be a nonempty 1-d array")
        if not np.all(np.isfinite(probs)) or np.any(probs < 0.0):
            raise ValueError("probabilities must be finite and nonnegative")
        if abs(float(probs.sum()) - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1 within 1e-12")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    def __len__(self) -> int:
        return self.probs.size

    @property
    def shannon(self) -> float:
        return shannon_entropy(self)

    @property
    def divergence(self) -> float:
        return kl_divergence(self)


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


def _grid_blocks(rec: RecurrenceCoefficients, x: np.ndarray, ns: Sequence[int]):
    """Yield (p_k(x)^2 for up to _BLOCK steps k < end, end), rows of one buffer."""
    block = np.empty((_BLOCK, x.size))
    ends = set(ns)
    filled = 0
    for k, (p, _) in enumerate(_forward(rec, x, ns[-1])):
        np.multiply(p, p, out=block[filled])
        filled += 1
        if filled == _BLOCK or k + 1 in ends:
            yield block[:filled], k + 1
            filled = 0


def _point_blocks(rec: RecurrenceCoefficients, x: np.ndarray, ns: Sequence[int]):
    """Yield (p_k(x)^2 for n_{i-1} <= k < n_i, n_i) at the single point x[0]."""
    vals = eval_orthonormal(rec, x[0], ns[-1])
    sq = (vals * vals)[:, None]
    start = 0
    for end in ns:
        yield sq[start:end], end
        start = end


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

    The number of points chooses the source of the blocks, with the same
    values p_k(x) bit for bit.  A grid runs one :func:`_forward` recurrence
    over all points, ``_BLOCK`` steps a block, in O(len(xs) * _BLOCK)
    memory.  One point takes the scalar :func:`eval_orthonormal` pass, the
    faster one there, a block per segment [n_{i-1}, n_i) of the schedule.
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
    blocks = _grid_blocks if x.size > 1 else _point_blocks
    with np.errstate(over="ignore", invalid="ignore"):
        for sq, end in blocks(rec, x, ns):
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


def kl_divergence(dist: DiscreteDistribution) -> float:
    """Divergence from the uniform distribution: log(n) - entropy >= 0."""
    return math.log(len(dist)) - shannon_entropy(dist)


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
    _require_kind(kind)
    _require_zero_index(n, j)
    if kind == "first":
        theta = (2 * j - 1) * math.pi / (2 * n)
    else:
        theta = j * math.pi / (n + 1)
    return chebyshev_distribution_entropy(kind, n, theta)


def format_float(value: float) -> str:
    """Fixed 17-significant-digit formatting; round-trips any double."""
    return f"{value:.17g}"


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return format_float(value)
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return str(value)


def csv_line(cells) -> str:
    """Comma-joined cells: float by format_float, None empty, str as is, int by str."""
    return ",".join(map(_csv_cell, cells))


@dataclass(frozen=True)
class EntropyReport:
    """One output row: (n, x, entropy, divergence, limit, gap to the limit).

    The field names are the CSV header and the JSON keys of the row.
    """

    n: int
    x: float
    shannon: float
    divergence: float
    d_infinity: float | None = None
    gap: float | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not -1e-12 <= self.shannon <= math.log(self.n) + 1e-12:
            raise ValueError("entropy outside [0, log n]")
        if self.divergence < -1e-12:
            raise ValueError("divergence must be nonnegative")
