"""Generalized Jacobi weights and their orthonormal polynomials.

Weight specifications, monic three-term recurrences (closed form for pure
Jacobi, Stieltjes procedure for an analytic factor h), orthonormal
evaluation by one forward recurrence at a point or over an array of
points, Gauss-Jacobi quadrature (Jacobi-matrix eigenvalues, one Newton
step, Christoffel-number weights, from passes over values only), and the
exact Chebyshev zeros.  Over the nodes of a rule the recurrence carries
a power-of-two exponent per point, so every node and its weight, as a
mantissa times 2^e, survive a heavy exponent; the Stieltjes procedure
uses every node.  A recurrence or rule whose computed values fail
their checks raises NumericError.  Recurrences and rules are immutable
once built and all evaluations are pure, so everything is freely
shareable across threads.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import islice

import numpy as np
from scipy.fft import dct
from scipy.linalg import eigvalsh_tridiagonal

from .errors import NumericError

__all__ = [
    "CHEBYSHEV_KINDS",
    "QuadratureRule",
    "RecurrenceCoefficients",
    "WeightSpec",
    "chebyshev_zero",
    "eval_orthonormal",
    "gauss_jacobi",
    "jacobi_recurrence",
    "stieltjes_recurrence",
    "weight_recurrence",
]

CHEBYSHEV_KINDS = ("first", "second")

# h's Chebyshev coefficients count down to this multiple of the largest
# one, widened by max|log h| for the rounding of exp; h is sampled at 64,
# 128, ... Chebyshev points, fewer than _H_SAMPLES_MAX.
_H_CHOP = 16.0 * np.finfo(float).eps
_H_SAMPLES_MAX = 2 ** 14
# steps between the exact rescales of a scaled forward pass or Stieltjes build
_RESCALE = 32


def _require_kind(kind: str) -> str:
    if kind not in CHEBYSHEV_KINDS:
        raise ValueError(f"kind must be one of {CHEBYSHEV_KINDS}, got {kind!r}")
    return kind


def _scalar_or_array(out: np.ndarray):
    return out if out.ndim else out.item()


def _is_number(value) -> bool:
    """True for a JSON number: an int or a float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class WeightSpec:
    """Weight (1-x)^alpha * (1+x)^beta * h(x) on [-1, 1].

    ``logh_cheb`` holds coefficients (c_0, ..., c_M) of log h in the
    Chebyshev basis, log h(cos t) = sum_m c_m cos(m t).  Any finite list of
    finite coefficients makes h analytic and strictly positive on the
    interval, so positivity never needs a runtime check.

    The Christoffel distribution does not change when the weight is
    multiplied by a constant, so h is defined up to a constant factor:
    ``log_h``, ``h`` and ``w`` omit c_0, which is kept in ``logh_cheb``
    only so that the record round-trips.
    """

    alpha: float
    beta: float
    logh_cheb: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError("weight exponents must be finite")
        if not (self.alpha > -1.0 and self.beta > -1.0):
            raise ValueError(
                f"weight exponents must exceed -1, got alpha={self.alpha}, beta={self.beta}"
            )
        coeffs = tuple(float(c) for c in self.logh_cheb)
        if not all(math.isfinite(c) for c in coeffs):
            raise ValueError("logh_cheb coefficients must be finite")
        object.__setattr__(self, "logh_cheb", coeffs)

    @classmethod
    def chebyshev_t(cls) -> "WeightSpec":
        return cls(-0.5, -0.5)

    @classmethod
    def chebyshev_u(cls) -> "WeightSpec":
        return cls(0.5, 0.5)

    @classmethod
    def legendre(cls) -> "WeightSpec":
        return cls(0.0, 0.0)

    @classmethod
    def from_dict(cls, data) -> "WeightSpec":
        """Build from the JSON record {"alpha": .., "beta": .., "logh_cheb": [..]}.

        alpha and beta must be numbers and logh_cheb, which may be left
        out, a list of numbers; any other key or type raises ValueError.
        """
        if not (isinstance(data, dict)
                and {"alpha", "beta"} <= data.keys() <= {"alpha", "beta", "logh_cheb"}):
            raise ValueError("invalid weight record: the keys must be alpha, beta "
                             "and optionally logh_cheb")
        logh = data.get("logh_cheb", [])
        if not (_is_number(data["alpha"]) and _is_number(data["beta"])
                and isinstance(logh, list) and all(map(_is_number, logh))):
            raise ValueError("invalid weight record: alpha and beta must be numbers "
                             "and logh_cheb a list of numbers")
        try:
            return cls(float(data["alpha"]), float(data["beta"]), tuple(map(float, logh)))
        except OverflowError as exc:  # an integer too large for a float
            raise ValueError(f"invalid weight record: {exc}") from exc

    def to_dict(self) -> dict:
        return {"alpha": self.alpha, "beta": self.beta, "logh_cheb": list(self.logh_cheb)}

    @property
    def trivial_h(self) -> bool:
        """True when h is constant: every c_m with m >= 1 is 0."""
        return all(c == 0.0 for c in self.logh_cheb[1:])

    def log_h(self, x):
        """sum_{m >= 1} c_m T_m(x): log h without c_0, of zero Chebyshev mean."""
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        if not self.trivial_h:
            tau = np.arccos(np.clip(x, -1.0, 1.0))
            for m, c in enumerate(self.logh_cheb[1:], start=1):
                if c != 0.0:
                    out = out + c * np.cos(m * tau)
        return _scalar_or_array(out)

    def h(self, x):
        """exp(log_h(x)): h scaled so that c_0 = 0."""
        return _scalar_or_array(np.exp(np.asarray(self.log_h(x))))

    def h_degree(self) -> int:
        """Degree at which the Chebyshev series of h falls to rounding level.

        Read off a DCT of h at m Chebyshev points, with m doubled from 64
        until the degree is below m/2.  Raises NumericError when h is not
        finite at a sample point or the degree reaches 2^12.
        """
        m = 64
        while m < _H_SAMPLES_MAX:
            with np.errstate(over="ignore"):
                log_h = np.asarray(self.log_h(np.cos((np.arange(m) + 0.5) * math.pi / m)))
                h = np.exp(log_h)
            if not np.all(np.isfinite(h)):
                raise NumericError(
                    f"h = exp(log h) overflows: log h reaches {log_h.max():.6g}"
                )
            coeffs = np.abs(dct(h / h.max(), type=2))
            cut = _H_CHOP * max(1.0, float(np.abs(log_h).max())) * coeffs.max()
            degree = int(np.flatnonzero(coeffs > cut)[-1])
            if 2 * degree < m:
                return degree
            m *= 2
        raise NumericError(f"h needs a Chebyshev degree of {_H_SAMPLES_MAX // 4} or more")

    def w(self, x):
        """Weight density at points of (-1, 1), with h scaled so that c_0 = 0."""
        x = np.asarray(x, dtype=float)
        out = (1.0 - x) ** self.alpha * (1.0 + x) ** self.beta * np.asarray(self.h(x))
        return _scalar_or_array(out)


@dataclass(frozen=True)
class RecurrenceCoefficients:
    """Monic recurrence data: pi_{k+1} = (x - a[k]) pi_k - b[k] pi_{k-1}.

    ``a`` and ``b`` share one length, ``n_max``, the number of values they
    define.  ``b[0]`` stores the total mass of the weight with c_0 = 0 (see
    :class:`WeightSpec`) and every b is positive.  Orthonormal values are
    generated on the fly, which keeps leading coefficients out of the
    arithmetic and avoids overflow at large degree.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.a, dtype=float)
        b = np.array(self.b, dtype=float)
        if a.ndim != 1 or a.shape != b.shape or a.size == 0:
            raise ValueError("coefficient arrays must be nonempty 1-d arrays of one length")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise NumericError("recurrence coefficients must be finite")
        if not np.all(b > 0.0):
            raise NumericError("all b coefficients must be positive")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n_max(self) -> int:
        return self.a.size


def jacobi_recurrence(alpha: float, beta: float, n_max: int) -> RecurrenceCoefficients:
    """Closed-form monic recurrence for the weight (1-x)^alpha * (1+x)^beta."""
    if not (alpha > -1.0 and beta > -1.0):
        raise ValueError(f"jacobi exponents must exceed -1, got ({alpha}, {beta})")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    ab = alpha + beta
    a = np.zeros(n_max)
    b = np.zeros(n_max)
    a[0] = (beta - alpha) / (ab + 2.0)
    try:
        b[0] = math.exp(
            (ab + 1.0) * math.log(2.0)
            + math.lgamma(alpha + 1.0)
            + math.lgamma(beta + 1.0)
            - math.lgamma(ab + 2.0)
        )
    except OverflowError:
        raise NumericError(f"the mass 2^(alpha+beta+1) B(alpha+1, beta+1) of the Jacobi "
                           f"weight overflows at alpha = {alpha}, beta = {beta}") from None
    # alpha + beta past about 1e154 overflows to inf or nan here, which
    # RecurrenceCoefficients reports as a NumericError
    with np.errstate(over="ignore", invalid="ignore"):
        if n_max > 1:
            k = np.arange(1, n_max, dtype=float)
            a[1:] = (beta * beta - alpha * alpha) / ((2.0 * k + ab) * (2.0 * k + ab + 2.0))
            # k = 1 in cancelled form: the generic expression is 0/0 when ab = -1.
            b[1] = 4.0 * (alpha + 1.0) * (beta + 1.0) / ((ab + 2.0) * (ab + 2.0) * (ab + 3.0))
        if n_max > 2:
            k = np.arange(2, n_max, dtype=float)
            s = 2.0 * k + ab
            b[2:] = 4.0 * k * (k + alpha) * (k + beta) * (k + ab) / (s * s * (s * s - 1.0))
    return RecurrenceCoefficients(a, b)


def stieltjes_recurrence(
    weight: WeightSpec, n_max: int, rule_size: int | None = None
) -> RecurrenceCoefficients:
    """Monic recurrence for the full weight via the Stieltjes procedure.

    Inner products use a Gauss rule for the bare Jacobi part with h folded
    into the integrand, so the endpoint singularities never meet the rule.
    The default rule has n_max + 2 d_h + 16 nodes, with d_h from
    :meth:`WeightSpec.h_degree`; ``rule_size`` overrides it.  Every node
    of the rule takes part, also where its weight lies below the smallest
    double: each weight is a mantissa times 2^e, and the vectors q_k(t_j)
    are a mantissa times 2^F_j, rescaled by an exact power of two every
    ``_RESCALE`` steps.  The weights with 2^(2 F) folded in are formed
    again only then, so a step costs what it costs without scaling.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if rule_size is None:
        rule_size = n_max + 2 * weight.h_degree() + 16
    if rule_size < n_max:
        raise ValueError(
            f"rule_size {rule_size} cannot resolve degree {n_max - 1} orthogonality"
        )
    t, mantissa, exponent = _gauss_rule(weight.alpha, weight.beta, rule_size)
    # an h that overflows makes the mass inf, which the check below reports
    with np.errstate(over="ignore"):
        h_mantissa, h_exponent = np.frexp(weight.h(t))
        mantissa = mantissa * h_mantissa
        exponent = exponent + h_exponent
        mass = float(np.sum(np.ldexp(mantissa, exponent)))

    a = np.zeros(n_max)
    b = np.zeros(n_max)
    if not (math.isfinite(mass) and mass > 0.0):
        raise NumericError("quadrature produced a nonpositive or nonfinite total mass")
    b[0] = mass
    q_prev = np.zeros_like(t)
    q = np.full_like(t, 1.0 / math.sqrt(mass))
    scale = np.zeros_like(exponent)  # q_k(t_j) = q[j] * 2^scale[j]
    sqrt_b = 0.0
    for k in range(n_max):
        if k % _RESCALE == 0:
            if k:
                q_prev, q, shift = _rescaled(q_prev, q)
                scale += shift
            wq = np.ldexp(mantissa, exponent + 2 * scale)
            wqt = wq * t
        a[k] = float(wqt @ (q * q))
        if k + 1 < n_max:
            r = (t - a[k]) * q - sqrt_b * q_prev
            b_next = float(wq @ (r * r))
            if not (math.isfinite(b_next) and b_next > 0.0):
                raise NumericError(
                    f"Stieltjes coefficient b[{k + 1}] came out nonpositive: "
                    f"the {rule_size}-node Gauss rule under-resolves the weight"
                )
            b[k + 1] = b_next
            sqrt_b = math.sqrt(b_next)
            q_prev, q = q, r / sqrt_b
    return RecurrenceCoefficients(a, b)


def weight_recurrence(weight: WeightSpec, n_max: int) -> RecurrenceCoefficients:
    """Recurrence for ``weight``: closed form when h is constant, Stieltjes otherwise.

    c_0 never enters: a constant h gives the Jacobi recurrence, ``b[0]``
    included, whatever its value.
    """
    if weight.trivial_h:
        return jacobi_recurrence(weight.alpha, weight.beta, n_max)
    return stieltjes_recurrence(weight, n_max)


@dataclass(frozen=True)
class QuadratureRule:
    """Strictly increasing nodes in (-1, 1) with positive weights."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        nodes = np.array(self.nodes, dtype=float)
        weights = np.array(self.weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != weights.shape or nodes.size == 0:
            raise ValueError("nodes and weights must be matching nonempty 1-d arrays")
        if nodes.size > 1 and not np.all(np.diff(nodes) > 0.0):
            raise NumericError("nodes must be strictly increasing")
        if not np.all(weights > 0.0):
            raise NumericError("weights must be positive")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return self.nodes.size


def _rescaled(p_prev: np.ndarray, p: np.ndarray):
    """(p_prev / 2^j, p / 2^j, j), with j per point the binary exponent of
    max(|p_prev|, |p|): exact, and the larger value lands in [0.5, 1)."""
    shift = np.frexp(np.maximum(np.abs(p_prev), np.abs(p)))[1]
    return np.ldexp(p_prev, -shift), np.ldexp(p, -shift), shift


def _forward(rec: RecurrenceCoefficients, x: float | np.ndarray, n: int,
             exponent: np.ndarray | None = None):
    """Yield p_k(x), k = 0, ..., n-1, at a float x or over every point of an array x.

    The package's one forward recurrence, behind :func:`eval_orthonormal`,
    the entropy blocks and the Gauss rules: p_{k+1} is
    ((x - a_k) p_k - sqrt(b_k) p_{k-1}) / sqrt(b_{k+1}).  A Python float
    and each point of an array take the same IEEE operations in the same
    order, so they get the same bits.  The coefficients are read through
    memoryviews as Python floats, with no list or numpy scalar per step,
    and each step yields a new value, so memory is O(x.size) when the
    caller keeps none of them.

    With ``exponent``, an int array of x's shape, the values never
    overflow: before p_k for k = 1 + m * _RESCALE, m >= 1, except the last
    value, the pair (p_{k-2}, p_{k-1}) is divided per point by an exact
    2^j (:func:`_rescaled`) and j added to ``exponent`` in place.  The value
    yielded is p_k(x) / 2^exponent, with ``exponent`` as it stands when
    the value is taken; the last two values share it.  The steps between
    rescales are the same as without, so every value keeps its bits
    times a power of two.
    """
    a = memoryview(rec.a)
    sb = memoryview(np.sqrt(rec.b[:n]))
    p_prev, p = 0.0, x * 0.0 + 1.0 / sb[0]
    yield p
    run = n if exponent is None else _RESCALE
    for k in range(0, n - 1, run):  # steps k, ..., k + run - 1 give p_{k+1}, ...
        if 0 < k < n - 2:
            p_prev, p, shift = _rescaled(p_prev, p)
            exponent += shift
        for a_k, sb_k, sb_next in zip(a[k:], sb[k:k + run], sb[k + 1:]):
            p_prev, p = p, ((x - a_k) * p - sb_k * p_prev) / sb_next
            yield p


def _christoffel_sums(rec: RecurrenceCoefficients, x: np.ndarray, n: int):
    """(total, e) with sum_{k<n} p_k(x)^2 = total * 4^e at every point of x.

    One scaled :func:`_forward` pass, added up in the order of the
    unscaled sum.  Every rescale is exact, so where the unscaled sum and
    its terms stay in the normal range, total is its bits times 4^-e.
    """
    exponent = np.zeros(x.shape, np.intc)
    values = _forward(rec, x, n, exponent)
    total = next(values) ** 2
    for _ in range(1, n, _RESCALE):
        before = exponent.copy()
        block = islice(values, _RESCALE)
        p = next(block)  # the pass rescales before this value
        total = np.ldexp(total, 2 * (before - exponent)) + p * p
        for p in block:
            total += p * p
    return total, exponent


def _gauss_rule(alpha: float, beta: float, size: int):
    """Every node of the size-point Gauss-Jacobi rule, and its weight as m * 2^e.

    Returns (nodes, m, e), nodes ascending.  Jacobi-matrix eigenvalues
    polished by one Newton step on p_N, N = size, with the Christoffel
    numbers 1 / sum_{k<N} p_k^2 there as weights: O(N) memory and
    relatively accurate weights (Hale & Townsend, SIAM J. Sci. Comput. 35,
    2013), where Golub-Welsch eigenvector weights are not.  Both passes run
    :func:`_forward` with an exponent over all nodes and form values only,
    so no node is lost to overflow.  The Newton step takes p_N' from the
    Jacobi relation
    (1 - x^2) p_N' = N ((alpha - beta) / s - x) p_N + (s + 1) sqrt(b_N) p_{N-1},
    s = 2N + alpha + beta (Szego (4.5.7)), exact at every x and not only
    at a zero like the Christoffel-Darboux form; p_N / p_N' does not
    depend on the scale the pair shares.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    rec = jacobi_recurrence(alpha, beta, size + 1)
    try:
        nodes = eigvalsh_tridiagonal(rec.a[:size], np.sqrt(rec.b[1:size]))
    except Exception as exc:
        raise NumericError(f"tridiagonal eigensolver failed: {exc}") from exc
    s = 2 * size + alpha + beta
    p_prev, p = deque(_forward(rec, nodes, size + 1, np.zeros(size, np.intc)), maxlen=2)
    with np.errstate(over="ignore", invalid="ignore"):
        dp = (size * ((alpha - beta) / s - nodes) * p
              + (s + 1.0) * math.sqrt(rec.b[size]) * p_prev) / ((1.0 - nodes) * (1.0 + nodes))
        nodes = nodes - p / dp
    total, exponent = _christoffel_sums(rec, nodes, size)
    return nodes, 1.0 / total, -2 * exponent


def gauss_jacobi(alpha: float, beta: float, size: int) -> QuadratureRule:
    """Gauss-Jacobi rule for the weight (1-x)^alpha * (1+x)^beta.

    The nodes of :func:`_gauss_rule` whose weight is a normal double, with
    that weight.  A node whose weight lies below the smallest normal
    double (next to the endpoint of a large exponent in a large rule) is
    left out here; :func:`stieltjes_recurrence` uses the full rule.
    """
    nodes, mantissa, exponent = _gauss_rule(alpha, beta, size)
    weights = np.ldexp(mantissa, exponent)
    kept = weights >= np.finfo(float).tiny
    return QuadratureRule(nodes[kept], weights[kept])


def eval_orthonormal(rec: RecurrenceCoefficients, x: float, n: int) -> np.ndarray:
    """Orthonormal values (p_0(x), ..., p_{n-1}(x)): :func:`_forward` at one point.

    The forward pass is numerically stable on the interval interior; the
    endpoints are accepted for quadrature-style uses but excluded from the
    entropy API.  ``result[:m]`` equals the result for size m bit for bit,
    and every value equals its point's column of a pass over an array.
    """
    if not 1 <= n <= rec.n_max:
        raise ValueError(f"n must be in [1, {rec.n_max}], got {n}")
    if not -1.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [-1, 1], got {x}")
    return np.fromiter(_forward(rec, float(x), n), float, n)


def _zero_angle(kind: str, n: int, j: int) -> float:
    """Angle theta_j of the j-th zero cos(theta_j) of the degree-n Chebyshev polynomial."""
    _require_kind(kind)
    if not 1 <= j <= n:
        raise IndexError(f"zero index j={j} outside 1..{n}")
    if kind == "first":
        return (2 * j - 1) * math.pi / (2 * n)
    return j * math.pi / (n + 1)


def chebyshev_zero(kind: str, n: int, j: int) -> float:
    """j-th zero (1-based, decreasing in j) of the degree-n Chebyshev polynomial."""
    return math.cos(_zero_angle(kind, n, j))
