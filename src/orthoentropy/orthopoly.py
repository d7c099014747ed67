"""Generalized Jacobi weights and their orthonormal polynomials.

Weight specifications, monic three-term recurrences (closed form for pure
Jacobi, Stieltjes procedure for an analytic factor h), orthonormal
evaluation, Christoffel functions, Gauss-Jacobi quadrature (Jacobi-matrix
eigenvalues, one Newton step, Christoffel-number weights), and the exact
Chebyshev zeros.  Recurrences and rules are immutable once built and all
evaluations are pure, so everything is freely shareable across threads.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .errors import ConvergenceError, NumericError

__all__ = [
    "CHEBYSHEV_KINDS",
    "QuadratureRule",
    "RecurrenceCoefficients",
    "WeightSpec",
    "chebyshev_zero",
    "christoffel",
    "eval_orthonormal",
    "gauss_jacobi",
    "jacobi_recurrence",
    "stieltjes_recurrence",
    "weight_recurrence",
]

CHEBYSHEV_KINDS = ("first", "second")

# Fewest nodes of the default Stieltjes rule.  At low degree the degree
# count 2*n_max + ceil(M/2) + 8 leaves h under-resolved: for |c_m| <= 1 and
# n_max <= 30 such rules missed a large-rule entropy by up to 2e-5, where
# 64 nodes agree with it to 1e-14.
_STIELTJES_MIN_RULE = 64


def _require_kind(kind: str) -> str:
    if kind not in CHEBYSHEV_KINDS:
        raise ValueError(f"kind must be one of {CHEBYSHEV_KINDS}, got {kind!r}")
    return kind


def _scalar_or_array(out: np.ndarray):
    return out if out.ndim else out.item()


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
        """Build from the JSON record {"alpha": .., "beta": .., "logh_cheb": [..]}."""
        try:
            return cls(
                float(data["alpha"]),
                float(data["beta"]),
                tuple(float(c) for c in data.get("logh_cheb", ())),
            )
        except (KeyError, TypeError) as exc:
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

    def w(self, x):
        """Weight density at points of (-1, 1), with h scaled so that c_0 = 0."""
        x = np.asarray(x, dtype=float)
        out = (1.0 - x) ** self.alpha * (1.0 + x) ** self.beta * np.asarray(self.h(x))
        return _scalar_or_array(out)


@dataclass(frozen=True)
class RecurrenceCoefficients:
    """Monic recurrence data: pi_{k+1} = (x - a[k]) pi_k - b[k] pi_{k-1}.

    ``b[0]`` stores the total mass of the weight with c_0 = 0 (see
    :class:`WeightSpec`) and every b is positive.
    Orthonormal values are generated on the fly from these coefficients,
    which keeps leading coefficients out of the arithmetic and avoids
    overflow at large degree.
    """

    n_max: int
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        a = np.array(self.a, dtype=float)
        b = np.array(self.b, dtype=float)
        if a.ndim != 1 or b.ndim != 1:
            raise ValueError("coefficient arrays must be one-dimensional")
        if len(a) < self.n_max or len(b) < self.n_max:
            raise ValueError("coefficient arrays must have length >= n_max")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("recurrence coefficients must be finite")
        if not np.all(b > 0.0):
            raise ValueError("all b coefficients must be positive")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


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
    b[0] = math.exp(
        (ab + 1.0) * math.log(2.0)
        + math.lgamma(alpha + 1.0)
        + math.lgamma(beta + 1.0)
        - math.lgamma(ab + 2.0)
    )
    if n_max > 1:
        k = np.arange(1, n_max, dtype=float)
        a[1:] = (beta * beta - alpha * alpha) / ((2.0 * k + ab) * (2.0 * k + ab + 2.0))
        # k = 1 in cancelled form: the generic expression is 0/0 when ab = -1.
        b[1] = 4.0 * (alpha + 1.0) * (beta + 1.0) / ((ab + 2.0) ** 2 * (ab + 3.0))
    if n_max > 2:
        k = np.arange(2, n_max, dtype=float)
        s = 2.0 * k + ab
        b[2:] = 4.0 * k * (k + alpha) * (k + beta) * (k + ab) / (s * s * (s * s - 1.0))
    return RecurrenceCoefficients(n_max, a, b)


def stieltjes_recurrence(
    weight: WeightSpec, n_max: int, rule_size: int | None = None
) -> RecurrenceCoefficients:
    """Monic recurrence for the full weight via the Stieltjes procedure.

    Inner products use a Gauss rule for the bare Jacobi part with h folded
    into the integrand, so the endpoint singularities never meet the rule.
    The default rule size max(64, 2*n_max + ceil(M/2) + 8) makes products
    of degree up to 2*n_max + M near-exact and resolves h at low degree;
    raise ``rule_size`` if construction fails.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if rule_size is None:
        rule_size = max(
            _STIELTJES_MIN_RULE, 2 * n_max + (len(weight.logh_cheb) + 1) // 2 + 8
        )
    if rule_size < n_max:
        raise ValueError(
            f"rule_size {rule_size} cannot resolve degree {n_max - 1} orthogonality"
        )
    rule = gauss_jacobi(weight.alpha, weight.beta, rule_size)
    t = rule.nodes
    # an h that overflows makes the mass inf, which the check below reports
    with np.errstate(over="ignore"):
        wh = rule.weights * np.asarray(weight.h(t))

    a = np.zeros(n_max)
    b = np.zeros(n_max)
    mass = float(np.sum(wh))
    if not (math.isfinite(mass) and mass > 0.0):
        raise NumericError("quadrature produced a nonpositive or nonfinite total mass")
    b[0] = mass
    q_prev = np.zeros_like(t)
    q = np.full_like(t, 1.0 / math.sqrt(mass))
    sqrt_b = 0.0
    for k in range(n_max):
        a[k] = float(np.sum(wh * t * q * q))
        if k + 1 < n_max:
            r = (t - a[k]) * q - sqrt_b * q_prev
            b_next = float(np.sum(wh * r * r))
            if not (math.isfinite(b_next) and b_next > 0.0):
                raise NumericError(
                    f"Stieltjes coefficient b[{k + 1}] came out nonpositive; the "
                    f"rule of size {rule_size} under-resolves the weight, retry "
                    "with a larger rule_size"
                )
            b[k + 1] = b_next
            sqrt_b = math.sqrt(b_next)
            q_prev, q = q, r / sqrt_b
    return RecurrenceCoefficients(n_max, a, b)


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
            raise ValueError("nodes must be strictly increasing")
        if not np.all(weights > 0.0):
            raise ValueError("weights must be positive")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return self.nodes.size


def _orthonormal_scan(rec: RecurrenceCoefficients, n: int, x: np.ndarray):
    """Vectorized p_n, p_n' and sum_{k<n} p_k^2 at every point of x."""
    sb = np.sqrt(rec.b[: n + 1]).tolist()
    p_prev = np.zeros_like(x)
    d_prev = np.zeros_like(x)
    p = np.full_like(x, 1.0 / sb[0])
    d = np.zeros_like(x)
    ksum = p * p
    for k, a_k in enumerate(rec.a[:n].tolist()):
        inv = 1.0 / sb[k + 1]
        xa = x - a_k
        p_next = (xa * p - sb[k] * p_prev) * inv
        d_next = (p + xa * d - sb[k] * d_prev) * inv
        p_prev, p = p, p_next
        d_prev, d = d, d_next
        if k + 1 < n:
            ksum = ksum + p * p
    return p, d, ksum


def gauss_jacobi(alpha: float, beta: float, size: int) -> QuadratureRule:
    """Gauss-Jacobi rule for the weight (1-x)^alpha * (1+x)^beta.

    Jacobi-matrix eigenvalues polished by one Newton step on p_size, with
    the Christoffel numbers 1 / sum_{k<size} p_k^2 there as weights: O(size)
    memory and relatively accurate weights (Hale & Townsend, SIAM J. Sci.
    Comput. 35, 2013), where Golub-Welsch eigenvector weights are not.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    rec = jacobi_recurrence(alpha, beta, size + 1)
    try:
        nodes = eigvalsh_tridiagonal(rec.a[:size], np.sqrt(rec.b[1:size]))
    except Exception as exc:
        raise ConvergenceError(f"tridiagonal eigensolver failed: {exc}") from exc
    p, dp, _ = _orthonormal_scan(rec, size, nodes)
    nodes = nodes - p / dp
    _, _, ksum = _orthonormal_scan(rec, size, nodes)
    order = np.argsort(nodes)
    return QuadratureRule(nodes[order], 1.0 / ksum[order])


def eval_orthonormal(rec: RecurrenceCoefficients, x: float, n: int) -> np.ndarray:
    """Orthonormal values (p_0(x), ..., p_{n-1}(x)) by forward recurrence.

    The forward pass is numerically stable on the interval interior; the
    endpoints are accepted for quadrature-style uses but excluded from the
    entropy API.  ``result[:m]`` equals the result for size m bit for bit,
    so one pass to the largest size serves a whole schedule.
    """
    if not 1 <= n <= rec.n_max:
        raise ValueError(f"n must be in [1, {rec.n_max}], got {n}")
    if not -1.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [-1, 1], got {x}")
    # Python floats read through memoryviews: the same IEEE operations in
    # the same order as numpy-scalar arithmetic, so the same bits, without
    # a numpy scalar per step.
    x = float(x)
    sb = memoryview(np.sqrt(rec.b[:n]))
    p_prev = 0.0
    p = 1.0 / sb[0]
    vals = array("d", [p])
    append = vals.append
    for a_k, sb_k, sb_next in zip(memoryview(rec.a), sb, sb[1:]):
        p_prev, p = p, ((x - a_k) * p - sb_k * p_prev) / sb_next
        append(p)
    return np.frombuffer(vals)


def christoffel(rec: RecurrenceCoefficients, x: float, n: int) -> float:
    """Christoffel function 1 / sum_{k<n} p_k(x)^2; strictly positive."""
    vals = eval_orthonormal(rec, x, n)
    return 1.0 / float(np.dot(vals, vals))


def chebyshev_zero(kind: str, n: int, j: int) -> float:
    """j-th zero (1-based, decreasing in j) of the degree-n Chebyshev polynomial."""
    _require_kind(kind)
    if not 1 <= j <= n:
        raise IndexError(f"zero index j={j} outside 1..{n}")
    if kind == "first":
        return math.cos((2 * j - 1) * math.pi / (2 * n))
    return math.cos(j * math.pi / (n + 1))
