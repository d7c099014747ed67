"""Registry of the package's self-checks.

Each check compares a result with an independent route or an exact
value and returns (name, observed, bound) rows; a row passes when
observed < bound.  The ranges a check sweeps come from a ``Scope``
passed in by the caller, and no bound depends on the scope:
``orthoentropy verify`` runs the registry at ``verify_scope`` and the
acceptance suite at ``ACCEPTANCE_SCOPE``, which sweeps wider ranges.
"""

import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import (
    RationalAngle,
    asymptotic_polynomial,
    chebyshev_divergence_limit,
    christoffel_limit_ratios,
    identity_suite as _identity_suite,
    limit_divergence,
    phase_shift,
    pv_log_h_oracle,
)
from .entropy import (
    christoffel_distribution,
    christoffel_entropy_grid,
    shannon_entropy,
    zero_entropy_direct,
    zero_entropy_first_kind,
    zero_entropy_second_kind,
)
from .orthopoly import (
    WeightSpec,
    eval_orthonormal,
    gauss_jacobi,
    stieltjes_recurrence,
    weight_recurrence,
)
from .specfun import _entropy_correction_digamma, entropy_correction

_CHEB_T = WeightSpec.chebyshev_t()
_CHEB_U = WeightSpec.chebyshev_u()
_EXP_WEIGHT = WeightSpec(0.0, 0.0, (0.0, 1.0))

Row = tuple[str, float, float]


@dataclass(frozen=True)
class Scope:
    """Ranges swept by the scope-dependent checks."""

    zero_n_max: int                  # zero entropies for n = 1..zero_n_max
    phase_thetas: tuple[float, ...]  # angles of the spectral phase check
    oracle_xs: tuple[float, ...]     # points of the excision-oracle check
    cosine_ns: tuple[int, ...]       # degrees of the bulk cosine check
    universality_n: int              # degree of the kernel-limit checks


def verify_scope(universality_n: int) -> Scope:
    """The ranges of ``orthoentropy verify --n universality_n``."""
    return Scope(40, (0.3, 1.0, 1.9, 2.8), (-0.4, 0.2), (1, 2, 3, 5, 8, 40),
                 universality_n)


ACCEPTANCE_SCOPE = Scope(200, tuple(np.linspace(0.1, math.pi - 0.1, 25).tolist()),
                         (-0.4, 0.2, 0.5), (1, 2, 3, 5, 8, 40, 100), 4000)


def correction_dual_route(scope: Scope) -> list[Row]:
    """Digamma closed form against the pole-subtracted odd-zeta series on (0, 1)."""
    xs = np.arange(1, 100) / 100.0
    err = max(abs(_entropy_correction_digamma(x) - entropy_correction(x)) for x in xs)
    return [("correction_dual_route", err, 1e-12)]


def correction_half_value(scope: Scope) -> list[Row]:
    """The correction function at 1/2 against 2 log 2 - 1."""
    return [("correction_half_value",
             abs(entropy_correction(0.5) - (2.0 * math.log(2.0) - 1.0)), 1e-12)]


def zero_entropy_closed_forms(scope: Scope) -> list[Row]:
    """Closed-form entropies at the Chebyshev zeros against direct summation."""
    err = 0.0
    for n in range(1, scope.zero_n_max + 1):
        for j in range(1, n + 1):
            err = max(
                err,
                abs(zero_entropy_first_kind(n, j) - zero_entropy_direct("first", n, j)),
                abs(zero_entropy_second_kind(n, j) - zero_entropy_direct("second", n, j)),
            )
    return [("zero_entropy_closed_forms", err, 1e-10)]


def entropy_split_identity(scope: Scope) -> list[Row]:
    """Streamed split-form entropies against direct summation, Chebyshev T weight.

    Four points at once and each point alone, the two sources of values."""
    xs, ns = (-0.6, -0.1, 0.3, 0.7), (1, 2, 5, 17, 64)
    rec = weight_recurrence(_CHEB_T, 64)
    grid = christoffel_entropy_grid(rec, xs, ns)
    err = 0.0
    for j, x in enumerate(xs):
        direct = [shannon_entropy(christoffel_distribution(rec, x, n)) for n in ns]
        point = christoffel_entropy_grid(rec, [x], ns)[:, 0]
        err = max(err, np.abs(grid[:, j] - direct).max(), np.abs(point - direct).max())
    return [("entropy_split_identity", float(err), 1e-12)]


def identity_suite(scope: Scope) -> list[Row]:
    """The averaged-entropy identities; the convexity margin must be negative."""
    return [
        (name, value, 0.0 if name == "convexity_margin" else 1e-10)
        for name, value in _identity_suite()
    ]


def divergence_limit_cross_route(scope: Scope) -> list[Row]:
    """First-kind closed-form limits against the phase average, k = 2..50."""
    err = 0.0
    for k in range(2, 51):
        closed = chebyshev_divergence_limit(k)
        for s in range(1, k):
            if math.gcd(s, k) == 1:
                err = max(err, abs(limit_divergence(_CHEB_T, RationalAngle(s, k)) - closed))
    return [("divergence_limit_cross_route", err, 1e-10)]


def orthonormality(scope: Scope) -> list[Row]:
    """Gram matrix of Stieltjes polynomials on a Gauss-Jacobi oracle rule."""
    err = 0.0
    for spec in ((0.0, 0.0, (0.0, 1.0)),
                 (-0.5, -0.5, (0.0, 0.5, 0.25)),
                 (0.5, -0.5, (0.0, 1.0))):
        weight = WeightSpec(*spec)
        rec = stieltjes_recurrence(weight, 31)
        oracle = gauss_jacobi(weight.alpha, weight.beta, 150)
        wh = oracle.weights * np.asarray(weight.h(oracle.nodes))
        table = np.stack([eval_orthonormal(rec, float(t), 31) for t in oracle.nodes])
        gram = table.T @ (wh[:, None] * table)
        err = max(err, float(np.abs(gram - np.eye(31)).max()))
    return [("orthonormality", err, 1e-10)]


def universality(scope: Scope) -> list[Row]:
    """Christoffel-function ratio to its limit and the kernel's tail mass."""
    n = scope.universality_n
    err_ratio = 0.0
    err_tail = 0.0
    for weight in (_CHEB_T, _CHEB_U, WeightSpec.legendre()):
        rec = weight_recurrence(weight, n + 1)
        for x in (0.0, 0.3, -0.3, 0.6, -0.6):
            ratio, tail = christoffel_limit_ratios(weight, x, n, rec)
            err_ratio = max(err_ratio, abs(ratio - 1.0))
            err_tail = max(err_tail, tail)
    return [("universality_ratio", err_ratio, 0.02),
            ("universality_tail", err_tail, 0.01)]


def phase_spectral_exp(scope: Scope) -> list[Row]:
    """Spectral phase of h = exp(x) against its exact value sin(theta)/2."""
    err = max(
        abs(phase_shift(_EXP_WEIGHT, theta) - 0.5 * math.sin(theta))
        for theta in scope.phase_thetas
    )
    return [("phase_spectral_exp", err, 1e-10)]


def phase_pv_oracle(scope: Scope) -> list[Row]:
    """Spectral phase against the excision oracle for the principal value."""
    err = 0.0
    for x in scope.oracle_xs:
        theta = math.acos(x)
        recomposed = math.sin(theta) / (2.0 * math.pi) * pv_log_h_oracle(_EXP_WEIGHT, x)
        err = max(err, abs(phase_shift(_EXP_WEIGHT, theta) - recomposed))
    return [("phase_pv_oracle", err, 1e-6)]


def chebyshev_asymptotics(scope: Scope) -> list[Row]:
    """Bulk cosine form against the exact Chebyshev T and U polynomials."""
    err = 0.0
    thetas = np.linspace(0.2, math.pi - 0.2, 9)
    for n in scope.cosine_ns:
        for theta in thetas:
            x = math.cos(theta)
            exact_t = math.sqrt(2.0 / math.pi) * math.cos(n * theta)
            exact_u = math.sqrt(2.0 / math.pi) * math.sin((n + 1) * theta) / math.sin(theta)
            err = max(
                err,
                abs(asymptotic_polynomial(_CHEB_T, n, x) - exact_t),
                abs(asymptotic_polynomial(_CHEB_U, n, x) - exact_u),
            )
    return [("chebyshev_asymptotics", err, 1e-12)]


CHECKS = (
    correction_dual_route,
    correction_half_value,
    zero_entropy_closed_forms,
    entropy_split_identity,
    identity_suite,
    divergence_limit_cross_route,
    orthonormality,
    universality,
    phase_spectral_exp,
    phase_pv_oracle,
    chebyshev_asymptotics,
)
