"""Discrete entropy of Christoffel-normalized distributions.

For a weight (1-x)^alpha (1+x)^beta h(x) on [-1, 1] with h analytic and
positive, the orthonormal polynomials p_0, ..., p_{n-1} at a point x define
a probability vector with cells proportional to p_j(x)^2.  This package
computes the Shannon entropy and Kullback-Leibler divergence of that
vector, the exact closed forms at Chebyshev zeros, and the large-n limit
of the divergence, which depends on whether arccos(x)/pi is rational.
"""

from .asymptotics import (
    Angle,
    IrrationalAngle,
    RationalAngle,
    SubsequenceItem,
    asymptotic_polynomial,
    chebyshev_divergence_limit,
    christoffel_limit_ratios,
    identity_suite,
    limit_divergence,
    periodic_average,
    phase_average,
    phase_average_empirical,
    phase_shift,
    pv_log_h_oracle,
    rationalize,
    zero_entropy_gaps,
    zero_subsequence,
)
from .entropy import (
    DiscreteDistribution,
    EntropyReport,
    chebyshev_distribution_entropy,
    christoffel_distribution,
    christoffel_entropy_grid,
    kl_divergence,
    shannon_entropy,
    zero_entropy_direct,
    zero_entropy_first_kind,
    zero_entropy_second_kind,
)
from .errors import ConfigError, ConvergenceError, NumericError
from .orthopoly import (
    QuadratureRule,
    RecurrenceCoefficients,
    WeightSpec,
    chebyshev_zero,
    christoffel,
    eval_orthonormal,
    gauss_jacobi,
    jacobi_recurrence,
    stieltjes_recurrence,
    weight_recurrence,
)
from .specfun import entropy_correction

__version__ = "0.1.0"
