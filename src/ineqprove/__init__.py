"""Prove univariate inequalities f(x) >= 0 on a closed segment.

The method: extend the quotient f(x)/((x-a)^n (b-x)^m) continuously to the
segment, approximate it by a minimax polynomial P with error estimate delta
(second Remez algorithm), and certify P(x) - delta > 0 rigorously by exact
Bernstein subdivision on integers.  Positive endpoint limits plus the
certificate prove f >= 0 with roots admitted at the endpoints.
"""

import gc

from .certify import (
    CAVEAT,
    GridStatistics,
    PositivityCertificate,
    ProofReport,
    ProofSettings,
    certify_positive,
    prove_inequality,
    report_to_json,
    residual_check,
)
from .errors import (
    CertificationError,
    ConfigurationError,
    ConvergenceError,
    DivergentLimitError,
    DomainError,
    ExpressionSyntaxError,
    IneqproveError,
    LimitError,
    MultiplicityError,
    PrecisionUnreachableError,
    RootBracketError,
    SingularSystemError,
    UnknownIdentifierError,
    UnstableLimitError,
    ZeroLimitError,
)
from .expr import Expression, differentiate, evaluate, parse
from .precision import Precision, decimal_str, to_mpf
from .quadrature import (
    QuadratureResult,
    find_inflection,
    kurepa,
    kurepa_derivative,
)
from .quotient import QuotientFunction, endpoint_limits_numeric, endpoint_limits_taylor
from .remez import (
    CachedFunction,
    EquioscillationReport,
    MinimaxResult,
    Polynomial,
    minimax,
    verify_equioscillation,
)

__version__ = "0.1.0"

__all__ = [
    "CAVEAT",
    "CachedFunction",
    "CertificationError",
    "ConfigurationError",
    "ConvergenceError",
    "DivergentLimitError",
    "DomainError",
    "EquioscillationReport",
    "Expression",
    "ExpressionSyntaxError",
    "GridStatistics",
    "IneqproveError",
    "LimitError",
    "MinimaxResult",
    "MultiplicityError",
    "Polynomial",
    "PositivityCertificate",
    "Precision",
    "PrecisionUnreachableError",
    "ProofReport",
    "ProofSettings",
    "QuadratureResult",
    "QuotientFunction",
    "RootBracketError",
    "SingularSystemError",
    "UnknownIdentifierError",
    "UnstableLimitError",
    "ZeroLimitError",
    "certify_positive",
    "decimal_str",
    "differentiate",
    "endpoint_limits_numeric",
    "endpoint_limits_taylor",
    "evaluate",
    "find_inflection",
    "kurepa",
    "kurepa_derivative",
    "minimax",
    "parse",
    "prove_inequality",
    "report_to_json",
    "residual_check",
    "to_mpf",
    "verify_equioscillation",
]

# The interpreter's first full collection scans every object then alive,
# most of them the 19,500 that importing this package and mpmath leaves.
# In a series of proofs it took 8-9 ms (37,000 objects, 2-vCPU host), all
# charged to whichever call crossed the collector's threshold, and which
# call that was moved with any change to what the proofs allocate.  The
# objects alive now (modules, classes and constants, and whatever the
# importer holds) move to the permanent generation, so later full passes
# scan only objects made since.  Reference counting still frees frozen
# objects; only a reference cycle among them outlives its last use.
gc.freeze()
