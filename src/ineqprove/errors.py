"""Exception hierarchy shared by all ineqprove modules.

A ConfigurationError is the caller's fault, a bad input or setting, and
propagates.  Every other IneqproveError is an attempt that could not
decide: raised in a stage of a proof, it ends the proof at that stage.
"""


class IneqproveError(Exception):
    """Base class for every error raised by this package."""


class ConfigurationError(IneqproveError):
    """Malformed inputs or settings (bad interval, precision too low, ...)."""


class ExpressionSyntaxError(IneqproveError):
    """Source text could not be parsed; carries the 0-based character position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownIdentifierError(ExpressionSyntaxError):
    """An identifier that is neither a variable, constant nor known function."""

    def __init__(self, name, position):
        super().__init__(f"unknown identifier '{name}'", position)
        self.name = name


class DomainError(IneqproveError):
    """Evaluation outside the natural domain of a sub-expression."""


class PrecisionUnreachableError(IneqproveError):
    """A Kurepa integral whose proven error bound misses its target."""


class RootBracketError(IneqproveError):
    """A bracketing root search found no sign change over its interval."""


class LimitError(IneqproveError):
    """Base class for endpoint-limit extrapolation failures.

    ``hint_exponent`` is the observed growth/decay exponent of the quotient
    sequence; it suggests how far off the supplied exponent is.
    """

    def __init__(self, message, hint_exponent=None, endpoint=None):
        if hint_exponent is not None:
            message = f"{message} (observed exponent hint: {hint_exponent})"
        if endpoint is not None:
            message = f"{message} [endpoint {endpoint}]"
        super().__init__(message)
        self.hint_exponent = hint_exponent
        self.endpoint = endpoint


class DivergentLimitError(LimitError):
    """Quotient grows without bound: the supplied exponent is too large."""


class ZeroLimitError(LimitError):
    """Quotient tends to zero: the supplied exponent is too small."""


class UnstableLimitError(LimitError):
    """Accelerated quotient sequence failed to stabilize."""


class MultiplicityError(IneqproveError):
    """A derivative of order below the supplied one does not vanish."""

    def __init__(self, endpoint, order, value):
        super().__init__(
            f"derivative of order {order} does not vanish (value {value}); "
            f"supplied root multiplicity is inconsistent [endpoint {endpoint}]"
        )
        self.endpoint = endpoint
        self.order = order
        self.value = value


class SingularSystemError(IneqproveError):
    """The levelled system is exactly singular: three coincident nodes make it so, two do not."""


class ConvergenceError(IneqproveError):
    """Remez iteration exhausted its budget without converging."""

    def __init__(self, message, history=()):
        super().__init__(message)
        self.history = tuple(history)


class CertificationError(IneqproveError):
    """Positivity could not be certified.

    ``left``, ``right`` and ``bound`` give the failing leaf and its lower
    bound, or, with ``left == right``, the point where P - delta*margin was
    found <= 0 and that value rounded down.
    """

    def __init__(self, message, left=None, right=None, bound=None):
        super().__init__(message)
        self.left = left
        self.right = right
        self.bound = bound
