"""Working-precision plumbing.

Every numeric routine in this package receives a :class:`Precision` and does
its arithmetic inside ``working(p)``, an mpmath context raised by a fixed
number of guard digits.  Results are deterministic: same inputs, same bits.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mp
from mpmath.libmp import dps_to_prec

from .errors import ConfigurationError, IneqproveError

GUARD_DIGITS = 10


@dataclass(frozen=True)
class Precision:
    """Number of decimal digits carried by all real arithmetic."""

    decimal_digits: int = 50

    def __post_init__(self):
        if not isinstance(self.decimal_digits, int):
            raise ConfigurationError("precision must be an integer number of decimal digits")
        if self.decimal_digits < 15:
            raise ConfigurationError(
                f"working precision must be at least 15 decimal digits, got {self.decimal_digits}"
            )


@contextmanager
def working(p: Precision, extra: int = GUARD_DIGITS):
    """mpmath context at ``p`` plus guard digits."""
    with mp.workdps(p.decimal_digits + extra):
        yield mp


def working_prec(p: Precision) -> int:
    """The binary precision that ``working(p)`` sets."""
    return dps_to_prec(p.decimal_digits + GUARD_DIGITS)


def resolution_floor(p: Precision):
    """10^-(digits - 10), at the current working precision.

    The smallest quantity ``p``-digit arithmetic resolves: the Kurepa error
    target, the least Remez tol, and the zero level of endpoint limits and
    of minimax residuals.
    """
    return mp.mpf(10) ** (-(p.decimal_digits - 10))


def to_mpf(value):
    """Convert a scalar to mpf at the current working precision.

    Strings and Fractions convert without an intermediate float, so decimal
    inputs keep full precision.  Strings may also be constant expressions in
    the package grammar ("pi/2", "2 - sqrt2"); any that mentions x is
    rejected.
    """
    if isinstance(value, mpmath.mpf):
        return value
    if isinstance(value, Fraction):
        return mp.mpf(value.numerator) / value.denominator
    if isinstance(value, str):
        value = value.strip()
    try:
        return mp.mpf(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        cause = exc
    if isinstance(value, str):
        from .expr import constant_value  # deferred: expr imports this module
        try:
            return constant_value(value)
        except IneqproveError as exc:
            cause = exc
    raise ConfigurationError(f"cannot interpret {value!r} as a real number") from cause


def finite_segment(a, b):
    """a and b rounded to the current working precision, both finite, a < b.

    Rounding here, not in ``to_mpf``, keeps the bits of a caller's ambient
    precision out of the proof while the certifier still sees exactly the
    coefficients it is given.
    """
    av, bv = +to_mpf(a), +to_mpf(b)
    for name, v in (("a", av), ("b", bv)):
        if not mpmath.isfinite(v):
            raise ConfigurationError(f"segment end {name} must be finite, got {v}")
    if not av < bv:
        raise ConfigurationError("segment must satisfy a < b")
    return av, bv


def finite_orders(n, m):
    """Root orders n and m rounded to the current working precision, finite and nonnegative."""
    nv, mv = +to_mpf(n), +to_mpf(m)
    for name, v in (("n", nv), ("m", mv)):
        if not (mpmath.isfinite(v) and v >= 0):
            raise ConfigurationError(f"root order {name} must be finite and nonnegative, got {v}")
    return nv, mv


def decimal_str(value, p: Precision) -> str:
    """Deterministic decimal rendering at full working precision."""
    if value is None:
        return None
    with mp.workdps(p.decimal_digits + GUARD_DIGITS):
        if not isinstance(value, mpmath.mpf):
            value = to_mpf(value)
        return mpmath.nstr(value, p.decimal_digits, strip_zeros=True)
