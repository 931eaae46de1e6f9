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

from .errors import ConfigurationError

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
    the package grammar ("pi/2", "2 - sqrt2"); anything involving x is
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
        if isinstance(value, str):
            # x evaluates to None, so an expression in x gives no mpf
            try:
                from .expr import _eval, parse

                result = _eval(parse(value).root, None, None)
            except Exception:
                result = None
            if isinstance(result, mpmath.mpf):
                return result
        raise ConfigurationError(f"cannot interpret {value!r} as a real number") from exc


def decimal_str(value, p: Precision) -> str:
    """Deterministic decimal rendering at full working precision."""
    if value is None:
        return None
    with mp.workdps(p.decimal_digits + GUARD_DIGITS):
        if not isinstance(value, mpmath.mpf):
            value = to_mpf(value)
        return mpmath.nstr(value, p.decimal_digits, strip_zeros=True)
