"""Working-precision plumbing: the one door for precisions and numbers.

Every numeric routine in this package receives a :class:`Precision`, the one
argument ``context`` takes, and computes in ``context(p)``, a private mpmath
context at p's digits plus guard digits, whose precision is set when it is
made and which refuses any change to it.  No routine reads or sets the global
``mp``, and no caller can change a working context, so proofs in several
threads cannot interfere, and results are deterministic: same inputs, same
bits.  mpmath arithmetic takes the precision of its left operand, so a foreign
value enters a routine's context through ``to_mpf``, which gives finite mpfs
only, before it meets another.  ``rational`` is its one rounding of a
Fraction, once to nearest, ``exact`` and ``fraction`` its one exact conversion
of mpfs, to integers on a common power of two and to Fractions, and
``integer`` its one check of a whole-number argument: a degree, a derivative
order, a grid size or a digit count.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath.libmp import (
    dps_to_prec, from_int, from_rational, mpf_pow_int, round_nearest, to_rational,
)

from .errors import ConfigurationError, IneqproveError

GUARD_DIGITS = 10


def integer(value, what, least):
    """value, if it is an int (not a bool) of at least ``least``; else ConfigurationError."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ConfigurationError(f"{what} must be an integer of at least {least}, got {value!r}")
    return value


@dataclass(frozen=True)
class Precision:
    """Number of decimal digits carried by all real arithmetic."""

    decimal_digits: int = 50

    def __post_init__(self):
        integer(self.decimal_digits, "precision in decimal digits", 15)


def context(p) -> mpmath.MPContext:
    """The working context of the Precision p: its digits plus GUARD_DIGITS, round to nearest.

    Anything but a Precision is refused.  The context's precision is set
    here, once, and no caller can change it, so one context serves every
    caller at p.
    """
    if not isinstance(p, Precision):
        raise ConfigurationError(f"precision must be a Precision, got {p!r}")
    return _context(p.decimal_digits)


class _WorkingContext(mpmath.MPContext):
    """An mpmath context whose precision, set when it is made, no caller can change."""

    def _refuse(ctx, value):
        raise ConfigurationError(f"a working context keeps its precision of {ctx._prec} bits")

    prec = property(mpmath.MPContext.prec.fget, _refuse)
    dps = property(mpmath.MPContext.dps.fget, _refuse)


@lru_cache(maxsize=64)
def _context(digits):
    ctx = _WorkingContext()
    mpmath.MPContext._set_prec(ctx, dps_to_prec(digits + GUARD_DIGITS))
    return ctx


# The named floors: each power of ten below which a quantity, relative to
# its scale, counts as zero for one decision, in p's working context.
# Most count their exponent from p's digits.

def _ten_to(exponent, p):
    return context(p).mpf(10) ** exponent


def resolution_floor(p: Precision):
    """10^-(digits - 10): the smallest quantity ``p``-digit arithmetic resolves.

    The least Remez tol, and the zero level of endpoint limits and of
    minimax residuals.
    """
    return _ten_to(-(p.decimal_digits - 10), p)


def witness_floor(p: Precision):
    """10^-(digits - 15): a sample of f or g below -floor * scale is a witness of disproof."""
    return _ten_to(-(p.decimal_digits - 15), p)


def rounding_floor(p: Precision):
    """10^-digits: Remez residuals under floor * scale are the rounding noise of an exact fit."""
    return _ten_to(-p.decimal_digits, p)


def cancellation_floor(p: Precision):
    """10^-(digits + 5): an Aitken second difference under floor * scale is zero."""
    return _ten_to(-(p.decimal_digits + 5), p)


def kurepa_floor(p: Precision, prec):
    """10^-(digits + 3): the Kurepa error target, relative to max(1, |K|).

    A libmp tuple rounded to nearest at binary precision prec, the bits of
    the power in ``context(p)`` at its precision, with no mpf built for it.
    """
    return mpf_pow_int(from_int(10), -(p.decimal_digits + 3), prec, round_nearest)


def sampling_ratio(p: Precision):
    """10^-6: a numeric-route endpoint limit under ratio * scale counts as zero."""
    return _ten_to(-6, p)


def to_mpf(value, p=Precision()):
    """A finite scalar as an mpf of ``context(p)``, by default Precision()'s.

    An mpf of any context keeps its bits, so a caller's coefficients are used
    exactly as given; other values are rounded to the context.  Strings and
    Fractions convert without an intermediate float, so decimal inputs keep
    full precision.  Strings may also be constant expressions in the package
    grammar ("pi/2", "2 - sqrt2"); any that mentions x is rejected, and so is
    a bool, an infinity or a NaN, whether a string, a float or an mpf.
    Text is converted once per (text, digits) by a bounded memo, so constant
    text such as the proof's margin is parsed once per precision; errors are not kept.
    """
    if isinstance(value, str) and isinstance(p, Precision):
        return context(p).make_mpf(_text(value, p.decimal_digits))
    return _convert(value, p)


@lru_cache(maxsize=256)
def _text(text, digits):
    return _convert(text, Precision(digits))._mpf_


def _convert(value, p):
    ctx = context(p)
    v = cause = None
    if hasattr(value, "_mpf_"):
        if hasattr(value, "func"):  # a constant such as mpmath.pi, evaluated here
            return ctx.make_mpf(value.func(ctx.prec, "n"))
        v = value if type(value) is ctx.mpf else ctx.make_mpf(value._mpf_)
    elif isinstance(value, Fraction):
        return ctx.make_mpf(rational(value, ctx.prec))
    elif not isinstance(value, bool):
        if isinstance(value, str):
            value = value.strip()
        try:
            v = ctx.mpf(value)
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            cause = exc
        if v is None and isinstance(value, str):
            from .expr import constant_value  # deferred: expr imports this module
            try:
                v = constant_value(value, p)
            except IneqproveError as exc:
                cause = exc
    if v is None or v._mpf_[3] < 0:  # bc < 0: an infinity or a NaN
        raise ConfigurationError(f"cannot interpret {value!r} as a real number") from cause
    return v


def rational(q: Fraction, prec):
    """The Fraction q rounded once to nearest at binary precision prec, as a libmp tuple."""
    return from_rational(q.numerator, q.denominator, prec, round_nearest)


def exact(values):
    """(integers, low): the finite mpfs ``values`` as integers times 2^low, exactly.

    low is the least exponent of the nonzero values, 0 if all are zero.
    """
    t = [v._mpf_ for v in values]
    low = min([e for _, m, e, _ in t if m], default=0)
    return [((-m if sign else m) << (e - low)) if m else 0 for sign, m, e, _ in t], low


def fraction(value):
    """A finite mpf as the Fraction of the same value."""
    return Fraction(*to_rational(value._mpf_))


def finite_segment(a, b, p: Precision):
    """a and b, finite by ``to_mpf``, rounded to the working context of p, a < b.

    Rounding here, not in ``to_mpf``, keeps the bits of a caller's ambient
    precision out of the proof while the certifier still sees exactly the
    coefficients it is given.
    """
    av, bv = +to_mpf(a, p), +to_mpf(b, p)
    if not av < bv:
        raise ConfigurationError("segment must satisfy a < b")
    return av, bv


def finite_orders(n, m, p: Precision):
    """Root orders n and m, finite by ``to_mpf``, rounded to p's working context, nonnegative."""
    nv, mv = +to_mpf(n, p), +to_mpf(m, p)
    for name, v in (("n", nv), ("m", mv)):
        if v < 0:
            raise ConfigurationError(f"root order {name} must be nonnegative, got {v}")
    return nv, mv


def decimal_str(value, p: Precision) -> str:
    """Deterministic decimal rendering at full working precision."""
    return mpmath.nstr(to_mpf(value, p), p.decimal_digits, strip_zeros=True)
