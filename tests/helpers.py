"""Shared fixtures and frozen reference values for the test suite."""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import count

import mpmath
import pytest
from mpmath import mp
from mpmath.libmp import (
    fone, from_int, from_rational, mpf_add, mpf_div, mpf_exp, mpf_gt, mpf_mul, mpf_neg,
    mpf_pow_int, mpf_sub, round_floor as down, round_nearest as rn, to_fixed,
)

from ineqprove import DomainError, Precision, quadrature, to_mpf
from ineqprove.precision import GUARD_DIGITS, context, kurepa_floor
from ineqprove.quadrature import (
    MAX_ORDER, _GUARD_BITS, _LEFT_SPAN, _Table, _b, _bounds, _discretization, _remainder,
    _series, _share,
)
from ineqprove.expr import (
    BinaryOp,
    Constant,
    KurepaNode,
    NamedConstant,
    UnaryOp,
    Variable,
)

# Pinned hashes of reports and quadrature tables depend on the arithmetic
# library; they hold for the mpmath version and backend they were recorded
# with, and tests that compare them are skipped under another one.
RECORDED_WITH = ("1.3.0", "python")
requires_recorded_mpmath = pytest.mark.skipif(
    (mpmath.__version__, mpmath.libmp.BACKEND) != RECORDED_WITH,
    reason="hashes were recorded with mpmath %s on the %s backend" % RECORDED_WITH,
)

# Independently computed reference values for the Kurepa integrals
# (tanh-sinh quadrature of the defining integrals plus a Newton root for the
# inflection point, at 40 digits; regenerate with tests/reference_oracle.py).
K_HALF = "0.5621865458988268638098252347126581000629"
KP0 = "1.432205734653224414811031006214889079479"
KPP0 = "-1.92664237918118435964409053110564992328"
KPPP0 = "6.163112789651740736462933542452474400223"
C_INFLECT = "0.9298756848087216524174230438346545443014"
KP0_TIMES_C = "1.331773288297645343858372160678385006729"

# Trigonometric form of the arcsin bound: substituting x = sin(t) into
# RHS - arcsin(x) clears the square roots, giving an entire function of t on
# [0, pi/2] with a triple root at 0 and a simple root at pi/2.
TRIG_ARCSIN_SOURCE = (
    "2*(pi*(2-sqrt2)/(pi-2*sqrt2))*sin(x/2)"
    " - x*((sqrt2*(4-pi)/(pi-2*sqrt2)) + 2*cos(x/2))"
)

# Right-hand side of the algebraic arcsin bound, entered with exact
# symbolic constants in pi and sqrt2.
ARCSIN_RHS_SOURCE = (
    "(pi*(2-sqrt2)/(pi-2*sqrt2))*(sqrt(1+x) - sqrt(1-x))"
    " / ((sqrt2*(4-pi)/(pi-2*sqrt2)) + sqrt(1+x) + sqrt(1-x))"
)
ARCSIN_DIFF_SOURCE = f"{ARCSIN_RHS_SOURCE} - arcsin(x)"


def frac_source(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"({value.numerator}/{value.denominator})"


def planted_endpoint_polynomial(rng):
    """Random polynomial with known root multiplicities at 0 and 1.

    Builds f(x) = x^n (1-x)^m q(x) with a random q bounded away from zero at
    both endpoints, so the exact endpoint limits are alpha = q(0), beta = q(1).
    Returns (source_text, n, m, alpha, beta) with exact Fraction limits.
    """
    n = rng.randint(0, 3)
    m = rng.randint(0, 3)
    while True:
        coeffs = [Fraction(rng.randint(-8, 8), rng.choice((1, 2, 4)))
                  for _ in range(rng.randint(1, 4))]
        q0 = coeffs[0]
        q1 = sum(coeffs)
        if abs(q0) >= Fraction(1, 4) and abs(q1) >= Fraction(1, 4):
            break
    parts = []
    if n:
        parts.append(f"x^{n}" if n > 1 else "x")
    if m:
        parts.append(f"(1-x)^{m}" if m > 1 else "(1-x)")
    q_src = " + ".join(
        f"{frac_source(c)}*x^{i}" if i > 1 else (f"{frac_source(c)}*x" if i == 1 else frac_source(c))
        for i, c in enumerate(coeffs)
    )
    parts.append(f"({q_src})")
    source = "*".join(parts)
    return source, n, m, q0, q1


def as_mpf(text):
    return mpmath.mpf(text)


def ambient(p):
    """The global mp at p's working precision, for a test's own arithmetic.

    The package never reads it; a test that computes beside the package
    sets it itself.
    """
    return mp.workdps(p.decimal_digits + GUARD_DIGITS)


def reference_evaluate(e, x, p):
    """e at x by a walk of the mp tree at working precision p.

    The evaluator the package used before it compiled expressions, kept as
    the oracle that the compiled evaluator must match bit for bit, errors
    and their messages included.  It computes in the global mp, raised to
    p's working precision; values of the package enter it with their bits.
    """
    with ambient(p):
        return _walk(e.root, mp.convert(to_mpf(x, p)), p)


def _once(q):
    # a rational rounded once to nearest at the global mp's precision
    return mp.make_mpf(from_rational(q.numerator, q.denominator, mp.prec, rn))


def _walk(node, x, p):
    if isinstance(node, Constant):
        return _once(node.value)
    if isinstance(node, Variable):
        return x
    if isinstance(node, NamedConstant):
        if node.name == "pi":
            return +mp.pi
        if node.name == "e":
            return +mp.e
        return mp.sqrt(2)
    if isinstance(node, UnaryOp):
        v = _walk(node.child, x, p)
        op = node.op
        if op == "neg":
            return -v
        if op == "sqrt":
            if v < 0:
                raise DomainError(f"sqrt of negative value {v}")
            return mp.sqrt(v)
        if op == "exp":
            return mp.exp(v)
        if op == "log":
            if v <= 0:
                raise DomainError(f"log of non-positive value {v}")
            return mp.log(v)
        if op == "sin":
            return mp.sin(v)
        if op == "cos":
            return mp.cos(v)
        if op == "arcsin":
            if v < -1 or v > 1:
                raise DomainError(f"arcsin argument {v} outside [-1, 1]")
            return mp.asin(v)
        if op == "arctan":
            return mp.atan(v)
        raise DomainError(f"unsupported unary operator {op!r}")
    if isinstance(node, BinaryOp):
        l = _walk(node.left, x, p)
        op = node.op
        if op == "pow":
            q = node.right.value
            if l > 0:
                return mp.power(l, _once(q))
            if l == 0:
                if q > 0:
                    return mp.mpf(0)
                raise DomainError("zero base with non-positive exponent")
            if q.denominator == 1:
                return mp.power(l, q.numerator)
            raise DomainError(f"negative base {l} with non-integer exponent {q}")
        r = _walk(node.right, x, p)
        if op == "add":
            return l + r
        if op == "sub":
            return l - r
        if op == "mul":
            return l * r
        if op == "div":
            if r == 0:
                raise DomainError("division by zero")
            return l / r
        raise DomainError(f"unsupported binary operator {op!r}")
    if isinstance(node, KurepaNode):
        # the quadrature checks the argument and the order
        v = _walk(node.child, x, p)
        if node.order == 0:
            return mp.convert(quadrature.kurepa(v, p).value)
        return mp.convert(quadrature.kurepa_derivative(v, node.order, p).value)
    raise TypeError(f"not an expression node: {node!r}")


def fraction(value):
    return Fraction(*mpmath.libmp.to_rational(mpmath.mpf(value)._mpf_))


def exact_taylor(P, lo, hi):
    """Exact coefficients of P(lo + (hi - lo)*s) in powers of s, by Clenshaw on polynomials."""
    a, b = (fraction(v) for v in P.segment)
    u = [(2 * lo - a - b) / (b - a), 2 * (hi - lo) / (b - a)]  # u as a polynomial in s

    def add(*polys):
        out = [Fraction(0)] * max(len(q) for q in polys)
        for q in polys:
            for i, v in enumerate(q):
                out[i] += v
        return out

    def times_u(q, factor):
        out = [Fraction(0)] * (len(q) + 1)
        for i, v in enumerate(q):
            out[i] += factor * u[0] * v
            out[i + 1] += factor * u[1] * v
        return out

    b1, b2 = [Fraction(0)], [Fraction(0)]
    coeffs = [fraction(c) for c in P.coefficients]
    for cj in reversed(coeffs[1:]):
        b1, b2 = add(times_u(b1, 2), [-v for v in b2], [cj]), b1
    # each step multiplies by u, so the last entry is the zero of an empty b1
    return add(times_u(b1, 1), [-v for v in b2], [coeffs[0]])[:len(coeffs)]


def clenshaw_reference(P, x):
    """P(x) = sum c_j T_j(u), exact on Fractions and rounded once to nearest.

    u = (2x - a - b)/(b - a) is formed as the package forms it, each step
    rounded to the segment's precision; T_j(u) comes from the three-term
    recurrence on Fractions, and the sum is rounded to the segment's
    precision.  The test oracle for ``Polynomial.evaluate`` and the residual
    sweep.
    """
    lm = mpmath.libmp
    ctx = P.segment[0].context
    prec, rn = ctx.prec, lm.round_nearest
    a, b = (v._mpf_ for v in P.segment)
    x = ctx.convert(x)._mpf_
    u = Fraction(*lm.to_rational(lm.mpf_div(
        lm.mpf_sub(lm.mpf_sub(lm.mpf_mul_int(x, 2, prec, rn), a, prec, rn), b, prec, rn),
        lm.mpf_sub(b, a, prec, rn), prec, rn)))
    total, t0, t1 = Fraction(0), Fraction(1), u
    for c in P.coefficients:
        total += _rational(c) * t0
        t0, t1 = t1, 2 * u * t1 - t0
    return ctx.make_mpf(lm.from_rational(total.numerator, total.denominator, prec, rn))


def gauss_jordan(rows):
    """The solution of the square system whose augmented rows are ``rows``, on Fractions.

    Plain Gauss-Jordan elimination, the first nonzero entry of each column
    its pivot; raises ``ZeroDivisionError`` if the system is singular.  The
    test oracle for the Remez levelled solve.
    """
    m = [[Fraction(v) for v in row] for row in rows]
    for c in range(len(m)):
        r = next((r for r in range(c, len(m)) if m[r][c]), c)
        m[c], m[r] = m[r], m[c]
        m[c] = [v / m[c][c] for v in m[c]]
        for i, row in enumerate(m):
            if i != c:
                m[i] = [v - row[c] * w for v, w in zip(row, m[c])]
    return [row[-1] for row in m]


def _rational(v):
    # an mpf's exact value, whatever its context
    return Fraction(*mpmath.libmp.to_rational(v._mpf_))


def quadrature_memos():
    """Every memoized function of ``ineqprove.quadrature``, by name."""
    return {name: f for name, f in vars(quadrature).items()
            if hasattr(f, "cache_clear") and f.__module__ == quadrature.__name__}


def clear_quadrature_memos():
    """Empty every quadrature memo, so that the next call builds all it uses."""
    for memo in quadrature_memos().values():
        memo.cache_clear()


# q, the right cut-off and the weight and series table of one band by plain
# searches, where the package takes q from the band's highest order alone,
# e^(k/q) from a chain, and q, R and the series length from a guess: q the
# least at which all four orders meet the band's share, every R and every
# length in turn, and one direct exponential per node.  The oracles of
# ``quadrature._steps``, ``quadrature._right`` and ``quadrature._table``,
# which must give the same q, R and table.

@lru_cache(maxsize=None)
def reference_steps(digits, band):
    """q: the least count of nodes per unit of s that meets the target on band <= x <= band + 1.

    The discretization bound of every order must be at most a quarter of
    10^-(digits+3) max(1, K(band)), K(band) the sum of i! over i < band,
    K's least value on the band.
    """
    share = _share(digits, max(1, sum(map(math.factorial, range(band)))))
    return next(q for q in count(1)
                if not any(mpf_gt(_discretization(j, band, q), share)
                           for j in reversed(range(MAX_ORDER + 1))))


def reference_right(digits, band):
    """(R, bound, t at R): the right cut-off on band <= x <= band + 1, by a search over every R.

    R is the first from T = e^(R/q) >= max(x + MAX_ORDER + 3, 2(digits + 3))
    whose tail bound at x = band + 1 and j = MAX_ORDER is a quarter of
    10^-(digits+3) or less.
    """
    q, x, j, share = reference_steps(digits, band), band + 1, MAX_ORDER, _share(digits)
    R = math.ceil(q * math.log(max(x + j + 3, 2 * (digits + 3))))
    while True:
        bound = reference_tail(j, band, q, R)
        if not mpf_gt(bound, share):
            prec = context(Precision(digits)).prec
            return R, bound, mpf_exp(from_rational(R, q, prec, rn), prec, rn)
        R += 1


def reference_tail(j, band, q, R):
    """The bound on order j's terms past R at x = band + 1, as ``quadrature._right`` takes it."""
    x = band + 1
    s_lo, s_hi = _b(from_rational, R, q, rnd=down), _b(from_rational, R, q)
    T = _b(mpf_exp, s_lo, rnd=down)
    slope = _b(mpf_add, _b(mpf_div, from_int(x), T),
               _b(mpf_div, from_int(j), _b(mpf_mul, T, s_lo, rnd=down)))
    rise = _b(mpf_exp, _b(mpf_sub, _b(mpf_mul, from_int(x), s_hi), T))
    return _b(mpf_div, _b(mpf_mul, rise, _b(mpf_pow_int, s_hi, j)),
              _b(mpf_mul, _b(mpf_sub, T, fone, rnd=down), _b(mpf_sub, fone, slope, rnd=down),
                 rnd=down))


def reference_table(digits, band):
    """The weights and series of one band's sum, each e^(k/q) a direct exponential.

    The band's q, its cut-off R = ``high`` with its ``cutoff`` t; ``frac``
    64 bits past the working precision and the bits of t^(band+1), a direct
    exponential; ``orders[j]`` holds T_k k^j for k = -left .. high, T_k
    within a unit of W_k 2^frac and T_0 of h/e; ``terms`` (e^(-(n+1)/q), c_n)
    per series term; ``betas[j]`` the beta_i, highest first, of
    (K+1+l)^j = sum_i beta_i C(l+i, i); ``nought`` the j = 0 series at
    x = 0 less sum_k T_k 2^frac; the series' remainders, the target, and
    ``quadrature._bounds`` of them all.
    """
    q = reference_steps(digits, band)
    high, tail, cutoff = reference_right(digits, band)
    prec = context(Precision(digits)).prec
    ctx = mpmath.MPContext()
    ctx.prec = 4 * _GUARD_BITS
    growth = int(ctx.ceil(ctx.exp(ctx.mpf((band + 1) * high) / q))).bit_length()
    frac = prec + _GUARD_BITS + growth
    wide, left = frac + 20, _LEFT_SPAN * q

    def fixed(v, scale=q):
        return (to_fixed(mpf_div(v, from_int(scale), wide, rn), frac + 1) + 1) >> 1

    def exp_ratio(num, den):
        return mpf_exp(from_rational(num, den, wide, rn), wide, rn)

    weights = []
    for k in range(-left, high + 1):
        t = exp_ratio(k, q)
        weights.append(fixed(mpf_div(mpf_mul(t, mpf_exp(mpf_neg(t), wide, rn), wide, rn),
                                     mpf_sub(t, fone, wide, rn), wide, rn) if k
                             else exp_ratio(-1, 1)))
    orders = tuple(tuple(w * k ** j for k, w in zip(range(-left, high + 1), weights))
                   for j in range(MAX_ORDER + 1))
    share = _share(digits)
    size = next(n for n in count() if not mpf_gt(_remainder(MAX_ORDER, n, q, left), share))
    terms, derangements = [], 1
    for n in range(size):
        derangements = n * derangements + (-1) ** n if n else 1
        a = from_rational(derangements, math.factorial(n), wide, rn)
        terms.append((fixed(exp_ratio(-(n + 1), q), 1),
                      fixed(mpf_mul(a, exp_ratio(-(n + 1) * (left + 1), q), wide, rn))))
    betas = tuple(tuple(sum((-1) ** m * math.comb(i, m) * (left - m) ** j for m in range(i + 1))
                        for i in reversed(range(j + 1))) for j in range(MAX_ORDER + 1))
    one = 1 << frac
    at_zero = [_series(terms, b, q, left, frac, one, one) for b in betas]
    remainder = tuple(_remainder(j, size, q, left) for j in range(MAX_ORDER + 1))
    return _Table(q, frac, left, high, cutoff, orders, tuple(terms), betas,
                  at_zero[0][0] - (sum(orders[0]) << frac), remainder,
                  kurepa_floor(Precision(digits), prec),
                  _bounds(band, q, frac, growth, left, high, tail, [u for _, u in at_zero],
                          remainder))


# The trapezoidal sum of the Kurepa integrals as the package lays it out,
# each term evaluated directly on mpf objects at twice the package's bits.

def _li(r, j):
    # sum over m >= 1 of m^j r^m, the polylogarithm of order -j
    numer = (1, 1, 1 + r, 1 + 4 * r + r * r)[j]
    return r * numer / (1 - r) ** (j + 1)


def reference_trapezoid(x, j, p):
    """K^(j)(x) by the package's trapezoidal sum, with its q and cut-off, at twice its bits.

    Every weight h w(k/q) and every e^(xk/q) is evaluated directly, and the
    series left of the nodes takes each geometric sum from the closed form
    of the polylogarithm of order -j, all at twice the package's fraction
    bits, and the sum is returned with all of them, as an mpf of the working
    context.  The oracle of the package's integer table, Horner sums and series.
    """
    xr = to_mpf(x, p)._mpf_
    # an integer x takes the band below it
    table = quadrature._table(p.decimal_digits, max(0, int(mpmath.ceil(mpmath.mpf(xr))) - 1))
    ctx = mpmath.MPContext()
    ctx.prec = 2 * table.frac
    q, left, high, x = table.q, table.left, table.high, ctx.make_mpf(xr)
    total = ctx.mpf(0)
    for k in range(-left, high + 1):
        s = ctx.mpf(k) / q
        if k == 0:
            total += (x if j == 0 else int(j == 1)) / (q * ctx.e)
            continue
        t = ctx.exp(s)
        total += t * ctx.exp(-t) / (t - 1) / q * (s ** j * ctx.exp(x * s) - (j == 0))
    a = ctx.mpf(0)
    for n in range(len(table.terms)):
        a += ctx.mpf(-1) ** n / ctx.factorial(n)
        tails = []
        for y in (x, ctx.zero) if j == 0 else (x,):
            r = ctx.exp(-(n + 1 + y) / q)
            tails.append(_li(r, j) - sum(ctx.mpf(m) ** j * r ** m for m in range(1, left + 1)))
        tail = tails[0] - tails[1] if j == 0 else tails[0]
        total -= a / q * (-ctx.mpf(1) / q) ** j * tail
    return context(p).make_mpf(total._mpf_)
