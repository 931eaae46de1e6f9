"""Second Remez exchange algorithm for minimax polynomial approximation.

Polynomials are kept in the Chebyshev basis of their segment for
conditioning; a monomial-basis view is available for reporting.  The
change of basis, either way, is exact on rationals through one integer
table of the shifted Chebyshev polynomials, and rounded once.  Each
iteration solves the levelled interpolation system

    g(t_i) = P(t_i) + (-1)^i h,        i = 0..k+1

exactly: each row goes on integers by a power of two, fraction-free
(Bareiss) elimination solves them, and each unknown is rounded once.  It
then replaces all k+2 reference points with refined local extrema of the
residual (multi-point exchange, the variant with quadratic convergence for
smooth g).  Extrema are located on a dense
grid of ``grid_multiplier * (k+2) + 1`` Chebyshev extremum points and
polished by Brent's parabolic-plus-golden search to a bracket of width
(b-a)*1e-12; an extremum at a grid end costs one probe when the residual
falls away from the end.

Chebyshev grids nest: the grid with ``c`` times as many intervals holds a
grid at every c-th point, bit for bit, because each angle pi*i/(count-1)
is taken in lowest terms.  Each grid is built once, as a table of its
points and their u = (2x - a - b)/(b - a), memoized per (a, b, count,
context, precision); a table of an even interval count takes its even
points and their u, the same objects, from the table of half as many, and
computes cosines for its new points only.  The memo keeps 64 tables: a
proof uses up to 10 (the Remez grid's halving chain, 193 -> 97 -> ... -> 4
at k = 1, the residual grid and the node grid), and a batch of mixed
proofs, such as a round of the benchmark's ``elementary_mix``, 45 to 54.

The sweep stays on libmp tuples.  ``minimax`` fetches g on its grid once,
in grid order, and each iteration forms every g - P by ``residual_sweep``,
with u read from the grid's table.  P(x) is the exact sum of c_j T_j(u), u
as ``_units`` rounds it, rounded once to nearest, and g - P is rounded once
more, as ``mpf_sub`` rounds it.  Each residual, and ``evaluate``'s P, is
one integer pass of the one Clenshaw loop (``Polynomial._residual``):
in fixed point at prec + 64 bits, whose error is under k + 1 units for
|u| <= 1, it gives P's rounding where its value less and plus that bound
round alike (Ziv's rounding test), and g - P is formed on integers and
rounded once; elsewhere the same loop runs exact, its integers growing by
about u's fraction bits per degree plus the coefficients' exponent spread.
Magnitudes are compared as integer keys (``magnitude_keys``), formed once
per sweep; the exchange and its Brent polisher step on tuples, rounding to
nearest as mpf arithmetic of the same precision does, and make mpfs only
where g is called and for the extrema.
``minimax`` returns a map of the residuals of its last iteration, on the
grid and at the nodes, and the residual check takes every sample it finds
there instead of computing it again: on the proof's residual grid, twice as
dense as the Remez grid, the even points and the nodes.

Convergence is judged by the de la Vallee-Poussin sandwich: the residual
magnitudes at the exchanged points bound the true minimax error from below,
the grid maximum bounds it from above, and iteration stops when their
relative gap falls under ``TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, cmp_to_key, lru_cache
from operator import itemgetter, mul

import mpmath
from mpmath.ctx_mp_python import _mpf
from mpmath.libmp import (
    from_int, from_man_exp, fzero, mpf_abs, mpf_add, mpf_cmp, mpf_div, mpf_ge,
    mpf_gt, mpf_le, mpf_lt, mpf_mul, mpf_mul_int, mpf_neg, mpf_shift, mpf_sqrt, mpf_sub,
    round_nearest,
)

from .errors import ConfigurationError, ConvergenceError, SingularSystemError
from .precision import (
    Precision, context, exact, finite_segment, fraction, integer, rational,
    resolution_floor, rounding_floor, to_mpf,
)

REFINE_WIDTH_FACTOR = "1e-12"
# minimax's stopping tolerance, its grid multiplier (the proof pipeline's
# default too), and its iteration cap; minimax reads them at call time
TOL, GRID_MULTIPLIER, MAX_ITERATIONS = "1e-12", 64, 50
# grid tables kept: up to 10 per proof, and 45 to 54 (about 1 MiB) for a
# round of mixed proofs, which a smaller memo evicts every round
_TABLE_LIMIT = 64


@dataclass(frozen=True)
class Polynomial:
    """Polynomial in the Chebyshev basis of ``segment``: sum c_j T_j(u)."""

    coefficients: tuple
    segment: tuple

    def __post_init__(self):
        if not self.coefficients:
            raise ConfigurationError("a polynomial needs at least one coefficient, got none")
        # every method reads the fields' bits and the segment's context
        for what, values in (("coefficient", self.coefficients), ("segment end", self.segment)):
            for v in values:
                if not isinstance(v, _mpf) or v._mpf_[3] < 0:  # bc < 0: not finite
                    raise ConfigurationError(
                        f"a polynomial's {what} must be a finite mpf, got {v!r}")
        if not self.segment[0] < self.segment[1]:
            raise ConfigurationError("segment must satisfy a < b")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def evaluate(self, x):
        """P(x) in the segment's context: -``_residual(0, u)`` at x's u; 0 - P is exact."""
        ctx = self.segment[0].context
        return ctx.make_mpf(mpf_neg(self._residual(fzero, self._unit(ctx.convert(x)._mpf_))))

    @cached_property
    def _residual(self):
        """(g, u) -> g - P(u) on libmp tuples, u finite: the exact sum P rounded, then g - P.

        The one Clenshaw loop: b_k = 2u b_(k+1) - b_(k+2) + c_k on integers in
        units of 2^lo, u in fixed point on W fraction bits, where the floor of
        each product 2u b_(k+1), and of the last u b_1, acts as a change of that
        step's c_j by less than a unit.  First W = prec + 64, lo <= low (the
        c_j's lowest exponent) at least W bits below the largest |c_j|: for
        |u| <= 1, where |T_j(u)| <= 1, the value V is within E = k + 1 units of
        the sum; if V - E and V + E round alike at prec bits, in one binade and
        one rounding cell, P rounds so too (Ziv's test), and g - P is formed on
        integers and rounded once by ``_normal``.  Where that cannot decide (a
        tie, |u| > 1, u below 2^-W, or g not finite) the loop runs exact, W one
        bit past u's fraction bits and lo = low - kW: each step's 2u b keeps a
        whole number of units, b_j a multiple of 2^(jW), so E = 0.
        """
        prec, rn = self.segment[0].context.prec, round_nearest
        (c0, *rest), low = exact(self.coefficients)
        rest.reverse()
        k, err = len(rest), len(rest) + 1
        # units of 2^lo: at least W bits below the largest |c_j|, and none above low
        shift = max(0, prec + 64 - max(abs(c).bit_length() for c in (c0, *rest)))
        fixed = prec + 64, low - shift, c0 << shift, [c << shift for c in rest]

        def residual(g, u):
            sign, m, e, bc = u
            if bc < 0:
                raise ConfigurationError("P is evaluated at finite points only")
            w, lo, d0, ds = fixed
            exact_pass = e < -w or e + bc > 0 and (m != 1 or e) or g[3] < 0
            while True:
                if exact_pass:
                    w = max(0, -e) + 1
                    lo, d0, ds = low - k * w, c0 << k * w, [c << k * w for c in rest]
                t = (-m if sign else m) << e + w
                b1 = b2 = 0
                for c in ds:
                    b1, b2 = (t * b1 >> w - 1) - b2 + c, b1
                v = (t * b1 >> w) - b2 + d0
                if exact_pass:
                    return mpf_sub(g, _normal(v, lo, prec) if v else fzero, prec, rn)
                below, above = abs(v) - err, abs(v) + err
                n = above.bit_length() - prec
                if below > 0 and n > 0 and below.bit_length() == above.bit_length() and \
                        below + (1 << n - 1) >> n == (q := above + (1 << n - 1) >> n):
                    # g - P on integers, P = +-q 2^(lo + n)
                    gs, gm, ge, _ = g
                    pe, pm, gm = lo + n, (-q if v < 0 else q), (-gm if gs else gm)
                    d, de = ((gm << ge - pe) - pm, pe) if ge >= pe else (gm - (pm << pe - ge), ge)
                    return _normal(d, de, prec) if d else fzero
                exact_pass = True

        return residual

    @cached_property
    def _unit(self):
        """t -> u of a libmp tuple t, as ``_units`` rounds it, once per polynomial."""
        return _unit_map(self.segment)

    def to_monomial(self, p: Precision = Precision()):
        """Coefficients (low to high) of the same polynomial in powers of x.

        Exact, then rounded once to p's working precision: the basis table
        gives the powers of t = (x - a)/(b - a), an affine shift on
        Fractions those of x.
        """
        a, b = (fraction(v) for v in self.segment)
        power = chebyshev_to_power([fraction(c) for c in self.coefficients])
        return _rounded(_shift(power, -a / (b - a), 1 / (b - a)), p)

    @staticmethod
    def from_monomial(coefficients, a, b, p: Precision = Precision()) -> "Polynomial":
        """Chebyshev form of a monomial-basis polynomial on [a, b].

        Exact, then rounded once to p's working precision: an affine shift on
        Fractions gives the powers of t = (x - a)/(b - a), back-substitution
        on the triangular basis table the Chebyshev coefficients.
        """
        av, bv = finite_segment(a, b, p)
        a, b = fraction(av), fraction(bv)
        power = _shift([fraction(to_mpf(c, p)) for c in coefficients], a, b - a)
        cheb = []
        for row in reversed(_shifted_chebyshev(len(power) - 1)):
            cheb.append(power[len(row) - 1] / row[-1])
            # eliminate T_j, and with it the top power
            power = [u - cheb[-1] * v for u, v in zip(power, row[:-1])]
        return Polynomial(coefficients=_rounded(reversed(cheb), p), segment=(av, bv))


def _normal(n, exp, prec):
    """n 2^exp, n a nonzero integer, rounded to nearest at prec bits as libmp's ``normalize`` does.

    Ties go to the even mantissa, and the tuple's mantissa is odd.
    """
    sign, man = (1, -n) if n < 0 else (0, n)
    shift = man.bit_length() - prec
    if shift > 0:
        t = man >> shift - 1
        man = (t >> 1) + 1 if t & 1 and (t & 2 or man & (1 << shift - 1) - 1) else t >> 1
        exp += shift
    zeros = (man & -man).bit_length() - 1
    man >>= zeros
    return sign, man, exp + zeros, man.bit_length()


def _shifted_chebyshev(n):
    """The basis table: coefficients (low to high) in powers of t of T_j(2t - 1), j = 0..n.

    The package's one coding of the Chebyshev basis, on integers; row j has
    degree j.
    """
    table = [[1], [-1, 2]]
    while len(table) <= n:
        # T_{j+1} = (4t - 2) T_j - T_{j-1}
        t1, t0 = table[-1], table[-2]
        table.append([4 * u - 2 * v - w for u, v, w in zip([0] + t1, t1 + [0], t0 + [0, 0])])
    return table[:n + 1]


def chebyshev_to_power(cheb):
    """Coefficients in powers of t of sum_j cheb[j] T_j(2t - 1), exact for exact cheb."""
    power = [0] * len(cheb)
    for c, row in zip(cheb, _shifted_chebyshev(len(cheb) - 1)):
        for i, v in enumerate(row):
            power[i] += c * v
    return power


def _shift(coefficients, r, s):
    """Coefficients in y of sum_i coefficients[i] (r + s*y)^i, by Horner's rule."""
    out = []
    for c in reversed(coefficients):
        out = [r * u + s * v for u, v in zip(out + [0], [0] + out)]
        out[0] += c
    return out


def _rounded(values, p: Precision):
    """Rationals rounded once to mpfs of p's working context."""
    ctx = context(p)
    return tuple(ctx.make_mpf(rational(v, ctx.prec)) for v in values)


def _unit_map(segment):
    """t -> u = (2t - a - b)/(b - a) on libmp tuples, each step rounded in the segment's context."""
    prec, rn = segment[0].context.prec, round_nearest
    a, b = (v._mpf_ for v in segment)
    width = mpf_sub(b, a, prec, rn)
    return lambda t: mpf_div(mpf_sub(mpf_sub(mpf_mul_int(t, 2, prec, rn), a, prec, rn), b,
                                     prec, rn), width, prec, rn)


def _units(segment, xs):
    """u = (2x - a - b)/(b - a) of each x in turn, as libmp tuples in the segment's context."""
    convert, unit = segment[0].context.convert, _unit_map(segment)
    return (unit(convert(x)._mpf_) for x in xs)


def residual_sweep(g_values, poly, xs, units=None):
    """g(x) - P(x) at each x of ``xs`` in turn, as libmp tuples.

    ``g_values`` yields each g(x) as a tuple, in order.  ``units`` may hold
    the u of each x, as a grid's table does, in place of ``xs``.  For x and
    g(x) in the context of P's segment, each residual has the bits of
    ``g(x) - poly.evaluate(x)``.
    """
    return map(poly._residual, g_values, _units(poly.segment, xs) if units is None else units)


def magnitude_keys(values, prec):
    """Keys that order |v| of libmp tuples as ``mpf_cmp`` orders them; zero's key, (), is lowest.

    The values must be finite and normalized to at most ``prec`` bits.  The
    key is the binary order of magnitude, then the mantissa aligned to
    ``prec`` bits.
    """
    return ((e + bc, m << (prec - bc)) if m else () for _, m, e, bc in values)


def largest_magnitude(keys, prec):
    """(index, |v|), |v| a tuple, of the first value of largest magnitude, from its keys at prec."""
    i, key = max(enumerate(keys), key=itemgetter(1))
    # the key holds |v| exactly
    return i, from_man_exp(key[1], key[0] - prec) if key else fzero


@dataclass(frozen=True)
class MinimaxResult:
    polynomial: Polynomial
    delta_hat: mpmath.mpf
    nodes: tuple
    # g at each node, as verify_equioscillation reads it
    node_values: tuple
    iterations: int
    levelled_error_history: tuple
    lower_bound: mpmath.mpf
    # x._mpf_ -> g(x) - P(x), as a tuple, on the last Remez grid and at the
    # nodes, for verify_equioscillation and residual_check
    residuals: dict = field(repr=False, compare=False)


@dataclass(frozen=True)
class EquioscillationReport:
    passed: bool
    spread: object
    message: str


class CachedFunction:
    """Memoizing wrapper for the approximated function; counts fresh calls.

    ``values`` maps each ``x._mpf_``, in the order sampled, to (x, g(x)): a
    tuple key needs no mpf hash.  A value of ``fn`` not in the context of its
    argument is rounded into it, unless it is an mpf of a coarser context or a
    float (53 bits): its lost digits would stall Remez, so it is refused.
    """

    def __init__(self, fn):
        self.fn = fn
        self.values = {}
        self.calls = 0

    def __call__(self, x):
        entry = self.values.get(x._mpf_)
        if entry is None:
            v = self.fn(x)
            if type(v) is not type(x):
                bits = 53 if isinstance(v, float) else getattr(v, "context", x.context).prec
                if bits < x.context.prec:
                    raise ConfigurationError(
                        f"g returned a {bits}-bit value for a {x.context.prec}-bit x; "
                        "compute in x.context, as lambda x: x.context.exp(x) does")
                v = x.context.mpf(v)
            entry = self.values[x._mpf_] = x, v
            self.calls += 1
        return entry[1]


@lru_cache(maxsize=_TABLE_LIMIT)
def _chebyshev_table(a, b, count: int, ctx, prec: int):
    """(points, units) of [a, b], libmp tuples a < b, in the context ctx at its precision prec.

    Point i is mid - hw*cos(pi*i/(count-1)), endpoints included, and its u
    is as ``_units`` rounds it.  Each angle is pi times i/(count-1) in
    lowest terms, so grids whose interval counts are multiples of one
    another share points bit for bit.  An even interval count takes its even
    points and their u, the same objects, from the table of half as many
    intervals, and computes cosines for its new points only.  ``prec`` stays
    in the key: mpmath's global ``mp``, whose precision any caller may set,
    is a context too.
    """
    make, rnd = ctx.make_mpf, ctx._prec_rounding[1]
    intervals = count - 1
    points, units = [make(a), *[None] * (intervals - 1), make(b)], [None] * count
    if intervals > 2 and intervals % 2 == 0:
        points[::2], units[::2] = _chebyshev_table(a, b, intervals // 2 + 1, ctx, prec)
    # the points and u of a table share each exponent's int: 15 % less kept
    exponents = {}
    share = lambda t: (t[0], t[1], exponents.setdefault(t[2], t[2]), t[3])
    av, bv = points[0], points[-1]
    mid, hw = ((av + bv) / 2)._mpf_, ((bv - av) / 2)._mpf_
    for i in range(1, intervals):
        if points[i] is None:
            t = Fraction(i, intervals)
            c = ctx.cos(ctx.pi * t.numerator / t.denominator)._mpf_
            points[i] = make(share(mpf_sub(mid, mpf_mul(hw, c, prec, rnd), prec, rnd)))
    new = [i for i, u in enumerate(units) if u is None]
    for i, u in zip(new, _units((av, bv), [points[i] for i in new])):
        units[i] = share(u)
    return tuple(points), tuple(units)


def chebyshev_table(a, b, count):
    """(points, units): ``chebyshev_grid`` and the u of each point, memoized."""
    ctx = a.context
    return _chebyshev_table(a._mpf_, b._mpf_, count, ctx, ctx.prec)


def chebyshev_grid(a, b, count):
    """The ``count`` Chebyshev extremum abscissae of [a, b], endpoints included, in a's context."""
    return chebyshev_table(a, b, count)[0]


def _solve_levelled_system(g, nodes, a, b, p: Precision):
    """Solve g(t_i) = P(t_i) + (-1)^i h for the degree-k polynomial and h.

    ``nodes`` are k+2 strictly increasing mpf points of the mpf segment
    [a, b].  Row i holds T_j(u_i) by the recurrence in a's context, u_i as
    ``_units`` rounds it, then (-1)^i and g(t_i), finite by ``to_mpf``; a
    power of two puts it exactly on integers.  Bareiss' fraction-free
    elimination, a row swap at each zero pivot, solves that system exactly,
    and each unknown is rounded once to nearest in p's working context.
    Only an exactly singular system, as three coincident nodes make, raises
    ``SingularSystemError``.
    """
    k, ctx = len(nodes) - 2, a.context
    rows = []
    for i, (t, u) in enumerate(zip(nodes, map(ctx.make_mpf, _units((a, b), nodes)))):
        basis = [ctx.one, u][:k + 1]
        for _ in range(2, k + 1):
            basis.append(2 * u * basis[-1] - basis[-2])
        rows.append(exact(basis + [ctx.mpf((-1) ** i), to_mpf(g(t), p)])[0])
    n, last = k + 2, 1
    for c in range(n):
        r = next((r for r in range(c, n) if rows[r][c]), None)
        if r is None:
            raise SingularSystemError("levelled system is singular (coincident nodes?)")
        rows[c], rows[r] = rows[r], rows[c]
        pivot = rows[c]
        for i in range(c + 1, n):
            row = rows[i]
            # each division is exact: the entries are minors of the system
            rows[i] = row[:c + 1] + [(pivot[c] * v - row[c] * w) // last
                                     for v, w in zip(row[c + 1:], pivot[c + 1:])]
        last = pivot[c]
    # last is the determinant, and by Cramer's rule each last * x_i an integer
    xs = [0] * n
    for i in reversed(range(n)):
        row = rows[i]
        xs[i] = (last * row[n] - sum(map(mul, row[i + 1:n], xs[i + 1:]))) // row[i]
    solution = _rounded((Fraction(x, last) for x in xs), p)
    return Polynomial(coefficients=solution[:-1], segment=(a, b)), solution[-1]


# sorts (x, phi(x)) pairs of tuples by phi(x)
_BY_VALUE = cmp_to_key(lambda s, t: mpf_cmp(s[1], t[1]))


@lru_cache(maxsize=16)
def _golden(prec):
    """(3 - sqrt(5))/2, the golden-section step, each step rounded to nearest at prec."""
    rn = round_nearest
    return mpf_shift(mpf_sub(from_int(3), mpf_sqrt(from_int(5), prec, rn), prec, rn), -1)


def _polish_max(phi, lo, hi, width_tol, known, prec):
    """Brent's parabolic-plus-golden maximization of phi on [lo, hi], on libmp tuples.

    ``known`` holds (x, phi(x)) at the bracket ends and, for an interior
    extremum, first at the grid point between them, whose parabola is the
    first step.  Stops once the bracket around the best point is at most
    ``width_tol`` wide; returns the best (x, phi(x)) seen, known points
    included.  When the best known point is an end of the bracket, one probe
    ``width_tol`` inside it decides: if phi is no higher there, then under
    unimodality the maximizer lies within ``width_tol`` of that end, which
    is returned.  Every step rounds to nearest at ``prec``, as mpf arithmetic
    of that precision does; doubling, halving and quartering are exact shifts.
    """
    rn = round_nearest
    ranked = sorted(known, key=_BY_VALUE, reverse=True)
    (x, fx), (w, fw) = ranked[0], ranked[1]
    if mpf_le(mpf_sub(hi, lo, prec, rn), width_tol):
        return x, fx
    if x == lo or x == hi:
        u = mpf_add(lo, width_tol, prec, rn) if x == lo else mpf_sub(hi, width_tol, prec, rn)
        fu = phi(u)
        if mpf_le(fu, fx):
            return x, fx
        (v, fv), (w, fw), (x, fx) = (w, fw), (x, fx), (u, fu)
    else:
        v, fv = ranked[2]
    golden = _golden(prec)
    # least step; at a quarter of the width, every probe lands at least one
    # step inside a bracket wider than width_tol, so the bracket shrinks
    step_tol = mpf_shift(width_tol, -2)
    two_steps = mpf_shift(step_tol, 1)
    a, b = lo, hi
    # as if the last two steps had spanned the bracket, so that the first
    # two steps may be parabolic
    d = e = mpf_sub(b, a, prec, rn)
    while mpf_gt(mpf_sub(b, a, prec, rn), width_tol):
        # x below the midpoint
        below = mpf_lt(x, mpf_shift(mpf_add(a, b, prec, rn), -1))
        parabolic = False
        if mpf_gt(mpf_abs(e), step_tol):
            xw, xv = mpf_sub(x, w, prec, rn), mpf_sub(x, v, prec, rn)
            r = mpf_mul(xw, mpf_sub(fx, fv, prec, rn), prec, rn)
            q = mpf_mul(xv, mpf_sub(fx, fw, prec, rn), prec, rn)
            s = mpf_sub(mpf_mul(xv, q, prec, rn), mpf_mul(xw, r, prec, rn), prec, rn)
            q = mpf_shift(mpf_sub(q, r, prec, rn), 1)
            if mpf_gt(q, fzero):
                s = mpf_neg(s)
            else:
                q = mpf_neg(q)
            r, e = e, d
            if mpf_lt(mpf_abs(s), mpf_abs(mpf_shift(mpf_mul(q, r, prec, rn), -1))) and \
                    mpf_lt(mpf_mul(q, mpf_sub(a, x, prec, rn), prec, rn), s) and \
                    mpf_lt(s, mpf_mul(q, mpf_sub(b, x, prec, rn), prec, rn)):
                parabolic = True
                d = mpf_div(s, q, prec, rn)
                if mpf_lt(mpf_sub(mpf_add(x, d, prec, rn), a, prec, rn), two_steps) or \
                        mpf_lt(mpf_sub(mpf_sub(b, x, prec, rn), d, prec, rn), two_steps):
                    d = step_tol if below else mpf_neg(step_tol)
        if not parabolic:
            e = mpf_sub(b, x, prec, rn) if below else mpf_sub(a, x, prec, rn)
            d = mpf_mul(golden, e, prec, rn)
        if mpf_lt(mpf_abs(d), step_tol):
            u = mpf_add(x, step_tol if mpf_gt(d, fzero) else mpf_neg(step_tol), prec, rn)
        else:
            u = mpf_add(x, d, prec, rn)
        fu = phi(u)
        if mpf_ge(fu, fx):
            if mpf_lt(u, x):
                b = x
            else:
                a = x
            (v, fv), (w, fw), (x, fx) = (w, fw), (x, fx), (u, fu)
        else:
            if mpf_lt(u, x):
                a = u
            else:
                b = u
            if mpf_ge(fu, fw):
                (v, fv), (w, fw) = (w, fw), (u, fu)
            elif mpf_ge(fu, fv):
                v, fv = u, fu
    return x, fx


def _exchange_core(g, poly, grid, rs, keys, current_nodes):
    """(nodes, residuals) of the next reference, from the residuals ``rs`` at the grid points.

    ``rs`` are libmp tuples, not all zero, and ``keys`` their
    ``magnitude_keys``; ``current_nodes`` is the strictly increasing
    reference P was solved on.  The candidates are the grid
    points whose magnitude is at least their neighbours'; mpfs are made only
    where g is called and for the extrema polishing finds.
    """
    a, b = poly.segment
    ctx = a.context
    prec, make = ctx.prec, ctx.make_mpf
    k = poly.degree
    required = k + 2
    width_tol = ((b - a) * ctx.mpf(REFINE_WIDTH_FACTOR))._mpf_
    count = len(grid)

    # () is the lowest key: the grid ends have one neighbour each
    candidates = [i for i, (left, r, right) in enumerate(zip([()] + keys, keys, keys[1:] + [()]))
                  if r and r >= left and r >= right]

    refined = []
    for i in candidates:
        negative = rs[i][0] == 1

        def phi(t, _negative=negative):
            x = make(t)
            r = poly._residual(g(x)._mpf_, poly._unit(t))
            return mpf_neg(r) if _negative else r

        known = [(grid[j]._mpf_, mpf_neg(rs[j]) if negative else rs[j])
                 for j in (i, i - 1, i + 1) if 0 <= j < count]
        lo, hi = grid[max(i - 1, 0)]._mpf_, grid[min(i + 1, count - 1)]._mpf_
        x_best, v_best = _polish_max(phi, lo, hi, width_tol, known, prec)
        if mpf_gt(v_best, fzero):
            sign = -1 if negative else 1
            refined.append((make(x_best), make(mpf_neg(v_best) if negative else v_best), sign))

    refined.sort(key=lambda item: item[0])
    merged = []
    for x, r, s in refined:
        if merged and merged[-1][2] == s:
            if abs(r) > abs(merged[-1][1]):
                merged[-1] = (x, r, s)
        else:
            merged.append((x, r, s))

    if len(merged) < required:
        # degenerate residual (fewer alternations than the reference needs,
        # e.g. a levelled solve with h = 0 on a symmetric function): fall
        # back to single-point exchange, swapping the global extremum into
        # the nearest point of the current reference.  merged is not empty:
        # the first grid point of largest nonzero residual is a candidate, and
        # polishing never returns less.  x_star replaces its nearest node, the
        # node itself if x_star is one, so the sorted nodes stay distinct
        x_star = max(merged, key=lambda item: abs(item[1]))[0]
        nodes = [+t for t in current_nodes]
        nearest = min(range(len(nodes)), key=lambda j: abs(nodes[j] - x_star))
        nodes[nearest] = x_star
        nodes.sort()
        return tuple(nodes), tuple(map(make, residual_sweep(
            (g(t)._mpf_ for t in nodes), poly, nodes)))
    while len(merged) > required:
        if abs(merged[0][1]) <= abs(merged[-1][1]):
            merged.pop(0)
        else:
            merged.pop()

    return tuple(+x for x, _, _ in merged), tuple(+r for _, r, _ in merged)


def minimax(g, a, b, k: int, p: Precision = Precision(),
            grid_multiplier: int = GRID_MULTIPLIER) -> MinimaxResult:
    """Minimax degree-k polynomial approximation of g on [a, b], to relative gap ``TOL``.

    Returns the polynomial, the error estimate ``delta_hat`` (the largest
    observed residual, the upper side of the de la Vallee-Poussin sandwich),
    the k+2 equioscillation nodes, and the sandwich's lower bound.  p must
    resolve ``TOL``.

    ``g`` receives mpfs of p's working context and should compute in it,
    ``lambda x: x.context.exp(x)``: ``mpmath.exp`` uses the ambient precision.
    """
    integer(k, "degree", 0)
    integer(grid_multiplier, "grid_multiplier", 1)
    av, bv = finite_segment(a, b, p)
    tol = to_mpf(TOL, p)
    if tol < resolution_floor(p):
        raise ConfigurationError(
            f"tol={TOL} is below what {p.decimal_digits}-digit arithmetic can resolve"
        )
    gc = g if isinstance(g, CachedFunction) else CachedFunction(g)
    ctx = av.context
    prec, make = ctx.prec, ctx.make_mpf
    grid, units = chebyshev_table(av, bv, grid_multiplier * (k + 2) + 1)
    nodes = chebyshev_grid(av, bv, k + 2)
    # g on the grid, fetched once, in grid order
    g_grid = [gc(x)._mpf_ for x in grid]
    # |g| as abs() rounds it
    g_max = largest_magnitude(magnitude_keys(
        (mpf_abs(v, prec, round_nearest) for v in g_grid), prec), prec)[1]
    zero_floor = rounding_floor(p) * max(1, make(g_max))
    history = []

    def result(delta, lower):
        known = {x._mpf_: r for x, r in zip(grid, rs)}
        known.update((t._mpf_, r._mpf_) for t, r in zip(nodes, residuals))
        return MinimaxResult(polynomial=poly, delta_hat=+delta, nodes=tuple(nodes),
                             node_values=tuple(gc(t) for t in nodes),
                             iterations=iteration, levelled_error_history=tuple(history),
                             lower_bound=+lower, residuals=known)

    for iteration in range(1, MAX_ITERATIONS + 1):
        poly, h = _solve_levelled_system(gc, nodes, av, bv, p)
        history.append(abs(h))
        rs = list(residual_sweep(g_grid, poly, grid, units))
        keys = list(magnitude_keys(rs, prec))
        grid_max = make(largest_magnitude(keys, prec)[1])
        if grid_max <= zero_floor:
            # exact representation: grid_max is only rounding noise, and a
            # denser grid finds more of it, so the floor is the estimate
            residuals = [make(r) for r in residual_sweep((gc(t)._mpf_ for t in nodes),
                                                         poly, nodes)]
            return result(zero_floor, min(abs(h), grid_max))
        nodes, residuals = _exchange_core(gc, poly, grid, rs, keys, nodes)
        lower = min(abs(r) for r in residuals)
        upper = max(max(abs(r) for r in residuals), grid_max)
        if (upper - lower) / upper <= tol:
            return result(upper, lower)
    raise ConvergenceError(
        f"no convergence to tol={TOL} within {MAX_ITERATIONS} iterations",
        history=history,
    )


def verify_equioscillation(result: MinimaxResult,
                           p: Precision = Precision()) -> EquioscillationReport:
    """Check that the k+2 node residuals alternate in sign, and report their spread.

    The spread (max - min)/delta_hat of their magnitudes is reported, not
    gated: ``minimax`` returns by convergence only once it is at most
    ``TOL``.  A result with delta_hat at the arithmetic floor passes by the
    zero rule (exactly representable g has no meaningful residual signs).
    The residuals and g values are those ``minimax`` formed at the nodes.
    """
    make = result.nodes[0].context.make_mpf
    residuals = tuple(make(result.residuals[t._mpf_]) for t in result.nodes)

    scale = max([abs(v) for v in result.node_values] + [context(p).mpf(1)])
    floor = resolution_floor(p) * scale
    if result.delta_hat <= floor:
        bad = [i for i, r in enumerate(residuals) if abs(r) > floor]
        if not bad:
            return EquioscillationReport(
                True, None, "exact representation: all residuals at the arithmetic floor")
        return EquioscillationReport(False, None,
                                     f"delta_hat at floor but residual {bad[0]} above it")
    for i in range(1, len(residuals)):
        if residuals[i] == 0 or residuals[i - 1] == 0 or \
                (residuals[i] > 0) == (residuals[i - 1] > 0):
            return EquioscillationReport(False, None,
                                         f"residual signs do not alternate at node {i}")
    mags = [abs(r) for r in residuals]
    return EquioscillationReport(True, (max(mags) - min(mags)) / result.delta_hat,
                                 "equioscillation verified")
