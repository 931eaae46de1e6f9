"""The Kurepa function family by one trapezoidal sum in s = log t, with a proven error bound.

K^(j)(x) = integral_0^inf exp(-t) (t^x log(t)^j - [j = 0]) / (t - 1) dt, for
0 <= x <= MAX_ARGUMENT and j <= MAX_ORDER, is in s = log t the integral of
F_j(s) = w(s) (s^j e^(xs) - [j = 0]), w(s) = e^s exp(-e^s) / (e^s - 1), over
the real line.  F_j is analytic in |Im s| < pi/2, so with h = 1/q the sum
h sum_k F_j(k/q) over all integers k is within 2M/(e^(2 pi a q) - 1) of it,
for a < pi/2 and M >= integral |F_j(sigma + ib)| dsigma, |b| <= a
(Trefethen and Weideman, SIAM Review 2014, Thm 5.1).  With W_k = h w(k/q)
and E = e^(x/q) the sum is sum_k W_k (k/q)^j E^k, less sum_k W_k for j = 0,
the s = 0 node taking the limit (x h/e, h/e, then 0).  A call takes the
band n <= x <= n + 1 with n = ceil(x) - 1, floored at 0, so an integer x
takes the band below it and 0 <= x <= 1 is one band.  The nodes run from
k = -4q to the band's right cut-off; left of them
w(s) = -sum_n a_n e^((n+1)s), a_n = sum_(i<=n) (-1)^i / i!, |a_n| <= 1, so
that side is summed exactly as geometric series, up to a bounded remainder.
All is summed in fixed point, on integers v standing for v 2^-frac, and
rounded once into ``context(p)``: the weights and series coefficients are
one table per precision and band, its e^(k/q) raised along the nodes from
e^(1/q) and e^(-1/q).  Each weight costs one exponential, e^-t, and
integer arithmetic, and the series coefficients are the powers of one
chained factor e^(-(4q+1)/q), each times a derangement number and divided
exactly by n! q.  A call takes E from one exponential and E^-1 from it,
and sums each side by Horner's rule over the weights, in E right of
s = 0 and in E^-1 left of it; the series reads E^-1 and E^-(4q+1), by
binary powering.  A Horner step floors once, and that floor, like a
weight's unit, enters the sum times E^k, up to the band's cut-off t to the
power band + 1, so frac is 64 bits past p's working precision plus the
bits of t^(band+1): from 15 to 160 digits, 6 to 9 on the first band and
112 to 143 on the last.  ``error_bound`` sums the band's discretization
bound at the call's order, its right tail, the series' remainder and the
rounding, each bound rounded outward; all but the value's own rounding
hold at every x of the band, each table summing them once.  Each band's q is
the least step count whose discretization bound at order MAX_ORDER meets
10^-(digits+3) max(1, K) there, and its one right cut-off is MAX_ORDER's,
whose tail bound is at least every lower order's; the tests check, from 15
to 160 digits, that every lower order then meets its own, and a call that
missed its target would raise.  q, the right cut-off and the series length
are each guessed in floating point, from an exact bound's value and the
decay of its leading factor, and confirmed by the exact bounds at n and
n - 1, which alone decide them.  Memos are pure functions of their keys,
and nothing is built at import, so results are the same bits cold or warm,
in any thread.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import accumulate, repeat

import mpmath
from mpmath.libmp import (
    fone, from_int, from_man_exp, from_rational, mpf_abs, mpf_add, mpf_cos,
    mpf_div, mpf_exp, mpf_gt, mpf_mul, mpf_neg, mpf_pi, mpf_pow_int, mpf_shift, mpf_sin,
    mpf_sub, to_fixed, to_int, round_ceiling as up, round_floor as down, round_nearest as rn,
)

from .errors import DomainError, PrecisionUnreachableError, RootBracketError
from .precision import Precision, context, integer, kurepa_floor, to_mpf

# the supported domain: 0 <= x <= MAX_ARGUMENT, derivative orders up to MAX_ORDER
MAX_ARGUMENT, MAX_ORDER = 16, 3

# entries kept by each memo; fraction bits of the sums past the working
# precision, before each band's growth; bits of every bound, each step
# rounded outward; and the span of s < 0 the nodes cover, the series
# summing what lies left of it
_CACHE_LIMIT, _GUARD_BITS, _BOUND_BITS, _LEFT_SPAN = 256, 64, 64, 4


@dataclass(frozen=True)
class QuadratureResult:
    """Value of one improper integral together with its accounting."""

    value: mpmath.mpf
    error_bound: mpmath.mpf
    nodes_used: int
    tail_cutoff: mpmath.mpf


def _b(f, *args, rnd=up):
    # a libmp function of mpf tuples at the bounds' precision, rounded rnd
    return f(*args, _BOUND_BITS, rnd)


def _majorant(j, low, high, a):
    """M >= integral |F_j(sigma + ib)| dsigma for |b| <= a 2^-6 and low <= x <= high, rounded up.

    With delta = 1/2 and c = cos a, three pieces.  For |sigma| <= delta, the
    maximum of |F_j| on the rectangle's boundary, by the maximum principle:
    there |e^s - 1| >= |e^sigma - 1| on the sides, >= 2 e^(sigma/2) sin(a/2)
    on the top and bottom, and |s^j e^(xs)| <= (delta + a)^j e^(high delta).
    For sigma >= delta, e^s / |e^s - 1| <= 1/(1 - e^-delta),
    |exp(-e^s)| <= exp(-c e^sigma) and log t + a <= (1 + a) t, which leaves
    (1 + a)^j Gamma(high + j) / c^(high + j).  For sigma <= -delta,
    |e^s| = e^sigma and |exp(-e^s)| <= 1, which leaves
    e^((1 + low) a) j! / (1 + low)^(j + 1).  For j = 0,
    |e^(xs) - 1| <= x |s| e^(x max(sigma, 0)): high times j = 1's M at low = 0.
    """
    if j == 0:
        return _b(mpf_mul, from_int(high), _majorant(1, 0, high, a))
    angle, half = from_man_exp(a, -6), from_man_exp(1, -1)
    inv = _b(mpf_div, fone, _b(mpf_sub, fone, _b(mpf_exp, mpf_neg(half)), rnd=down))
    top = _b(mpf_div, _b(mpf_exp, mpf_shift(half, -1)),
             mpf_shift(_b(mpf_sin, mpf_shift(angle, -1), rnd=down), 1))
    box = _b(mpf_mul, _b(mpf_pow_int, _b(mpf_add, half, angle), j),
             _b(mpf_exp, from_man_exp(high, -1)))
    box = _b(mpf_mul, box, inv if mpf_gt(inv, top) else top)
    right = _b(mpf_div, _b(mpf_mul, _b(mpf_pow_int, _b(mpf_add, fone, angle), j),
                           from_int(math.factorial(high + j - 1))),
               _b(mpf_pow_int, _b(mpf_cos, angle, rnd=down), high + j, rnd=down))
    left = _b(mpf_mul, _b(mpf_exp, _b(mpf_mul, from_int(1 + low), angle)),
              _b(from_rational, math.factorial(j), (1 + low) ** (j + 1)))
    return _b(mpf_add, box, _b(mpf_mul, inv, _b(mpf_add, right, left)))


def _angle(j, band, q):
    # a 2^6 for a = arctan(2 pi q / (band + j + 2)), about where the bound
    # is least, cut to 6 fraction bits, so a < pi/2
    return int(64 * math.atan(2 * math.pi * q / (band + j + 2)))


@lru_cache(maxsize=_CACHE_LIMIT)
def _discretization(j, band, q):
    """2M / (e^(2 pi a q) - 1) on band <= x <= band + 1, a by ``_angle``, rounded up; memoized."""
    a = _angle(j, band, q)
    growth = _b(mpf_mul, _b(mpf_pi, rnd=down), from_man_exp(a * q, -5), rnd=down)
    return _b(mpf_div, mpf_shift(_majorant(j, band, band + 1, a), 1),
              _b(mpf_sub, _b(mpf_exp, growth, rnd=down), fone, rnd=down))


def _share(digits, scale=1):
    # a quarter of the error target 10^-(digits+3), times scale
    return mpf_shift(_b(mpf_mul, kurepa_floor(Precision(digits), _BOUND_BITS),
                        from_int(scale)), -2)


def _ln(v):
    # the natural log of a positive libmp tuple, a float at any exponent
    return math.log(v[1]) + v[2] * math.log(2)


def _least(bound, share, floor, guess):
    # (n, bound(n)) for the least n >= floor with bound(n) <= share, for a
    # bound falling in n: the exact bound must meet share at n and miss it
    # at n - 1, and from a guess where either check disagrees the search
    # walks one step at a time
    n = max(floor, guess)
    value = bound(n)
    if mpf_gt(value, share):
        while mpf_gt(value, share):
            n += 1
            value = bound(n)
        return n, value
    while n > floor and not mpf_gt(lower := bound(n - 1), share):
        n, value = n - 1, lower
    return n, value


@lru_cache(maxsize=_CACHE_LIMIT)
def _steps(digits, band):
    """q: the least count of nodes per unit of s that meets the target on band <= x <= band + 1.

    At order MAX_ORDER the band's discretization bound must be at most a
    quarter of 10^-(digits+3) max(1, K(band)), K(band) the sum of i! over
    i < band, K's least value on the band.  At that q every lower order
    meets it too, which the tests check at 15 to 160 digits; each call
    still adds its own order's bound into ``error_bound`` and raises if the
    total misses the target.  The bound falls about e^(-2 pi a) per step of
    q: from where e^(-pi^2 q) meets the share, four Newton steps on the
    bound's log guess q, and the exact bounds at q and q - 1 confirm it.
    Memoized per (digits, band).
    """
    share = _share(digits, max(1, sum(map(math.factorial, range(band)))))
    bound = partial(_discretization, MAX_ORDER, band)
    q = max(1, math.ceil(-_ln(share) / math.pi ** 2))  # 2 pi a < pi^2
    for _ in range(4):  # a moves with q in 6-bit steps, so q may cycle
        rate = math.pi * _angle(MAX_ORDER, band, q) / 32
        q = max(1, q + math.ceil((_ln(bound(q)) - _ln(share)) / rate))
    return _least(bound, share, 1, q)[0]


def _right(digits, band):
    """(R, bound, t at R): the right cut-off of every order on band <= x <= band + 1.

    Past T = e^(R/q) >= x + j + 3 the terms' majorant w(s) s^j e^(xs)
    falls, so their sum is at most its integral from log T, at most
    exp(-T) T^x log(T)^j / ((T - 1)(1 - x/T - j/(T log T))), as
    (log t^x log(t)^j)' is at most x/T + j/(T log T) past T.  R is the
    least with T >= max(x + MAX_ORDER + 3, 2(digits + 3)) whose bound at
    x = band + 1 and j = MAX_ORDER is a quarter of 10^-(digits+3) or less.
    As log T > 1 there, that bound is at least each lower order's at the
    same R, so every order takes it.  The bound falls about as e^(-T), so
    one step in T from the least R's bound guesses R, and the exact bounds
    at R and R - 1 confirm it.
    """
    q, x, j, share = _steps(digits, band), band + 1, MAX_ORDER, _share(digits)

    def tail(R):
        s_lo, s_hi = _b(from_rational, R, q, rnd=down), _b(from_rational, R, q)
        T = _b(mpf_exp, s_lo, rnd=down)
        slope = _b(mpf_add, _b(mpf_div, from_int(x), T),
                   _b(mpf_div, from_int(j), _b(mpf_mul, T, s_lo, rnd=down)))
        rise = _b(mpf_exp, _b(mpf_sub, _b(mpf_mul, from_int(x), s_hi), T))
        return _b(mpf_div, _b(mpf_mul, rise, _b(mpf_pow_int, s_hi, j)),
                  _b(mpf_mul, _b(mpf_sub, T, fone, rnd=down), _b(mpf_sub, fone, slope, rnd=down),
                     rnd=down))

    first = math.ceil(q * math.log(max(x + j + 3, 2 * (digits + 3))))
    T = math.exp(first / q) + max(0, _ln(tail(first)) - _ln(share))
    R, bound = _least(tail, share, first, math.ceil(q * math.log(T)))
    prec = context(Precision(digits)).prec
    return R, bound, mpf_exp(from_rational(R, q, prec, rn), prec, rn)


def _remainder(j, n, q, left):
    """The left series' remainder past n terms, rounded up.

    With |a_i| <= 1 and E^-m <= 1 it is at most h q^-j sum over m > K = left
    of m^j e^(-(n+1)m/q) / (1 - e^(-m/q)), a geometric series once
    m^j <= (K+1)^j e^(j(m-K-1)/(K+1)).
    """
    k = left + 1
    lead = _b(mpf_mul, _b(from_rational, k ** j, q ** (j + 1)),
              _b(mpf_exp, _b(from_rational, -(n + 1) * k, q)))
    gaps = [_b(mpf_sub, fone, _b(mpf_exp, _b(from_rational, num, den)), rnd=down)
            for num, den in ((j * q - (n + 1) * k, k * q), (-k, q))]
    return _b(mpf_div, lead, _b(mpf_mul, *gaps, rnd=down))


def _series(terms, betas, q, left, frac, e1, ek):
    """The left series' sum on integers, and its rounding in units of 2^-2frac.

    Term n is c_n S_n E^-(K+1), c_n = h a_n e^(-(n+1)(K+1)/q), and by Horner
    S_n = sum_(l>=0) (K+1+l)^j r^l = sum_i beta_i v^(i+1), v = 1/(1 - r),
    r = e^(-(n+1)/q) E^-1; e1 is E^-1 within 2 units and ek E^-(K+1) by
    binary powering from it.  r is within 4 units and 1 - r >= h/2, so v is
    within (8q + 1) units relative; each beta_i >= 0 and beta_j = j!, so
    each of j + 1 steps adds as much; c_n is within a unit and E^-(K+1)
    within 4(K + 1).  Every step is monotone in e1, and c_n >= 0, so the
    rounding at e1 = 1, x = 0, bounds it at every x.
    """
    one = 1 << frac
    total = spread = 0
    for g, c in terms:
        v = (one << frac) // (one - (g * e1 >> frac))
        acc = 0
        for b in betas:
            acc = (acc + (b << frac)) * v >> frac
        total += c * acc
        spread += acc
    return total * ek >> frac, 2 * spread + ((40 * q + 4 * left + 16) * total >> frac) + 1


def _chain(factor, count, bits):
    # v_k = floor(v_(k-1) factor 2^-bits) for k = 1..count, from v_0 = 2^bits
    return list(accumulate(repeat(factor, count), lambda v, f: v * f >> bits, initial=1 << bits))


def _power(v, n, bits):
    # v^n by binary powering on integers standing for v 2^-bits, each
    # product floored: for v <= 1 within u units, within n (u + 1) units
    out = 1 << bits
    while n:
        if n & 1:
            out = out * v >> bits
        n >>= 1
        if n:
            v = v * v >> bits
    return out


def _bounds(band, q, frac, growth, left, high, tail, series, remainder):
    """Per order j, error_bound less the value's last rounding, at every x of the band.

    The band's discretization bound at order j, its right tail, the series'
    remainder, and the rounding of the sum, in units of 2^-2frac q^-j,
    each rounded up at _BOUND_BITS.  Right of s = 0, in units of 2^-frac,
    with E^k <= 2^growth: each T_k is within a unit, times k^j E^k; each
    Horner step floors once, step k's floor entering times E~^k, E~ = e
    2^-frac within a unit of E, so E~^k is within (1 + 2^-50) k E^k units,
    times |T_k| k^j <= 2^frac k^j.  That is at most
    (high + 1)(high + 3) high^j 2^growth.  Left of it E^-1 is within 2 units, so the same count is
    (2 left + 2) left^(j+1).  ``series[j]`` is the series' rounding at
    x = 0, which bounds it at every x; j = 0 adds it again for the series at
    x = 0, a unit of 2^frac per node and x <= band + 1 times T_0's, and
    j = 1 T_0's.
    """
    one, out = 1 << frac, []
    for j in range(MAX_ORDER + 1):
        units = ((high + 1) * (high + 3) * high ** j << growth) + (2 * left + 2) * left ** (j + 1)
        units = units * one + series[j]
        if j == 0:
            units += series[0] + (high + left + band + 1) * one
        elif j == 1:
            units += q * one
        rounding = _b(mpf_div, from_man_exp(units, -2 * frac, _BOUND_BITS, up), from_int(q ** j))
        out.append(_b(mpf_add, _b(mpf_add, _discretization(j, band, q), tail),
                      _b(mpf_add, remainder[j], rounding)))
    return tuple(out)


_Table = namedtuple("_Table", "q frac left high cutoff orders terms betas nought remainder floor bounds")


@lru_cache(maxsize=_CACHE_LIMIT)
def _table(digits, band):
    """The weights and series of one precision's sum on band <= x <= band + 1; memoized.

    The band's q and its right cut-off R = ``high`` from ``_right``, with
    its ``cutoff`` t; ``frac`` _GUARD_BITS and the bits of t^(band+1) past
    the working precision; ``orders[j]`` holds T_k k^j for k = -left .. high,
    T_k within a unit of W_k 2^frac and T_0 of h/e, each from one
    exponential and one integer floor division; ``terms`` (e^(-(n+1)/q),
    c_n) per series term, c_n = h a_n f^(n+1) with f = e^(-(left+1)/q) one
    more step of the nodes' chain, its powers chained too, each divided
    exactly by n! q; ``betas[j]`` the beta_i, highest first, of
    (K+1+l)^j = sum_i beta_i C(l+i, i); ``nought`` what j = 0 adds, the
    series at x = 0 less sum_k T_k 2^frac; ``remainder[j]`` the series'
    remainder; ``floor`` the target 10^-(digits+3); and ``bounds[j]`` from
    ``_bounds``.  The remainder shrinks about e^(-(left+1)/q) per term, so
    its value at no term guesses the series' length, and the exact
    remainders confirm it.
    """
    q, prec = _steps(digits, band), context(Precision(digits)).prec
    high, tail, cutoff = _right(digits, band)
    # a weight's unit at node k, or the floor of Horner's step k, enters the
    # sum times E^k <= e^((band+1)k/q) < 2^growth, the cut-off's t^(band+1)
    growth = to_int(_b(mpf_exp, _b(from_rational, (band + 1) * high, q)), up).bit_length()
    frac = prec + _GUARD_BITS + growth
    wide, left = frac + 20, _LEFT_SPAN * q

    def fixed(num, den, exp=0):
        # num 2^exp / den in units of 2^-frac: one floor at frac + 1 bits,
        # then rounded half up
        shift = exp + frac + 1
        return ((num << max(shift, 0)) // (den << max(-shift, 0)) + 1) >> 1

    # t = e^(k/q), k = -left .. high, by one chain on integers at wide + 40
    # bits from e^(-1/q) and e^(1/q), each within 3 units of 2^-(wide+40):
    # as each step floors, e^(k/q) is within 4|k| max(1, e^(k/q)) units,
    # at most 16 q e^4 units relative, then rounded once to wide.  A weight
    # is t e^-t / ((t - 1) q), or h/e at t = 1, floored once from the
    # mantissas of t = m 2^x and of e^-t, one exponential at wide bits; the
    # 20 guard bits between wide and frac absorb t's rounding and mpf_exp's
    # error, so T_k is within a unit.  The series' e^(-(n+1)/q) are entries
    # too, its length staying below left, and one more step gives
    # f = e^(-(left+1)/q) within 4(left + 1) units, whose powers f^(n+1) by
    # a chain are within (n + 1)(4 left + 5) units of 2^-bits, 2^59 times
    # finer than 2^-(frac+1); c_n = h a_n f^(n+1), a_n = D_n / n! with D_n
    # the derangement numbers, is then one floor division by n! q, so c_n is
    # within a unit too
    bits = wide + 40
    shrink, grow = ((to_fixed(mpf_exp(from_rational(sign, q, bits, rn), bits, rn), bits + 1) + 1)
                    >> 1 for sign in (-1, 1))
    shrinks = _chain(shrink, left + 1, bits)
    ts = [from_man_exp(v, -bits, wide, rn) for v in shrinks[left:0:-1] + _chain(grow, high, bits)]
    weights = []
    for t in ts:
        (_, m, x, _), (_, e, y, _) = t, mpf_exp(mpf_neg(t), wide, rn)
        span = (m << x + bits) - (1 << bits)  # (t - 1) 2^bits, 0 at t = 1
        weights.append(fixed(m * e, span * q, x + y + bits) if span else fixed(e, q, y))
    orders = tuple(tuple(w * k ** j for k, w in zip(range(-left, high + 1), weights))
                   for j in range(MAX_ORDER + 1))
    share = _share(digits)
    guess = int((_ln(_remainder(MAX_ORDER, 0, q, left)) - _ln(share)) * q / (left + 1))
    size, last = _least(lambda n: _remainder(MAX_ORDER, n, q, left), share, 0, guess)
    terms, derangements = [], 1
    for n, power in enumerate(_chain(shrinks[-1], size, bits)[1:]):
        derangements = n * derangements + (-1) ** n if n else 1
        _, m, x, _ = ts[left - n - 1]
        terms.append((fixed(m, 1, x), fixed(derangements * power, math.factorial(n) * q, -bits)))
    betas = tuple(tuple(sum((-1) ** m * math.comb(i, m) * (left - m) ** j for m in range(i + 1))
                        for i in reversed(range(j + 1))) for j in range(MAX_ORDER + 1))
    one = 1 << frac
    at_zero = [_series(terms, b, q, left, frac, one, one) for b in betas]
    remainder = tuple(_remainder(j, size, q, left) for j in range(MAX_ORDER)) + (last,)
    return _Table(q, frac, left, high, cutoff, orders, tuple(terms), betas,
                  at_zero[0][0] - (sum(orders[0]) << frac), remainder,
                  kurepa_floor(Precision(digits), prec),
                  _bounds(band, q, frac, growth, left, high, tail, [u for _, u in at_zero],
                          remainder))


def _kurepa_integral(x, j, p):
    xv = to_mpf(x, p)
    if not 0 <= xv <= MAX_ARGUMENT:
        raise DomainError(f"kurepa argument {xv} lies outside [0, {MAX_ARGUMENT}]")
    if j > MAX_ORDER:
        raise DomainError(f"kurepa derivative of order {j} is not supported (max {MAX_ORDER})")
    # x is rounded once, to p's working context, where the sum is rounded too
    ctx = context(p)
    prec, xr = ctx.prec, xv._mpf_
    band = max(0, to_int(xr, up) - 1)  # an integer x takes the band below it
    tab = _table(p.decimal_digits, band)
    q, frac, left = tab.q, tab.frac, tab.left

    # E within a unit of 2^-frac and E^-1 within 2; each side of s = 0 by
    # Horner's rule, in E right of it and in E^-1 left of it
    e = (to_fixed(mpf_exp(mpf_div(xr, from_int(q), frac + 20, rn), frac + 20, rn),
                  frac + 1) + 1) >> 1
    inverse = (1 << 2 * frac) // e
    weights, right, leftward = tab.orders[j], 0, 0
    for w in weights[:left - 1:-1]:
        right = (right * e >> frac) + w
    for w in weights[:left]:
        leftward = (leftward + w) * inverse >> frac
    series = _series(tab.terms, tab.betas[j], q, left, frac, inverse,
                     _power(inverse, left + 1, frac))[0]
    num, zero = (right + leftward << frac) + (-1) ** (j + 1) * series, tab.orders[0][left]
    if j == 0:
        # less sum W_k and the series at x = 0, and the s = 0 node, x h/e
        num += tab.nought
        low = min(-2 * frac, xr[2] - frac)
        value = from_man_exp((num << -2 * frac - low) + (xr[1] * zero << xr[2] - frac - low),
                             low, prec, rn)
    else:
        # the s = 0 node, h/e for j = 1
        value = mpf_div(from_man_exp(num + (zero * q << frac if j == 1 else 0), -2 * frac),
                        from_int(q ** j), prec, rn)
    size = mpf_abs(value)
    err = mpf_add(tab.bounds[j], mpf_shift(size, -prec), prec, up)
    if mpf_gt(err, mpf_mul(tab.floor, size if mpf_gt(size, fone) else fone)):
        raise PrecisionUnreachableError(
            f"Kurepa error bound {mpmath.nstr(ctx.make_mpf(err), 5)} exceeds its target")
    return QuadratureResult(ctx.make_mpf(value), ctx.make_mpf(err),
                            left + tab.high + 1 + len(tab.terms), ctx.make_mpf(tab.cutoff))


def kurepa(x, p: Precision = Precision()) -> QuadratureResult:
    """K(x) for 0 <= x <= MAX_ARGUMENT, with error_bound at most 10^-(digits+3) max(1, |value|).

    x is rounded to p's working context, ``context(p)``, unless it is an mpf,
    whose bits are kept; value, error_bound and tail_cutoff are mpfs of that
    context.  An x outside the domain raises DomainError.  ``error_bound`` is
    proven, or PrecisionUnreachableError raised.
    """
    return _kurepa_integral(x, 0, p)


def kurepa_derivative(x, order: int, p: Precision = Precision()) -> QuadratureResult:
    """K^(j)(x), 1 <= j <= MAX_ORDER, as ``kurepa`` computes K, each weight times (k/q)^j.

    ``precision.integer`` checks the order; one above MAX_ORDER raises DomainError.
    """
    integer(order, "derivative order", 1)
    return _kurepa_integral(x, order, p)


INFLECTION_WIDTH = "1e-9"


def find_inflection(p: Precision = Precision()) -> mpmath.mpf:
    """Bisection root of K'' on [0, 1], to INFLECTION_WIDTH; K is concave left of the root.

    Bisection is preferred over Newton here: sign robustness matters more
    than step count.
    """
    ctx = context(p)
    lo, hi = ctx.zero, ctx.one
    wtol = to_mpf(INFLECTION_WIDTH, p)
    f_lo, f_hi = (kurepa_derivative(v, 2, p).value for v in (lo, hi))
    if not f_lo < 0 < f_hi:
        raise RootBracketError("second derivative does not change sign on [0, 1]; "
                               "the quadrature is likely misconfigured")
    while hi - lo > wtol:
        mid = (lo + hi) / 2
        fm = kurepa_derivative(mid, 2, p).value
        lo, hi = (mid, hi) if fm < 0 else (lo, mid)
    return (lo + hi) / 2
