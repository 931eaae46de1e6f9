"""Adaptive Gauss-Kronrod quadrature for the Kurepa function family.

The Kurepa function is the improper integral

    K(x) = integral_0^inf exp(-t) (t^x - 1)/(t - 1) dt

and its derivatives replace (t^x - 1) by t^x log(t)^j.  The supported
domain is 0 <= x <= MAX_ARGUMENT and j <= MAX_ORDER, and every integral is
computed at p's digits plus 15 guard digits.  The integrand has a
removable singularity at t = 1 and an endpoint singularity of log type at
t = 0 for the derivative integrals.  Every integral is taken in s = -log t,
which turns t -> 0 into a smooth exponential tail and t = 1 into s = 0, over
the window [-1/8, 1/8], whose centre node takes the quotient's limit, and
panels that double in width outward from it: out past s_max for s > 0, and
up to width 1, as exp(-t) falls doubly exponentially in s, out past -log T
for s < 0.  s_max and T are chosen so the dropped tails are provably below
the error target, each the first of a sequence of steps by 5/4 to pass a
test made in logs; each side's panels run on to the first panel edge past
its cut-off, and both tail bounds, taken at those edges (the high side's is
``tail_cutoff``), are added to ``error_bound``.  Every half-width is a power
of two, and no panel depends on x.  The plan is memoized: each of T's
steps with the x above which the search passes it, the high side's panels
and T per step, and the low side's panels per count; only the searches and
the two tail bounds are computed per x.

At a node s = mid + 2^level z, exact, the integrand is c expm1(x L) for
j = 0 and c L^j exp(x L) for j >= 1, L = -s; c is kept in a node table per
panel, built on integer (mantissa, exponent) pairs, each step rounded once
as the mpf arithmetic would round it, and exactly multiplied into the
weights, with one exponential per node and one per panel: exp(-s) =
exp(-mid) exp(-2^level z), the second factor from a memoized table per
level, whose base level takes one exponential per node of the negative half
and integer reciprocals for the positive half.  exp(x L) = exp(-x mid)
(1 + B): exp(-x mid) by a chain along each side's panels, from five
exponentials, and B = expm1(-x 2^level z) in fixed point, computed once per
call at the first level, likewise from the negative half's exponentials,
and squared up the others (``_ExpFactors``).  Per panel, each rule's
weights are folded once onto one exponent, and per order j >= 1 those
integers are multiplied by the L^j, every L put on one exponent, so each
estimate is one exact integer dot product with the Bs, rounded once.

Each panel's error is estimated by comparing the n-node Gauss rule with its
nested (2n+1)-node Kronrod extension, and a panel whose estimate exceeds its
share of the error target is bisected.  Both rules come from one recurrence,
that of Laurie's Jacobi-Kronrod matrix, by one Newton iteration for the
nodes, at a width that doubles as the root sharpens, and one formula for the
weights, whose sum for a node that Newton finds comes from its last pass,
all in fixed point on integers, rounded to the working precision at the
end; the plan takes each step's ln T from the last step's.  The rules,
level tables, node tables, folded weights and the
plan are pure functions of their arguments, the binary precision among
them, each memoized in a bounded LRU memo and none built at import; as a
memoized value depends only on its key, the factors of a call live in the
call, and everything is summed in a fixed order, results are bit-for-bit
reproducible, with or without warm memos.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import mul

import mpmath
from mpmath.libmp import (
    dps_to_prec, fone, from_man_exp, from_rational, fzero, mpf_abs, mpf_add, mpf_div,
    mpf_exp, mpf_le, mpf_lt, mpf_mul, mpf_neg, mpf_shift, mpf_sub, normalize,
    round_nearest as rn, to_fixed,
)

from .errors import (
    ConfigurationError,
    DomainError,
    PrecisionUnreachableError,
    RootBracketError,
)
from .precision import (
    Precision, context, finite_segment, negligible_ratio, resolution_floor, series_floor, to_mpf,
)

# entries kept by each memo: the Kronrod rules, node tables and folded weights
_CACHE_LIMIT = 65536

# bits the Kronrod rule carries beyond its precision until it rounds
_RULE_GUARD_BITS = 80

# cap on integrand evaluations of one Kurepa integral
MAX_EVALUATIONS = 500000

# the supported domain: 0 <= x <= MAX_ARGUMENT, derivative orders up to
# MAX_ORDER; the fixed 15 guard digits meet every error target there, but
# not at x = 25, nor at order 25 at x = 0
MAX_ARGUMENT, MAX_ORDER = 16, 3


@dataclass(frozen=True)
class QuadratureResult:
    """Value of one improper integral together with its accounting."""

    value: mpmath.mpf
    error_bound: mpmath.mpf
    nodes_used: int
    tail_cutoff: mpmath.mpf


def _kronrod_betas(n, frac):
    """Recurrence coefficients b_0..b_2n of the Legendre Jacobi-Kronrod matrix.

    Laurie's algorithm (D. Laurie, "Calculation of Gauss-Kronrod quadrature
    rules", Math. Comp. 1997), specialised to the Legendre weight, whose
    diagonal coefficients all vanish.  The first ceil(3n/2)+1 coefficients
    are those of the Legendre polynomials; the rest are filled in from the
    mixed moments s and t.  Each b_k is returned as the integer b_k 2^frac,
    rounded down; the moments fall to about 2^-2n, so they carry 2n more
    fraction bits.
    """
    wide = frac + 2 * n
    b = [2 << wide] + [(k * k << wide) // (4 * k * k - 1)
                       for k in range(1, (3 * n + 1) // 2 + 1)]
    b += [0] * (2 * n + 1 - len(b))
    s = [0] * (n // 2 + 3)
    t = s[:]
    t[1] = b[n + 1]
    for m in range(n - 1):
        acc = 0
        for k in range((m + 1) // 2, -1, -1):
            acc += (b[k + n + 1] * s[k] - b[m - k] * s[k + 1]) >> wide
            s[k + 1] = acc
        s, t = t, s
    s[1:] = s[:-1]
    for m in range(n - 1, 2 * n - 2):
        acc = 0
        for k in range(m + 1 - n, (m - 1) // 2 + 1):
            j = n - 1 - (m - k)
            acc += (b[m - k] * s[j + 2] - b[k + n + 1] * s[j + 1]) >> wide
            s[j + 1] = acc
        if m % 2:
            b[(m + 1) // 2 + n + 1] = (s[j + 1] << wide) // s[j + 2]
        s, t = t, s
    return [v >> 2 * n for v in b[:2 * n + 1]]


@lru_cache(maxsize=_CACHE_LIMIT)
def gauss_kronrod_rule(n: int, prec: int):
    """The n-node Gauss rule on [-1, 1] and its (2n+1)-node Kronrod extension.

    Returns (nodes, Kronrod weights, Gauss weights) as mpfs of
    ``context(prec)``, memoized on (n, prec).  Nodes ascend and are exactly
    symmetric about 0; ``nodes[1::2]`` are the Gauss nodes and the Gauss
    weights belong to them.  Both rules come from the recurrence of the
    Jacobi-Kronrod matrix, whose first n+1 coefficients are Legendre's, and
    Newton's method on p_top / p_divisor, with p_k the monic polynomials of
    the recurrence: the Gauss nodes are the roots of p_n, and the other n+1
    nodes, the roots of p_{2n+1} / p_n, are each seeded between two
    neighbouring Gauss nodes.  Every weight follows from the orthonormal
    polynomials q_k (Golub and Welsch): 1 / sum_k q_k(z)^2 over k < n for the
    Gauss rule and k <= 2n for the Kronrod rule.

    All of it runs in fixed point, on integers v standing for v 2^-frac,
    frac being ``prec`` plus ``_RULE_GUARD_BITS``; each value is rounded to
    ``prec`` bits once, to nearest, at the end.  The recurrence is carried in
    r_k = 2^k p_k, which stays of order 1 on [-1, 1] where p_k falls like
    2^-k and would need k more fraction bits.  Newton starts from the cosine
    of the node's angle (shrunk by Tricomi's first correction at a Gauss
    node) at the first of a chain of widths of at least 53
    bits, each twice the last, up to frac; as each step doubles the correct
    bits, one or two steps at each width take the root to the next, and
    about one runs at full width.  That pass also sums r_k^2 / B_k and
    r_k r_k' / B_k, so the Gauss weights and the Kronrod weights at the n+1
    added nodes come from its sum moved by the last step dz to first order:
    an error of order dz^2, and dz is at most about 2^-(frac/2), so the sum
    keeps all but a few of the guard bits.  Only the Kronrod weights at the
    rounded Gauss nodes and at 0 take a pass of their own.
    """
    frac = prec + _RULE_GUARD_BITS
    one = 1 << frac
    b4 = [v << 2 for v in _kronrod_betas(n, frac)]
    # Newton's working widths, doubling up to frac from the first one of at
    # least 53 bits, and the recurrence coefficients cut to each
    widths = [frac]
    while widths[0] > 106:
        widths.insert(0, (widths[0] + 1) // 2)
    cut = [[v >> (frac - w) for v in b4] for w in widths]

    # q_k^2 = r_k^2 / (b_0 B_k), b_0 = 2 and B_k the product of 4 b_1 .. 4 b_k
    inv_b = [one]
    for v in b4[1:]:
        inv_b.append((inv_b[-1] << frac) // v)

    def newton_root(seed, top, divisor):
        # f = p_top / p_divisor; p_0 = 1, so divisor 0 gives p_top.  A step
        # under 2^-(w/2) at width w leaves an error of about its square,
        # 2^-w: the last step that width needs.  Each pass at full width
        # also sums r_k^2 inv_b[k] and r_k r_k' inv_b[k] over k < top at z;
        # the root comes with its weight, from the first sum moved by the
        # last step dz to first order
        level, z = 0, int(seed * 2.0 ** widths[0])
        for _ in range(100):
            w, b = widths[level], cut[level]
            r0, r1, d0, d1 = 0, 1 << w, 0, 0
            full = w == frac
            total = slope = 0
            for k in range(top):
                if k == divisor:
                    rd, dd = r1, d1
                if full:
                    t = r1 * inv_b[k] >> w
                    total += t * r1
                    slope += t * d1
                r0, r1, d0, d1 = r1, (2 * z * r1 - b[k] * r0) >> w, d1, \
                    (2 * ((r1 << w) + z * d1) - b[k] * d0) >> w
            dz = (r1 * rd << w) // (d1 * rd - r1 * dd)
            z -= dz
            if abs(dz) <= 1 << (w + 1) // 2:
                if full:
                    break
                level += 1
                z <<= widths[level] - w
        return z, from_rational(2 << 3 * frac, (total << frac) - 2 * slope * dz, prec, rn)

    def weight(z, terms):
        r0, r1 = 0, one
        acc = r1 * r1 * inv_b[0]
        for k in range(1, terms):
            r0, r1 = r1, (2 * z * r1 - b4[k - 1] * r0) >> frac
            acc += r1 * r1 * inv_b[k]
        return from_rational(2 << 3 * frac, acc, prec, rn)

    def rounded(z):
        return from_man_exp(z, -frac, prec, rn)

    # the positive Gauss nodes g_1 > g_2 > ..., weighed before they are
    # rounded to prec bits, the form in which they join the Kronrod rule;
    # Tricomi's seed (1 - (n - 1) / (8 n^3)) cos(angle) saves Newton about
    # one step per node at its first width over the cosine alone
    shrink = 1 - (n - 1) / (8 * n ** 3)
    gauss = [newton_root(shrink * math.cos(math.pi * (i - 0.25) / (n + 0.5)), n, 0)
             for i in range(1, n // 2 + 1)]
    half_g = [w for _, w in gauss]
    g_weights = half_g + [weight(0, n)] * (n % 2) + half_g[::-1]
    gauss = [to_fixed(rounded(z), frac) for z, _ in gauss]

    # one new node in each gap of 1 > g_1 > g_2 > ... > 0, seeded at the
    # gap's middle angle; 0 closes the last gap only when it is a Gauss
    # node (odd n), else that gap is symmetric about 0 and its node is 0
    edges = [0.0] + [math.acos(z / one) for z in gauss]
    if n % 2:
        edges.append(math.pi / 2)
    added = [newton_root(math.cos((lo + hi) / 2), 2 * n + 1, n)
             for lo, hi in zip(edges, edges[1:])]
    half, half_k = zip(*sorted([(z, weight(z, 2 * n + 1)) for z in gauss] + added))
    nodes = [mpf_neg(rounded(z)) for z in reversed(half)] + [fzero] + [rounded(z) for z in half]
    k_weights = half_k[::-1] + (weight(0, 2 * n + 1),) + half_k
    ctx = context(prec)
    return tuple(tuple(ctx.make_mpf(v) for v in part) for part in (nodes, k_weights, g_weights))


# a panel's half-width is 2^level: _BASE_LEVEL for the window and its two
# neighbours, at most _HIGH_LEVEL for s < 0
_BASE_LEVEL = -3
_HIGH_LEVEL = -1

# fraction bits the exponential factors of a call carry beyond the working
# precision; a factor's error grows by a bit per level it is doubled
_FACTOR_GUARD_BITS = 40

# bits the chain of exp(-x mid) along a side's panels carries beyond its
# frac + 2; its error grows by a bit per squaring
_CHAIN_GUARD_BITS = 24

# bits the memoized exp(-2^level z) carry beyond the working precision, and
# one more per level below the base, where s may come closer to 0
_TABLE_GUARD_BITS = 64


def _table_bits(level, prec):
    return prec + _TABLE_GUARD_BITS + max(0, _BASE_LEVEL - level)


@lru_cache(maxsize=_CACHE_LIMIT)
def _level_exps(level, n, prec):
    """exp(-2^level z) at the Kronrod nodes z, each as (m, e) standing for m 2^e.

    m has at most ``_table_bits(level, prec)`` bits.  A level at or below
    ``_BASE_LEVEL`` takes one exponential per node of the negative half,
    where the entry exceeds 1, to 4 more bits; the nodes are exactly
    symmetric, so at z > 0 the entry is that value's integer reciprocal, and
    every entry is rounded to nearest from there, within 3/4 of a unit of
    m's last bit.  Each level above the base squares the one below, the
    square truncated to as many bits, so a level k squarings above the base
    is within 2^(k+2) units.  Memoized on all three arguments.
    """
    bits = _table_bits(level, prec)
    if level <= _BASE_LEVEL:
        # the entries lie within exp(+-1/8) of 1: bits - 1 fraction bits
        # above 1, bits below
        nodes = gauss_kronrod_rule(n, prec)[0]
        up = [to_fixed(mpf_exp(mpf_neg(mpf_shift(z._mpf_, level)), bits + 4, rn), bits + 3)
              for z in nodes[:len(nodes) // 2]]
        return tuple([((u + 8) >> 4, 1 - bits) for u in up] + [(1, 0)]
                     + [(((1 << 2 * bits + 4) // u + 1) >> 1, -bits) for u in reversed(up)])
    return tuple(_times(v, v, bits) for v in _level_exps(level - 1, n, prec))


def _times(a, b, bits):
    # the product of two positive (m, e) = m 2^e, truncated to bits bits
    m = a[0] * b[0]
    cut = max(0, m.bit_length() - bits)
    return m >> cut, a[1] + b[1] + cut


@lru_cache(maxsize=_CACHE_LIMIT)
def _node_table(mid, level, n, prec):
    """(L, k, k_exp, g, g_exp) per Kronrod node of the panel mid +- 2^level in s.

    L = -s, s = mid + 2^level z exactly; at s = 0 L is None and c = exp(-1),
    the quotient's limit being x for j = 0, 1 for j = 1 and 0 for j >= 2.
    Elsewhere c = exp(-w) w / (w - 1), w = exp(-s) = t carrying dt = -w ds,
    each step rounded to nearest at ``prec`` bits, w - 1 from an exp(-s)
    rounded to nearest with 10 more bits, and as many more as s is below 1.
    That exp(-s) is exp(-mid) exp(-2^level z), the first one exponential per
    panel to as many bits as the second, the entry for z of ``_level_exps``;
    their product is good to about prec + 60 - k bits, k the level's
    squarings above the base, so it rounds as exp(-s) does unless exp(-s)
    lies that close to a rounding boundary.  So a node takes one
    exponential, exp(-w).  The chain runs on integer (mantissa, exponent)
    pairs: s and w - 1 exact, each of the five rounded steps (exp(-s), w,
    exp(-w) w, w - 1 and the quotient, from a sticky bit as ``mpf_div``
    keeps it) one ``normalize``, so every step has the bits of the mpf
    arithmetic it stands for.  k 2^k_exp and g 2^g_exp are the exact
    products 2^level c w_K and 2^level c w_G; g is 0 where only the Kronrod
    rule has a node.  Memoized on all four arguments, mid a raw mpf tuple.
    """
    nodes, k_weights, g_weights = gauss_kronrod_rule(n, prec)
    _, mm, me, _ = mpf_exp(mpf_neg(mid), _table_bits(level, prec), rn)
    msign, mman, mexp, _ = mid
    mid_int = -mman if msign else mman
    table = []
    for i, (z, w_k, (m, e)) in enumerate(zip(nodes, k_weights, _level_exps(level, n, prec))):
        # s = mid + 2^level z exactly, as the integer s times 2^low
        zsign, zman, low, _ = z._mpf_
        low += level
        s = -zman if zsign else zman
        if mman:
            if mexp < low:
                s, low = mid_int + (s << low - mexp), mexp
            else:
                s = (mid_int << mexp - low) + s
        if s:
            # L < 0 on the low side s > 0, where w - 1 < 0 and so c < 0
            negative = 1
            if s < 0:
                negative, s = 0, -s
            size = s.bit_length()
            ell = normalize(negative, s, low, size, size, rn)
            # exp(-s) to prec + 10 bits and as many more as s is below 1
            wm, mag = mm * m, low + size
            _, wm, we, wbc = normalize(0, wm, me + e, wm.bit_length(),
                                       prec + 10 - mag if mag < 0 else prec + 10, rn)
            _, vm, ve, vbc = normalize(0, wm, we, wbc, prec, rn)
            _, pm, pe, _ = mpf_exp((1, vm, ve, vbc), prec, rn)
            pm *= vm
            _, pm, pe, pbc = normalize(0, pm, pe + ve, pm.bit_length(), prec, rn)
            d = abs((wm << we) - 1 if we >= 0 else wm - (1 << -we))
            _, dm, de, dbc = normalize(0, d, min(we, 0), d.bit_length(), prec, rn)
            extra = max(5, prec - pbc + dbc + 5)
            cm, rem = divmod(pm << extra, dm)
            if rem:
                cm, extra = cm << 1 | 1, extra + 1
            _, cm, ce, _ = normalize(0, cm, pe - de - extra, cm.bit_length(), prec, rn)
            if negative:
                cm = -cm
        else:
            _, cm, ce, _ = mpf_exp(mpf_neg(fone), prec, rn)
            ell = None
        ce += level
        _, km, ke, _ = w_k._mpf_
        _, gm, ge, _ = g_weights[i // 2]._mpf_ if i % 2 else fzero
        table.append((ell, cm * km, ce + ke, cm * gm, ce + ge if gm else 0))
    return tuple(table)


@lru_cache(maxsize=_CACHE_LIMIT)
def _panel_weights(mid, level, n, prec, j):
    """The node table's weights folded with L^j: (low, Kronrod rule, Gauss rule).

    Each rule is (weights, their sum, centre): weights[i] 2^low is the exact
    2^level c w L^j at the rule's i-th node (2^level c w for j = 0), and 0 at
    s = 0, whose 2^level c w is ``centre`` as (integer, exponent), or (0, 0)
    where the rule has no node there.  For j >= 1 the j = 0 fold's integers
    are multiplied by L^j, with every L of the node table put on one
    exponent.  Memoized on all five arguments.
    """
    table = _node_table(mid, level, n, prec)
    if j:
        low, (kronrod, _, k_centre), (gauss, _, g_centre) = _panel_weights(mid, level, n, prec, 0)
        ells = [row[0] or fzero for row in table]
        ell_low = min(e for _, m, e, _ in ells if m)
        powers = [(-m if sign else m) << e - ell_low if m else 0 for sign, m, e, _ in ells]
        if j > 1:
            powers = [v ** j for v in powers]
        rules = (tuple(map(mul, kronrod, powers)), tuple(map(mul, gauss, powers[1::2])))
        return low + j * ell_low, *((w, sum(w), c) for w, c in zip(rules, (k_centre, g_centre)))
    kronrod, gauss, centre = [], [], ((0, 0), (0, 0))
    for i, (ell, km, ke, gm, ge) in enumerate(table):
        if ell is None:
            centre, km, gm = ((km, ke), (gm, ge)), 0, 0
        kronrod.append((km, ke))
        if i % 2:
            gauss.append((gm, ge))
    low = min(e for m, e in kronrod + gauss if m)
    rules = [tuple(m << e - low if m else 0 for m, e in terms) for terms in (kronrod, gauss)]
    return low, *((weights, sum(weights), c) for weights, c in zip(rules, centre))


def _round_sum(terms, prec):
    """The exact sum of (integer, exponent) terms, rounded once to nearest."""
    low = min(exp for _, exp in terms)
    return from_man_exp(sum(man << (exp - low) for man, exp in terms), low, prec, rn)


class _ExpFactors:
    """B = expm1(-x 2^level z) at the Kronrod nodes z, per level, for one call.

    Each B is an integer standing for B 2^-frac.  frac is x's precision plus
    ``_FACTOR_GUARD_BITS``, plus as many bits as x is below 1, so that B
    keeps its relative accuracy, and as exp(-x s) grows across a panel of
    level ``_HIGH_LEVEL``, where exp(-x mid) > 1 scales B's absolute error.
    A level at or below ``_BASE_LEVEL`` takes one exponential per node of
    the negative half, where exp(-x 2^level z) >= 1, to frac + 18 bits,
    truncated to frac + 16; the nodes are exactly symmetric, so at z > 0 the
    factor is that value's integer reciprocal, and each B is truncated to
    frac bits, so within 1 + (1 + B) / 2 units.  Each level above the base
    squares the one below, as 1 + B' = (1 + B)^2, that is B' = 2B + B^2,
    with B^2 truncated to frac bits.  A level k squarings above the base is
    then within 2^(k+2) max(1, 1 + B) units of 2^-frac of the exact value.
    The object also holds exp(-x mid) per panel (``scale`` and ``chain``).
    The tables live in the object, so calls share none.
    """

    def __init__(self, x, n, prec):
        xr = x._mpf_
        self.neg_x = mpf_neg(xr)
        self.nodes = gauss_kronrod_rule(n, prec)[0]
        self.frac = (prec + _FACTOR_GUARD_BITS + max(0, -(xr[2] + xr[3]))
                     + math.ceil(float(x) * 2.0 ** _HIGH_LEVEL / math.log(2)))
        self.levels = {}
        self.scales = {}

    def scale(self, mid):
        """exp(-x mid) as (m, e) = m 2^e, m of at most frac + 2 bits.

        As ``chain`` left it for a panel of the layout, else one
        exponential to frac + 2 bits.
        """
        value = self.scales.get(mid)
        if value is None:
            value = mpf_exp(mpf_mul(self.neg_x, mid), self.frac + 2, rn)[1:3]
        return value

    def chain(self, panels):
        """exp(-x mid) for ``panels``, consecutive outward from the window, into ``scales``.

        exp(-x mid') = exp(-x mid) exp(-x d), d = mid' - mid exact, at
        frac + 2 + ``_CHAIN_GUARD_BITS`` bits: the first mid and the first d
        take one exponential each, and a d twice the last takes its factor's
        square, one equal to it the same factor, any other d an exponential.
        Each product and square is truncated to as many bits, so after i
        steps and k squarings of a factor a value is within i + 2^(k+2)
        units of 2^-(frac + 1 + _CHAIN_GUARD_BITS), relative, before it is
        cut to frac + 2 bits.
        """
        bits = self.frac + 2 + _CHAIN_GUARD_BITS
        last = step = factor = value = None
        for mid, _ in panels:
            if last is None:
                value = mpf_exp(mpf_mul(self.neg_x, mid), bits, rn)[1:3]
            else:
                d = mpf_sub(mid, last)
                if step is not None and d == mpf_shift(step, 1):
                    factor = _times(factor, factor, bits)
                elif d != step:
                    factor = mpf_exp(mpf_mul(self.neg_x, d), bits, rn)[1:3]
                step = d
                value = _times(value, factor, bits)
            self.scales[mid] = _times(value, (1, 0), self.frac + 2)
            last = mid

    def __call__(self, level):
        table = self.levels.get(level)
        if table is None:
            frac = self.frac
            if level <= _BASE_LEVEL:
                one, wide = 1 << frac, frac + 16
                up = [to_fixed(mpf_exp(mpf_shift(mpf_mul(self.neg_x, z._mpf_), level),
                                       wide + 2, rn), wide)
                      for z in self.nodes[:len(self.nodes) // 2]]
                table = ([(e >> 16) - one for e in up] + [0]
                         + [(1 << frac + wide) // e - one for e in reversed(up)])
            else:
                table = [2 * b + (b * b >> frac) for b in self(level - 1)]
            self.levels[level] = table
        return table


def _kronrod_panel(mid, level, n, x, j, factors):
    """(Gauss estimate, Kronrod estimate) of the panel mid +- 2^level at argument x.

    exp(x L) = exp(-x mid) (1 + B), the first factor from ``factors.scale``,
    B the node's entry in ``factors``.  With the weights W of
    ``_panel_weights``, a rule's estimate is exp(-x mid) sum W (1 + B), less
    sum W for j = 0, plus the s = 0 node's term: one dot product of W and the
    Bs, exact on integers, and the sum rounded once to nearest.
    """
    ctx = x.context
    prec, xr, frac = ctx.prec, x._mpf_, factors.frac
    am, ae = factors.scale(mid)
    low, kronrod, gauss = _panel_weights(mid, level, n, prec, j)
    if j == 0:
        # exp(-x s) - 1 is (am (one + B) << shift) - unit in units of 2^base;
        # the quotient's limit at s = 0 is x, whose sign bit is clear
        base = min(ae - frac, 0)
        shift, unit, fm, fe = ae - frac - base, 1 << -base, xr[1], xr[2]
    else:
        base, shift, unit, fm, fe = ae - frac, 0, 0, int(j == 1), 0
    b = factors(level)
    estimates = []
    for (weights, total, (cm, ce)), nodes in ((gauss, b[1::2]), (kronrod, b)):
        dot = am * ((total << frac) + sum(map(mul, weights, nodes)))
        terms = [((dot << shift) - unit * total, base + low), (cm * fm, ce + fe)]
        estimates.append(ctx.make_mpf(_round_sum(terms, prec)))
    return tuple(estimates)


def _adaptive(panels, x, j, tol_abs, n, state, factors):
    """Adaptive bisection over (mid, level) panels, left to right, on tuples at x's precision."""
    ctx = x.context
    prec = ctx.prec
    span = fzero
    for _, level in panels:
        span = mpf_add(span, mpf_shift(fone, level + 1), prec, rn)
    min_width = mpf_mul(span, negligible_ratio(prec)._mpf_, prec, rn)
    # a panel of width 2^(level+1) may err by tol 2^(level+1) / span; the
    # power of two leaves the rounded quotient exact
    share = mpf_div(tol_abs._mpf_, span, prec, rn)
    total = err = fzero
    stack = list(reversed(panels))
    while stack:
        mid, level = stack.pop()
        state["evals"] += 2 * n + 1
        if state["evals"] > MAX_EVALUATIONS:
            raise PrecisionUnreachableError(
                f"quadrature budget of {MAX_EVALUATIONS} evaluations exhausted "
                "before the error target was met"
            )
        v1, v2 = (v._mpf_ for v in _kronrod_panel(mid, level, n, x, j, factors))
        e = mpf_abs(mpf_sub(v2, v1, prec, rn))
        if mpf_le(e, mpf_shift(share, level + 1)) or mpf_le(mpf_shift(fone, level + 1), min_width):
            total = mpf_add(total, v2, prec, rn)
            err = mpf_add(err, e, prec, rn)
        else:
            quarter = mpf_shift(fone, level - 1)
            stack.append((mpf_add(mid, quarter), level - 1))
            stack.append((mpf_sub(mid, quarter), level - 1))
    return ctx.make_mpf(total), ctx.make_mpf(err)


def _dyadic_panels(stop, top):
    """(mid, level) from the window's edge out past stop, levels rising up to top; and the end.

    On raw mpf tuples, exactly: every edge and mid is dyadic.
    """
    panels = []
    level = _BASE_LEVEL
    edge = mpf_shift(fone, level)
    while mpf_lt(edge, stop):
        half = mpf_shift(fone, level)
        panels.append((mpf_add(edge, half), level))
        edge = mpf_add(edge, mpf_shift(half, 1))
        level = min(level + 1, top)
    return panels, edge


def _working_context(p):
    # every Kurepa integral runs at p's digits and 15 guard digits
    return context(dps_to_prec(p.decimal_digits + 15))


@lru_cache(maxsize=_CACHE_LIMIT)
def _low_side(count, p):
    """The low side's first ``count`` panels, their end s = (2^(count+1) - 1) / 8, and exp(-s).

    At p's working precision; memoized on both arguments.
    """
    ctx = _working_context(p)
    panels, edge = _dyadic_panels(from_man_exp((1 << count + 1) - 1, _BASE_LEVEL), math.inf)
    edge = ctx.make_mpf(edge)
    return tuple(panels), edge, ctx.exp(-edge)


@lru_cache(maxsize=_CACHE_LIMIT)
def _cutoff_logs(p):
    """ln of ``series_floor``, of 64 / ``resolution_floor`` and of 5/4 at p's working precision.

    The targets of the two cut-off searches, each a comparison of logs:
    the high side's exp(-T) T^(x+1) against the floor, and the low side's
    tail bound against share = target / 8, with eps = 1/8; and the step of
    ln T between two of the high side's T.
    """
    ctx = _working_context(p)
    return (ctx.ln(series_floor(p, ctx.prec)),
            ctx.ln(64 / resolution_floor(p, ctx.prec)),
            ctx.ln(ctx.mpf(5) / 4))


@lru_cache(maxsize=_CACHE_LIMIT)
def _high_cutoff(start, k, p):
    """(x_T, ln T) of the search's k-th T, T = start (5/4)^k rounded at each step.

    The search passes T while exp(-T) T^(x+1) exceeds the series floor,
    that is while x > x_T = (T + ln floor) / ln T - 1.  ln T is ln start
    for k = 0, else the (k-1)-th entry's ln T plus ln(5/4), rounded: within
    k + 1 units in its last place of ln T, as T is exact while
    start 5^k has at most the working precision's bits.  Memoized on all
    three arguments.
    """
    ctx = _working_context(p)
    T = ctx.mpf(start)
    for _ in range(k):
        T *= ctx.mpf(5) / 4
    log_t = _high_cutoff(start, k - 1, p)[1] + _cutoff_logs(p)[2] if k else ctx.ln(T)
    return (T + _cutoff_logs(p)[0]) / log_t - 1, log_t


@lru_cache(maxsize=_CACHE_LIMIT)
def _high_side(start, k, p):
    """The high side's panels out past -ln T, T of ``_high_cutoff(start, k, p)``; T = exp(edge) and exp(-T).

    Memoized on all three arguments.
    """
    ctx = _working_context(p)
    panels, edge = _dyadic_panels(_high_cutoff(start, k, p)[1]._mpf_, _HIGH_LEVEL)
    panels = tuple((mpf_neg(mid), level) for mid, level in reversed(panels))
    T = ctx.exp(ctx.make_mpf(edge))
    return panels, T, ctx.exp(-T)


def _low_tail_sum(x, j, s_max):
    # the sum over i <= j of j!/(j-i)! s_max^(j-i) / c^(i+1), c = x + 1
    ctx = x.context
    c = x + 1
    total = ctx.mpf(0)
    fall = ctx.mpf(1)
    for i in range(j + 1):
        total += fall * s_max ** (j - i) / c ** (i + 1)
        fall *= j - i
    return total


def _high_tail_bound(x, j, T, decay):
    # decay = exp(-T); uses log(t) <= sqrt(t) for t >= 1 and
    # int_T t^q e^-t dt <= e^-T T^q/(1-q/T)
    ctx = x.context
    if j == 0:
        gx = decay * ctx.power(T, x) / (1 - x / T) if x > 0 else decay
        return (gx + decay) / (T - 1)
    q = x + ctx.mpf(j) / 2
    return decay * ctx.power(T, q) / (1 - q / T) / (T - 1)


def _kurepa_integral(x, j, p):
    digits = p.decimal_digits
    xv = to_mpf(x, p)
    if not mpmath.isfinite(xv):
        raise ConfigurationError(f"kurepa argument must be finite, got {xv}")
    if not 0 <= xv <= MAX_ARGUMENT:
        raise DomainError(f"kurepa argument {xv} lies outside [0, {MAX_ARGUMENT}]")
    if j > MAX_ORDER:
        raise DomainError(f"kurepa derivative of order {j} is not supported (max {MAX_ORDER})")
    # x is rounded once, to p's working context; ctx, at p's digits and 15
    # guard digits, takes its bits as they are
    ctx = _working_context(p)
    xv = to_mpf(xv, ctx.prec)
    target = resolution_floor(p, ctx.prec)
    region_tol = target / 4
    eps = ctx.mpf(1) / 8
    n_base = max(20, (digits + 15) // 2)
    state = {"evals": 0}

    # the low side s > 0 of t = exp(-s), out past s_max: the first of
    # s_0 (5/4)^k whose tail bound exp(-c s) total / eps is at most
    # share = target / 8, c = x + 1 and total from _low_tail_sum (c = 1 and
    # total = 1 for j = 0), compared in logs.  The panels run to the first edge at or past
    # it, the count-th, (2^(count+1) - 1) / 8: 2^(count+1) is the least
    # power of two at or above 8 s_max + 1
    log_share = _cutoff_logs(p)[1]
    s_max = ctx.mpf(max(20, int((digits + 14) * 2.303 / (float(xv) + 1)) + 1))
    while (s_max if j == 0
           else (xv + 1) * s_max - ctx.ln(_low_tail_sum(xv, j, s_max))) < log_share:
        s_max *= ctx.mpf(5) / 4
    _, man, e, bc = mpf_add(mpf_shift(s_max._mpf_, -_BASE_LEVEL), fone)
    low, s_edge, decay = _low_side(e + bc - (man == 1) - 1, p)
    # the integrand is at most exp(-(x+1)s) s^j / eps for s >= s_edge
    if j:
        decay = ctx.exp(-(xv + 1) * s_edge) * _low_tail_sum(xv, j, s_edge)
    tail_low = decay / eps

    # the high side s < 0, out past -log T, the first of T_0 (5/4)^k with
    # exp(-T) T^(x+1) at most the series floor.  The closed tail bound
    # needs T well above x+j; there, with x + j / 2 < T / 2, it is below
    # that floor, and so never above share
    start, k = max(40, digits, 2 * (int(xv) + j) + 40), 0
    while xv > _high_cutoff(start, k, p)[0]:
        k += 1
    high, T, decay = _high_side(start, k, p)
    tail_high = _high_tail_bound(xv, j, T, decay)

    factors = _ExpFactors(xv, n_base, ctx.prec)
    factors.chain(low)
    factors.chain(reversed(high))
    v_low, e_low = _adaptive(low, xv, j, region_tol, n_base, state, factors)
    v_win, e_win = _adaptive([(fzero, _BASE_LEVEL)], xv, j, region_tol, n_base, state, factors)
    v_high, e_high = _adaptive(high, xv, j, region_tol, n_base, state, factors)

    value = v_low + v_win + v_high
    err = e_low + e_win + e_high + tail_low + tail_high
    if err > target:
        raise PrecisionUnreachableError(
            f"accumulated quadrature error {err} exceeds target {target}"
        )
    return QuadratureResult(
        value=+value,
        error_bound=+err,
        nodes_used=state["evals"],
        tail_cutoff=+T,
    )


def kurepa(x, p: Precision = Precision()) -> QuadratureResult:
    """K(x) for 0 <= x <= MAX_ARGUMENT with error_bound at most 10^-(digits-10).

    x is rounded to p's working context, unless it is an mpf, whose bits are
    kept; the integral is computed at that x, at p's digits and 15 guard
    digits, and an x outside the domain raises DomainError.
    It is taken in s = -log t over the window [-1/8, 1/8] and dyadic panels
    either side of it, laid out by a plan memoized per precision; at a node
    s = mid + 2^level z the integrand is c expm1(-x s), c from the panel's
    memoized node table, with exp(-x s) = exp(-x mid) (1 + B): exp(-x mid)
    by a chain along the panels, within 2^-(prec + 40) or finer, relative,
    and B in fixed point, within 2^(k+2) max(1, 1 + B) units of
    2^-(prec + 40) or finer, k the level's doublings above 1/8.  A warm call
    that bisects no panel takes n + 6 exponentials, n of them for the Bs of
    its first level, n the Gauss rule's size (25 at P35); a panel's
    estimate is one integer dot product of its Bs with weights folded once
    per panel and order.  ``error_bound`` sums the panels' Kronrod-minus-Gauss
    estimates and the two tail bounds.
    """
    return _kurepa_integral(x, 0, p)


def kurepa_derivative(x, order: int, p: Precision = Precision()) -> QuadratureResult:
    """j-th derivative of K at x, 1 <= j <= MAX_ORDER, by the log-kernel integrals.

    Panels, factors and domain are ``kurepa``'s; the integrand is
    c L^j exp(x L), L = -s, with L^j exact, and c for j = 1 and 0 for j >= 2
    at s = 0.  An order above MAX_ORDER raises DomainError.
    """
    if not isinstance(order, int) or order < 1:
        raise ConfigurationError(f"derivative order must be a positive integer, got {order!r}")
    return _kurepa_integral(x, order, p)


INFLECTION_WIDTH = "1e-9"


def find_inflection(p: Precision = Precision(), bracket=(0, 1)) -> mpmath.mpf:
    """Bisection root of K'' on ``bracket``, to INFLECTION_WIDTH; K is concave left of the root.

    Bisection is preferred over Newton here: each K'' evaluation is an
    adaptive quadrature, so sign robustness matters more than step count.
    """
    lo, hi = finite_segment(*bracket, p)
    wtol = to_mpf(INFLECTION_WIDTH, p)
    f_lo = kurepa_derivative(lo, 2, p).value
    f_hi = kurepa_derivative(hi, 2, p).value
    if not (f_lo < 0 < f_hi):
        raise RootBracketError(
            "second derivative does not change sign over the bracket; "
            "the quadrature is likely misconfigured"
        )
    while hi - lo > wtol:
        mid = (lo + hi) / 2
        fm = kurepa_derivative(mid, 2, p).value
        if fm == 0:
            return mid
        if fm < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2
