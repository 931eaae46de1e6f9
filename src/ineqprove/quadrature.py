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
the error target; each side's panels run on to the first panel edge past
its cut-off, and both tail bounds, taken at those edges (the high side's is
``tail_cutoff``), are added to ``error_bound``.  Every half-width is a power
of two, and no panel depends on x.

At a node s = mid + 2^level z, exact, the integrand is c expm1(x L) for
j = 0 and c L^j exp(x L) for j >= 1, L = -s; c is kept in a node table per
panel, built on raw mpf tuples and exactly multiplied into the weights.
exp(x L) = exp(-x mid) (1 + B): one exponential per panel, and B =
expm1(-x 2^level z) in fixed point, computed once per call at the first
level and squared up the others (``_ExpFactors``).  Per panel and order j,
each rule's weights times L^j are folded once onto one exponent, so each
estimate is one exact integer dot product with the Bs, rounded once.

Each panel's error is estimated by comparing the n-node Gauss rule with its
nested (2n+1)-node Kronrod extension, and a panel whose estimate exceeds its
share of the error target is bisected.  Both rules come from one recurrence,
that of Laurie's Jacobi-Kronrod matrix, by one Newton iteration for the
nodes, at a width that doubles as the root sharpens, and one formula for the
weights, all in fixed point on integers, rounded to the working precision at
the end.  The rules, node tables and folded weights are pure functions of
their arguments, the binary precision among them, each memoized in a
bounded LRU memo; as a memoized value depends only on its key, the factors
of a call live in the call, and everything is summed in a fixed order,
results are bit-for-bit reproducible, with or without warm memos.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import mul

import mpmath
from mpmath.libmp import (
    dps_to_prec, fone, from_man_exp, from_rational, fzero, mpf_abs, mpf_add, mpf_div,
    mpf_exp, mpf_le, mpf_mul, mpf_neg, mpf_pos, mpf_shift, mpf_sub, round_nearest as rn,
    to_fixed,
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
    of the node's angle at the first of a chain of widths of at least 53
    bits, each twice the last, up to frac; as each step doubles the correct
    bits, one or two steps at each width take the root to the next, and
    about one runs at full width.
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

    def newton_root(seed, top, divisor):
        # f = p_top / p_divisor; p_0 = 1, so divisor 0 gives p_top.  A step
        # under 2^-(w/2) at width w leaves an error of about its square,
        # 2^-w: the last step that width needs
        level, z = 0, int(seed * 2.0 ** widths[0])
        for _ in range(100):
            w, b = widths[level], cut[level]
            r0, r1, d0, d1 = 0, 1 << w, 0, 0
            for k in range(top):
                if k == divisor:
                    rd, dd = r1, d1
                r0, r1, d0, d1 = r1, (2 * z * r1 - b[k] * r0) >> w, d1, \
                    (2 * ((r1 << w) + z * d1) - b[k] * d0) >> w
            dz = (r1 * rd << w) // (d1 * rd - r1 * dd)
            z -= dz
            if abs(dz) <= 1 << (w + 1) // 2:
                if w == frac:
                    break
                level += 1
                z <<= widths[level] - w
        return z

    # q_k^2 = r_k^2 / (b_0 B_k), b_0 = 2 and B_k the product of 4 b_1 .. 4 b_k
    inv_b = [one]
    for v in b4[1:]:
        inv_b.append((inv_b[-1] << frac) // v)

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
    # rounded to prec bits, the form in which they join the Kronrod rule
    gauss = [newton_root(math.cos(math.pi * (i - 0.25) / (n + 0.5)), n, 0)
             for i in range(1, n // 2 + 1)]
    half_g = [weight(z, n) for z in gauss]
    g_weights = half_g + [weight(0, n)] * (n % 2) + half_g[::-1]
    gauss = [to_fixed(rounded(z), frac) for z in gauss]

    # one new node in each gap of 1 > g_1 > g_2 > ... > 0, seeded at the
    # gap's middle angle; 0 closes the last gap only when it is a Gauss
    # node (odd n), else that gap is symmetric about 0 and its node is 0
    edges = [0.0] + [math.acos(z / one) for z in gauss]
    if n % 2:
        edges.append(math.pi / 2)
    added = [newton_root(math.cos((lo + hi) / 2), 2 * n + 1, n)
             for lo, hi in zip(edges, edges[1:])]
    half = sorted(gauss + added)
    nodes = [mpf_neg(rounded(z)) for z in reversed(half)] + [fzero] + [rounded(z) for z in half]
    half_k = [weight(z, 2 * n + 1) for z in half]
    k_weights = half_k[::-1] + [weight(0, 2 * n + 1)] + half_k
    ctx = context(prec)
    return tuple(tuple(ctx.make_mpf(v) for v in part) for part in (nodes, k_weights, g_weights))


# a panel's half-width is 2^level: _BASE_LEVEL for the window and its two
# neighbours, at most _HIGH_LEVEL for s < 0
_BASE_LEVEL = -3
_HIGH_LEVEL = -1

# fraction bits the exponential factors of a call carry beyond the working
# precision; a factor's error grows by a bit per level it is doubled
_FACTOR_GUARD_BITS = 40


@lru_cache(maxsize=_CACHE_LIMIT)
def _node_table(mid, level, n, prec):
    """(L, k, k_exp, g, g_exp) per Kronrod node of the panel mid +- 2^level in s.

    L = -s, s = mid + 2^level z exactly; at s = 0 L is None and c = exp(-1),
    the quotient's limit being x for j = 0, 1 for j = 1 and 0 for j >= 2.
    Elsewhere c = exp(-w) w / (w - 1), w = exp(-s) = t carrying dt = -w ds,
    each step rounded to nearest at ``prec`` bits, w - 1 from an exp(-s) with
    as many more bits as s is below 1.  k 2^k_exp and g 2^g_exp are the exact
    products 2^level c w_K and 2^level c w_G; g is 0 where only the Kronrod
    rule has a node.  Memoized on all four arguments, mid a raw mpf tuple.
    """
    nodes, k_weights, g_weights = gauss_kronrod_rule(n, prec)
    table = []
    for i, (z, w_k) in enumerate(zip(nodes, k_weights)):
        s = mpf_add(mid, mpf_shift(z._mpf_, level))
        if s == fzero:
            c, ell = mpf_exp(mpf_neg(fone), prec, rn), None
        else:
            wide = mpf_exp(mpf_neg(s), prec + 10 + max(0, -(s[2] + s[3])), rn)
            w = mpf_pos(wide, prec, rn)
            c = mpf_div(mpf_mul(mpf_exp(mpf_neg(w), prec, rn), w, prec, rn),
                        mpf_sub(wide, fone, prec, rn), prec, rn)
            ell = mpf_neg(s)
        hc = mpf_shift(c, level)
        table.append((ell, *_exact(hc, w_k), *(_exact(hc, g_weights[i // 2]) if i % 2 else (0, 0))))
    return tuple(table)


def _exact(a, w):
    # a w exactly, as a signed integer and an exponent
    sign, man, exp, _ = mpf_mul(a, w._mpf_)
    return -man if sign else man, exp


@lru_cache(maxsize=_CACHE_LIMIT)
def _panel_weights(mid, level, n, prec, j):
    """The node table's weights folded with L^j: (low, Kronrod rule, Gauss rule).

    Each rule is (weights, their sum, centre): weights[i] 2^low is the exact
    2^level c w L^j at the rule's i-th node (2^level c w for j = 0), and 0 at
    s = 0, whose 2^level c w is ``centre`` as (integer, exponent), or (0, 0)
    where the rule has no node there.  Memoized on all five arguments.
    """
    kronrod, gauss, centre = [], [], ((0, 0), (0, 0))
    for i, (ell, km, ke, gm, ge) in enumerate(_node_table(mid, level, n, prec)):
        if ell is None:
            centre, km, gm = ((km, ke), (gm, ge)), 0, 0
        elif j:
            sign, lm, le, _ = ell
            power = (-lm if sign else lm) ** j
            km, ke, gm, ge = km * power, ke + le * j, gm * power, ge + le * j
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
    A level at or below ``_BASE_LEVEL`` takes one exponential to frac + 2
    bits per node, truncated to frac bits, so within 1 + (1 + B) / 2 units;
    each level above it squares the one below, as 1 + B' = (1 + B)^2, that
    is B' = 2B + B^2, with B^2 truncated to frac bits.  A level k squarings
    above the base is then within 2^(k+2) max(1, 1 + B) units of 2^-frac of
    the exact value.  The tables live in the object, so calls share none.
    """

    def __init__(self, x, n, prec):
        xr = x._mpf_
        self.neg_x = mpf_neg(xr)
        self.nodes = gauss_kronrod_rule(n, prec)[0]
        self.frac = (prec + _FACTOR_GUARD_BITS + max(0, -(xr[2] + xr[3]))
                     + math.ceil(float(x) * 2.0 ** _HIGH_LEVEL / math.log(2)))
        self.levels = {}

    def __call__(self, level):
        table = self.levels.get(level)
        if table is None:
            if level <= _BASE_LEVEL:
                table = [to_fixed(mpf_exp(mpf_shift(mpf_mul(self.neg_x, z._mpf_), level),
                                          self.frac + 2, rn), self.frac) - (1 << self.frac)
                         for z in self.nodes]
            else:
                table = [2 * b + (b * b >> self.frac) for b in self(level - 1)]
            self.levels[level] = table
        return table


def _kronrod_panel(mid, level, n, x, j, factors):
    """(Gauss estimate, Kronrod estimate) of the panel mid +- 2^level at argument x.

    exp(x L) = exp(-x mid) (1 + B), the first factor one exponential to
    frac + 2 bits, B the node's entry in ``factors``.  With the weights W of
    ``_panel_weights``, a rule's estimate is exp(-x mid) sum W (1 + B), less
    sum W for j = 0, plus the s = 0 node's term: one dot product of W and the
    Bs, exact on integers, and the sum rounded once to nearest.
    """
    ctx = x.context
    prec, xr, frac = ctx.prec, x._mpf_, factors.frac
    _, am, ae, _ = mpf_exp(mpf_mul(factors.neg_x, mid), frac + 2, rn)
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


def _dyadic_panels(stop, top, ctx):
    """(mid, level) from the window's edge out past stop, levels rising up to top; and the end."""
    panels = []
    edge = ctx.ldexp(1, _BASE_LEVEL)
    level = _BASE_LEVEL
    while edge < stop:
        half = ctx.ldexp(1, level)
        panels.append(((edge + half)._mpf_, level))
        edge += 2 * half
        level = min(level + 1, top)
    return panels, edge


def _low_tail_bound(x, j, s_max, eps):
    # integrand bound: exp(-(x+1)s) s^j / eps for s >= s_max
    ctx = x.context
    c = x + 1
    if j == 0:
        return ctx.exp(-s_max) / eps
    total = ctx.mpf(0)
    fall = ctx.mpf(1)
    for i in range(j + 1):
        total += fall * s_max ** (j - i) / c ** (i + 1)
        fall *= j - i
    return ctx.exp(-c * s_max) * total / eps


def _high_tail_bound(x, j, T):
    # uses log(t) <= sqrt(t) for t >= 1 and int_T t^q e^-t dt <= e^-T T^q/(1-q/T)
    ctx = x.context
    if j == 0:
        gx = ctx.exp(-T) * ctx.power(T, x) / (1 - x / T) if x > 0 else ctx.exp(-T)
        return (gx + ctx.exp(-T)) / (T - 1)
    q = x + ctx.mpf(j) / 2
    return ctx.exp(-T) * ctx.power(T, q) / (1 - q / T) / (T - 1)


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
    ctx = context(dps_to_prec(digits + 15))
    xv = to_mpf(xv, ctx.prec)
    target = resolution_floor(p, ctx.prec)
    share = target / 8
    region_tol = target / 4
    term_tol = series_floor(p, ctx.prec)
    eps = ctx.mpf(1) / 8
    n_base = max(20, (digits + 15) // 2)
    state = {"evals": 0}

    # the low side s > 0 of t = exp(-s), out past s_max
    s_max = ctx.mpf(max(20, int((digits + 14) * 2.303 / (float(xv) + 1)) + 1))
    while _low_tail_bound(xv, j, s_max, eps) > share:
        s_max *= ctx.mpf(5) / 4
    low, s_edge = _dyadic_panels(s_max, math.inf, ctx)
    tail_low = _low_tail_bound(xv, j, s_edge, eps)

    # the high side s < 0, out past -log T; the closed tail bound needs T
    # well above x+j
    T = ctx.mpf(max(40, digits, 2 * (int(xv) + j) + 40))
    while (ctx.exp(-T) * ctx.power(T, xv + 1) > term_tol
           or _high_tail_bound(xv, j, T) > share):
        T *= ctx.mpf(5) / 4
    high, t_edge = _dyadic_panels(ctx.ln(T), _HIGH_LEVEL, ctx)
    high = [(mpf_neg(mid), level) for mid, level in reversed(high)]
    T = ctx.exp(t_edge)
    tail_high = _high_tail_bound(xv, j, T)

    factors = _ExpFactors(xv, n_base, ctx.prec)
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
    either side of it; at a node s = mid + 2^level z the integrand is
    c expm1(-x s), with exp(-x s) = exp(-x mid) (1 + B): one exponential per
    panel, and B in fixed point, within 2^(k+2) max(1, 1 + B) units of
    2^-(prec + 40) or finer, k the level's doublings above 1/8; a panel's
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
