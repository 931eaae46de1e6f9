"""Adaptive Gauss-Kronrod quadrature for the Kurepa function family.

The Kurepa function is the improper integral

    K(x) = integral_0^inf exp(-t) (t^x - 1)/(t - 1) dt        (x >= 0)

and its derivatives replace (t^x - 1) by t^x log(t)^j.  The integrand has a
removable singularity at t = 1 and an endpoint singularity of log type at
t = 0 for the derivative integrals.  The domain is therefore split:

* (0, 7/8]   -- substituted t = exp(-s), which turns the t -> 0 endpoint
               into a smooth exponential tail in s;
* [7/8, 9/8] -- integrated in u = t - 1, with the quotient at u = 0 replaced
               by its limit;
* [9/8, T]  -- integrated directly; T is chosen so the dropped tail is
               provably below the error target and its bound is added to
               ``error_bound``.

In every region the integrand at a node is c expm1(x L) for j = 0 and
c L^j exp(x L) for j >= 1, where only the factors (c, L) depend on the region
and the node, never on x.  They are kept in a node table per panel, built on
raw mpf tuples, c exactly multiplied into the weights, so each x costs one
exponential per node, and each estimate is an exact sum, formed on integers
and rounded once.

Each region is covered by adaptive panels whose error is estimated by
comparing the n-node Gauss rule with its nested (2n+1)-node Kronrod extension.
Both rules come from one recurrence, that of Laurie's Jacobi-Kronrod matrix,
by one Newton iteration for the nodes, at a width that doubles as the root
sharpens, and one formula for the weights, all in fixed point on integers,
rounded to the working precision at the end.
The rules and the node tables are pure functions of their arguments, the
binary precision among them, each memoized in a bounded LRU memo; as a
memoized value depends only on its key, and everything is summed in a fixed
order, results are bit-for-bit reproducible, with or without warm memos.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath
from mpmath.libmp import (
    dps_to_prec, fone, from_man_exp, from_rational, fzero, mpf_add, mpf_div, mpf_exp, mpf_log,
    mpf_mul, mpf_neg, mpf_pos, mpf_shift, mpf_sub, round_nearest as rn, to_fixed,
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

# entries kept by each memo: the Kronrod rules and the node tables
_CACHE_LIMIT = 65536

# bits the Kronrod rule carries beyond its precision until it rounds
_RULE_GUARD_BITS = 80

# default cap on integrand evaluations of one Kurepa integral
MAX_EVALUATIONS = 500000


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


def _log1p(u, prec):
    """mpmath's log1p(u) at ``prec`` bits, bit for bit, on raw mpf tuples.

    mpmath raises the precision by 10 bits while it runs; its series branch
    for |u| < 2^-(prec+10) is left out, since no node comes that close to 1.
    """
    wp = prec + 10
    return mpf_pos(mpf_log(mpf_add(fone, u, 2 * wp, rn), wp, rn), prec, rn)


# The node maps: the factors (c, L) at a node, as raw mpf tuples rounded to
# nearest at ``prec`` bits in the order the integrand's formula reads.

def _low_node(s, prec):
    # t in (0, 7/8] via t = exp(-s); c carries the dt = -exp(-s) ds factor
    w = mpf_exp(mpf_neg(s), prec, rn)
    c = mpf_mul(mpf_exp(mpf_neg(w), prec, rn), w, prec, rn)
    return mpf_div(c, mpf_sub(w, fone, prec, rn), prec, rn), mpf_neg(s)


def _window_node(u, prec):
    # u = t - 1; at u = 0 L is None and c = exp(-1), the quotient's limit
    # being x for j = 0, 1 for j = 1 and 0 for j >= 2
    if u == fzero:
        return mpf_exp(mpf_neg(fone), prec, rn), None
    return (mpf_div(mpf_exp(mpf_neg(mpf_add(u, fone, prec, rn)), prec, rn), u, prec, rn),
            _log1p(u, prec))


def _high_node(t, prec):
    return (mpf_div(mpf_exp(mpf_neg(t), prec, rn), mpf_sub(t, fone, prec, rn), prec, rn),
            mpf_log(t, prec, rn))


@lru_cache(maxsize=_CACHE_LIMIT)
def _node_table(node_map, lo, hi, n, prec):
    """(L, k, k_exp, g, g_exp) per Kronrod node of [lo, hi]; L is None at u = 0.

    L is a raw mpf tuple, and k 2^k_exp and g 2^g_exp, k and g integers, are
    the exact products half c w_K and half c w_G; g is 0 where only the Kronrod
    rule has a node.  Computed on the tuples of lo and hi, each step rounded
    to nearest at ``prec`` bits, their precision, and memoized on all five
    arguments.
    """
    half = mpf_shift(mpf_sub(hi._mpf_, lo._mpf_, prec, rn), -1)
    mid = mpf_shift(mpf_add(lo._mpf_, hi._mpf_, prec, rn), -1)
    nodes, k_weights, g_weights = gauss_kronrod_rule(n, prec)
    table = []
    for i, (z, w_k) in enumerate(zip(nodes, k_weights)):
        c, ell = node_map(mpf_add(mid, mpf_mul(half, z._mpf_, prec, rn), prec, rn), prec)
        hc = mpf_mul(half, c)
        table.append((ell, *_exact(hc, w_k), *(_exact(hc, g_weights[i // 2]) if i % 2 else (0, 0))))
    return tuple(table)


def _exact(a, w):
    # a w exactly, as a signed integer and an exponent
    sign, man, exp, _ = mpf_mul(a, w._mpf_)
    return -man if sign else man, exp


def _round_sum(terms, prec):
    """The exact sum of (integer, exponent) terms, rounded once to nearest."""
    low = min(exp for _, exp in terms)
    return from_man_exp(sum(man << (exp - low) for man, exp in terms), low, prec, rn)


def _kronrod_panel(table, x, j):
    """(Gauss estimate, Kronrod estimate) of one panel at argument x.

    Only x L and exp(x L) are rounded, the latter with as many extra bits for
    j = 0 as exp(x L) - 1 is smaller than 1; every term is exact, and each
    estimate is its terms' exact integer sum, rounded once to nearest.
    """
    ctx = x.context
    prec, xr = ctx.prec, x._mpf_
    gauss, kronrod = [], []
    for ell, km, ke, gm, ge in table:
        if ell is None:
            # the quotient's limit at u = 0; x >= 0, so its sign bit is clear
            fm, fe = (xr[1], xr[2]) if j == 0 else (int(j == 1), 0)
        elif j == 0:
            y = mpf_mul(xr, ell, prec, rn)
            _, man, exp, _ = mpf_exp(y, prec + 10 + max(0, -(y[2] + y[3])), rn)
            fe = min(exp, 0)
            fm = (man << (exp - fe)) - (1 << -fe)
        else:
            _, man, exp, _ = mpf_exp(mpf_mul(xr, ell, prec, rn), prec, rn)
            sign, lm, le, _ = ell
            fm, fe = man * (-lm if sign else lm) ** j, exp + le * j
        kronrod.append((km * fm, ke + fe))
        if gm:
            gauss.append((gm * fm, ge + fe))
    return ctx.make_mpf(_round_sum(gauss, prec)), ctx.make_mpf(_round_sum(kronrod, prec))


def _adaptive(node_map, panels, x, j, tol_abs, n, state):
    """Adaptive bisection over an initial panel list, left to right, in x's context."""
    ctx = x.context
    span = ctx.mpf(0)
    for lo, hi in panels:
        span += hi - lo
    min_width = span * negligible_ratio(ctx.prec)
    total = ctx.mpf(0)
    err = ctx.mpf(0)
    stack = list(reversed(panels))
    while stack:
        lo, hi = stack.pop()
        width = hi - lo
        state["evals"] += 2 * n + 1
        if state["evals"] > state["budget"]:
            raise PrecisionUnreachableError(
                f"quadrature budget of {state['budget']} evaluations exhausted "
                "before the error target was met"
            )
        v1, v2 = _kronrod_panel(_node_table(node_map, lo, hi, n, ctx.prec), x, j)
        e = abs(v2 - v1)
        if e <= tol_abs * width / span or width <= min_width:
            total += v2
            err += e
        else:
            mid = (lo + hi) / 2
            stack.append((mid, hi))
            stack.append((lo, mid))
    return total, err


def _geometric_panels(lo, hi, first_width):
    panels = []
    cur = lo
    width = first_width
    while cur < hi:
        nxt = min(cur + width, hi)
        panels.append((cur, nxt))
        cur = nxt
        width *= 2
    return panels


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


def _kurepa_integral(x, j, p, node_factor, tail_factor, max_evaluations):
    digits = p.decimal_digits
    xv = to_mpf(x, p)
    if not mpmath.isfinite(xv):
        raise ConfigurationError(f"kurepa argument must be finite, got {xv}")
    x_probe = float(xv)
    if x_probe > 1000:
        raise ConfigurationError(
            f"kurepa argument {x_probe} is too large: the integral has about "
            "Gamma(x) magnitude and an absolute error target is meaningless there"
        )
    guard = 15
    if x_probe > 2:
        # the integrals grow like Gamma(x); carry enough digits that the
        # absolute error target stays above the rounding floor, rounded up to
        # a multiple of 10 so that nearby x share a working precision, and
        # with it the memoized rules and node tables
        guard += -(-(int(x_probe * math.log10(x_probe)) + 5) // 10) * 10
    ctx = context(dps_to_prec(digits + guard))
    # x is rounded once, to p's working context; ctx takes its bits as they are
    xv = to_mpf(xv, ctx.prec)
    if xv < 0:
        raise DomainError(f"kurepa integrals require x >= 0, got {xv}")
    tf = to_mpf(tail_factor, ctx.prec)
    target = resolution_floor(p, ctx.prec)
    share = target / 8
    region_tol = target / 4
    term_tol = series_floor(p, ctx.prec)
    eps = ctx.mpf(1) / 8
    n_base = max(20, (digits + 15) // 2) * node_factor
    state = {"evals": 0, "budget": max_evaluations}

    # low region (0, 1-eps], substituted t = exp(-s)
    s0 = ctx.make_mpf(mpf_neg(_log1p(mpf_neg(eps._mpf_), ctx.prec)))
    s_max = ctx.mpf(max(20, int((digits + 14) * 2.303 / (float(xv) + 1)) + 1))
    while _low_tail_bound(xv, j, s_max, eps) > share:
        s_max *= ctx.mpf(5) / 4
    tail_low = _low_tail_bound(xv, j, s_max, eps)
    v_low, e_low = _adaptive(
        _low_node, _geometric_panels(s0, s_max, ctx.mpf(1)),
        xv, j, region_tol, n_base, state,
    )

    # window [1-eps, 1+eps] in u = t - 1
    v_win, e_win = _adaptive(
        _window_node, [(-eps, eps)], xv, j, region_tol, n_base, state,
    )

    # high region [1+eps, T]; the closed tail bound needs T well above x+j
    T = ctx.mpf(max(40, digits, 2 * (int(xv) + j) + 40))
    while (ctx.exp(-T) * ctx.power(T, xv + 1) > term_tol
           or _high_tail_bound(xv, j, T) > share):
        T *= ctx.mpf(5) / 4
    T *= tf
    tail_high = _high_tail_bound(xv, j, T)
    v_high, e_high = _adaptive(
        _high_node, _geometric_panels(1 + eps, T, ctx.mpf(1)),
        xv, j, region_tol, n_base, state,
    )

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




def kurepa(x, p: Precision = Precision(), *, node_factor: int = 1,
           tail_factor=1, max_evaluations: int = MAX_EVALUATIONS) -> QuadratureResult:
    """K(x) for x >= 0 with error_bound at most 10^-(digits-10).

    x is rounded to p's working context, unless it is an mpf, whose bits are
    kept; the integral is computed at that x, with guard digits of its own.
    ``node_factor`` scales the per-panel node count and ``tail_factor``
    scales the truncation point, for self-convergence checks.
    """
    return _kurepa_integral(x, 0, p, node_factor, tail_factor, max_evaluations)


def kurepa_derivative(x, order: int, p: Precision = Precision(), *,
                      node_factor: int = 1, tail_factor=1,
                      max_evaluations: int = MAX_EVALUATIONS) -> QuadratureResult:
    """j-th derivative of K at x (j in {1, 2, 3}), by the log-kernel integrals."""
    if order not in (1, 2, 3):
        raise ConfigurationError(f"derivative order must be 1, 2 or 3, got {order!r}")
    return _kurepa_integral(x, order, p, node_factor, tail_factor, max_evaluations)


def find_inflection(p: Precision = Precision(), bracket=(0, 1),
                    width_tol="1e-9") -> mpmath.mpf:
    """Bisection root of K'' on ``bracket``; K is concave left of the root.

    Bisection is preferred over Newton here: each K'' evaluation is an
    adaptive quadrature, so sign robustness matters more than step count.
    """
    lo, hi = finite_segment(*bracket, p)
    wtol = to_mpf(width_tol, p)
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
