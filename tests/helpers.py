"""Shared fixtures and frozen reference values for the test suite."""

import functools
import math
from fractions import Fraction
from unittest import mock

import mpmath
import pytest
from mpmath import mp

from ineqprove import DomainError, quadrature, to_mpf
from ineqprove.precision import GUARD_DIGITS, context, resolution_floor, series_floor
from ineqprove.expr import (
    BinaryOp,
    Constant,
    KurepaNode,
    NamedConstant,
    UnaryOp,
    Variable,
)

# Pinned hashes of reports and quadrature rules depend on the arithmetic
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


def _walk(node, x, p):
    if isinstance(node, Constant):
        return mp.mpf(node.value.numerator) / node.value.denominator
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
                return mp.power(l, mp.mpf(q.numerator) / q.denominator)
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


# The Gauss-Kronrod rule and the node tables as the package built them on
# mpf objects, before it computed them in fixed point and on tuples.

def _reference_kronrod_betas(n, ctx):
    """Recurrence coefficients b_0..b_2n of the Legendre Jacobi-Kronrod matrix, in ctx.

    Laurie's algorithm (D. Laurie, "Calculation of Gauss-Kronrod quadrature
    rules", Math. Comp. 1997), specialised to the Legendre weight, whose
    diagonal coefficients all vanish.  The first ceil(3n/2)+1 coefficients
    are those of the Legendre polynomials; the rest are filled in from the
    mixed moments s and t.
    """
    b = [ctx.mpf(2)] + [ctx.mpf(k * k) / (4 * k * k - 1)
                        for k in range(1, (3 * n + 1) // 2 + 1)]
    b += [ctx.mpf(0)] * (2 * n + 1 - len(b))
    s = [ctx.mpf(0)] * (n // 2 + 3)
    t = s[:]
    t[1] = b[n + 1]
    for m in range(n - 1):
        acc = ctx.mpf(0)
        for k in range((m + 1) // 2, -1, -1):
            acc += b[k + n + 1] * s[k] - b[m - k] * s[k + 1]
            s[k + 1] = acc
        s, t = t, s
    s[1:] = s[:-1]
    for m in range(n - 1, 2 * n - 2):
        acc = ctx.mpf(0)
        for k in range(m + 1 - n, (m - 1) // 2 + 1):
            j = n - 1 - (m - k)
            acc += b[m - k] * s[j + 2] - b[k + n + 1] * s[j + 1]
            s[j + 1] = acc
        if m % 2:
            b[(m + 1) // 2 + n + 1] = s[j + 1] / s[j + 2]
        s, t = t, s
    return b[:2 * n + 1]


@functools.lru_cache(maxsize=None)
def reference_gauss_kronrod_rule(n: int, prec: int):
    """The n-node Gauss rule on [-1, 1] and its (2n+1)-node Kronrod extension, on mpf objects.

    The construction the package used before it built the rule in fixed
    point: Newton from cosine seeds on the monic p_top / p_divisor, and the
    Golub-Welsch weight sums, all in ``context(prec + 40)`` and rounded to
    ``context(prec)``.  Kept as the oracle that
    ``quadrature.gauss_kronrod_rule`` must match bit for bit, and memoized,
    as it takes about 0.1 s at 169 bits.
    """
    ctx, rounded = context(prec + 40), context(prec)
    b = _reference_kronrod_betas(n, ctx)
    root_b = [ctx.sqrt(v) for v in b]
    tol = ctx.mpf(2) ** (-(ctx.prec - 20))

    def newton_root(seed, top, divisor):
        # f = p_top / p_divisor with monic p_k; p_0 = 1, so divisor 0 gives p_top
        z = ctx.mpf(seed)
        for _ in range(100):
            p0, p1, d0, d1 = ctx.mpf(0), ctx.mpf(1), ctx.mpf(0), ctx.mpf(0)
            for k in range(top):
                if k == divisor:
                    pn, dn = p1, d1
                p0, p1, d0, d1 = p1, z * p1 - b[k] * p0, d1, p1 + z * d1 - b[k] * d0
            dz = p1 * pn / (d1 * pn - p1 * dn)
            z -= dz
            if abs(dz) <= tol:
                break
        return z

    def weight(z, terms):
        q0, q1 = ctx.mpf(0), 1 / root_b[0]
        acc = q1 * q1
        for k in range(terms - 1):
            q0, q1 = q1, (z * q1 - root_b[k] * q0) / root_b[k + 1]
            acc += q1 * q1
        return 1 / acc

    # the positive Gauss nodes g_1 > g_2 > ..., weighed before they are
    # rounded to prec bits, the form in which they join the Kronrod rule
    gauss = [newton_root(math.cos(math.pi * (i - 0.25) / (n + 0.5)), n, 0)
             for i in range(1, n // 2 + 1)]
    half_g = [weight(z, n) for z in gauss]
    g_weights = half_g + [weight(ctx.mpf(0), n)] * (n % 2) + half_g[::-1]
    gauss = [ctx.convert(rounded.mpf(z)) for z in gauss]

    # one new node in each gap of 1 > g_1 > g_2 > ... > 0, seeded at the
    # gap's middle angle; 0 closes the last gap only when it is a Gauss
    # node (odd n), else that gap is symmetric about 0 and its node is 0
    edges = [0.0] + [math.acos(float(z)) for z in gauss]
    if n % 2:
        edges.append(math.pi / 2)
    added = [newton_root(math.cos((lo + hi) / 2), 2 * n + 1, n)
             for lo, hi in zip(edges, edges[1:])]
    half = sorted(gauss + added)
    nodes = [-z for z in reversed(half)] + [ctx.mpf(0)] + half
    half_k = [weight(z, 2 * n + 1) for z in half]
    k_weights = half_k[::-1] + [weight(ctx.mpf(0), 2 * n + 1)] + half_k
    return tuple(tuple(rounded.mpf(v) for v in part) for part in (nodes, k_weights, g_weights))


# The node tables as the package built them on mpf objects, and the panel
# sums with every node's exponential evaluated directly.

def reference_nodes(mid, level, n, prec):
    """(s, c) at each Kronrod node of the panel mid +- 2^level in s = -log t, on mpf objects.

    s = mid + 2^level z exactly, with the reference rule's z, and
    c = exp(-w) w / (w - 1), w = exp(-s) = t, each step rounded to nearest
    in ``context(prec)``; w - 1 is taken from an exp(-s) with as many extra
    bits as s is below 1.  At s = 0, c is exp(-1), the integrand's limit
    there being c x for j = 0, c for j = 1 and 0 for j >= 2.
    """
    ctx = context(prec)
    mid = ctx.make_mpf(mid)
    nodes = []
    for z in reference_gauss_kronrod_rule(n, prec)[0]:
        s = ctx.fadd(mid, ctx.ldexp(z, level), exact=True)
        if s == 0:
            nodes.append((s, ctx.exp(-1)))
            continue
        wide = context(prec + 10 + max(0, -ctx.mag(s))).exp(ctx.fneg(s, exact=True))
        w = ctx.mpf(wide)
        nodes.append((s, ctx.exp(-w) * w / ctx.fsub(wide, 1)))
    return nodes


def reference_node_table(mid, level, n, prec):
    """``quadrature._node_table`` as built on mpf objects, the oracle of its bits."""
    _, k_weights, g_weights = reference_gauss_kronrod_rule(n, prec)
    table = []
    for i, ((s, c), w_k) in enumerate(zip(reference_nodes(mid, level, n, prec), k_weights)):
        hc = mpmath.libmp.mpf_shift(c._mpf_, level)
        table.append((None if s == 0 else s.context.fneg(s, exact=True)._mpf_,
                      *_reference_exact(hc, w_k),
                      *(_reference_exact(hc, g_weights[i // 2]) if i % 2 else (0, 0))))
    return tuple(table)


def _reference_exact(a, w):
    sign, man, exp, _ = mpmath.libmp.mpf_mul(a, w._mpf_)
    return -man if sign else man, exp


def _rational(v):
    # an mpf's exact value, whatever its context
    return Fraction(*mpmath.libmp.to_rational(v._mpf_))


def reference_exp(y, prec):
    """exp(y) at twice ``prec`` bits, and as many more as y is below 1, so exp(y) - 1 keeps them."""
    lm = mpmath.libmp
    return lm.mpf_exp(y, 2 * prec + max(0, -(y[2] + y[3])), lm.round_nearest)


def _reference_factor(ell, x, j, prec):
    # the integrand's factor exp(x L) - 1 (j = 0) or exp(x L) L^j at a node
    # L = -s other than 0, as a Fraction, from one exponential
    lm = mpmath.libmp
    e = Fraction(*lm.to_rational(reference_exp(lm.mpf_mul(x._mpf_, ell), prec)))
    return e - 1 if j == 0 else e * Fraction(*lm.to_rational(ell)) ** j


def exact_panel_reference(mid, level, n, x, j):
    """(Gauss, Kronrod) estimates of one panel: exact Fraction sums, each rounded once.

    Built from the reference node table and, at each node s, exp(-x s)
    evaluated directly by ``reference_exp`` at twice x's precision; the test
    oracle for the package's integer sums, whose factors come from one
    exponential per panel and a doubled table per level.
    """
    lm = mpmath.libmp
    ctx = x.context
    prec = ctx.prec
    gauss = kronrod = Fraction(0)
    for ell, km, ke, gm, ge in reference_node_table(mid, level, n, prec):
        if ell is None:
            f = _rational(x) if j == 0 else Fraction(int(j == 1))
        else:
            f = _reference_factor(ell, x, j, prec)
        kronrod += km * Fraction(2) ** ke * f
        gauss += gm * Fraction(2) ** ge * f
    return tuple(ctx.make_mpf(lm.from_rational(v.numerator, v.denominator, prec, lm.round_nearest))
                 for v in (gauss, kronrod))


def _sequential_panel(mid, level, n, x, j, factors):
    # the package's _kronrod_panel with each step rounded in turn; factors unused
    lm = mpmath.libmp
    mul, add, rn = lm.mpf_mul, lm.mpf_add, lm.round_nearest
    ctx = x.context
    prec, xr = ctx.prec, x._mpf_
    _, k_weights, g_weights = reference_gauss_kronrod_rule(n, prec)
    gauss = kronrod = lm.fzero
    for i, (s, c) in enumerate(reference_nodes(mid, level, n, prec)):
        if s == 0:
            f = xr if j == 0 else (lm.fone if j == 1 else lm.fzero)
        else:
            ell = ctx.fneg(s, exact=True)._mpf_
            e = reference_exp(mul(xr, ell), prec)
            f = (lm.mpf_sub(e, lm.fone, prec, rn) if j == 0
                 else mul(lm.mpf_pow_int(ell, j, prec, rn), e, prec, rn))
        v = mul(lm.mpf_shift(c._mpf_, level), f, prec, rn)
        kronrod = add(kronrod, mul(k_weights[i]._mpf_, v, prec, rn), prec, rn)
        if i % 2:
            gauss = add(gauss, mul(g_weights[i // 2]._mpf_, v, prec, rn), prec, rn)
    return ctx.make_mpf(gauss), ctx.make_mpf(kronrod)


def sequential_kurepa(x, j, p):
    """K^(j)(x) with every product and partial sum of a panel rounded in turn.

    The panel loop the package used before it summed each estimate exactly
    and before it built exp(-x s) from one exponential per panel: at each
    node exp(-x s) comes from ``reference_exp``, and the factor, (half c)
    times it, the weight times that and each running sum are rounded to
    the working precision.  Kept as the oracle that the package must stay
    close to, with the same panels, node count and tail cutoff.
    """
    with mock.patch.object(quadrature, "_kronrod_panel", _sequential_panel):
        if j == 0:
            return quadrature.kurepa(x, p)
        return quadrature.kurepa_derivative(x, j, p)


# The quadrature's memos, and the panel layout as the package chose it
# before it memoized its plan, when both cut-off searches evaluated the tail
# bounds at every step.

def quadrature_memos():
    """Every memoized function of ``ineqprove.quadrature``, by name."""
    return {name: f for name, f in vars(quadrature).items()
            if hasattr(f, "cache_clear") and f.__module__ == quadrature.__name__}


def clear_quadrature_memos():
    """Empty every quadrature memo, so that the next call builds all it uses."""
    for memo in quadrature_memos().values():
        memo.cache_clear()


def _reference_dyadic_panels(stop, top, ctx):
    # (mid, level) from the window's edge out past stop, levels rising up
    # to top; and the end
    panels = []
    edge = ctx.ldexp(1, -3)
    level = -3
    while edge < stop:
        half = ctx.ldexp(1, level)
        panels.append(((edge + half)._mpf_, level))
        edge += 2 * half
        level = min(level + 1, top)
    return panels, edge


def _reference_low_tail_bound(x, j, s_max, eps):
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


def _reference_high_tail_bound(x, j, T):
    # uses log(t) <= sqrt(t) for t >= 1 and int_T t^q e^-t dt <= e^-T T^q/(1-q/T)
    ctx = x.context
    if j == 0:
        gx = ctx.exp(-T) * ctx.power(T, x) / (1 - x / T) if x > 0 else ctx.exp(-T)
        return (gx + ctx.exp(-T)) / (T - 1)
    q = x + ctx.mpf(j) / 2
    return ctx.exp(-T) * ctx.power(T, q) / (1 - q / T) / (T - 1)


def reference_layout(x, j, p):
    """(low panels, high panels, T) of K^(j)(x) by the cut-off loops the package used to run.

    s_max grows by 5/4 while the low tail bound at it exceeds share, and T
    while exp(-T) T^(x+1) exceeds the series floor or the high tail bound
    at T exceeds share; each side's panels run on to its first dyadic edge
    past the cut-off, and T is exp of the high side's last edge.  The
    oracle of the memoized plan.
    """
    digits = p.decimal_digits
    ctx = context(mpmath.libmp.dps_to_prec(digits + 15))
    xv = to_mpf(to_mpf(x, p), ctx.prec)
    share = resolution_floor(p, ctx.prec) / 8
    term_tol = series_floor(p, ctx.prec)
    eps = ctx.mpf(1) / 8
    s_max = ctx.mpf(max(20, int((digits + 14) * 2.303 / (float(xv) + 1)) + 1))
    while _reference_low_tail_bound(xv, j, s_max, eps) > share:
        s_max *= ctx.mpf(5) / 4
    low, _ = _reference_dyadic_panels(s_max, math.inf, ctx)
    T = ctx.mpf(max(40, digits, 2 * (int(xv) + j) + 40))
    while (ctx.exp(-T) * ctx.power(T, xv + 1) > term_tol
           or _reference_high_tail_bound(xv, j, T) > share):
        T *= ctx.mpf(5) / 4
    high, t_edge = _reference_dyadic_panels(ctx.ln(T), -1, ctx)
    high = [(mpmath.libmp.mpf_neg(mid), level) for mid, level in reversed(high)]
    return low, high, ctx.exp(t_edge)
