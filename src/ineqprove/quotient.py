"""Continuous quotient extension of f over [a, b].

Given f with a root of order n at a and order m at b, the quotient
f(x) / ((x-a)^n (b-x)^m) extends continuously to the closed segment with
endpoint values alpha and beta.  The extension is positive everywhere iff
f is nonnegative with roots at most at the endpoints, which is what the
certification pipeline ultimately verifies.

Endpoint limits come from two routes:

* ``endpoint_limits_taylor`` -- exact Taylor coefficients for integer
  orders: alpha = f^(n)(a) / (n! (b-a)^m), beta = (-1)^m f^(m)(b) / (m! (b-a)^n),
  after checking that all lower-order derivatives vanish: each must lie
  within ``resolution_floor(p)``, the zero level of the endpoint limits;
* ``endpoint_limits_numeric`` -- quotient samples at ``probe_points``,
  a + (b-a) 4^-j, j = 3..12 (mirrored at b), accelerated by iterated Aitken
  extrapolation; works for non-integer orders, and its observed exponent
  says which supplied order is off.

The quotient is formed on raw ``mpmath.libmp`` tuples from the compiled f,
at the working precision of the run, from x, x - a and b - x.  An order 0
forms no factor, an order 1 is the difference itself, another integer order
goes straight to ``mpf_pow_int`` and a real one to the compiler's real
power: for each, the bits that real power gives.  With both orders 0 there
is no division, and f's value is rounded to the working precision alone.
"""

from __future__ import annotations

import math

from mpmath.libmp import (
    fzero, mpf_add, mpf_div, mpf_lt, mpf_mul, mpf_pos, mpf_pow_int, mpf_sub, round_nearest,
)

from .errors import (
    ConfigurationError,
    DivergentLimitError,
    DomainError,
    MultiplicityError,
    UnstableLimitError,
    ZeroLimitError,
)
from .expr import Expression, compiled, differentiate, evaluate, power, show
from .precision import (
    Precision, cancellation_floor, context, finite_orders, finite_segment, fraction,
    resolution_floor, sampling_ratio, to_mpf,
)

# width of the near-endpoint zone, relative to b - a, where the raw quotient
# is replaced by a linear blend toward the limit value
EDGE_FRACTION = "1e-8"
# the settling level of the numeric route
STABILIZE_TOL = "1e-8"


def _factor(order, prec):
    """d -> d^order on libmp tuples, as ``power`` rounds it for a d > 0 at prec; None for order 0."""
    q, rn = fraction(order), round_nearest
    if q.denominator != 1:
        real = power(q, prec)
        return lambda d: real(d, prec, rn)
    k = q.numerator
    return None if k == 0 else (lambda d: d) if k == 1 else (lambda d: mpf_pow_int(d, k, prec, rn))


def _quotient(f, n, m, p):
    """(x, x-a, b-x) -> f(x) / ((x-a)^n (b-x)^m) on libmp tuples, a < x < b, no endpoint handling."""
    prec, rn = context(p).prec, round_nearest
    fx = compiled(f, p)
    pa, pb = _factor(n, prec), _factor(m, prec)

    if not (pa or pb):
        # f's value rounded to prec, as a division by one rounds it
        return lambda x, da, db: mpf_pos(fx(x), prec, rn)

    def quotient(x, da, db):
        den = mpf_mul(pa(da), pb(db), prec, rn) if pa and pb else pa(da) if pa else pb(db)
        return mpf_div(fx(x), den, prec, rn)

    return quotient


def _arguments(x, a, b, prec):
    # the quotient's arguments at x: (x, x - a, b - x), on libmp tuples at prec
    return x, mpf_sub(x, a, prec, round_nearest), mpf_sub(b, x, prec, round_nearest)


class QuotientFunction:
    """f(x)/((x-a)^n (b-x)^m) extended continuously to [a, b].

    Within (b-a)*1e-8 of an endpoint the raw quotient is 0/0-noisy, so
    evaluation switches to a linear blend between the endpoint limit and the
    quotient value at the zone boundary.  Instances are immutable once built.

    ``f`` is compiled once.  Every value of g -- interior, blend zone or
    endpoint -- and the message of an argument outside the segment are
    formed on libmp tuples at the working precision of ``precision``, and
    every value is an mpf of its working context.
    """

    def __init__(self, f: Expression, a, b, n, m, alpha, beta,
                 precision: Precision = Precision()):
        self.a, self.b = finite_segment(a, b, precision)
        self.n, self.m = finite_orders(n, m, precision)
        self.alpha, self.beta = to_mpf(alpha, precision), to_mpf(beta, precision)
        for name, v in (("alpha", self.alpha), ("beta", self.beta)):
            if v == 0:
                raise ConfigurationError(f"endpoint limit {name} must be non-zero, got {v}")
        edge = (self.b - self.a) * to_mpf(EDGE_FRACTION, precision)
        self._p, ctx = precision, context(precision)
        self._make, self._prec = ctx.make_mpf, ctx.prec
        a, b = self.a._mpf_, self.b._mpf_
        # per end: its limit and the quotient's arguments where the blend meets g
        self._zones = ((self.alpha._mpf_, _arguments((self.a + edge)._mpf_, a, b, ctx.prec)),
                       (self.beta._mpf_, _arguments((self.b - edge)._mpf_, a, b, ctx.prec)))
        # edge < 2^top, top the exponent just above edge's leading bit
        self._edge, self._top, self._type = edge._mpf_, edge._mpf_[2] + edge._mpf_[3], ctx.mpf
        self._quotient = _quotient(f, self.n, self.m, precision)

    def evaluate(self, x):
        # a finite mpf of the working context is taken as it is
        t = x._mpf_ if type(x) is self._type and x._mpf_[3] >= 0 else to_mpf(x, self._p)._mpf_
        prec, rn = self._prec, round_nearest
        a, b, edge, top = self.a._mpf_, self.b._mpf_, self._edge, self._top
        # rounded to nearest, each difference has the sign of the exact one;
        # a positive one whose leading bit lies above edge's clears the zone
        # without a comparison
        da, db = mpf_sub(t, a, prec, rn), mpf_sub(b, t, prec, rn)
        if not (da[0] or db[0]) and da[1] and db[1] and \
                (da[2] + da[3] > top or not mpf_lt(da, edge)) and \
                (db[2] + db[3] > top or not mpf_lt(db, edge)):
            return self._make(self._quotient(t, da, db))
        if da[0] or db[0]:
            raise DomainError(f"{show(t, prec)} outside segment [{show(a, prec)}, {show(b, prec)}]")
        for d, lim in ((da, self.alpha), (db, self.beta)):
            if d == fzero:  # t is that end
                return self._make(mpf_pos(lim._mpf_, prec, rn))
        # the blend lim + ((g0 - lim) * d) / edge toward the nearer end
        side, d = (0, da) if mpf_lt(da, edge) else (1, db)
        lim, arguments = self._zones[side]
        g0 = self._quotient(*arguments)
        step = mpf_div(mpf_mul(mpf_sub(g0, lim, prec, rn), d, prec, rn), edge, prec, rn)
        return self._make(mpf_add(lim, step, prec, rn))


def endpoint_limits_taylor(f: Expression, a, b, n, m, p: Precision = Precision()):
    """Endpoint limits from exact derivative values at the endpoints.

    Requires integer orders; every derivative of order below n (resp. m) must
    vanish at a (resp. b) to within ``resolution_floor(p)``, the zero level
    of the endpoint limits: anything larger is a wrong multiplicity.
    """
    av, bv = finite_segment(a, b, p)
    nv, mv = finite_orders(n, m, p)
    if nv != int(nv) or mv != int(mv):
        raise ConfigurationError(f"the Taylor route needs integer orders, got n={nv}, m={mv}")
    ni, mi = int(nv), int(mv)
    tol = resolution_floor(p)
    derivs = [f]
    for _ in range(max(ni, mi)):
        derivs.append(differentiate(derivs[-1]))
    for end, point, order in (("a", av, ni), ("b", bv, mi)):
        for i in range(order):
            v = evaluate(derivs[i], point, p)
            if abs(v) > tol:
                raise MultiplicityError(end, i, v)
    fa = evaluate(derivs[ni], av, p)
    fb = evaluate(derivs[mi], bv, p)
    alpha = fa / (math.factorial(ni) * (bv - av) ** mi)
    beta = (-1) ** mi * fb / (math.factorial(mi) * (bv - av) ** ni)
    return +alpha, +beta


def _extrapolate(seq, endpoint, p):
    ctx = context(p)
    scale = max(abs(v) for v in seq)
    if scale == 0:
        raise ZeroLimitError("quotient vanishes at every sample", endpoint=endpoint)
    ratios = []
    for u, v in zip(seq[-4:], seq[-3:]):
        if u != 0:
            ratios.append(abs(v) / abs(u))
    rho = ctx.mpf(1)
    if ratios:
        prod = ctx.mpf(1)
        for r in ratios:
            prod *= r
        rho = prod ** (ctx.mpf(1) / len(ratios))
    log4 = ctx.log(4)
    if rho >= ctx.mpf("1.8"):
        raise DivergentLimitError(
            "quotient grows along the sample sequence; the supplied order is too large",
            hint_exponent=-ctx.log(rho) / log4, endpoint=endpoint,
        )
    # iterated Aitken acceleration; the zero-denominator guard carries values
    # through, so exactly constant sequences stabilize immediately
    carry_tol = cancellation_floor(p) * scale
    tol = to_mpf(STABILIZE_TOL, p)
    zero_floor = tol * scale
    arr = list(seq)
    prev = arr[-1]
    stab = None
    while len(arr) >= 3:
        new = []
        for i in range(len(arr) - 2):
            d = arr[i + 2] - 2 * arr[i + 1] + arr[i]
            if abs(d) <= carry_tol:
                new.append(arr[i + 2])
            else:
                new.append(arr[i + 2] - (arr[i + 2] - arr[i + 1]) ** 2 / d)
        val = new[-1]
        if abs(val - prev) <= tol * max(abs(val), abs(prev)) or \
                (abs(val) <= zero_floor and abs(prev) <= zero_floor):
            stab = val
            break
        prev = val
        arr = new
    if stab is None:
        raise UnstableLimitError(
            "accelerated quotient sequence did not stabilize; "
            "check the supplied orders or raise the precision",
            endpoint=endpoint,
        )
    if abs(stab) <= sampling_ratio(p) * scale:
        hint = ctx.log(1 / rho) / log4 if rho > 0 else None
        if rho > ctx.mpf("1.05"):
            raise DivergentLimitError(
                "quotient grows along the sample sequence; the supplied order is too large",
                hint_exponent=-ctx.log(rho) / log4, endpoint=endpoint,
            )
        raise ZeroLimitError(
            "quotient tends to zero; the supplied order is too small",
            hint_exponent=hint, endpoint=endpoint,
        )
    return stab


def probe_points(a, b, p: Precision):
    """Per end, the points a + (b-a) 4^-j and b - (b-a) 4^-j, j = 3..12, for mpfs a < b of p."""
    steps = [(b - a) * context(p).mpf(4) ** (-j) for j in range(3, 13)]
    return [a + step for step in steps], [b - step for step in steps]


def endpoint_limits_numeric(f: Expression, a, b, n, m, p: Precision = Precision()):
    """Endpoint limits by geometric sampling plus iterated Aitken acceleration.

    Handles real (non-integer) orders.  Raises DivergentLimitError or
    ZeroLimitError with an observed-exponent hint when the supplied order is
    off, and UnstableLimitError when no limit emerges: the accelerated
    sequence settles when a step changes it by at most STABILIZE_TOL,
    relative to its size.
    """
    ctx = context(p)
    av, bv = finite_segment(a, b, p)
    nv, mv = finite_orders(n, m, p)
    a, b, q = av._mpf_, bv._mpf_, _quotient(f, nv, mv, p)
    sample = lambda x: ctx.make_mpf(q(*_arguments(x._mpf_, a, b, ctx.prec)))
    qa, qb = ([sample(x) for x in points] for points in probe_points(av, bv, p))
    alpha = _extrapolate(qa, "a", p)
    beta = _extrapolate(qb, "b", p)
    return +alpha, +beta
