import itertools
import random

import mpmath
import pytest
from mpmath import mp
from mpmath.libmp import mpf_div, mpf_sub, round_nearest

from ineqprove import (
    ConfigurationError,
    DivergentLimitError,
    DomainError,
    MultiplicityError,
    ProofSettings,
    QuotientFunction,
    ZeroLimitError,
    certify_positive,
    endpoint_limits_numeric,
    endpoint_limits_taylor,
    evaluate,
    minimax,
    parse,
    prove_inequality,
    report_to_json,
    residual_check,
    verify_equioscillation,
)
from ineqprove.cli import main
from ineqprove.expr import compiled
from ineqprove.precision import (
    Precision, context, finite_orders, finite_segment, fraction, rational, to_mpf,
)
from ineqprove.quotient import EDGE_FRACTION, _quotient

from helpers import ARCSIN_DIFF_SOURCE, KP0, ambient, planted_endpoint_polynomial


class TestTaylorLimits:
    def test_parabola(self, p50):
        alpha, beta = endpoint_limits_taylor(parse("x*(1-x)"), 0, 1, 1, 1, p50)
        assert abs(alpha - 1) < mpmath.mpf("1e-55")
        assert abs(beta - 1) < mpmath.mpf("1e-55")

    def test_identity_with_mixed_orders(self, p50):
        alpha, beta = endpoint_limits_taylor(parse("x"), 0, 1, 1, 0, p50)
        assert abs(alpha - 1) < mpmath.mpf("1e-55")
        assert abs(beta - 1) < mpmath.mpf("1e-55")

    def test_scaling_with_interval_width(self, p50):
        # f = (x-1)(3-x) on [1,3]: alpha = f'(1)/(1!*2^1) = 1, beta = -f'(3)/(1!*2^1) = 1
        alpha, beta = endpoint_limits_taylor(parse("(x-1)*(3-x)"), 1, 3, 1, 1, p50)
        assert abs(alpha - 1) < mpmath.mpf("1e-54")
        assert abs(beta - 1) < mpmath.mpf("1e-54")

    def test_wrong_multiplicity_detected(self, p50):
        with pytest.raises(MultiplicityError) as err:
            endpoint_limits_taylor(parse("x"), 0, 1, 2, 0, p50)
        assert err.value.endpoint == "a"
        assert err.value.order == 1

    # each end is named as every LimitError names it
    @pytest.mark.parametrize("n, m, end", [(2, 0, "a"), (0, 2, "b")])
    def test_wrong_multiplicity_names_its_end(self, n, m, end, p50):
        with pytest.raises(MultiplicityError, match=rf"\[endpoint {end}\]$") as err:
            endpoint_limits_taylor(parse("1 - x^2/2"), 0, 1, n, m, p50)
        assert err.value.endpoint == end

    def test_non_integer_order_rejected(self, p50):
        with pytest.raises(ConfigurationError):
            endpoint_limits_taylor(parse("x"), 0, 1, "1.5", 0, p50)

    def test_quadrature_noise_tolerated(self, p35):
        # f' at 0 is zero only up to the 40-digit constant and quadrature noise
        src = f"({KP0})*x - kurepa(x)"
        alpha, beta = endpoint_limits_taylor(parse(src), 0, 1, 2, 0, p35)
        assert alpha > mpmath.mpf("0.9")
        assert abs(beta - (mpmath.mpf(KP0) - 1)) < mpmath.mpf("1e-20")


class TestNumericLimits:
    def test_exact_power(self, p50):
        alpha, beta = endpoint_limits_numeric(parse("x^(3/2)"), 0, 1, "1.5", 0, p50)
        assert abs(alpha - 1) < mpmath.mpf("1e-8")
        assert abs(beta - 1) < mpmath.mpf("1e-8")

    def test_sqrt_times_linear(self, p50):
        alpha, beta = endpoint_limits_numeric(parse("sqrt(x)*(1-x)"), 0, 1, "0.5", 1, p50)
        assert abs(alpha - 1) < mpmath.mpf("1e-8")
        assert abs(beta - 1) < mpmath.mpf("1e-8")

    def test_divergence_hint(self, p50):
        with pytest.raises(DivergentLimitError) as err:
            endpoint_limits_numeric(parse("x"), 0, 1, 2, 0, p50)
        assert err.value.endpoint == "a"
        assert abs(err.value.hint_exponent - (-1)) < mpmath.mpf("0.3")

    def test_zero_limit_hint(self, p50):
        with pytest.raises(ZeroLimitError) as err:
            endpoint_limits_numeric(parse("x^3"), 0, 1, 1, 0, p50)
        assert err.value.endpoint == "a"
        assert abs(err.value.hint_exponent - 2) < mpmath.mpf("0.3")

    def test_vanishing_quotient_refused(self, p30):
        with pytest.raises(ZeroLimitError, match="quotient vanishes at every sample"):
            endpoint_limits_numeric(parse("0*x"), 0, 1, 1, 0, p30)

    def test_slow_divergence_refused_after_acceleration(self, p30):
        # the samples grow by about 4^0.13 a step, too slowly to be refused
        # before the acceleration, whose limit is then too small to be trusted
        with pytest.raises(DivergentLimitError) as err:
            endpoint_limits_numeric(parse("x^(87/100)"), 0, 1, 1, 0, p30)
        assert err.value.endpoint == "a"
        assert abs(err.value.hint_exponent - mpmath.mpf("-0.13")) < mpmath.mpf("0.005")

    def test_smooth_nonpolynomial(self, p50):
        alpha, beta = endpoint_limits_numeric(parse("sin(x)*(1-x)"), 0, 1, 1, 1, p50)
        assert abs(alpha - 1) < mpmath.mpf("1e-8")
        with ambient(p50):
            assert abs(beta - mp.sin(1)) < mp.mpf("1e-8")


def test_taylor_numeric_agreement_on_planted_roots(p50):
    rng = random.Random(97531)
    for _ in range(20):
        source, n, m, alpha_exact, beta_exact = planted_endpoint_polynomial(rng)
        f = parse(source)
        alpha_t, beta_t = endpoint_limits_taylor(f, 0, 1, n, m, p50)
        alpha_n, beta_n = endpoint_limits_numeric(f, 0, 1, n, m, p50)
        for got in (alpha_t, alpha_n):
            assert abs(got - mpmath.mpf(alpha_exact.numerator) / alpha_exact.denominator) \
                <= mpmath.mpf("1e-6") * abs(got)
        for got in (beta_t, beta_n):
            assert abs(got - mpmath.mpf(beta_exact.numerator) / beta_exact.denominator) \
                <= mpmath.mpf("1e-6") * abs(got)
        assert abs(alpha_t - alpha_n) <= mpmath.mpf("1e-6") * abs(alpha_t)
        assert abs(beta_t - beta_n) <= mpmath.mpf("1e-6") * abs(beta_t)


# a negative root order is refused, with one message, at every entry that takes n and m
@pytest.mark.parametrize("n, m, message", [
    (-1, 0, r"^root order n must be nonnegative, got -1\.0$"),
    (0, "-1/2", r"^root order m must be nonnegative, got -0\.5$"),
], ids=["n", "m"])
@pytest.mark.parametrize("entry", [
    lambda n, m, p: prove_inequality("x", 0, 1, n, m, 1),
    lambda n, m, p: QuotientFunction(parse("x"), 0, 1, n, m, 1, 1, p),
    lambda n, m, p: endpoint_limits_taylor(parse("x"), 0, 1, n, m, p),
    lambda n, m, p: endpoint_limits_numeric(parse("x"), 0, 1, n, m, p),
], ids=["prove_inequality", "QuotientFunction", "endpoint_limits_taylor",
        "endpoint_limits_numeric"])
def test_negative_root_order_refused(entry, n, m, message, p30):
    with pytest.raises(ConfigurationError, match=message):
        entry(n, m, p30)


class TestQuotientFunction:
    def _parabola(self, p):
        f = parse("x*(1-x)")
        return QuotientFunction(f, 0, 1, 1, 1, 1, 1, p)

    def test_endpoint_values_exact(self, p50):
        g = self._parabola(p50)
        assert g.evaluate(0) == g.alpha
        assert g.evaluate(1) == g.beta

    def test_exact_cancellation(self, p50):
        g = self._parabola(p50)
        for x in ("0.1", "0.25", "0.5", "0.99"):
            assert abs(g.evaluate(x) - 1) < mpmath.mpf("1e-45")

    def test_interior_matches_direct_quotient(self, p50):
        # the algebraic arcsin difference at 1/2, against a direct
        # high-precision quotient
        f = parse(ARCSIN_DIFF_SOURCE)
        g = QuotientFunction(f, 0, 1, 1, 1, 1, 1, p50)
        x = mpmath.mpf("0.5")
        direct = evaluate(f, x, p50) / (x * (1 - x))
        got = g.evaluate(x)
        assert abs(got - direct) <= mpmath.mpf("1e-50") * abs(direct)

    def test_blend_zone_continuity(self, p50):
        f = parse("sin(x)*(1-x)")
        with ambient(p50):
            alpha, beta = endpoint_limits_taylor(f, 0, 1, 1, 1, p50)
        g = QuotientFunction(f, 0, 1, 1, 1, alpha, beta, p50)
        with ambient(p50):
            gaps = []
            for j in range(4, 13):
                x = mp.mpf(10) ** (-j)
                gaps.append(abs(g.evaluate(x) - alpha))
            for wide, tight in zip(gaps, gaps[1:]):
                assert tight <= wide
            assert all(gap <= mp.mpf("1e-6") * abs(alpha) for gap in gaps[6:])
            gaps_b = []
            for j in range(4, 13):
                x = 1 - mp.mpf(10) ** (-j)
                gaps_b.append(abs(g.evaluate(x) - beta))
            for wide, tight in zip(gaps_b, gaps_b[1:]):
                assert tight <= wide
            assert all(gap <= mp.mpf("1e-6") * abs(beta) for gap in gaps_b[6:])

    def test_result_independent_of_ambient_context(self, p50, p30, tmp_path):
        # g, the limit routes, Remez, the residual sweep, the certifier and
        # the report give the same bits and bytes under any ambient mp.dps
        g = QuotientFunction(parse(ARCSIN_DIFF_SOURCE), 0, 1, 3, "0.5", 1, "1/3", p50)
        xs = [mpmath.mpf(v) for v in ("0", "1e-9", "0.3", "0.7", "0.999999999", "1")]
        outside = mpmath.mpf(4) / 3
        f = parse("exp(x)-1-x")
        out = tmp_path / "report.json"

        def h(x):
            return evaluate(parse("exp(x)"), x, p30)

        def outcomes():
            with pytest.raises(DomainError) as err:
                g.evaluate(outside)
            values = [g.evaluate(x) for x in xs]
            values += [*endpoint_limits_taylor(f, 0, 1, 2, 0, p30),
                       *endpoint_limits_numeric(f, 0, 1, 2, 0, p30)]
            mr = minimax(h, 0, 1, 2, p=p30)
            eq = verify_equioscillation(mr, p=p30)
            stats = residual_check(h, mr.polynomial, mr.delta_hat, 64, p30)
            cert = certify_positive(mr.polynomial, "0.5", "1.000001", p30)
            values += [mr.delta_hat, *mr.polynomial.coefficients, *mr.nodes, eq.spread,
                       stats.max_residual, stats.threshold, cert.global_min_bound,
                       *(v for leaf in cert.subintervals for v in leaf)]
            report = report_to_json(prove_inequality(f, 0, 1, 2, 0, 1,
                                                     ProofSettings(precision=p30)))
            assert main(["prove", "--function", "exp(x)-1-x", "--interval", "0,1",
                         "--n", "2", "--m", "0", "--precision", "30", "--out", str(out)]) == 0
            return ([v._mpf_ for v in values], str(err.value), eq.passed, stats.passed,
                    report, out.read_bytes(), [mr.residuals[t._mpf_] for t in mr.nodes])

        reference = outcomes()
        assert reference[1].endswith(" outside segment [0.0, 1.0]")
        for dps in (15, 200):
            with mp.workdps(dps):
                assert outcomes() == reference

    def test_invalid_limits_rejected(self, p50):
        f = parse("x*(1-x)")
        with pytest.raises(ConfigurationError):
            QuotientFunction(f, 0, 1, 1, 1, 0, 1, p50)
        with pytest.raises(ConfigurationError):
            QuotientFunction(f, 1, 0, 1, 1, 1, 1, p50)

    def test_denominator_positive_inside(self, p50):
        g = self._parabola(p50)
        with ambient(p50):
            for i in range(50):
                x = mp.mpf(1) / 52 * (i + 1)
                den = (x - g.a) ** 1 * (g.b - x) ** 1
                assert den > 0


class TestQuotientBits:
    """``_quotient`` on (x, x - a, b - x) against the quotient by the real power.

    The reference forms every factor by mpmath's ``power``, with the order
    rounded once, as ``helpers.reference_evaluate`` takes an exponent, order
    0's 1 included, and divides f(x) by their product, at the working
    precision.
    """

    SOURCE, ORDERS = "exp(x) - x^3/(1+x)", ("0", "1", "2", "3", "1/2", "3/2")

    @staticmethod
    def points(a, b, p):
        # the zone boundaries, the numeric route's samples and a few interior points
        ctx = context(p)
        span, edge = b - a, (b - a) * to_mpf(EDGE_FRACTION, p)
        routes = [v for j in range(3, 13)
                  for v in (a + span * ctx.mpf(4) ** (-j), b - span * ctx.mpf(4) ** (-j))]
        return [a + edge, b - edge], routes + [a + span * i / 7 for i in range(1, 7)]

    @pytest.mark.parametrize("digits", [30, 35, 50])
    def test_every_order_gives_the_real_power_bits(self, digits):
        p = Precision(digits)
        prec, rn = context(p).prec, round_nearest
        f = parse(self.SOURCE)
        fx = compiled(f, p)
        a, b = finite_segment("1/3", 2, p)
        zones, inside = self.points(a, b, p)
        for n, m in itertools.product(self.ORDERS, repeat=2):
            nv, mv = finite_orders(n, m, p)
            quotient = _quotient(f, nv, mv, p)
            qa, qb = (mp.make_mpf(rational(fraction(v), prec)) for v in (nv, mv))
            g = QuotientFunction(f, a, b, nv, mv, "0.5", 2, p)
            for x in zones + inside:
                t = x._mpf_
                da, db = mpf_sub(t, a._mpf_, prec, rn), mpf_sub(b._mpf_, t, prec, rn)
                with ambient(p):
                    den = mp.power(mp.make_mpf(da), qa) * mp.power(mp.make_mpf(db), qb)
                expected = mpf_div(fx(t), den._mpf_, prec, rn)
                assert quotient(t, da, db) == expected, (n, m, x)
                if x in inside:  # outside the blend zones, g is the raw quotient
                    assert g.evaluate(x)._mpf_ == expected, (n, m, x)

    @pytest.mark.parametrize("digits, threes", [(30, 40), (35, 45), (50, 60)])
    def test_the_ends_and_outside(self, digits, threes):
        # the ends give the limits, bit for bit, however x is spelled; a point
        # outside, even by less than a unit of the working precision, raises
        # DomainError, its text naming x and the segment
        p = Precision(digits)
        g = QuotientFunction(parse(self.SOURCE), "1/3", 2, "3/2", 2, "0.5", 2, p)
        for end, limit in ((g.a, g.alpha), (g.b, g.beta)):
            for x in (end, mpmath.mpf(end), to_mpf(end, Precision(200))):
                assert g.evaluate(x)._mpf_ == limit._mpf_
        tiny = mpmath.mpf(2) ** -400
        with mp.workprec(1000):
            below, above = mp.mpf(g.a) - tiny, mp.mpf(g.a) + tiny
        assert g.evaluate(above) > 0
        span = f"[0.{'3' * threes}, 2.0]"
        for x, text in (("0.25", "0.25"), (3, "3.0"), ("-1e-30", "-1.0e-30")):
            with pytest.raises(DomainError) as err:
                g.evaluate(x)
            assert str(err.value) == f"{text} outside segment {span}"
        with pytest.raises(DomainError, match=r" outside segment \["):
            g.evaluate(below)
