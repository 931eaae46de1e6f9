import dataclasses
import json
import random
import re
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import comb, factorial

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp

from ineqprove import (
    CertificationError,
    ConfigurationError,
    DomainError,
    Polynomial,
    Precision,
    ProofSettings,
    QuotientFunction,
    RootBracketError,
    certify_positive,
    endpoint_limits_numeric,
    endpoint_limits_taylor,
    evaluate,
    find_inflection,
    kurepa,
    kurepa_derivative,
    minimax,
    parse,
    prove_inequality,
    report_to_json,
    residual_check,
    to_mpf,
    verify_equioscillation,
)
from ineqprove import certify, remez
from ineqprove.precision import decimal_str, finite_segment
from ineqprove.remez import chebyshev_grid

from helpers import (
    ARCSIN_DIFF_SOURCE, KP0, TRIG_ARCSIN_SOURCE, ambient, exact_taylor, fraction,
    reference_evaluate,
)
from reference_oracle import kurepa_ts


def make_poly(monomial, a=0, b=1):
    return Polynomial.from_monomial(monomial, a, b)


class _CountingCache(remez.CachedFunction):
    """A cached g that counts its lookups, cached or fresh."""

    lookups = 0

    def __call__(self, x):
        self.lookups += 1
        return super().__call__(x)


class TestPrecondition:
    """The sign gate, run through the pipeline at 50 digits and degree 1."""

    @staticmethod
    def diagnostics(source, n, m, verdict, p):
        report = prove_inequality(source, 0, 1, n, m, 1, ProofSettings(precision=p))
        assert (report.verdict, report.diagnostics["stage"]) == (verdict, "precondition")
        return report.diagnostics

    @classmethod
    def check_negative(cls, source, end, p):
        # the message claims only the sign; the witness shows the failure
        diagnostics = cls.diagnostics(source, 1, 0, "disproven", p)
        assert diagnostics["message"] == f"endpoint limit {end} is negative"
        assert list(diagnostics) == ["stage", "message", "negative_limit", "witness"]
        assert diagnostics["negative_limit"] == end

    @classmethod
    def check_zero(cls, source, n, m, end, p):
        # the end is spelled as the limit routes spell it
        diagnostics = cls.diagnostics(source, n, m, "inconclusive", p)
        name = {"a": "alpha", "b": "beta"}[end]
        assert re.fullmatch(rf"ZeroLimitError: endpoint limit {name} is zero .*"
                            rf"\[endpoint {end}\]", diagnostics["message"])
        assert list(diagnostics) == ["stage", "message", "limit_cross_check"]

    def test_both_positive(self, p50):
        report = prove_inequality("x*(1-x)", 0, 1, 1, 1, 1, ProofSettings(precision=p50))
        assert (report.verdict, report.diagnostics["stage"]) == ("proven", "complete")

    def test_negative_alpha(self, p50):
        self.check_negative("-x", "alpha", p50)

    def test_negative_beta(self, p50):
        self.check_negative("x*(1/2-x)", "beta", p50)

    def test_zero_limit(self, p50):
        self.check_zero("x*(1-x)^2", 1, 1, "b", p50)

    def test_tiny_limit_counts_as_zero(self, p50):
        # 1e-45 lies below 1e-40, the zero level of 50-digit limits
        self.check_zero("10^(-45)*x", 1, 0, "a", p50)

    def test_zero_limit_leaves_the_other_end_to_the_witness_search(self, p50):
        # alpha is zero and beta = -1/2: the probes at b find f < 0
        diagnostics = self.diagnostics("x^2*(1/2-x)", 1, 0, "disproven", p50)
        assert diagnostics["message"].startswith("ZeroLimitError: endpoint limit alpha is zero")
        assert diagnostics["witness"]["x"] > mpmath.mpf("0.5")
        assert diagnostics["witness"]["f_value"] < 0


class TestResidualCheck:
    def test_parabola_residual(self, p50):
        P = make_poly(["0.5"], -1, 1)
        stats = residual_check(lambda x: x * x, P, "0.5", 64, p50)
        assert stats.passed
        # the sampled bound's slack is the certificate's margin
        assert stats.threshold == to_mpf("0.5", p50) * to_mpf(certify.MARGIN_FACTOR, p50)
        assert abs(stats.max_residual - mpmath.mpf("0.5")) < mpmath.mpf("1e-30")
        assert min(abs(stats.max_location - v) for v in (-1, 0, 1)) < mpmath.mpf("1e-6")

    def test_identical_functions(self, p50):
        P = make_poly(["0.25", "-1", "3"])
        stats = residual_check(lambda x: P.evaluate(x), P, 0, 64, p50)
        assert stats.passed
        assert stats.max_residual == 0

    def test_a_polynomial_of_another_precision_rounds_u_at_its_own(self, p30):
        # a P50 polynomial checked on a P30 grid: each residual has the bits
        # of g(x) - P.evaluate(x), whose u is rounded at P50
        P = make_poly(["0.25", "-1", "3"], 0, "pi/3")
        g = lambda x: x.context.mpf(P.evaluate(x))
        stats = residual_check(g, P, 1, 97, p30)
        grid = chebyshev_grid(*(to_mpf(v, p30) for v in P.segment), 97)
        want = max(abs(P.segment[0].context.mpf(g(x)) - P.evaluate(x)) for x in grid)
        assert stats.max_residual == +to_mpf(want, p30) != 0

    def test_failing_residual_with_witness(self, p50):
        P = make_poly(["0"])
        stats = residual_check(lambda x: x, P, "0.1", 64, p50)
        assert not stats.passed
        assert stats.max_location > mpmath.mpf("0.9")
        assert abs(stats.max_residual - 1) < mpmath.mpf("1e-30")

    # |g - 0| is 1 at both ends of [-1, 1], with opposite signs for x and the
    # same sign for x^2; the grid starts at -1, fresh or known
    @pytest.mark.parametrize("source", ["x", "x^2"])
    @pytest.mark.parametrize("first_known", [False, True])
    def test_first_of_equal_residuals_is_reported(self, source, first_known, p50):
        P = make_poly(["0"], -1, 1)
        f = parse(source)
        g = lambda x: evaluate(f, x, p50)
        start = P.segment[0]
        known = {start._mpf_: g(start)._mpf_} if first_known else None
        stats = residual_check(g, P, "0.1", 64, p50, known=known)
        assert stats.max_location == -1
        assert stats.max_residual == 1
        assert not stats.passed

    def test_grid_size_validation(self, p50):
        P = make_poly(["0.5", "1"])
        for grid_size in (8, 12.5, True):
            with pytest.raises(ConfigurationError, match="^" + re.escape(
                    f"grid_size must be an integer of at least 12, got {grid_size!r}") + "$"):
                residual_check(lambda x: x, P, "0.1", grid_size, p50)

    # N = 4*(2+2) = 16 Remez intervals: 2N+1 and 3N+1 nest the Remez grid,
    # 4000 (the golden inconclusive_residual_check case) shares only its ends
    @pytest.mark.parametrize("size", [33, 49, 4000])
    @pytest.mark.parametrize("source", ["exp(x)", "1+exp(-10^6*(x-3/10)^2)"])
    def test_reused_grid_residuals_give_the_cold_statistics(self, source, size, p30):
        f = parse(source)
        mr = minimax(lambda x: evaluate(f, x, p30), 0, 1, 2, p=p30, grid_multiplier=4)
        av, bv = finite_segment(0, 1, p30)
        remez_grid = {x._mpf_ for x in chebyshev_grid(av, bv, 17)}
        grid = [x._mpf_ for x in chebyshev_grid(av, bv, size)]
        assert len(remez_grid.intersection(grid)) == (17 if (size - 1) % 16 == 0 else 2)
        samples = grid + [t._mpf_ for t in mr.nodes]
        stats, lookups, expected = [], [], []
        # nothing reused, the Remez grid's residuals, and the nodes' too
        for known in ({}, {x: mr.residuals[x] for x in remez_grid}, mr.residuals):
            g = _CountingCache(lambda x: evaluate(f, x, p30))
            stats.append(residual_check(g, mr.polynomial, mr.delta_hat, size, p30,
                                        extra_points=mr.nodes, known=known))
            lookups.append(g.lookups)
            expected.append(sum(x not in known for x in samples))
        cold = stats[0]
        for warm in stats[1:]:
            assert warm.passed == cold.passed
            assert warm.sample_count == cold.sample_count == size + 4
            for name in ("max_residual", "max_location", "threshold"):
                assert getattr(warm, name)._mpf_ == getattr(cold, name)._mpf_
        assert lookups == expected
        assert lookups[0] == size + 4 and lookups[2] < lookups[1] < lookups[0]


class TestCertifyPositive:
    def test_constant_comfortably_positive(self, p50):
        P = make_poly(["1"])
        cert = certify_positive(P, "0.5", "1.000001", p50)
        assert len(cert.subintervals) == 1
        assert abs(cert.global_min_bound - mpmath.mpf("0.4999995")) < mpmath.mpf("1e-9")

    def test_root_inside_fails(self, p50):
        # P(x) = x as exact dyadic Chebyshev coefficients; P(0) = 0 is not > 0
        P = Polynomial(coefficients=(mpmath.mpf("0.5"), mpmath.mpf("0.5")),
                       segment=(mpmath.mpf(0), mpmath.mpf(1)))
        with pytest.raises(CertificationError) as err:
            certify_positive(P, 0, "1.000001", p50)
        assert err.value.left is not None
        assert err.value.left < mpmath.mpf("1e-10")
        assert err.value.bound <= 0

    def test_quadratic_with_margin(self, p50):
        P = make_poly(["0.001", "0", "1"], -1, 1)  # x^2 + 1e-3
        cert = certify_positive(P, "0.0001", "1.01", p50)
        assert cert.global_min_bound >= mpmath.mpf("8.9e-4")
        assert cert.global_min_bound <= mpmath.mpf("8.99e-4") + mpmath.mpf("1e-12")

    def test_tangent_minimum_reaches_width_floor(self, p50):
        # (x - c)^2 with c a 60-bit binary fraction: positive at every split
        # point down to 2^-47, while the leaf holding c never gets a positive
        # lower bound.  Exact Chebyshev coefficients on [0, 1], u = 2x - 1.
        c = mpmath.mpf(round(mpmath.mpf(2) ** 60 / 3)) / 2 ** 60
        s = 1 - 2 * c
        P = Polynomial(coefficients=(s * s / 4 + mpmath.mpf(1) / 8, s / 2, mpmath.mpf(1) / 8),
                       segment=(mpmath.mpf(0), mpmath.mpf(1)))
        with pytest.raises(CertificationError, match="width floor") as err:
            certify_positive(P, 0, "1.000001", p50)
        assert err.value.left < c < err.value.right
        assert err.value.right - err.value.left == mpmath.mpf(2) ** -47
        assert err.value.bound <= 0

    def test_leaf_budget_exhausted(self, p50, monkeypatch):
        # (x - 1/3)^2 + 1e-12 needs about twenty leaves to be certified
        third = mpmath.mpf(1) / 3
        P = make_poly([third ** 2 + mpmath.mpf("1e-12"), -2 * third, 1])
        assert len(certify_positive(P, 0, "1.000001", p50).subintervals) > 3
        monkeypatch.setattr(certify, "MAX_SUBINTERVALS", 3)
        with pytest.raises(CertificationError, match="within 3 subintervals"):
            certify_positive(P, 0, "1.000001", p50)

    def test_low_precision_refused(self):
        P = make_poly(["1"])
        for digits in (20, 29):
            with pytest.raises(ConfigurationError, match=(
                    "^certified precision in decimal digits must be an integer of at least 30, "
                    f"got {digits}$")):
                certify_positive(P, 0, "1.000001", Precision(digits))

    def test_margin_validation(self, p50):
        P = make_poly(["1"])
        with pytest.raises(ConfigurationError):
            certify_positive(P, 0, "1.0", p50)
        with pytest.raises(ConfigurationError):
            certify_positive(P, 0, "2.5", p50)
        with pytest.raises(ConfigurationError):
            certify_positive(P, "-0.1", "1.5", p50)

    def test_tiling_exact(self, p50):
        P = make_poly(["0.02", "-0.2", "1.1", "0.3"], 0, 2)
        cert = certify_positive(P, "0.005", "1.000001", p50)
        subs = cert.subintervals
        assert subs[0][0] == 0
        assert subs[-1][1] == 2
        for (_, right, _), (left, _, _) in zip(subs, subs[1:]):
            assert right == left
        assert all(bound > 0 for _, _, bound in subs)
        assert cert.global_min_bound == min(b for _, _, b in subs)

    def test_subinterval_bounds_sound(self, p50):
        P = make_poly(["0.05", "-0.4", "1.2"], 0, 1)
        cert = certify_positive(P, "0.003", "1.000001", p50)
        with ambient(p50):
            margin = mp.mpf("1.000001") * mp.mpf("0.003")
            for left, right, bound in cert.subintervals:
                for i in range(20):
                    x = left + (right - left) * mp.mpf(i) / 19
                    assert P.evaluate(x) - margin >= bound - mp.mpf("1e-40")

    @pytest.mark.parametrize("field", ["delta", "margin_factor", "coefficient"])
    def test_non_finite_input_refused(self, p50, field):
        # to_mpf refuses a non-finite delta or margin, and the Polynomial a
        # non-finite coefficient where it is built
        for bad in ("nan", "inf", "-inf"):
            args = {"delta": "0.1", "margin_factor": "1.000001", "coefficient": "1"}
            args[field] = bad
            message = (f"cannot interpret {bad!r} as a real number" if field != "coefficient" else
                       f"a polynomial's coefficient must be a finite mpf, got {mpmath.mpf(bad)!r}")
            with pytest.raises(ConfigurationError, match="^" + re.escape(message) + "$"):
                P = Polynomial(coefficients=(mpmath.mpf(args["coefficient"]), mpmath.mpf("0.5")),
                               segment=(mpmath.mpf(0), mpmath.mpf(1)))
                certify_positive(P, args["delta"], args["margin_factor"], p50)

    def test_a_constant_coefficient_is_evaluated_at_its_precision(self, p30):
        # the certifier reads each coefficient's tuple, but a constant such as
        # mpmath.pi is evaluated in the certifier's context, as to_mpf does,
        # whatever the ambient precision
        segment = finite_segment(0, 1, p30)
        ones = (mpmath.mpf(-1), mpmath.mpf("0.25"))
        pi = Polynomial(coefficients=(mpmath.pi, *ones), segment=segment)
        evaluated = Polynomial(coefficients=(to_mpf(mpmath.pi, p30), *ones), segment=segment)
        want = certify_positive(evaluated, "0.1", "1.000001", p30)
        for dps in (15, 30, 100):
            with mp.workdps(dps):
                got = certify_positive(pi, "0.1", "1.000001", p30)
            assert (got.subintervals, got.global_min_bound) == \
                (want.subintervals, want.global_min_bound), dps


def _two_step_bernstein(cheb):
    # the change of basis the matrix replaces: powers of t from the basis
    # table, then n! times the power-to-Bernstein map, k!(n-i)!/(k-i)!
    n = len(cheb) - 1
    power = remez.chebyshev_to_power(cheb)
    fact = [factorial(i) for i in range(n + 1)]
    return [sum(power[i] * fact[k] * fact[n - i] // fact[k - i] for i in range(k + 1))
            for k in range(n + 1)]


@pytest.mark.parametrize("degree", range(21))
@settings(max_examples=30, deadline=None, derandomize=True)
@given(cheb=st.lists(st.one_of(st.just(0), st.integers(-2 ** 256, 2 ** 256)),
                     min_size=21, max_size=21))
@example(cheb=[0] * 21)
def test_bernstein_matrix_is_the_two_step_map(degree, cheb):
    cheb = cheb[:degree + 1]
    assert certify._bernstein(cheb) == _two_step_bernstein(cheb)


def _exact_value(P, x):
    return exact_taylor(P, x, x)[0]


class TestExactReplay:
    """Certificates replayed in rational arithmetic, with none of the certifier's code."""

    def test_fuzz_certificates_replay_exactly(self, p30):
        rng = random.Random(97531)
        replayed = 0
        for _ in range(40):
            degree = rng.randint(0, 7)
            monomial = [mpmath.mpf(rng.uniform(-1, 1)) for _ in range(degree + 1)]
            monomial[0] += mpmath.mpf(repr(rng.choice([0.3, 1.0, 0.05, 2.0])))
            delta = repr(rng.uniform(0, 0.2))
            P = make_poly(monomial, 0, 1)
            try:
                cert = certify_positive(P, delta, "1.000001", p30)
            except CertificationError:
                continue
            replayed += 1
            margin = fraction(cert.delta) * fraction(cert.margin_factor)
            leaves = [tuple(fraction(v) for v in leaf) for leaf in cert.subintervals]
            assert leaves[0][0] == 0 and leaves[-1][1] == 1
            ends = {}
            for lo, hi, bound in leaves:
                assert bound > 0
                for x in (lo, (lo + hi) / 2, hi):
                    ends[x] = _exact_value(P, x) - margin
                    assert ends[x] >= bound
            # stopping rule: within REL_SLACK = 1 % of the least value at a leaf end
            least = min(ends[x] for leaf in leaves for x in leaf[:2])
            assert least - fraction(cert.global_min_bound) <= least / 100
            lowest = min(range(len(leaves)), key=lambda i: leaves[i][2])
            for lo, hi, bound in {leaves[0], leaves[lowest], leaves[-1]}:
                power = exact_taylor(P, lo, hi)
                n = len(power) - 1
                bernstein = [sum(comb(k, i) * power[i] / comb(n, i) for i in range(k + 1))
                             - margin for k in range(n + 1)]
                # the leaf's bound is its least Bernstein coefficient, rounded down
                assert bound <= min(bernstein) <= bound * (1 + Fraction(1, 2 ** 100))
        assert replayed >= 15


def _planted_tiny_margin(c, sign, e, wide):
    """(x - c)^2 * q(x) + sign*10^-e in powers of x, with q = 1 or (1 + x^2)^2."""
    q = [Fraction(1), Fraction(0), Fraction(2), Fraction(0), Fraction(1)] if wide else [Fraction(1)]
    out = [Fraction(0)] * (len(q) + 2)
    for i, v in enumerate(q):
        for j, w in enumerate((c * c, -2 * c, Fraction(1))):
            out[i + j] += v * w
    out[0] += sign * Fraction(1, 10 ** e)
    return out


class TestTinyMarginFuzz:
    """Margins of 1e-10 to 1e-25 at a non-dyadic point, far below what float oracles see."""

    @pytest.mark.parametrize("digits", [30, 50])
    def test_planted_tiny_margins(self, digits):
        p = Precision(digits)
        rng = random.Random(8642 + digits)
        for _ in range(12):
            c = Fraction(rng.randint(1, 100), 101)
            e = rng.randint(10, 25)
            for wide in (False, True):
                below = make_poly(_planted_tiny_margin(c, -1, e, wide))
                with pytest.raises(CertificationError):
                    certify_positive(below, 0, "1.000001", p)
                above = make_poly(_planted_tiny_margin(c, 1, e, wide))
                cert = certify_positive(above, 0, "1.000001", p)
                bound = fraction(cert.global_min_bound)
                assert Fraction(99, 100 * 10 ** e) <= bound <= Fraction(1, 10 ** e)
                assert bound <= _exact_value(above, fraction(mpmath.mpf(c.numerator) / c.denominator))


def _poly_min_oracle(monomial, a, b, samples=20000):
    """Brute-force minimum: dense sampling refined by derivative sign changes."""
    coeffs = [float(c) for c in monomial]

    def val(x):
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    def dval(x):
        acc = 0.0
        for i, c in enumerate(reversed(coeffs[1:])):
            power = len(coeffs) - 1 - i
            acc = acc * x + power * c
        return acc

    xs = [a + (b - a) * i / samples for i in range(samples + 1)]
    best = min(val(x) for x in xs)
    prev = dval(xs[0])
    for left, right in zip(xs, xs[1:]):
        cur = dval(right)
        if prev == 0 or (prev > 0) != (cur > 0):
            lo, hi = left, right
            for _ in range(80):
                mid = (lo + hi) / 2
                if (dval(lo) > 0) == (dval(mid) > 0):
                    lo = mid
                else:
                    hi = mid
            best = min(best, val((lo + hi) / 2))
        prev = cur
    return best


class TestCertifierFuzz:
    def test_soundness_against_sampling_oracle(self, p50):
        rng = random.Random(24680)
        certified = 0
        for _ in range(30):
            degree = rng.randint(0, 6)
            monomial = [mpmath.mpf(rng.uniform(-1, 1)) for _ in range(degree + 1)]
            shift = rng.choice([0.0, 0.3, -0.05, 1.0, 0.001])
            monomial[0] += mpmath.mpf(repr(shift))
            delta = mpmath.mpf(repr(abs(rng.uniform(0, 0.2))))
            P = make_poly(monomial, 0, 1)
            true_min = _poly_min_oracle(monomial, 0.0, 1.0)
            try:
                cert = certify_positive(P, delta, "1.000001", p50)
            except CertificationError:
                cert = None
            if cert is not None:
                certified += 1
                assert true_min - float(delta) > 0, \
                    "certified a polynomial that dips below delta"
                assert float(cert.global_min_bound) <= true_min - float(delta) + 1e-9
            else:
                margin = float(delta) * 1.000001
                assert true_min - margin < 1e-9, \
                    "failed to certify a clearly positive polynomial"
        assert certified >= 5


class TestProvePipeline:
    # bases with a root of order n at a, in u = x - a
    PLANTED_BASES = [("exp(u)-1-u", "0", "1", 2), ("exp(u)-1-u-u^2/2", "1/2", "2", 3),
                     ("1-cos(u)", "0", "1", 2), ("u-sin(u)", "1/2", "3/2", 3),
                     ("u^2*(4+3*u)", "0", "1", 2), ("u^3*(2-u)", "0", "1", 3)]

    @pytest.mark.parametrize("digits", [35, 50])
    def test_planted_nonvanishing_derivative_never_proven(self, digits):
        # f - eps*(x-a)^i, i < n, is negative or of order i at a, for every
        # eps above the zero level 10^-(digits-10) of the endpoint limits
        p = Precision(digits)
        rng = random.Random(digits)
        for base, a, b, n in self.PLANTED_BASES:
            u = f"(x-{a})"
            for i in range(n):
                for e in {8, digits - 11, rng.randint(9, digits - 12)}:
                    source = f"{base.replace('u', u)} - 10^(-{e})*{u}^{i}"
                    report = prove_inequality(source, a, b, n, 0, 2, ProofSettings(
                        precision=p, grid_multiplier=4))
                    assert report.verdict != "proven", source

    def test_trivial_parabola(self, p30):
        report = prove_inequality("x*(1-x)", 0, 1, 1, 1, 1,
                                  ProofSettings(precision=p30))
        assert report.verdict == "proven"
        assert report.global_min_bound > 0
        assert report.caveat

    def test_exact_polynomial_quotient_proven(self, p50):
        # g = 4 + 3x is represented exactly at degree 1: delta_hat must sit
        # at the rounding floor, not at the rounding noise of the Remez grid,
        # which the denser residual grid exceeds
        report = prove_inequality("x^2*(4+3*x)", 0, 1, 2, 0, 1,
                                  ProofSettings(precision=p50))
        assert (report.verdict, report.diagnostics["stage"]) == ("proven", "complete")
        assert 0 < report.delta_hat <= mpmath.mpf("1e-45")

    def test_numeric_route_exact_powers(self, p30):
        report = prove_inequality("x^(3/2)*(1-x)^(1/2)", 0, 1, "1.5", "0.5", 0,
                                  ProofSettings(precision=p30))
        assert report.verdict == "proven"
        assert report.limit_method == "numeric"

    def test_disproven_alpha(self, p30):
        report = prove_inequality("-x", 0, 1, 1, 0, 1, ProofSettings(precision=p30))
        assert report.verdict == "disproven"
        assert report.diagnostics["negative_limit"] == "alpha"
        # the probe nearest the end comes first
        assert report.diagnostics["witness"]["x"] == to_mpf(Fraction(1, 4 ** 12), p30)

    def test_disproven_interior_witness(self, p30):
        # positive at both ends, dips below zero inside
        report = prove_inequality("x^2 - x + 0.24", 0, 1, 0, 0, 2,
                                  ProofSettings(precision=p30))
        assert report.verdict == "disproven"
        assert "witness" in report.diagnostics
        x = mpmath.mpf(report.diagnostics["witness"]["x"])
        assert mpmath.mpf("0.3") < x < mpmath.mpf("0.7")
        # the sweep of the Remez grid finds it, before minimax or any leaf
        assert report.diagnostics["stage"] == "minimax"
        assert report.diagnostics["message"] == "g is negative at a sample of the Remez grid"
        assert "failing_subinterval" not in report.diagnostics

    def test_inconclusive_when_degree_too_low(self, p30):
        # minimum 1e-8 is far below the degree-0 error estimate
        report = prove_inequality("x^2 - x + 0.25 + 1e-8", 0, 1, 0, 0, 0,
                                  ProofSettings(precision=p30))
        assert report.verdict == "inconclusive"
        assert report.diagnostics["stage"] == "positivity"
        assert list(report.diagnostics)[-3:] == ["stage", "message", "failing_subinterval"]
        where = report.diagnostics["failing_subinterval"]
        assert list(where) == ["left", "right", "bound"]
        # P - delta*margin is negative already at the left end
        assert where["left"] == where["right"] == 0
        assert where["bound"] < 0

    def test_monotone_repair_at_higher_degree(self, p30):
        report = prove_inequality("x^2 - x + 0.25 + 1e-8", 0, 1, 0, 0, 2,
                                  ProofSettings(precision=p30))
        assert report.verdict == "proven"

    def test_taylor_failure_records_numeric_hint(self, p30):
        # n = 2 is one too many at a: Taylor finds f'(0) = 1 != 0, and the
        # numeric route sees the quotient grow like x^-1 there
        report = prove_inequality("x*(1-x)", 0, 1, 2, 1, 1,
                                  ProofSettings(precision=p30))
        assert report.verdict == "inconclusive"
        assert report.diagnostics["stage"] == "endpoint_limits"
        assert report.diagnostics["message"].startswith("MultiplicityError")
        failed = report.diagnostics["limit_cross_check"]["failed"]
        assert failed.startswith("DivergentLimitError")
        assert failed.endswith("[endpoint a]")

    @pytest.mark.parametrize("source, stage, argument", [
        # K(20) at b = 1
        ("1 + kurepa(20*x)", "endpoint_limits", "20.0"),
        # within the domain at both ends, past it on the Remez grid
        ("1 + kurepa(2000*x*(1-x))", "minimax", None),
    ])
    def test_kurepa_argument_outside_the_domain_is_inconclusive(self, source, stage, argument,
                                                               p30):
        report = prove_inequality(source, 0, 1, 0, 0, 1,
                                  ProofSettings(precision=p30, grid_multiplier=4))
        assert (report.verdict, report.diagnostics["stage"]) == ("inconclusive", stage)
        message = report.diagnostics["message"]
        assert message.startswith("DomainError: kurepa argument ")
        assert message.endswith("lies outside [0, 16]")
        if argument is not None:
            assert f" {argument} " in message

    def test_zero_limit_inconclusive(self, p30):
        report = prove_inequality("x^2*(1-x)", 0, 1, 1, 1, 1,
                                  ProofSettings(precision=p30))
        assert report.verdict == "inconclusive"
        assert report.diagnostics["stage"] in ("endpoint_limits", "precondition")

    @pytest.mark.parametrize("f, n, stage, hint, method", [
        # n = 2 is one too many at a: the Taylor route fails
        ("x", 2, "endpoint_limits", "DivergentLimitError", None),
        # n = 1 is one too few at a: the Taylor route gives alpha = 0
        ("x^2", 1, "precondition", "ZeroLimitError", "taylor"),
    ])
    def test_wrong_order_hint_follows_the_message(self, f, n, stage, hint, method, p30):
        report = prove_inequality(f, 0, 1, n, 0, 1, ProofSettings(precision=p30))
        assert (report.verdict, report.diagnostics["stage"]) == ("inconclusive", stage)
        # the report names the route that gave limits, and none where it failed
        assert json.loads(report_to_json(report))["limit_method"] == method
        assert list(report.diagnostics) == ["stage", "message", "limit_cross_check"]
        if stage == "precondition":
            # the precondition names the end as the limit routes do
            assert report.diagnostics["message"].endswith("[endpoint a]")
        failed = report.diagnostics["limit_cross_check"]["failed"]
        assert failed.startswith(hint) and failed.endswith("[endpoint a]")
        assert "observed exponent hint" in failed

    @pytest.mark.parametrize("f, n, hint", [
        # non-integer orders take the numeric route, which fails on its own
        ("x^2", "1.5", "ZeroLimitError"),
        ("x", "2.5", "DivergentLimitError"),
    ])
    def test_numeric_route_failure_carries_no_cross_check(self, f, n, hint, p30):
        # only the Taylor route's wrong order gets the numeric route's hint;
        # the numeric route's own message already carries it
        report = prove_inequality(f, 0, 1, n, 0, 1, ProofSettings(precision=p30))
        assert (report.verdict, report.diagnostics["stage"]) == \
            ("inconclusive", "endpoint_limits")
        assert list(report.diagnostics) == ["stage", "message"]
        message = report.diagnostics["message"]
        assert message.startswith(hint) and message.endswith("[endpoint a]")
        assert "observed exponent hint" in message
        assert json.loads(report_to_json(report))["limit_method"] is None

    # each stage's routine, looked up by name when the stage runs
    @pytest.mark.parametrize("stage, name", [
        ("endpoint_limits", "endpoint_limits_taylor"), ("precondition", "QuotientFunction"),
        ("minimax", "minimax"), ("equioscillation", "verify_equioscillation"),
        ("residual_check", "residual_check"), ("positivity", "certify_positive")])
    @pytest.mark.parametrize("error", [RootBracketError, ConfigurationError])
    def test_a_package_error_ends_its_stage_but_a_bad_input_propagates(
            self, stage, name, error, p30, monkeypatch):
        def fail(*args, **kwargs):
            raise error("boom")

        monkeypatch.setattr(certify, name, fail)
        args = ("x*(1-x)", 0, 1, 1, 1, 1, ProofSettings(precision=p30))
        if error is ConfigurationError:
            with pytest.raises(ConfigurationError, match="^boom$"):
                prove_inequality(*args)
        else:
            report = prove_inequality(*args)
            assert (report.verdict, report.diagnostics["stage"]) == ("inconclusive", stage)
            assert report.diagnostics["message"] == "RootBracketError: boom"

    def test_taylor_proof_runs_no_numeric_route(self, p30, monkeypatch):
        settings = ProofSettings(precision=p30)
        want = report_to_json(prove_inequality("exp(x)-1-x", 0, 1, 2, 0, 1, settings))

        def no_numeric(*args):
            raise AssertionError("the numeric limit route ran")

        monkeypatch.setattr(certify, "endpoint_limits_numeric", no_numeric)
        report = prove_inequality("exp(x)-1-x", 0, 1, 2, 0, 1, settings)
        assert (report.verdict, report.limit_method) == ("proven", "taylor")
        assert "limit_cross_check" not in report.diagnostics
        assert report_to_json(report) == want

    @pytest.mark.parametrize("degree", [-1, 1.5, True])
    def test_bad_degree_refused(self, degree, p30):
        with pytest.raises(ConfigurationError,
                           match=f"^degree must be an integer of at least 0, got {degree!r}$"):
            prove_inequality("exp(x)-1-x", 0, 1, 2, 0, degree, ProofSettings(precision=p30))

    def test_trig_arcsin_bound_proven(self, p50):
        report = prove_inequality(TRIG_ARCSIN_SOURCE, 0, "pi/2", 3, 1, 1,
                                  ProofSettings(precision=p50))
        assert report.verdict == "proven"
        assert abs(report.alpha - mpmath.mpf("0.0032771980247250097792755710647903936972")) \
            < mpmath.mpf("1e-30")
        assert abs(report.beta - mpmath.mpf("0.0063641124631959481522281528307286568745")) \
            < mpmath.mpf("1e-30")
        # the numeric route agrees with the Taylor one
        alpha, beta = endpoint_limits_numeric(parse(TRIG_ARCSIN_SOURCE), 0, "pi/2", 3, 1, p50)
        assert abs(report.alpha - alpha) < mpmath.mpf("1e-6") * abs(report.alpha)
        assert abs(report.beta - beta) < mpmath.mpf("1e-6") * abs(report.beta)

    def test_verdict_soundness_sampling(self, p30):
        report = prove_inequality("x*(1-x)", 0, 1, 1, 1, 1,
                                  ProofSettings(precision=p30))
        assert report.verdict == "proven"
        rng = random.Random(11111)
        f = lambda x: x * (1 - x)
        with ambient(p30):
            floor = -mp.mpf(10) ** (-(30 - 15))
            for _ in range(10000):
                x = mp.mpf(rng.random())
                assert f(x) >= floor

    # to_mpf gives finite mpfs only: an infinity or a NaN is refused, as a
    # string, a float or an mpf
    @pytest.mark.parametrize("text", [
        "1/0", "0/0", "pi/0", "2*x", "x", "-(-x)", "kurepa(1)", "inf", "-inf", "nan",
        pytest.param(float("inf"), id="float_inf"), pytest.param(mpmath.inf, id="mpf_inf"),
    ])
    def test_uninterpretable_number_refused(self, text):
        with pytest.raises(ConfigurationError, match="cannot interpret"):
            to_mpf(text)

    @pytest.mark.parametrize("text", ["x*0", "0*x", "x^0"])
    def test_x_refused_where_parsing_folds_it_away(self, text):
        with pytest.raises(ConfigurationError, match="cannot interpret") as err:
            to_mpf(text)
        assert "involves x" in str(err.value.__cause__)

    def test_zero_division_in_bound_refused(self, p30):
        with pytest.raises(ConfigurationError, match="cannot interpret"):
            prove_inequality("x", "1/0", 1, 1, 0, 1, ProofSettings(precision=p30))

    @pytest.mark.parametrize("a, b, n, m", [
        (0, "inf", 1, 1), ("-inf", 1, 1, 1), ("nan", 1, 1, 1),
        (0, 1, "inf", 1), (0, 1, 1, "nan"),
    ])
    def test_non_finite_input_refused(self, a, b, n, m, p30):
        bad = next(v for v in (a, b, n, m) if isinstance(v, str))
        with pytest.raises(ConfigurationError, match="^" + re.escape(
                f"cannot interpret {bad!r} as a real number") + "$"):
            prove_inequality("x*(1-x)", a, b, n, m, 1, ProofSettings(precision=p30))

    # to_mpf refuses a bool, as Precision and the degree do: True would
    # otherwise read as 1, False as 0
    @pytest.mark.parametrize("flag", [True, False])
    @pytest.mark.parametrize("entry", [
        lambda v, p: prove_inequality("exp(x)-1-x", 0, 1, v, 0, 1, ProofSettings(precision=p)),
        lambda v, p: prove_inequality("exp(x)-1-x", 0, 1, 2, v, 1, ProofSettings(precision=p)),
        lambda v, p: prove_inequality("exp(x)-1-x", v, 1, 2, 0, 1, ProofSettings(precision=p)),
        lambda v, p: prove_inequality("exp(x)-1-x", 0, v, 2, 0, 1, ProofSettings(precision=p)),
        lambda v, p: minimax(lambda x: x, v, 2, 1, p=p),
        lambda v, p: certify_positive(make_poly(["1"]), v, "1.000001", p),
    ], ids=["root_order_n", "root_order_m", "segment_end_a", "segment_end_b", "minimax",
            "certifier_delta"])
    def test_bool_number_refused(self, entry, flag, p30):
        with pytest.raises(ConfigurationError, match=f"^cannot interpret {flag} as a real number$"):
            entry(flag, p30)

    @pytest.mark.parametrize("order", ["inf", "nan"])
    @pytest.mark.parametrize("entry", [
        lambda n, p: endpoint_limits_taylor(parse("x"), 0, 1, n, 0, p),
        lambda n, p: endpoint_limits_numeric(parse("x"), 0, 1, n, 0, p),
        lambda n, p: QuotientFunction(parse("x"), 0, 1, n, 0, 1, 1, p),
    ], ids=["endpoint_limits_taylor", "endpoint_limits_numeric", "QuotientFunction"])
    def test_non_finite_order_refused(self, entry, order, p30):
        with pytest.raises(ConfigurationError,
                           match=f"^cannot interpret '{order}' as a real number$"):
            entry(order, p30)

    @pytest.mark.parametrize("a, b, end", [(0, "inf", "b"), ("-inf", 1, "a")])
    @pytest.mark.parametrize("entry", [
        lambda a, b, p: prove_inequality("x", a, b, 1, 0, 1, ProofSettings(precision=p)),
        lambda a, b, p: minimax(lambda x: x, a, b, 1, p=p),
        lambda a, b, p: endpoint_limits_taylor(parse("x"), a, b, 1, 0, p),
        lambda a, b, p: endpoint_limits_numeric(parse("x"), a, b, 1, 0, p),
        lambda a, b, p: QuotientFunction(parse("x"), a, b, 1, 0, 1, 1, p),
        lambda a, b, p: Polynomial.from_monomial(["-1", "0", "1"], a, b, p),
    ], ids=["prove_inequality", "minimax", "endpoint_limits_taylor",
            "endpoint_limits_numeric", "QuotientFunction", "from_monomial"])
    def test_infinite_segment_end_refused(self, entry, a, b, end, p30):
        bad = a if end == "a" else b
        with ambient(p30), pytest.raises(ConfigurationError, match="^" + re.escape(
                f"cannot interpret {bad!r} as a real number") + "$"):
            entry(a, b, p30)

    def test_segment_end_rounded_to_working_precision(self, p30):
        # an end carrying the bits of a higher ambient precision proves what
        # that end rounded to the working precision proves
        settings = ProofSettings(precision=p30)
        with mp.workdps(80):
            fine = mp.mpf(1) / 3
        with ambient(p30):
            rounded = +fine
        assert fine != rounded
        reports = [report_to_json(prove_inequality("exp(x)-1-x", 0, end, 2, 0, 1, settings))
                   for end in (fine, rounded)]
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["verdict"] == "proven"

    def test_warm_proof_sets_no_precision(self, p30, monkeypatch):
        # once its memos are warm, a proof sets no context's precision: not
        # the global mp's, nor that of a context it computes in
        settings = ProofSettings(precision=p30)
        proofs = [("exp(x)-1-x", 0, 1, 2, 0, 1), (ARCSIN_DIFF_SOURCE, 0, 1, 3, "1/2", 8),
                  ("(1.432205)*x - kurepa(x)", 0, 1, 1, 0, 1)]
        g = QuotientFunction(parse("sin(x)*(1-x)"), 0, 1, 1, 1, "0.9", "0.8", p30)
        # both endpoints, both blend zones, the interior and outside
        xs = [mpmath.mpf(v) for v in ("0", "1e-10", "0.5", "0.9999999999", "1")]

        def run():
            for x in (mpmath.mpf(-1), mpmath.mpf(2)):
                with pytest.raises(DomainError):
                    g.evaluate(x)
            return ([report_to_json(prove_inequality(*args, settings)) for args in proofs],
                    [g.evaluate(x)._mpf_ for x in xs])

        warm = run()

        def refuse(ctx, value):
            raise AssertionError("a precision was set during a warm proof")

        for name in ("prec", "dps"):
            getter = getattr(mpmath.MPContext, name).fget
            monkeypatch.setattr(mpmath.MPContext, name, property(getter, refuse))
        assert run() == warm

    def test_g_evaluation_count(self, p50):
        # 706 with golden-section polishing, about 44 calls per extremum;
        # 583 while the residual grid shared only its ends with the Remez grid
        report = prove_inequality("exp(x)-1-x", 0, 1, 2, 0, 1,
                                  ProofSettings(precision=p50))
        assert report.verdict == "proven"
        assert report.timings["g_evaluations"] == 394

    def test_residual_sweep_reuses_remez_grid(self, p50, monkeypatch):
        # the even points of the 2N+1-point residual grid are the N+1 Remez
        # grid points, so only the N odd points are fresh, and their residuals
        # come from minimax, as do those of the k+2 nodes: g is looked up only
        # at the N odd points (388 lookups while every sample was recomputed,
        # N + 3 while the nodes' residuals were)
        fresh, lookups = [], []
        call = remez.CachedFunction.__call__
        monkeypatch.setattr(remez.CachedFunction, "__call__",
                            lambda self, x: lookups.append(x) or call(self, x))

        def counted(g, *args, **kwargs):
            before = g.calls, len(lookups)
            stats = residual_check(g, *args, **kwargs)
            fresh.append((g.calls - before[0], len(lookups) - before[1]))
            return stats

        results = []

        def recorded(*args, **kwargs):
            results.append(minimax(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(certify, "residual_check", counted)
        monkeypatch.setattr(certify, "minimax", recorded)
        report = prove_inequality("exp(x)-1-x", 0, 1, 2, 0, 1, ProofSettings(precision=p50))
        assert report.verdict == "proven"
        n = remez.GRID_MULTIPLIER * 3
        assert report.settings["residual_grid_size"] == 2 * n + 1
        assert fresh == [(n, n)] == [(192, 192)]
        assert report.timings["g_evaluations"] == 394
        assert report.timings["residual_samples"] == 388
        # the map of residuals is left out of the result's repr and equality
        [mr] = results
        assert len(mr.residuals) >= n + 1 and "residuals" not in repr(mr)
        assert mr == dataclasses.replace(mr, residuals={})

    # the residual grid, 2*grid_multiplier*(k+2)+1 points, needs 4*(k+2)
    @pytest.mark.parametrize("grid_multiplier", [0, -2, 1, 2.5, "4", True], ids=repr)
    def test_grid_settings_refused_before_any_stage(self, grid_multiplier, p30):
        # ProofSettings refuses them where they are made
        with pytest.raises(ConfigurationError, match="^" + re.escape(
                f"grid_multiplier must be an integer of at least 2, got {grid_multiplier!r}") + "$"):
            ProofSettings(precision=p30, grid_multiplier=grid_multiplier)

    # a value of the wrong type where the precision, the settings or the
    # function goes is refused before any stage; a Precision is no settings
    @pytest.mark.parametrize("call, message", [
        (lambda p: ProofSettings(precision=50), "precision must be a Precision, got 50"),
        (lambda p: ProofSettings(precision="50"), "precision must be a Precision, got '50'"),
        (lambda p: ProofSettings(precision=None), "precision must be a Precision, got None"),
        (lambda p: prove_inequality("1+x", 0, 1, 0, 0, 1, p),
         "settings must be a ProofSettings, got Precision(decimal_digits=30)"),
        (lambda p: prove_inequality("1+x", 0, 1, 0, 0, 1, False),
         "settings must be a ProofSettings, got False"),
        (lambda p: prove_inequality(5, 0, 1, 0, 0, 1, ProofSettings(precision=p)),
         "f must be text or an Expression, got 5"),
    ], ids=["50", "'50'", "None", "settings_Precision", "settings_False", "f_int"])
    def test_precision_that_is_no_precision_refused(self, call, message, p30):
        with pytest.raises(ConfigurationError, match="^" + re.escape(message) + "$"):
            call(p30)

    # context takes a Precision and nothing else, so every entry point that
    # takes a precision refuses an int (a binary precision or a digit
    # count), a string, None or an unhashable value, with one message
    @pytest.mark.parametrize("bad", [30, "30", None, [30]], ids=repr)
    @pytest.mark.parametrize("entry", [
        lambda p: to_mpf("1", p),
        lambda p: decimal_str(1, p),
        lambda p: evaluate(parse("x"), 0, p),
        lambda p: kurepa(1, p),
        lambda p: kurepa_derivative(1, 1, p),
        lambda p: find_inflection(p),
        lambda p: endpoint_limits_taylor(parse("x"), 0, 1, 1, 0, p),
        lambda p: endpoint_limits_numeric(parse("x"), 0, 1, 1, 0, p),
        lambda p: QuotientFunction(parse("x"), 0, 1, 1, 0, 1, 1, p),
        lambda p: minimax(lambda x: x.context.exp(x), 0, 1, 1, p=p),
        lambda p: verify_equioscillation(
            minimax(lambda x: x.context.exp(x), 0, 1, 1, p=Precision(30), grid_multiplier=2), p),
        lambda p: Polynomial.from_monomial(["1", "2"], 0, 1, p),
        lambda p: make_poly(["1", "2"]).to_monomial(p),
        lambda p: residual_check(lambda x: x, make_poly(["1"]), "0.1", 8, p),
        lambda p: certify_positive(make_poly(["1"]), "0.1", "1.000001", p),
        lambda p: ProofSettings(precision=p),
    ], ids=["to_mpf", "decimal_str", "evaluate", "kurepa", "kurepa_derivative",
            "find_inflection", "endpoint_limits_taylor", "endpoint_limits_numeric",
            "QuotientFunction", "minimax", "verify_equioscillation",
            "from_monomial", "to_monomial", "residual_check", "certify_positive",
            "ProofSettings"])
    def test_only_a_precision_is_a_precision(self, entry, bad):
        with pytest.raises(ConfigurationError, match="^" + re.escape(
                f"precision must be a Precision, got {bad!r}") + "$"):
            entry(bad)

    def test_least_grid_multiplier_proves(self, p30):
        report = prove_inequality("exp(x)-1-x", 0, 1, 2, 0, 1,
                                  ProofSettings(precision=p30, grid_multiplier=2))
        assert report.verdict == "proven"
        assert report.settings["residual_grid_size"] == 13 == 4 * 3 + 1

    @pytest.mark.parametrize("digits", [14, "35", 35.0])
    def test_bad_precision_refused(self, digits):
        with pytest.raises(ConfigurationError):
            Precision(digits)

    @pytest.mark.parametrize("digits", [True, False])
    def test_bool_precision_refused(self, digits):
        with pytest.raises(ConfigurationError, match=(
                f"^precision in decimal digits must be an integer of at least 15, got {digits}$")):
            Precision(digits)

    def test_precision_floor(self):
        # the message certify_positive gives at 29 digits (test_low_precision_refused)
        with pytest.raises(ConfigurationError, match=(
                "^certified precision in decimal digits must be an integer of at least 30, "
                "got 25$")):
            ProofSettings(precision=Precision(25))

    def test_endpoint_roots_admitted(self, p30):
        report = prove_inequality("x*(1-x)", 0, 1, 1, 1, 1,
                                  ProofSettings(precision=p30))
        assert report.verdict == "proven"
        f = lambda x: x * (1 - x)
        assert f(mpmath.mpf(0)) == 0
        assert f(mpmath.mpf(1)) == 0


class TestDisproofWitness:
    @pytest.mark.parametrize("source, end", [
        ("-x", "alpha"), ("x*(1/2-x)", "beta"), ("(1.432205)*x - kurepa(x)", "alpha")])
    def test_negative_limit_disproves_with_a_confirmed_witness(self, source, end, p30):
        report = prove_inequality(source, 0, 1, 1, 0, 1, ProofSettings(precision=p30))
        assert (report.verdict, report.diagnostics["stage"]) == ("disproven", "precondition")
        assert list(report.diagnostics)[-2:] == ["negative_limit", "witness"]
        assert report.diagnostics["negative_limit"] == end
        witness, p60 = report.diagnostics["witness"], Precision(60)
        # f at the witness by an independent oracle at twice the digits
        if "kurepa" in source:
            with ambient(p60):
                x = mp.convert(witness["x"])
                value = mpmath.mpf("1.432205") * x - kurepa_ts(x)
        else:
            value = reference_evaluate(parse(source), witness["x"], p60)
        assert value < 0
        assert abs(value - witness["f_value"]) <= mpmath.mpf("1e-28") * abs(value)

    @pytest.mark.parametrize("source, digits", [("x*(x - 10^(-30))", 50),
                                                ("x*(x - 10^(-12))", 35)])
    def test_negative_limit_without_a_witness_is_inconclusive(self, source, digits):
        # false only on (0, 1e-30) or (0, 1e-12), where no probe has f below
        # -witness_floor: the sign of a computed limit disproves nothing
        report = prove_inequality(source, 0, 1, 1, 0, 1,
                                  ProofSettings(precision=Precision(digits)))
        assert (report.verdict, report.diagnostics["stage"]) == ("inconclusive", "precondition")
        assert report.diagnostics["negative_limit"] == "alpha"
        assert "witness" not in report.diagnostics

    def test_the_first_confirmed_grid_sample_ends_the_run(self, p30):
        # sample 84 of the 193-point Remez grid is the first where the dip
        # is negative: the run ends there, before minimax, after 85 samples
        report = prove_inequality("(x-1/2)^2-1/100", 0, 1, 0, 0, 1, ProofSettings(precision=p30))
        assert (report.verdict, report.diagnostics["stage"]) == ("disproven", "minimax")
        grid = chebyshev_grid(*finite_segment(0, 1, p30), 193)
        witness = report.diagnostics["witness"]
        assert witness["x"] == grid[84] and witness["f_value"] < 0
        assert report.timings["g_evaluations"] == 85
        assert (report.delta_hat, report.timings["remez_iterations"]) == (None, 0)

    def test_a_negative_sample_above_the_floor_ends_nothing(self, p30):
        # sample 96 of the Remez grid, x = 1/2, is the only negative one,
        # at f = -1e-40, far above -witness_floor: the sweep passes it over
        # and the run goes on to fail at positivity, with no witness
        source = "x^2 - x + 0.25 - 10^(-40)"
        x = chebyshev_grid(*finite_segment(0, 1, p30), 193)[96]
        assert -mpmath.mpf("1e-39") < evaluate(parse(source), x, p30) < 0
        report = prove_inequality(source, 0, 1, 0, 0, 1, ProofSettings(precision=p30))
        assert (report.verdict, report.diagnostics["stage"]) == ("inconclusive", "positivity")
        assert "witness" not in report.diagnostics

    @staticmethod
    def run(source, p):
        # a run whose g cache holds one clearly negative sample, at x = 1/2
        one = to_mpf(1, p)
        run = certify._Run(parse(source), finite_segment(0, 1, p), ProofSettings(precision=p),
                           "taylor", 0, {"alpha": one, "beta": one})
        run.g = remez.CachedFunction(lambda x: -one)
        run.g(to_mpf("0.5", p))
        return run

    def test_negative_f_is_a_witness(self, p30):
        witness = certify._disproof_witness(self.run("x - 1", p30))
        assert witness == {"x": to_mpf("0.5", p30), "f_value": to_mpf("-0.5", p30)}

    @pytest.mark.parametrize("source", ["log(x - 1/2)", "x - 1/2 - 1e-40"],
                             ids=["f_raises", "f_above_the_floor"])
    def test_no_witness_leaves_the_run_inconclusive(self, source, p30):
        # f raises at the sample, or lies above -witness_floor there
        assert certify._disproof_witness(self.run(source, p30)) is None


class TestReportJson:
    def test_shape_and_order(self, p30):
        report = prove_inequality("x*(1-x)", 0, 1, 1, 1, 1,
                                  ProofSettings(precision=p30))
        payload = report_to_json(report)
        doc = json.loads(payload)
        assert list(doc.keys()) == [
            "verdict", "alpha", "beta", "n", "m", "degree", "limit_method", "delta_hat",
            "lower_bound", "nodes", "polynomial_coefficients",
            "global_min_bound", "caveat", "settings", "timings", "diagnostics",
        ]
        assert (doc["verdict"], doc["limit_method"]) == ("proven", "taylor")
        assert doc["settings"]["precision_digits"] == 30
        assert isinstance(doc["timings"]["g_evaluations"], int)

    @pytest.mark.parametrize("source, verdict", [("x*(1-x)", "proven"),
                                                 ("x*(1-x)*(x-0.5)^2", "inconclusive")])
    def test_keys_are_the_report_fields(self, source, verdict, p30):
        report = prove_inequality(source, 0, 1, 1, 1, 1, ProofSettings(precision=p30))
        assert report.verdict == verdict
        names = [f.name for f in dataclasses.fields(certify.ProofReport)]
        keys = ["polynomial_coefficients" if name == "polynomial" else name for name in names]
        assert list(json.loads(report_to_json(report))) == keys

    @pytest.mark.parametrize("source, verdict, entries", [
        ("x*(1-x)", "proven", {"residual_check": ("max_residual", "max_location", "threshold")}),
        ("x*(1-x)*(x-0.5)^2", "inconclusive",
         {"equioscillation": ("spread",),
          "failing_subinterval": ("left", "right", "bound")}),
    ])
    def test_settings_and_diagnostics_keep_their_numbers(self, source, verdict, entries, p30):
        # the stages store mpfs, and report_to_json renders each as decimal_str does
        report = prove_inequality(source, 0, 1, 1, 1, 1, ProofSettings(precision=p30))
        assert report.verdict == verdict
        doc = json.loads(report_to_json(report))
        pairs = list(zip(report.settings["interval"], doc["settings"]["interval"]))
        pairs += [(report.settings[key], doc["settings"][key]) for key in ("n", "m")]
        pairs += [(report.diagnostics[name][key], doc["diagnostics"][name][key])
                  for name, keys in entries.items() for key in keys]
        for value, rendered in pairs:
            assert hasattr(value, "_mpf_")
            assert rendered == decimal_str(value, p30)

    def test_byte_determinism(self, p30):
        settings = ProofSettings(precision=p30)
        a = report_to_json(prove_inequality("x*(1-x)", 0, 1, 1, 1, 1, settings))
        b = report_to_json(prove_inequality("x*(1-x)", 0, 1, 1, 1, 1, settings))
        assert a.encode() == b.encode()

    def test_proofs_in_threads_give_their_solo_bytes(self):
        # each proof computes in the context of its own precision, and no
        # proof sets a precision that another one reads
        proofs = [
            (TRIG_ARCSIN_SOURCE, 0, "pi/2", 3, 1, 1, ProofSettings(precision=Precision(50))),
            ("exp(x)-1-x", 0, 1, 2, 0, 1, ProofSettings(precision=Precision(30))),
            (f"({KP0})*x - kurepa(x)", 0, 1, 2, 0, 1,
             ProofSettings(precision=Precision(35), grid_multiplier=4)),
        ]

        def run(args):
            return report_to_json(prove_inequality(*args))

        solo = [run(args) for args in proofs]
        for _ in range(3):
            with ThreadPoolExecutor(len(proofs)) as pool:
                assert list(pool.map(run, proofs)) == solo

    def test_no_caller_can_change_a_working_context(self):
        # a report's mpfs carry the one working context of their precision,
        # which every later proof at that precision computes in: setting its
        # precision, or entering a context manager that would, is refused
        settings = ProofSettings(precision=Precision(35))
        first = prove_inequality("exp(x)-1-x", 0, 1, 2, 0, 1, settings)
        ctx = first.alpha.context
        with pytest.raises(ConfigurationError):
            ctx.dps = 15
        with pytest.raises(ConfigurationError):
            ctx.prec = 60
        with pytest.raises(ConfigurationError), ctx.workdps(60):
            pass
        second = prove_inequality("exp(x)-1-x", 0, 1, 2, 0, 1, settings)
        assert report_to_json(second).encode() == report_to_json(first).encode()


@st.composite
def _wrong_orders(draw):
    """f = x^n (1-x)^m h(x) with h > 0 on [0, 1], and n or m claimed off by one."""
    h = draw(st.sampled_from(["1+x^2", "exp(x)", "2-x", "1/2+sin(x)"]))
    orders = [draw(st.integers(0, 3)), draw(st.integers(0, 3))]
    end, shift = draw(st.integers(0, 1)), draw(st.sampled_from([-1, 1]))
    n, m = orders
    claimed = list(orders)
    claimed[end] += shift if orders[end] + shift >= 0 else -shift
    return f"x^{n}*(1-x)^{m}*({h})", *claimed


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_wrong_orders())
def test_wrong_orders_are_never_proven_or_disproven(case):
    # the statement is true, and the orders are wrong: no verdict either way
    source, n, m = case
    report = prove_inequality(source, 0, 1, n, m, 1,
                              ProofSettings(precision=Precision(30), grid_multiplier=4))
    assert report.verdict == "inconclusive", report.diagnostics
    assert report.diagnostics["stage"] in ("endpoint_limits", "precondition")
