import cmath
import dataclasses
import hashlib
import math
import os
import re
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from itertools import count
from pathlib import Path

import mpmath
import pytest
from mpmath import mp

from ineqprove import quadrature
from ineqprove import (
    ConfigurationError,
    DomainError,
    Precision,
    PrecisionUnreachableError,
    ProofSettings,
    RootBracketError,
    evaluate,
    find_inflection,
    kurepa,
    kurepa_derivative,
    parse,
    prove_inequality,
)

from helpers import (
    C_INFLECT,
    KP0,
    KP0_TIMES_C,
    KPP0,
    KPPP0,
    K_HALF,
    clear_quadrature_memos,
    quadrature_memos,
    reference_right,
    reference_steps,
    reference_table,
    reference_tail,
    reference_trapezoid,
    requires_recorded_mpmath,
)
from ineqprove.precision import context, to_mpf
from reference_oracle import kurepa_ts

# sha256 of (value, error_bound, nodes_used) of K^(j)(x), j = 0..3, at each
# x below, at P30, P35 and P50, in that order
KUREPA_HASH = "b44afef01c86bc109a1afa2ff46aab34b1b7981829e0e0e3e85608dfa40efce2"
KUREPA_HASH_ARGUMENTS = (0, 4 ** -12, "0.37", "0.5", 1, 2)

# the same at x far out in the domain, whose right cut-offs reach furthest
# and whose powers of E grow largest
KUREPA_FAR_HASH = "d47887237a28f733341c6bb137549659cbebbac07d41121707f26ca5d2e4f7c3"
KUREPA_FAR_HASH_ARGUMENTS = ("7.3", "15.9", 16)

# sha256 of the P35 and P50 tables of the last band, 15 <= x <= 16, and of
# the first, 0 <= x <= 1: q, frac, the nodes' reach either side, the
# weights T_k and the series' (e^(-(n+1)/q), c_n)
TABLE_HASHES = {
    35: "9d9bb9687e60c9738ebc36053db4235bf75c0d4a83d46be0ff370f7956cb99c8",
    50: "19aa8d34229ef9aeb3d75090b3dac7d6e78dd14c07cd0bb0085ec7de5a269002",
}
FIRST_BAND_TABLE_HASHES = {
    35: "81683d03b75b4386ba15a144cb20d426d7b6fa578fb834e451b5e2ff90ef70ea",
    50: "b48cb5824e6219075afffa3abbe82e5d4bd630b2f7a5710df551091d3e04767f",
}


def test_steps_match_the_every_band_search():
    # each band's q comes from its highest order alone; the search over all
    # four orders gives the same q, so at it every order meets the band's
    # quarter share; at 95 digits the last band's guess cycles between 31
    # and 32 until its rounds end
    cases = [(digits, band) for digits in (15, 35, 50, 95, 160)
             for band in range(quadrature.MAX_ARGUMENT)]
    cases += [(digits, band) for digits in range(15, 161) for band in (0, 15)]
    for digits, band in cases:
        assert quadrature._steps(digits, band) == reference_steps(digits, band), (digits, band)


def test_right_matches_the_every_cut_off_search():
    # R from a guess confirmed by two exact bounds; the search over every R
    # from the first gives the same cut-off, bound and t
    for digits in range(15, 161):
        for band in (0, 1, 7, 14, 15):
            assert quadrature._right(digits, band) == reference_right(digits, band), \
                (digits, band)


def test_large_precisions_match_the_searches():
    # far past 160 digits, where the log ratio that guesses q passes 700
    # and e^700 a float's range
    band = quadrature.MAX_ARGUMENT - 1
    for digits, q, R in ((200, 57, 362), (300, 81, 542), (500, 129, 923), (1000, 247, 1926)):
        assert quadrature._steps(digits, band) == reference_steps(digits, band) == q
        right = quadrature._right(digits, band)
        assert right == reference_right(digits, band)
        assert right[0] == R


@requires_recorded_mpmath
def test_table_matches_the_direct_exponentials():
    # e^(k/q) from the chain, not one exponential per node: the same tables
    for digits in range(15, 101):
        for band in (0, 15):
            assert quadrature._table(digits, band) == reference_table(digits, band), \
                (digits, band)


@requires_recorded_mpmath
def test_every_band_matches_the_direct_exponentials():
    # the weights and series coefficients floored on integers: the same
    # tables on every band, not only the first and the last
    for digits in (35, 160):
        for band in range(quadrature.MAX_ARGUMENT):
            assert quadrature._table(digits, band) == reference_table(digits, band), \
                (digits, band)


# the oracle gate: every order at these x, at three precisions
GATE_ARGUMENTS = (0, 4 ** -12, "0.37", "0.8", 1, "2.6", "7.3", 16)


def _result(x, j, p):
    return kurepa(x, p) if j == 0 else kurepa_derivative(x, j, p)


@requires_recorded_mpmath
def test_kurepa_bits_pinned():
    data = []
    for digits in (30, 35, 50):
        p = Precision(digits)
        for x in KUREPA_HASH_ARGUMENTS:
            for j in range(4):
                r = _result(x, j, p)
                data.append((r.value._mpf_, r.error_bound._mpf_, r.nodes_used))
    assert hashlib.sha256(repr(data).encode("ascii")).hexdigest() == KUREPA_HASH


@requires_recorded_mpmath
def test_kurepa_far_bits_pinned():
    data = []
    for digits in (30, 35, 50):
        p = Precision(digits)
        for x in KUREPA_FAR_HASH_ARGUMENTS:
            for j in range(4):
                r = _result(x, j, p)
                data.append((r.value._mpf_, r.error_bound._mpf_, r.nodes_used))
    assert hashlib.sha256(repr(data).encode("ascii")).hexdigest() == KUREPA_FAR_HASH


def _table_hash(digits, band):
    t = quadrature._table(digits, band)
    data = (t.q, t.frac, t.left, t.high, t.orders[0], t.terms)
    return hashlib.sha256(repr(data).encode("ascii")).hexdigest()


@requires_recorded_mpmath
@pytest.mark.parametrize("digits", sorted(TABLE_HASHES))
def test_table_bits_pinned(digits):
    assert _table_hash(digits, quadrature.MAX_ARGUMENT - 1) == TABLE_HASHES[digits]


@requires_recorded_mpmath
@pytest.mark.parametrize("digits", sorted(FIRST_BAND_TABLE_HASHES))
def test_first_band_table_bits_pinned(digits):
    assert _table_hash(digits, 0) == FIRST_BAND_TABLE_HASHES[digits]


@lru_cache(maxsize=None)
def _gate_oracle(x, j):
    # tanh-sinh at 70 digits, digits + 20 for P50 and more for the others,
    # at x rounded to P50's working context, which every precision then keeps
    xv = to_mpf(x, Precision(50))
    with mp.workdps(70):
        return xv, +kurepa_ts(mp.mpf(xv), j)


class TestOracleGate:
    @pytest.mark.parametrize("j", range(4))
    @pytest.mark.parametrize("digits", [30, 35, 50])
    @pytest.mark.parametrize("x", GATE_ARGUMENTS)
    def test_bound_against_oracle(self, x, digits, j):
        # the value within its proven error_bound of the oracle, and the
        # bound within its target, 10^-(digits+3) max(1, |K^(j)(x)|)
        xv, ref = _gate_oracle(x, j)
        r = _result(xv, j, Precision(digits))
        assert abs(r.value - ref) <= r.error_bound
        assert r.error_bound <= mpmath.mpf(10) ** -(digits + 3) * max(1, abs(ref))
        if (x, digits) == ("0.8", 35):
            assert abs(r.value - ref) <= mpmath.mpf("1e-40")

    @pytest.mark.parametrize("j", range(4))
    @pytest.mark.parametrize("digits", [35, 50])
    @pytest.mark.parametrize("x", [0, 4 ** -12, "0.37", 1, "2.6", "7.3", "15.9", 16])
    def test_integer_sums_match_the_direct_sum(self, x, digits, j):
        # the table, the Horner sums in E and E^-1 and the series' geometric
        # sums against the same trapezoidal sum with every term evaluated
        # directly at twice the bits: the fixed-point sum rounds within half
        # an ulp, on the last band too, where E^k grows largest
        p = Precision(digits)
        r = _result(x, j, p)
        ref = reference_trapezoid(x, j, p)
        ulp = mpmath.mpf(2) ** (mpmath.mag(ref) - r.value.context.prec)
        assert abs(r.value - ref) <= ulp / 2 if ref else r.value == 0

    @pytest.mark.parametrize("j", range(4))
    @pytest.mark.parametrize("band", [0, 7, 15])
    def test_majorant_bounds_the_strip_integrals(self, j, band):
        # integral |F_j(sigma + ib)| dsigma at both ends of the band and at
        # three heights b up to a, by a fine midpoint sum in complex floats,
        # against the closed-form M
        q = quadrature._steps(35, band)
        a = int(64 * math.atan(2 * math.pi * q / (band + j + 2)))
        bound = float(mpmath.mpf(quadrature._majorant(j, band, band + 1, a)))
        for x in (band, band + 1):
            for b in (0, a / 128, a / 64):
                total = 0
                for i in range(-64 * 60, 64 * 9):
                    s = complex((i + 0.5) / 64, b)
                    w = cmath.exp(s - cmath.exp(s)) / (cmath.exp(s) - 1)
                    total += abs(w * (s ** j * cmath.exp(x * s) - (j == 0))) / 64
                assert total <= bound, (x, b, total, bound)


def _node(k, q, x, j):
    # h F_j(k/q), the trapezoidal sum's term at node k, in the global context
    s = mp.mpf(k) / q
    if k == 0:
        return (x if j == 0 else int(j == 1)) / (q * mp.e)
    t = mp.exp(s)
    return t * mp.exp(-t) / (t - 1) / q * (s ** j * mp.exp(x * s) - (j == 0))


@lru_cache(maxsize=None)
def _coarse_oracle(x, j):
    with mp.workdps(50):
        return +kurepa_ts(mp.mpf(x), j)


class TestBoundTerms:
    """Each term of the proven error_bound against what it bounds, summed directly."""

    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize("j", range(4))
    @pytest.mark.parametrize("x", ["0.37", "7.5"])
    def test_discretization_bound_holds_at_coarse_steps(self, x, j, q):
        # at q = 1 and 2 the sum's own error is large enough to see: the
        # sum over every node, run out both ways until its terms fall
        # below 10^-45, against the oracle, within the bound of x's band
        bound = mpmath.mpf(quadrature._discretization(j, int(float(x)), q))
        ref = _coarse_oracle(x, j)
        with mp.workdps(50):
            xv, total = mp.mpf(x), _node(0, q, mp.mpf(x), j)
            for step in (1, -1):
                for k in count(step, step):
                    term = _node(k, q, xv, j)
                    total += term
                    if abs(term) < mp.mpf(10) ** -45 and abs(k) > 8 * q:
                        break
            assert abs(total - ref) <= bound

    @pytest.mark.parametrize("digits", [35, 50])
    @pytest.mark.parametrize("j", range(4))
    @pytest.mark.parametrize("band", [0, 7, 15])
    def test_right_tail_bounds_the_dropped_terms(self, band, j, digits):
        # order j's terms past the band's one cut-off R at x = band + 1,
        # where each is largest on the band, against the band's tail bound,
        # itself at most a quarter of the target 10^-(digits+3) and at least
        # order j's own bound at R
        q = quadrature._steps(digits, band)
        R, bound, _ = quadrature._right(digits, band)
        assert not mpmath.libmp.mpf_gt(reference_tail(j, band, q, R), bound)
        bound = mpmath.mpf(bound)
        with mp.workdps(digits + 30):
            total = mp.mpf(0)
            for k in count(R + 1):
                term = _node(k, q, band + 1, j)
                total += term
                if term < total * mp.mpf(10) ** -30:
                    break
        assert 0 < total <= bound
        assert bound <= mpmath.mpf(10) ** -(digits + 3) / 4

    @pytest.mark.parametrize("digits", [35, 50])
    @pytest.mark.parametrize("j", range(4))
    def test_series_remainder_bounds_the_dropped_terms(self, j, digits):
        # at s = -m/q, m > K, left of the nodes, the table's series keeps
        # a_n e^((n+1)s) of w(s) for n below its size; what it drops, times
        # |s|^j and |E^-m| or |E^-m - 1|, both at most 1, summed directly
        # against the remainder the error bound adds, on the first band and
        # the last
        for band in (0, quadrature.MAX_ARGUMENT - 1):
            tab = quadrature._table(digits, band)
            q, size = tab.q, len(tab.terms)
            with mp.workdps(3 * digits):
                a = [sum(mp.mpf(-1) ** i / mp.factorial(i) for i in range(n + 1))
                     for n in range(size)]
                assert all(abs(a_n) <= 1 for a_n in a)
                total = mp.mpf(0)
                for m in count(tab.left + 1):
                    u = mp.exp(-mp.mpf(m) / q)
                    kept = sum(a_n * u ** (n + 1) for n, a_n in enumerate(a))
                    term = abs(u * mp.exp(-u) / (u - 1) + kept) * (mp.mpf(m) / q) ** j / q
                    total += term
                    if term < total * mp.mpf(10) ** -30:
                        break
            assert 0 < total <= mpmath.mpf(tab.remainder[j]), band


class TestKurepaValues:
    @pytest.mark.parametrize("digits", [15, 30, 35, 50])
    def test_values_are_mpfs_of_the_working_context(self, digits):
        # kurepa, every derivative order and a compiled Kurepa node are
        # rounded once into context(p): each is its own rounding there
        p = Precision(digits)
        ctx = context(p)
        for x in GATE_ARGUMENTS:
            values = [evaluate(parse(source), x, p)
                      for source in ("kurepa(x)", "kurepa_deriv(2, x)")]
            for j in range(quadrature.MAX_ORDER + 1):
                r = _result(x, j, p)
                values += [r.value, r.error_bound, r.tail_cutoff]
            for v in values:
                assert v.context is ctx and v == +v, (x, v)

    def test_at_zero_integrand_vanishes(self, p50):
        r = kurepa(0, p50)
        assert r.value == 0
        assert r.error_bound < mpmath.mpf("1e-40")

    def test_at_one_reduces_to_exponential(self, p50):
        r = kurepa(1, p50)
        assert abs(r.value - 1) < mpmath.mpf("1e-38")

    def test_half_matches_reference(self, p50):
        r = kurepa("0.5", p50)
        assert abs(r.value - mpmath.mpf(K_HALF)) < mpmath.mpf("1e-38")

    def test_error_bound_contract(self, p35):
        for x in ("0", "0.25", "1"):
            r = kurepa(x, p35)
            assert r.error_bound <= mpmath.mpf(10) ** (-(35 + 3))
            assert mpmath.isfinite(r.value)
            assert r.nodes_used > 0
            assert r.tail_cutoff > 0

    def test_first_derivative_at_zero(self, p50):
        r = kurepa_derivative(0, 1, p50)
        assert abs(r.value - mpmath.mpf("1.432205735")) < mpmath.mpf("5e-9")
        assert abs(r.value - mpmath.mpf(KP0)) < mpmath.mpf("1e-38")

    def test_second_derivative_concave_at_zero(self, p50):
        r = kurepa_derivative(0, 2, p50)
        assert r.value < 0
        assert abs(r.value - mpmath.mpf(KPP0)) < mpmath.mpf("1e-37")

    def test_third_derivative_positive(self, p50):
        r = kurepa_derivative(0, 3, p50)
        assert r.value > 0
        assert abs(r.value - mpmath.mpf(KPPP0)) < mpmath.mpf("1e-37")

    def test_derivative_positivity_on_grid(self, p30):
        # orders 1 and 3 are positive wherever sampled
        for i in range(6):
            x = mpmath.mpf(i) / 5
            assert kurepa_derivative(x, 1, p30).value > 0
            assert kurepa_derivative(x, 3, p30).value > 0

    def test_integer_arguments_match_factorial_sums(self, p30):
        # for integer n the integrand telescopes: K(n) = 0! + 1! + ... + (n-1)!
        import math

        for n in (2, 5, 12, 16):
            exact = sum(math.factorial(k) for k in range(n))
            r = kurepa(n, p30)
            assert abs(r.value - exact) <= r.error_bound * 2
            assert r.error_bound <= mpmath.mpf(10) ** (-20)

    @pytest.mark.parametrize("x", ["0.1", "0.7", "2.5", "7.3"])
    def test_independent_oracle(self, x, p30):
        # tanh-sinh quadrature with no package code; a sign slip in the odd
        # powers of L would show in j = 1 and 3
        for j in range(4):
            r = kurepa(x, p30) if j == 0 else kurepa_derivative(x, j, p30)
            with mp.workdps(45):
                ref = kurepa_ts(mpmath.mpf(x), j)
            assert abs(r.value - ref) <= 2 * r.error_bound

    @pytest.mark.parametrize("x", ["0.3", "0.4", "0.5"])
    def test_independent_oracle_at_p35(self, x, p35):
        # the bounds the Kurepa proof relies on, about 1e-38, against the
        # oracle at the same bits of x
        for j in range(4):
            r = kurepa(x, p35) if j == 0 else kurepa_derivative(x, j, p35)
            with mp.workdps(50):
                ref = kurepa_ts(mpmath.mpf(to_mpf(x, p35)), j)
            assert abs(r.value - ref) <= 2 * r.error_bound

    def test_tiny_argument_matches_taylor(self, p35):
        # x L is tiny at every node, where exp(x L) - 1 cancels
        r = kurepa("1e-20", p35)
        h = mpmath.mpf("1e-20")
        taylor = h * mpmath.mpf(KP0) + h ** 2 * mpmath.mpf(KPP0) / 2
        # the dropped h^3 term and the 40-digit KP0 are each about 1e-60
        assert abs(r.value - taylor) <= r.error_bound + mpmath.mpf("1e-58")

    @pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
    def test_non_finite_argument_refused(self, x, p35):
        with pytest.raises(ConfigurationError, match=f"^cannot interpret '{x}' as a real number$"):
            kurepa(x, p35)

    @pytest.mark.parametrize("x", ["0.37", "2.5", "15.1", "pi/4"])
    def test_argument_is_rounded_once(self, x, p35):
        # a string x gives the integrals of its mpf in the working context
        xv = to_mpf(x, p35)
        for j in range(2):
            got, want = ((kurepa(v, p35) if j == 0 else kurepa_derivative(v, j, p35))
                         for v in (x, xv))
            assert (got.value._mpf_, got.error_bound._mpf_, got.nodes_used) == \
                (want.value._mpf_, want.error_bound._mpf_, want.nodes_used)

    def test_domain_and_order_validation(self, p35):
        with pytest.raises(DomainError, match=r"outside \[0, 16\]"):
            kurepa(-1, p35)
        # an order above 3 is refused before any work
        start = time.perf_counter()
        with pytest.raises(DomainError,
                           match=re.escape("kurepa derivative of order 4 is not supported (max 3)")):
            kurepa_derivative(0, 4, p35)
        assert time.perf_counter() - start < 0.05
        for order in (0, True):
            with pytest.raises(ConfigurationError, match=(
                    f"^derivative order must be an integer of at least 1, got {order}$")):
                kurepa_derivative(0, order, p35)

    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_argument_refused(self, flag, p35):
        # True would otherwise read as 1, False as 0
        for call in (lambda: kurepa(flag, p35), lambda: kurepa_derivative(flag, 1, p35)):
            with pytest.raises(ConfigurationError,
                               match=f"^cannot interpret {flag} as a real number$"):
                call()

    @pytest.mark.parametrize("j", range(4))
    def test_the_domain_ends_at_16(self, j, p35):
        # 16 is computed, the next mpf above it is refused before any work
        def call(x):
            return kurepa(x, p35) if j == 0 else kurepa_derivative(x, j, p35)

        assert call(16).error_bound <= mpmath.mpf(10) ** -38 * abs(call(16).value)
        above = mpmath.mpf(16) + mpmath.mpf(2) ** -100
        start = time.perf_counter()
        with pytest.raises(DomainError, match=r"outside \[0, 16\]"):
            call(above)
        assert time.perf_counter() - start < 0.05

    @pytest.mark.parametrize("digits", [15, 35, 50, 63, 95, 160])
    def test_the_whole_domain_meets_its_target(self, digits):
        # a unit at node k grows by E^k, up to cut-off^16 on the last band,
        # and the fraction bits grow with it, so every order returns within
        # 10^-(digits+3) max(1, |value|) from the first band to the last
        p = Precision(digits)
        for x in (0, "0.37", "7.3", "14.9", "15.9", 16):
            for j in range(4):
                r = _result(x, j, p)
                assert r.error_bound <= mpmath.mpf(10) ** -(digits + 3) * max(1, abs(r.value)), \
                    (x, j)


class TestConvergenceInvariants:
    def test_monotone_increasing_on_grid(self):
        p = Precision(20)
        values = [kurepa(mpmath.mpf(i) / 99, p).value for i in range(100)]
        assert all(lo < hi for lo, hi in zip(values, values[1:]))

    def test_determinism(self, p35):
        a = kurepa("0.77", p35)
        b = kurepa("0.77", p35)
        assert a.value._mpf_ == b.value._mpf_
        assert a.error_bound._mpf_ == b.error_bound._mpf_


class TestMissedTarget:
    def test_missed_bound_raises_and_the_proof_stays_inconclusive(self, p35, monkeypatch):
        # the real proof runs first, so that every table it uses is built:
        # the searches for q and the cut-offs read kurepa_floor too, and a
        # zero target would never end them; each table holds its target, so
        # the built tables are then handed out with a zero one
        settings = ProofSettings(precision=p35)
        source = "(1.432205)*x - kurepa(x)"
        assert prove_inequality(source, 0, 1, 1, 0, 1, settings).verdict == "disproven"
        table = quadrature._table
        monkeypatch.setattr(quadrature, "_table", lambda digits, band:
                            table(digits, band)._replace(floor=mpmath.libmp.fzero))
        with pytest.raises(PrecisionUnreachableError, match="exceeds its target"):
            kurepa("0.5", p35)
        report = prove_inequality(source, 0, 1, 1, 0, 1, settings)
        assert report.verdict == "inconclusive"
        assert report.diagnostics["stage"] == "endpoint_limits"


class TestMemos:
    def test_cold_and_warm_calls_give_the_same_bits(self):
        # each call from emptied memos against the same call with every memo
        # warm: a memoized value depends only on its key
        def bits(x, j, p):
            r = _result(x, j, p)
            return r.value._mpf_, r.error_bound._mpf_, r.nodes_used, r.tail_cutoff._mpf_

        cases = [(x, j, Precision(digits)) for digits in (30, 35, 50)
                 for x in (0, 4 ** -12, "0.37", 1, "7.3", 16) for j in range(4)]
        for case in cases:
            bits(*case)
        warm = [bits(*case) for case in cases]
        cold = []
        for case in cases:
            clear_quadrature_memos()
            cold.append(bits(*case))
        assert cold == warm

    def test_cold_and_warm_processes_agree(self):
        # fresh interpreters, so no other test has warmed the memos; 36
        # digits build another table before the one of 35
        script = (
            "import sys\n"
            "from ineqprove import Precision, kurepa, kurepa_derivative\n"
            "if sys.argv[1] == 'warm':\n"
            "    kurepa('0.37', Precision(36))\n"
            "    kurepa('7.36', Precision(35))\n"
            "    kurepa_derivative('0.38', 1, Precision(35))\n"
            "r = kurepa('0.37', Precision(35))\n"
            "print(r.value._mpf_, r.error_bound._mpf_, r.nodes_used)\n"
        )
        src = str(Path(quadrature.__file__).resolve().parents[1])
        out = [
            subprocess.run([sys.executable, "-c", script, mode], check=True,
                           capture_output=True, text=True, timeout=120,
                           env=dict(os.environ, PYTHONPATH=src)).stdout
            for mode in ("cold", "warm")
        ]
        assert out[0] and out[0] == out[1]

    def test_every_memo_is_bounded(self):
        memos = quadrature_memos()
        assert {"_table", "_steps", "_discretization"} <= set(memos)
        for memo in memos.values():
            assert memo.cache_info().maxsize == quadrature._CACHE_LIMIT

    def test_a_sweep_of_arguments_builds_no_table(self, p35):
        # the table depends on the precision and the band alone, and x = 1
        # takes the band below it: after x = 1/2, twenty more x in (0, 1]
        # find it in the memo
        for j in range(3):
            _result("0.5", j, p35)
        built = quadrature._table.cache_info().misses
        for x in [mpmath.mpf(i) / 20 for i in range(1, 21)]:
            for j in range(3):
                r = _result(x, j, p35)
                assert r.error_bound <= mpmath.mpf(10) ** -38 * max(1, abs(r.value))
        assert quadrature._table.cache_info().misses == built

    def test_a_sweep_builds_one_table_per_band(self, p35):
        # seventeen x across [0, 16], integers among them, from emptied
        # memos: each band ceil(x) - 1, floored at 0, is built once, and
        # they touch all sixteen
        clear_quadrature_memos()
        xs = [mpmath.mpf(i) - mpmath.mpf(i % 4) / 4 for i in range(17)]
        for x in xs + xs:
            for j in range(3):
                r = _result(x, j, p35)
                assert r.error_bound <= mpmath.mpf(10) ** -38 * max(1, abs(r.value))
        bands = {max(0, int(mpmath.ceil(x)) - 1) for x in xs}
        assert quadrature._table.cache_info().misses == len(bands) == 16

    def test_the_benchmark_proof_builds_one_table(self):
        # a fresh interpreter, so no other test has built a table: the
        # Kurepa bound on [0, 1] at 35 digits, with the benchmark's coarse
        # grids, and its near miss need the first band's table alone
        script = (
            "from ineqprove import Precision, ProofSettings, prove_inequality, quadrature\n"
            "p = Precision(35)\n"
            f"proof = prove_inequality('({KP0})*x - kurepa(x)', 0, 1, 2, 0, 1,\n"
            "                         ProofSettings(precision=p, grid_multiplier=4))\n"
            "miss = prove_inequality('(1.432205)*x - kurepa(x)', 0, 1, 1, 0, 1,\n"
            "                        ProofSettings(precision=p))\n"
            "print(proof.verdict, miss.verdict, quadrature._table.cache_info().misses)\n"
        )
        src = str(Path(quadrature.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", script], check=True, capture_output=True,
                             text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src)).stdout
        assert out.split() == ["proven", "disproven", "1"]

    def test_a_warm_call_makes_one_exponential(self, p35, monkeypatch):
        # E = e^(x/q); every power of E comes from it on integers, by Horner's
        # rule and binary powering, and the weights, series and bounds from
        # the memos
        calls = 0
        exp = quadrature.mpf_exp

        def counted(*args):
            nonlocal calls
            calls += 1
            return exp(*args)

        for x in ("0", "0.05", "0.37", "1", "7.3"):
            for j in range(4):
                _result(x, j, p35)
                monkeypatch.setattr(quadrature, "mpf_exp", counted)
                calls = 0
                _result(x, j, p35)
                monkeypatch.setattr(quadrature, "mpf_exp", exp)
                assert calls == 1, (x, j, calls)

    def test_a_cold_table_makes_few_exponentials(self, monkeypatch):
        # from emptied memos the P35 table of the first band takes q from 3
        # discretization bounds (3 more give the lower orders' bounds) and its
        # series length from 3 remainders (3 more give the table's own), each
        # guessed and then confirmed, its fraction bits from one exponential,
        # each e^(k/q) from a chain and one exp(-t) per node, and the series
        # coefficients from powers of the chain's e^(-(left+1)/q): 162, a
        # count that may fall but should never rise
        calls = remainders = 0
        exp, remainder = quadrature.mpf_exp, quadrature._remainder

        def counted(*args):
            nonlocal calls
            calls += 1
            return exp(*args)

        def counted_remainder(*args):
            nonlocal remainders
            remainders += 1
            return remainder(*args)

        clear_quadrature_memos()
        monkeypatch.setattr(quadrature, "mpf_exp", counted)
        monkeypatch.setattr(quadrature, "_remainder", counted_remainder)
        quadrature._table(35, 0)
        assert (calls, quadrature._discretization.cache_info().misses, remainders) == (162, 6, 6)

    def test_threads_get_the_solo_bits(self, p35):
        # a call's Horner sums live in the call; the threads share only the
        # memoized tables and bounds, cleared to be rebuilt while they run
        work = [("0.1", 0), ("0.37", 1), ("0.77", 2), ("0.93", 0), ("0.5", 3), ("1", 1)]

        def bits(x, j):
            r = _result(x, j, p35)
            return r.value._mpf_, r.error_bound._mpf_, r.nodes_used

        solo = [bits(x, j) for x, j in work]
        clear_quadrature_memos()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(bits, x, j) for x, j in work * 2]
                assert [future.result(timeout=120) for future in futures] == solo * 2
        finally:
            sys.setswitchinterval(interval)


class TestInflection:
    def test_location_and_products(self, p35):
        c = find_inflection(p35)
        assert abs(c - mpmath.mpf("0.929875685")) < mpmath.mpf("5e-9")
        assert abs(c - mpmath.mpf(C_INFLECT)) < mpmath.mpf("2e-9")
        kp0 = kurepa_derivative(0, 1, p35).value
        assert abs(kp0 * c - mpmath.mpf("1.331773289")) < mpmath.mpf("1e-8")
        assert abs(kp0 * c - mpmath.mpf(KP0_TIMES_C)) < mpmath.mpf("5e-9")

    def test_bracket_straddles(self, p35):
        c = find_inflection(p35)
        assert kurepa_derivative(c - mpmath.mpf("0.1"), 2, p35).value < 0
        assert kurepa_derivative(c + mpmath.mpf("0.05"), 2, p35).value > 0
        assert kurepa_derivative(c - mpmath.mpf("1e-9"), 2, p35).value < 0
        assert kurepa_derivative(c + mpmath.mpf("1e-9"), 2, p35).value > 0

    def test_no_sign_change_reported(self, p35, monkeypatch):
        # a broken K'' sum, here |K''|, has no root on [0, 1]
        real = quadrature.kurepa_derivative

        def unsigned(x, order, p):
            r = real(x, order, p)
            return dataclasses.replace(r, value=abs(r.value))

        monkeypatch.setattr(quadrature, "kurepa_derivative", unsigned)
        with pytest.raises(RootBracketError):
            find_inflection(p35)
