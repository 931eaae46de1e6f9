import functools
import hashlib
import os
import re
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
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
    RootBracketError,
    find_inflection,
    kurepa,
    kurepa_derivative,
)

from helpers import (
    C_INFLECT,
    KP0,
    KP0_TIMES_C,
    KPP0,
    KPPP0,
    K_HALF,
    ambient,
    clear_quadrature_memos,
    exact_panel_reference,
    quadrature_memos,
    reference_exp,
    reference_gauss_kronrod_rule,
    reference_layout,
    reference_node_table,
    requires_recorded_mpmath,
    sequential_kurepa,
)
from ineqprove.precision import context, to_mpf
from reference_oracle import kurepa_ts

# QUADPACK qk15: the G7-K15 pair, nodes and weights for x >= 0, outermost first
QK15_XGK = (
    "0.991455371120812639206854697526329", "0.949107912342758524526189684047851",
    "0.864864423359769072789712788640926", "0.741531185599394439863864773280788",
    "0.586087235467691130294144845693013", "0.405845151377397166906606412076961",
    "0.207784955007898467600689403773245", "0",
)
QK15_WGK = (
    "0.022935322010529224963732008058970", "0.063092092629978553290700663189204",
    "0.104790010322250183839876322541518", "0.140653259715525918745189590510238",
    "0.169004726639267902826583426598550", "0.190350578064785409913256402421014",
    "0.204432940075298892414161999234649", "0.209482141084727828012999174891714",
)
QK15_WG = (
    "0.129484966168869693270611432679082", "0.279705391489276667901467771423780",
    "0.381830050505118944950369775488975", "0.417959183673469387755102040816327",
)

# sha256 of the _mpf_ tuples of gauss_kronrod_rule(n, prec): the rules real runs
# build at P30, P35 and P50 with 15 guard digits, and (50, 169), a P35-precision
# rule with twice the nodes, which no run builds but which pins a larger rule
RULE_HASHES = {
    (22, 153): "7276de72e32c7c8627c3f88357a09f57c1a3b45bb0da4732d8f1ec43084a45f8",
    (25, 169): "636750f2abaa884ae08120ec0ea8799046f945b72d8a07a3a6b1342aced2e086",
    (32, 219): "5bed1825619e3e3f3c0d198653de5b601912999c13f4b44847ffb425c9436fb3",
    (50, 169): "04008d2b720c55d90464d38842781cdc325d7cd27656bf9d2febd897db8f2c61",
}


# sha256 of (value, error_bound, nodes_used) of K^(j)(x), j = 0..3, at each
# x below, at P30, P35 and P50, in that order
KUREPA_HASH = "5d1377844dc0de02648e5675f5044c4b2f7bbb345645b3700cd9b59e049cca55"
KUREPA_HASH_ARGUMENTS = (0, 4 ** -12, "0.37", "0.5", 1, 2)

# the same at x far out in the domain, whose low panels are wide and whose
# high-side factors exceed 1
KUREPA_FAR_HASH = "bbb7b5741fe2ce6508d5b1b2ffb0cea783e6055a358afd41eb83850efdedc755"
KUREPA_FAR_HASH_ARGUMENTS = ("7.3", "15.9", 16)


@requires_recorded_mpmath
@pytest.mark.parametrize("n, prec", sorted(RULE_HASHES))
def test_rule_bits_pinned(n, prec):
    rule = quadrature.gauss_kronrod_rule(n, prec)
    data = repr(tuple(tuple(v._mpf_ for v in part) for part in rule)).encode("ascii")
    assert hashlib.sha256(data).hexdigest() == RULE_HASHES[n, prec]


@requires_recorded_mpmath
def test_kurepa_bits_pinned():
    data = []
    for digits in (30, 35, 50):
        p = Precision(digits)
        for x in KUREPA_HASH_ARGUMENTS:
            for j in range(4):
                r = kurepa(x, p) if j == 0 else kurepa_derivative(x, j, p)
                data.append((r.value._mpf_, r.error_bound._mpf_, r.nodes_used))
    assert hashlib.sha256(repr(data).encode("ascii")).hexdigest() == KUREPA_HASH


@requires_recorded_mpmath
def test_kurepa_far_bits_pinned():
    data = []
    for digits in (30, 35, 50):
        p = Precision(digits)
        for x in KUREPA_FAR_HASH_ARGUMENTS:
            for j in range(4):
                r = kurepa(x, p) if j == 0 else kurepa_derivative(x, j, p)
                data.append((r.value._mpf_, r.error_bound._mpf_, r.nodes_used))
    assert hashlib.sha256(repr(data).encode("ascii")).hexdigest() == KUREPA_FAR_HASH


@pytest.mark.parametrize("n", [1, 2, 3, 6, 7, 9, 15, 22, 25, 32])
def test_rule_bits_match_the_mpf_construction(n):
    # the fixed-point rule against the mpf-object construction it replaced
    for prec in (53, 116, 153, 169, 219):
        got = quadrature.gauss_kronrod_rule(n, prec)
        want = reference_gauss_kronrod_rule(n, prec)
        assert [[v._mpf_ for v in part] for part in got] == \
            [[v._mpf_ for v in part] for part in want], prec
        assert all(type(v) is context(prec).mpf for part in got for v in part)


def test_float_seeds_hold_for_the_largest_rule():
    # P1000 builds n = 507, where the monic p_k fall below 2^-1000; the
    # seeds do not depend on the precision, so 53 bits test them cheaply
    n = 507
    xs, ws, gws = quadrature.gauss_kronrod_rule(n, 53)
    assert len(xs) == len(ws) == 2 * n + 1 and len(gws) == n
    assert all(lo < hi for lo, hi in zip(xs, xs[1:]))
    assert all(x == -y for x, y in zip(xs, reversed(xs)))
    assert min(ws) > 0 and min(gws) > 0
    ctx = context(120)
    for degree in (0, 2, 10, 3 * n + 1):
        exact = ctx.mpf(2) / (degree + 1)
        kronrod = ctx.fsum(ctx.convert(w) * ctx.convert(x) ** degree for x, w in zip(xs, ws))
        assert abs(kronrod - exact) < 1e-15
        if degree < 2 * n:
            gauss = ctx.fsum(ctx.convert(w) * ctx.convert(x) ** degree
                             for x, w in zip(xs[1::2], gws))
            assert abs(gauss - exact) < 1e-15


def _moment_error(xs, ws, degree):
    # |rule - integral of x^degree over [-1, 1]|
    exact = mp.mpf(2) / (degree + 1) if degree % 2 == 0 else 0
    return abs(sum(w * x ** degree for x, w in zip(xs, ws)) - exact)


class TestGaussLegendre:
    # the Gauss half of the rule: nodes xs[1::2] with the Gauss weights
    def test_exactness_on_polynomials(self, p50):
        # n-node rule integrates degree 2n-1 exactly
        with ambient(p50):
            xs, _, ws = quadrature.gauss_kronrod_rule(6, mp.prec)
            for degree in range(12):
                assert _moment_error(xs[1::2], ws, degree) < mp.mpf(10) ** -55

    def test_symmetry(self, p50):
        with ambient(p50):
            xs, _, ws = quadrature.gauss_kronrod_rule(9, mp.prec)
            xs = xs[1::2]
            assert len(xs) == len(ws) == 9
            assert xs[4] == 0
            for i in range(4):
                assert xs[i] == -xs[-1 - i]
                assert ws[i] == ws[-1 - i]
            assert abs(sum(ws) - 2) < mp.mpf(10) ** -55


class TestGaussKronrod:
    @pytest.mark.parametrize("n", [6, 7])
    def test_exactness_on_polynomials(self, n, p50):
        # the 2n+1 rule integrates degree 3n+1 exactly
        with ambient(p50):
            xs, ws, _ = quadrature.gauss_kronrod_rule(n, mp.prec)
            for degree in range(3 * n + 2):
                assert _moment_error(xs, ws, degree) < mp.mpf(10) ** -55

    @pytest.mark.parametrize("n", [6, 7, 25])
    def test_symmetry_and_nesting(self, n, p50):
        with ambient(p50):
            xs, ws, gws = quadrature.gauss_kronrod_rule(n, mp.prec)
            assert len(xs) == len(ws) == 2 * n + 1
            assert xs[n] == 0
            for i in range(n):
                assert xs[i] == -xs[-1 - i]
                assert ws[i] == ws[-1 - i]
            assert all(lo < hi for lo, hi in zip(xs, xs[1:]))
            # the Gauss weights make xs[1::2] the n-node Gauss rule
            assert len(gws) == n
            for degree in range(2 * n):
                assert _moment_error(xs[1::2], gws, degree) < mp.mpf(10) ** -55

    def test_matches_quadpack_qk15(self, p50):
        with ambient(p50):
            xs, ws, gws = quadrature.gauss_kronrod_rule(7, mp.prec)
            tol = mp.mpf(10) ** -18
            for x, w, x_ref, w_ref in zip(reversed(xs), reversed(ws), QK15_XGK, QK15_WGK):
                assert abs(x - mp.mpf(x_ref)) < tol
                assert abs(w - mp.mpf(w_ref)) < tol
            for w, w_ref in zip(reversed(gws), QK15_WG):
                assert abs(w - mp.mpf(w_ref)) < tol
            assert abs(xs[-1] - mp.mpf("0.991455371120812639")) < tol
            assert abs(ws[-1] - mp.mpf("0.022935322010529225")) < tol


class TestKurepaValues:
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
            assert r.error_bound <= mpmath.mpf(10) ** (-(35 - 10))
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

    @pytest.mark.parametrize("digits", [30, 35, 50])
    def test_independent_oracle_at_the_end_of_the_domain(self, digits):
        # K(16) is near 1.4e12: the oracle carries 45 digits more than p, so
        # that its own rounding stays far below each error bound
        p = Precision(digits)
        for j in range(4):
            r = kurepa(16, p) if j == 0 else kurepa_derivative(16, j, p)
            with mp.workdps(digits + 45):
                ref = kurepa_ts(mpmath.mpf(16), j)
            assert abs(r.value - ref) <= r.error_bound, j

    @pytest.mark.parametrize("x", ["0.3", "0.4", "0.5"])
    def test_independent_oracle_at_p35(self, x, p35):
        # the bounds the Kurepa proof relies on, about 1e-38, against the
        # oracle at the same bits of x
        for j in range(4):
            r = kurepa(x, p35) if j == 0 else kurepa_derivative(x, j, p35)
            with mp.workdps(50):
                ref = kurepa_ts(mpmath.mpf(to_mpf(x, p35)), j)
            assert abs(r.value - ref) <= 2 * r.error_bound

    @pytest.mark.parametrize("x", ["0.77", "2.5"])
    def test_tails_bounded_where_the_panels_stop(self, x, p35):
        # both tail bounds are taken at the last panel edges, up to twice as
        # far out as the cut-offs that choose them
        r = kurepa(x, p35)
        assert r.error_bound <= mpmath.mpf("1e-35")
        with mp.workdps(50):
            ref = kurepa_ts(mpmath.mpf(to_mpf(x, p35)))
        assert abs(r.value - ref) <= r.error_bound

    def test_tiny_argument_matches_taylor(self, p35):
        # x L is tiny at every node, where exp(x L) - 1 cancels
        r = kurepa("1e-20", p35)
        h = mpmath.mpf("1e-20")
        taylor = h * mpmath.mpf(KP0) + h ** 2 * mpmath.mpf(KPP0) / 2
        # the dropped h^3 term and the 40-digit KP0 are each about 1e-60
        assert abs(r.value - taylor) <= r.error_bound + mpmath.mpf("1e-58")

    @pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
    def test_non_finite_argument_refused(self, x, p35):
        with pytest.raises(ConfigurationError, match="finite"):
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

    @pytest.mark.parametrize("order", [0, 1])
    def test_evaluation_budget_is_exact(self, order, p35, monkeypatch):
        # MAX_EVALUATIONS counts every node: a budget of nodes_used suffices,
        # one fewer stops the run
        def run():
            return kurepa("0.5", p35) if order == 0 else kurepa_derivative("0.5", order, p35)
        want = run()
        monkeypatch.setattr(quadrature, "MAX_EVALUATIONS", want.nodes_used)
        got = run()
        assert (got.value._mpf_, got.error_bound._mpf_) == \
            (want.value._mpf_, want.error_bound._mpf_)
        monkeypatch.setattr(quadrature, "MAX_EVALUATIONS", want.nodes_used - 1)
        with pytest.raises(PrecisionUnreachableError,
                           match=f"budget of {want.nodes_used - 1} evaluations exhausted"):
            run()

    def test_domain_and_order_validation(self, p35):
        with pytest.raises(DomainError, match=r"outside \[0, 16\]"):
            kurepa(-1, p35)
        # an order above 3 is refused before any work
        start = time.perf_counter()
        with pytest.raises(DomainError,
                           match=re.escape("kurepa derivative of order 4 is not supported (max 3)")):
            kurepa_derivative(0, 4, p35)
        assert time.perf_counter() - start < 0.05
        with pytest.raises(ConfigurationError):
            kurepa_derivative(0, 0, p35)

    @pytest.mark.parametrize("j", range(4))
    def test_the_domain_ends_at_16(self, j, p35):
        # 16 is computed, the next mpf above it is refused before any work
        def call(x):
            return kurepa(x, p35) if j == 0 else kurepa_derivative(x, j, p35)

        assert call(16).error_bound <= mpmath.mpf(10) ** -25
        above = mpmath.mpf(16) + mpmath.mpf(2) ** -100
        start = time.perf_counter()
        with pytest.raises(DomainError, match=r"outside \[0, 16\]"):
            call(above)
        assert time.perf_counter() - start < 0.05


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


class TestNodeTables:
    def test_cold_and_warm_tables_agree(self):
        # fresh interpreters, so no other test has warmed the tables; 36
        # digits keep the node count of 35 at another working precision
        script = (
            "import sys\n"
            "from ineqprove import Precision, kurepa, kurepa_derivative\n"
            "if sys.argv[1] == 'warm':\n"
            "    kurepa('0.37', Precision(36))\n"
            "    kurepa('0.36', Precision(35))\n"
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

    def test_tables_of_a_sweep_match_the_mpf_construction(self, monkeypatch):
        # every panel the integrals reach for six x and j = 0..3 at five
        # precisions, and the panels below the base level that end at s = 0,
        # against the tables built on mpf objects, bit for bit: the integer
        # chain meets w - 1 < 0 on the low side, s next to 0, and the extra
        # bits of the levels below the base
        panels = set()
        build = quadrature._kronrod_panel

        def recorded(mid, level, n, x, j, factors):
            panels.add((mid, level, n, x.context.prec))
            return build(mid, level, n, x, j, factors)

        monkeypatch.setattr(quadrature, "_kronrod_panel", recorded)
        for digits in (15, 30, 35, 50, 100):
            p = Precision(digits)
            for x in (0, 4 ** -12, "0.37", 1, "7.3", 16):
                for j in range(4):
                    kurepa(x, p) if j == 0 else kurepa_derivative(x, j, p)
        assert len(panels) >= 135
        for n, prec in {(n, prec) for _, _, n, prec in panels}:
            for level in range(quadrature._BASE_LEVEL - 6, quadrature._BASE_LEVEL):
                # mid = +-2^level, whose panel ends at s = 0
                panels |= {((sign, 1, level, 1), level, n, prec) for sign in (0, 1)}
        for key in sorted(panels, key=repr):
            assert quadrature._node_table(*key) == reference_node_table(*key), key

    def test_memo_stays_within_its_limit(self, monkeypatch):
        # each number of digits has its own working precision; three of the
        # memos are rebuilt small enough to evict along the way
        for memo in quadrature_memos().values():
            assert memo.cache_info().maxsize == quadrature._CACHE_LIMIT
        # each memo's limit, and the position of prec among its arguments
        limits = {"gauss_kronrod_rule": (2, 1), "_node_table": (64, 3),
                  "_panel_weights": (64, 3)}
        precisions = set()
        memos = {}
        for name, (limit, at) in limits.items():
            build = getattr(quadrature, name).__wrapped__

            def recorded(*args, build=build, at=at):
                precisions.add(args[at])
                return build(*args)

            memos[name] = functools.lru_cache(maxsize=limit)(recorded)
            monkeypatch.setattr(quadrature, name, memos[name])
        for digits in (20, 21, 25, 30, 31, 36):
            r = kurepa("0.5", Precision(digits))
            assert r.error_bound <= mpmath.mpf(10) ** -(digits - 10)
            for name, (limit, _) in limits.items():
                assert memos[name].cache_info().currsize <= limit
        assert len(precisions) >= 4
        assert memos["_panel_weights"].cache_info().misses > 64

    def test_a_sweep_of_the_domain_builds_one_rule(self, p35, monkeypatch):
        # every x takes the one working precision of p: a cold sweep over
        # [0, 16] builds a single Kronrod rule
        for name in ("gauss_kronrod_rule", "_node_table", "_panel_weights"):
            build = getattr(quadrature, name).__wrapped__
            monkeypatch.setattr(quadrature, name, functools.lru_cache(maxsize=None)(build))
        for i in range(17):
            r = kurepa(mpmath.mpf(i) + mpmath.mpf(i % 4) / 4, p35)
            assert r.error_bound <= mpmath.mpf(10) ** -25
        assert quadrature.gauss_kronrod_rule.cache_info().misses == 1


class TestExactPanelSums:
    # panels of the s = -log t layout at the guard precision of P35 (169 bits,
    # n = 25), as (mid, level): the window, centred on its s = 0 node, the
    # first panel of each side, the last low panel for x near 0, the widest
    # high panel, and a half of the window, a level below the base
    PANELS = {
        "window": ("0", -3),
        "low": ("0.25", -3),
        "high": ("-0.25", -3),
        "last low": ("95.875", 5),
        "wide high": ("-3.375", -1),
        "bisected": ("-0.0625", -4),
    }

    @pytest.mark.parametrize("region", sorted(PANELS))
    def test_tables_match_the_mpf_construction(self, region):
        mid, level = self.PANELS[region]
        mid = context(169).mpf(mid)._mpf_
        assert quadrature._node_table(mid, level, 25, 169) == \
            reference_node_table(mid, level, 25, 169)

    @pytest.mark.parametrize("region", sorted(PANELS))
    @pytest.mark.parametrize("j", range(4))
    def test_folded_weights_are_exact(self, region, j):
        # each folded weight times 2^low is the weight times L^j at its
        # node, as Fractions, and the s = 0 node's weight is kept apart
        mid, level = self.PANELS[region]
        mid = context(169).mpf(mid)._mpf_
        low, kronrod, gauss = quadrature._panel_weights(mid, level, 25, 169, j)
        table = reference_node_table(mid, level, 25, 169)
        for (weights, total, centre), column, rows in ((kronrod, 1, table),
                                                       (gauss, 3, table[1::2])):
            want, want_centre = [], (0, 0)
            for row in rows:
                m, e = row[column:column + 2]
                if row[0] is None:
                    want.append(0)
                    want_centre = (m, e)
                else:
                    power = Fraction(*mpmath.libmp.to_rational(row[0])) ** j
                    want.append(m * Fraction(2) ** e * power)
            assert [w * Fraction(2) ** low for w in weights] == want
            assert total == sum(weights)
            assert centre == want_centre
        assert (kronrod[2] != (0, 0)) == (region == "window")

    @pytest.mark.parametrize("region", sorted(PANELS))
    @pytest.mark.parametrize("j", range(4))
    @pytest.mark.parametrize("x", [4 ** -12, "0.37", "2.5"])
    def test_estimates_are_exact_sums_rounded_once(self, region, j, x):
        # the package's factors against exp(-x s) evaluated at each node
        ctx = context(169)
        mid, level = self.PANELS[region]
        mid, x = ctx.mpf(mid)._mpf_, ctx.mpf(x)
        table = quadrature._node_table(mid, level, 25, ctx.prec)
        assert (None in [node[0] for node in table]) == (region == "window")
        got = quadrature._kronrod_panel(mid, level, 25, x, j,
                                        quadrature._ExpFactors(x, 25, ctx.prec))
        want = exact_panel_reference(mid, level, 25, x, j)
        assert [v._mpf_ for v in got] == [v._mpf_ for v in want]


class TestExpFactors:
    @pytest.mark.parametrize("x", [0, 4 ** -12, "0.37", 1, "2.5", 16])
    def test_every_level_stays_within_its_bound(self, x, p35, monkeypatch):
        # each factor of every level the four integrals reach, and of two
        # levels below the base, against expm1 evaluated directly at twice
        # frac bits: within 2^(k+2) max(1, 1 + B) units of 2^-frac, k the
        # level's squarings above the base
        made = []

        class Recorded(quadrature._ExpFactors):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(quadrature, "_ExpFactors", Recorded)
        for j in range(4):
            kurepa(x, p35) if j == 0 else kurepa_derivative(x, j, p35)
        assert len(made) == 4
        for factors in made:
            factors(quadrature._BASE_LEVEL - 1)
            factors(quadrature._BASE_LEVEL - 2)
        lm = mpmath.libmp
        levels = set()
        for factors in made:
            frac = factors.frac
            for level, table in factors.levels.items():
                levels.add(level)
                bound = 2 ** (max(0, level - quadrature._BASE_LEVEL) + 2)
                for z, b in zip(factors.nodes, table):
                    y = lm.mpf_shift(lm.mpf_mul(factors.neg_x, z._mpf_), level)
                    e = Fraction(*lm.to_rational(reference_exp(y, frac)))
                    assert abs(b - (e - 1) * 2 ** frac) <= bound * max(1, e), (level, z)
        assert set(range(quadrature._BASE_LEVEL - 2, 4)) <= levels

    @pytest.mark.parametrize("x", [0, 4 ** -12, "0.37", 1, "2.5", 16])
    def test_every_chain_stays_within_its_bound(self, x, p35, monkeypatch):
        # exp(-x mid) along both sides' panels, from the chains, against
        # mpf_exp at twice frac bits: within 2^-frac, relative
        made = []

        class Recorded(quadrature._ExpFactors):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(quadrature, "_ExpFactors", Recorded)
        kurepa(x, p35)
        lm = mpmath.libmp
        (factors,) = made
        assert len(factors.scales) >= 15
        for mid, (m, e) in factors.scales.items():
            assert m.bit_length() <= factors.frac + 2
            y = lm.mpf_mul(factors.neg_x, mid)
            want = Fraction(*lm.to_rational(reference_exp(y, factors.frac)))
            assert abs(m * Fraction(2) ** e - want) <= want / 2 ** factors.frac, mid

    def test_a_warm_call_makes_one_exponential_per_panel(self, p35, monkeypatch):
        # with the node tables warm, a call's exponentials are its base
        # level's, one per node of its negative half (25), the window's, and
        # five for exp(-x mid) along the panels: two for the low side's chain
        # and three for the high side's.  It made one per node (765-816)
        # when each node took exp(x L) on its own, and 66-68 with one per
        # node at the base level and one per panel
        calls = 0
        exp = quadrature.mpf_exp

        def counted(*args):
            nonlocal calls
            calls += 1
            return exp(*args)

        for x in ("0", "0.05", "0.37", "0.5", "0.85", "1"):
            for j in range(3):
                def call():
                    return kurepa(x, p35) if j == 0 else kurepa_derivative(x, j, p35)

                call()
                monkeypatch.setattr(quadrature, "mpf_exp", counted)
                calls = 0
                call()
                monkeypatch.setattr(quadrature, "mpf_exp", exp)
                assert calls == 31, (x, j, calls)

    def test_a_sweep_of_arguments_builds_no_table(self, p35):
        # no node table depends on x: after x = 1/2, twenty more x in (0, 1]
        # find every table of every panel they take in the memo
        for j in range(3):
            kurepa("0.5", p35) if j == 0 else kurepa_derivative("0.5", j, p35)
        built = quadrature._node_table.cache_info().misses
        for i in range(1, 21):
            x = mpmath.mpf(i) / 20
            for j in range(3):
                kurepa(x, p35) if j == 0 else kurepa_derivative(x, j, p35)
        assert quadrature._node_table.cache_info().misses == built

    def test_threads_get_the_solo_bits(self, p35):
        # each call keeps its factor tables to itself; the threads share
        # only the memoized rules and node tables, cleared to be rebuilt
        # while they run
        work = [("0.1", 0), ("0.37", 1), ("0.77", 2), ("0.93", 0), ("0.5", 3), ("1", 1)]

        def bits(x, j):
            r = kurepa(x, p35) if j == 0 else kurepa_derivative(x, j, p35)
            return r.value._mpf_, r.error_bound._mpf_, r.nodes_used

        solo = [bits(x, j) for x, j in work]
        quadrature._node_table.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(bits, x, j) for x, j in work * 2]
                assert [future.result(timeout=120) for future in futures] == solo * 2
        finally:
            sys.setswitchinterval(interval)


class TestMemos:
    # every memo of the quadrature: the rule, the level factors of the node
    # tables, the node tables, the folded weights and the plan's four
    MEMOS = {"gauss_kronrod_rule", "_level_exps", "_node_table", "_panel_weights",
             "_low_side", "_cutoff_logs", "_high_cutoff", "_high_side"}

    def test_cold_and_warm_calls_give_the_same_bits(self):
        # each call from emptied memos against the same call with every memo
        # warm: a memoized value depends only on its key
        assert set(quadrature_memos()) == self.MEMOS

        def bits(x, j, p):
            r = kurepa(x, p) if j == 0 else kurepa_derivative(x, j, p)
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

    def test_cold_calls_take_pinned_exponentials_and_logs(self, p35, monkeypatch):
        # the near miss's three calls from emptied memos.  The rule, tables
        # and plan they build and the calls' own factors take 950
        # exponentials; there were 976 with one per node of the base level's
        # table, not per node of its negative half.  The plan takes 6 logs:
        # 3 for its targets and the step of ln T, 1 for the first T of each
        # of the two starts, and 1 for the order-1 call's s_max test, which
        # passes at once; there were 15 with one per step of T
        clear_quadrature_memos()
        counts = {"mpf_exp": 0, "ln": 0}

        def counted(f, name):
            def call(*args):
                counts[name] += 1
                return f(*args)
            return call

        ctx = quadrature._working_context(p35)
        monkeypatch.setattr(quadrature, "mpf_exp", counted(quadrature.mpf_exp, "mpf_exp"))
        monkeypatch.setattr(ctx, "ln", counted(ctx.ln, "ln"))
        kurepa(0, p35)
        kurepa_derivative(0, 1, p35)
        kurepa(1, p35)
        assert counts == {"mpf_exp": 950, "ln": 6}

    @pytest.mark.parametrize("digits", [30, 35, 50])
    def test_plan_matches_the_cut_off_loops(self, digits, monkeypatch):
        # the memoized plan against the loops that evaluated the tail bounds
        # at every step: the same panels either side, the same T
        p = Precision(digits)
        taken = []

        def adaptive(panels, x, j, tol_abs, n, state, factors):
            taken.append(tuple(panels))
            return x.context.zero, x.context.zero

        monkeypatch.setattr(quadrature, "_adaptive", adaptive)
        xs = [mpmath.mpf(i) / 8 for i in range(129)] + [4 ** -12, "1e-20", "0.37", "0.999999",
                                                        "7.3", "15.9"]
        for x in xs:
            for j in range(4):
                taken.clear()
                r = kurepa(x, p) if j == 0 else kurepa_derivative(x, j, p)
                low, high, T = reference_layout(x, j, p)
                assert (taken[0], taken[2]) == (tuple(low), tuple(high)), (x, j)
                assert r.tail_cutoff._mpf_ == T._mpf_, (x, j)

    @pytest.mark.parametrize("n, prec", [(22, 153), (25, 169), (32, 219)])
    def test_level_exps_stay_within_their_bound(self, n, prec):
        # exp(-2^level z) at each node against mpf_exp at twice the bits:
        # within 2^(k+2) units in the last of the entry's bits, k the
        # level's squarings above the base
        lm = mpmath.libmp
        nodes = quadrature.gauss_kronrod_rule(n, prec)[0]
        for level in range(quadrature._BASE_LEVEL - 2, 7):
            bits = quadrature._table_bits(level, prec)
            k = max(0, level - quadrature._BASE_LEVEL)
            table = quadrature._level_exps(level, n, prec)
            assert len(table) == len(nodes)
            for z, (m, e) in zip(nodes, table):
                assert m.bit_length() <= bits
                y = lm.mpf_neg(lm.mpf_shift(z._mpf_, level))
                want = Fraction(*lm.to_rational(reference_exp(y, bits)))
                unit = Fraction(2) ** (e + m.bit_length() - bits)
                assert abs(m * Fraction(2) ** e - want) <= 2 ** (k + 2) * unit, (level, z)


class TestSequentialRoundingReference:
    # exact sums round once where the sequential oracle rounds each product
    # and partial sum; the two agree to a few ulps and take the same panels
    @pytest.mark.parametrize("x", ["0", 4 ** -12, "0.25", "0.5", "0.999999", "1", "2.5",
                                   "7.3", "16"])
    def test_close_to_sequential_rounding(self, x, p35):
        for j in range(4):
            r = kurepa(x, p35) if j == 0 else kurepa_derivative(x, j, p35)
            ref = sequential_kurepa(x, j, p35)
            prec = ref.value.context.prec
            assert r.value.context.prec == prec
            ulp = mpmath.mpf(2) ** (mpmath.mag(ref.value) - prec)
            assert abs(r.value - ref.value) <= 16 * ulp, (x, j)
            assert r.nodes_used == ref.nodes_used
            assert r.tail_cutoff == ref.tail_cutoff


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

    def test_no_sign_change_reported(self, p35):
        with pytest.raises(RootBracketError):
            find_inflection(p35, bracket=(0, "0.5"))
