"""Work counters as gates: what each named problem costs, counted rather than timed.

A count of work carries no host noise.  Each bound below is the count
recorded when it was set.  A change that lowers a count tightens its bound
and quotes the old and new counts; a bound is loosened only on purpose,
as a logged test change.  The counts come from the report's ``timings`` or
from counting wrappers put on module names here, so ``src/`` has no hook
for them.  Every memo that a count depends on is emptied first, so the
counts do not depend on the order the tests run in.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath.ctx_mp_python
import numpy as np
import pytest
from mpmath.libmp import from_rational, libelefun, libmpf, mpf_pos, round_nearest

from ineqprove import (
    CertificationError,
    Polynomial,
    Precision,
    ProofSettings,
    certify,
    certify_positive,
    differentiate,
    expr,
    kurepa,
    parse,
    precision,
    prove_inequality,
    quadrature,
    quotient,
    remez,
    to_mpf,
)
from ineqprove.precision import context

from helpers import ARCSIN_DIFF_SOURCE, TRIG_ARCSIN_SOURCE, clear_quadrature_memos
from test_acceptance import _poly_oracle_min

# name: (f, a, b, n, m, degree, digits)
PROBLEMS = {
    "kurepa_demo": ("kurepa_deriv(1, 0)*x - kurepa(x)", 0, 1, 2, 0, 1, 35),
    "kurepa_near_miss": ("(1.432205)*x - kurepa(x)", 0, 1, 1, 0, 1, 35),
    "exp": ("exp(x)-1-x", 0, 1, 2, 0, 1, 50),
    "trig_arcsin_k1": (TRIG_ARCSIN_SOURCE, 0, "pi/2", 3, 1, 1, 50),
    "trig_arcsin_k3": (TRIG_ARCSIN_SOURCE, 0, "pi/2", 3, 1, 3, 50),
    "arcsin_real_k8": (ARCSIN_DIFF_SOURCE, 0, 1, 3, "1/2", 8, 50),
    "arcsin_real_k1": (ARCSIN_DIFF_SOURCE, 0, 1, 3, "1/2", 1, 50),
    "golden_dip": ("(x-1/2)^2-1/100", 0, 1, 0, 0, 1, 35),
    "positivity_fails": ("x^2+1/100", 0, 1, 0, 0, 1, 35),
}

# the report's work counts
TIMINGS = ("g_evaluations", "remez_iterations", "residual_samples", "certificate_subintervals")

# per proof, from emptied memos, the report's work counts, then the calls of
# quadrature.kurepa and quadrature.kurepa_derivative and the Kurepa tables
# built: (g, Remez iterations, residual samples, leaves, K calls, K^(j) calls, tables)
PROOF_COSTS = {
    "kurepa_demo": (394, 2, 388, 1, 394, 4, 1),
    "kurepa_near_miss": (0, 0, 0, 0, 3, 1, 1),
    "exp": (394, 2, 388, 1, 0, 0, 0),
    "trig_arcsin_k1": (394, 2, 388, 1, 0, 0, 0),
    "trig_arcsin_k3": (703, 3, 646, 1, 0, 0, 0),
    "arcsin_real_k8": (1558, 5, 1291, 10, 0, 0, 0),
    # rejections: the certificate fails before the residual grid is sampled
    # (395 and 389 calls when it came after), and the dip ends at its first
    # confirmed negative sample of the Remez grid (389 calls when it waited
    # for the certificate)
    "arcsin_real_k1": (203, 2, 0, 0, 0, 0, 0),
    "golden_dip": (85, 0, 0, 0, 0, 0, 0),
    "positivity_fails": (197, 1, 0, 0, 0, 0, 0),
}

# mpf_exp calls of one P35 Kurepa call at x = 0.37: from emptied memos, with
# its table, and warm
KUREPA_EXPONENTIALS = {"cold": 150, "warm": 1}

# kernel calls of one evaluation of a compiled f at P50, where each distinct
# subexpression is computed once: sin(x/2) and cos(x/2) by one
# cos_sin_basecase, sqrt(1+x) and sqrt(1-x) by one sqrtrem each (the
# round-to-nearest square root; arcsin's own takes isqrt), and the order-7
# derivative of exp(sin(x))*arctan(x) - x - x^2 with one exp and one sin and
# cos of x.  Before value numbering: 2; 4; 12,294 and 4,140 (at x = 0.125).
# name: (source, derivative order, {kernel: calls})
EVALUATION_COSTS = {
    "trig_arcsin": (TRIG_ARCSIN_SOURCE, 0, {"cos_sin_basecase": 1}),
    "arcsin_bound": (ARCSIN_DIFF_SOURCE, 0, {"sqrtrem": 2}),
    "derivative_7": ("exp(sin(x))*arctan(x) - x - x^2", 7,
                     {"cos_sin_basecase": 1, "exp_basecase": 1}),
}
KERNELS = {"cos_sin_basecase": libelefun, "exp_basecase": libelefun, "sqrtrem": libmpf}

# over the 100 polynomials of the acceptance test's certifier fuzz: how many
# are certified, which is no cost and is pinned, then their leaves in all and
# the deepest bisection level of any
FUZZ_COSTS = (67, 114, 7)

# inside those 100 calls: the basis tables read, one per distinct degree,
# and the parses of the margin text "1.000001" (100 and 100 when each call
# built its own change of basis and parsed its own margin); then the values
# that are not text converted by to_mpf, the two segment ends of each call
# (628 when every coefficient was converted too)
FUZZ_PARSES = (7, 1, 200)


def _counter(monkeypatch, owner, name, when=lambda *args: True):
    """Wrap owner.name for the test; the returned list counts its calls whose args pass ``when``."""
    calls, original = [0], getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += bool(when(*args))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _cold():
    # empty the memos a count depends on: compiled trees fold their constant
    # subtrees (a kurepa_deriv(1, 0), say) once, and tables are built once
    expr._compile.cache_clear()
    clear_quadrature_memos()


def _prove(name):
    source, a, b, n, m, k, digits = PROBLEMS[name]
    return prove_inequality(source, a, b, n, m, k, ProofSettings(precision=Precision(digits)))


@pytest.mark.parametrize("name", PROBLEMS)
def test_proof_costs(name, monkeypatch):
    _cold()
    kurepa_calls = _counter(monkeypatch, quadrature, "kurepa")
    derivative_calls = _counter(monkeypatch, quadrature, "kurepa_derivative")
    report = _prove(name)
    counts = (*(report.timings[key] for key in TIMINGS), kurepa_calls[0], derivative_calls[0],
              quadrature._table.cache_info().misses)
    assert all(count <= bound for count, bound in zip(counts, PROOF_COSTS[name])), counts


@pytest.mark.parametrize("state", KUREPA_EXPONENTIALS)
def test_kurepa_call_exponentials(state, monkeypatch):
    p = Precision(35)
    _cold()
    if state == "warm":
        kurepa("0.37", p)
    calls = _counter(monkeypatch, quadrature, "mpf_exp")
    kurepa("0.37", p)
    assert calls[0] <= KUREPA_EXPONENTIALS[state]


def test_certifier_fuzz_costs(monkeypatch):
    # the acceptance fuzz's draws, in its order; the basis table and the
    # margin text are counted inside certify_positive alone, as
    # Polynomial.from_monomial reads the table too
    rng, p30 = np.random.default_rng(20260809), Precision(30)
    certify._bernstein_matrix.cache_clear()
    precision._text.cache_clear()
    inside = [False]
    bases = _counter(monkeypatch, remez, "_shifted_chebyshev", lambda *args: inside[0])
    margins = _counter(monkeypatch, mpmath.ctx_mp_python, "from_str",
                       lambda text, *args: inside[0] and text == "1.000001")
    conversions = _counter(monkeypatch, certify, "to_mpf",
                           lambda value, *args: inside[0] and not isinstance(value, str))
    certified = leaves = depth = 0
    for trial in range(100):
        degree = int(rng.integers(0, 7))
        mono = rng.uniform(-1.0, 1.0, degree + 1)
        delta = float(rng.uniform(0.0, 0.3))
        raw_min = _poly_oracle_min(mono, 0.0, 1.0)
        low, high = ((0.05, 0.6), (-0.5, -0.01), (1e-4, 1e-2))[trial % 3]
        mono[0] += delta + float(rng.uniform(low, high)) - raw_min
        P = Polynomial.from_monomial([repr(float(c)) for c in mono], 0, 1)
        inside[0] = True
        try:
            cert = certify_positive(P, repr(delta), "1.000001", p30)
        except CertificationError:
            continue
        finally:
            inside[0] = False
        narrowest = min(hi - lo for lo, hi, _ in cert.subintervals)
        certified, leaves = certified + 1, leaves + len(cert.subintervals)
        depth = max(depth, round(math.log2(1 / narrowest)))
    assert certified == FUZZ_COSTS[0] and leaves <= FUZZ_COSTS[1] and depth <= FUZZ_COSTS[2], \
        (certified, leaves, depth)
    counts = (bases[0], margins[0], conversions[0])
    assert all(count <= bound for count, bound in zip(counts, FUZZ_PARSES)), counts


def test_integer_orders_take_no_real_power(monkeypatch):
    # the quotient of an integer-order proof raises each difference by
    # mpf_pow_int or not at all, never by the real power, and computes no
    # mpf hash: its cache keys are libmp tuples
    powers = _counter(monkeypatch, expr, "mpf_pow")
    hashes = _counter(monkeypatch, mpmath.ctx_mp_python, "mpf_hash")
    assert _prove("exp").verdict == "proven"
    assert (powers[0], hashes[0]) == (0, 0)


def test_an_integer_exponent_takes_mpf_pow_int_alone(monkeypatch):
    # the square of the elementary_mix dip goes straight to mpf_pow_int, with
    # no sign test and no real power (before: one mpf_gt and one mpf_pow)
    p30 = Precision(30)
    f = expr.compiled(parse("(x-31/100)^2-1/100"), p30)
    calls = [_counter(monkeypatch, expr, name) for name in ("mpf_pow", "mpf_gt")]
    f(to_mpf("0.37", p30)._mpf_)
    assert [count[0] for count in calls] == [0, 0]


def test_an_interior_sample_takes_no_difference_of_its_own(monkeypatch):
    # x - a and b - x are steps of g's program; evaluate takes them itself
    # only off [a + 2^top, b - 2^top], at the ends and in the blend zones,
    # where a sample takes one more, for g0 - lim, beside its one mpf_add.
    # Building g adds one of each for those bounds.  The exp proof has 4 such
    # samples, its two ends and two of Brent's probes (before: 2 * fresh + 4 +
    # 2 differences, two per fresh sample and two at each zone's boundary)
    subs = _counter(monkeypatch, quotient, "mpf_sub")
    blends = _counter(monkeypatch, quotient, "mpf_add")
    _prove("exp")
    assert (subs[0], blends[0]) == (1 + 2 * 4 + 2, 1 + 2)


def test_the_numeric_route_samples_an_end_once_the_other_has_its_limit(monkeypatch):
    # the elementary_mix arcsin_raw proof (orders 1, 1 where f has 3 and 1/2)
    # fails at end a, so its cross-check never samples end b: 10 quotient
    # samples (before: 20, both ends sampled first)
    samples, build = [0], quotient._compiled_quotient

    def counting(*args):
        run = build(*args)

        def counted(x):
            samples[0] += 1
            return run(x)

        return counted

    monkeypatch.setattr(quotient, "_compiled_quotient", counting)
    report = prove_inequality(ARCSIN_DIFF_SOURCE, 0, 1, 1, 1, 1,
                              ProofSettings(precision=Precision(50)))
    assert report.diagnostics["stage"] == "endpoint_limits"
    assert "endpoint a" in report.diagnostics["limit_cross_check"]["failed"]
    assert samples[0] <= 10


@pytest.mark.parametrize("name", EVALUATION_COSTS)
def test_evaluation_computes_each_value_once(name, monkeypatch):
    source, order, bounds = EVALUATION_COSTS[name]
    p50 = Precision(50)
    e = parse(source)
    f = expr.compiled(differentiate(e, order) if order else e, p50)
    calls = {kernel: _counter(monkeypatch, KERNELS[kernel], kernel) for kernel in bounds}
    for x in ("0.125", "0.37", "0.75"):
        for count in calls.values():
            count[0] = 0
        f(to_mpf(x, p50)._mpf_)
        assert all(calls[kernel][0] <= bound for kernel, bound in bounds.items()), (x, calls)


def test_a_repeated_batch_of_proofs_computes_no_cosine(monkeypatch):
    # the Chebyshev grid memo holds the tables of this batch (P50 at k = 1
    # and 8, P30 at k = 1..4), so its second pass builds no table and
    # computes no cosine; a 16-table memo computed 53 tables on each pass
    batch = [("exp", 50, 1), ("arcsin_real_k8", 50, 8)] + [("exp", 30, k) for k in range(1, 5)]

    def run():
        for name, digits, k in batch:
            source, a, b, n, m, _, _ = PROBLEMS[name]
            prove_inequality(source, a, b, n, m, k, ProofSettings(precision=Precision(digits)))

    run()
    calls = [_counter(monkeypatch, context(Precision(digits)), "cos") for digits in (30, 50)]
    misses = remez._chebyshev_table.cache_info().misses
    run()
    assert [count[0] for count in calls] == [0, 0]
    assert remez._chebyshev_table.cache_info().misses == misses


def _g(source, a, b, n, m, alpha, beta):
    return quotient.QuotientFunction(parse(source), a, b, n, m, alpha, beta, Precision(50))


def test_the_quotient_shares_the_square_root_of_f():
    # one fresh sample of the real-order arcsin quotient, m = 1/2 on [0, 1]:
    # sqrt(1+x), sqrt(1-x), arcsin's own and (1-x)^(1/2), which is f's
    # sqrt(1-x), so 3 mpf_sqrt calls (before: 4); every call is counted,
    # however its caller holds mpf_sqrt
    g = _g(ARCSIN_DIFF_SOURCE, 0, 1, 3, "1/2", 1, 1)
    x, calls, code = to_mpf("0.37", Precision(50)), [0], libmpf.mpf_sqrt.__code__

    def profile(frame, event, arg):
        calls[0] += event == "call" and frame.f_code is code

    sys.setprofile(profile)
    try:
        g.evaluate(x)
    finally:
        sys.setprofile(None)
    assert calls[0] <= 3


def test_an_interior_sample_compares_by_exponents(monkeypatch):
    # a sample in [a + 2^top, b - 2^top] clears the blend zones by one exact
    # comparison on integers, with no mpf_lt call (before: 2 per sample)
    g = _g("exp(x)-1-x", 0, 1, 2, 0, "1/2", "e-2")
    lts = _counter(monkeypatch, quotient, "mpf_lt")
    for x in ("1e-7", "0.37", "0.9999999"):
        g.evaluate(to_mpf(x, Precision(50)))
    assert lts[0] == 0


def test_orders_zero_form_no_denominator(monkeypatch):
    # f(x) alone, rounded to the working precision, with no division by one
    g = _g("(x-3/10)^2-1/100", 0, 1, 0, 0, "8/100", "48/100")
    divisions = _counter(monkeypatch, quotient, "mpf_div")
    g.evaluate(to_mpf("0.37", Precision(50)))
    assert divisions[0] == 0
    # at an x wider than the working precision, g(x) = x is x rounded
    g = _g("x", 1, 2, 0, 0, 1, 2)
    ctx = context(Precision(50))
    wide = from_rational(4, 3, ctx.prec + 40, round_nearest)
    assert g.evaluate(ctx.make_mpf(wide))._mpf_ == mpf_pos(wide, ctx.prec, round_nearest) != wide


def test_a_compiled_memo_hit_hashes_one_node(monkeypatch):
    # each node keeps its hash, so a hit on the order-7 derivative of
    # exp(sin(x))*arctan(x) - x - x^2 hashes its root alone (before: every
    # node of the tree, 93,167)
    p50 = Precision(50)
    e = differentiate(parse(EVALUATION_COSTS["derivative_7"][0]), 7)
    expr.compiled(e, p50)
    hashes = [_counter(monkeypatch, cls, "__hash__") for cls in (
        expr.Constant, expr.Variable, expr.NamedConstant, expr.UnaryOp, expr.BinaryOp,
        expr.KurepaNode)]
    expr.compiled(e, p50)
    assert sum(count[0] for count in hashes) == 1


def test_the_import_leaves_the_collector_nothing_to_scan():
    # the objects alive once the package is imported go to the permanent
    # generation, so a full collection inside a proof scans only what came
    # after (before: all 19,459 of them, and in a series of proofs the first
    # full pass, 8-9 ms, fell inside one proof)
    script = "import gc, ineqprove; print(gc.get_freeze_count(), len(gc.get_objects()))"
    src = str(Path(expr.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script], check=True, capture_output=True,
                         text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src)).stdout
    frozen, tracked = map(int, out.split())
    assert frozen > 15_000 and tracked == 0
