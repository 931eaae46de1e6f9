"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (bypassing capture) and enforces both
the numeric tolerances and a wall-clock budget.  Oracles are computed inside
the tests: brute-force grid search for the parabola minimax, a closed-form
equioscillation solve for the exponential, dense sampling plus derivative
sign changes for the certifier fuzz, and construction-based exact limits for
the endpoint-limit agreement check.
"""

import contextlib
import hashlib
import json
import random
import re
import sys
import time

import mpmath
import numpy as np
import pytest
from mpmath import mp

from ineqprove import (
    CertificationError,
    Polynomial,
    Precision,
    ProofSettings,
    certify_positive,
    decimal_str,
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
    verify_equioscillation,
)
from ineqprove.cli import main as cli_main

from helpers import (
    ARCSIN_DIFF_SOURCE, ambient, planted_endpoint_polynomial, requires_recorded_mpmath,
)

P50 = Precision(50)
P35 = Precision(35)

# sha256 of report_to_json of the paper's full-size proof, K(x) <= K'(0) x
KUREPA_REPORT_HASH = "aa65dd065284b4c26f63699c906f589e28316446502a57c92288dbf90217b9db"


@contextlib.contextmanager
def criterion(name, budget_seconds, spent=0.0):
    # spent: seconds the criterion took before the block, in a shared fixture
    start = time.perf_counter() - spent
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"[acceptance] {name}: FAIL ({elapsed:.1f}s)", file=sys.__stdout__)
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_seconds:
        print(f"[acceptance] {name}: FAIL (over budget: {elapsed:.1f}s >= "
              f"{budget_seconds}s)", file=sys.__stdout__)
        raise AssertionError(f"{name} exceeded its {budget_seconds}s budget")
    print(f"[acceptance] {name}: PASS ({elapsed:.1f}s)", file=sys.__stdout__)


def test_minimax_parabola_against_brute_force():
    with criterion("minimax parabola oracle", 1.0):
        # brute-force oracle: scan linear polynomials s*x + t on a dense grid
        xs = np.linspace(-1.0, 1.0, 1001)
        target = xs * xs
        best = (np.inf, None, None)
        for s in np.linspace(-0.25, 0.25, 51):
            residual = target - s * xs
            for t in np.linspace(0.3, 0.7, 81):
                d = np.max(np.abs(residual - t))
                if d < best[0]:
                    best = (d, s, t)
        assert abs(best[0] - 0.5) < 5e-3
        assert abs(best[1]) < 2e-2 and abs(best[2] - 0.5) < 2e-2

        result = minimax(lambda x: x * x, -1, 1, 1, p=P50)
        assert abs(result.delta_hat - mpmath.mpf("0.5")) < mpmath.mpf("1e-10")
        assert abs(result.polynomial.coefficients[0] - mpmath.mpf("0.5")) < mpmath.mpf("1e-10")
        for node, want in zip(result.nodes, (-1, 0, 1)):
            assert abs(node - want) < mpmath.mpf("1e-8")


def test_minimax_exponential_against_closed_form():
    with criterion("minimax exponential oracle", 1.0):
        result = minimax(mpmath.exp, 0, 1, 1, p=P50)
        mono = result.polynomial.to_monomial()
        with ambient(P50):
            slope = mp.e - 1
            node = mp.log(slope)
            intercept = (1 + slope - slope * mp.log(slope)) / 2
            delta = (1 - slope + slope * mp.log(slope)) / 2
            assert abs(mono[1] - slope) < mp.mpf("1e-10")
            assert abs(result.nodes[1] - node) < mp.mpf("1e-8")
            assert abs(mono[0] - intercept) < mp.mpf("1e-10")
            assert abs(result.delta_hat - delta) < mp.mpf("1e-10")


def test_equioscillation_suite():
    with criterion("equioscillation suite", 30.0):
        functions = [
            mpmath.exp,
            mpmath.sin,
            lambda x: x * mpmath.asin(x / 2),
        ]
        for g in functions:
            previous = None
            for k in range(1, 7):
                result = minimax(g, 0, 1, k, p=P50)
                assert result.iterations <= 12
                report = verify_equioscillation(result, p=P50)
                assert report.passed, report.message
                if previous is not None:
                    assert result.delta_hat <= previous
                previous = result.delta_hat


def test_kurepa_reference_constants():
    with criterion("kurepa constants", 60.0):
        r1 = kurepa(1, P50)
        assert abs(r1.value - 1) < mpmath.mpf("1e-15")
        rkp = kurepa_derivative(0, 1, P50)
        assert abs(rkp.value - mpmath.mpf("1.432205735")) < mpmath.mpf("5e-9")
        c = find_inflection(P35)
        assert abs(c - mpmath.mpf("0.929875685")) < mpmath.mpf("5e-9")
        assert abs(rkp.value * c - mpmath.mpf("1.331773289")) < mpmath.mpf("1e-8")


@pytest.fixture(scope="module")
def kurepa_proof():
    """The paper's full-size proof, K(x) <= K'(0) x, run once: (source, report, seconds)."""
    start = time.perf_counter()
    p40 = Precision(40)
    slope = kurepa_derivative(0, 1, p40).value
    source = f"({decimal_str(slope, p40)})*x - kurepa(x)"
    report = prove_inequality(source, 0, 1, 2, 0, 1, ProofSettings(precision=P35))
    return source, report, time.perf_counter() - start


def test_kurepa_linear_bound_proof(kurepa_proof):
    source, report, seconds = kurepa_proof
    with criterion("kurepa linear bound proof", 120.0, spent=seconds):
        assert report.verdict == "proven"
        # each g call is a quadrature; the nested grids keep the proof near 400
        assert report.timings["g_evaluations"] <= 420
        alpha_oracle, _ = endpoint_limits_numeric(parse(source), 0, 1, 2, 0, P35)
        assert abs(report.alpha - alpha_oracle) <= mpmath.mpf("1e-6") * abs(alpha_oracle)
        # alpha is half the negated curvature at the left endpoint
        kpp0 = kurepa_derivative(0, 2, P35).value
        assert abs(report.alpha - (-kpp0 / 2)) <= mpmath.mpf("1e-6") * abs(report.alpha)


@requires_recorded_mpmath
def test_kurepa_report_bytes(kurepa_proof):
    _, report, _ = kurepa_proof
    digest = hashlib.sha256(report_to_json(report).encode("utf-8")).hexdigest()
    assert digest == KUREPA_REPORT_HASH


def test_arcsin_bound_reproduction():
    with criterion("arcsin bound reproduction", 30.0):
        f = parse(ARCSIN_DIFF_SOURCE)
        settings = ProofSettings(precision=P50)
        v0 = evaluate(f, 0, P50)
        v1 = evaluate(f, 1, P50)
        assert abs(v0) < mpmath.mpf("1e-30")
        assert abs(v1) < mpmath.mpf("1e-30")

        # The endpoint orders are 3 at 0 and 1/2 at 1.  The bound's constants
        # satisfy A = B + 2, which makes f, f' and f'' vanish at 0: a triple
        # root.  At 1, f' behaves like (1-x)^(-1/2): a zero of order 1/2.
        alpha_n1, _ = endpoint_limits_taylor(f, 0, 1, 1, 0, P50)
        assert alpha_n1 == 0
        # n = 3 passes the vanishing check on derivatives 0..2
        alpha_taylor, _ = endpoint_limits_taylor(f, 0, 1, 3, 0, P50)
        assert alpha_taylor > 0
        _, beta_numeric = endpoint_limits_numeric(f, 0, 1, 3, "0.5", P50)
        assert mpmath.isfinite(beta_numeric) and beta_numeric > 0

        # So at n = m = 1 the quotient tends to 0 at a and grows without
        # bound at b, which no polynomial approximates.  The inequality holds,
        # so no witness exists either: the only honest verdict is inconclusive,
        # and the numeric cross-check points at the missing order at a.
        raw = prove_inequality(f, 0, 1, 1, 1, 1, settings)
        assert raw.verdict == "inconclusive", raw.verdict
        assert raw.diagnostics["stage"] == "endpoint_limits"
        failed = raw.diagnostics["limit_cross_check"]["failed"]
        assert failed.startswith("ZeroLimitError") and failed.endswith("[endpoint a]")
        hint = re.search(r"observed exponent hint: ([-+.0-9eE]+)\)", failed)
        assert hint is not None, failed
        assert abs(mpmath.mpf(hint.group(1)) - 2) < mpmath.mpf("0.1")

        # At the true orders the pipeline proves the bound.
        report = prove_inequality(f, 0, 1, 3, "0.5", 8, settings)
        assert report.verdict == "proven", report.diagnostics
        assert report.global_min_bound > 0
        assert abs(report.alpha - alpha_taylor) <= mpmath.mpf("1e-6") * alpha_taylor


def _poly_oracle_min(monomial, lo, hi, samples=4000):
    """Dense sampling plus derivative-sign-change refinement (float oracle)."""
    coeffs = np.asarray(monomial, dtype=float)
    xs = np.linspace(lo, hi, samples + 1)
    vals = np.polyval(coeffs[::-1], xs)
    best = float(vals.min())
    if len(coeffs) > 1:
        dcoeffs = (coeffs[1:] * np.arange(1, len(coeffs)))[::-1]
        dvals = np.polyval(dcoeffs, xs)
        signs = np.sign(dvals)
        flips = np.nonzero(signs[:-1] * signs[1:] <= 0)[0]
        for i in flips:
            a, b = xs[i], xs[i + 1]
            fa = np.polyval(dcoeffs, a)
            for _ in range(60):
                m = 0.5 * (a + b)
                fm = np.polyval(dcoeffs, m)
                if fa * fm <= 0:
                    b = m
                else:
                    a, fa = m, fm
            best = min(best, float(np.polyval(coeffs[::-1], 0.5 * (a + b))))
    return best


def test_certifier_soundness_fuzz():
    with criterion("certifier soundness fuzz", 60.0):
        rng = np.random.default_rng(20260809)
        p30 = Precision(30)
        certified = 0
        for trial in range(100):
            degree = int(rng.integers(0, 7))
            mono = rng.uniform(-1.0, 1.0, degree + 1)
            delta = float(rng.uniform(0.0, 0.3))
            raw_min = _poly_oracle_min(mono, 0.0, 1.0)
            band = trial % 3
            if band == 0:
                planted = float(rng.uniform(0.05, 0.6))
            elif band == 1:
                planted = float(rng.uniform(-0.5, -0.01))
            else:
                planted = float(rng.uniform(1e-4, 1e-2))
            mono[0] += delta + planted - raw_min
            oracle_min = _poly_oracle_min(mono, 0.0, 1.0)
            P = Polynomial.from_monomial([repr(float(c)) for c in mono], 0, 1)
            try:
                cert = certify_positive(P, repr(delta), "1.000001", p30)
            except CertificationError:
                cert = None
            if cert is not None:
                certified += 1
                assert oracle_min - delta > 0, (
                    f"unsound certification in trial {trial}: "
                    f"oracle min {oracle_min}, delta {delta}"
                )
            if oracle_min <= delta - 1e-9:
                assert cert is None, (
                    f"trial {trial} certified although the polynomial dips "
                    f"below delta (oracle min {oracle_min}, delta {delta})"
                )
        assert certified >= 30, f"only {certified} of 100 certified"


def test_limit_method_agreement():
    with criterion("limit method agreement", 10.0):
        rng = random.Random(13579)
        for _ in range(20):
            source, n, m, alpha_exact, beta_exact = planted_endpoint_polynomial(rng)
            f = parse(source)
            alpha_t, beta_t = endpoint_limits_taylor(f, 0, 1, n, m, P50)
            alpha_n, beta_n = endpoint_limits_numeric(f, 0, 1, n, m, P50)
            assert abs(alpha_t - alpha_n) <= mpmath.mpf("1e-6") * abs(alpha_t)
            assert abs(beta_t - beta_n) <= mpmath.mpf("1e-6") * abs(beta_t)


def test_negative_controls(tmp_path):
    with criterion("negative controls", 10.0):
        out = tmp_path / "report.json"
        code = cli_main(["prove", "--function=-x", "--interval", "0,1",
                         "--n", "1", "--m", "0", "--degree", "1",
                         "--precision", "30", "--out", str(out)])
        assert code == 1
        assert json.loads(out.read_text())["verdict"] == "disproven"

        code = cli_main(["prove", "--function", "x - 2", "--interval", "0,1",
                         "--n", "0", "--m", "0", "--degree", "1",
                         "--precision", "30", "--out", str(out)])
        assert code == 1
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "disproven"
        assert mpmath.mpf(doc["beta"]) < 0

        # the high-error setup must come out inconclusive, never proven
        code = cli_main(["prove", "--function", ARCSIN_DIFF_SOURCE,
                         "--interval", "0,1", "--n", "1", "--m", "1",
                         "--degree", "0", "--precision", "50",
                         "--out", str(out)])
        assert code == 2
        assert json.loads(out.read_text())["verdict"] == "inconclusive"


def test_report_determinism(tmp_path):
    with criterion("report determinism", 60.0):
        config = tmp_path / "arcsin.cfg"
        config.write_text(
            "\n".join([
                f"function = {ARCSIN_DIFF_SOURCE}",
                "interval = 0,1",
                "n = 1",
                "m = 1",
                "degree = 1",
                "precision = 50",
            ]) + "\n",
            encoding="utf-8",
        )
        outputs = []
        for name in ("first.json", "second.json"):
            out = tmp_path / name
            cli_main(["prove", "--config", str(config), "--out", str(out)])
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
