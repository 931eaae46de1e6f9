"""The arcsin bound, proved through usable parameterizations.

The raw difference RHS(x) - arcsin(x) on [0, 1] has a triple root at 0 and a
square-root-order zero at 1 (arcsin and the right-hand side both have
sqrt(1-x) behaviour there), so integer exponents cannot produce finite
non-zero endpoint limits.  Two routes work:

* real exponents n = 3, m = 1/2 with the numeric limit method; the quotient
  is then continuous but keeps a square-root singularity in its derivatives
  at 1, so low polynomial degrees are inconclusive and higher degrees prove
  (the repair-by-degree behaviour);
* the substitution x = sin(t), which clears both square roots and gives an
  entire function of t on [0, pi/2] with integer root orders n = 3, m = 1,
  provable already at degree 1 via exact Taylor limits.
"""

import mpmath
import pytest

from ineqprove import (
    DivergentLimitError,
    Precision,
    ProofSettings,
    ZeroLimitError,
    endpoint_limits_numeric,
    evaluate,
    parse,
    prove_inequality,
)

from helpers import ARCSIN_DIFF_SOURCE, TRIG_ARCSIN_SOURCE

P50 = Precision(50)


class TestRawParameterizationDiagnostics:
    def test_left_exponent_one_reports_zero_limit(self):
        f = parse(ARCSIN_DIFF_SOURCE)
        with pytest.raises(ZeroLimitError) as err:
            endpoint_limits_numeric(f, 0, 1, 1, 0, P50)
        # hint points at the missing quadratic factor (true order is 3)
        assert err.value.hint_exponent > mpmath.mpf("1.5")

    def test_right_exponent_one_reports_divergence(self):
        f = parse(ARCSIN_DIFF_SOURCE)
        with pytest.raises(DivergentLimitError) as err:
            endpoint_limits_numeric(f, 0, 1, 3, 1, P50)
        # true order at 1 is 1/2, so m = 1 over-divides by about (1-x)^(-1/2)
        assert err.value.endpoint == "b"
        assert abs(err.value.hint_exponent + mpmath.mpf("0.5")) < mpmath.mpf("0.2")

    def test_corrected_real_exponents_give_finite_limits(self):
        f = parse(ARCSIN_DIFF_SOURCE)
        alpha, beta = endpoint_limits_numeric(f, 0, 1, 3, "0.5", P50)
        assert abs(alpha - mpmath.mpf("0.00087600650")) < mpmath.mpf("2e-9")
        assert beta > mpmath.mpf("0.006")
        assert beta < mpmath.mpf("0.007")


class TestRealExponentRoute:
    def test_low_degree_inconclusive_high_degree_proven(self):
        settings = ProofSettings(precision=P50)
        low = prove_inequality(ARCSIN_DIFF_SOURCE, 0, 1, 3, "0.5", 1, settings)
        assert low.verdict == "inconclusive"
        assert low.diagnostics["stage"] == "positivity"
        high = prove_inequality(ARCSIN_DIFF_SOURCE, 0, 1, 3, "0.5", 8, settings)
        assert high.verdict == "proven"
        assert high.limit_method == "numeric"
        # repair by degree: the failing bound gap at degree 1 is covered by
        # the smaller error estimate at degree 8
        assert high.delta_hat < low.delta_hat


class TestTrigonometricRoute:
    def test_proven_at_degree_one(self):
        report = prove_inequality(TRIG_ARCSIN_SOURCE, 0, "pi/2", 3, 1, 1,
                                  ProofSettings(precision=P50))
        assert report.verdict == "proven"
        assert report.limit_method == "taylor"
        assert report.global_min_bound > mpmath.mpf("0.002")

    def test_endpoint_roots_present(self):
        f = parse(TRIG_ARCSIN_SOURCE)
        assert abs(evaluate(f, 0, P50)) < mpmath.mpf("1e-45")
        assert abs(evaluate(f, "pi/2", P50)) < mpmath.mpf("1e-45")
