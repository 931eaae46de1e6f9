import random

import mpmath
import pytest
from mpmath import mp

from ineqprove import (
    ConfigurationError,
    Polynomial,
    Precision,
    SingularSystemError,
    initial_nodes,
    minimax,
    solve_levelled_system,
    verify_equioscillation,
    working,
)
from ineqprove.remez import MinimaxResult


class TestInitialNodes:
    def test_symmetric_unit(self):
        nodes = initial_nodes(-1, 1, 1)
        assert nodes[0] == -1 and nodes[2] == 1
        assert abs(nodes[1]) < mpmath.mpf("1e-50")

    def test_affine_map(self):
        nodes = initial_nodes(0, 1, 1)
        assert nodes[0] == 0 and nodes[2] == 1
        assert abs(nodes[1] - mpmath.mpf("0.5")) < mpmath.mpf("1e-50")

    def test_degree_two(self):
        nodes = initial_nodes(-1, 1, 2)
        expected = ["-1", "-0.5", "0.5", "1"]
        for node, want in zip(nodes, expected):
            assert abs(node - mpmath.mpf(want)) < mpmath.mpf("1e-50")

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            initial_nodes(1, 0, 1)
        with pytest.raises(ConfigurationError):
            initial_nodes(0, 1, -1)


class TestLevelledSystem:
    def test_parabola_three_nodes(self, p50):
        # 3x3 hand solve: 1 = P(-1)+h, 0 = P(0)-h, 1 = P(1)+h gives P = 1/2, h = 1/2
        P, h = solve_levelled_system(lambda x: x * x, (-1, 0, 1), -1, 1, p50)
        assert abs(h - mpmath.mpf("0.5")) < mpmath.mpf("1e-50")
        assert abs(P.coefficients[0] - mpmath.mpf("0.5")) < mpmath.mpf("1e-50")
        assert abs(P.coefficients[1]) < mpmath.mpf("1e-50")

    def test_constant_exact(self, p50):
        P, h = solve_levelled_system(lambda x: mpmath.mpf(7), ("0.2", "0.8"), 0, 1, p50)
        assert abs(P.coefficients[0] - 7) < mpmath.mpf("1e-49")
        assert abs(h) < mpmath.mpf("1e-49")

    def test_linear_exact(self, p50):
        P, h = solve_levelled_system(lambda x: x, (0, "0.5", 1), 0, 1, p50)
        assert abs(h) < mpmath.mpf("1e-50")
        mono = P.to_monomial()
        assert abs(mono[0]) < mpmath.mpf("1e-49")
        assert abs(mono[1] - 1) < mpmath.mpf("1e-49")

    def test_coincident_nodes_rejected(self, p50):
        with pytest.raises(SingularSystemError):
            solve_levelled_system(lambda x: x, (0, 0, 1), 0, 1, p50)


class TestExchange:
    """The reference the exchange settles on, seen through minimax."""

    def test_parabola_fixed_point(self, p50):
        result = minimax(lambda x: x * x, -1, 1, 1, p=p50)
        assert len(result.nodes) == 3
        for node, want in zip(result.nodes, (-1, 0, 1)):
            assert abs(node - want) < mpmath.mpf("1e-10")
        with working(p50):
            residuals = [t * t - result.polynomial.evaluate(t) for t in result.nodes]
        assert [r > 0 for r in residuals] == [True, False, True]

    def test_exp_interior_node(self, p50):
        # the interior extremum of exp(x) - (c + (e-1) x) is at log(e-1)
        result = minimax(mpmath.exp, 0, 1, 1, p=p50)
        with working(p50):
            assert abs(result.nodes[1] - mp.log(mp.e - 1)) < mp.mpf("1e-12")


class TestMinimax:
    def test_parabola_oracle(self, p50):
        r = minimax(lambda x: x * x, -1, 1, 1, p=p50)
        assert abs(r.delta_hat - mpmath.mpf("0.5")) < mpmath.mpf("1e-10")
        assert abs(r.polynomial.coefficients[0] - mpmath.mpf("0.5")) < mpmath.mpf("1e-10")
        for node, want in zip(r.nodes, (-1, 0, 1)):
            assert abs(node - want) < mpmath.mpf("1e-8")
        assert r.lower_bound <= r.delta_hat <= r.upper_bound

    def test_exact_polynomial(self, p50):
        rng = random.Random(4242)
        g = lambda x: 3 * x * x - x + mpmath.mpf("0.25")
        r = minimax(g, 0, 1, 3, p=p50)
        assert r.delta_hat <= mpmath.mpf("1e-45")
        with working(p50):
            for _ in range(10):
                x = mp.mpf(rng.random())
                assert abs(r.polynomial.evaluate(x) - g(x)) < mp.mpf("1e-20")

    def test_exp_slope(self, p50):
        r = minimax(mpmath.exp, 0, 1, 1, p=p50)
        mono = r.polynomial.to_monomial()
        with working(p50):
            assert abs(mono[1] - (mp.e - 1)) < mp.mpf("1e-10")
            assert abs(r.nodes[1] - mp.log(mp.e - 1)) < mp.mpf("1e-8")

    def test_degree_monotonicity(self, p50):
        for g in (mpmath.exp, mpmath.sin):
            deltas = [minimax(g, 0, 1, k, p=p50).delta_hat for k in range(7)]
            for harder, easier in zip(deltas, deltas[1:]):
                assert easier <= harder

    def test_positive_scaling_equivariance(self, p50):
        c = mpmath.mpf("3.7")
        base = minimax(mpmath.sin, 0, 1, 3, p=p50)
        scaled = minimax(lambda x: c * mpmath.sin(x), 0, 1, 3, p=p50)
        with working(p50):
            assert abs(scaled.delta_hat - c * base.delta_hat) <= \
                mp.mpf("1e-20") * scaled.delta_hat
            for sc, bc in zip(scaled.polynomial.coefficients, base.polynomial.coefficients):
                assert abs(sc - c * bc) <= mp.mpf("1e-20") * max(abs(sc), mp.mpf("1e-25"))

    def test_affine_domain_equivariance(self, p50):
        base = minimax(mpmath.exp, 1, 3, 3, p=p50)
        composed = minimax(lambda t: mpmath.exp(2 * t + 1), 0, 1, 3, p=p50)
        with working(p50):
            assert abs(base.delta_hat - composed.delta_hat) <= \
                mp.mpf("1e-20") * base.delta_hat

    def test_alternation_and_sandwich(self, p50):
        for g, k in ((mpmath.exp, 2), (mpmath.sin, 4), (mpmath.exp, 5)):
            r = minimax(g, 0, 1, k, p=p50)
            assert len(r.nodes) == k + 2
            assert all(l < h for l, h in zip(r.nodes, r.nodes[1:]))
            residuals = [g(t) - r.polynomial.evaluate(t) for t in r.nodes]
            for prev, cur in zip(residuals, residuals[1:]):
                assert (prev > 0) != (cur > 0)
            assert r.lower_bound <= r.delta_hat <= r.upper_bound
            assert (r.upper_bound - r.lower_bound) / r.upper_bound <= mpmath.mpf("1e-12")

    def test_iteration_budget(self, p50):
        for k in range(1, 7):
            r = minimax(mpmath.exp, 0, 1, k, p=p50)
            assert r.iterations <= 12
            assert len(r.levelled_error_history) == r.iterations

    def test_tol_validation(self, p50):
        with pytest.raises(ConfigurationError):
            minimax(mpmath.exp, 0, 1, 1, tol="1e-60", p=p50)


class TestVerifyEquioscillation:
    def test_parabola_passes(self, p50):
        r = minimax(lambda x: x * x, -1, 1, 1, p=p50)
        report = verify_equioscillation(r, lambda x: x * x, p=p50)
        assert report.passed
        signs = [res > 0 for res in report.residuals]
        assert signs == [True, False, True]
        for res in report.residuals:
            assert abs(abs(res) - mpmath.mpf("0.5")) < mpmath.mpf("1e-10")

    def test_exact_polynomial_zero_rule(self, p50):
        g = lambda x: x * x
        r = minimax(g, 0, 1, 2, p=p50)
        report = verify_equioscillation(r, g, p=p50)
        assert report.passed
        assert "floor" in report.message or "exact" in report.message

    def test_perturbed_node_fails(self, p50):
        r = minimax(mpmath.exp, 0, 1, 2, p=p50)
        bad_nodes = list(r.nodes)
        bad_nodes[1] = bad_nodes[1] + mpmath.mpf("0.05")
        bad = MinimaxResult(
            polynomial=r.polynomial, delta_hat=r.delta_hat, nodes=tuple(bad_nodes),
            iterations=r.iterations, levelled_error_history=r.levelled_error_history,
            lower_bound=r.lower_bound, upper_bound=r.upper_bound,
        )
        report = verify_equioscillation(bad, mpmath.exp, p=p50)
        assert not report.passed
        assert report.failure_index is not None


class TestPolynomial:
    def test_constant_evaluation_exact(self, p50):
        with working(p50):
            c = mp.mpf("0.123456789")
            P = Polynomial(coefficients=(c,), segment=(mp.mpf(0), mp.mpf(1)))
            for x in ("0", "0.37", "1"):
                assert P.evaluate(mp.mpf(x)) == c

    def test_monomial_round_trip(self, p50):
        rng = random.Random(1357)
        with working(p50):
            coeffs = tuple(mp.mpf(rng.uniform(-2, 2)) for _ in range(6))
            P = Polynomial(coefficients=coeffs, segment=(mp.mpf(-1), mp.mpf(2)))
            mono = P.to_monomial()
            Q = Polynomial.from_monomial(mono, -1, 2)
            for _ in range(10):
                x = mp.mpf(rng.uniform(-1, 2))
                assert abs(P.evaluate(x) - Q.evaluate(x)) < mp.mpf(10) ** (-50 + 12)

    @pytest.mark.parametrize("digits", [30, 50])
    def test_basis_conversions_ignore_ambient_precision(self, digits):
        p = Precision(digits)
        coeffs = ["0.2", "-0.7", "1", "pi/7"]
        bits = []
        for ambient in (15, 60):
            with mp.workdps(ambient):
                P = Polynomial.from_monomial(coeffs, 0, "pi/2", p)
                mono = P.to_monomial(p)
            bits.append([c._mpf_ for c in P.coefficients + P.segment + mono])
        assert bits[0] == bits[1]
