"""Audit a finished proof report from its JSON alone.

Replays the certificate's claims with independent arithmetic (plain mpmath,
no package evaluation paths): the polynomial is rebuilt from the serialized
Chebyshev coefficients, the quotient from the original expression text, and
the checks run on fresh uniformly-spaced points rather than the pipeline's
Chebyshev grids.
"""

import json
import random

import mpmath
from mpmath import mp

from ineqprove import Precision, ProofSettings, prove_inequality, report_to_json

from helpers import TRIG_ARCSIN_SOURCE

P50 = Precision(50)


def _clenshaw(coeffs, a, b, x):
    if len(coeffs) == 1:
        return coeffs[0]
    u = (2 * x - a - b) / (b - a)
    b1 = b2 = mp.mpf(0)
    for cj in reversed(coeffs[1:]):
        b1, b2 = 2 * u * b1 - b2 + cj, b1
    return u * b1 - b2 + coeffs[0]


def test_trig_arcsin_report_replays_from_json():
    report = prove_inequality(TRIG_ARCSIN_SOURCE, 0, "pi/2", 3, 1, 1,
                              ProofSettings(precision=P50))
    doc = json.loads(report_to_json(report))
    assert doc["verdict"] == "proven"

    with mp.workdps(70):
        # the segment is whatever the report says it is: endpoints given as
        # expressions are fixed at the pipeline's working precision, and the
        # settings echo carries those exact decimal renderings
        a = mp.mpf(doc["settings"]["interval"][0])
        b = mp.mpf(doc["settings"]["interval"][1])
        assert abs(b - mp.pi / 2) < mp.mpf("1e-49")
        coeffs = [mp.mpf(c) for c in doc["polynomial_coefficients"]]
        delta = mp.mpf(doc["delta_hat"])
        margin = mp.mpf(doc["settings"]["margin_factor"])
        gmin = mp.mpf(doc["global_min_bound"])
        alpha = mp.mpf(doc["alpha"])
        beta = mp.mpf(doc["beta"])

        A = mp.pi * (2 - mp.sqrt(2)) / (mp.pi - 2 * mp.sqrt(2))
        B = mp.sqrt(2) * (4 - mp.pi) / (mp.pi - 2 * mp.sqrt(2))

        def f(t):
            return 2 * A * mp.sin(t / 2) - t * (B + 2 * mp.cos(t / 2))

        def g(t):
            return f(t) / (t ** 3 * (b - t))

        # endpoint limits against small-step quotients
        h = mp.mpf(10) ** -12
        assert abs(g(h) - alpha) < mp.mpf("1e-10") * alpha
        assert abs(g(b - h) - beta) < mp.mpf("1e-10") * beta

        rng = random.Random(777)
        for _ in range(400):
            t = a + (b - a) * mp.mpf(rng.random())
            if t == 0 or t == b:
                continue
            p_val = _clenshaw(coeffs, a, b, t)
            # the approximation error stays within the certified bound
            assert abs(g(t) - p_val) <= delta * (1 + mp.mpf("1e-6"))
            # the certified floor really separates P - delta*margin from 0
            assert p_val - delta * margin >= gmin - mp.mpf("1e-45")
            # and therefore the original inequality holds at the sample
            assert f(t) > 0

        # the de la Vallee-Poussin lower bound stays under the serialized
        # estimate, the sandwich's upper side
        assert mp.mpf(doc["lower_bound"]) <= delta

        # nodes are inside the segment, increasing, with alternating residuals
        nodes = [mp.mpf(t) for t in doc["nodes"]]
        assert all(l < r for l, r in zip(nodes, nodes[1:]))
        assert a <= nodes[0] and nodes[-1] <= b
        residuals = [g(t) - _clenshaw(coeffs, a, b, t) if a < t < b else
                     (alpha if t == a else beta) - _clenshaw(coeffs, a, b, t)
                     for t in nodes]
        for prev, cur in zip(residuals, residuals[1:]):
            assert (prev > 0) != (cur > 0)
