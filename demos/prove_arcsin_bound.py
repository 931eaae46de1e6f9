"""Machine proof of an algebraic upper bound for arcsin on [0, 1].

The bound (with A = pi(2-sqrt2)/(pi-2sqrt2), B = sqrt2(4-pi)/(pi-2sqrt2))

    arcsin(x) <= A (sqrt(1+x) - sqrt(1-x)) / (B + sqrt(1+x) + sqrt(1-x))

is tight to third order at 0 (the constants satisfy A = B + 2, which makes
the difference's value, slope and curvature all vanish there) and has a
square-root-order contact at 1.  This script shows three parameterizations
of the same inequality:

1. integer exponents guessed from "roots at both endpoints" -- rejected,
   with exponent hints pointing at the real orders;
2. the correct real exponents n = 3, m = 1/2 -- inconclusive at degree 1,
   proven at degree 8 (repair by raising the degree);
3. the substitution x = sin(t), which removes the square roots entirely --
   proven at degree 1 with exact Taylor limits.

Run:  python3 demos/prove_arcsin_bound.py
"""

import time

import mpmath

from ineqprove import (
    IneqproveError,
    Precision,
    ProofSettings,
    endpoint_limits_numeric,
    parse,
    prove_inequality,
)

RHS = (
    "(pi*(2-sqrt2)/(pi-2*sqrt2))*(sqrt(1+x) - sqrt(1-x))"
    " / ((sqrt2*(4-pi)/(pi-2*sqrt2)) + sqrt(1+x) + sqrt(1-x))"
)
DIFFERENCE = f"{RHS} - arcsin(x)"
TRIG_FORM = (
    "2*(pi*(2-sqrt2)/(pi-2*sqrt2))*sin(x/2)"
    " - x*((sqrt2*(4-pi)/(pi-2*sqrt2)) + 2*cos(x/2))"
)

p = Precision(50)
settings = ProofSettings(precision=p)
f = parse(DIFFERENCE)

print("== 1. naive integer exponents are rejected with hints ==")
for n, m in ((1, 0), (3, 1)):
    try:
        endpoint_limits_numeric(f, 0, 1, n, m, p)
    except IneqproveError as err:
        print(f"  n={n}, m={m}: {type(err).__name__}: {err}")

print("\n== 2. real exponents n = 3, m = 1/2 ==")
alpha, beta = endpoint_limits_numeric(f, 0, 1, 3, "0.5", p)
print(f"  limits: alpha = {mpmath.nstr(alpha, 10)}, beta = {mpmath.nstr(beta, 10)}")
low = prove_inequality(DIFFERENCE, 0, 1, 3, "0.5", 1, settings)
print(f"  degree 1: {low.verdict} (stage: {low.diagnostics.get('stage')})")
start = time.perf_counter()
high = prove_inequality(DIFFERENCE, 0, 1, 3, "0.5", 8, settings)
print(f"  degree 8: {high.verdict}  "
      f"delta_hat = {mpmath.nstr(high.delta_hat, 6)}, "
      f"certified min = {mpmath.nstr(high.global_min_bound, 6)} "
      f"({time.perf_counter() - start:.1f}s)")

print("\n== 3. the trigonometric form proves at degree 1 ==")
report = prove_inequality(TRIG_FORM, 0, "pi/2", 3, 1, 1, settings)
print(f"  verdict: {report.verdict}")
print(f"  alpha = {mpmath.nstr(report.alpha, 12)}, beta = {mpmath.nstr(report.beta, 12)}")
print(f"  delta_hat = {mpmath.nstr(report.delta_hat, 6)}, "
      f"certified min of P - delta = {mpmath.nstr(report.global_min_bound, 6)}")
alpha_numeric, _ = endpoint_limits_numeric(parse(TRIG_FORM), 0, "pi/2", 3, 1, p)
gap = abs(report.alpha - alpha_numeric) / abs(report.alpha)
print(f"  Taylor vs numeric limits agree to {mpmath.nstr(gap, 3)} (alpha)")
