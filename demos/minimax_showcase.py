"""Minimax approximation with the second Remez algorithm.

Two cases with known closed forms, then an equioscillation table.

Run:  python3 demos/minimax_showcase.py
"""

import mpmath

from ineqprove import Precision, minimax, verify_equioscillation

p = Precision(50)

print("== x^2 on [-1, 1], degree 1: best line is the constant 1/2 ==")
r = minimax(lambda x: x * x, -1, 1, 1, p=p)
print(f"  delta_hat = {mpmath.nstr(r.delta_hat, 20)}   (exact: 0.5)")
print(f"  nodes     = {[mpmath.nstr(t, 8) for t in r.nodes]}")

print("\n== exp on [0, 1], degree 1: slope e - 1, interior node ln(e-1) ==")
# g receives values of the working context; it computes in their context
r = minimax(lambda x: x.context.exp(x), 0, 1, 1, p=p)
mono = r.polynomial.to_monomial(p)
ctx = mono[1].context
print(f"  slope     = {mpmath.nstr(mono[1], 25)}")
print(f"  e - 1     = {mpmath.nstr(ctx.e - 1, 25)}")
print(f"  node      = {mpmath.nstr(r.nodes[1], 25)}")
print(f"  ln(e - 1) = {mpmath.nstr(ctx.log(ctx.e - 1), 25)}")

print("\n== sin on [0, 1]: error estimate by degree ==")
print(f"  {'k':>2s} {'delta_hat':>14s} {'iterations':>10s} {'spread':>10s}")
for k in range(1, 7):
    r = minimax(lambda x: x.context.sin(x), 0, 1, k, p=p)
    report = verify_equioscillation(r, p=p)
    spread = mpmath.nstr(report.spread, 3) if report.spread is not None else "-"
    print(f"  {k:2d} {mpmath.nstr(r.delta_hat, 6):>14s} {r.iterations:10d} {spread:>10s}")
print("  (the residual magnitudes at the k+2 nodes agree to the printed spread)")
