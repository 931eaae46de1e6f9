"""Minimax approximation with the second Remez algorithm.

Two cases with known closed forms, then an equioscillation table.

Run:  python3 demos/minimax_showcase.py
"""

import mpmath
from mpmath import mp

from ineqprove import Precision, minimax, verify_equioscillation, working

p = Precision(50)

print("== x^2 on [-1, 1], degree 1: best line is the constant 1/2 ==")
r = minimax(lambda x: x * x, -1, 1, 1, p=p)
print(f"  delta_hat = {mpmath.nstr(r.delta_hat, 20)}   (exact: 0.5)")
print(f"  nodes     = {[mpmath.nstr(t, 8) for t in r.nodes]}")

print("\n== exp on [0, 1], degree 1: slope e - 1, interior node ln(e-1) ==")
r = minimax(mpmath.exp, 0, 1, 1, p=p)
mono = r.polynomial.to_monomial(p)
with working(p):
    print(f"  slope     = {mpmath.nstr(mono[1], 25)}")
    print(f"  e - 1     = {mpmath.nstr(mp.e - 1, 25)}")
    print(f"  node      = {mpmath.nstr(r.nodes[1], 25)}")
    print(f"  ln(e - 1) = {mpmath.nstr(mp.log(mp.e - 1), 25)}")

print("\n== sin on [0, 1]: error estimate by degree ==")
print(f"  {'k':>2s} {'delta_hat':>14s} {'iterations':>10s} {'spread':>10s}")
for k in range(1, 7):
    r = minimax(mpmath.sin, 0, 1, k, p=p)
    report = verify_equioscillation(r, mpmath.sin, p=p)
    spread = mpmath.nstr(report.spread, 3) if report.spread is not None else "-"
    print(f"  {k:2d} {mpmath.nstr(r.delta_hat, 6):>14s} {r.iterations:10d} {spread:>10s}")
print("  (the residual magnitudes at the k+2 nodes agree to the printed spread)")
