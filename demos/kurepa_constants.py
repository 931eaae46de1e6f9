"""The Kurepa function by one trapezoidal sum in s = log t, with proven error bounds.

K(x) = integral_0^inf exp(-t) (t^x - 1)/(t - 1) dt is increasing on [0, 1],
concave up to its single inflection point, convex after.  This script
reproduces the classical constants; each value comes with its proven
error_bound, the number of terms summed (nodes and series terms) and t at
the last node on the right.

Run:  python3 demos/kurepa_constants.py
"""

import mpmath

from ineqprove import Precision, find_inflection, kurepa, kurepa_derivative

p = Precision(50)

print("== values with error accounting ==")
values = {}
for x in ("0", "0.5", "1"):
    r = values[x] = kurepa(x, p)
    print(f"  K({x})   = {mpmath.nstr(r.value, 30):35s}"
          f" +/- {mpmath.nstr(r.error_bound, 3)}  ({r.nodes_used} terms,"
          f" last node at t = {mpmath.nstr(r.tail_cutoff, 5)})")

print("\n== derivatives at 0 ==")
for order in (1, 2, 3):
    r = kurepa_derivative(0, order, p)
    print(f"  K^({order})(0) = {mpmath.nstr(r.value, 30)}")

print("\n== the single inflection point ==")
p35 = Precision(35)
c = find_inflection(p35)
kp0 = kurepa_derivative(0, 1, p35).value
print(f"  c        = {mpmath.nstr(c, 15)}")
print(f"  K'(0)*c  = {mpmath.nstr(kp0 * c, 15)}")
print(f"  K''(c - 0.1) = {mpmath.nstr(kurepa_derivative(c - mpmath.mpf('0.1'), 2, p35).value, 8)}"
      f"   K''(c + 0.05) = {mpmath.nstr(kurepa_derivative(c + mpmath.mpf('0.05'), 2, p35).value, 8)}")

print("\n== convergence: K(0.5) at 35 digits against the 50-digit value ==")
base = kurepa("0.5", p35)
gap = abs(base.value - values["0.5"].value)
verdict = "within" if gap <= base.error_bound else "OUTSIDE"
print(f"  |K_35 - K_50| = {mpmath.nstr(gap, 3)}, {verdict} the 35-digit"
      f" error_bound {mpmath.nstr(base.error_bound, 3)}")
