"""Machine proof that K(x) <= K'(0) x on [0, 1].

The difference f = K'(0) x - K(x) has a double root at 0 (value and slope
both vanish) and a simple positive value at 1, so the quotient against
x^2 is continuous with positive endpoint limits; a degree-1 minimax
approximation of it separates from its own error bound, which certifies
the inequality.  K'(0) is the best possible constant: any smaller slope
makes the quotient's left limit negative.  The proof states it exactly,
as ``kurepa_deriv(1, 0)``, so the slopes of K'(0) x and K(x) cancel at 0
bit for bit; a decimal slope, however long, lies above or below K'(0).

Takes 0.19-0.22 s, 57-77 ms of it the proof, on a shared 2-vCPU machine
(8 runs; Python 3.11.7, mpmath 1.3.0 without gmpy2).
Run:  python3 demos/prove_kurepa_bound.py
"""

import time

import mpmath

from ineqprove import (
    Precision,
    ProofSettings,
    decimal_str,
    kurepa_derivative,
    prove_inequality,
    report_to_json,
)

p40 = Precision(40)
slope = kurepa_derivative(0, 1, p40).value
print(f"best slope K'(0) = {decimal_str(slope, p40)}")

source = "kurepa_deriv(1, 0)*x - kurepa(x)"
settings = ProofSettings(precision=Precision(35))

start = time.perf_counter()
report = prove_inequality(source, 0, 1, 2, 0, 1, settings)
elapsed = time.perf_counter() - start

print(f"\nverdict: {report.verdict}   ({1000 * elapsed:.0f} ms)")
print(f"  alpha (left limit, = -K''(0)/2) : {mpmath.nstr(report.alpha, 20)}")
print(f"  beta  (right limit, = K'(0)-1)  : {mpmath.nstr(report.beta, 20)}")
print(f"  delta_hat                       : {mpmath.nstr(report.delta_hat, 10)}")
print(f"  certified min of P - delta      : {mpmath.nstr(report.global_min_bound, 10)}")
print(f"  work: {report.timings}")
print(f"\ncaveat: {report.caveat}")

with open("kurepa_bound_report.json", "w", encoding="utf-8") as fh:
    fh.write(report_to_json(report))
    fh.write("\n")
print("\nfull report written to kurepa_bound_report.json")
