"""Float oracle for the certifier fuzz, independent of ``ineqprove``.

The same rule as the acceptance test's: the minimum of a monomial-basis
polynomial on [lo, hi] is taken over a dense grid and over every sign change
of the derivative on that grid, each refined by 60 bisection steps.
"""

import numpy as np


def poly_oracle_min(monomial, lo, hi, samples=4000):
    coeffs = np.asarray(monomial, dtype=float)
    xs = np.linspace(lo, hi, samples + 1)
    best = float(np.polyval(coeffs[::-1], xs).min())
    if len(coeffs) > 1:
        dcoeffs = (coeffs[1:] * np.arange(1, len(coeffs)))[::-1]
        signs = np.sign(np.polyval(dcoeffs, xs))
        for i in np.nonzero(signs[:-1] * signs[1:] <= 0)[0]:
            a, b = xs[i], xs[i + 1]
            fa = np.polyval(dcoeffs, a)
            for _ in range(60):
                mid = 0.5 * (a + b)
                fm = np.polyval(dcoeffs, mid)
                if fa * fm <= 0:
                    b = mid
                else:
                    a, fa = mid, fm
            best = min(best, float(np.polyval(coeffs[::-1], 0.5 * (a + b))))
    return best


def soundness_miss(certified: bool, oracle_min: float, delta: float):
    """Why a certifier outcome contradicts the oracle, or None if it does not.

    A certificate claims P - delta > 0 on the whole segment; rejecting is
    never wrong, since the certifier does not claim disproof.
    """
    if certified and not oracle_min - delta > 0:
        return (f"unsound certificate: oracle min {oracle_min!r} is not above "
                f"delta {delta!r}")
    return None
