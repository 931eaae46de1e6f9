"""Seeded inputs for the three benchmark workloads.

Everything here is plain Python (plus numpy for the certifier fuzz, whose
generator replays the acceptance test's numpy draws).  Nothing imports
``ineqprove``: inputs are strings, ints and floats with their expected
outcomes attached, made before any timed call, and the worker processes
receive them as JSON.

A workload is a list of rounds.  Every round has the same composition
(the same named problems and the same number of generated problems of each
kind), so two seeds differ only in the random parameters, not in the mix of
cheap and expensive operations.  See README.md for why each kind is there.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

from oracle import poly_oracle_min

DEFAULT_SEED = 20260809

# Frozen 40-digit Kurepa constants, byte-equal to tests/helpers.py (computed
# there by an independent tanh-sinh oracle).  KP0 = K'(0), KPP0 = K''(0).
KP0 = "1.432205734653224414811031006214889079479"
KPP0 = "-1.92664237918118435964409053110564992328"

# The arcsin bound of the paper, as in tests/helpers.py.
TRIG_ARCSIN_SOURCE = (
    "2*(pi*(2-sqrt2)/(pi-2*sqrt2))*sin(x/2)"
    " - x*((sqrt2*(4-pi)/(pi-2*sqrt2)) + 2*cos(x/2))"
)
ARCSIN_RHS_SOURCE = (
    "(pi*(2-sqrt2)/(pi-2*sqrt2))*(sqrt(1+x) - sqrt(1-x))"
    " / ((sqrt2*(4-pi)/(pi-2*sqrt2)) + sqrt(1+x) + sqrt(1-x))"
)
ARCSIN_DIFF_SOURCE = f"{ARCSIN_RHS_SOURCE} - arcsin(x)"

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

# Time of one round at nominal speed (see speed.py) at the baseline commit.
# A run does floor(seconds / this) rounds, at least one, so every commit
# measures the same batch for the same --seconds and a faster program simply
# finishes sooner.
ROUND_SECONDS = {
    "kurepa_proof": 24.0,
    "elementary_mix": 12.5,
    "certify_fuzz": 5.5,
}

# Certifier fuzz round: one trial per slot, (stratum, lowest degree, highest
# degree).  Bands as in the acceptance test (0 "wide": comfortable margin,
# 1: planted violation, 2 "tight": tight margin); violations are split by
# whether P - delta is already negative at x = 0, because the certifier's
# depth-first search rejects those in milliseconds and the others in seconds
# (2:1 is close to the unstratified share of 58 %).  A trial's cost grows
# with its degree, and unstratified draws moved ops_per_s and the medians by
# 15-35 % from seed to seed, so the slots fix the degrees, and they are
# chosen so that each median falls in the middle of one slot's samples
# (tight at degree 2 for accepts, left-end violations at degree 6 for
# rejects) rather than on the edge between two.  The interior violation,
# which takes most of a round's time, is held to degrees 2-3.
FUZZ_SLOTS = (
    ("wide", 1, 3), ("wide", 4, 6),
    ("tight", 2, 2), ("tight", 2, 2), ("tight", 3, 4), ("tight", 5, 6),
    ("reject_left", 0, 3), ("reject_left", 6, 6),
    ("reject_interior", 2, 3),
)


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, int(seconds // ROUND_SECONDS[workload]))


def _prove(name, source, a, b, n, m, k, digits, expect, grid_multiplier=None):
    return {"kind": "prove", "name": name, "source": source, "a": str(a),
            "b": str(b), "n": str(n), "m": str(m), "k": k, "digits": digits,
            "grid_multiplier": grid_multiplier, "expect": expect}


def _frac(value: Fraction) -> str:
    if value.denominator == 1:
        return f"({value.numerator})"
    return f"({value.numerator}/{value.denominator})"


# --------------------------------------------------------------- kurepa_proof

def kurepa_round():
    """The paper's Kurepa bound and a near miss; no seed is involved.

    The proof is the acceptance test's (P35, n=2, m=0, k=1), with the Remez
    and residual grids at 4 points per reference node instead of 64; the
    full-size proof takes 96 s, which no benchmark run can afford.  The near
    miss rounds the slope down to 7 digits, so alpha = slope - K'(0) < 0 and
    the proof ends disproven at the sign precondition after the limits.
    """
    return [
        _prove("kurepa_bound", f"({KP0})*x - kurepa(x)", 0, 1, 2, 0, 1, 35,
               {"verdict": "proven", "stage": "complete", "kpp0": KPP0},
               grid_multiplier=4),
        _prove("kurepa_near_miss", "(1.432205)*x - kurepa(x)", 0, 1, 1, 0, 1,
               35, {"verdict": "disproven", "stage": "precondition"}),
    ]


# ------------------------------------------------------------- elementary_mix

def _bernstein_to_monomial(b):
    """Monomial coefficients of sum_i b_i C(d,i) x^i (1-x)^(d-i), exactly."""
    d = len(b) - 1
    out = [Fraction(0)] * (d + 1)
    for i, bi in enumerate(b):
        for j in range(d - i + 1):
            # x^i (1-x)^(d-i) = sum_j C(d-i, j) (-1)^j x^(i+j)
            out[i + j] += bi * math.comb(d, i) * math.comb(d - i, j) * (-1) ** j
    return out


def _planted(rng, sign_flip):
    """f = x^n (1-x)^m q(x) with q(x) = B(x) + exp(x)/8 and known end signs.

    B is a Bernstein-form polynomial whose coefficients are all at least
    1/4, so q >= 3/8 on [0, 1].  The exp term keeps the quotient from being
    a polynomial: at an exact representation delta_hat sits at the rounding
    floor and the sampled residual check compares rounding noise with
    rounding noise, which ends some proofs inconclusive at random.
    ``sign_flip`` makes the first ("a") or last ("b") coefficient at most
    -1, so q(a) or q(b) is negative: the inequality fails at that end and
    the proof must stop at the sign precondition.
    """
    n = rng.randint(0, 3)
    m = rng.randint(0, 3)
    d = rng.randint(1, 3)
    b = [Fraction(rng.randint(1, 8), 4) for _ in range(d + 1)]
    if sign_flip == "a":
        b[0] = -Fraction(rng.randint(4, 8), 4)
    elif sign_flip == "b":
        b[-1] = -Fraction(rng.randint(4, 8), 4)
    coeffs = _bernstein_to_monomial(b)
    terms = [f"{_frac(c)}*x^{i}" for i, c in enumerate(coeffs) if c != 0]
    parts = []
    if n:
        parts.append(f"x^{n}")
    if m:
        parts.append(f"(1-x)^{m}")
    parts.append("(" + " + ".join(terms) + " + exp(x)/8)")
    source = "*".join(parts)
    if sign_flip is None:
        expect = {"verdict": "proven", "stage": "complete"}
    else:
        expect = {"verdict": "disproven", "stage": "precondition"}
    name = "planted_positive" if sign_flip is None else "planted_negative"
    return _prove(name, source, 0, 1, n, m, d + 1, 30, expect)


def _dip(rng, lo, hi):
    """(x-c)^2 - d with a dip wide enough that the Remez grid samples it."""
    c = Fraction(rng.randint(lo, hi), 100)
    depth = Fraction(rng.randint(2, 20), 1000)
    side = "left" if hi <= 50 else "right"
    return _prove(f"dip_{side}", f"(x-{_frac(c)})^2-{_frac(depth)}", 0, 1, 0, 0,
                  1, 30, {"verdict": "disproven"})


def _near_violation(rng):
    """1 - cos(x-c) - 10^-e: false only on a dip of depth 10^-e around c.

    At degree 2 the error estimate is far below the function's variation,
    so the certifier must find the dip; the grid sees it only when it is
    wide enough, so the verdict is disproven or inconclusive, never proven.
    """
    c = Fraction(rng.randint(30, 70), 100)
    e = rng.randint(6, 12)
    return _prove("near_violation", f"1-cos(x-{_frac(c)})-(1/10^{e})", 0, 1, 0, 0,
                  2, 30, {"not_verdict": "proven"})


def _named():
    p50 = 50
    return [
        _prove("trig_arcsin", TRIG_ARCSIN_SOURCE, 0, "pi/2", 3, 1, 1, p50,
               {"verdict": "proven", "stage": "complete"}),
        _prove("arcsin_real_k8", ARCSIN_DIFF_SOURCE, 0, 1, 3, "0.5", 8, p50,
               {"verdict": "proven", "stage": "complete"}),
        _prove("arcsin_real_k1", ARCSIN_DIFF_SOURCE, 0, 1, 3, "0.5", 1, p50,
               {"verdict": "inconclusive", "stage": "positivity"}),
        _prove("arcsin_raw", ARCSIN_DIFF_SOURCE, 0, 1, 1, 1, 1, p50,
               {"verdict": "inconclusive", "stage": "endpoint_limits"}),
        _prove("taylor_exp", "exp(x)-1-x", 0, 1, 2, 0, 1, p50,
               {"verdict": "proven", "stage": "complete"}),
        _prove("taylor_sin", "sin(x)-x+x^3/6", 0, 1, 5, 0, 1, p50,
               {"verdict": "proven", "stage": "complete"}),
        _prove("taylor_arctan", "arctan(x)-x+x^3/3", 0, 1, 5, 0, 1, p50,
               {"verdict": "proven", "stage": "complete"}),
        _prove("taylor_log", "log(1+x)-2*x/(2+x)", 0, 1, 3, 0, 1, p50,
               {"verdict": "proven", "stage": "complete"}),
    ] + [
        {"kind": "cli", "name": f"cli_{path.stem}",
         "config": path.read_text(encoding="utf-8"),
         "expect": {"verdict": "proven", "exit_code": 0}}
        for path in sorted(CONFIG_DIR.glob("*.cfg"))
    ]


def elementary_round(rng):
    """Named problems plus seven generated ones.

    The rejected verdicts of a round sort into: two in milliseconds
    (arcsin_raw, the planted negative), the left dip (0.1 s),
    arcsin_real_k1 (0.3 s) and three that take seconds (the right dip, the
    near violations).  The median rejection therefore lands on
    arcsin_real_k1, whose input is fixed, instead of on the boundary between
    two of these groups.  The positions of the costly dips are kept to a
    narrow band because the certifier's cost grows with the positive stretch
    it must tile left of the dip.
    """
    return _named() + [
        _planted(rng, None), _planted(rng, None),
        _planted(rng, rng.choice("ab")),
        _dip(rng, 15, 45), _dip(rng, 60, 80),
        _near_violation(rng), _near_violation(rng),
    ]


# --------------------------------------------------------------- certify_fuzz

def fuzz_trials(seed):
    """Endless stream of the acceptance test's certifier fuzz trials.

    The numpy draws are made in the same order as in
    ``test_certifier_soundness_fuzz``, so the default seed replays that
    test's inputs.  Each trial carries its stratum and the float oracle's
    minimum of the shifted polynomial.
    """
    rng = np.random.default_rng(seed)
    trial = 0
    while True:
        degree = int(rng.integers(0, 7))
        mono = rng.uniform(-1.0, 1.0, degree + 1)
        delta = float(rng.uniform(0.0, 0.3))
        raw_min = poly_oracle_min(mono, 0.0, 1.0)
        band = trial % 3
        if band == 0:
            planted = float(rng.uniform(0.05, 0.6))
        elif band == 1:
            planted = float(rng.uniform(-0.5, -0.01))
        else:
            planted = float(rng.uniform(1e-4, 1e-2))
        mono[0] += delta + planted - raw_min
        oracle_min = poly_oracle_min(mono, 0.0, 1.0)
        if band == 0:
            stratum = "wide"
        elif band == 2:
            stratum = "tight"
        elif mono[0] < delta:
            stratum = "reject_left"
        else:
            stratum = "reject_interior"
        yield {"kind": "certify", "name": f"fuzz_{stratum}", "trial": trial,
               "coefficients": [repr(float(c)) for c in mono],
               "delta": repr(delta), "stratum": stratum,
               "expect": {"oracle_min": oracle_min, "delta": delta}}
        trial += 1


def fuzz_rounds(seed, rounds):
    """Fill rounds slot by slot from the trial stream, taking trials in order."""
    pending = []
    stream = fuzz_trials(seed)
    out = []
    for _ in range(rounds):
        picked = []
        for stratum, lo, hi in FUZZ_SLOTS:
            fits = [t for t in pending
                    if t["stratum"] == stratum and lo <= len(t["coefficients"]) - 1 <= hi]
            while not fits:
                trial = next(stream)
                pending.append(trial)
                if trial["stratum"] == stratum and lo <= len(trial["coefficients"]) - 1 <= hi:
                    fits.append(trial)
            pending.remove(fits[0])
            picked.append(fits[0])
        out.append(sorted(picked, key=lambda t: t["trial"]))
    return out


# -------------------------------------------------------------------- entry

WORKLOADS = ("kurepa_proof", "elementary_mix", "certify_fuzz")


def build(workload: str, seed: int, rounds: int):
    """The workload's operations for ``rounds`` rounds, as a flat list."""
    if workload == "kurepa_proof":
        return [op for _ in range(rounds) for op in kurepa_round()]
    if workload == "elementary_mix":
        rng = random.Random(seed)
        return [op for _ in range(rounds) for op in elementary_round(rng)]
    if workload == "certify_fuzz":
        return [op for rnd in fuzz_rounds(seed, rounds) for op in rnd]
    raise ValueError(f"unknown workload {workload!r}")
