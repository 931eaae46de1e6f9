"""Pinned report bytes: one cheap proof per way the pipeline can end.

Each case hashes ``report_to_json`` (or the CLI's report file) and compares
it with a recorded SHA-256, so a refactor of the pipeline that moves a
single byte of a report shows here.  The bytes depend on the arithmetic
library, so the hashes hold for the mpmath version and backend they were
recorded with; under another one the cases are skipped.
"""

import hashlib
from pathlib import Path

import pytest

from ineqprove import Precision, ProofSettings, prove_inequality, remez, report_to_json
from ineqprove.cli import main

from helpers import ARCSIN_DIFF_SOURCE, requires_recorded_mpmath

CONFIG_DIR = Path(__file__).resolve().parent.parent / "demos" / "configs"

pytestmark = requires_recorded_mpmath

# name: (f, a, b, n, m, k, extra settings, verdict, stage)
CASES = {
    "proven": ("exp(x)-1-x", 0, 1, 2, 0, 1, {}, "proven", "complete"),
    "disproven_alpha": ("-x", 0, 1, 1, 0, 1, {}, "disproven", "precondition"),
    "disproven_beta": ("x*(1/2-x)", 0, 1, 1, 0, 1, {}, "disproven", "precondition"),
    "disproven_witness": ("(x-1/2)^2-1/100", 0, 1, 0, 0, 1, {}, "disproven",
                          "positivity"),
    "inconclusive_endpoint_limits": ("x", 0, 1, 2, 0, 1, {}, "inconclusive",
                                     "endpoint_limits"),
    "inconclusive_precondition": ("x^2", 0, 1, 1, 0, 1, {}, "inconclusive",
                                  "precondition"),
    "inconclusive_minimax": ("exp(x)", 0, 1, 0, 0, 3, {}, "inconclusive", "minimax"),
    "inconclusive_equioscillation": ("exp(x)", 0, 1, 0, 0, 3, {}, "inconclusive",
                                     "equioscillation"),
    # a bump on a point of the 33-point residual grid that the 17-point
    # Remez grid lacks
    "inconclusive_residual_check": ("1+exp(-10^8*(x-0.450991429835)^2)", 0, 1, 0, 0, 2,
                                    {"grid_multiplier": 4}, "inconclusive", "residual_check"),
    "inconclusive_positivity": ("x^2+1/100", 0, 1, 0, 0, 1, {}, "inconclusive",
                                "positivity"),
    # a real-exponent denominator, (1-x)^(1/2)
    "proven_real_exponent": (ARCSIN_DIFF_SOURCE, 0, 1, 3, "1/2", 8, {}, "proven",
                             "complete"),
    # a kurepa node: the slope just below K'(0) makes alpha negative
    "disproven_kurepa_near_miss": ("(1.432205)*x - kurepa(x)", 0, 1, 1, 0, 1, {},
                                   "disproven", "precondition"),
}

# remez constants a case sets: name -> (constant, value)
PATCHES = {
    "inconclusive_minimax": ("MAX_ITERATIONS", 1),
    "inconclusive_equioscillation": ("EQUIOSCILLATION_REL_TOL", "1e-40"),
}

# sha256 of report_to_json for each case, at 30 digits
REPORT_HASHES = {
    "proven": "eb63d754cf66dc007aad9115e05e95f4e6eb1acddb8a4888cfeb0207db886b2a",
    "disproven_alpha": "2232f7bcde1547bb6e9eba159b1ca0fc04a379656acfe4cafde9f37207ee7912",
    "disproven_beta": "4d36c5a2229763e2d0b1a0432b10e3bf8c843ec2e039b3bb2b50810b22fe98c4",
    "disproven_witness": "349595e6ab4831a056d2ba135b4d4bbd8fb69dd28bfa0942352b72c15c32bdec",
    "inconclusive_endpoint_limits":
        "23d2e1f745408aa6a927d4e8a2b575e442829a95e0209a96e3b78b3f1d86c160",
    "inconclusive_precondition":
        "972fb233d507d690d791024711db4dfc658c2352e86a4a4c2d824b52c0c9f0f9",
    "inconclusive_minimax": "d52cb94f6c8cbf6b42a38e00bc1d02d421f56a8f15bff72cecc485ca559439f0",
    "inconclusive_equioscillation":
        "5649f7fe095874135a9ecfc1ff4368ea81c73161521b83ee8189ec52f2a21071",
    "inconclusive_residual_check":
        "debf0bbe017c6ace1dd7eff023304e75934823c76ccbea6341e75038690e9743",
    "inconclusive_positivity":
        "d298150a6f0593a10643d79b12d27f61d41bd01035481749b69abff5ec444097",
    "proven_real_exponent":
        "5861a4af6391e77432e17abf2c18018a0b718c77a52c431b85468340bad14a97",
    "disproven_kurepa_near_miss":
        "0cff4d7dab03a103079d24bfad10118df73481823588642a402aa8b13833850d",
}

# sha256 of the report file `ineqprove prove --config demos/configs/<name>` writes
CONFIG_HASHES = {
    "arcsin_trig.cfg": "e51b867a75843d3f1a14fb258a9a7aa07fc832fe68dd188c29a7adf688f84d0c",
    "parabola.cfg": "365b31cbf6f6629d159f36ffbdfdd6afc93f4ffdec5869964f7d4f0dfa6a1092",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes(name, monkeypatch):
    f, a, b, n, m, k, extra, verdict, stage = CASES[name]
    if name in PATCHES:
        monkeypatch.setattr(remez, *PATCHES[name])
    report = prove_inequality(f, a, b, n, m, k,
                              ProofSettings(precision=Precision(30), **extra))
    assert (report.verdict, report.diagnostics["stage"]) == (verdict, stage)
    assert _sha256(report_to_json(report).encode("utf-8")) == REPORT_HASHES[name]


@pytest.mark.parametrize("config", sorted(CONFIG_HASHES))
def test_cli_report_bytes(config, tmp_path):
    out = tmp_path / "report.json"
    assert main(["prove", "--config", str(CONFIG_DIR / config), "--out", str(out)]) == 0
    assert _sha256(out.read_bytes()) == CONFIG_HASHES[config]
