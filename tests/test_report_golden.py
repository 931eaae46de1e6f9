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

from ineqprove import Precision, ProofSettings, prove_inequality, report_to_json
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
    "inconclusive_minimax": ("exp(x)", 0, 1, 0, 0, 3, {"max_iterations": 1},
                             "inconclusive", "minimax"),
    "inconclusive_equioscillation": ("exp(x)", 0, 1, 0, 0, 3,
                                     {"equioscillation_rel_tol": "1e-40"},
                                     "inconclusive", "equioscillation"),
    "inconclusive_residual_check": ("1+exp(-10^6*(x-3/10)^2)", 0, 1, 0, 0, 2,
                                    {"grid_multiplier": 4, "residual_grid_size": 4000},
                                    "inconclusive", "residual_check"),
    "inconclusive_positivity": ("x^2+1/100", 0, 1, 0, 0, 1, {}, "inconclusive",
                                "positivity"),
    # a real-exponent denominator, (1-x)^(1/2)
    "proven_real_exponent": (ARCSIN_DIFF_SOURCE, 0, 1, 3, "1/2", 8, {}, "proven",
                             "complete"),
    # a kurepa node: the slope just below K'(0) makes alpha negative
    "disproven_kurepa_near_miss": ("(1.432205)*x - kurepa(x)", 0, 1, 1, 0, 1, {},
                                   "disproven", "precondition"),
}

# sha256 of report_to_json for each case, at 30 digits
REPORT_HASHES = {
    "proven": "f416f04bf3b19c23d7d7c0cffaade158403520450c4b9bfcf66a5599ae87a0ec",
    "disproven_alpha": "dc78ac2c463c69139bdb8bc28ba7d31b93c88b4a5348aaf6bf96453e9fa4597b",
    "disproven_beta": "030e3f593531b3aedef2be84398e08b359c091b4039f8082b92e1be0c46f4352",
    "disproven_witness": "1a63c7f1261d1b1995ceeff13437ae13929748a4a429d133a117504b9e8168da",
    "inconclusive_endpoint_limits":
        "6ac35d3f21a0d24dd9a8a50d9d0e7fb649364b8a88ac7f23e75ded7b9cfbc620",
    "inconclusive_precondition":
        "165c642ebea4c2d6712d17f0addf8ca3b4665a2b0e0dc1bb200071e228b6a807",
    "inconclusive_minimax": "406f95c10c648c69560dfc53f542cd588318a2ae0e99d67bad12f42b438065e7",
    "inconclusive_equioscillation":
        "d4b34d4d13e6b5589267bd94a646a1b3f63851800a7f181f0cb877fb2bff37b5",
    "inconclusive_residual_check":
        "21518139ec9e6019aaf8bd445cf22ee62cf84bc6c72cc7268376da33ae99197b",
    "inconclusive_positivity":
        "81462190a6794d44b4a9a5fc18010b3a60a07a4d9b0bf1703f0ba5bb2c0460a7",
    "proven_real_exponent":
        "9062d687bef4782eacbce71d72c234af60344fdc0aa28c4c2ea5bb5422c771b7",
    "disproven_kurepa_near_miss":
        "3bb2c48fc935ed8bebdab8efef6a4b2efaca21bf94af0cbc7b5003c1248b7ff1",
}

# sha256 of the report file `ineqprove prove --config demos/configs/<name>` writes
CONFIG_HASHES = {
    "arcsin_trig.cfg": "62121c274877af38802b2cdc3d215d4f20e53e57ac80f6a073720fccd59f3805",
    "parabola.cfg": "f586d6136876525d8da0bf7897135815215ecf3efb0442bae3c312cf9191c224",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes(name):
    f, a, b, n, m, k, extra, verdict, stage = CASES[name]
    report = prove_inequality(f, a, b, n, m, k,
                              ProofSettings(precision=Precision(30), **extra))
    assert (report.verdict, report.diagnostics["stage"]) == (verdict, stage)
    assert _sha256(report_to_json(report).encode("utf-8")) == REPORT_HASHES[name]


@pytest.mark.parametrize("config", sorted(CONFIG_HASHES))
def test_cli_report_bytes(config, tmp_path):
    out = tmp_path / "report.json"
    assert main(["prove", "--config", str(CONFIG_DIR / config), "--out", str(out)]) == 0
    assert _sha256(out.read_bytes()) == CONFIG_HASHES[config]
