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
    "proven": "8cdde7a546d03dafdc15b364d301271c65f4274cf02bcbc8e4909ddd4ba331c9",
    "disproven_alpha": "5f24c91e2bf87e6c6a42daca7ed7a6644481fd4fab2c13c829e3ba7c84ab9fc6",
    "disproven_beta": "ca74573a0b5732a4ebb294b0e807cec8bd92eef9e9cceedddb05b779426754ee",
    "disproven_witness": "fea31391dbe4e5d462c52cf2178c6c25dedd2b24e03751c5ac1b31ba6b3ae484",
    "inconclusive_endpoint_limits":
        "46d3403c673e367a23becea4a2ad1bc5845b116d89558aec44facb7845a5897e",
    "inconclusive_precondition":
        "d09de09f9c0ebb3588cd7f5b3cd4758600dfbaaffa88f2351975683765546214",
    "inconclusive_minimax": "0546bf449d57784f6aced3ad09b6dd042febcfc2507d5bbe2f9624286b185ea2",
    "inconclusive_equioscillation":
        "da0b426466bfc1369ef655675995f9d65d17e02c18e2c3d7bf7f6cf2412f7bde",
    "inconclusive_residual_check":
        "ec47dd480088e5f35d414c5dad94b6bf90431857faf5cb899ba9e518e6334dd8",
    "inconclusive_positivity":
        "9580bfd5b61b38d6093dabc2567958ef03a220c426733b228721704979882500",
    "proven_real_exponent":
        "2d5c86e8c1a3bf6d9c44dc52edb5335c396de58f41f703158c1cd673d0e1c63c",
    "disproven_kurepa_near_miss":
        "8e28bd8dc99bf034f106ffa4744f07fa987843db7dbf68ceb54dfd137ee1e14e",
}

# sha256 of the report file `ineqprove prove --config demos/configs/<name>` writes
CONFIG_HASHES = {
    "arcsin_trig.cfg": "1b9526a0c85c9e48ab0394b4b0c7a39cf92061b4dc674804a00b49a0e95b961e",
    "parabola.cfg": "311c58a0217ff4e5f3a5a8b33c24d6974e4842c00cc7a07f9470c9d50377ae5c",
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
