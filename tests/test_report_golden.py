"""Pinned report bytes: one cheap proof per way the pipeline can end.

Each case hashes ``report_to_json`` (or the CLI's report file) and compares
it with a recorded SHA-256, so a refactor of the pipeline that moves a
single byte of a report shows here.  The bytes depend on the arithmetic
library, so the hashes hold for the mpmath version and backend they were
recorded with; under another one the cases are skipped.
"""

import dataclasses
import hashlib
from pathlib import Path

import pytest
from mpmath.libmp import mpf_neg

from ineqprove import Precision, ProofSettings, certify, prove_inequality, remez, report_to_json
from ineqprove.cli import main

from helpers import ARCSIN_DIFF_SOURCE, requires_recorded_mpmath

CONFIG_DIR = Path(__file__).resolve().parent.parent / "demos" / "configs"

pytestmark = requires_recorded_mpmath

# name: (f, a, b, n, m, k, extra settings, verdict, stage)
CASES = {
    "proven": ("exp(x)-1-x", 0, 1, 2, 0, 1, {}, "proven", "complete"),
    "disproven_alpha": ("-x", 0, 1, 1, 0, 1, {}, "disproven", "precondition"),
    "disproven_beta": ("x*(1/2-x)", 0, 1, 1, 0, 1, {}, "disproven", "precondition"),
    # the first sample of the Remez grid where f is negative ends the run
    "disproven_witness": ("(x-1/2)^2-1/100", 0, 1, 0, 0, 1, {}, "disproven", "minimax"),
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
    # a kurepa node: the slope just below K'(0) makes alpha negative, and
    # the probe nearest 0 is the witness
    "disproven_kurepa_near_miss": ("(1.432205)*x - kurepa(x)", 0, 1, 1, 0, 1, {},
                                   "disproven", "precondition"),
}


def _flip_node_one(result, p):
    """verify_equioscillation of ``result`` with the sign of its node 1 residual flipped."""
    residuals = dict(result.residuals)
    t = result.nodes[1]._mpf_
    residuals[t] = mpf_neg(residuals[t])
    return remez.verify_equioscillation(dataclasses.replace(result, residuals=residuals), p)


# what a case patches: name -> (module, attribute, value)
PATCHES = {
    "inconclusive_minimax": (remez, "MAX_ITERATIONS", 1),
    # nodes 0 and 1 then share a sign, which the stage's sign rule refuses
    "inconclusive_equioscillation": (certify, "verify_equioscillation", _flip_node_one),
}

# sha256 of report_to_json for each case, at 30 digits
REPORT_HASHES = {
    "proven": "386808aafad47b273ea294ffd9a362d62cfaaa58037e21be385d95c725446848",
    "disproven_alpha": "030ccde9aec989c40d6a2ccf2375ebe3c7f704d08fbac42291abcdd624f245d7",
    "disproven_beta": "e65980ed3495016340a60ea01164901548a7bc89a53f42a2e4dfd2406dd7d4e6",
    "disproven_witness": "2025a11c773e719b0eebdd18f6ad749a2939c5cec03565a8bdaf899901d2e3f2",
    "inconclusive_endpoint_limits":
        "a0255f9fd0c48a860ff3d0729239a6b17b64d035f56d73d07f623fd08e742ed0",
    "inconclusive_precondition":
        "14baf10c9b016d195f3dc96aa2641c453a0642f3544a109fd6daf3e16c4721e7",
    "inconclusive_minimax": "0552a5c16a49491216729f7e53b02ef7226ad46334995d94d9bbfc3821bd3965",
    "inconclusive_equioscillation":
        "db0d756a30c9bd36f69eaf914b92b91edb8a9bf1c3e76d7b1e23c7ee88dafaa3",
    "inconclusive_residual_check":
        "8bd0cf84d5ee35f87bceb8186b663a41f5e5cdaa1df5af1ec77568e4b4df29c5",
    "inconclusive_positivity":
        "64007e0db2ce1cf157631c0277814b9922036cd8b9be1a18689bbeefb3786006",
    "proven_real_exponent":
        "6400049e90af11739072c9c78692505726dee0d1a8fabf744e1d1934cb568f5e",
    "disproven_kurepa_near_miss":
        "fc2b5ae87a68f259f41d6976aa5dc7734319e9c71611867944077b8702aa2486",
}

# sha256 of the report file `ineqprove prove --config demos/configs/<name>` writes
CONFIG_HASHES = {
    "arcsin_trig.cfg": "8b2c69842d7d68ccc9e50b56a162aa9619cda4a7edee97addac8b9b09adfcaf6",
    "parabola.cfg": "23241a8ee2259cc3cf9e45a947cfdc69a6c5595abe7f5ea65c24f0fdf5524cde",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes(name, monkeypatch):
    f, a, b, n, m, k, extra, verdict, stage = CASES[name]
    if name in PATCHES:
        monkeypatch.setattr(*PATCHES[name])
    report = prove_inequality(f, a, b, n, m, k,
                              ProofSettings(precision=Precision(30), **extra))
    assert (report.verdict, report.diagnostics["stage"]) == (verdict, stage)
    assert _sha256(report_to_json(report).encode("utf-8")) == REPORT_HASHES[name]


@pytest.mark.parametrize("config", sorted(CONFIG_HASHES))
def test_cli_report_bytes(config, tmp_path):
    out = tmp_path / "report.json"
    assert main(["prove", "--config", str(CONFIG_DIR / config), "--out", str(out)]) == 0
    assert _sha256(out.read_bytes()) == CONFIG_HASHES[config]
