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
    "proven": "af5dff677f826bef3b9c07fc2be5671b53b3b924e978df62666921cbf710f5b5",
    "disproven_alpha": "951b78f37ca9af11b998d32ae77540b6ee6d2b0cbf63609f54a2754f3ca26d4e",
    "disproven_beta": "eef60fea6141d27ac8652b43743245962cd04ec71ab41d78bd015991b66368fe",
    "disproven_witness": "44a60ea44c699d7755c765bd49d40598bd1d3873b7c0c340b59c52e3832b5d29",
    "inconclusive_endpoint_limits":
        "40ccaa80213431306e1d2ad2e2cdee9e16be7511395f86ead9013ebb08d7bad3",
    "inconclusive_precondition":
        "60aec91c8a89bc3cf132646cdac1debd961b8153457a14dc8f09f0700a3997b9",
    "inconclusive_minimax": "74c69d313ce5e800f4d08790b9cce1ed8fab5c66f5e38556b72d18da97472694",
    "inconclusive_equioscillation":
        "c152903ebf9ae7c4407afa0adb0957d7cdc7b5f715a10ff952c0b818c211be8e",
    "inconclusive_residual_check":
        "9683220e0bdf89534e34f3b568ee3c5ef3ccb22d2f52f849c5a8b723d9789224",
    "inconclusive_positivity":
        "dc3c37522c041aeb69384fb4a4d5d2234a29b02c037b76e74d09b4f688255c8c",
    "proven_real_exponent":
        "2d5c86e8c1a3bf6d9c44dc52edb5335c396de58f41f703158c1cd673d0e1c63c",
    "disproven_kurepa_near_miss":
        "98e94da05cdf994b79c0a77a8ea13c0bc750f8348d809a2c58a0ccb80ee5dde5",
}

# sha256 of the report file `ineqprove prove --config demos/configs/<name>` writes
CONFIG_HASHES = {
    "arcsin_trig.cfg": "40cf80a562f65193ea5d203c8eb04c26ee96fef5d52beb2d56e78dbdc777ca5f",
    "parabola.cfg": "955facefc69d56ad9afb04b69e3f3d324b972150f1903431a965e264648190c6",
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
