"""Tests of the benchmark harness itself (not of ineqprove).

    PYTHONPATH=src python3 -m pytest -q bench/test_harness.py
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402
from spread import compare  # noqa: E402
from stats import quartile_spread, tail  # noqa: E402
from tracer import Tracer, _targets, layer_metrics, merge_layers  # noqa: E402


def test_one_seed_gives_byte_identical_inputs():
    for name in workloads.WORKLOADS:
        first = json.dumps(workloads.build(name, 7, 2), sort_keys=True)
        again = json.dumps(workloads.build(name, 7, 2), sort_keys=True)
        assert first == again
    for name in ("elementary_mix", "certify_fuzz"):
        assert workloads.build(name, 7, 2) != workloads.build(name, 8, 2)


def test_rounds_have_a_fixed_composition():
    for seed in (1, 2, 3):
        trials = workloads.build("certify_fuzz", seed, 3)
        slots = sorted((t["stratum"], len(t["coefficients"]) - 1) for t in trials)
        for slot in set(workloads.FUZZ_SLOTS):
            stratum, lo, hi = slot
            fits = [s for s in slots if s[0] == stratum and lo <= s[1] <= hi]
            assert len(fits) == 3 * workloads.FUZZ_SLOTS.count(slot)
        mix = [op["name"] for op in workloads.build("elementary_mix", seed, 1)]
        assert mix == [op["name"] for op in workloads.build("elementary_mix", 99, 1)]


def test_default_seed_replays_the_acceptance_fuzz_stream():
    trials = workloads.fuzz_trials(workloads.DEFAULT_SEED)
    first = [next(trials) for _ in range(6)]
    assert [t["trial"] for t in first] == list(range(6))
    assert [t["stratum"] for t in first[0::3]] == ["wide", "wide"]
    assert [t["stratum"] for t in first[2::3]] == ["tight", "tight"]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert tail(range(1, 101)) == (90, 90.0, 100)
    assert tail(range(1, 21)) == (10, 50.0, 20)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert tail(range(1, 20)) == (19, 100.0, 19)


def test_compare_refuses_different_backends():
    def runs(backend):
        return {"runs": [{"fingerprint": {"backend": backend},
                          "result": {"metrics": {"setup_s": {"value": 0.2, "unit": "s"}}}}]}

    assert compare(runs("python"), runs("python"))
    with pytest.raises(SystemExit, match="backends differ"):
        compare(runs("python"), runs("gmpy"))


def test_quartile_spread():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    assert abs(quartile_spread(values) - (8.25 - 2.75) / 5.5) < 1e-12


def test_traced_run_restores_every_wrapped_name_and_matches_the_report():
    from ineqprove import Precision, ProofSettings, certify

    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in _targets()]
    with Tracer() as tracer:
        assert all(owner.__dict__[attr] is not fn for owner, attr, fn in originals)
        tracer.op = 0
        report = certify.prove_inequality("x*(1-x)", 0, 1, 1, 1, 1,
                                          ProofSettings(precision=Precision(30)))
        certify.report_to_json(report)
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)

    raw, per_op = layer_metrics(tracer)
    assert report.verdict == "proven"
    assert per_op[0] == {key: report.timings[key] for key in per_op[0]}
    metrics = merge_layers([raw])
    assert metrics["quotient.g.fresh"] == report.timings["g_evaluations"]
    assert metrics["quadrature.kurepa.calls"] == 0
    assert metrics["certify.certify_positive.calls"] == 1


def test_names_are_restored_when_the_traced_code_raises():
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in _targets()]
    try:
        with Tracer():
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)
