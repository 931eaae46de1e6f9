"""Run benchmark operations in a fresh interpreter.

Reads a job from standard input as JSON, ``{"ops": [...], "trace": bool,
"tmp": dir}``, runs every operation in order and prints one JSON line with
each operation's outcome, latency, correctness and report digest (plus the
per-layer raw counts when traced).  Only the call into the program is
timed: building settings, writing config files, the Chebyshev conversion of
a fuzz polynomial and every check happen outside the timer.  Latencies are
given as wall seconds and at the nominal machine speed (see speed.py).
"""

from __future__ import annotations

import hashlib
import importlib
import json
import statistics
import sys
from pathlib import Path

import mpmath

from oracle import soundness_miss
from speed import SpeedProbe
from tracer import Tracer, layer_metrics

def _digest(text) -> str:
    data = text if isinstance(text, bytes) else text.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _check_verdict(expect, verdict, stage):
    if "verdict" in expect and verdict != expect["verdict"]:
        return f"verdict {verdict} (stage {stage}), expected {expect['verdict']}"
    if "not_verdict" in expect and verdict == expect["not_verdict"]:
        return f"verdict {verdict} on a planted violation"
    if "stage" in expect and stage != expect["stage"]:
        return f"stage {stage}, expected {expect['stage']}"
    return None


class Runner:
    def __init__(self, tmp: Path, probe: SpeedProbe):
        self.probe = probe
        self.ip = importlib.import_module("ineqprove")
        self.certify = importlib.import_module("ineqprove.certify")
        self.cli = importlib.import_module("ineqprove.cli")
        self.remez = importlib.import_module("ineqprove.remez")
        self.tmp = tmp

    def prove(self, op):
        ip = self.ip
        extra = {}
        if op["grid_multiplier"] is not None:
            extra["grid_multiplier"] = op["grid_multiplier"]
        settings = ip.ProofSettings(precision=ip.Precision(op["digits"]), **extra)

        def call():
            report = self.certify.prove_inequality(op["source"], op["a"], op["b"], op["n"],
                                                   op["m"], op["k"], settings)
            return report, self.certify.report_to_json(report)

        (report, text), wall, elapsed = self.probe.time(call)
        stage = report.diagnostics.get("stage")
        why = _check_verdict(op["expect"], report.verdict, stage)
        if why is None and "kpp0" in op["expect"]:
            with mpmath.workdps(40):
                want = -mpmath.mpf(op["expect"]["kpp0"]) / 2
                if not abs(report.alpha - want) <= mpmath.mpf("1e-6") * abs(want):
                    why = f"alpha {report.alpha} is not within 1e-6 of -K''(0)/2 = {want}"
        return report.verdict, wall, elapsed, why, _digest(text), dict(report.timings)

    def cli_prove(self, op):
        config = self.tmp / f"{op['name']}.cfg"
        out = self.tmp / f"{op['name']}_report.json"
        config.write_text(op["config"], encoding="utf-8")
        out.unlink(missing_ok=True)
        code, wall, elapsed = self.probe.time(
            lambda: self.cli.main(["prove", "--config", str(config), "--out", str(out)]))
        text = out.read_bytes()
        doc = json.loads(text)
        why = _check_verdict(op["expect"], doc["verdict"], doc["diagnostics"].get("stage"))
        if why is None and code != op["expect"]["exit_code"]:
            why = f"exit code {code}, expected {op['expect']['exit_code']}"
        return doc["verdict"], wall, elapsed, why, _digest(text), doc["timings"]

    def certify_trial(self, op):
        # The acceptance suite builds its fuzz polynomials at an ambient
        # 60 digits (tests/conftest.py); do the same so the inputs match.
        with mpmath.workdps(60):
            poly = self.remez.Polynomial.from_monomial(op["coefficients"], 0, 1)
        p30 = self.ip.Precision(30)

        def call():
            try:
                return self.certify.certify_positive(poly, op["delta"], "1.000001", p30)
            except self.ip.CertificationError:
                return None

        cert, wall, elapsed = self.probe.time(call)
        outcome = "rejected" if cert is None else "certified"
        expect = op["expect"]
        why = soundness_miss(cert is not None, expect["oracle_min"], expect["delta"])
        summary = outcome if cert is None else (
            f"{outcome}:{len(cert.subintervals)}:{cert.global_min_bound}")
        return outcome, wall, elapsed, why, _digest(summary), None

    def run(self, op):
        kind = {"prove": self.prove, "cli": self.cli_prove,
                "certify": self.certify_trial}[op["kind"]]
        try:
            outcome, wall, elapsed, why, digest, timings = kind(op)
        except Exception as exc:  # an unexpected exception is a failed operation
            return {"name": op["name"], "outcome": "error", "s": None, "wall_s": None,
                    "why": f"{type(exc).__name__}: {exc}", "digest": None,
                    "timings": None}
        return {"name": op["name"], "outcome": outcome, "s": elapsed, "wall_s": wall,
                "why": why, "digest": digest, "timings": timings}


def _check_counters(results, per_op):
    """Traced counts must equal the counters the report itself carries."""
    for i, result in enumerate(results):
        timings = result["timings"]
        if result["why"] is not None or not timings:
            continue
        counted = per_op.get(i, {})
        for key, value in counted.items():
            if timings.get(key) != value:
                result["why"] = (f"traced {key} = {value} but the report says "
                                 f"{timings.get(key)}")
                break


def main():
    job = json.load(sys.stdin)
    root = Path(job["root"]).resolve()
    probe = SpeedProbe()
    runner = Runner(Path(job["tmp"]), probe)
    source = Path(runner.ip.__file__).resolve()
    if root / "src" not in source.parents:
        raise SystemExit(f"imported ineqprove from {source}, not from {root / 'src'}")
    results = []
    layers = None
    with probe:
        if job["trace"]:
            with Tracer(probe.clock) as tracer:
                for i, op in enumerate(job["ops"]):
                    tracer.op = i
                    results.append(runner.run(op))
            layers, per_op = layer_metrics(tracer)
            _check_counters(results, per_op)
        else:
            for op in job["ops"]:
                results.append(runner.run(op))
    print(json.dumps({"results": results, "layers": layers,
                      "chunk_s": statistics.fmean(probe.chunks)}))


if __name__ == "__main__":
    main()
