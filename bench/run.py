"""ineqprove benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload elementary_mix --seed 7 --seconds 40 --trace 0

Prints every metric by name and unit, then, as the last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See bench/README.md for the workloads and metrics.

This process never imports ``ineqprove``.  It makes the inputs, measures
set-up in fresh interpreters, and runs the operations in worker processes
(bench/worker.py) that import the package from this checkout's ``src``:
one fresh interpreter per Kurepa operation, one per batch.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import mpmath

import workloads
from speed import NOMINAL_CHUNK_S, SpeedProbe
from stats import tail
from tracer import LAYER_UNITS, merge_layers

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PROBES = 7
# Every run must end within 180 s; workers get what is left of this budget.
RUN_BUDGET_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "accept_p50_s": "s",
    "accept_tail_s": "s",
    "reject_p50_s": "s",
    "reject_tail_s": "s",
    "peak_rss_mib": "MiB",
}


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def fingerprint():
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": [round(v, 2) for v in os.getloadavg()],
    }


def _env():
    # the checkout's source only, ahead of anything installed
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def measure_setup(deadline):
    """Median time, at nominal speed, of a fresh interpreter importing ineqprove."""
    probe = SpeedProbe()
    times = []
    for _ in range(SETUP_PROBES):
        _, _, nominal = probe.time(lambda: subprocess.run(
            [sys.executable, "-c", "import ineqprove"], env=_env(), cwd=ROOT,
            check=True, timeout=max(1.0, deadline - time.monotonic())), around=3)
        times.append(nominal)
    return statistics.median(times)


def run_worker(ops, trace, tmp, deadline):
    job = json.dumps({"ops": ops, "trace": trace, "tmp": tmp, "root": str(ROOT)})
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise HarnessError("run budget exhausted before a worker could start")
    try:
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py")], input=job,
                              capture_output=True, text=True, env=_env(), cwd=ROOT,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"worker exceeded the {RUN_BUDGET_S:.0f} s run budget") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise HarnessError(f"worker failed (exit {proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pass(workload, ops, trace, tmp, deadline):
    """Run every operation once; Kurepa operations each in a fresh interpreter."""
    if workload == "kurepa_proof":
        outs = [run_worker([op], trace, tmp, deadline) for op in ops]
    else:
        outs = [run_worker(ops, trace, tmp, deadline)]
    results = [r for out in outs for r in out["results"]]
    layers = [out["layers"] for out in outs if out["layers"] is not None]
    slowdown = statistics.median(out["chunk_s"] for out in outs) / NOMINAL_CHUNK_S
    return results, layers, slowdown


def end_to_end(results, setup_s, peak_rss_mib):
    accepted = [r["s"] for r in results if r["outcome"] in ("proven", "certified")]
    rejected = [r["s"] for r in results
                if r["outcome"] in ("disproven", "inconclusive", "rejected")]
    if not accepted or not rejected:
        raise HarnessError("a workload must complete both accepted and rejected operations")
    busy = sum(accepted) + sum(rejected)
    a_tail, a_pct, a_n = tail(accepted)
    r_tail, r_pct, r_n = tail(rejected)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": (len(accepted) + len(rejected)) / busy,
        "accept_p50_s": statistics.median(accepted),
        "accept_tail_s": a_tail,
        "reject_p50_s": statistics.median(rejected),
        "reject_tail_s": r_tail,
        "peak_rss_mib": peak_rss_mib,
    }
    notes = {
        "accept_tail_s": f"p{a_pct:.1f} of {a_n} accepted",
        "reject_tail_s": f"p{r_pct:.1f} of {r_n} rejected",
        "accept_p50_s": f"{a_n} accepted",
        "reject_p50_s": f"{r_n} rejected",
        "ops_per_s": f"{len(results)} operations",
    }
    return metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ineqprove" / "__init__.py").is_file():
        print(f"error: no ineqprove source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # on SIGTERM unwind normally: subprocess.run kills and reaps the worker,
    # and the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    deadline = time.monotonic() + RUN_BUDGET_S
    env = fingerprint()
    rounds = workloads.rounds_for(args.workload, args.seconds)
    if args.trace:
        # the traced run measures every operation twice (untraced, traced)
        rounds = max(1, rounds // 2)
    ops = workloads.build(args.workload, args.seed, rounds)
    print(f"workload {args.workload} seed {args.seed} rounds {rounds} "
          f"operations {len(ops)} trace {args.trace}")
    print("fingerprint " + json.dumps(env, sort_keys=True))

    try:
        setup_s = measure_setup(deadline)
        with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
            results, _, slowdown = run_pass(args.workload, ops, False, tmp, deadline)
            peak_rss_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
            traced = layers = None
            if args.trace:
                traced, layers, _ = run_pass(args.workload, ops, True, tmp, deadline)
        metrics, notes = end_to_end(results, setup_s, peak_rss_mib)
    except (HarnessError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failures = []
    for i, result in enumerate(results):
        why = result["why"]
        if why is None and traced is not None:
            why = traced[i]["why"]
            if why is None and traced[i]["digest"] != result["digest"]:
                why = "report bytes differ between the untraced and the traced run"
        if why is not None:
            failures.append(f"{i} {result['name']}: {why}")
    for line in failures:
        print(f"FAIL {line}")

    if args.workload == "kurepa_proof":
        proof = [r["s"] for r in results if r["name"] == "kurepa_bound"]
        print(f"  {'verdict_s':<40} {statistics.median(proof):>14.6g} s"
              f"   (the Kurepa proof; equals accept_p50_s)")
    for name, value in metrics.items():
        note = notes.get(name)
        print(f"  {name:<40} {value:>14.6g} {END_TO_END_UNITS[name]}"
              + (f"   ({note})" if note else ""))
    print(f"  {'error_rate':<40} {len(failures) / len(results):>14.6g}"
          f"   ({len(failures)} of {len(results)} failed)")
    wall = [r["wall_s"] for r in results if r["wall_s"] is not None]
    print(f"  {'wall ops_per_s':<40} {len(wall) / sum(wall):>14.6g} 1/s"
          f"   (wall clock; the machine ran {slowdown:.3f} x the nominal chunk time)")

    if args.trace:
        layer = merge_layers(layers)
        traced_s = sum(r["wall_s"] or 0.0 for r in traced)
        layer["trace.traced_s"] = traced_s
        layer["trace.overhead_s"] = (sum(r["s"] or 0.0 for r in traced)
                                     - sum(r["s"] or 0.0 for r in results))
        units = dict(LAYER_UNITS, **{"trace.traced_s": "s", "trace.overhead_s": "s"})
        print("  (layer times and trace.traced_s are wall seconds of the traced pass;"
              " trace.overhead_s is at nominal speed)")
        for name, value in layer.items():
            print(f"  {name:<40} {value:>14.6g} {units[name]}")
        for name in ("quadrature.kurepa.s", "certify.certify_positive.s"):
            print(f"  share of trace.traced_s in {name}: {layer[name] / traced_s:.1%}")
        out = {name: {"value": value, "unit": units[name]} for name, value in layer.items()}
    else:
        out = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
               for name, value in metrics.items()}
    print(json.dumps({"correct": not failures, "attempted": len(results),
                      "failed": len(failures), "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
