"""Repeat the benchmark over seeds, and compare two sets of runs.

    python3 bench/spread.py run --workload certify_fuzz --seeds 1-10 --out a.json
    python3 bench/spread.py compare a.json b.json

``run`` calls bench/run.py once per seed, one run at a time, keeps each
run's output, fingerprint and result, and prints every metric's median and
quartile spread (the distance between the first and third quartile as a
share of the median).  ``compare`` prints the change of every median between
two sets against the bound in BENCHMARK.json, and refuses to compare sets
measured with different mpmath backends: gmpy2 moves every number.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import quartile_spread

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_set(workload, seeds, seconds, trace):
    runs = []
    for seed in seeds:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=900)
        wall = time.perf_counter() - t0
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"seed {seed}: exit {proc.returncode}: {proc.stderr.strip()}")
        fp = next(json.loads(line.split(" ", 1)[1]) for line in lines
                  if line.startswith("fingerprint "))
        runs.append({"seed": seed, "wall_s": wall, "fingerprint": fp,
                     "output": lines[:-1], "result": json.loads(lines[-1])})
        print(f"seed {seed}: {wall:.1f} s, correct {runs[-1]['result']['correct']}",
              file=sys.stderr)
    return {"workload": workload, "seconds": seconds, "trace": trace, "runs": runs}


def summary(doc):
    values = {}
    for run in doc["runs"]:
        for name, metric in run["result"]["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    out = {}
    for name, vals in values.items():
        spread = quartile_spread(vals) if len(vals) >= 2 and statistics.median(vals) else None
        out[name] = {"median": statistics.median(vals), "spread": spread}
    return out


def _bounds():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def compare(first, second):
    backends = {run["fingerprint"]["backend"] for doc in (first, second)
                for run in doc["runs"]}
    if len(backends) != 1:
        raise SystemExit(f"refusing to compare: mpmath backends differ {sorted(backends)}")
    bounds = _bounds()
    a, b = summary(first), summary(second)
    all_ok = True
    for name in a:
        if not a[name]["median"]:
            print(f"{name:<28} {a[name]['median']:>12.6g} {b[name]['median']:>12.6g}")
            continue
        spec = bounds.get(name)
        change = b[name]["median"] / a[name]["median"] - 1
        worse = change if spec is None or spec["better"] == "lower" else -change
        ok = spec is None or worse <= spec["bound"]
        all_ok = all_ok and ok
        print(f"{name:<28} {a[name]['median']:>12.6g} {b[name]['median']:>12.6g} "
              f"{change:+8.2%}  spread {a[name]['spread'] or 0:.3f}/{b[name]['spread'] or 0:.3f}"
              + ("" if spec is None else f"  bound {spec['bound']}  {'ok' if ok else 'WORSE'}"))
    return all_ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run")
    run.add_argument("--workload", required=True)
    run.add_argument("--seeds", default="1-10")
    run.add_argument("--seconds", type=int,
                     default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    run.add_argument("--trace", type=int, default=0)
    run.add_argument("--out", required=True)
    cmp = sub.add_parser("compare")
    cmp.add_argument("first")
    cmp.add_argument("second")
    args = parser.parse_args(argv)

    if args.cmd == "run":
        doc = run_set(args.workload, _seeds(args.seeds), args.seconds, args.trace)
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
        for name, s in summary(doc).items():
            spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"{name:<40} median {s['median']:>12.6g}  spread {spread}")
        return 0
    first = json.loads(Path(args.first).read_text())
    second = json.loads(Path(args.second).read_text())
    return 0 if compare(first, second) else 1


if __name__ == "__main__":
    sys.exit(main())
