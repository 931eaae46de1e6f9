"""Per-layer tracing from outside the package.

The tracer rebinds public names where their callers look them up, records a
span (name, start, end, parent, operation) around every call, and restores
every name on exit.  Spans stay in memory; ``layer_metrics`` folds them into
the per-layer table when the run ends.  A span's self time is its duration
minus the durations of its direct children.

Where the names are looked up:

* ``certify`` imports its stages by name, so they are rebound there;
* ``quotient.evaluate`` is how g and the endpoint limits reach ``expr``;
* ``expr._eval`` looks up ``quadrature.kurepa`` / ``kurepa_derivative`` on
  the module at call time;
* ``QuotientFunction.evaluate`` (one fresh g evaluation; the cache calls it
  only on a miss) and ``CachedFunction.__call__`` are rebound on the classes;
* ``cli`` imports ``prove_inequality`` and ``report_to_json`` by name.
"""

from __future__ import annotations

import functools
import importlib
import math
import time

def _targets():
    """(owner, attribute, span name, info extractor) for every wrapped name."""
    certify = importlib.import_module("ineqprove.certify")
    cli = importlib.import_module("ineqprove.cli")
    quadrature = importlib.import_module("ineqprove.quadrature")
    quotient = importlib.import_module("ineqprove.quotient")
    remez = importlib.import_module("ineqprove.remez")
    return [
        (certify, "prove_inequality", "certify.prove_inequality", None),
        (certify, "report_to_json", "certify.report_to_json", None),
        (certify, "endpoint_limits_taylor", "quotient.limits", None),
        (certify, "endpoint_limits_numeric", "quotient.limits", None),
        (certify, "minimax", "remez.minimax", lambda r, a: r.iterations),
        (certify, "verify_equioscillation", "remez.verify_equioscillation", None),
        (certify, "residual_check", "certify.residual_check",
         lambda r, a: r.sample_count),
        (certify, "certify_positive", "certify.certify_positive", _leaf_info),
        (quotient, "evaluate", "expr.evaluate", None),
        (quadrature, "kurepa", "quadrature.kurepa",
         lambda r, a: (a[0], r.nodes_used)),
        (quadrature, "kurepa_derivative", "quadrature.kurepa_derivative", None),
        (quotient.QuotientFunction, "evaluate", "quotient.g", None),
        (cli, "main", "cli.main", None),
        (cli, "prove_inequality", "certify.prove_inequality", None),
        (cli, "report_to_json", "certify.report_to_json", None),
        (remez.CachedFunction, "__call__", "remez.cache", None),
    ]


def _leaf_info(cert, args):
    """(leaf count, deepest bisection level) of a certificate."""
    a, b = cert.polynomial.segment
    narrowest = min(hi - lo for lo, hi, _ in cert.subintervals)
    return len(cert.subintervals), round(math.log2(float((b - a) / narrowest)))


class Tracer:
    """Context manager: wrap on enter, restore on exit.

    Set ``op`` to the index of the operation about to run; every span
    records it, so per-operation counts can be checked against the report.
    ``clock`` times the spans (the worker passes one that stands still while
    its speed probe runs).
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.cache_lookups = 0
        self.op = None
        self._stack = []
        self._saved = []

    def __enter__(self):
        for owner, attr, name, info in _targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            if name == "remez.cache":
                wrapper = self._counting(original)
            else:
                wrapper = self._spanning(original, name, info)
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _counting(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.cache_lookups += 1
            return fn(*args, **kwargs)
        return wrapper

    def _spanning(self, fn, name, info):
        spans = self.spans
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[5] = info(result, args)
            return result
        return wrapper


# Names the per-layer table reports, with units; also the BENCHMARK.json list.
LAYER_UNITS = {
    "quadrature.kurepa.calls": "count",
    "quadrature.kurepa.distinct_args": "count",
    "quadrature.kurepa.s": "s",
    "quadrature.kurepa.ms_per_call": "ms",
    "quadrature.kurepa.integrand_evals": "count",
    "quadrature.kurepa_derivative.calls": "count",
    "quadrature.kurepa_derivative.s": "s",
    "quotient.g.fresh": "count",
    "quotient.g.s": "s",
    "quotient.limits.s": "s",
    "remez.cache.lookups": "count",
    "expr.evaluate.calls": "count",
    "expr.evaluate.self_s": "s",
    "expr.evaluate.us_per_call": "us",
    "remez.minimax.s": "s",
    "remez.minimax.iterations": "count",
    "remez.minimax.g_fresh": "count",
    "remez.verify_equioscillation.s": "s",
    "certify.residual_check.s": "s",
    "certify.residual_check.samples": "count",
    "certify.residual_check.g_fresh": "count",
    "certify.certify_positive.calls": "count",
    "certify.certify_positive.rejected": "count",
    "certify.certify_positive.s": "s",
    "certify.certify_positive.rejected_s": "s",
    "certify.certify_positive.leaves": "count",
    "certify.certify_positive.max_depth": "count",
    "certify.certify_positive.us_per_leaf": "us",
    "certify.prove_inequality.self_s": "s",
    "certify.report_to_json.s": "s",
    "cli.main.self_s": "s",
}


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(tracer: Tracer):
    """Fold the spans into (raw per-layer counts, per-operation report counters).

    The raw counts are JSON-ready; ``merge_layers`` turns those of one or
    more processes into the per-layer metrics.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    total = {}
    self_time = {}
    calls = {}
    for i, (name, t0, t1, _, _, _) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (t1 - t0)
        self_time[name] = self_time.get(name, 0.0) + (t1 - t0 - child[i])
        calls[name] = calls.get(name, 0) + 1

    kurepa_args = set()
    integrand = 0
    g_under = {"remez.minimax": 0, "certify.residual_check": 0}
    iterations = samples = leaves = depth = rejected = 0
    rejected_s = certified_s = 0.0
    per_op = {}
    for name, t0, t1, parent, op, info in spans:
        counters = per_op.setdefault(op, {"g_evaluations": 0, "remez_iterations": 0,
                                          "certificate_subintervals": 0})
        if name == "quadrature.kurepa" and isinstance(info, tuple):
            kurepa_args.add(info[0])
            integrand += info[1]
        elif name == "quotient.g":
            counters["g_evaluations"] += 1
            while parent >= 0:
                stage = spans[parent][0]
                if stage in g_under:
                    g_under[stage] += 1
                    break
                parent = spans[parent][3]
        elif name == "remez.minimax" and isinstance(info, int):
            iterations += info
            counters["remez_iterations"] += info
        elif name == "certify.residual_check" and isinstance(info, int):
            samples += info
        elif name == "certify.certify_positive":
            if isinstance(info, tuple):
                leaves += info[0]
                depth = max(depth, info[1])
                certified_s += t1 - t0
                counters["certificate_subintervals"] += info[0]
            else:
                rejected += 1
                rejected_s += t1 - t0

    raw = {
        "quadrature.kurepa.calls": calls.get("quadrature.kurepa", 0),
        "quadrature.kurepa.distinct_args": len(kurepa_args),
        "quadrature.kurepa.s": total.get("quadrature.kurepa", 0.0),
        "quadrature.kurepa.integrand_evals": integrand,
        "quadrature.kurepa_derivative.calls": calls.get("quadrature.kurepa_derivative", 0),
        "quadrature.kurepa_derivative.s": total.get("quadrature.kurepa_derivative", 0.0),
        "quotient.g.fresh": calls.get("quotient.g", 0),
        "quotient.g.s": total.get("quotient.g", 0.0),
        "quotient.limits.s": total.get("quotient.limits", 0.0),
        "remez.cache.lookups": tracer.cache_lookups,
        "expr.evaluate.calls": calls.get("expr.evaluate", 0),
        "expr.evaluate.self_s": self_time.get("expr.evaluate", 0.0),
        "remez.minimax.s": total.get("remez.minimax", 0.0),
        "remez.minimax.iterations": iterations,
        "remez.minimax.g_fresh": g_under["remez.minimax"],
        "remez.verify_equioscillation.s": total.get("remez.verify_equioscillation", 0.0),
        "certify.residual_check.s": total.get("certify.residual_check", 0.0),
        "certify.residual_check.samples": samples,
        "certify.residual_check.g_fresh": g_under["certify.residual_check"],
        "certify.certify_positive.calls": calls.get("certify.certify_positive", 0),
        "certify.certify_positive.rejected": rejected,
        "certify.certify_positive.s": total.get("certify.certify_positive", 0.0),
        "certify.certify_positive.rejected_s": rejected_s,
        "certify.certify_positive.leaves": leaves,
        "certify.certify_positive.max_depth": depth,
        "certify.prove_inequality.self_s": self_time.get("certify.prove_inequality", 0.0),
        "certify.report_to_json.s": total.get("certify.report_to_json", 0.0),
        "cli.main.self_s": self_time.get("cli.main", 0.0),
        "certified_s": certified_s,
    }
    return raw, per_op


def merge_layers(raws):
    """Per-layer metrics of one run from the raw counts of its traced processes.

    Counts and times add up, distinct Kurepa arguments too, since each
    process starts with an empty cache; the deepest level is the maximum.
    """
    merged = {}
    for raw in raws:
        for key, value in raw.items():
            if key == "certify.certify_positive.max_depth":
                merged[key] = max(merged.get(key, 0), value)
            else:
                merged[key] = merged.get(key, 0) + value
    metrics = {key: merged[key] for key in LAYER_UNITS if key in merged}
    metrics["quadrature.kurepa.ms_per_call"] = _ratio(
        merged["quadrature.kurepa.s"], merged["quadrature.kurepa.calls"], 1e3)
    metrics["expr.evaluate.us_per_call"] = _ratio(
        merged["expr.evaluate.self_s"], merged["expr.evaluate.calls"], 1e6)
    metrics["certify.certify_positive.us_per_leaf"] = _ratio(
        merged["certified_s"], merged["certify.certify_positive.leaves"], 1e6)
    return {key: metrics[key] for key in LAYER_UNITS}
