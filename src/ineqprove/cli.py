"""Command-line front end.

Subcommands:

* ``prove``   -- run the full proof pipeline from a config file and/or flags,
                 write the report JSON, and exit 0 (proven), 1 (disproven),
                 2 (inconclusive) or 3 (usage/configuration error);
* ``minimax`` -- run the Remez engine on one function and emit the result;
* ``kurepa``  -- evaluate the Kurepa function or one of its derivatives;
* ``limits``  -- compute endpoint limits by the Taylor and/or numeric route.

Config files are flat ``key = value`` text, one key per line, each at most
once, ``#`` comments allowed; every numeric value is a decimal string so no
precision is lost in transit.  Each key is also a ``prove`` flag, which
overrides the file.  Reports are rendered deterministically: the same config
produces byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import mpmath

from .certify import ProofSettings, prove_inequality, report_to_json, to_json
from .errors import IneqproveError
from .expr import parse
from .precision import Precision, decimal_str, to_mpf
from .quadrature import MAX_ORDER, kurepa, kurepa_derivative
from .quotient import endpoint_limits_numeric, endpoint_limits_taylor
from .remez import minimax

EXIT_PROVEN = 0
EXIT_DISPROVEN = 1
EXIT_INCONCLUSIVE = 2
EXIT_ERROR = 3

# config keys that set the ProofSettings field of their name: key -> conversion;
# ProofSettings holds the default of every key left out
_SETTING_KEYS = {"precision": lambda value: Precision(int(value)), "grid_multiplier": int}
_CONFIG_KEYS = ("function", "interval", "n", "m", "degree", *_SETTING_KEYS, "out")


def read_config(path: str) -> dict:
    config = {}
    try:
        text = Path(path).read_bytes().decode("utf-8").removeprefix("\ufeff")  # a BOM is skipped
    except UnicodeDecodeError as exc:
        raise IneqproveError(f"{path}: not UTF-8 text at byte {exc.start}: {exc.reason}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise IneqproveError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _CONFIG_KEYS:
            raise IneqproveError(f"{path}:{lineno}: unknown key {key!r}")
        if key in config:
            raise IneqproveError(f"{path}:{lineno}: repeated key {key!r}")
        config[key] = value
    return config


def _split_interval(text: str):
    parts = [part.strip() for part in text.split(",")]
    if len(parts) != 2 or not all(parts):
        raise IneqproveError(f"interval must be 'a,b', got {text!r}")
    return parts[0], parts[1]


def _emit(payload: str, out) -> None:
    """Write the JSON payload and a newline to the file out, or print it if out is unset."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)


def cmd_prove(args) -> int:
    merged = read_config(args.config) if args.config else {}
    flags = vars(args)  # a flag overrides the config file's value of its key
    merged.update((key, flags[key]) for key in _CONFIG_KEYS if flags[key] is not None)
    for required in ("function", "interval", "n", "m"):
        if required not in merged:
            raise IneqproveError(f"missing required setting {required!r}")
    a, b = _split_interval(merged["interval"])
    try:
        degree = int(merged.get("degree", 1))
        settings = ProofSettings(**{key: convert(merged[key])
                                    for key, convert in _SETTING_KEYS.items() if key in merged})
    except ValueError as exc:
        raise IneqproveError(f"invalid setting value: {exc}") from exc
    report = prove_inequality(merged["function"], a, b, merged["n"], merged["m"],
                              degree, settings)
    _emit(report_to_json(report), merged.get("out"))
    return {
        "proven": EXIT_PROVEN,
        "disproven": EXIT_DISPROVEN,
        "inconclusive": EXIT_INCONCLUSIVE,
    }[report.verdict]


def cmd_minimax(args) -> int:
    p = Precision(args.precision)
    f = parse(args.function)
    a, b = _split_interval(args.interval)

    def g(x):
        return f.evaluate(x, p)

    mr = minimax(g, a, b, args.degree, p=p, grid_multiplier=args.grid_multiplier)
    doc = {"degree": args.degree, "segment": mr.polynomial.segment, "delta_hat": mr.delta_hat,
           "lower_bound": mr.lower_bound, "iterations": mr.iterations, "nodes": mr.nodes,
           "chebyshev_coefficients": mr.polynomial.coefficients,
           "monomial_coefficients": mr.polynomial.to_monomial(p),
           "levelled_error_history": mr.levelled_error_history}
    _emit(to_json(doc, p), args.out)
    return EXIT_PROVEN


def cmd_kurepa(args) -> int:
    p = Precision(args.precision)
    x = to_mpf(args.x, p)
    result = kurepa(x, p) if args.order == 0 else kurepa_derivative(x, args.order, p)
    print(f"value {decimal_str(result.value, p)}")
    print(f"error_bound {mpmath.nstr(result.error_bound, 5)}")
    print(f"nodes_used {result.nodes_used}")
    print(f"tail_cutoff {mpmath.nstr(result.tail_cutoff, 8)}")
    return EXIT_PROVEN


def cmd_limits(args) -> int:
    p = Precision(args.precision)
    f = parse(args.function)
    a, b = _split_interval(args.interval)
    for method, route in (("taylor", endpoint_limits_taylor),
                          ("numeric", endpoint_limits_numeric)):
        if args.method in (method, "both"):
            alpha, beta = route(f, a, b, args.n, args.m, p)
            print(f"{method} alpha {decimal_str(alpha, p)}")
            print(f"{method} beta {decimal_str(beta, p)}")
    return EXIT_PROVEN


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ineqprove",
        description="Prove univariate inequalities f(x) >= 0 on a segment "
                    "via minimax polynomial certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    prove = sub.add_parser("prove", help="run the full proof pipeline")
    prove.add_argument("--config", help="flat key = value config file")
    for key in _CONFIG_KEYS:  # converted as config values are
        prove.add_argument("--" + key.replace("_", "-"))
    prove.set_defaults(func=cmd_prove)

    defaults = ProofSettings()
    mmx = sub.add_parser("minimax", help="minimax approximation of one function")
    mmx.add_argument("--function", required=True)
    mmx.add_argument("--interval", metavar="A,B", required=True)
    mmx.add_argument("--degree", type=int, required=True)
    mmx.add_argument("--precision", type=int, default=defaults.precision.decimal_digits)
    mmx.add_argument("--grid-multiplier", dest="grid_multiplier", type=int,
                     default=defaults.grid_multiplier)
    mmx.add_argument("--out")
    mmx.set_defaults(func=cmd_minimax)

    kur = sub.add_parser("kurepa", help="evaluate the Kurepa integral family")
    kur.add_argument("--x", required=True)
    kur.add_argument("--order", type=int, default=0, help=f"0 for K, at most {MAX_ORDER}")
    kur.add_argument("--precision", type=int, default=defaults.precision.decimal_digits)
    kur.set_defaults(func=cmd_kurepa)

    lim = sub.add_parser("limits", help="endpoint limits of the quotient")
    lim.add_argument("--function", required=True)
    lim.add_argument("--interval", metavar="A,B", required=True)
    lim.add_argument("--n", required=True)
    lim.add_argument("--m", required=True)
    lim.add_argument("--method", choices=("taylor", "numeric", "both"), default="both")
    lim.add_argument("--precision", type=int, default=defaults.precision.decimal_digits)
    lim.set_defaults(func=cmd_limits)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the exit contract reserves 2 for
        # inconclusive verdicts, so remap
        return EXIT_ERROR if exc.code else EXIT_PROVEN
    try:
        return args.func(args)
    except IneqproveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # total exit-code contract: never propagate
        print(f"unexpected error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
