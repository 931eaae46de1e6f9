"""Command-line front end.

Subcommands:

* ``prove``   -- run the full proof pipeline from a config file and/or flags,
                 write the report JSON, and exit 0 (proven), 1 (disproven),
                 2 (inconclusive) or 3 (usage/configuration error);
* ``minimax`` -- run the Remez engine on one function and emit the result;
* ``kurepa``  -- evaluate the Kurepa function or one of its derivatives;
* ``limits``  -- compute endpoint limits by the Taylor and/or numeric route.

Every flag of every subcommand is text, read as a config value is: one
table converts each key's text, and a missing required key or a malformed
value exits 3 with one error form.  A key left out takes the API's default;
the CLI keeps only ``prove``'s degree 1, ``kurepa``'s order 0 and ``limits``'
method ``both``.  Config files are flat ``key = value`` text, one key per
line, each at most once, ``#`` comments allowed; every numeric value is a
decimal string so no precision is lost in transit.  Each key is also a
``prove`` flag, which overrides the file.  Reports are rendered
deterministically: the same config produces byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import mpmath

from .certify import ProofSettings, prove_inequality, report_to_json, to_json
from .errors import IneqproveError
from .expr import evaluate, parse
from .precision import Precision, decimal_str
from .quadrature import kurepa, kurepa_derivative
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


def _method(text: str) -> str:
    if text not in ("taylor", "numeric", "both"):
        raise ValueError(f"method must be 'taylor', 'numeric' or 'both', got {text!r}")
    return text


# every key's conversion from its text; the other keys stay text
_CONVERSIONS = {"interval": _split_interval, "degree": int, "order": int, "method": _method,
                **_SETTING_KEYS}


def _emit(payload: str, out) -> None:
    """Write the JSON payload and a newline to the file out, or print it if out is unset."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)


def cmd_prove(function, interval, n, m, degree=1, out=None, **settings) -> int:
    report = prove_inequality(function, *interval, n, m, degree, ProofSettings(**settings))
    _emit(report_to_json(report), out)
    return {"proven": EXIT_PROVEN, "disproven": EXIT_DISPROVEN,
            "inconclusive": EXIT_INCONCLUSIVE}[report.verdict]


def cmd_minimax(function, interval, degree, precision=Precision(), out=None, **options) -> int:
    f = parse(function)
    mr = minimax(lambda x: evaluate(f, x, precision), *interval, degree, p=precision, **options)
    doc = {"degree": degree, "segment": mr.polynomial.segment, "delta_hat": mr.delta_hat,
           "lower_bound": mr.lower_bound, "iterations": mr.iterations, "nodes": mr.nodes,
           "chebyshev_coefficients": mr.polynomial.coefficients,
           "monomial_coefficients": mr.polynomial.to_monomial(precision),
           "levelled_error_history": mr.levelled_error_history}
    _emit(to_json(doc, precision), out)
    return EXIT_PROVEN


def cmd_kurepa(x, order=0, precision=Precision()) -> int:
    result = kurepa(x, precision) if order == 0 else kurepa_derivative(x, order, precision)
    print(f"value {decimal_str(result.value, precision)}")
    print(f"error_bound {mpmath.nstr(result.error_bound, 5)}")
    print(f"nodes_used {result.nodes_used}")
    print(f"tail_cutoff {mpmath.nstr(result.tail_cutoff, 8)}")
    return EXIT_PROVEN


def cmd_limits(function, interval, n, m, method="both", precision=Precision()) -> int:
    f = parse(function)
    for name, route in (("taylor", endpoint_limits_taylor), ("numeric", endpoint_limits_numeric)):
        if method in (name, "both"):
            alpha, beta = route(f, *interval, n, m, precision)
            print(f"{name} alpha {decimal_str(alpha, precision)}")
            print(f"{name} beta {decimal_str(beta, precision)}")
    return EXIT_PROVEN


# subcommand: (handler, help, its keys, the keys it requires); a key left out
# takes the handler's default, which is the API's but for prove's degree,
# kurepa's order and limits' method
_COMMANDS = {
    "prove": (cmd_prove, "run the full proof pipeline", _CONFIG_KEYS,
              ("function", "interval", "n", "m")),
    "minimax": (cmd_minimax, "minimax approximation of one function",
                ("function", "interval", "degree", *_SETTING_KEYS, "out"),
                ("function", "interval", "degree")),
    "kurepa": (cmd_kurepa, "evaluate the Kurepa integral family",
               ("x", "order", "precision"), ("x",)),
    "limits": (cmd_limits, "endpoint limits of the quotient",
               ("function", "interval", "n", "m", "method", "precision"),
               ("function", "interval", "n", "m")),
}


def _read(args) -> dict:
    """The subcommand's values: prove's config file under its flags, each key's text converted."""
    _, _, keys, required = _COMMANDS[args.command]
    values = read_config(args.config) if getattr(args, "config", None) else {}
    flags = vars(args)  # a flag overrides the config file's value of its key
    values.update((key, flags[key]) for key in keys if flags[key] is not None)
    for key in required:
        if key not in values:
            raise IneqproveError(f"missing required setting {key!r}")
    try:
        return {key: _CONVERSIONS.get(key, str)(values[key]) for key in keys if key in values}
    except ValueError as exc:
        raise IneqproveError(f"invalid setting value: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ineqprove",
        description="Prove univariate inequalities f(x) >= 0 on a segment "
                    "via minimax polynomial certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, summary, keys, _) in _COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        if name == "prove":
            command.add_argument("--config", help="flat key = value config file")
        for key in keys:  # text, converted as config values are
            command.add_argument("--" + key.replace("_", "-"))
        command.set_defaults(func=func)
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
        return args.func(**_read(args))
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
