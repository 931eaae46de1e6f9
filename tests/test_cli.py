import dataclasses
import hashlib
import json
import subprocess
import sys

import mpmath
import pytest

from ineqprove import ProofSettings, prove_inequality, report_to_json
from ineqprove import cli
from ineqprove.cli import _CONFIG_KEYS, _SETTING_KEYS, build_parser, main

from helpers import requires_recorded_mpmath

NOT_AN_INT = "invalid setting value: invalid literal for int() with base 10: "

# sha256 of the stdout of `ineqprove <argv>`
STDOUT_HASHES = {
    "minimax --function exp(x) --interval 0,1 --degree 2 --precision 30":
        "de20820ba5903cb33404d63e99cc2527df102fdedc9d2c96d7d1d6ba93f4d371",
    "minimax --function exp(x) --interval 0,1 --degree 2 --precision 30 --grid-multiplier 8":
        "dabdc4624c952e0dafb5f97df1a79a59256338c72373817a1ab604a21c3d5612",
    "kurepa --x 0.5 --order 2 --precision 40":
        "165d8c0452c52000afaf1bfd33411caf9cc3736aa57b6cd6e3627cd7f8bf89d0",
    "limits --function x*(1-x) --interval 0,1 --n 1 --m 1 --precision 30":
        "82441f55b72a87a278257e56de1f5d20db4c7defb15b03fb6a8f7faa6796a0f1",
}


def write_config(path, **kwargs):
    lines = ["# generated by the test suite"]
    for key, value in kwargs.items():
        lines.append(f"{key} = {value}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestProveCommand:
    def test_proven_exit_zero(self, tmp_path):
        cfg = write_config(
            tmp_path / "ok.cfg",
            function="x*(1-x)", interval="0,1", n=1, m=1, degree=1, precision=30,
            out=str(tmp_path / "report.json"),
        )
        assert main(["prove", "--config", cfg]) == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["verdict"] == "proven"
        assert doc["alpha"] == "1.0"
        assert doc["settings"]["function"] == "x*(1-x)"

    def test_disproven_exit_one(self, tmp_path):
        cfg = write_config(
            tmp_path / "neg.cfg",
            function="-x", interval="0,1", n=1, m=0, degree=1, precision=30,
            out=str(tmp_path / "report.json"),
        )
        assert main(["prove", "--config", cfg]) == 1
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["verdict"] == "disproven"

    def test_parse_error_exit_three(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "bad.cfg",
            function="(1+x", interval="0,1", n=1, m=0, degree=1, precision=30,
        )
        assert main(["prove", "--config", cfg]) == 3
        assert "position" in capsys.readouterr().err

    def test_zero_division_in_interval_exit_three(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "zero.cfg",
            function="x", interval="1/0, 1", n=1, m=0, degree=1, precision=30,
        )
        assert main(["prove", "--config", cfg]) == 3
        assert capsys.readouterr().err.startswith("error: cannot interpret '1/0'")

    def test_missing_required_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "missing.cfg", function="x", degree=1)
        assert main(["prove", "--config", cfg]) == 3

    # the limits are computed from f, never given: the route and the
    # user-supplied limits are no settings, and the pipeline's tolerances,
    # margin, iteration cap and residual grid size are constants
    @pytest.mark.parametrize("key", ["wibble", "limit_method", "alpha_override",
                                     "beta_override", "tol", "residual_grid_size", "margin",
                                     "equioscillation_rel_tol", "max_iterations"])
    def test_unknown_key_rejected(self, key, tmp_path, capsys):
        cfg = write_config(tmp_path / "unknown.cfg", function="x*(1-x)", interval="0,1",
                           n=1, m=1, precision=30, **{key: 1})
        assert main(["prove", "--config", cfg]) == 3
        assert f"unknown key {key!r}" in capsys.readouterr().err
        assert main(["prove", "--function", "x*(1-x)", "--interval", "0,1", "--n", "1",
                     "--m", "1", "--precision", "30", "--" + key.replace("_", "-"), "1"]) == 3

    def test_setting_keys_are_the_settings_fields(self):
        # every ProofSettings field has the config key of its name, and every key a field
        assert list(_SETTING_KEYS) == [f.name for f in dataclasses.fields(ProofSettings)] == \
            ["precision", "grid_multiplier"]

    def test_line_without_equals_rejected(self, tmp_path, capsys):
        path = tmp_path / "noeq.cfg"
        path.write_text("function = x\ninterval 0,1\n", encoding="utf-8")
        assert main(["prove", "--config", str(path)]) == 3
        assert "noeq.cfg:2: expected 'key = value', got 'interval 0,1'" in capsys.readouterr().err

    def test_repeated_key_refused(self, tmp_path, capsys):
        path = tmp_path / "twice.cfg"
        path.write_text("function = x*(1-x)\ninterval = 0,1\nn = 1\nm = 1\n"
                        "precision = 30\nprecision = 31\n", encoding="utf-8")
        assert main(["prove", "--config", str(path)]) == 3
        assert "twice.cfg:6: repeated key 'precision'" in capsys.readouterr().err

    def test_config_with_byte_order_mark(self, tmp_path):
        # an editor may save a UTF-8 file with a BOM before its first key
        cfg = tmp_path / "bom.cfg"
        cfg.write_text("function = x*(1-x)\ninterval = 0,1\nn = 1\nm = 1\nprecision = 30\n"
                       f"out = {tmp_path / 'report.json'}\n", encoding="utf-8-sig")
        assert cfg.read_bytes().startswith(b"\xef\xbb\xbf")
        assert main(["prove", "--config", str(cfg)]) == 0

    def test_config_that_is_not_utf8_names_its_byte(self, tmp_path, capsys):
        # the offset counts the file's bytes, a BOM's included
        cfg = tmp_path / "latin1.cfg"
        for head, at in ((b"", 5), (b"\xef\xbb\xbf", 8)):
            cfg.write_bytes(head + "# café\nfunction = x\n".encode("latin-1"))
            assert main(["prove", "--config", str(cfg)]) == 3
            assert capsys.readouterr().err == (
                f"error: {cfg}: not UTF-8 text at byte {at}: invalid continuation byte\n")

    def test_every_config_key_is_a_flag(self):
        parser = build_parser()
        for key in _CONFIG_KEYS:
            args = parser.parse_args(["prove", "--" + key.replace("_", "-"), "7"])
            assert getattr(args, key) == "7"

    def test_fractional_degree_flag_refused(self, capsys):
        assert main(["prove", "--function", "x*(1-x)", "--interval", "0,1", "--n", "1",
                     "--m", "1", "--precision", "30", "--degree", "1.5"]) == 3
        assert "invalid setting value" in capsys.readouterr().err

    def test_flag_overrides_config(self, tmp_path):
        cfg = write_config(
            tmp_path / "base.cfg",
            function="-x", interval="0,1", n=1, m=0, degree=1, precision=30,
        )
        out = tmp_path / "r.json"
        code = main(["prove", "--config", cfg, "--function", "x*(1-x)",
                     "--m", "1", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["verdict"] == "proven"

    def test_inline_flags_without_config(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["prove", "--function", "x*(1-x)", "--interval", "0,1",
                     "--n", "1", "--m", "1", "--degree", "1",
                     "--precision", "30", "--out", str(out)])
        assert code == 0

    def test_required_keys_only_use_api_defaults(self, tmp_path):
        # every setting left out of the config takes its ProofSettings default
        out = tmp_path / "report.json"
        cfg = write_config(tmp_path / "min.cfg", function="x*(1-x)", interval="0,1",
                           n=1, m=1, out=str(out))
        assert main(["prove", "--config", cfg]) == 0
        report = prove_inequality("x*(1-x)", 0, 1, 1, 1, 1, ProofSettings())
        assert out.read_text() == report_to_json(report) + "\n"

    def test_every_setting_key_has_a_flag(self, tmp_path):
        parser = build_parser()
        for key in _SETTING_KEYS:
            args = parser.parse_args(["prove", "--" + key.replace("_", "-"), "7"])
            assert getattr(args, key) == "7"
        out = tmp_path / "report.json"
        assert main(["prove", "--function", "x*(1-x)", "--interval", "0,1", "--n", "1",
                     "--m", "1", "--precision", "30", "--grid-multiplier", "4",
                     "--out", str(out)]) == 0
        settings = json.loads(out.read_text())["settings"]
        assert (settings["grid_multiplier"], settings["residual_grid_size"]) == (4, 25)

    def test_byte_identical_reports(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        for out in (out1, out2):
            cfg = write_config(
                tmp_path / "det.cfg",
                function="x*(1-x)", interval="0,1", n=1, m=1, degree=1,
                precision=30, out=str(out),
            )
            assert main(["prove", "--config", cfg]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestMinimaxCommand:
    def test_parabola(self, tmp_path):
        out = tmp_path / "mm.json"
        code = main(["minimax", "--function", "x*x", "--interval=-1,1",
                     "--degree", "1", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        delta = mpmath.mpf(doc["delta_hat"])
        assert abs(delta - mpmath.mpf("0.5")) < mpmath.mpf("1e-10")

    def test_exp_slope(self, tmp_path):
        out = tmp_path / "mm.json"
        code = main(["minimax", "--function", "exp(x)", "--interval", "0,1",
                     "--degree", "1", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        slope = mpmath.mpf(doc["monomial_coefficients"][1])
        with mpmath.mp.workdps(60):
            assert abs(slope - (mpmath.e - 1)) < mpmath.mpf("1e-10")

    def test_constant_degree_zero(self, tmp_path):
        out = tmp_path / "mm.json"
        code = main(["minimax", "--function", "7", "--interval", "0,1",
                     "--degree", "0", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert mpmath.mpf(doc["delta_hat"]) < mpmath.mpf("1e-40")

    def test_tol_is_no_option(self, capsys):
        # the Remez tolerance is a fixed constant, remez.TOL
        assert main(["minimax", "--function", "x*x", "--interval=-1,1", "--degree", "1",
                     "--tol", "1e-12"]) == 3
        assert "unrecognized arguments: --tol 1e-12" in capsys.readouterr().err


class TestKurepaCommand:
    def test_value_at_one(self, capsys):
        assert main(["kurepa", "--x", "1", "--order", "0", "--precision", "30"]) == 0
        out = capsys.readouterr().out
        value = mpmath.mpf(out.splitlines()[0].split()[1])
        assert abs(value - 1) < mpmath.mpf("1e-19")
        assert "error_bound" in out and "tail_cutoff" in out

    def test_derivative_at_zero(self, capsys):
        assert main(["kurepa", "--x", "0", "--order", "1", "--precision", "30"]) == 0
        value_line = capsys.readouterr().out.splitlines()[0]
        value = mpmath.mpf(value_line.split()[1])
        assert abs(value - mpmath.mpf("1.432205735")) < mpmath.mpf("5e-9")

    def test_vanishing_at_zero(self, capsys):
        assert main(["kurepa", "--x", "0", "--order", "0", "--precision", "30"]) == 0
        value = mpmath.mpf(capsys.readouterr().out.splitlines()[0].split()[1])
        assert value == 0

    def test_last_band_at_160_digits(self, capsys):
        # K'''(15.9) at 160 digits, where a unit at the last node enters the
        # sum times about 2^142
        assert main(["kurepa", "--x", "15.9", "--order", "3", "--precision", "160"]) == 0
        assert "exceeds its target" not in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--x", "17"], "kurepa argument 17.0 lies outside [0, 16]"),
        (["--x", "-1"], "kurepa argument -1.0 lies outside [0, 16]"),
        (["--x", "0", "--order", "4"], "kurepa derivative of order 4 is not supported (max 3)"),
        (["--x", "0", "--order", "-1"], "derivative order must be an integer of at least 1, got -1"),
    ])
    def test_outside_the_domain_exits_3(self, argv, message, capsys):
        assert main(["kurepa", "--precision", "30", *argv]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("flag", ["--node-factor", "--tail-factor", "--max-evaluations"])
    def test_quadrature_takes_no_options(self, flag):
        assert main(["kurepa", "--x", "1", "--precision", "30", flag, "2"]) == 3

    def test_unexpected_error_exits_3(self, monkeypatch, capsys):
        # any other exception is reported, never propagated
        def broken(x, p):
            raise RuntimeError("broken sum")

        monkeypatch.setattr(cli, "kurepa", broken)
        assert main(["kurepa", "--x", "1", "--precision", "30"]) == 3
        assert capsys.readouterr().err == "unexpected error: RuntimeError: broken sum\n"


class TestLimitsCommand:
    def test_both_methods_agree(self, capsys):
        code = main(["limits", "--function", "x*(1-x)", "--interval", "0,1",
                     "--n", "1", "--m", "1", "--precision", "30"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        values = {line.split()[0] + "_" + line.split()[1]: mpmath.mpf(line.split()[2])
                  for line in lines}
        assert abs(values["taylor_alpha"] - 1) < mpmath.mpf("1e-20")
        assert abs(values["numeric_alpha"] - 1) < mpmath.mpf("1e-8")
        assert abs(values["taylor_beta"] - values["numeric_beta"]) < mpmath.mpf("1e-8")


class TestExitContract:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 3

    def test_no_arguments(self):
        assert main([]) == 3

    def test_bad_interval(self, capsys):
        assert main(["minimax", "--function", "x", "--interval", "0",
                     "--degree", "1"]) == 3

    @pytest.mark.parametrize("argv", [
        ["prove", "--function", "x*(1-x)", "--interval", "x,1", "--n", "1", "--m", "1"],
        ["prove", "--function", "x*(1-x)", "--interval", "0,1", "--n", "1", "--m", "1",
         "--grid-multiplier", "many"],
        ["kurepa", "--x", "nan"],
    ])
    def test_bad_number_is_configuration_error(self, argv, capsys):
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("degree", ["1.5", "one"])
    def test_bad_degree_in_config_is_configuration_error(self, degree, tmp_path, capsys):
        cfg = write_config(tmp_path / "degree.cfg", function="x*(1-x)", interval="0,1",
                           n=1, m=1, degree=degree, precision=30)
        assert main(["prove", "--config", cfg]) == 3
        assert capsys.readouterr().err.startswith("error: invalid setting value: ")

    @pytest.mark.parametrize("argv", [
        ["prove", "--function", "x*(1-x)", "--interval", "0,1", "--n", "1", "--m", "1",
         "--precision", "30"],
        ["minimax", "--function", "x*x", "--interval=-1,1", "--degree", "1"],
    ], ids=["prove", "minimax"])
    def test_json_to_stdout_or_out_file(self, argv, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert printed == out.read_text(encoding="utf-8")
        assert json.loads(printed)
        assert main(argv + ["--out", str(tmp_path / "missing" / "r.json")]) == 3
        assert capsys.readouterr().err.startswith("i/o error: ")

    # every flag of every subcommand is read as a config value is, with one
    # error form for a malformed value and one for a missing required key
    @pytest.mark.parametrize("argv, message", [
        (["prove", "--function", "x", "--interval", "0,1", "--n", "1", "--m", "1",
          "--precision", "abc"], NOT_AN_INT + "'abc'"),
        (["prove", "--function", "x", "--interval", "0,1", "--n", "1"],
         "missing required setting 'm'"),
        (["minimax", "--function", "x", "--interval", "0,1", "--degree", "1.5"],
         NOT_AN_INT + "'1.5'"),
        (["minimax", "--function", "x", "--interval", "0,1", "--degree", "1",
          "--grid-multiplier", "many"], NOT_AN_INT + "'many'"),
        (["minimax", "--function", "x", "--interval", "0,1"], "missing required setting 'degree'"),
        (["kurepa", "--x", "1", "--order", "x"], NOT_AN_INT + "'x'"),
        (["kurepa", "--order", "1"], "missing required setting 'x'"),
        (["limits", "--function", "x", "--interval", "0,1", "--n", "1", "--m", "1",
          "--precision", "abc"], NOT_AN_INT + "'abc'"),
        (["limits", "--function", "x", "--interval", "0,1", "--n", "1"],
         "missing required setting 'm'"),
        (["limits", "--function", "exp(x)-1-x", "--interval", "0,1", "--n", "2", "--m", "0",
          "--method", "foo"],
         "invalid setting value: method must be 'taylor', 'numeric' or 'both', got 'foo'"),
    ], ids=["prove-precision", "prove-missing", "minimax-degree", "minimax-grid-multiplier",
            "minimax-missing", "kurepa-order", "kurepa-missing", "limits-precision",
            "limits-missing", "limits-method"])
    def test_flags_are_read_one_way(self, argv, message, capsys):
        assert main(argv) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_installed_entry_point(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "ineqprove.cli", "kurepa", "--x", "1",
             "--precision", "30"],
            capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0
        assert result.stdout.startswith("value ")
        value = mpmath.mpf(result.stdout.splitlines()[0].split()[1])
        assert abs(value - 1) < mpmath.mpf("1e-19")


@requires_recorded_mpmath
@pytest.mark.parametrize("argv", sorted(STDOUT_HASHES))
def test_stdout_bytes(argv, capsys):
    assert main(argv.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == \
        STDOUT_HASHES[argv]
