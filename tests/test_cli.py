import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from susyqm.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    return header, rows


def test_spectrum_sech2(capsys):
    code, out = run(capsys, "spectrum", "--potential", "sech2", "--params", "B=2")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["n", "energy"]
    assert rows[0] == pytest.approx([0.0, 0.0])
    assert rows[1] == pytest.approx([1.0, 3.0])


def test_bands_lame_one(capsys):
    code, out = run(capsys, "bands", "--lame", "a=1", "--m", "0.5", "--count", "3")
    assert code == 0
    _, rows = parse_csv(out)
    assert [r[0] for r in rows] == pytest.approx([0.5, 1.0, 1.5], abs=1e-7)


def test_partner_well_hierarchy(capsys):
    code, out = run(
        capsys, "partner", "--potential", "well", "--params", "L=pi", "--hierarchy", "3"
    )
    assert code == 0
    _, rows = parse_csv(out)
    # V3 of the box ladder is 6 cosec^2 x - 4; at x = pi/2 that is 2
    mid = min(rows, key=lambda r: abs(r[0] - math.pi / 2))
    assert mid[1] == pytest.approx(2.0, abs=1e-6)


def test_partner_expression_json(capsys):
    code, out = run(
        capsys,
        "partner",
        "--w-expr",
        "tanh(x)",
        "--grid=-5,5,11",
        "--format",
        "json",
    )
    assert code == 0
    env = json.loads(out)
    assert env["inputs"]["w_expr"] == "tanh(x)"
    assert env["outputs"]["columns"] == ["x", "w", "v1", "v2"]
    assert "version" in env and "diagnostics" in env
    mid = env["outputs"]["rows"][5]
    assert mid[0] == pytest.approx(0.0)
    assert mid[2] == pytest.approx(-1.0, abs=1e-7)  # V1(0) = -sech^2(0)


def test_scatter_reflectionless(capsys):
    code, out = run(capsys, "scatter", "--potential", "sech2", "--params", "B=1", "--k", "1")
    assert code == 0
    _, rows = parse_csv(out)
    k, energy, re_r, im_r, re_t, im_t, pr, pt = rows[0]
    assert pr < 1e-8
    assert pt == pytest.approx(1.0, abs=1e-8)


def test_scatter_reports_flux_defect_per_k(capsys):
    code, out = run(capsys, "scatter", "--potential", "sech2", "--params", "B=1", "--format", "json")
    assert code == 0
    env = json.loads(out)
    defects = env["diagnostics"]["flux_defect"]
    assert len(defects) == len(env["outputs"]["rows"]) == 3
    assert all(0.0 <= d < 1e-8 for d in defects)


def test_scatter_units_rejected_for_catalog_potential(capsys):
    for flag in ("--hbar", "--mass2"):
        code = main(["scatter", "--potential", "sech2", flag, "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert "--w-expr only" in err and len(err.strip().splitlines()) == 1


def test_scatter_non_finite_potential_is_a_numeric_failure(capsys):
    code = main(["scatter", "--w-expr", "tanh(x) + 0*sqrt(x^2 - 1)", "--grid=-5,5,101", "--k", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "not finite at x" in err


def test_scatter_non_finite_momentum_is_a_configuration_error(capsys):
    code = main(["scatter", "--potential", "sech2", "--k", "nan"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == "" and err == "configuration error: --k expects a comma-separated list of finite numbers\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--potential", "shifted_oscillator", "--params", "omega=nan"],
        ["spectrum", "--potential", "sech2", "--params", "B=inf"],
        ["spectrum", "--potential", "sech2", "--params", "B=nan"],
        ["swkb", "--potential", "sech2", "--params", "B=inf"],
        ["partner", "--potential", "sech2", "--params", "B=inf"],
        ["scatter", "--potential", "sech2", "--params", "B=inf"],
        ["scatter", "--potential", "sech2", "--k", "1,inf"],
        ["isospectral", "--potential", "shifted_oscillator", "--lambdas", "nan"],
        ["isospectral", "--potential", "shifted_oscillator", "--lambdas", "inf"],
        ["bands", "--v-expr", "sin(x)^2", "--period", "inf"],
        ["scatter", "--w-expr", "2*tanh(x)", "--grid=-16,16,2001", "--hbar", "inf"],
        ["partner", "--w-expr", "tanh(x)", "--grid=-10,nan,101"],
    ],
    ids=["omega-nan", "spectrum-B-inf", "B-nan", "swkb-B-inf", "partner-B-inf", "scatter-B-inf", "k-inf",
         "lambda-nan", "lambda-inf", "period-inf", "hbar-inf", "grid-nan"],
)
def test_non_finite_numbers_are_configuration_errors(capsys, argv):
    # refused where they are parsed: no CSV of nan, no traceback, no numeric failure
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert "finite" in err or "bad --grid" in err


@pytest.mark.parametrize("subcommand", ["spectrum", "swkb", "partner", "scatter"])
def test_a_parameter_too_large_for_the_closed_forms_is_a_numeric_failure(capsys, subcommand):
    code = main([subcommand, "--potential", "sech2", "--params", "B=1e308"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith(f"numeric failure in {subcommand}: ") and err.count("\n") == 1


def test_scatter_steps_must_be_positive(capsys):
    assert main(["scatter", "--potential", "sech2", "--steps", "0"]) == 2
    assert "--steps" in capsys.readouterr().err


def test_swkb_table(capsys):
    code, out = run(capsys, "swkb", "--potential", "shifted_oscillator", "--levels", "3")
    assert code == 0
    _, rows = parse_csv(out)
    for n, e_exact, e_swkb, e_wkb in rows:
        assert e_swkb == pytest.approx(e_exact, abs=1e-7)
        assert e_wkb == pytest.approx(e_exact, abs=1e-7)


def test_swkb_reports_a_truncated_level_request(capsys):
    # morse A=3, B=1 has 3 bound states; --levels 10 must say why only 3 rows come back
    code = main(["swkb", "--potential", "morse", "--levels", "10", "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    envelope = json.loads(out)
    assert len(envelope["outputs"]["rows"]) == 3
    assert envelope["diagnostics"] == {"entry": "morse", "bound_states": 3, "truncated": True}
    code = main(["swkb", "--potential", "morse", "--levels", "2", "--format", "json"])
    assert json.loads(capsys.readouterr().out)["diagnostics"]["truncated"] is False


def test_swkb_quantize_failure_is_a_numeric_failure(capsys):
    # level 2 of this sech2 well sits 4e-8 below the continuum, inside the quantizer's guard
    code = main(["swkb", "--potential", "sech2", "--params", "B=2.00000001", "--levels", "3"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == "" and err.startswith("numeric failure in swkb: level n=2")


def test_isospectral_columns(capsys):
    code, out = run(
        capsys,
        "isospectral",
        "--potential",
        "shifted_oscillator",
        "--lambdas",
        "1",
        "--grid=-10,10,101",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["x", "v_lam_1", "psi0_lam_1"]
    assert len(rows) == 101


def test_output_file_and_outdir_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SUSYQM_OUTDIR", str(tmp_path))
    code, _ = run(
        capsys, "spectrum", "--potential", "sech2", "--params", "B=2", "--output", "spec.csv"
    )
    assert code == 0
    assert (tmp_path / "spec.csv").exists()


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"potential": "sech2", "params": {"B": 2.0}}))
    code, out = run(capsys, "spectrum", "--config", str(cfg))
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[1][1] == pytest.approx(3.0)


def test_figures(tmp_path, capsys):
    code, out = run(capsys, "figures", "--outdir", str(tmp_path))
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert len(manifest) == 3
    for name in manifest:
        assert (tmp_path / name).exists()


def test_exit_code_config_error(capsys):
    assert main(["spectrum"]) == 2
    capsys.readouterr()
    assert main(["spectrum", "--potential", "no_such_well"]) == 2
    capsys.readouterr()
    assert main(["partner", "--w-expr", "tanh(x"]) == 2
    capsys.readouterr()


def test_exit_code_numeric_error(capsys):
    # a half-line entry has no finite left asymptote: flagged before numerics
    code = main(["scatter", "--potential", "coulomb"])
    capsys.readouterr()
    assert code == 2
    # a grid far too narrow for the ground state is caught as a numeric failure
    code = main(
        ["isospectral", "--potential", "shifted_oscillator", "--lambdas", "1", "--grid=-1,1,51"]
    )
    capsys.readouterr()
    assert code == 1


def test_csv_precision(capsys):
    _, out = run(capsys, "bands", "--lame", "a=1", "--m", "0.5", "--count", "1")
    value = out.strip().splitlines()[1].split(",")[0]
    assert len(value.replace(".", "").replace("-", "").lstrip("0")) >= 15


def test_partner_non_finite_output_is_a_numeric_failure(capsys):
    code, out = run(capsys, "partner", "--w-expr", "1/x", "--grid=-1,1,5")
    assert code == 1
    assert out == ""


def test_config_sets_every_key_and_explicit_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"levels": 2, "potential": "shifted_oscillator"}))
    code, out = run(capsys, "spectrum", "--config", str(cfg))
    assert code == 0
    assert len(parse_csv(out)[1]) == 2
    code, out = run(capsys, "spectrum", "--config", str(cfg), "--levels", "3")
    assert len(parse_csv(out)[1]) == 3

    cfg.write_text(json.dumps({"hbar": 3, "grid": [-5, 5, 11]}))
    argv = ["partner", "--w-expr", "tanh(x)", "--config", str(cfg), "--format", "json"]
    code, out = run(capsys, *argv, "--hbar", "2")
    assert code == 0
    inputs = json.loads(out)["inputs"]
    assert inputs["hbar"] == 2.0
    assert inputs["grid"] == [-5.0, 5.0, 11]
    _, out = run(capsys, *argv)
    assert json.loads(out)["inputs"]["hbar"] == 3.0


@pytest.mark.parametrize(
    "subcommand, bad",
    [("spectrum", {"levels": "many"}), ("spectrum", {"k": "1"}), ("scatter", {"side": 3})],
)
def test_config_values_are_checked_like_flags(tmp_path, capsys, subcommand, bad):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"potential": "sech2", **bad}))
    assert main([subcommand, "--config", str(cfg)]) == 2


def test_documented_negative_grid_form(capsys):
    # docs/expression_grammar.md writes the grid as a separate token
    code, out = run(capsys, "partner", "--w-expr", "2*tanh(x)", "--grid", "-10,10,21")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0][0] == -10.0 and len(rows) == 21


def test_expression_failures_are_configuration_errors(capsys):
    assert main(["partner", "--w-expr", "sn(x, x)", "--grid", "-1,1,5"]) == 2
    assert main(["partner", "--w-expr", "0+" + "-" * 5000 + "x", "--grid", "-1,1,5"]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("out_format", ["csv", "json"])
def test_warnings_are_printed_once_on_stderr(capsys, out_format):
    # a rough V converges only algebraically, and band_edge_states warns about it
    argv = ["bands", "--v-expr", "abs(sin(pi*x))", "--period", "1", "--format", out_format]
    assert main(argv) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("warning: ") and "converge only algebraically" in err[0]


@pytest.mark.parametrize(
    "w_expr, grid", [("2*sech(x)", "-800,800,11"), ("2*csch(x)", "1,800,11")], ids=["sech", "csch"]
)
def test_sech_and_csch_past_the_overflow_of_cosh_and_sinh_print_no_warning(capsys, w_expr, grid):
    # 1/cosh and 1/sinh tend to 0 where cosh and sinh overflow to inf
    assert main(["partner", "--w-expr", w_expr, "--grid", grid]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--potential", "morse", "--levels", "0"],
        ["spectrum", "--potential", "morse", "--levels", "-2"],
        ["swkb", "--potential", "morse", "--levels", "0"],
        ["bands", "--lame", "a=1", "--count", "0"],
        ["bands", "--lame", "a=1", "--count", "-1"],
        ["partner", "--potential", "well", "--hierarchy", "-1"],
        ["bands", "--lame", "a=0"],
        ["bands", "--lame", "a=1", "--m", "0"],
        ["bands", "--v-expr", "sin(x)^2", "--period", "pi"],
        ["scatter", "--potential", "sech2", "--k=-1,1"],
        ["scatter", "--potential", "sech2", "--k", "0"],
        ["isospectral", "--potential", "sech2", "--lambdas", "1,-0.5"],
        ["isospectral", "--potential", "sech2", "--lambdas", "-1"],
    ],
    ids=["levels-0", "levels-neg", "swkb-levels-0", "count-0", "count-neg", "hierarchy-neg",
         "lame-a0", "m-0", "period-not-a-number", "k-neg", "k-0",
         "lambda-inadmissible", "lambda-minus-one"],
)
def test_bad_flag_values_are_configuration_errors(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("configuration error: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("period", ["-3", "0"])
def test_bands_period_must_be_positive(capsys, period):
    # 0 is a given --period, not a missing one; -3 is refused before any grid is built
    assert main(["bands", "--v-expr", "sin(x)^2", "--period", period]) == 2
    assert capsys.readouterr().err == f"configuration error: --period must be positive, got {period}\n"


@pytest.mark.parametrize(
    "argv, first",
    [
        (["check"], "PASS  well ladder"),
        (["partner", "--potential", "well", "--params", "L=pi", "--hierarchy", "3"], "x,v"),
    ],
    ids=["check", "partner"],
)
def test_closed_stdout_ends_the_run_quietly(argv, first):
    # unbuffered, so every line is written as it is printed and the pipe closes mid-run
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "susyqm.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    line = proc.stdout.readline().decode()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.wait(timeout=120)
    assert line.startswith(first)
    assert err == ""


def test_check_json_envelope(capsys):
    from susyqm.selfcheck import ALL_CHECKS

    code, out = run(capsys, "check", "--format", "json")
    assert code == 0
    envelope = json.loads(out)
    checks = envelope["outputs"]["checks"]
    assert len(checks) == len(ALL_CHECKS)
    for check in checks:
        assert set(check) == {"name", "passed", "detail", "seconds", "warnings"}
        assert check["passed"] is True and check["detail"]
        assert check["warnings"] == []
        assert 0.0 < check["seconds"] < 60.0
    assert envelope["inputs"]["subcommand"] == "check"
    assert envelope["diagnostics"]["seconds"] == pytest.approx(sum(c["seconds"] for c in checks))


def warning_checks():
    from susyqm.selfcheck import CheckResult

    def noisy():
        for message in ("levels still move", "edge amplitude 1e-3", "levels still move"):
            warnings.warn(message, RuntimeWarning)
        return CheckResult("noisy", True, "warned three times")

    def quiet():
        return CheckResult("quiet", True, "no warning")

    return [noisy, quiet]


def test_check_json_reports_each_checks_warnings(capsys, monkeypatch):
    from susyqm import selfcheck

    monkeypatch.setattr(selfcheck, "ALL_CHECKS", warning_checks())
    assert main(["check", "--format", "json"]) == 0
    captured = capsys.readouterr()
    checks = json.loads(captured.out)["outputs"]["checks"]
    assert [c["warnings"] for c in checks] == [["levels still move", "edge amplitude 1e-3"], []]
    assert captured.err == ""


def test_check_text_mode_keeps_warnings_off_stderr(capsys, monkeypatch):
    from susyqm import selfcheck

    monkeypatch.setattr(selfcheck, "ALL_CHECKS", warning_checks())
    assert main(["check"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "PASS  noisy: warned three times\nPASS  quiet: no warning\n"
    assert captured.err == ""


def test_check_output_file(tmp_path, capsys):
    path = tmp_path / "check.txt"
    code, out = run(capsys, "check", "--output", str(path))
    assert code == 0 and out == ""
    lines = path.read_text().splitlines()
    assert len(lines) == 11 and all(line.startswith("PASS  ") for line in lines)


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--potential", "morse"),
        ("--params", "A=1"),
        ("--w-expr", "x"),
        ("--grid", "0,1,11"),
        ("--hbar", "2"),
        ("--mass2", "1"),
    ],
)
def test_check_refuses_potential_flags(capsys, flag, value):
    code = main(["check", flag, value])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("configuration error:") and flag in captured.err
    assert captured.err.count("\n") == 1


# each subcommand defines only the flags its handler reads
SUBCOMMAND_FLAGS = {
    "partner": "potential params w-expr grid hbar mass2 format output config hierarchy",
    "spectrum": "potential params format output config levels",
    "scatter": "potential params w-expr grid hbar mass2 format output config k side steps",
    "isospectral": "potential params w-expr grid hbar mass2 format output config lambdas",
    "swkb": "potential params format output config levels",
    "bands": "format output config lame m count v-expr period params",
    "figures": "config outdir",
    "check": "format output config",
}


def test_each_subcommand_defines_only_the_flags_it_reads():
    import argparse

    from susyqm.cli import _build_parser

    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    defined = {
        name: {opt[2:] for a in p._actions for opt in a.option_strings if opt not in ("-h", "--help")}
        for name, p in sub.choices.items()
    }
    assert defined == {name: set(flags.split()) for name, flags in SUBCOMMAND_FLAGS.items()}
    assert sum(len(flags) for flags in defined.values()) == 58


_BASE = {
    "spectrum": ["spectrum", "--potential", "sech2"],
    "swkb": ["swkb", "--potential", "morse", "--levels", "1"],
    "bands": ["bands", "--lame", "a=1"],
    "bands-v-expr": ["bands", "--v-expr", "sin(x)^2", "--period", "3"],
    "figures": ["figures", "--outdir", "out"],
}
_UNREAD = [
    *(("spectrum", flag, value) for flag, value in
      (("--w-expr", "x"), ("--grid=0,1,5", None), ("--hbar", "2"), ("--mass2", "2"))),
    *(("swkb", flag, value) for flag, value in
      (("--w-expr", "x"), ("--grid=0,1,5", None), ("--hbar", "2"), ("--mass2", "2"))),
    *(("bands", flag, value) for flag, value in
      (("--potential", "morse"), ("--w-expr", "x"), ("--grid=0,1,5", None), ("--hbar", "3"),
       ("--mass2", "2"))),
    *(("figures", flag, value) for flag, value in
      (("--potential", "morse"), ("--params", "A=1"), ("--w-expr", "x"), ("--grid=0,1,5", None),
       ("--hbar", "2"), ("--mass2", "2"), ("--format", "json"), ("--output", "o.json"))),
    # defined flags that the chosen potential source does not read
    ("bands", "--v-expr", "sin(x)^2"),
    ("bands", "--period", "2"),
    ("bands", "--params", "A=1"),
    ("bands-v-expr", "--m", "0.5"),
]


@pytest.mark.parametrize("base, flag, value", _UNREAD, ids=[f"{b}{f}" for b, f, _ in _UNREAD])
def test_unread_flags_are_configuration_errors(tmp_path, monkeypatch, capsys, base, flag, value):
    monkeypatch.chdir(tmp_path)
    code = main(_BASE[base] + [flag] + ([] if value is None else [value]))
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert flag.split("=")[0] in err
    assert list(tmp_path.iterdir()) == []  # nothing written


@pytest.mark.parametrize("units", [["--hbar", "2"], ["--mass2", "0.25"]], ids=["hbar", "mass2"])
def test_scatter_w_expr_propagates_in_its_own_units(capsys, units):
    # W = 2 tanh x at c = 2 is the reflectionless -2 sech^2 well in units of c^2:
    # |R| = 0 and t = (1 - ik)/(-1 - ik) for every k
    argv = ["scatter", "--w-expr", "2*tanh(x)", "--grid=-16,16,2001", "--k", "0.5,1,2", *units]
    code, out = run(capsys, *argv)
    assert code == 0
    for k, _, _, _, re_t, im_t, prob_r, _ in parse_csv(out)[1]:
        assert prob_r < 1e-20
        assert complex(re_t, im_t) == pytest.approx((1 - 1j * k) / (-1 - 1j * k), abs=1e-8)


def test_partner_well_reads_the_whole_grid(capsys):
    argv = ["partner", "--potential", "well", "--hierarchy", "2", "--grid=0.5,2.5,5"]
    code, out = run(capsys, *argv)
    assert code == 0
    rows = parse_csv(out)[1]
    assert [r[0] for r in rows] == [0.5, 1.0, 1.5, 2.0, 2.5]
    assert rows[2][1] == pytest.approx(2.0 / math.sin(1.5) ** 2 - 1.0)  # V2 = 2/sin^2 x - 1


def test_partner_well_with_a_grid_point_on_a_wall_is_a_numeric_failure(capsys):
    code, out = run(capsys, "partner", "--potential", "well", "--hierarchy", "2", "--grid=0,3,7")
    assert code == 1 and out == ""


def test_a_numeric_failure_prints_only_its_own_line(capsys):
    # sampling V on the wall divides by zero; that numpy warning is not printed next to the failure
    assert main(["partner", "--potential", "well", "--hierarchy", "2", "--grid=0,3,7"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("numeric failure in partner:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [["spectrum", "--potential", "morse", "--lev", "2"], ["figures", "--out", "o.json"]],
    ids=["levels", "outdir"],
)
def test_an_abbreviated_flag_is_an_unknown_flag(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert not any(tmp_path.iterdir())  # figures wrote nothing, not even a directory o.json


@pytest.mark.parametrize(
    "extra",
    [["--hbar", "2"], ["--mass2", "2"], ["--params", "L=pi,A=1"], ["--params", "L=0"],
     ["--w-expr", "x", "--grid=0.5,2.5,5"]],
    ids=["hbar", "mass2", "unknown-param", "zero-width", "w-expr"],
)
def test_partner_well_refuses_what_it_cannot_read(capsys, extra):
    code = main(["partner", "--potential", "well", "--hierarchy", "2", *extra])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("configuration error:") and err.count("\n") == 1
