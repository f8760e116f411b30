import json
import math

import numpy as np
import pytest

from susyqm.cli import main


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
