"""Start-up cost: scipy subpackages load only in the commands that use them.

Where numpy bundles its OpenBLAS, the solvers' LAPACK calls go to that library
(see susyqm._lapack) and no command loads scipy; `check` loads scipy.linalg only
on the fallback, where numpy bundles none.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import susyqm
from susyqm import _lapack

SRC = str(Path(__file__).resolve().parents[1] / "src")

# run one README command in a fresh interpreter, then list the scipy modules it loaded
PROBE = """
import contextlib, io, json, sys
from susyqm.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))]))
"""


def scipy_modules(argv: list) -> list:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    res = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    code, modules = json.loads(res.stdout)
    assert code == 0, res.stderr
    return modules


@pytest.mark.parametrize(
    "argv",
    [
        ["partner", "--potential", "well", "--params", "L=pi", "--hierarchy", "3"],
        ["spectrum", "--potential", "sech2", "--params", "B=2"],
        ["scatter", "--potential", "sech2", "--params", "B=1", "--k", "0.5,1,2"],
        ["isospectral", "--potential", "shifted_oscillator", "--lambdas", "0.5,1,5"],
        ["swkb", "--potential", "morse", "--levels", "3"],
        ["bands", "--lame", "a=1", "--m", "0.5"],
        ["figures", "--outdir", "{tmp}"],
    ],
    ids=lambda argv: argv[0],
)
def test_commands_without_a_solver_load_no_scipy(argv, tmp_path):
    assert scipy_modules([a.format(tmp=tmp_path) for a in argv]) == []


def test_check_never_loads_scipy_optimize():
    # the solvers' LAPACK is numpy's bundled OpenBLAS, and the SWKB checks run
    # on the Brent ports; on the fallback the solvers need scipy.linalg, but
    # never scipy.optimize
    modules = scipy_modules(["check"])
    if _lapack.lapack() == "numpy":
        assert modules == []
    else:
        assert "scipy.linalg" in modules
        assert not any(m == "scipy.optimize" or m.startswith("scipy.optimize.") for m in modules)


def test_swkb_names_are_served_by_the_package():
    from susyqm import QuantizeError, quantize
    from susyqm import swkb

    assert quantize is swkb.quantize and QuantizeError is swkb.QuantizeError
    namespace = {}
    exec("from susyqm import *", namespace)
    assert all(name in namespace for name in susyqm.__all__)
    with pytest.raises(AttributeError):
        susyqm.no_such_name


def test_the_cli_does_not_load_the_spectral_engine():
    # only `check` solves a callable V (figures writes its box states in closed form);
    # a process that never does should not compile the engine
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    probe = "import sys, susyqm.cli; print('susyqm.spectral' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120)
    assert res.stdout.strip() == "False", res.stderr
    from susyqm import spectral_bound_states
    from susyqm.spectral import spectral_bound_states as engine

    assert spectral_bound_states is engine


def test_importing_the_check_suite_loads_no_scipy_and_no_spectral_engine():
    # transmission_sweep imports selfcheck for its parameter draws and must stay light
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    probe = (
        "import json, sys, susyqm.selfcheck; "
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'scipy' or m == 'susyqm.spectral')))"
    )
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120)
    assert json.loads(res.stdout) == [], res.stderr


# run `check --format json` in a fresh interpreter, noting the modules the checks themselves load
STAGE_PROBE = """
import contextlib, io, json, sys
from susyqm import cli, selfcheck
run_all, loaded = selfcheck.run_all, []

def spy(*args, **kwargs):
    before = set(sys.modules)
    results = run_all(*args, **kwargs)
    loaded.extend(sorted(set(sys.modules) - before))
    return results

selfcheck.run_all = spy
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main(["check", "--format", "json"])
print(json.dumps([code, loaded, json.loads(out.getvalue())]))
"""


def test_check_times_the_engine_import_as_its_own_stage():
    # in a fresh process `check` pays the first import of the engine and of the
    # solvers' LAPACK (scipy.linalg on the fallback); it is reported apart as
    # import_seconds, and the checks import no module, so each check (the well
    # ladder first) is charged only its own work; the envelope names the
    # library that served the solvers
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    res = subprocess.run([sys.executable, "-c", STAGE_PROBE], capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    code, loaded, envelope = json.loads(res.stdout)
    assert code == 0 and loaded == []
    assert envelope["diagnostics"]["import_seconds"] > 0.0
    assert all(check["seconds"] > 0.0 for check in envelope["outputs"]["checks"])
    assert envelope["diagnostics"]["lapack"] == _lapack.lapack()
