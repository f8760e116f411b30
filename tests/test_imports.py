"""Start-up cost: scipy subpackages load only in the commands that use them."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import susyqm

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
    ],
    ids=lambda argv: argv[0],
)
def test_commands_without_a_solver_load_no_scipy(argv):
    assert scipy_modules(argv) == []


def test_bands_loads_only_scipy_linalg():
    modules = scipy_modules(["bands", "--lame", "a=1", "--m", "0.5"])
    subpackages = {m.split(".")[1] for m in modules if "." in m and not m.split(".")[1].startswith("_")}
    assert "linalg" in subpackages
    assert subpackages <= {"linalg", "version"}  # scipy/__init__ always loads scipy.version


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
    # no command solves a callable V; a process that never does should not compile it
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    probe = "import sys, susyqm.cli; print('susyqm.spectral' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120)
    assert res.stdout.strip() == "False", res.stderr
    from susyqm import spectral_bound_states
    from susyqm.spectral import spectral_bound_states as engine

    assert spectral_bound_states is engine
