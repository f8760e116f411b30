"""The package version has one source: pyproject reads it from susyqm.__version__."""

import importlib
import json
import re
from pathlib import Path

import susyqm
from susyqm.cli import main

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def pyproject_version() -> str:
    """The version pyproject declares, static or via a dynamic attr (no tomllib on 3.10)."""
    text = PYPROJECT.read_text()
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    static = re.search(r'^version\s*=\s*"([^"]+)"', project, re.M)
    if static:
        return static.group(1)
    assert re.search(r'^dynamic\s*=\s*\[[^\]]*"version"', project, re.M)
    attr = re.search(r'^version\s*=\s*\{\s*attr\s*=\s*"([\w.]+)"\s*\}', text, re.M).group(1)
    module, name = attr.rsplit(".", 1)
    return getattr(importlib.import_module(module), name)


def test_pyproject_and_package_agree(capsys):
    assert pyproject_version() == susyqm.__version__
    assert main(["spectrum", "--potential", "sech2", "--params", "B=2", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["version"] == susyqm.__version__
