"""Tests of the benchmark's own machinery: spans, digits, the wrapper sweep, seeding."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from harness import DIGITS_CAP, Output, category_digits, digits, timing_summary  # noqa: E402
from tracing import Tracer, aggregate, by_name, self_times  # noqa: E402


def _columns(spans):
    """Tracer-style span arrays from (name, start, end, parent, job) tuples."""
    names = sorted({s[0] for s in spans})
    jobs = sorted({s[4] for s in spans if s[4] is not None})
    return {
        "names": names,
        "jobs": jobs,
        "name": np.array([names.index(s[0]) for s in spans], dtype=np.int32),
        "start": np.array([s[1] for s in spans]),
        "end": np.array([s[2] for s in spans]),
        "parent": np.array([s[3] for s in spans], dtype=np.int32),
        "job": np.array([-1 if s[4] is None else jobs.index(s[4]) for s in spans], dtype=np.int32),
    }


def test_self_time_of_synthetic_nested_call():
    # a [0, 10] calls b [1, 4] (which calls c [2, 3]) and then d [5, 9]
    cols = _columns(
        [
            ("a", 0.0, 10.0, -1, "job"),
            ("b", 1.0, 4.0, 0, "job"),
            ("c", 2.0, 3.0, 1, "job"),
            ("d", 5.0, 9.0, 0, "job"),
        ]
    )
    assert self_times(cols) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    agg = aggregate(cols)
    assert agg[("a", "job")] == {"calls": 1, "self_s": pytest.approx(3.0), "total_s": pytest.approx(10.0)}
    assert agg[("c", "job")] == {"calls": 1, "self_s": pytest.approx(1.0), "total_s": pytest.approx(1.0)}


def test_reentrant_call_is_not_counted_twice_in_total():
    # f [0, 10] calls g [1, 8], which calls f again [2, 6]; a second job calls f [11, 12]
    cols = _columns(
        [
            ("f", 0.0, 10.0, -1, "j1"),
            ("g", 1.0, 8.0, 0, "j1"),
            ("f", 2.0, 6.0, 1, "j1"),
            ("f", 11.0, 12.0, -1, "j2"),
        ]
    )
    agg = aggregate(cols)
    assert agg[("f", "j2")]["total_s"] == pytest.approx(1.0)
    f = by_name(agg)["f"]
    assert f["calls"] == 3
    assert f["total_s"] == pytest.approx(11.0)
    assert f["self_s"] == pytest.approx(3.0 + 4.0 + 1.0)
    assert agg[("g", "j1")]["self_s"] == pytest.approx(3.0)


def test_digits_including_exact_and_non_finite_errors():
    assert digits(1e-7, 1e-5) == pytest.approx(2.0)
    assert digits(1e-3, 1e-5) == pytest.approx(-2.0)
    assert digits(0.0, 1e-5) == DIGITS_CAP
    assert digits(1e-300, 1e-5) == DIGITS_CAP
    assert digits(math.inf, 1e-5) == -DIGITS_CAP
    outs = [Output("a", "level", 1e-6, 1e-5), Output("b", "level", 1e-8, 1e-5), Output("c", "level", 0.0, 1e-5)]
    got = category_digits(outs)
    assert got["level_digits"] == pytest.approx(3.0)  # median of 1, 3 and the cap
    assert got["swkb_digits"] == DIGITS_CAP  # no outputs of that kind


def test_timing_summary_tail_needs_ten_samples_beyond_it():
    assert timing_summary([3.0, 1.0, 2.0])["tail"] is None
    s = timing_summary([float(i) for i in range(1, 21)])
    assert s["median"] == pytest.approx(10.5)
    assert s["tail_pct"] == pytest.approx(50.0)
    assert s["tail"] == 10.0


@pytest.fixture
def fake_package():
    lib = types.ModuleType("fakepkg.lib")
    user = types.ModuleType("fakepkg.user")
    exec(
        "def inner(x):\n    return x + 1\n"
        "def outer(x):\n    return inner(x) * 2\n"
        "class Box:\n    def get(self):\n        return outer(1)\n",
        lib.__dict__,
    )
    user.outer = lib.outer  # re-exported, as `from .lib import outer` does
    sys.modules["fakepkg.lib"], sys.modules["fakepkg.user"] = lib, user
    yield lib, user
    del sys.modules["fakepkg.lib"], sys.modules["fakepkg.user"]


def test_sweep_wraps_reexported_name_and_restore_removes_it(fake_package):
    lib, user = fake_package
    original, original_get = lib.outer, lib.Box.get
    tracer = Tracer(prefix="fakepkg")
    tracer.install()
    try:
        assert user.outer is lib.outer is not original
        assert user.outer.__wrapped__ is original
        tracer.set_job("j1")
        assert user.outer(1) == 4
        assert lib.Box().get() == 4
    finally:
        tracer.restore()
    assert lib.outer is original and user.outer is original
    assert lib.Box.get is original_get
    cols = tracer.columns()
    assert [cols["names"][i] for i in cols["name"]] == ["lib.outer", "lib.inner", "lib.Box.get", "lib.outer", "lib.inner"]
    assert list(cols["parent"]) == [-1, 0, -1, 2, 3]
    assert [cols["jobs"][j] for j in cols["job"]] == ["j1"] * 5
    user.outer(1)  # restored functions record nothing more
    assert tracer.columns()["name"].size == 5


@pytest.mark.parametrize("workload", ["transmission_sweep", "spectra_grid", "selfcheck", "cli_examples"])
def test_one_seed_always_gives_the_same_job_list(workload, tmp_path):
    from workloads import build

    def inputs(seed):
        return [(job.name, job.run.args) for job in build(workload, seed, tmp_path)]

    assert inputs(11) == inputs(11)
    if workload in ("transmission_sweep", "spectra_grid"):
        assert inputs(11) != inputs(12)


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    from layers import per_layer_spec
    from run import END_TO_END

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == per_layer_spec()


def test_runner_refuses_a_tree_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "selfcheck", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert res.returncode != 0
    assert res.stdout.strip() == ""
