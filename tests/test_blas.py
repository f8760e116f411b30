"""The bound-state kernels never call numpy's BLAS, and the dense solves run on one BLAS thread.

Where numpy bundles its OpenBLAS, the solvers' LAPACK runs on it (see
test_lapack.py) and the process holds one OpenBLAS and one thread pool. On the
scipy fallback numpy and scipy each bring an OpenBLAS with its own pool. With
more than one BLAS thread, a numpy BLAS call between two scipy LAPACK calls
leaves numpy's threads spinning on the cores that scipy's then wait for, so
the solvers reduce with np.einsum, which computes in numpy's own loops, and
their LAPACK calls run inside _blas.one_blas_thread().
"""

import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from susyqm import _blas, _lapack, periodic, spectral
from susyqm._blas import one_blas_thread

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "susyqm"
KERNELS = ["eigensolver.py", "grids.py", "isospectral.py", "panels.py", "spectral.py"]
BLAS_METHODS = {"dot", "inner", "vdot", "matmul"}  # np.dot, x.dot(y), np.inner, ...


def _blas_calls(tree: ast.AST) -> list:
    """(line, what) of every expression in tree that can dispatch to numpy's BLAS."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr == "linalg":
            found.append((node.lineno, "np.linalg"))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.linalg"):
            found.append((node.lineno, "numpy.linalg"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in BLAS_METHODS:
                found.append((node.lineno, node.func.attr))
            elif node.func.attr == "einsum" and any(k.arg == "optimize" for k in node.keywords):
                found.append((node.lineno, "einsum(optimize=...)"))  # optimize may hand the product to BLAS
    return sorted(found)


@pytest.mark.parametrize("name", KERNELS)
def test_the_kernels_make_no_numpy_blas_call(name):
    assert _blas_calls(ast.parse((PACKAGE / name).read_text(encoding="utf-8"))) == []


def test_the_guard_sees_each_kind_of_call():
    source = """
a @ b
a @= b
np.dot(a, b)
a.dot(b)
np.inner(a, b)
np.vdot(a, b)
np.matmul(a, b)
np.linalg.norm(a)
from numpy.linalg import eigh
np.einsum("i,i->", a, b, optimize=True)
np.einsum("i,i->", a, b)
"""
    assert [what for _, what in _blas_calls(ast.parse(source))] == [
        "@", "@", "dot", "dot", "inner", "vdot", "matmul", "np.linalg", "numpy.linalg", "einsum(optimize=...)"
    ]


class FakePool:
    """A pool's get/set pair that records every count it is set to."""

    def __init__(self, threads: int):
        self.threads, self.sets = threads, []

    def get(self) -> int:
        return self.threads

    def set(self, threads: int) -> None:
        self.threads = threads
        self.sets.append(threads)


@pytest.fixture
def fake_pools(monkeypatch):
    pools = [FakePool(2), FakePool(3)]
    monkeypatch.setattr(_blas, "_pools", lambda: [(p.get, p.set) for p in pools])
    return pools


def test_the_scope_sets_one_thread_and_restores_each_count(fake_pools):
    with one_blas_thread():
        assert [p.threads for p in fake_pools] == [1, 1]
        with one_blas_thread():
            assert [p.threads for p in fake_pools] == [1, 1]
        assert [p.threads for p in fake_pools] == [1, 1]  # the inner scope restores the outer's 1
    assert [p.threads for p in fake_pools] == [2, 3]
    with pytest.raises(RuntimeError):
        with one_blas_thread():
            raise RuntimeError("inside the scope")
    assert [p.threads for p in fake_pools] == [2, 3]


def test_the_bundled_pools_read_one_thread_inside_and_their_count_after():
    import scipy.linalg  # noqa: F401  loads scipy's pool next to numpy's

    pools = _blas._pools()
    if not pools:
        pytest.skip("numpy and scipy here bundle no scipy-openblas pool")
    before = [get() for get, _ in pools]
    try:
        for _, set_threads in pools:
            set_threads(2)
        with one_blas_thread():
            assert [get() for get, _ in pools] == [1] * len(pools)
            with one_blas_thread():
                assert [get() for get, _ in pools] == [1] * len(pools)
        assert [get() for get, _ in pools] == [2] * len(pools)
        with pytest.raises(ValueError):
            with one_blas_thread():
                raise ValueError("inside the scope")
        assert [get() for get, _ in pools] == [2] * len(pools)
    finally:
        for (_, set_threads), count in zip(pools, before):
            set_threads(count)


def test_with_no_pool_found_the_scope_does_nothing(monkeypatch, tmp_path):
    # one library that is not on disk, one that exists but is not loaded in this process
    unloaded = tmp_path / "libscipy_openblas-0.so"
    unloaded.write_bytes(b"")
    monkeypatch.setattr(_blas, "_libraries", lambda: ((str(tmp_path / "missing.so"), ""), (str(unloaded), "")))
    monkeypatch.setattr(_blas, "_found", {})
    assert _blas._pools() == []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with one_blas_thread():
            pass


def test_the_solvers_run_their_lapack_calls_inside_the_scope(fake_pools, monkeypatch):
    threads_at_call = []

    def counting(fn):
        def wrapped(*args, **kwargs):
            threads_at_call.append([p.threads for p in fake_pools])
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(_lapack, "syevr", counting(_lapack.syevr))
    monkeypatch.setattr(np.linalg, "eigh", counting(np.linalg.eigh))
    lv = spectral.spectral_bound_states(lambda x: x * x, (-8.0, 8.0), 3, walls=(None, None))
    assert [p.energy for p in lv] == pytest.approx([1.0, 3.0, 5.0], abs=1e-9)
    assert fake_pools[0].sets == [1, 2] and fake_pools[1].sets == [1, 3]  # entered once, restored
    solves = len(threads_at_call)
    assert solves > 0
    edges = periodic.numeric_band_edges(lambda x: 3.0 * np.cos(x) ** 2, math.pi, 3, n_points=201)
    assert len(edges) == 3
    assert fake_pools[0].sets == [1, 2, 1, 2] and fake_pools[1].sets == [1, 3, 1, 3]
    assert len(threads_at_call) == solves + 2  # one Hill eigh per sector
    assert all(threads == [1, 1] for threads in threads_at_call)
