"""The bound-state kernels never call numpy's BLAS.

numpy and scipy each bundle their own OpenBLAS with its own thread pool. With
more than one BLAS thread, a numpy BLAS call between two scipy LAPACK calls
leaves numpy's threads spinning on the cores that scipy's then wait for, so
the solvers reduce with np.einsum, which computes in numpy's own loops.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "susyqm"
KERNELS = ["eigensolver.py", "grids.py", "spectral.py"]
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
