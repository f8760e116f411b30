"""The solvers' LAPACK calls, on numpy's bundled OpenBLAS where there is one.

The solvers make a handful of LAPACK calls: dgtsv, a Sturm count, dstebz and
dstein in eigensolver's cascade, dstevd and dsyevr in the spectral engine.
numpy's wheels bundle an ILP64 scipy-openblas (numpy.libs, loaded with numpy
itself) that exports every LAPACK routine as scipy_<name>_64_, so they are
bound here with ctypes and no scipy module is imported. Each call passes what
scipy's wrapper passes (eigh_tridiagonal's dstebz, dstein and argsort; dstevd
with jobz 'N'; dsyevr with UPLO 'U', lwork 26 n and liwork 10 n), so the
results are scipy's bit for bit. The Sturm count is dlarrc with JOBT 'T',
which needs no workspace, where scipy's route is a dstebz count. Where that
library is not loaded or lacks a routine (numpy on a system BLAS, Accelerate
or MKL, or a platform without RTLD_NOLOAD), each function calls
scipy.linalg.lapack as scipy's own wrappers would. lapack() names the library
in use. The routines' contracts are those of the LAPACK Users' Guide
(Anderson et al., SIAM 1999). The module is imported on the first solve, so
a process that never solves does not compile it.
"""

from __future__ import annotations

import ctypes
import os
from functools import lru_cache

import numpy as np

from . import _blas

# ctypes argument types: every array and scalar goes by reference, as float64
# (_d) or ILP64 integer (_i); one-character strings (_c) and their hidden
# lengths (_n), which gfortran passes last
_d, _i, _c, _n = ctypes.POINTER(ctypes.c_double), ctypes.POINTER(ctypes.c_int64), ctypes.c_char_p, ctypes.c_size_t
_SIGNATURES = {
    "dgtsv": (_i, _i, _d, _d, _d, _d, _i, _i),
    "dlarrc": (_c, _i, _d, _d, _d, _d, _d, _i, _i, _i, _i, _n),
    "dstebz": (_c, _c, _i, _d, _d, _i, _i, _d, _d, _d, _i, _i, _d, _i, _i, _d, _i, _i, _n, _n),
    "dstein": (_i, _d, _d, _i, _d, _i, _i, _d, _i, _d, _i, _i, _i),
    "dstevd": (_c, _i, _d, _d, _d, _i, _d, _i, _i, _i, _i, _n),
    "dsyevr": (_c, _c, _c, _i, _d, _i, _d, _d, _i, _i, _d, _i, _d, _d, _i, _i, _d, _i, _i, _i, _i, _n, _n, _n),
}


@lru_cache(maxsize=None)
def _bundled():
    """{name: routine} of the solvers' LAPACK routines from numpy's ILP64
    OpenBLAS, if this process has loaded it and it exports them all; else None."""
    for path, suffix in _blas._libraries():
        if suffix != "64_":
            continue
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
            routines = {name: getattr(lib, f"scipy_{name}_64_") for name in _SIGNATURES}
        except (OSError, AttributeError):
            continue
        for name, routine in routines.items():
            routine.argtypes, routine.restype = _SIGNATURES[name], None
        return routines
    return None


def lapack() -> str:
    """"numpy" where numpy's bundled OpenBLAS serves the solvers' LAPACK; else
    "scipy", whose scipy.linalg is then imported here."""
    if _bundled() is not None:
        return "numpy"
    import scipy.linalg  # noqa: F401

    return "scipy"


def _int(value: int):
    return ctypes.byref(ctypes.c_int64(value))


def _float(value: float):
    return ctypes.byref(ctypes.c_double(value))


def _ptr(a: np.ndarray, ctype=ctypes.c_double):
    """A pointer to the data of a, whose dtype must be ctype's and which
    from_buffer requires to be C-contiguous and writable; None, the null
    pointer, for an empty a, which LAPACK then does not read. An ndpointer
    argtype checks the same at four times the cost, which over the 4000 array
    arguments of a spectra_grid pass was 4 % of its time."""
    if a.dtype.char != ctype._type_:  # the struct code both use, "d" for float64
        raise TypeError(f"LAPACK needs dtype {ctype._type_!r} here, got {a.dtype}")
    return ctypes.byref(ctype.from_buffer(a)) if a.size else None


def _ints(a: np.ndarray):
    return _ptr(a, ctypes.c_int64)


def _tridiagonal(d, e) -> tuple[np.ndarray, np.ndarray]:
    """(d, e) as contiguous writable float64 arrays, e one shorter than d."""
    d, e = (np.require(a, np.float64, ["C", "W"]) for a in (d, e))
    if d.ndim != 1 or e.shape != (max(d.size - 1, 0),):
        raise ValueError(f"a tridiagonal needs e one shorter than d, got {d.shape} and {e.shape}")
    return d, e


def _ok(info: ctypes.c_int64, routine: str) -> None:
    if info.value:
        raise np.linalg.LinAlgError(f"LAPACK {routine} failed with info = {info.value}")


def gtsv(dl: np.ndarray, d: np.ndarray, du: np.ndarray, b: np.ndarray) -> int:
    """Solve the tridiagonal (dl, d, du) x = b for one right-hand side, all four
    contiguous float64 and overwritten, x in b (dgtsv); LAPACK's info."""
    routines = _bundled()
    if routines is None:
        from scipy.linalg.lapack import dgtsv

        return dgtsv(dl, d, du, b[:, None], 1, 1, 1, 1)[-1]
    if not dl.size == du.size == d.size - 1 == b.size - 1:
        raise ValueError(f"dgtsv needs n - 1, n, n - 1 and n entries, got {dl.size}, {d.size}, {du.size}, {b.size}")
    info = ctypes.c_int64()
    routines["dgtsv"](_int(d.size), _int(1), _ptr(dl), _ptr(d), _ptr(du), _ptr(b), _int(d.size), info)
    return info.value


def count_in(d: np.ndarray, e: np.ndarray, lo: float, x: float) -> int:
    """How many eigenvalues of the tridiagonal (d, e) lie in (lo, x]: a Sturm count."""
    routines = _bundled()
    if routines is None:
        from scipy.linalg.lapack import dstebz

        # an abstol wider than (lo, x]: dstebz counts and bisects nothing
        return dstebz(d, e, 1, lo, x, 0, 0, 2.0 * (x - lo), b"E")[0]
    d, e = _tridiagonal(d, e)
    count, left, right, info = (ctypes.c_int64() for _ in range(4))
    # JOBT 'T' reads no minimum pivot and always returns info = 0
    routines["dlarrc"](
        b"T", _int(d.size), _float(lo), _float(x), _ptr(d), _ptr(e), _float(0.0), count, left, right, info, 1
    )
    return count.value


def lowest(d: np.ndarray, e: np.ndarray, count: int, vectors: bool = False):
    """The lowest `count` eigenvalues of the tridiagonal (d, e), ascending, and
    with vectors their unit eigenvectors as columns: what scipy's
    eigh_tridiagonal(d, e, select="i") returns, by the same dstebz (range I,
    tol 0) and, for vectors, dstein from dstebz's block order."""
    routines = _bundled()
    if routines is None:
        from scipy.linalg import eigh_tridiagonal

        return eigh_tridiagonal(d, e, select="i", select_range=(0, count - 1), eigvals_only=not vectors)
    d, e = _tridiagonal(d, e)
    n = d.size
    if not 1 <= count <= n:
        raise ValueError(f"count must be in [1, {n}], got {count}")
    w, work = np.empty(n), np.empty(4 * n)
    iblock, isplit, iwork = np.empty(n, np.int64), np.empty(n, np.int64), np.empty(3 * n, np.int64)
    m, nsplit, info = ctypes.c_int64(), ctypes.c_int64(), ctypes.c_int64()
    routines["dstebz"](
        b"I", b"B" if vectors else b"E", _int(n), _float(0.0), _float(1.0), _int(1), _int(count), _float(0.0),
        _ptr(d), _ptr(e), m, nsplit, _ptr(w), _ints(iblock), _ints(isplit), _ptr(work), _ints(iwork), info, 1, 1,
    )  # fmt: skip
    _ok(info, "dstebz")
    w = w[: m.value]
    if not vectors:
        return w
    del work, iwork  # dstein's workspace takes their place
    zt = np.empty((w.size, n))  # z (n, m) in Fortran order
    work, iwork, ifail = np.empty(5 * n), np.empty(n, np.int64), np.empty(w.size, np.int64)
    routines["dstein"](
        _int(n), _ptr(d), _ptr(e), _int(w.size), _ptr(w), _ints(iblock), _ints(isplit), _ptr(zt), _int(n),
        _ptr(work), _ints(iwork), _ints(ifail), info,
    )  # fmt: skip
    _ok(info, "dstein")
    order = np.argsort(w)
    return w[order], zt.T[:, order]


def eigenvalues(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Every eigenvalue of the tridiagonal (d, e), ascending: dstevd with jobz
    'N', as scipy's eigh_tridiagonal(d, e, eigvals_only=True) runs it."""
    routines = _bundled()
    if routines is None:
        from scipy.linalg import eigh_tridiagonal

        return eigh_tridiagonal(d, e, eigvals_only=True)
    w, e = (np.array(a) for a in _tridiagonal(d, e))  # dstevd overwrites both
    z, work, iwork, info = np.empty(1), np.empty(1), np.empty(1, np.int64), ctypes.c_int64()
    routines["dstevd"](
        b"N", _int(w.size), _ptr(w), _ptr(e), _ptr(z), _int(1), _ptr(work), _int(1), _ints(iwork), _int(1), info, 1
    )
    _ok(info, "dstevd")
    return w


def syevr(a: np.ndarray, count: int, abstol: float):
    """(w, z, info) of dsyevr for the lowest `count` eigenpairs of the symmetric
    Fortran-ordered float64 a (overwritten), from its upper triangle: the
    eigenvalues w and their unit eigenvectors as the columns of z,
    Fortran-ordered, as scipy's dsyevr wrapper gives them with its defaults."""
    routines = _bundled()
    if routines is None:
        from scipy.linalg.lapack import dsyevr

        w, z, _, _, info = dsyevr(a, range="I", il=1, iu=count, abstol=abstol, overwrite_a=1)
        return w[:count], z, info
    n = a.shape[0]
    if a.shape != (n, n) or not 1 <= count <= n:
        raise ValueError(f"dsyevr needs a square matrix and 1 <= count <= N, got {a.shape} and {count}")
    w, zt, isuppz = np.empty(n), np.empty((count, n)), np.empty(2 * n, np.int64)  # zt: z in Fortran order
    work, iwork = np.empty(26 * n), np.empty(10 * n, np.int64)
    m, info = ctypes.c_int64(), ctypes.c_int64()
    routines["dsyevr"](
        b"V", b"I", b"U", _int(n), _ptr(a.T), _int(n), _float(0.0), _float(0.0), _int(1), _int(count),
        _float(abstol), m, _ptr(w), _ptr(zt), _int(n), _ints(isuppz), _ptr(work), _int(26 * n), _ints(iwork),
        _int(10 * n), info, 1, 1, 1,
    )  # fmt: skip
    return w[:count], zt.T, info.value
