"""One BLAS thread for the length of a dense solve.

numpy's wheels bundle an OpenBLAS (the scipy-openblas build in the numpy.libs
folder beside the package), and where it serves the solvers' LAPACK (see
_lapack) the process holds that one OpenBLAS and its one thread pool. Even
then a small dense solve loses at two threads: on 2 shared cores, its dsyevr
for the lowest 6 levels of a 96 to 128-square matrix took 8 to 24 ms at two
threads against 0.6 to 0.8 ms at one (medians of 30 calls). On the scipy
fallback, scipy's wheel brings a second OpenBLAS (scipy.libs), and each keeps
its own pool. With more than one BLAS thread, a LAPACK call from one pool
right after a call from the other waits while the first pool's threads still
spin on the shared cores: on 2 cores at 2 BLAS threads, scipy's dsyevr for the
lowest 6 levels of a 128 x 128 matrix took a median 4.1 ms right after a numpy
eigh of an 80 x 80 matrix, against 0.73 ms at one thread, and the eigh right
after the dsyevr 3.9 ms against 0.53 ms (0.66 and 0.50 ms each on its own).
The solvers' dense problems are too small to gain from a second thread, so
they run inside one_blas_thread(), which sets every bundled pool the process
has loaded to one thread. Only libraries the process has already loaded are
touched (dlopen with RTLD_NOLOAD); where no bundled pool is found, as with a
system BLAS, the scope does nothing.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

import numpy as np

# (folder beside the packages, library file stem, symbol suffix) of each bundled OpenBLAS
_BUNDLES = (("numpy.libs", "libscipy_openblas64_-", "64_"), ("scipy.libs", "libscipy_openblas-", ""))
_found: dict = {}  # library path -> (get, set) of its thread count, once loaded


@lru_cache(maxsize=None)
def _libraries() -> tuple:
    """(path, symbol suffix) of each bundled OpenBLAS on disk."""
    if not hasattr(os, "RTLD_NOLOAD"):
        return ()
    site = Path(np.__file__).resolve().parents[1]
    return tuple(
        (str(lib), suffix) for folder, stem, suffix in _BUNDLES for lib in sorted((site / folder).glob(stem + "*.so*"))
    )


def _pools() -> list:
    """(get, set) of the thread count of each bundled OpenBLAS this process has loaded."""
    for path, suffix in _libraries():
        if path not in _found:
            try:
                lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
                _found[path] = (
                    getattr(lib, "scipy_openblas_get_num_threads" + suffix),
                    getattr(lib, "scipy_openblas_set_num_threads" + suffix),
                )
            except (OSError, AttributeError):  # not loaded (yet), or not this build
                continue
    return list(_found.values())


@contextmanager
def one_blas_thread():
    """Every bundled OpenBLAS pool at one thread inside, each back at its previous count after."""
    pools = _pools()
    previous = [get() for get, _ in pools]
    for _, set_threads in pools:
        set_threads(1)
    try:
        yield
    finally:
        for (_, set_threads), count in zip(pools, previous):
            set_threads(count)
