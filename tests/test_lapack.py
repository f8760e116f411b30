"""The solvers' LAPACK bindings against scipy's, and the scipy fallback.

Where numpy bundles its OpenBLAS, _lapack binds the solvers' LAPACK routines
from that library with ctypes: each binding must give what scipy.linalg.lapack
gives, bit for bit, and with the library hidden every solver must give the
same levels on scipy's.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from susyqm import _lapack

SRC = str(Path(__file__).resolve().parents[1] / "src")


bundled = pytest.mark.skipif(_lapack._bundled() is None, reason="numpy here bundles no scipy-openblas LAPACK")


def _tridiagonal(rng, n: int):
    """A random symmetric tridiagonal (d, e), as the cascade's grids give them: d > 2 |e|."""
    return 4.0 + rng.uniform(0.0, 5.0, n), -rng.uniform(0.5, 2.0, n - 1)


@bundled
@pytest.mark.parametrize("n", [1, 2, 7, 200])
def test_the_tridiagonal_bindings_are_scipys_bit_for_bit(n):
    from scipy.linalg import eigh_tridiagonal
    from scipy.linalg.lapack import dgtsv, dstebz

    rng = np.random.default_rng(n)
    for _ in range(5):
        d, e = _tridiagonal(rng, n)
        count = int(rng.integers(1, n + 1))
        select = {"select": "i", "select_range": (0, count - 1)}
        assert np.array_equal(_lapack.lowest(d, e, count), eigh_tridiagonal(d, e, **select, eigvals_only=True))
        w, z = _lapack.lowest(d, e, count, vectors=True)
        w_ref, z_ref = eigh_tridiagonal(d, e, **select)
        assert np.array_equal(w, w_ref) and np.array_equal(z, z_ref)
        assert np.array_equal(_lapack.eigenvalues(d, e), eigh_tridiagonal(d, e, eigvals_only=True))
        if n == 1:  # scipy's dstebz and dgtsv wrappers refuse the empty e
            continue
        # the Sturm count, from below every eigenvalue, at random points and at
        # 8 eps |T| on either side of each eigenvalue (the cascade counts at its
        # top level plus its residual and 8 eps |T|); at an eigenvalue itself
        # the count is rounding's, and the two Sturm recurrences round apart
        lo = d.min() - 4.0 - 1.0
        margin = 8.0 * np.finfo(float).eps * (d.max() + 4.0)
        levels = eigh_tridiagonal(d, e, eigvals_only=True)
        for x in [*(levels - margin), *(levels + margin), *rng.uniform(lo, d.max() + 4.0, 20)]:
            assert _lapack.count_in(d, e, lo, x) == dstebz(d, e, 1, lo, x, 0, 0, 2.0 * (x - lo), b"E")[0]
        # dgtsv overwrites its four arguments; both leave the same values in each
        shift = float(rng.uniform(lo, d.max()))
        ours = [e.copy(), d - shift, e.copy(), rng.standard_normal(n)]
        theirs = [a.copy() for a in ours]
        assert _lapack.gtsv(*ours) == dgtsv(*theirs[:3], theirs[3][:, None], 1, 1, 1, 1)[-1] == 0
        assert all(np.array_equal(a, b) for a, b in zip(ours, theirs))


@bundled
@pytest.mark.parametrize("n, count", [(16, 3), (16, 16), (128, 6), (300, 20)])
def test_the_dense_binding_is_scipys_bit_for_bit(n, count):
    from scipy.linalg.lapack import dsyevr

    rng = np.random.default_rng(n + count)
    a = rng.standard_normal((n, n))
    a += a.T
    a[np.diag_indices(n)] *= np.linspace(1.0, n**2, n)  # graded, as on the wall meshes
    tiny = np.finfo(float).tiny
    w, z, info = _lapack.syevr(a.copy().T, count, tiny)
    w_ref, z_ref, m, _, info_ref = dsyevr(a.copy().T, range="I", il=1, iu=count, abstol=tiny, overwrite_a=1)
    assert info == info_ref == 0 and m == count
    assert np.array_equal(w, w_ref[:count]) and np.array_equal(z, z_ref)
    assert z.flags.f_contiguous and z.shape == z_ref.shape


@bundled
def test_the_bindings_refuse_arrays_they_cannot_pass():
    # LAPACK reads raw memory: a wrong dtype, a strided or read-only array, a
    # C-ordered matrix or a wrong length must raise, not be read as something else
    n, d = 6, np.full(6, 4.0)
    with pytest.raises(TypeError):
        _lapack.gtsv(np.ones(n - 1), d.copy(), np.ones(n - 1), np.ones(n, np.float32))
    with pytest.raises(TypeError):
        _lapack.gtsv(np.ones(2 * n - 2)[::2], d.copy(), np.ones(n - 1), np.ones(n))
    with pytest.raises(TypeError):
        _lapack.gtsv(np.ones(n - 1), np.broadcast_to(4.0, (n,)), np.ones(n - 1), np.ones(n))
    with pytest.raises(ValueError):
        _lapack.gtsv(np.ones(n), d.copy(), np.ones(n - 1), np.ones(n))
    a = np.random.default_rng(0).standard_normal((n, n))
    with pytest.raises(TypeError):
        _lapack.syevr(a + a.T, 2, 0.0)  # C-ordered: not the Fortran layout dsyevr reads
    with pytest.raises(ValueError):
        _lapack.syevr(np.asfortranarray(a + a.T), n + 1, 0.0)
    with pytest.raises(ValueError):
        _lapack.lowest(d, np.ones(n), 2)
    # inputs it only reads are converted: a float32, strided or read-only tridiagonal is copied
    e = -np.ones(n - 1)
    expected = _lapack.lowest(d, e, 3)
    assert np.array_equal(_lapack.lowest(np.broadcast_to(4.0, (n,)), e.astype(np.float32), 3), expected)
    assert _lapack.count_in(d, np.repeat(e, 2)[::2], 0.0, float(expected[-1]) + 1e-9) == 3


# the same solves on each library: levels as float.hex, and the library that served them
FALLBACK_PROBE = """
import json, sys
import numpy as np
from susyqm import _lapack
if sys.argv[1] == "hidden":
    _lapack._bundled = lambda: None  # as where numpy bundles no scipy-openblas LAPACK
from susyqm.core import algebra_check, Superpotential
from susyqm.eigensolver import bound_states_of
from susyqm.grids import Grid
from susyqm.spectral import spectral_bound_states

def hexes(values):
    return [float(v).hex() for v in values]

out = {
    "jacobi": [p.energy for p in spectral_bound_states(
        lambda x: 6.0 / np.sin(x) ** 2, (0.0, np.pi), 3, walls=(True, True))],
    "laguerre": [p.energy for p in spectral_bound_states(
        lambda r: r * r + 2.0 / r**2, (0.0, 12.0), 3, walls=(True, False))],
    "sine_dvr": [p.energy for p in spectral_bound_states(
        lambda x: x**4 - 3.0 * x**2, (-6.0, 6.0), 4, walls=(None, None))],
    "fd": [p.energy for p in bound_states_of(
        lambda x: x * x + 0.3 * x**3 / (1 + x * x), -10.0, 10.0, 4, n_points=16001)],
    "algebra": list(vars(algebra_check(
        Superpotential(lambda x: 2.0 * np.tanh(x)), Grid(-10.0, 10.0, 2001))).values()),
}
print(json.dumps({"lapack": _lapack.lapack(), "scipy": "scipy.linalg" in sys.modules,
                  **{k: hexes(v) for k, v in out.items()}}))
"""


def test_with_the_bundled_library_hidden_the_solvers_give_the_same_levels_on_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    runs = {}
    for mode in ("found", "hidden"):
        res = subprocess.run(
            [sys.executable, "-c", FALLBACK_PROBE, mode], capture_output=True, text=True, env=env, timeout=120
        )
        assert res.returncode == 0, res.stderr
        runs[mode] = json.loads(res.stdout)
    found, hidden = runs["found"], runs["hidden"]
    assert hidden.pop("lapack") == "scipy" and hidden.pop("scipy") is True
    library = found.pop("lapack")
    assert library == ("numpy" if _lapack._bundled() is not None else "scipy")
    assert found.pop("scipy") is (library == "scipy")  # on numpy's LAPACK the solves load no scipy.linalg
    assert found == hidden
    assert all(len(v) >= 3 for v in hidden.values())
