import math
import warnings

import numpy as np
import pytest

from susyqm import eigensolver, spectral
from susyqm.catalog import well_hierarchy_potential
from susyqm.core import Superpotential
from susyqm.eigensolver import SolverError, bound_states, bound_states_of
from susyqm.spectral import SPECTRAL_CAP, spectral_bound_states
from susyqm.grids import Grid, SampledFunction, integrate, sample


def test_oscillator_levels():
    lv = bound_states_of(lambda x: x**2, -10.0, 10.0, 4)
    for n, p in enumerate(lv):
        assert p.energy == pytest.approx(2 * n + 1, abs=1e-7)
        assert p.nodes == n
        assert p.bound


def test_richardson_improves_convergence():
    coarse = bound_states_of(lambda x: x**2, -10.0, 10.0, 1, n_points=501)[0].energy
    fine = bound_states_of(lambda x: x**2, -10.0, 10.0, 1, n_points=1001)[0].energy
    # Richardson leaves O(h^4); halving h should gain about a factor 16
    assert abs(fine - 1.0) < abs(coarse - 1.0) / 8


def test_infinite_well_via_large_box():
    # flat potential, Dirichlet walls: E_n = (n+1)^2 on (0, pi)
    g = Grid(0.0, math.pi, 2001)
    lv = bound_states(SampledFunction(g, np.zeros(g.n_points)), 3, check_decay=False)
    for n, p in enumerate(lv):
        assert p.energy == pytest.approx((n + 1) ** 2, abs=1e-8)


def test_unbound_states_flagged():
    lv = bound_states_of(lambda x: -2.0 / np.cosh(x) ** 2, -15.0, 15.0, 3, check_decay=False)
    assert lv[0].energy == pytest.approx(-1.0, abs=1e-6)
    assert lv[0].bound
    assert not lv[1].bound  # only one bound state for this well


def test_radial_coulomb():
    # -e2/r with e2 = 2 plus l(l+1)/r^2 on the Laguerre mesh: E_n = -1/(n+l+1)^2
    for l in range(4):
        lv = spectral_bound_states(
            lambda r: l * (l + 1) / r**2 - 2.0 / r, (0.0, 80.0), 3, walls=(True, False)
        )
        for n, p in enumerate(lv):
            assert p.energy == pytest.approx(-1.0 / (n + l + 1) ** 2, abs=1e-10), (l, n)
            assert p.nodes == n and p.bound


def test_too_many_states_raises():
    g = Grid(0.0, 1.0, 11)
    with pytest.raises(SolverError):
        bound_states(SampledFunction(g, np.zeros(11)), 50)


def test_zero_states_raises():
    g = Grid(0.0, 1.0, 11)
    with pytest.raises(SolverError, match="count must be at least 1"):
        bound_states(SampledFunction(g, np.zeros(11)), 0)


def _assert_matches_bisection(v: SampledFunction, count: int, vectors: bool = True) -> list:
    """The cascade's energies on the h, 2h and 4h grids against bisection on
    each, within max(1e-12 |E|, 4 eps |T|), and (if vectors) its unit vectors
    on the h grid within 1e-10. Returns the strides of the grids it bisected."""
    from scipy.linalg import eigh_tridiagonal

    bisected = []
    solve = eigensolver._bisected

    def spy(values, h, k):
        bisected.append(round(h / v.grid.h))
        return solve(values, h, k)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eigensolver, "_bisected", spy)
        solved, psis = eigensolver._cascade(v.values, v.grid.h, count)
    for j, stride in enumerate(eigensolver._strides(v.grid.n_points)[:3]):
        d, e = eigensolver.dirichlet_tridiagonal(v.values[::stride], v.grid.h * stride, 1.0)
        k = min(count, d.size)
        if j == 0:
            energies, vecs = eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1))
        else:
            energies = eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1), eigvals_only=True)
        rounding = 4.0 * np.finfo(float).eps * (np.max(np.abs(d)) + 2.0 * abs(e[0]))
        assert np.all(np.abs(solved[j] - energies) <= np.maximum(1e-12 * np.abs(energies), rounding)), stride
        if j == 0 and vectors:
            for i in range(count):
                psi = psis[i][1:-1]
                assert np.max(np.abs(psi - np.sign(psi @ vecs[:, i]) * vecs[:, i])) <= 1e-10, i
    return bisected


@pytest.mark.parametrize("n_points", [101, 103, 100, 4001, 16001, 64001])
def test_the_cascade_matches_bisection(n_points):
    # 101: grids of 101, 51 and 26 points; 103: no 4h grid; 100: no coarse grid at all
    v = sample(lambda x: x**2 + 0.3 * x**3 / (1 + x**2), Grid(-10.0, 10.0, n_points))
    bisected = _assert_matches_bisection(v, 4)
    assert bisected == [eigensolver._strides(n_points)[-1]]  # the coarsest grid only


def test_the_cascade_matches_bisection_on_the_benchmark_solves(monkeypatch):
    # the finite-difference solves of the benchmark's spectra_grid workload,
    # seed 1: partner pairs at 16001 points and isospectral members at 64001
    from pathlib import Path

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    calls = []
    solve = eigensolver.bound_states
    monkeypatch.setattr(eigensolver, "bound_states", lambda v, k, **kw: calls.append((v, k)) or solve(v, k, **kw))
    for job in workloads.build("spectra_grid", 1, None):
        if job.name.startswith(("degeneracy", "isospectral")):
            job.run()
    assert [v.grid.n_points for v, _ in calls] == [16001] * 10 + [64001] * 3
    for v, count in calls:
        assert _assert_matches_bisection(v, count) == [eigensolver._strides(v.grid.n_points)[-1]]


def test_a_level_the_coarse_grids_miss_falls_back_to_bisection():
    # the wells are 0.003 wide: the coarse grids see only the oscillator, whose
    # levels RQI refines to -0.068 twice, missing 1.161, until the residual
    # intervals refuse two levels on one eigenvalue; the 2001-point grid is
    # bisected, and as their vectors are parallel (a missed level, not a
    # split below the intervals), RQI goes on from it on the finer grids
    def wells(x):
        return x**2 / 2 - 300 * (np.exp(-(((x - 1.0003) / 0.003) ** 2)) + np.exp(-(((x + 2.0007) / 0.003) ** 2)))

    assert _assert_matches_bisection(sample(wells, Grid(-5.0, 5.0, 16001)), 5) == [64, 8]


def test_a_deep_level_the_coarse_grids_miss_fails_the_sturm_count():
    # a well 0.002 wide between the nodes of the grids up to 501 points: its
    # level (-25.8 at 16001 points) shows first on the 1001-point grid, where
    # RQI from the coarse levels finds the three above it, all distinct; only
    # the Sturm count sees the eigenvalue below them
    v = sample(lambda x: x**2 / 2 - 3000 * np.exp(-(((x + 2.0075) / 0.002) ** 2)), Grid(-5.0, 5.0, 16001))
    assert _assert_matches_bisection(v, 3) == [64, 16]


@pytest.mark.parametrize("depth, bisected", [(60.0, [64]), (100.0, [64, 1])])
def test_a_near_degenerate_double_well(monkeypatch, depth, bisected):
    # depth (x^2 - 4)^2 / 16 on (-6, 6): the two lowest levels split by 2e-7
    # (certified by RQI) and by 1.2e-9, below the residual intervals from the
    # 4001-point grid on. From that grid on no RQI runs: the 4001 and
    # 8001-point grids are bisected for their eigenvalues only, and the
    # finest with its vectors. The vectors of such a pair are defined only to
    # about eps |T| / split, by any solver
    rqi, grids = eigensolver._rqi, []
    monkeypatch.setattr(eigensolver, "_rqi", lambda v, *args: grids.append(v.size) or rqi(v, *args))
    v = sample(lambda x: depth * (x**2 - 4) ** 2 / 16, Grid(-6.0, 6.0, 16001))
    assert _assert_matches_bisection(v, 4, vectors=False) == bisected
    assert grids == sorted(grids) and grids[-1] == {60.0: 16001, 100.0: 4001}[depth]


def test_the_cascade_peaks_below_the_bisection_route():
    # at 64001 points the peak is the fine grid's Sturm count: its workspace
    # (7.5 vectors of the grid), the tridiagonal, the top level's vector and
    # the 2h grid's other vectors in single precision, 11.5 vectors in all,
    # where bisection with vectors on the fine grid took 14.5
    import tracemalloc

    from susyqm.isospectral import IsoFamily

    fam = IsoFamily.build(Superpotential(lambda x: x, w_prime=lambda x: np.ones_like(x)), Grid(-16.0, 16.0, 64001))
    v = fam.potential(1.0)
    tracemalloc.start()
    try:
        bound_states(v, 5, check_decay=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 8 * v.grid.n_points


def test_spectral_free_box_and_oscillator():
    lv = spectral_bound_states(lambda x: np.zeros_like(x), (0.0, math.pi), 4)
    for n, p in enumerate(lv):
        assert p.energy == pytest.approx((n + 1) ** 2, abs=1e-12)
        assert p.nodes == n
    lv = spectral_bound_states(lambda x: x**2, (-10.0, 10.0), 5)
    for n, p in enumerate(lv):
        assert p.energy == pytest.approx(2 * n + 1, abs=1e-12)
        assert p.nodes == n and p.bound
        assert p.error_estimate < 1e-9


@pytest.mark.parametrize("l", [0.0, 1.0, 2.5])
def test_spectral_radial_oscillator(l):
    # omega^2 r^2 / 4 + l(l+1)/r^2 with omega = 2: E_n = 2 (2n + l + 3/2), also for non-integer l
    lv = spectral_bound_states(lambda r: r**2 + l * (l + 1) / r**2, (0.0, 12.0), 4, walls=(True, False))
    for n, p in enumerate(lv):
        assert p.energy == pytest.approx(2.0 * (2 * n + l + 1.5), abs=1e-10)
        assert p.nodes == n


def test_spectral_half_line_from_the_upper_wall():
    # the radial oscillator mirrored onto (-12, 0]: the same levels, and psi mirrored
    v = lambda r: r**2 + 2.0 / r**2
    lower = spectral_bound_states(v, (0.0, 12.0), 3, walls=(True, False), n_points=601)
    upper = spectral_bound_states(lambda x: v(-x), (-12.0, 0.0), 3, walls=(False, True), n_points=601)
    for n, (p, q) in enumerate(zip(lower, upper)):
        assert q.energy == pytest.approx(2.0 * (2 * n + 2.5), abs=1e-10)
        assert q.nodes == n
        assert np.max(np.abs(q.psi.values[::-1] - p.psi.values * (-1) ** n)) < 1e-10


@pytest.mark.parametrize(
    "v, interval, walls",
    [
        (lambda x: x**2 + 0.3 * x**3 / (1 + x**2), (-8.0, 8.0), (False, False)),
        (lambda r: r**2 + 2.0 / r**2 - 1.0 / r, (0.0, 10.0), (True, False)),
        (lambda x: 2.0 / np.sin(x) ** 2 + 6.0 / np.cos(x / 2) ** 2 + x, (0.0, math.pi), (True, True)),
    ],
    ids=["sine-dvr", "laguerre", "jacobi"],
)
def test_lazy_psi_matches_the_fd_eigenvector(v, interval, walls):
    grid = Grid(*interval, 8001)
    x = grid.points.copy()
    x[0], x[-1] = x[1], x[-2]  # sentinels at the walls; they are outside the Dirichlet stencil
    fd = bound_states(SampledFunction(grid, v(x)), 3, check_decay=False)
    lv = spectral_bound_states(v, interval, 3, walls=walls, n_points=8001)
    for n, (p, q) in enumerate(zip(lv, fd)):
        assert callable(p._psi)  # nothing built before the first read
        assert p.psi.grid == grid and not callable(p._psi)
        overlap = integrate(SampledFunction(grid, p.psi.values * q.psi.values))
        norm = integrate(SampledFunction(grid, p.psi.values**2))
        assert overlap / math.sqrt(norm) >= 1 - 1e-8
        assert p.nodes == n


def test_spectral_psi_on_a_grid_coarser_than_the_basis():
    lv = spectral_bound_states(lambda x: x**2, (-10.0, 10.0), 2, n_points=41)
    x = lv[1].psi.x
    exact = -x * np.exp(-(x**2) / 2) * math.sqrt(2.0 / math.sqrt(math.pi))  # first lobe > 0
    assert np.max(np.abs(lv[1].psi.values - exact)) < 1e-10


def test_spectral_count_above_the_cap_raises():
    with pytest.raises(SolverError):
        spectral_bound_states(lambda x: x**2, (-10.0, 10.0), SPECTRAL_CAP + 1)
    with pytest.raises(SolverError):
        spectral_bound_states(lambda x: x**2, (-10.0, 10.0), 0)


@pytest.mark.parametrize("half_line", [False, True])
def test_spectral_non_finite_potential_raises(half_line):
    from susyqm.cli import _NUMERIC_ERRORS  # SolverError is a numeric failure: exit 1

    def v(x):
        return np.where(x > 3.0, np.nan, x**2)

    with pytest.raises(SolverError, match="not finite"):
        spectral_bound_states(v, (0.0 if half_line else -5.0, 5.0), 2, walls=(half_line, False))
    # a V that is NaN everywhere, also at the samples that place the sinh map
    with pytest.raises(SolverError, match="not finite"):
        spectral_bound_states(lambda x: np.full_like(x, np.nan), (0.0, 5.0), 2, walls=(half_line, None))
    assert issubclass(SolverError, _NUMERIC_ERRORS)


@pytest.mark.parametrize(
    "w, w_prime, box, exact",
    [
        # Coulomb, l = 1, e2 = 2: E_n = 1/4 - 1/(n + 2)^2
        (lambda r: 0.5 - 2.0 / r, lambda r: 2.0 / r**2, (0.0, 100.0), lambda n: 0.25 - 1.0 / (n + 2) ** 2),
        # radial oscillator, omega = 2, l = 1/2, on a box shorter than 10: E_n = 4n
        (lambda r: r - 1.5 / r, lambda r: 1.0 + 1.5 / r**2, (0.0, 8.0), lambda n: 4.0 * n),
    ],
    ids=["coulomb", "oscillator-3d-short-box"],
)
def test_spectral_half_line_with_a_finite_difference_w_prime(w, w_prime, box, exact):
    # V1 = W^2 - W' with W' by core's finite differences: the wall exponent is
    # read where their stencil stays inside the half line
    from susyqm.core import Superpotential
    from susyqm.spectral import _wall_exponent

    fd = Superpotential(w, domain=(0.0, math.inf))
    analytic = Superpotential(w, domain=(0.0, math.inf), w_prime=w_prime)
    length = box[1] - box[0]
    alpha = _wall_exponent(analytic.v1, box[0], length)
    assert _wall_exponent(fd.v1, box[0], length) == pytest.approx(alpha, abs=1e-6)
    for n, p in enumerate(spectral_bound_states(fd.v1, box, 3, walls=(True, False))):
        assert p.energy == pytest.approx(exact(n), abs=1e-8)
        assert p.nodes == n


def test_spectral_falling_to_the_centre_raises():
    with pytest.raises(SolverError):
        spectral_bound_states(lambda r: -0.5 / r**2 + r**2, (0.0, 10.0), 2, walls=(True, False))


def _sizes(monkeypatch, basis) -> list:
    """The basis sizes N at which the engine solves, recorded as it runs."""
    sizes = []
    levels = basis.levels
    monkeypatch.setattr(basis, "levels", lambda self, v, n, count: sizes.append(n) or levels(self, v, n, count))
    return sizes


def test_jacobi_free_box(monkeypatch):
    # walls where V stays finite: psi ~ d at both ends, E = n^2 on (0, pi)
    sizes = _sizes(monkeypatch, spectral._JacobiMesh)
    lv = spectral_bound_states(lambda x: np.zeros_like(x), (0.0, math.pi), 5, walls=(True, True))
    for n, p in enumerate(lv, start=1):
        assert p.energy == pytest.approx(n * n, abs=1e-8)
        assert p.nodes == n - 1 and p.bound
        assert p.error_estimate < 1e-9
    assert max(sizes) <= 64


@pytest.mark.parametrize("p", [1, 2, 3])
def test_jacobi_well_ladder(p):
    # p(p+1)/sin^2 x - p^2 on (0, pi): psi ~ sin^(p+1) x, E_n = (n + p + 1)^2 - p^2
    lv = spectral_bound_states(well_hierarchy_potential(p), (0.0, math.pi), 5, walls=(True, True))
    for n, pair in enumerate(lv):
        assert pair.energy == pytest.approx((n + p + 1) ** 2 - p * p, abs=1e-8)
        assert pair.nodes == n


def test_jacobi_mesh_rejects_a_bad_potential():
    def nan_inside(x):
        return np.where(np.abs(x - 1.0) < 0.2, np.nan, 2.0 / np.sin(x) ** 2)

    with pytest.raises(SolverError, match="not finite"):
        spectral_bound_states(nan_inside, (0.0, math.pi), 2, walls=(True, True))
    # -1/2 / d^2 at the upper wall only: falls to the centre there
    with pytest.raises(SolverError, match="-1/\\(4 d\\^2\\)"):
        spectral_bound_states(
            lambda x: 2.0 / x**2 - 0.5 / (math.pi - x) ** 2, (0.0, math.pi), 2, walls=(True, True)
        )


@pytest.mark.parametrize(
    "mesh",
    [spectral._LaguerreMesh(None, 0.0, 10.0, (s, False)) for s in (0.1, 0.7, 2.5)]
    + [spectral._JacobiMesh(None, 0.0, 3.0, w) for w in ((0.1, 3.9), (1.0, 1.0), (2.5, 0.6))],
    ids=["laguerre-0.1", "laguerre-0.7", "laguerre-2.5", "jacobi-0.1-3.9", "jacobi-1-1", "jacobi-2.5-0.6"],
)
def test_wall_mesh_kinetic_matrix_is_m_transpose_m(mesh):
    for n in (16, 64):
        y, a = mesh._nodes(n)
        q = mesh._envelope(y)[2]
        with np.errstate(divide="ignore"):
            m = np.outer(np.sign(a), np.sign(a)) / np.subtract.outer(y, y)
            inv = 1.0 / np.subtract.outer(y, y)
        inv[np.diag_indices(n)] = 0.0
        # M_ii = -Phi'/Phi from the family's ODE is the sum the closed form rests on
        assert np.max(np.abs(-q - inv.sum(axis=1)) / np.maximum(1.0, np.abs(q))) < 1e-10
        m[np.diag_indices(n)] = -q
        k = spectral._kinetic(y, np.sign(a), q)
        assert np.max(np.abs(k - m.T @ m)) < 1e-12 * np.max(np.abs(k))


def _scripted_basis(energies: dict):
    """A basis whose one level at size N is energies[N]."""

    class Scripted:
        def __init__(self, v, lo, hi, walls):
            pass

        def levels(self, v, n, count):
            one = np.ones((n, 1)) / math.sqrt(n)
            flat = lambda coef, grid: np.zeros(grid.n_points)
            return [spectral._Levels(np.array([energies[n]]), one, one, math.inf, flat)]

    return Scripted


@pytest.mark.parametrize(
    "script, last_n, kept_n",
    [
        # truncation error falls, then a change below 1e-8 grows: rounding, stop
        # at 128 and keep the 64 solve, the one before the change grew
        ({16: 1e-4, 32: 1e-7, 64: 1.03e-7, 128: 1.08e-7}, 128, 64),
        # a change that grows while still above 1e-8 is not rounding: keep doubling
        ({16: 1e-3, 32: 2e-3, 64: 4e-3, 128: 4e-3 + 1e-12}, 128, 128),
        ({16: 1e-3, 32: 2e-3, 64: 4e-3, 128: 4e-3 + 1e-9, 256: 4e-3 + 3e-9}, 256, 128),
    ],
    ids=["floor", "growing-early", "growing-early-then-floor"],
)
def test_a_change_that_grows_below_the_floor_stops_the_doubling(monkeypatch, script, last_n, kept_n):
    monkeypatch.setattr(spectral, "_JacobiMesh", _scripted_basis({n: 1.0 + e for n, e in script.items()}))
    sizes = _sizes(monkeypatch, spectral._JacobiMesh)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        (pair,) = spectral_bound_states(None, (0.0, 1.0), 1, walls=(True, True))
    assert sizes == [n for n in sorted(script) if n <= last_n]
    change = abs(script[kept_n] - script[kept_n // 2])
    assert pair.energy == 1.0 + script[kept_n]
    assert pair.error_estimate == pytest.approx(change, rel=1e-6)
    moved = [str(w.message) for w in caught if "levels still move" in str(w.message)]
    assert len(moved) == (change > spectral.SPECTRAL_TOL)
    assert all(f"and N = {kept_n}" in m for m in moved)


def test_finite_difference_error_estimate():
    lv = bound_states_of(lambda x: x**2, -10.0, 10.0, 3, n_points=2001)
    for n, p in enumerate(lv):
        err = abs(p.energy - (2 * n + 1))
        assert err < p.error_estimate < 1e-4
    g = Grid(0.0, 1.0, 100)  # an even point count: no coarse grid, no estimate
    assert math.isnan(bound_states(SampledFunction(g, np.zeros(100)), 1)[0].error_estimate)
    g = Grid(0.0, 1.0, 103)  # a 2h grid but no 4h grid: extrapolated, no estimate
    lv = bound_states(SampledFunction(g, np.zeros(103)), 1)
    assert lv[0].energy == pytest.approx(math.pi**2, abs=1e-6)
    assert math.isnan(lv[0].error_estimate)
