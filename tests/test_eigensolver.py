import math

import numpy as np
import pytest

from susyqm.eigensolver import SolverError, bound_states, bound_states_of
from susyqm.spectral import SPECTRAL_CAP, spectral_bound_states
from susyqm.grids import Grid, SampledFunction, integrate


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
            lambda r: l * (l + 1) / r**2 - 2.0 / r, (0.0, 80.0), 3, half_line=True
        )
        for n, p in enumerate(lv):
            assert p.energy == pytest.approx(-1.0 / (n + l + 1) ** 2, abs=1e-10), (l, n)
            assert p.nodes == n and p.bound


def test_too_many_states_raises():
    g = Grid(0.0, 1.0, 11)
    with pytest.raises(SolverError):
        bound_states(SampledFunction(g, np.zeros(11)), 50)


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
    lv = spectral_bound_states(lambda r: r**2 + l * (l + 1) / r**2, (0.0, 12.0), 4, half_line=True)
    for n, p in enumerate(lv):
        assert p.energy == pytest.approx(2.0 * (2 * n + l + 1.5), abs=1e-10)
        assert p.nodes == n


@pytest.mark.parametrize(
    "v, interval, half_line",
    [
        (lambda x: x**2 + 0.3 * x**3 / (1 + x**2), (-8.0, 8.0), False),
        (lambda r: r**2 + 2.0 / r**2 - 1.0 / r, (0.0, 10.0), True),
    ],
    ids=["sine-dvr", "laguerre"],
)
def test_lazy_psi_matches_the_fd_eigenvector(v, interval, half_line):
    grid = Grid(*interval, 8001)
    x = grid.points.copy()
    x[0] = x[1]  # sentinel at the wall; it is outside the Dirichlet stencil
    fd = bound_states(SampledFunction(grid, v(x)), 3, check_decay=False)
    lv = spectral_bound_states(v, interval, 3, half_line=half_line, n_points=8001)
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
        spectral_bound_states(v, (0.0 if half_line else -5.0, 5.0), 2, half_line=half_line)
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
    for n, p in enumerate(spectral_bound_states(fd.v1, box, 3, half_line=True)):
        assert p.energy == pytest.approx(exact(n), abs=1e-8)
        assert p.nodes == n


def test_spectral_falling_to_the_centre_raises():
    with pytest.raises(SolverError):
        spectral_bound_states(lambda r: -0.5 / r**2 + r**2, (0.0, 10.0), 2, half_line=True)


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
