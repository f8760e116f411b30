import math

import numpy as np
import pytest

from susyqm.eigensolver import (
    SolverError,
    bound_states,
    bound_states_of,
    radial_bound_states,
)
from susyqm.grids import Grid, SampledFunction


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
    # -e2/r with e2 = 2: E_n = -1/(n+1)^2
    lv = radial_bound_states(lambda r: -2.0 / r, 0, 3, r_max=80.0, n_points=8001)
    for n, p in enumerate(lv):
        assert p.energy == pytest.approx(-1.0 / (n + 1) ** 2, abs=2e-5)


def test_too_many_states_raises():
    g = Grid(0.0, 1.0, 11)
    with pytest.raises(SolverError):
        bound_states(SampledFunction(g, np.zeros(11)), 50)
