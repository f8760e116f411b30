import math

import numpy as np
import pytest

from susyqm.core import (
    GroundStateSide,
    Superpotential,
    SusyError,
    algebra_check,
    apply_A,
    apply_Adag,
    detect_breaking,
    ground_state_from_w,
    map_from_partner,
    map_to_partner,
    normalized,
    w_from_ground_state,
)
from susyqm.grids import Grid, SampledFunction, integrate, sample


def oscillator_w(omega=2.0):
    return Superpotential(
        w=lambda x: 0.5 * omega * np.asarray(x, dtype=float),
        w_prime=lambda x: np.full_like(np.asarray(x, dtype=float), 0.5 * omega),
    )


def test_partner_potentials_oscillator():
    w = oscillator_w(2.0)
    x = np.linspace(-3, 3, 7)
    assert np.allclose(w.v1(x), x**2 - 1.0)
    assert np.allclose(w.v2(x), x**2 + 1.0)


def test_units_enter_through_c():
    w = Superpotential(w=np.tanh, hbar=2.0, mass2=8.0)
    assert w.c == pytest.approx(2.0 / math.sqrt(8.0))
    x = np.array([0.0])
    # at the origin W=0, so V1 = -c W'(0) = -c
    assert w.v1(x)[0] == pytest.approx(-w.c, abs=1e-8)


def test_ground_state_is_zero_mode():
    w = oscillator_w(2.0)
    grid = Grid(-8.0, 8.0, 2001)
    psi0 = ground_state_from_w(w, grid)
    assert integrate(psi0.map(lambda v: v**2)) == pytest.approx(1.0, rel=1e-10)
    # analytic form exp(-x^2/2) normalized
    ref = np.exp(-grid.points**2 / 2.0)
    ref /= math.sqrt(integrate(SampledFunction(grid, ref**2)))
    assert np.max(np.abs(psi0.values - ref)) < 1e-9


def test_apply_A_annihilates_zero_mode():
    w = oscillator_w(2.0)
    grid = Grid(-8.0, 8.0, 2001)
    psi0 = ground_state_from_w(w, grid)
    res = apply_A(w, psi0)
    assert np.max(np.abs(res.values)) < 1e-6


def test_w_from_ground_state_roundtrip():
    w = oscillator_w(2.0)
    grid = Grid(-6.0, 6.0, 3001)
    psi0 = ground_state_from_w(w, grid)
    w_rec = w_from_ground_state(psi0)
    x = np.linspace(-3, 3, 61)
    assert np.max(np.abs(w_rec.w(x) - x)) < 1e-6


def test_partner_mapping_preserves_norm_and_energy():
    from susyqm.eigensolver import bound_states

    w = oscillator_w(2.0)
    grid = Grid(-8.0, 8.0, 2001)
    v1 = sample(w.v1, grid)
    v2 = sample(w.v2, grid)
    lv1 = bound_states(v1, 3)
    lv2 = bound_states(v2, 2)
    # E_n^(2) = E_{n+1}^(1)
    assert lv2[0].energy == pytest.approx(lv1[1].energy, abs=1e-6)
    mapped = map_to_partner(w, normalized(lv1[1].psi), lv1[1].energy)
    overlap = integrate(SampledFunction(grid, mapped.values * lv2[0].psi.values))
    assert abs(abs(overlap) - 1.0) < 1e-6


@pytest.mark.parametrize("name", ["shifted_oscillator", "scarf2"])
def test_partner_mapping_round_trip(name):
    # A then Adag, each with E^{-1/2}: Adag A psi / E = H1 psi / E = psi on the V1 side
    from susyqm.catalog import numeric_levels, sip_lookup

    entry = sip_lookup(name)
    w = entry.superpotential()
    for pair in numeric_levels(entry, 3, n_points=4001)[1:]:
        there = map_to_partner(w, pair.psi, pair.energy)
        back = map_from_partner(w, there, pair.energy)
        assert np.max(np.abs(back.values - pair.psi.values)) <= 1e-6
        assert np.max(np.abs(there.values)) > 0.1  # the partner state is not zero
    with pytest.raises(SusyError):
        map_from_partner(w, pair.psi, 0.0)


def test_apply_Adag_adds_node():
    from susyqm.grids import count_nodes

    w = oscillator_w(2.0)
    grid = Grid(-8.0, 8.0, 2001)
    psi0 = ground_state_from_w(w, grid)
    up = apply_Adag(w, psi0)
    assert count_nodes(up.values[5:-5]) == 1


def _algebra_on_two_grids(w):
    grid = Grid(-8.0, 8.0, 800)
    return algebra_check(w, grid), algebra_check(w, grid.refine())


def test_algebra_check_residuals():
    coarse, fine = _algebra_on_two_grids(oscillator_w(2.0))  # W = x
    for rep in (coarse, fine):
        assert rep.zero_mode_residual <= 1e-15
        assert rep.partner_residual <= 1e-15
    # second order in h: the gap to the direct V1 stencil falls about 4x
    assert coarse.discretization_gap / fine.discretization_gap >= 3.0


@pytest.mark.parametrize(
    "w",
    [
        # V1 misses the delta function in W' at the origin
        Superpotential(w=np.sign, w_prime=lambda x: np.zeros_like(np.asarray(x, float))),
        Superpotential(w=np.abs),  # broken SUSY: no normalizable zero mode
    ],
    ids=["sign-without-delta", "abs-broken"],
)
def test_algebra_check_gap_stalls(w):
    coarse, fine = _algebra_on_two_grids(w)
    assert coarse.discretization_gap / fine.discretization_gap < 3.0


def test_detect_breaking_unbroken_for_odd_power():
    w = Superpotential(w=lambda x: np.asarray(x, dtype=float) ** 3)
    status = detect_breaking(w)
    assert not status.broken
    assert status.ground_state_side is GroundStateSide.V1


def test_detect_breaking_broken_for_even_power():
    w = Superpotential(w=lambda x: np.asarray(x, dtype=float) ** 2)
    status = detect_breaking(w)
    assert status.broken
    assert status.ground_state_side is GroundStateSide.NEITHER


def test_map_to_partner_rejects_zero_energy():
    w = oscillator_w()
    grid = Grid(-6.0, 6.0, 501)
    psi0 = ground_state_from_w(w, grid)
    with pytest.raises(SusyError):
        map_to_partner(w, psi0, 0.0)
