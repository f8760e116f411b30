import math

import numpy as np
import pytest

from susyqm.catalog import sip_lookup
from susyqm.eigensolver import bound_states
from susyqm.grids import Grid, integrate
from susyqm.isospectral import (
    IsoFamily,
    IsospectralError,
    admissible,
    conserved_charges,
    pursey_abraham_moses,
)


@pytest.fixture(scope="module")
def soliton_family():
    w = sip_lookup("sech2", B=1.0).superpotential()
    return IsoFamily.build(w, Grid(-16.0, 16.0, 4001))


def test_admissible_range():
    assert admissible(0.5) and admissible(-1.5)
    assert not admissible(0.0) and not admissible(-1.0) and not admissible(-0.4)


def test_inadmissible_lambda_raises(soliton_family):
    with pytest.raises(IsospectralError):
        soliton_family.potential(-0.5)


def test_family_keeps_bound_state_energy(soliton_family):
    # V1 = 1 - 2 sech^2 has one bound state at E = 0 (asymptote 1)
    for lam in (0.5, 2.0, -1.5):
        v = soliton_family.potential(lam)
        lv = bound_states(v, 1, check_decay=False)
        assert lv[0].energy == pytest.approx(0.0, abs=1e-7), lam


def test_deformed_ground_state_is_eigenstate(soliton_family):
    from susyqm.grids import derivative

    lam = 1.0
    v = soliton_family.potential(lam)
    psi = soliton_family.ground_state(lam)
    assert integrate(psi.map(lambda u: u**2)) == pytest.approx(1.0, rel=1e-8)
    resid = -derivative(derivative(psi)).values + v.values * psi.values
    interior = slice(10, -10)
    assert np.max(np.abs(resid[interior])) < 1e-4


def test_large_lambda_recovers_base(soliton_family):
    v = soliton_family.potential(1e8)
    base = soliton_family.source.v1(soliton_family.grid.points)
    assert np.max(np.abs(v.values - base)) < 1e-6


def test_soliton_family_is_translation(soliton_family):
    # the one-soliton deformation is a pure translation of the well
    lam = 0.5
    v = soliton_family.potential(lam)
    x = soliton_family.grid.points
    mask = np.abs(x) < 8.0
    shift = 0.5 * math.log(1.0 + 1.0 / lam)
    expected = 1.0 - 2.0 / np.cosh(x[mask] + shift) ** 2
    assert np.max(np.abs(v.values[mask] - expected)) < 1e-6


def test_conserved_charges_along_family(soliton_family):
    q_ref = None
    for lam in (0.4, 1.0, 10.0):
        q1, q2 = conserved_charges(soliton_family.potential(lam), 1.0)
        if q_ref is None:
            q_ref = (q1, q2)
        assert q1 == pytest.approx(q_ref[0], abs=1e-7)
        assert q2 == pytest.approx(q_ref[1], abs=1e-7)
    assert q_ref[0] == pytest.approx(-4.0, abs=1e-6)  # int -2 sech^2 = -4
    assert q_ref[1] == pytest.approx(16.0 / 3.0, abs=1e-6)


def test_boundary_members_lose_ground_state(soliton_family):
    v_p, v_am = pursey_abraham_moses(soliton_family)
    for v in (v_p, v_am):
        assert np.all(np.isfinite(v.values))
        lv = bound_states(v, 1, check_decay=False)
        assert not lv[0].bound or lv[0].energy > 0.5  # nothing left below threshold
    # the two deletions are mirror images for a symmetric base well
    assert np.max(np.abs(v_p.values - v_am.values[::-1])) < 1e-6


def test_narrow_grid_rejected():
    w = sip_lookup("shifted_oscillator").superpotential()
    with pytest.raises(IsospectralError):
        IsoFamily.build(w, Grid(-1.0, 1.0, 201))
