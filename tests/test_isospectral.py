import math
import warnings

import numpy as np
import pytest

from susyqm.catalog import sip_lookup
from susyqm.core import Superpotential
from susyqm.eigensolver import bound_states
from susyqm.grids import Grid, integrate
from susyqm.isospectral import (
    IsoFamily,
    IsospectralError,
    admissible,
    conserved_charges,
)
from susyqm.spectral import spectral_bound_states


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
    # lam = 0 and -1 delete the one bound state of 1 - 2 sech^2: the engine's
    # lowest level is continuum at the far node's V = 1
    members = [soliton_family.member(lam) for lam in (0.0, -1.0)]
    x = soliton_family.grid.points
    for v in members:
        assert np.all(np.isfinite(v(x)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # "state 0 is not below V = 1 at the far node: not bound"
            lv = spectral_bound_states(v, (-16.0, 16.0), 1, walls=(None, None))
        assert not lv[0].bound or lv[0].energy > 0.5  # nothing left below threshold
    # the two deletions are mirror images for a symmetric base well
    assert np.max(np.abs(members[0](x) - members[1](-x))) < 1e-6


def test_narrow_grid_rejected():
    w = sip_lookup("shifted_oscillator").superpotential()
    with pytest.raises(IsospectralError):
        IsoFamily.build(w, Grid(-1.0, 1.0, 201))


# the member callable against the closed form of W = x (hbar = 1): psi0^2 = exp(-x^2)/sqrt(pi),
# I = erfc(-x)/2 and J = erfc(x)/2, so Vhat = x^2 - 1 + 2 (2 x r + r^2) with r = psi0^2 / (I + lam)
OSCILLATOR = Superpotential(lambda x: x, w_prime=lambda x: np.ones_like(x))


@pytest.fixture(scope="module")
def oscillator_family():
    return IsoFamily.build(OSCILLATOR, Grid(-16.0, 16.0, 4001))


def _closed_form_member(x: float, lam: float) -> float:
    p2 = math.exp(-x * x) / math.sqrt(math.pi)
    u = 0.5 * math.erfc(-x) + lam if lam >= -0.5 else (1.0 + lam) - 0.5 * math.erfc(x)
    r = p2 / u
    return x * x - 1.0 + 2.0 * (2.0 * x * r + r * r)


@pytest.mark.parametrize("lam", [0.3, 1.0, 10.0, -1.5, -11.0])
def test_member_matches_the_closed_form_tails_included(oscillator_family, lam):
    # |x| up to 30 takes in the panel tables' ends at +-16 and the tails past them
    x = np.concatenate((np.linspace(-30.0, 30.0, 2401), np.random.default_rng(5).uniform(-30.0, 30.0, 600)))
    exact = np.array([_closed_form_member(xi, lam) for xi in x])
    got = oscillator_family.member(lam)(x)
    assert np.max(np.abs(got - exact) / np.maximum(1.0, np.abs(exact))) <= 1e-13


@pytest.mark.parametrize("lam", [0.0, -1.0])
def test_boundary_members_keep_every_level_but_the_ground(oscillator_family, lam):
    lv = spectral_bound_states(oscillator_family.member(lam), (-16.0, 16.0), 4, walls=(None, None))
    assert [p.energy for p in lv] == pytest.approx([2.0, 4.0, 6.0, 8.0], abs=1e-10)


@pytest.mark.parametrize("lam", [0.3, 1.0, 10.0, -1.5])
def test_member_sampled_on_the_grid_is_the_grid_member(oscillator_family, lam):
    x = oscillator_family.grid.points
    interior = slice(200, -200)
    grid_member = oscillator_family.potential(lam).values
    assert np.max(np.abs(oscillator_family.member(lam)(x) - grid_member)[interior]) <= 1e-8


def test_a_point_on_a_panel_node_reads_the_node_value(oscillator_family):
    # one panel of width 2 from -1 puts x on the rule's node t wherever (t + 1) - 1 == t
    from susyqm.panels import LogTables

    tables = oscillator_family._tables
    one = LogTables(-1.0, 2.0, tables.logs[:1], tables.nodes, tables.bary)
    on_node = (tables.nodes + 1.0) - 1.0 == tables.nodes
    assert on_node.any()
    got = one.at(tables.nodes[on_node])
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(got, tables.logs[0][:, on_node], rtol=1e-15, atol=1e-300)


def test_member_keeps_the_shape_of_its_argument(oscillator_family):
    v = oscillator_family.member(1.0)
    x = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
    assert v(x).shape == (3, 4)
    assert v(x).ravel() == pytest.approx(v(x.ravel()), abs=0.0)
    assert np.ndim(v(0.25)) == 0


def test_member_refuses_a_lambda_between_the_boundaries(oscillator_family):
    with pytest.raises(IsospectralError):
        oscillator_family.member(-0.5)


def test_build_leaves_the_panel_tables_unbuilt():
    # the tables cost a W evaluation at every panel node; potential() and
    # ground_state() on the grid never read them
    fam = IsoFamily.build(OSCILLATOR, Grid(-8.0, 8.0, 201))
    fam.potential(1.0), fam.ground_state(1.0)
    assert "_tables" not in vars(fam)
    fam.member(1.0)(np.array([0.0]))
    assert "_tables" in vars(fam)


def test_check_isospectral_reads_engine_digits():
    from susyqm.selfcheck import check_isospectral

    result = check_isospectral()
    assert result.passed, result.detail
    # the labels perfbench parses
    worst = float(result.detail.split("max level dev ")[1].split(",")[0])
    assert worst <= 1e-12
    assert "charge drift " in result.detail
    assert "boundary-member bound count 4 vs base 5" in result.detail


def test_check_isospectral_fails_on_a_base_that_is_not_the_oscillator(monkeypatch):
    # W = x + 1e-6 x^3 moves every level off 2n by about 1e-6
    from susyqm import selfcheck

    real = selfcheck.sip_lookup

    class Perturbed:
        def superpotential(self):
            return Superpotential(lambda x: x + 1e-6 * x**3, w_prime=lambda x: 1.0 + 3e-6 * x**2)

    monkeypatch.setattr(
        selfcheck, "sip_lookup", lambda name, **p: Perturbed() if name == "shifted_oscillator" else real(name, **p)
    )
    result = selfcheck.check_isospectral()
    assert not result.passed, result.detail


def test_check_isospectral_fails_with_finite_difference_levels(monkeypatch):
    # the 4001-point finite-difference route reads about 1.2e-8, above the 1e-10 gate
    from susyqm import spectral
    from susyqm.grids import sample
    from susyqm.selfcheck import check_isospectral

    def finite_differences(v, interval, count, walls):
        return bound_states(sample(v, Grid(*interval, 4001)), count, check_decay=False)

    monkeypatch.setattr(spectral, "spectral_bound_states", finite_differences)
    result = check_isospectral()
    assert not result.passed
    assert 1e-10 < float(result.detail.split("max level dev ")[1].split(",")[0]) < 1e-6
