import math

import numpy as np
import pytest

from susyqm.catalog import (
    CATALOG_NAMES,
    CatalogError,
    hierarchy_potential,
    numeric_grid,
    numeric_levels,
    shape_invariance_residual,
    sip_eigenfunction,
    sip_lookup,
    sip_spectrum,
    well_hierarchy_potential,
)
from susyqm.grids import Grid, SampledFunction, integrate


def test_every_entry_is_shape_invariant():
    for name in CATALOG_NAMES:
        entry = sip_lookup(name)
        assert shape_invariance_residual(entry) < 1e-9, name


def test_unknown_name():
    with pytest.raises(CatalogError):
        sip_lookup("not_a_well")


def test_oscillator_spectrum():
    entry = sip_lookup("shifted_oscillator")
    spec, truncated = sip_spectrum(entry, 4)
    assert not truncated
    assert spec == pytest.approx([0.0, 2.0, 4.0, 6.0, 8.0])


def test_coulomb_spectrum():
    entry = sip_lookup("coulomb")
    spec, _ = sip_spectrum(entry, 2)
    # relative to the ground level: E_n = 1/1 - 1/(n+1)^2 in these units... the
    # entry stores the ground state at zero, so check gaps against the numeric solver
    numeric = numeric_levels(entry, 3)
    gaps_closed = [spec[i + 1] - spec[i] for i in range(2)]
    gaps_num = [numeric[i + 1].energy - numeric[i].energy for i in range(2)]
    assert gaps_closed == pytest.approx(gaps_num, abs=5e-5)


def test_morse_truncation():
    entry = sip_lookup("morse")  # A=3, alpha=1: exactly 3 bound states
    assert entry.n_bound == 3
    spec, truncated = sip_spectrum(entry, 9)
    assert truncated and len(spec) == 3


def test_numeric_agreement_all_entries():
    for name in CATALOG_NAMES:
        entry = sip_lookup(name)
        count = min(3, entry.n_bound or 3)
        spec, _ = sip_spectrum(entry, count - 1)
        numeric = numeric_levels(entry, count)
        for e_closed, pair in zip(spec, numeric):
            shift = numeric[0].energy - spec[0]
            assert pair.energy - shift == pytest.approx(e_closed, abs=5e-4), name


def test_eigenfunction_nodes_and_norm():
    entry = sip_lookup("shifted_oscillator")
    grid = Grid(-8.0, 8.0, 2001)
    for n in range(3):
        psi = sip_eigenfunction(entry, n, grid)
        assert integrate(psi.map(lambda v: v**2)) == pytest.approx(1.0, rel=1e-8)
        interior = psi.values[np.abs(psi.values) > 1e-6 * np.max(np.abs(psi.values))]
        flips = np.sum(np.signbit(interior[:-1]) != np.signbit(interior[1:]))
        assert flips == n


def test_hierarchy_potential_spectrum_shift():
    entry = sip_lookup("shifted_oscillator")
    v, shift = hierarchy_potential(entry, 3)
    assert shift == pytest.approx(4.0)  # two rungs of 2
    x = np.array([0.5, 1.5])
    # oscillator hierarchy members are all the same well shifted up
    assert np.allclose(v(x), entry.v1(x) + shift)


def test_well_hierarchy_values():
    v = well_hierarchy_potential(2, math.pi)
    x = np.array([math.pi / 2])
    assert v(x)[0] == pytest.approx(6.0 - 4.0)
    assert well_hierarchy_potential(0)(x)[0] == 0.0


def test_sech2_alias():
    entry = sip_lookup("sech2", B=2.0)
    x = np.linspace(-3, 3, 31)
    assert np.allclose(entry.v1(x), 4.0 - 6.0 / np.cosh(x) ** 2)
    spec, _ = sip_spectrum(entry, 1)
    assert spec == pytest.approx([0.0, 3.0])


def test_numeric_grid_respects_walls():
    entry = sip_lookup("coulomb")
    g = numeric_grid(entry, 101)
    assert g.x_min > 0.0


def test_parameter_override():
    entry = sip_lookup("shifted_oscillator", omega=4.0)
    spec, _ = sip_spectrum(entry, 2)
    assert spec == pytest.approx([0.0, 4.0, 8.0])


ALL_ENTRIES = [*CATALOG_NAMES, "sech2"]


@pytest.mark.parametrize("name", ALL_ENTRIES)
def test_entry_partner_potentials_are_the_superpotentials(name):
    entry = sip_lookup(name)
    x = np.linspace(*entry.box, 401)[1:-1]
    for p in entry.param_chain(2):
        w = entry.superpotential(p)
        assert np.array_equal(entry.v1(x, p), w.v1(x))
        assert np.array_equal(entry.v2(x, p), w.v2(x))


@pytest.mark.parametrize("name", ALL_ENTRIES)
def test_asymptotes_follow_the_parameter_chain(name):
    entry = sip_lookup(name)
    declared = (entry.w_minus, entry.w_plus)
    w = entry.superpotential()
    assert [None if v is None else v.hex() for v in (w.w_minus, w.w_plus)] == [
        None if v is None else float(v).hex() for v in declared
    ]
    for p in entry.param_chain(3):
        w = entry.superpotential(p)
        for limit, end, d in ((w.w_minus, -1e9, declared[0]), (w.w_plus, 1e9, declared[1])):
            if d is None:
                assert limit is None
            else:
                with np.errstate(over="ignore"):  # csch(1e9) = 1 / inf
                    far = float(entry.w_of(np.array(end), p))
                assert limit == pytest.approx(far, abs=1e-8)
