import cmath
import math

import numpy as np
import pytest

from susyqm.catalog import sip_lookup
from susyqm.periodic import LameSpec, lame_potential
from susyqm.scattering import (
    ScatterError,
    channel_momenta,
    numeric_rt,
    numeric_rt_for,
    partner_phase_shift,
    partner_rt,
    propagate,
    reflectionless_T,
)


def test_channel_momenta_symmetric_well():
    w = sip_lookup("sech2", B=1.0).superpotential()
    k, kp = channel_momenta(w, 2.0)
    assert k == pytest.approx(1.0)
    assert kp == pytest.approx(1.0)


def test_channel_momenta_threshold():
    w = sip_lookup("sech2", B=1.0).superpotential()
    with pytest.raises(ScatterError):
        channel_momenta(w, 0.5)  # below W_inf^2 = 1


def test_reflectionless_T_unit_modulus():
    for p in (1, 2, 3):
        for k in (0.5, 1.0, 2.0):
            assert abs(abs(reflectionless_T(p, k)) - 1.0) < 1e-14


def test_partner_rt_of_free_partner_is_reflectionless():
    # W = tanh(x): V2 is free, so R2 = 0, T2 = 1 gives the sech^2 amplitudes
    w = sip_lookup("sech2", B=1.0).superpotential()
    k = 1.3
    energy = k**2 + 1.0
    r1, t1 = partner_rt(w, energy, 0.0 + 0.0j, 1.0 + 0.0j)
    assert abs(r1) < 1e-14
    assert t1 == pytest.approx(reflectionless_T(1, k), abs=1e-12)


def test_numeric_rt_free_particle():
    amp = numeric_rt(lambda x: np.zeros_like(np.asarray(x, float)), 1.0, -5.0, 5.0)
    assert abs(amp.r) < 1e-10
    assert abs(amp.t - 1.0) < 1e-10


def test_numeric_rt_flux_conservation_step():
    # smooth step between two different levels
    v = lambda x: 0.5 * (1 + np.tanh(np.asarray(x, float)))
    amp = numeric_rt(v, 2.0, -20.0, 20.0, v_left=0.0, v_right=1.0, n_steps=40000)
    assert abs(amp.flux_defect) < 1e-8
    assert amp.reflection_probability > 1e-4  # a genuine step reflects


def test_numeric_matches_closed_form_sech2():
    w = sip_lookup("sech2", B=1.0).superpotential()
    for k in (0.7, 1.5):
        energy = k**2 + 1.0
        amp = numeric_rt_for(w, 1, energy, -18.0, 18.0, n_steps=30000)
        assert abs(amp.r) < 1e-7
        assert abs(amp.t - reflectionless_T(1, k)) < 1e-6


def test_partner_phase_shift_identity():
    # W -> W+ > 0 on the half line; at delta2 = 0 the phase is -atan(ck'/W+)
    w = sip_lookup("sech2", B=1.0).superpotential()
    kp = 1.0
    energy = kp**2 + 1.0
    d1 = partner_phase_shift(w, energy, 0.0)
    expect = 0.5 * cmath.phase((1.0 - 1j * kp) / (1.0 + 1j * kp))
    assert d1 == pytest.approx(expect, abs=1e-12)


def test_scatter_recursion_matches_product_formula():
    from susyqm.catalog import sip_scatter_recursion

    entry = sip_lookup("sech2", B=3.0)  # p = 3 reflectionless chain
    k = 0.9
    r, t = sip_scatter_recursion(entry, k, 3)
    assert abs(r) < 1e-12
    assert t == pytest.approx(reflectionless_T(3, k), abs=1e-10)


def test_numeric_rt_rejects_non_finite_potential():
    with np.errstate(invalid="ignore"), pytest.raises(ScatterError, match="not finite at x"):
        numeric_rt(lambda x: np.sqrt(x), 2.0, -1.0, 1.0, v_left=0.0, v_right=0.0, n_steps=100)


# -- the transfer-matrix propagator against a scalar RK4 loop -----------------


def _rk4_reference(v, x0, x1, energy, n_steps):
    """Classical RK4 for psi'' = (V - E) psi on both unit columns, one scalar V call per stage."""

    def rhs(x, y):
        return (y[1], (float(v(np.array(x))) - energy) * y[0])

    h = (x1 - x0) / n_steps
    cols = []
    for y in ((1.0, 0.0), (0.0, 1.0)):
        x = x0
        for _ in range(n_steps):
            k1 = rhs(x, y)
            k2 = rhs(x + 0.5 * h, (y[0] + 0.5 * h * k1[0], y[1] + 0.5 * h * k1[1]))
            k3 = rhs(x + 0.5 * h, (y[0] + 0.5 * h * k2[0], y[1] + 0.5 * h * k2[1]))
            k4 = rhs(x + h, (y[0] + h * k3[0], y[1] + h * k3[1]))
            y = tuple(y[i] + h / 6.0 * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i]) for i in (0, 1))
            x += h
        cols.append(y)
    return np.array(cols).T


def _sech2_case():
    return sip_lookup("sech2", B=1.0).superpotential().v1, 8.0, -8.0, 1.5


def _lame_case():
    spec = LameSpec(1, 0.6)
    return lame_potential(spec), 0.0, spec.period, 0.8


def _max_rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("case", [_sech2_case, _lame_case], ids=["sech2", "lame"])
def test_propagate_matches_scalar_rk4(case):
    v, x0, x1, energy = case()
    phi = propagate(v, x0, x1, [energy], 300)
    assert phi.shape == (1, 2, 2)
    assert _max_rel(phi[0], _rk4_reference(v, x0, x1, energy, 300)) < 1e-12


@pytest.mark.parametrize("n_steps", [1, 2047, 2048, 2049, 5000])
def test_propagate_block_boundaries(n_steps):
    v = lambda x: -2.0 / np.cosh(x) ** 2
    phi = propagate(v, 6.0, -6.0, [1.3], n_steps)[0]
    assert _max_rel(phi, _rk4_reference(v, 6.0, -6.0, 1.3, n_steps)) < 1e-12


@pytest.mark.parametrize("case", [_sech2_case, _lame_case], ids=["sech2", "lame"])
def test_propagate_is_unimodular_and_batches(case):
    v, x0, x1, energy = case()
    energies = [energy - 0.3, energy, energy + 2.0]
    phi = propagate(v, x0, x1, energies, 6000)
    assert np.max(np.abs(np.linalg.det(phi) - 1.0)) < 1e-10
    for j, e in enumerate(energies):
        assert _max_rel(phi[j], propagate(v, x0, x1, [e], 6000)[0]) < 1e-13


def test_propagate_free_particle_from_constant_callable():
    length, k = 10.0, 1.2
    phi = propagate(lambda x: 0.0, 0.0, length, [0.0, k * k], 4000)
    assert np.max(np.abs(phi[0] - [[1.0, length], [0.0, 1.0]])) < 1e-12
    c, s = math.cos(k * length), math.sin(k * length)
    assert np.max(np.abs(phi[1] - [[c, s / k], [-k * s, c]])) < 1e-9


def test_propagate_needs_a_step():
    with pytest.raises(ScatterError):
        propagate(lambda x: 0.0, 0.0, 1.0, [1.0], 0)
