import math

import numpy as np
import pytest
from scipy import special as sps

from susyqm.special import DomainError, _landen, elliptic_K, erfc, jacobi_sn_cn_dn

M_GRID = np.linspace(0.01, 0.99, 99)


def test_erfc_scalar_and_array():
    assert erfc(0.0) == pytest.approx(1.0)
    xs = np.linspace(-3, 3, 13)
    assert np.allclose(erfc(xs), sps.erfc(xs), atol=1e-15)


def test_elliptic_K_against_scipy():
    for m in (0.0, 0.1, 0.5, 0.9, 0.999):
        assert elliptic_K(m) == pytest.approx(float(sps.ellipk(m)), rel=1e-14)


def test_elliptic_K_domain():
    with pytest.raises(DomainError):
        elliptic_K(1.0)
    with pytest.raises(DomainError):
        elliptic_K(-0.1)


def test_jacobi_limits():
    x = np.linspace(-2, 2, 21)
    sn, cn, dn = jacobi_sn_cn_dn(x, 0.0)
    assert np.allclose(sn, np.sin(x)) and np.allclose(cn, np.cos(x))
    assert np.allclose(dn, 1.0)
    sn, cn, dn = jacobi_sn_cn_dn(x, 1.0)
    assert np.allclose(sn, np.tanh(x)) and np.allclose(cn, 1 / np.cosh(x))


def test_jacobi_against_scipy():
    x = np.linspace(-5, 5, 101)
    for m in (0.3, 0.5, 0.82):
        sn, cn, dn = jacobi_sn_cn_dn(x, m)
        sn_s, cn_s, dn_s, _ = sps.ellipj(x, m)
        assert np.max(np.abs(sn - sn_s)) < 1e-12
        assert np.max(np.abs(cn - cn_s)) < 1e-12
        assert np.max(np.abs(dn - dn_s)) < 1e-12


def test_jacobi_identities():
    x = np.linspace(-4, 4, 41)
    m = 0.7
    sn, cn, dn = jacobi_sn_cn_dn(x, m)
    assert np.max(np.abs(sn**2 + cn**2 - 1)) < 1e-13
    assert np.max(np.abs(dn**2 + m * sn**2 - 1)) < 1e-13


def test_jacobi_periodicity():
    m = 0.5
    period = 4.0 * elliptic_K(m)
    x = np.linspace(0, 3, 31)
    s1, _, _ = jacobi_sn_cn_dn(x, m)
    s2, _, _ = jacobi_sn_cn_dn(x + period, m)
    assert np.max(np.abs(s1 - s2)) < 1e-11


def test_jacobi_scalar_returns_floats():
    sn, cn, dn = jacobi_sn_cn_dn(0.3, 0.5)
    assert isinstance(sn, float) and isinstance(cn, float) and isinstance(dn, float)


def test_landen_descent_stops_relative_to_a():
    # an absolute stop on c_n never fires for m = 0.5 and 20 other grid values
    assert max(len(_landen(float(m))[0]) for m in M_GRID) <= 8


def test_jacobi_near_the_closed_form_ends():
    x = np.linspace(-3, 3, 61)
    sn, cn, dn = jacobi_sn_cn_dn(x, 2.0**-52)
    assert np.max(np.abs(np.array([sn - np.sin(x), cn - np.cos(x), dn - 1.0]))) < 1e-14
    sn, cn, dn = jacobi_sn_cn_dn(x, 1.0 - 2.0**-52)
    sech = 1.0 / np.cosh(x)
    assert np.max(np.abs(np.array([sn - np.tanh(x), cn - sech, dn - sech]))) < 1e-14


def test_jacobi_periodic_in_elliptic_K_over_m_grid():
    x = np.linspace(0, 3, 31)
    for m in M_GRID:
        m = float(m)
        k = elliptic_K(m)
        sn, cn, dn = jacobi_sn_cn_dn(x, m)
        sn4, cn4, _ = jacobi_sn_cn_dn(x + 4.0 * k, m)
        _, _, dn2 = jacobi_sn_cn_dn(x + 2.0 * k, m)
        dev = np.max(np.abs(np.array([sn4 - sn, cn4 - cn, dn2 - dn])))
        assert dev < 1e-14, (m, dev)
