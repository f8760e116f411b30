"""Special functions: erfc, complete elliptic integral K(m), Jacobi sn/cn/dn.

K(m) and the Jacobi functions are computed with the arithmetic-geometric mean
(descending Landen transformation), which is cheap and uniformly accurate for
modulus parameter m in [0, 1]. erfc delegates to the C library implementation.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


class DomainError(ValueError):
    """Argument outside the supported parameter range."""


def erfc(x):
    """Complementary error function, |error| <= 1e-15, erfc(-x) = 2 - erfc(x)."""
    if np.isscalar(x):
        return math.erfc(x)
    return np.vectorize(math.erfc, otypes=[float])(np.asarray(x, dtype=float))


def elliptic_K(m: float) -> float:
    """Complete elliptic integral of the first kind K(m), via the AGM.

    Uses the modulus-parameter convention K(m) = F(pi/2 | m), so K(0) = pi/2
    and K diverges logarithmically as m -> 1.
    """
    if not 0.0 <= m < 1.0:
        raise DomainError(f"K(m) requires 0 <= m < 1, got {m}")
    a, b = 1.0, math.sqrt(1.0 - m)
    for _ in range(_MAX_LANDEN):
        if abs(a - b) <= 4.0 * np.finfo(float).eps * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


_MAX_LANDEN = 64
_EPS = float(np.finfo(float).eps)


def jacobi_sn_cn_dn(x, m: float):
    """Jacobi elliptic functions (sn, cn, dn) at argument x, parameter m in [0, 1].

    Computed by the descending-Landen/AGM scheme with the backward amplitude
    recursion; the degenerate ends m=0 (trigonometric) and m=1 (hyperbolic)
    are handled in closed form. Accepts scalars or arrays.
    """
    if not 0.0 <= m <= 1.0:
        raise DomainError(f"jacobi functions require 0 <= m <= 1, got {m}")
    x = np.asarray(x, dtype=float)
    if m == 0.0:
        sn, cn, dn = np.sin(x), np.cos(x), np.ones_like(x)
    elif m == 1.0:
        sn, cn = np.tanh(x), 1.0 / np.cosh(x)
        dn = cn.copy()
    else:
        sn, cn, dn = _jacobi_agm(x, m)
    if sn.ndim == 0:
        return float(sn), float(cn), float(dn)
    return sn, cn, dn


@lru_cache(maxsize=64)
def _landen(m: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Descending Landen (AGM) sequences (a_0..a_n, c_0..c_n) for 0 < m < 1.

    The descent stops once |c_n| <= eps * a_n, where later terms vanish to
    working precision; an absolute stop never triggers for many m, because
    a_n - b_n settles at one ulp of a_n rather than at zero.
    """
    a, b, c = [1.0], math.sqrt(1.0 - m), [math.sqrt(m)]
    while abs(c[-1]) > _EPS * a[-1] and len(a) < _MAX_LANDEN:
        an, b, cn_ = 0.5 * (a[-1] + b), math.sqrt(a[-1] * b), 0.5 * (a[-1] - b)
        a.append(an)
        c.append(cn_)
    return tuple(a), tuple(c)


def _jacobi_agm(x: np.ndarray, m: float):
    a, c = _landen(m)
    n = len(a) - 1
    phi = (2.0**n) * a[n] * x
    for k in range(n, 0, -1):
        phi = 0.5 * (phi + np.arcsin(np.clip(c[k] / a[k] * np.sin(phi), -1.0, 1.0)))
    sn = np.sin(phi)
    cn = np.cos(phi)
    # dn^2 = (1 - m) + m cn^2 adds two non-negative terms, so dn keeps full
    # precision where cn vanishes
    dn = np.sqrt((1.0 - m) + m * cn * cn)
    return sn, cn, dn
