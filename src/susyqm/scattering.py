"""Reflection/transmission amplitudes and their partner relations.

For a superpotential with finite asymptotes W(-inf) = W-, W(+inf) = W+, the
partner potentials share the continuum above max(W-^2, W+^2) and their
amplitudes are related by pure phase factors:
    R1 = (W- + i c k) / (W- - i c k) * R2,
    T1 = (W+ - i c k') / (W- - i c k) * T2,
with c k = sqrt(E - W-^2), c k' = sqrt(E - W+^2), in units 2m = 1 where
c = hbar. Repeated use along a chain
ending at the free particle produces closed-form amplitudes, e.g. the
reflectionless sech^2 family.

The numeric oracle for these closed forms is one Magnus-4 transfer-matrix
propagator, propagate(), batched over energies: numeric_rt reads r and t
from its matrix over the scattering window, and the Hill discriminant of
periodic.hill_discriminant is the trace of its matrix over one period.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import Superpotential


class ScatterError(ValueError):
    pass


@dataclass(frozen=True)
class ScatterAmplitudes:
    """Amplitudes at energy E for a two-sided scattering problem.

    Conventions: unit flux comes in from the left; r multiplies the reflected
    wave e^{-ikx}, t the transmitted wave e^{ik'x}. Flux conservation reads
    |r|^2 + (k'/k) |t|^2 = 1.
    """

    energy: float
    k_in: float
    k_out: float
    r: complex
    t: complex

    @property
    def reflection_probability(self) -> float:
        return abs(self.r) ** 2

    @property
    def transmission_probability(self) -> float:
        return (self.k_out / self.k_in) * abs(self.t) ** 2

    @property
    def flux_defect(self) -> float:
        return abs(self.reflection_probability + self.transmission_probability - 1.0)


def _asymptotes(w: Superpotential) -> tuple[float, float]:
    if w.w_minus is None or w.w_plus is None:
        raise ScatterError("scattering needs finite superpotential asymptotes")
    return float(w.w_minus), float(w.w_plus)


def channel_momenta(w: Superpotential, energy: float) -> tuple[float, float]:
    """Asymptotic momenta k (left) and k' (right) above both thresholds."""
    wm, wp = _asymptotes(w)
    c2 = w.c**2
    if energy <= max(wm**2, wp**2):
        raise ScatterError(
            f"energy {energy} is below the continuum threshold "
            f"max({wm**2:.6g}, {wp**2:.6g})"
        )
    return math.sqrt((energy - wm**2) / c2), math.sqrt((energy - wp**2) / c2)


def partner_rt(
    w: Superpotential, energy: float, r2: complex, t2: complex
) -> tuple[complex, complex]:
    """Map the partner's amplitudes (R2, T2) to the V1 side at fixed energy."""
    wm, wp = _asymptotes(w)
    k, kp = channel_momenta(w, energy)
    c = w.c
    r1 = (wm + 1j * c * k) / (wm - 1j * c * k) * r2
    t1 = (wp - 1j * c * kp) / (wm - 1j * c * k) * t2
    return r1, t1


def reflectionless_T(p: int, k: float) -> complex:
    """Transmission of V = -p(p+1) sech^2 x: prod_{j=1..p} (j - ik)/(-j - ik)."""
    if p < 0:
        raise ScatterError("depth index p must be a non-negative integer")
    t = complex(1.0)
    for j in range(1, p + 1):
        t *= (j - 1j * k) / (-j - 1j * k)
    return t


_BLOCK = 2048  # Magnus steps per sampling block and product tree
_GAUSS = math.sqrt(3.0) / 6.0  # the Gauss nodes of a step sit at its middle -/+ _GAUSS s
_COMMUTATOR = math.sqrt(3.0) / 12.0


def propagate(
    v, x0: float, x1: float, energies, n_steps: int, c2: float = 1.0
) -> np.ndarray:
    """Fundamental matrices of psi'' = q psi, q = (V - E)/c2, one per energy (Magnus-4).

    Returns the real array Phi of shape (len(energies), 2, 2) that maps
    (psi, psi') at x0 to (psi, psi') at x1, integrated with n_steps
    fourth-order Magnus steps of s = (x1 - x0)/n_steps (negative when
    x1 < x0). With q1, q2 the values of q at the step's Gauss nodes
    x_n + (1/2 -/+ sqrt(3)/6) s, one step is exp(Omega) for
        Omega = [[alpha, s], [s qbar, -alpha]],
        alpha = sqrt(3)/12 s^2 (q1 - q2),  qbar = (q1 + q2)/2.
    Omega^2 = z I with z = alpha^2 + s^2 qbar, so exp(Omega) = ch I + sh Omega,
    ch = cosh(sqrt z) and sh = sinh(sqrt z)/sqrt z, both entire in z: they are
    summed as series on z / 4^j, small enough for terms through z^4, and
    brought back by j doublings. Every step has determinant 1 and is exact
    where V is constant. The steps are taken in blocks of _BLOCK: V is sampled
    once on each block's Gauss nodes, and the block's step matrices are
    reduced by a pairwise product tree, so the working set stays bounded.
    v must accept an array of positions; a scalar result is broadcast.
    """
    if n_steps < 1:
        raise ScatterError(f"n_steps must be a positive integer, got {n_steps}")
    e = np.atleast_1d(np.asarray(energies, dtype=float))[:, None]
    s = (x1 - x0) / n_steps
    s2 = s * s
    eye = np.broadcast_to(np.eye(2), (e.shape[0], 1, 2, 2))
    phi = eye[:, 0].copy()
    for first in range(0, n_steps, _BLOCK):
        nb = min(_BLOCK, n_steps - first)
        mid = x0 + s * (first + 0.5 + np.arange(nb))
        x = np.empty(2 * nb)
        np.add(mid, -_GAUSS * s, out=x[0::2])
        np.add(mid, _GAUSS * s, out=x[1::2])
        vx = np.broadcast_to(np.asarray(v(x), dtype=float), x.shape)
        bad = np.flatnonzero(~np.isfinite(vx))
        if bad.size:
            raise ScatterError(f"potential is not finite at x = {x[bad[0]]:.9g}")
        q = (vx - e) / c2
        q1, q2 = q[:, 0::2], q[:, 1::2]
        alpha = (_COMMUTATOR * s2) * (q1 - q2)
        qbar = 0.5 * (q1 + q2)
        z = alpha * alpha + s2 * qbar
        j, zmax = 0, float(np.max(np.abs(z)))
        while 1e-2 < zmax < math.inf:  # an infinite E gives inf and nan, as any step would, not a hang
            zmax, j = 0.25 * zmax, j + 1
        if j:
            z *= 0.25**j
        ch = 1.0 + z * (1 / 2 + z * (1 / 24 + z * (1 / 720 + z * (1 / 40320))))
        sh = 1.0 + z * (1 / 6 + z * (1 / 120 + z * (1 / 5040 + z * (1 / 362880))))
        for _ in range(j):  # cosh 2w = 1 + 2 sinh^2 w, not 2 cosh^2 w - 1, which quadruples ch's rounding
            ch, sh = 1.0 + 2.0 * z * sh * sh, sh * ch
            z *= 4.0
        m = np.empty((e.shape[0], nb, 2, 2))
        m[..., 0, 0] = ch + sh * alpha
        m[..., 0, 1] = s * sh
        m[..., 1, 0] = s * sh * qbar
        m[..., 1, 1] = ch - sh * alpha
        while m.shape[1] > 1:
            if m.shape[1] % 2:
                m = np.concatenate([m, eye], axis=1)
            m = m[:, 1::2] @ m[:, 0::2]
        phi = m[:, 0] @ phi
    return phi


def numeric_rt(
    v_callable,
    energy: float,
    x_left: float,
    x_right: float,
    v_left: float = None,
    v_right: float = None,
    n_steps: int = 20000,
    hbar: float = 1.0,
) -> ScatterAmplitudes:
    """Direct amplitudes from the Magnus-4 transfer matrix of the window.

    Propagates a pure transmitted wave t e^{ik'x} from x_right to x_left with
    propagate() and matches it onto e^{ikx} + r e^{-ikx} there. v_left /
    v_right default to the sampled potential at the window edges. Units are
    2m = 1, so the wave equation is -hbar^2 psi'' + V psi = E psi.
    """
    c2 = hbar**2
    if v_left is None:
        v_left = float(v_callable(np.array(x_left)))
    if v_right is None:
        v_right = float(v_callable(np.array(x_right)))
    if energy <= max(v_left, v_right):
        raise ScatterError("energy below the asymptotic potential levels")
    k = math.sqrt((energy - v_left) / c2)
    kp = math.sqrt((energy - v_right) / c2)

    phi = propagate(v_callable, x_right, x_left, [energy], n_steps, c2)[0]
    out = cmath.exp(1j * kp * x_right)
    psi, dpsi = phi @ np.array([out, 1j * kp * out])
    # psi = a e^{ikx} + b e^{-ikx} at x_left; incoming flux normalized to a = 1
    e_plus = cmath.exp(1j * k * x_left)
    e_minus = cmath.exp(-1j * k * x_left)
    a = (dpsi + 1j * k * psi) / (2j * k * e_plus)
    b = -(dpsi - 1j * k * psi) / (2j * k * e_minus)
    r = complex(b / a)
    t = complex(1.0 / a)
    return ScatterAmplitudes(energy=energy, k_in=k, k_out=kp, r=r, t=t)


def numeric_rt_for(
    w: Superpotential,
    side: int,
    energy: float,
    x_left: float,
    x_right: float,
    **kw,
) -> ScatterAmplitudes:
    """numeric_rt for V1 (side=1) or V2 (side=2), with asymptotes from W."""
    wm, wp = _asymptotes(w)
    v = w.v1 if side == 1 else w.v2
    return numeric_rt(
        v, energy, x_left, x_right, v_left=wm**2, v_right=wp**2, hbar=w.hbar, **kw
    )
