"""Reflection/transmission amplitudes and their partner relations.

For a superpotential with finite asymptotes W(-inf) = W-, W(+inf) = W+, the
partner potentials share the continuum above max(W-^2, W+^2) and their
amplitudes are related by pure phase factors:
    R1 = (W- + i k) / (W- - i k) * R2,
    T1 = (W+ - i k') / (W- - i k) * T2,
with k = sqrt(E - W-^2), k' = sqrt(E - W+^2). Repeated use along a chain
ending at the free particle produces closed-form amplitudes, e.g. the
reflectionless sech^2 family.

The numeric oracle for these closed forms is one RK4 transfer-matrix
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


def partner_phase_shift(w: Superpotential, energy: float, delta2: float) -> float:
    """Half-line relation: e^{2i delta1} = (W+ - ik')/(W+ + ik') e^{2i delta2}."""
    wm, wp = _asymptotes(w)
    _ = wm
    c2 = w.c**2
    if energy <= wp**2:
        raise ScatterError("energy below the half-line threshold")
    kp = math.sqrt((energy - wp**2) / c2)
    factor = (wp - 1j * w.c * kp) / (wp + 1j * w.c * kp)
    s1 = factor * cmath.exp(2j * delta2)
    return 0.5 * cmath.phase(s1)


def reflectionless_T(p: int, k: float) -> complex:
    """Transmission of V = -p(p+1) sech^2 x: prod_{j=1..p} (j - ik)/(-j - ik)."""
    if p < 0:
        raise ScatterError("depth index p must be a non-negative integer")
    t = complex(1.0)
    for j in range(1, p + 1):
        t *= (j - 1j * k) / (-j - 1j * k)
    return t


_BLOCK = 2048  # RK4 steps per sampling block and product tree


def propagate(
    v, x0: float, x1: float, energies, n_steps: int, c2: float = 1.0
) -> np.ndarray:
    """Fundamental matrices of psi'' = q psi, q = (V - E)/c2, one per energy (RK4).

    Returns the real array Phi of shape (len(energies), 2, 2) that maps
    (psi, psi') at x0 to (psi, psi') at x1, integrated with n_steps classical
    RK4 steps of s = (x1 - x0)/n_steps (negative when x1 < x0). For this
    linear system one RK4 step is the matrix
        [[1 + s^2/6 (qa + 2qm + s^2/4 qa qm),        s (1 + s^2/6 qm)],
         [s/6 (qa + 4qm + qb + s^2/2 qm (qa + qb)),  1 + s^2/6 (2qm + qb + s^2/4 qb qm)]]
    with qa, qm, qb the values of q at the start, midpoint and end of the step.
    The steps are taken in blocks of _BLOCK: V is sampled once on each
    block's step and half-step nodes, and the block's step matrices are
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
        x = x0 + s * (first + 0.5 * np.arange(2 * nb + 1))
        vx = np.broadcast_to(np.asarray(v(x), dtype=float), x.shape)
        bad = np.flatnonzero(~np.isfinite(vx))
        if bad.size:
            raise ScatterError(f"potential is not finite at x = {x[bad[0]]:.9g}")
        q = (vx - e) / c2
        qa, qm, qb = q[:, 0:-1:2], q[:, 1::2], q[:, 2::2]
        m = np.empty((e.shape[0], nb, 2, 2))
        m[..., 0, 0] = 1.0 + s2 / 6.0 * (qa + 2.0 * qm + s2 / 4.0 * qa * qm)
        m[..., 0, 1] = s * (1.0 + s2 / 6.0 * qm)
        m[..., 1, 0] = s / 6.0 * (qa + 4.0 * qm + qb + s2 / 2.0 * qm * (qa + qb))
        m[..., 1, 1] = 1.0 + s2 / 6.0 * (2.0 * qm + qb + s2 / 4.0 * qb * qm)
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
    mass2: float = 1.0,
) -> ScatterAmplitudes:
    """Direct amplitudes from the RK4 transfer matrix of the window.

    Propagates a pure transmitted wave t e^{ik'x} from x_right to x_left with
    propagate() and matches it onto e^{ikx} + r e^{-ikx} there. v_left /
    v_right default to the sampled potential at the window edges.
    """
    c2 = hbar**2 / mass2
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
        v, energy, x_left, x_right, v_left=wm**2, v_right=wp**2, **kw
    )
