"""One-parameter families of strictly isospectral potentials.

Given a potential V1 with normalized ground state psi0 at zero energy, the
family
    Vhat(x; lam) = V1(x) - 2 c^2 (d^2/dx^2) ln(I(x) + lam),
    I(x) = int_{-inf}^x psi0(t)^2 dt,
has exactly the spectrum of V1 for lam > 0 or lam < -1, with ground state
    psihat0 = sqrt(lam (1 + lam)) psi0 / (I + lam).
The second derivative is evaluated analytically through I' = psi0^2 and
psi0' = -(W/c) psi0, so no numerical differentiation enters the family.
The boundary points lam -> 0 and lam -> -1 delete the ground state and
produce the two inequivalent "lost ground state" partners.

A family gives its members on its grid (IsoFamily.potential) or as callables
at any x (IsoFamily.member), which the spectral engine solves. The callable
reads ln psi0^2, ln I and ln J = ln(1 - I) off the Gauss-Legendre panel
tables of panels.LogTables, built on its first call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .core import Superpotential, ground_state_from_w
from .grids import Grid, SampledFunction, cumulative_integral, integrate
from .panels import LogTables


class IsospectralError(ValueError):
    pass


def _shifted(cum: np.ndarray, tail: np.ndarray, lam: float) -> np.ndarray:
    """I + lam from I (cum) or J = 1 - I (tail), whichever has no cancellation."""
    if lam >= -0.5:
        return cum + lam
    return (1.0 + lam) - tail


def _deformed(v1: np.ndarray, wv: np.ndarray, c: float, p2: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The member V1 - 2 c^2 (ln u)'' with u = I + lam, from psi0^2 (p2), W and V1.

    With r = psi0^2 / u, (ln u)' = r and r' = -(2W/c) r - r^2 (I' = psi0^2,
    psi0' = -(W/c) psi0), so the member is V1 + 2 c^2 ((2W/c) r + r^2). Where u
    underflows to 0 in the tail, r takes its limit -2W/c; where psi0^2 does
    (|u| < 1/2), either limit r = 0 or -2W/c gives V1.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(u != 0.0, p2 / np.where(u == 0.0, 1.0, u), 0.0)
    tail = (u == 0.0) | ((p2 == 0.0) & (np.abs(u) < 0.5))
    ratio = np.where(tail, -2.0 * wv / c, ratio)
    log_second = -(2.0 * wv / c) * ratio - ratio**2
    return v1 - 2.0 * c**2 * log_second


def admissible(lam: float) -> bool:
    """Deformation parameters that keep I + lam nodeless: lam > 0 or lam < -1."""
    return lam > 0.0 or lam < -1.0


@dataclass(frozen=True)
class IsoFamily:
    """Deformation data built once from W; evaluates any admissible member.

    Everything is stored on a working grid: the ground state, the cumulative
    norm I accumulated from the left, and its complement J = 1 - I
    accumulated from the right. Keeping both orientations avoids the
    catastrophic cancellation in I - 1 that would otherwise wreck the
    lam < -1 branch and the lam = -1 limit. The off-grid tail mass is
    estimated from the asymptotic relation I ~ c psi0^2 / (2|W|) and folded
    into the normalization. The member callables' panel tables (the same
    three functions, in logarithms) are built from W on the first call of a
    member, never by build.
    """

    source: Superpotential
    grid: Grid
    psi0: SampledFunction
    cumnorm: SampledFunction  # I(x), increasing 0 -> 1
    tailnorm: SampledFunction  # J(x) = 1 - I(x), computed right-to-left

    @classmethod
    def build(cls, w: Superpotential, grid: Grid) -> "IsoFamily":
        psi0 = ground_state_from_w(w, grid)
        p2 = psi0.values**2
        raw = cumulative_integral(SampledFunction(grid, p2)).values
        # J is accumulated right-to-left on its own so neither orientation
        # suffers cancellation against the total mass
        raw_r = cumulative_integral(SampledFunction(grid, p2[::-1])).values[::-1]
        # asymptotic tail mass beyond the window edges: I' = psi0^2, I ~ c psi0^2/(2|W|)
        w_lo = float(w.w(np.array(grid.x_min)))
        w_hi = float(w.w(np.array(grid.x_max)))
        seed_lo = w.c * p2[0] / (2.0 * max(-w_lo, 1e-12))
        seed_hi = w.c * p2[-1] / (2.0 * max(w_hi, 1e-12))
        total = seed_lo + raw[-1] + seed_hi
        if not np.isfinite(total) or total <= 0:
            raise IsospectralError("ground-state norm is not finite on this grid")
        i_vals = (seed_lo + raw) / total
        j_vals = (seed_hi + raw_r) / total
        if abs(total - 1.0) > 1e-6:
            raise IsospectralError(
                f"psi0^2 mass on the window is {total:.8f}; widen the grid"
            )
        return cls(
            source=w,
            grid=grid,
            psi0=SampledFunction(grid, psi0.values / math.sqrt(total)),
            cumnorm=SampledFunction(grid, i_vals),
            tailnorm=SampledFunction(grid, j_vals),
        )

    def _u(self, lam: float) -> np.ndarray:
        return _shifted(self.cumnorm.values, self.tailnorm.values, lam)

    def _check(self, lam: float):
        if not admissible(lam):
            raise IsospectralError(
                f"lam = {lam} is not admissible (need lam > 0 or lam < -1)"
            )

    def potential(self, lam: float) -> SampledFunction:
        """Vhat(x; lam) = V1 - 2 c^2 (d^2/dx^2) ln(I + lam) on the grid, assembled analytically."""
        self._check(lam)
        x = self.grid.points
        wv = np.asarray(self.source.w(x), dtype=float)
        return SampledFunction(
            self.grid, _deformed(self.source.v1(x), wv, self.source.c, self.psi0.values**2, self._u(lam))
        )

    def member(self, lam: float) -> Callable:
        """Vhat(x; lam) as a callable at any x, for an admissible lam or a
        boundary value 0 or -1 (the member without the ground state).

        psi0^2, I and J are exp of the panel tables' interpolants; past the
        tables' ends psi0^2 = 0 and I = 0 (below) or 1 (above), so the member
        is V1 there, or its tail limit where I + lam = 0.
        """
        if not (admissible(lam) or lam in (0.0, -1.0)):
            raise IsospectralError(f"lam = {lam} is neither admissible nor a boundary value 0 or -1")

        def v(x):
            x = np.asarray(x, dtype=float)
            flat = x.ravel()
            p2, cum = np.zeros_like(flat), (flat > self.grid.x_max).astype(float)
            tail = 1.0 - cum
            inside = (flat >= self.grid.x_min) & (flat <= self.grid.x_max)
            p2[inside], cum[inside], tail[inside] = np.exp(self._tables.at(flat[inside]))
            wv = np.asarray(self.source.w(flat), dtype=float)
            out = _deformed(self.source.v1(flat), wv, self.source.c, p2, _shifted(cum, tail, lam))
            return out.reshape(x.shape)

        return v

    @cached_property
    def _tables(self):
        """The member's panel tables, built on the first read."""
        return LogTables.build(self.source, self.grid.x_min, self.grid.x_max)

    def ground_state(self, lam: float) -> SampledFunction:
        """psihat0 = sqrt(lam(1+lam)) psi0 / (I + lam); unit norm by construction."""
        self._check(lam)
        u = self._u(lam)
        amp = math.sqrt(lam * (1.0 + lam))
        return SampledFunction(self.grid, amp * self.psi0.values / u)


def conserved_charges(v: SampledFunction, v_infinity: float) -> tuple[float, float]:
    """First two deformation invariants: Q1 = int (V - Vinf) dx, Q2 = int (V - Vinf)^2 dx.

    These are the leading members of the infinite tower of functionals that
    stay constant along the isospectral family (for the one-soliton well the
    family is a pure translation, so only translation-invariant functionals
    qualify; a plain first moment would drift with the deformation parameter).
    """
    dv = v.values - v_infinity
    q1 = integrate(SampledFunction(v.grid, dv))
    q2 = integrate(SampledFunction(v.grid, dv**2))
    return q1, q2
