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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Superpotential, ground_state_from_w
from .grids import Grid, SampledFunction, cumulative_integral, integrate


class IsospectralError(ValueError):
    pass


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
    into the normalization.
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
        """I + lam, using whichever accumulation direction is cancellation-free."""
        if lam >= -0.5:
            return self.cumnorm.values + lam
        return (1.0 + lam) - self.tailnorm.values

    def _check(self, lam: float):
        if not admissible(lam):
            raise IsospectralError(
                f"lam = {lam} is not admissible (need lam > 0 or lam < -1)"
            )

    def _member(self, lam: float) -> SampledFunction:
        """V1 - 2 c^2 (d^2/dx^2) ln(I + lam) for any lam, the boundary values 0 and -1 included.

        The second derivative is assembled through I' = psi0^2, psi0' = -(W/c) psi0.
        """
        x = self.grid.points
        v1 = self.source.v1(x)
        c = self.source.c
        p2 = self.psi0.values**2
        u = self._u(lam)
        wv = np.asarray(self.source.w(x), dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(u != 0.0, p2 / np.where(u == 0.0, 1.0, u), 0.0)
        # where u underflows to 0 in the tail, substitute the limit p2/u -> -2W/c
        tail = (u == 0.0) | ((p2 == 0.0) & (np.abs(u) < 0.5))
        ratio = np.where(tail, -2.0 * wv / c, ratio)
        log_second = -(2.0 * wv / c) * ratio - ratio**2
        return SampledFunction(self.grid, v1 - 2.0 * c**2 * log_second)

    def potential(self, lam: float) -> SampledFunction:
        """Vhat(x; lam) = V1 - 2 c^2 (d^2/dx^2) ln(I + lam), assembled analytically."""
        self._check(lam)
        return self._member(lam)

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


def pursey_abraham_moses(fam: IsoFamily) -> tuple[SampledFunction, SampledFunction]:
    """The two boundary potentials of the family, evaluated at lam = 0 and -1.

    Both delete the ground state while keeping the rest of the spectrum; for a
    symmetric base they are mirror images of each other. The lam = 0 member
    stays finite because psi0^2 / I tends to the limit -2W/c in the tail
    where both vanish (and likewise psi0^2 / (I - 1) on the other side).
    """
    return fam._member(0.0), fam._member(-1.0)
