"""Factorization engine: superpotentials, partner potentials and ladder operators.

A superpotential W(x) generates the partner pair
    V1 = W^2 - c W',   V2 = W^2 + c W',   c = hbar / sqrt(2m),
and the first-order operators
    A = c d/dx + W,    Adag = -c d/dx + W,
which factorize H1 = Adag A and H2 = A Adag. When SUSY is unbroken, H1 has the
zero mode exp(-(1/c) \\int W) and A / Adag map eigenstates between the partners.
Units are 2m = 1, so c = hbar is the one scale; the catalog's closed forms take hbar = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .eigensolver import SolverError, dirichlet_tridiagonal, lowest_eigenvalues
from .grids import (
    Grid,
    SampledFunction,
    cumulative_integral,
    derivative,
    integrate,
    sample,
)


class SusyError(ValueError):
    pass


@dataclass(frozen=True)
class Superpotential:
    """W(x) with its hbar (in units 2m = 1) and asymptotics.

    w is a vectorized callable; w_prime is its analytic derivative when
    available (finite differences are used otherwise). domain is the open
    interval on which W is evaluable; half-lines use inf endpoints.
    w_minus / w_plus are the limits W(x -> -inf / +inf) when finite.
    """

    w: Callable[[np.ndarray], np.ndarray]
    domain: tuple[float, float] = (-math.inf, math.inf)
    w_prime: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hbar: float = 1.0
    w_minus: Optional[float] = None
    w_plus: Optional[float] = None

    @property
    def c(self) -> float:
        """The derivative coefficient hbar / sqrt(2m), which is hbar at 2m = 1."""
        return self.hbar

    def w_prime_at(self, x: np.ndarray) -> np.ndarray:
        if self.w_prime is not None:
            return np.asarray(self.w_prime(x), dtype=float)
        return _fd_derivative(self.w, np.asarray(x, dtype=float))

    def v1(self, x):
        x = np.asarray(x, dtype=float)
        return self.w(x) ** 2 - self.c * self.w_prime_at(x)

    def v2(self, x):
        x = np.asarray(x, dtype=float)
        return self.w(x) ** 2 + self.c * self.w_prime_at(x)

    def clip_grid(self, grid: Grid) -> Grid:
        lo, hi = self.domain
        if grid.x_min <= lo or grid.x_max >= hi:
            raise SusyError(
                f"grid [{grid.x_min}, {grid.x_max}] leaves open domain ({lo}, {hi})"
            )
        return grid


def _fd_derivative(fn, x):
    h = 1e-6 * np.maximum(1.0, np.abs(x))
    return (fn(x - 2 * h) - 8 * fn(x - h) + 8 * fn(x + h) - fn(x + 2 * h)) / (12 * h)


def ground_state_from_w(w: Superpotential, grid: Grid) -> SampledFunction:
    """Normalized zero mode psi0 ~ exp(-(1/c) int W) on the given grid.

    The exponent is accumulated with running Simpson quadrature and shifted
    by its maximum before exponentiation, so confining superpotentials do
    not overflow.
    """
    w.clip_grid(grid)
    wvals = sample(w.w, grid)
    exponent = cumulative_integral(wvals).values / w.c
    exponent -= exponent.min()
    psi = np.exp(-exponent)
    norm = integrate(SampledFunction(grid, psi**2))
    if not np.isfinite(norm) or norm <= 0:
        raise SusyError("zero-mode candidate has no finite positive norm")
    return SampledFunction(grid, psi / math.sqrt(norm))


def _wall_limit(f, wall: float, sense: float, rho: float, power: int) -> float:
    """lim d^power f(wall + sense d) as d -> 0, d = sense (r - wall) the
    distance into the interval (sense = +1 for a wall at its lower end, -1 at
    its upper end): the cubic through d = rho, 2 rho, 4 rho, 8 rho at d = 0,
    which leaves 64 rho^4 c of a d^power f that goes as a + b d + ... + c d^4."""
    d = rho * np.array([1.0, 2.0, 4.0, 8.0])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        g = d**power * np.asarray(f(wall + sense * d), dtype=float)
    if not np.all(np.isfinite(g)):
        raise SolverError(f"not finite next to the wall at {wall:.6g}, {rho:.6g} inside")
    # (64 g0 - 56 g1 + 14 g2 - g3) / 21 as a fused multiply-add dot sums it, with
    # no BLAS call (see spectral): left to right, each partial sum rounded once
    # from the exact one. 56 = 64 - 8 and 14 = 16 - 2 split every product into
    # exact ones, and fsum rounds once
    acc = math.fsum((64.0 * g[0], -64.0 * g[1], 8.0 * g[1]))
    return (math.fsum((acc, 16.0 * g[2], -2.0 * g[2])) - float(g[3])) / 21.0


def wall_exponent(v, wall: float, length: float, sense: float = 1.0) -> float:
    """s = 1/2 + sqrt(1/4 + g) for V ~ g / d^2 at the wall: psi ~ d^s, the
    larger root of s (s - 1) = g, and s = 1 for a V finite at the wall.

    rho is 1e-5 of the box length, but at least 100 times the step
    1e-6 max(1, |r|) with which _fd_derivative differentiates a W that has
    no w_prime, so a V1 built that way neither samples W beyond the wall nor
    carries more than a few 1e-8 of relative error there.
    """
    g = _wall_limit(v, wall, sense, max(1e-5 * length, 1e-4 * max(1.0, abs(wall))), 2)
    if not g > -0.25:
        raise SolverError(
            f"V ~ {g:.6g} / d^2 at the wall at {wall:.6g}: no ground state below -1/(4 d^2)"
        )
    return 0.5 + math.sqrt(0.25 + g)


def ground_state_exponent(w, wall: float, length: float, sense: float) -> float:
    """s = lim -+d W at the wall, so the ground state exp(-int W) goes as d^s.

    Where s < 1/2 this is the smaller root of s (s - 1) = lim d^2 V1, which
    V1 alone cannot tell from 1 - s. rho is 1e-4 |wall|: the position of a
    wall at |wall| ~ 1 is known to about 1e-16, which is then 1e-12 of rho.
    A wall at 0 has no such rounding, and rho = 1e-6 of the box length keeps
    the cubic's 64 rho^4 c below 1e-16 (on poschl_teller A = 3, B = 3.1,
    rho = 3.6e-4 left 1.4e-13 in s and 2.6e-10 in the levels).
    """
    return -sense * _wall_limit(w, wall, sense, max(1e-6 * length, 1e-4 * abs(wall)), 1)


def apply_A(w: Superpotential, psi: SampledFunction) -> SampledFunction:
    """Apply A = c d/dx + W; annihilates the zero mode, removes one node."""
    return SampledFunction(
        psi.grid, w.c * derivative(psi).values + w.w(psi.x) * psi.values
    )


def apply_Adag(w: Superpotential, psi: SampledFunction) -> SampledFunction:
    """Apply Adag = -c d/dx + W; creates one node."""
    return SampledFunction(
        psi.grid, -w.c * derivative(psi).values + w.w(psi.x) * psi.values
    )


def normalized(psi: SampledFunction) -> SampledFunction:
    n = integrate(psi.map(lambda v: v**2))
    return psi.map(lambda v: v / math.sqrt(n))


def map_to_partner(
    w: Superpotential, psi: SampledFunction, energy: float
) -> SampledFunction:
    """E^{-1/2} A psi: a normalized partner eigenstate for a normalized input."""
    if energy <= 0:
        raise SusyError("partner mapping needs strictly positive energy")
    return apply_A(w, psi).map(lambda v: v / math.sqrt(energy))


# ---------------------------------------------------------------------------
# Discretized superalgebra check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlgebraReport:
    """The discrete superalgebra of the bidiagonal A on a Dirichlet grid.

    A = c D + W is the (n-1) x n forward difference plus W on the n interior
    nodes, so H1 = A^T A (n x n) keeps an exact zero mode and H2 = A A^T
    ((n-1) x (n-1)) carries the rest of its spectrum. Both are assembled as
    tridiagonals. The residuals are relative to a bound on ||H1||:
    zero_mode_residual is |lambda_0(H1)| and partner_residual is
    max_k |lambda_{k+1}(H1) - lambda_k(H2)| over the lowest levels. The
    discretization_gap is the largest difference over the lowest five levels
    between H1 and the direct 3-point stencil with V1 = W^2 - cW'. It shrinks
    as O(h^2) under refinement when w_prime is the derivative of W and those
    five states vanish well inside the grid, where the boundary rows of H1 and
    of the stencil differ; it stalls when V1 misses part of W' or SUSY is
    broken.
    """

    zero_mode_residual: float
    partner_residual: float
    discretization_gap: float


_ALGEBRA_LEVELS = 20
_GAP_LEVELS = 5


def algebra_check(w: Superpotential, grid: Grid) -> AlgebraReport:
    x, h, c = grid.points, grid.h, w.c
    a = np.asarray(w.w(x[1:-2]), dtype=float) - c / h  # diagonal of A; superdiagonal c / h
    b = c / h
    d1 = np.append(a**2, 0.0)
    d1[1:] += b**2
    e1 = b * a
    scale = float(np.max(np.abs(d1)) + 2.0 * np.max(np.abs(e1)))  # Gershgorin bound
    lam1 = lowest_eigenvalues(d1, e1, _ALGEBRA_LEVELS + 1)
    lam2 = lowest_eigenvalues(a**2 + b**2, b * a[1:], _ALGEBRA_LEVELS)
    direct = lowest_eigenvalues(*dirichlet_tridiagonal(w.v1(x), h, c**2), _GAP_LEVELS)
    return AlgebraReport(
        zero_mode_residual=abs(float(lam1[0])) / scale,
        partner_residual=float(np.max(np.abs(lam1[1:] - lam2))) / scale,
        discretization_gap=float(np.max(np.abs(lam1[:_GAP_LEVELS] - direct))),
    )
