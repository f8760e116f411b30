"""Factorization engine: superpotentials, partner potentials and ladder operators.

A superpotential W(x) generates the partner pair
    V1 = W^2 - c W',   V2 = W^2 + c W',   c = hbar / sqrt(2m),
and the first-order operators
    A = c d/dx + W,    Adag = -c d/dx + W,
which factorize H1 = Adag A and H2 = A Adag. When SUSY is unbroken, H1 has the
zero mode exp(-(1/c) \\int W) and A / Adag map eigenstates between the partners.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .eigensolver import dirichlet_tridiagonal, lowest_eigenvalues
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
    """W(x) with units and asymptotics.

    w is a vectorized callable; w_prime is its analytic derivative when
    available (finite differences are used otherwise). domain is the open
    interval on which W is evaluable; half-lines use inf endpoints.
    w_minus / w_plus are the limits W(x -> -inf / +inf) when finite.
    """

    w: Callable[[np.ndarray], np.ndarray]
    domain: tuple[float, float] = (-math.inf, math.inf)
    w_prime: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hbar: float = 1.0
    mass2: float = 1.0  # 2m
    w_minus: Optional[float] = None
    w_plus: Optional[float] = None

    @property
    def c(self) -> float:
        """The derivative coefficient hbar / sqrt(2m)."""
        return self.hbar / math.sqrt(self.mass2)

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
