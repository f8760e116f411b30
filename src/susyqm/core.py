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
from enum import Enum
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


class GroundStateSide(Enum):
    V1 = "V1"
    V2 = "V2"
    NEITHER = "neither"


@dataclass(frozen=True)
class SusyStatus:
    broken: bool
    ground_state_side: GroundStateSide
    norm_of_candidate: float


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


def w_from_ground_state(
    psi0: SampledFunction, hbar: float = 1.0, mass2: float = 1.0
) -> Superpotential:
    """Recover W = -c psi0'/psi0 from a nodeless ground state."""
    interior = psi0.values[1:-1]
    if np.any(interior <= 0):
        raise SusyError("ground state must be strictly positive in the interior")
    c = hbar / math.sqrt(mass2)
    dpsi = derivative(psi0).values
    wvals = -c * dpsi / np.maximum(psi0.values, 1e-300)
    x = psi0.x

    def w_interp(xq):
        return np.interp(xq, x, wvals)

    return Superpotential(
        w=w_interp,
        domain=(psi0.grid.x_min, psi0.grid.x_max),
        hbar=hbar,
        mass2=mass2,
    )


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


def map_from_partner(
    w: Superpotential, psi: SampledFunction, energy: float
) -> SampledFunction:
    """E^{-1/2} Adag psi: inverse mapping, back to the V1 side."""
    if energy <= 0:
        raise SusyError("partner mapping needs strictly positive energy")
    return apply_Adag(w, psi).map(lambda v: v / math.sqrt(energy))


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


# ---------------------------------------------------------------------------
# SUSY breaking detection
# ---------------------------------------------------------------------------


def detect_breaking(w: Superpotential) -> SusyStatus:
    """Classify SUSY as unbroken/broken from zero-mode normalizability.

    Both candidates exp(-+ (1/c) int W) are integrated on the windows of
    half-width 4, 8, ..., 64 (clipped to the domain) at 200 points per unit;
    a candidate is normalizable when the last doubling moves its norm by at
    most 1e-8 relative. Exactly one convergent candidate means unbroken SUSY.
    """
    lo, hi = w.domain
    norms = {+1: [], -1: []}
    edge_ratio = {+1: math.inf, -1: math.inf}
    for k in range(5):
        half = 4.0 * 2**k
        a = max(lo + 1e-9 * max(1.0, abs(lo)) if np.isfinite(lo) else -half, -half)
        b = min(hi - 1e-9 * max(1.0, abs(hi)) if np.isfinite(hi) else half, half)
        if b <= a:
            raise SusyError("degenerate window while scanning normalizability")
        n_pts = max(501, int(200 * (b - a)) | 1)
        grid = Grid(a, b, n_pts)
        wvals = sample(w.w, grid)
        exponent = cumulative_integral(wvals).values / w.c
        for sign in (+1, -1):
            e = -sign * exponent
            e = e - e.max()
            psi2 = np.exp(2.0 * e)
            norms[sign].append(integrate(SampledFunction(grid, psi2)))
            edge_ratio[sign] = max(psi2[0], psi2[-1])
        # norms are relative (max of psi fixed to 1), so a diverging candidate
        # still shows a finite integral; normalizability additionally demands
        # that the candidate decays at the window edges instead of peaking there.

    def converged(seq):
        a, b = seq[-2], seq[-1]
        return np.isfinite(b) and abs(b - a) <= 1e-8 * max(abs(b), 1e-300)

    def normalizable(sign):
        return converged(norms[sign]) and edge_ratio[sign] < 1e-6

    conv_plus = normalizable(+1)   # exp(-int W): the V1-side candidate
    conv_minus = normalizable(-1)  # exp(+int W): the V2-side candidate
    if conv_plus and not conv_minus:
        return SusyStatus(False, GroundStateSide.V1, norms[+1][-1])
    if conv_minus and not conv_plus:
        return SusyStatus(False, GroundStateSide.V2, norms[-1][-1])
    if not conv_plus and not conv_minus:
        return SusyStatus(True, GroundStateSide.NEITHER, math.inf)
    raise SusyError(
        "both zero-mode candidates appear normalizable; "
        "this cannot happen for a genuine superpotential - check the inputs"
    )
