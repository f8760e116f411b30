"""Independent numerical oracle for bound states.

Discretizes -c^2 d^2/dx^2 + V on a uniform grid (c^2 = hbar^2/2m) with the
symmetric 3-point stencil, solves the tridiagonal eigenproblem, and sharpens
eigenvalues by Richardson extrapolation between the grid and its 2h coarsening.
dirichlet_tridiagonal is the one assembly of that stencil: the fine grid, the
coarse grid and the direct route of core.algebra_check all use it.
Dirichlet walls and the reduced radial problem are handled here; everything
downstream cross-checks against this. Band edges of periodic wells come from
the Fourier-Floquet-Hill solver in periodic.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .grids import Grid, SampledFunction, count_nodes, integrate, sample


class SolverError(ValueError):
    pass


@dataclass(frozen=True)
class EigenPair:
    energy: float
    psi: SampledFunction
    nodes: int
    bound: bool = True


def _c2(hbar: float, mass2: float) -> float:
    return hbar**2 / mass2


def dirichlet_tridiagonal(v: np.ndarray, h: float, c2: float) -> tuple[np.ndarray, np.ndarray]:
    """(diagonal, off-diagonal) of -c2 psi'' + V psi on the interior nodes of v.

    The symmetric 3-point stencil with psi = 0 on the two end nodes of the
    samples v, which are spaced h apart.
    """
    return 2.0 * c2 / h**2 + v[1:-1], np.full(v.size - 3, -c2 / h**2)


def lowest_eigenvalues(d: np.ndarray, e: np.ndarray, count: int) -> np.ndarray:
    """The lowest min(count, d.size) eigenvalues of the tridiagonal (d, e)."""
    from scipy.linalg import eigh_tridiagonal  # imported on use: keeps scipy off the CLI's start-up

    count = min(count, d.size)
    return eigh_tridiagonal(d, e, select="i", select_range=(0, count - 1), eigvals_only=True)


def bound_states(
    v: SampledFunction,
    count: int,
    hbar: float = 1.0,
    mass2: float = 1.0,
    richardson: bool = True,
    check_decay: bool = True,
) -> list[EigenPair]:
    """Lowest `count` Dirichlet eigenpairs of -c^2 psi'' + V psi = E psi.

    Eigenvectors come from the fine grid; energies are Richardson-extrapolated
    against the 2h coarsening when the point count allows it. States above the
    smaller of the two edge potential values are flagged as not bound.
    """
    from scipy.linalg import eigh_tridiagonal

    grid, vals = v.grid, v.values
    h = grid.h
    c2 = _c2(hbar, mass2)
    n_int = grid.n_points - 2
    if count > n_int:
        raise SolverError("more states requested than interior grid points")

    energies, vecs = eigh_tridiagonal(
        *dirichlet_tridiagonal(vals, h, c2), select="i", select_range=(0, count - 1)
    )

    if richardson and grid.n_points % 2 == 1 and grid.n_points >= 9:
        coarse = lowest_eigenvalues(*dirichlet_tridiagonal(vals[::2], 2 * h, c2), count)
        k = min(count, coarse.size)
        energies = energies.copy()
        energies[:k] = (4.0 * energies[:k] - coarse[:k]) / 3.0

    continuum_edge = min(vals[0], vals[-1])
    pairs = []
    for i in range(count):
        psi = np.zeros(grid.n_points)
        psi[1:-1] = vecs[:, i]
        norm = integrate(SampledFunction(grid, psi**2))
        psi /= math.sqrt(norm)
        if psi[np.argmax(np.abs(psi) > 0.5 * np.max(np.abs(psi)))] < 0:
            psi = -psi
        bound = energies[i] < continuum_edge
        if check_decay and bound:
            edge_amp = max(abs(psi[1]), abs(psi[-2]))
            if edge_amp > 1e-6 * np.max(np.abs(psi)):
                warnings.warn(
                    f"state {i} has edge amplitude {edge_amp:.2e}; widen the box",
                    stacklevel=2,
                )
        pairs.append(
            EigenPair(float(energies[i]), SampledFunction(grid, psi), count_nodes(psi[1:-1]), bound)
        )
    return pairs


def bound_states_of(
    v_callable,
    x_min: float,
    x_max: float,
    count: int,
    n_points: int = 4001,
    hbar: float = 1.0,
    mass2: float = 1.0,
    **kw,
) -> list[EigenPair]:
    """Convenience wrapper: sample a callable potential, then solve."""
    return bound_states(
        sample(v_callable, Grid(x_min, x_max, n_points)), count, hbar, mass2, **kw
    )


def radial_bound_states(
    v_radial,
    l: int,
    count: int,
    r_max: float,
    n_points: int = 4001,
    hbar: float = 1.0,
    mass2: float = 1.0,
) -> list[EigenPair]:
    """Reduced radial problem: effective potential V(r) + c^2 l(l+1)/r^2.

    Dirichlet wall exactly at r = 0 (correct for the reduced wave function,
    which vanishes as r^{l+1}); the singular node at the origin never enters
    the interior stencil and carries a sentinel value.
    """
    c2 = _c2(hbar, mass2)
    grid = Grid(0.0, r_max, n_points)
    r = grid.points.copy()
    r[0] = r[1]  # sentinel; the origin value is outside the Dirichlet stencil
    veff = np.asarray(v_radial(r), dtype=float) + c2 * l * (l + 1) / r**2
    return bound_states(
        SampledFunction(grid, veff), count, hbar, mass2, check_decay=False
    )
