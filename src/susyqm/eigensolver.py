"""Bound states of -psi'' + V psi = E psi from samples of V, and the level type.

bound_states solves potentials known only by their samples on a uniform grid:
the isospectral family members and the V1/V2 samples of check_degeneracy,
in units hbar = 2m = 1. It uses the symmetric 3-point stencil and sharpens
eigenvalues by Richardson extrapolation between the grid and its 2h
coarsening. dirichlet_tridiagonal is the one assembly of that stencil: the
fine grid, the coarse grid and the direct route of core.algebra_check all use
it. EigenPair is the level type of every solver. A callable V, catalog wells
and the well ladder included, goes to the spectral engine in spectral; band
edges of periodic wells come from the Fourier-Floquet-Hill solver in periodic.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .grids import Grid, SampledFunction, count_nodes, integrate, sample


class SolverError(ValueError):
    pass


@dataclass(frozen=True)
class EigenPair:
    """One level. The second field is psi itself or a zero-argument callable
    that builds it on first read of .psi. error_estimate is how far the energy
    moved when the solver last doubled its resolution (N/2 to N basis
    functions, or the extrapolated level from 2h to h): the error of the
    coarser solve, so an estimate of this level's error that no doubling of
    the resolution can make see a box too small for the state. NaN when the
    solver has none."""

    energy: float
    _psi: Union[SampledFunction, Callable[[], SampledFunction]] = field(repr=False)
    nodes: int
    bound: bool = True
    error_estimate: float = math.nan

    @property
    def psi(self) -> SampledFunction:
        if callable(self._psi):
            object.__setattr__(self, "_psi", self._psi())
        return self._psi


def _flip_sign(values: np.ndarray) -> float:
    """-1 if the first lobe above half the peak is negative, else +1."""
    mag = np.abs(values)
    return -1.0 if values[np.argmax(mag > 0.5 * np.max(mag))] < 0 else 1.0


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


def bound_states(v: SampledFunction, count: int, check_decay: bool = True) -> list[EigenPair]:
    """Lowest `count` Dirichlet eigenpairs of -psi'' + V psi = E psi.

    Eigenvectors come from the fine grid; energies are Richardson-extrapolated
    against the 2h coarsening when the point count allows it. Each level's
    error estimate is the change of its extrapolated energy from the 2h grid
    to this one, |R(h) - R(2h)|, which takes one more solve on the 4h grid
    (NaN when n_points - 1 is not a multiple of 4). It is the error of R(2h),
    so an upper bound of the error of R(h) while the O(h^4) regime holds.
    States above the smaller of the two edge potential values are flagged as
    not bound.
    """
    from scipy.linalg import eigh_tridiagonal

    grid, vals = v.grid, v.values
    h = grid.h
    n_int = grid.n_points - 2
    if count > n_int:
        raise SolverError("more states requested than interior grid points")

    energies, vecs = eigh_tridiagonal(
        *dirichlet_tridiagonal(vals, h, 1.0), select="i", select_range=(0, count - 1)
    )
    errors = np.full(count, math.nan)

    if grid.n_points % 2 == 1 and grid.n_points >= 9:
        coarse = lowest_eigenvalues(*dirichlet_tridiagonal(vals[::2], 2 * h, 1.0), count)
        k = coarse.size
        energies = energies.copy()
        energies[:k] = (4.0 * energies[:k] - coarse) / 3.0
        if grid.n_points % 4 == 1 and grid.n_points >= 17:
            coarser = lowest_eigenvalues(*dirichlet_tridiagonal(vals[::4], 4 * h, 1.0), count)
            j = coarser.size
            errors[:j] = np.abs(energies[:j] - (4.0 * coarse[:j] - coarser) / 3.0)

    continuum_edge = min(vals[0], vals[-1])
    pairs = []
    for i in range(count):
        psi = np.zeros(grid.n_points)
        psi[1:-1] = vecs[:, i]
        norm = integrate(SampledFunction(grid, psi**2))
        psi /= math.sqrt(norm)
        psi *= _flip_sign(psi)
        bound = energies[i] < continuum_edge
        if check_decay and bound:
            edge_amp = max(abs(psi[1]), abs(psi[-2]))
            if edge_amp > 1e-6 * np.max(np.abs(psi)):
                warnings.warn(
                    f"state {i} has edge amplitude {edge_amp:.2e}; widen the box",
                    stacklevel=2,
                )
        pairs.append(
            EigenPair(
                float(energies[i]),
                SampledFunction(grid, psi),
                count_nodes(psi[1:-1]),
                bound,
                float(errors[i]),
            )
        )
    return pairs


def bound_states_of(
    v_callable,
    x_min: float,
    x_max: float,
    count: int,
    n_points: int = 4001,
    check_decay: bool = True,
) -> list[EigenPair]:
    """Convenience wrapper: sample a callable potential, then solve."""
    return bound_states(sample(v_callable, Grid(x_min, x_max, n_points)), count, check_decay)
