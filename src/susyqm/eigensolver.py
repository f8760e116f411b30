"""Bound states of -psi'' + V psi = E psi from samples of V, and the level type.

bound_states solves potentials known only by their samples on a uniform grid:
the isospectral family members and the V1/V2 samples of check_degeneracy,
in units hbar = 2m = 1. It uses the symmetric 3-point stencil and sharpens
eigenvalues by Richardson extrapolation between the grid and its 2h
coarsening. The grids vals[::2**j] are solved coarse to fine: bisection on
the coarsest, then on each finer grid Rayleigh-quotient iteration from the
coarser grid's levels, one O(n) tridiagonal solve (LAPACK dgtsv) a step, and
a certificate that the refined levels are the lowest ones (distinct residual
intervals and a Sturm count). A grid that fails it is bisected instead,
and after a split below the residual intervals so is every finer grid.
dirichlet_tridiagonal is the one assembly of that stencil: every grid of the
cascade and the direct route of core.algebra_check use it. EigenPair is the
level type of every solver. A callable V, catalog wells and the well ladder
included, goes to the spectral engine in spectral; band edges of periodic
wells come from the Fourier-Floquet-Hill solver in periodic. The LAPACK
calls go through _lapack, imported on use, to numpy's bundled OpenBLAS, which
loads no scipy (to scipy.linalg.lapack where numpy bundles none). The norms
and dot products between LAPACK calls are np.einsum, not numpy's BLAS, whose
thread pool would otherwise hold the cores scipy's LAPACK waits for on that
fallback (see spectral).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .grids import Grid, SampledFunction, count_nodes, integrate, lobe_sign, sample


COARSEST_POINTS = 257  # bound_states' cascade coarsens to the first grid below this
_RQI_STEPS = 6  # Rayleigh-quotient steps a level may take before its grid is bisected


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


def dirichlet_tridiagonal(v: np.ndarray, h: float, c2: float) -> tuple[np.ndarray, np.ndarray]:
    """(diagonal, off-diagonal) of -c2 psi'' + V psi on the interior nodes of v.

    The symmetric 3-point stencil with psi = 0 on the two end nodes of the
    samples v, which are spaced h apart.
    """
    return 2.0 * c2 / h**2 + v[1:-1], np.full(v.size - 3, -c2 / h**2)


def lowest_eigenvalues(d: np.ndarray, e: np.ndarray, count: int) -> np.ndarray:
    """The lowest min(count, d.size) eigenvalues of the tridiagonal (d, e)."""
    from . import _lapack  # on use: a process that never solves does not compile it

    return _lapack.lowest(d, e, min(count, d.size))


def _strides(n_points: int) -> list[int]:
    """Strides s of the cascade grids vals[::s], finest first: the 2h and 4h
    grids while they keep 5 points (Richardson and its estimate read them),
    then coarser ones down to the first grid below COARSEST_POINTS points."""
    strides, intervals = [1], n_points - 1
    while intervals % (2 * strides[-1]) == 0 and intervals // (2 * strides[-1]) >= 4:
        if len(strides) >= 3 and intervals // strides[-1] + 1 < COARSEST_POINTS:
            break
        strides.append(2 * strides[-1])
    return strides


def _bisected(v: np.ndarray, h: float, count: int) -> tuple[np.ndarray, list]:
    """The lowest min(count, interior points) eigenpairs of the grid v by
    bisection, each vector on the whole grid with zero ends."""
    from . import _lapack

    d, e = dirichlet_tridiagonal(v, h, 1.0)
    energies, vecs = _lapack.lowest(d, e, min(count, d.size), vectors=True)
    return energies, list(np.pad(vecs.T, ((0, 0), (1, 1))))


def _prolonged(c: np.ndarray) -> np.ndarray:
    """A vector of the 2h grid, with zero ends, linearly interpolated onto the h grid."""
    f = np.empty(2 * c.size - 1)
    f[::2] = c
    np.add(c[:-1], c[1:], out=f[1::2])
    f[1::2] *= 0.5
    return f


def _rqi(v: np.ndarray, off: float, sigma: float, psi: np.ndarray, rounding: float):
    """Rayleigh-quotient iteration on the grid v's tridiagonal, T q = off (q[i-1]
    - 2 q[i] + q[i+1]) + v q with off = -1/h^2 (dirichlet_tridiagonal's
    stencil), from the shift sigma and the vector psi[1:-1], which ends as the
    unit eigenvector.

    (energy, residual |T q - E q|) once the residual is at most 4 * rounding,
    or at most rounding on the first step, whose shift is the coarser grid's
    O(h^2) energy; None if that takes more than _RQI_STEPS steps.
    """
    from . import _lapack

    q, vq = psi[1:-1], v[1:-1]
    # three buffers for dgtsv to overwrite, which then hold T q: a step allocates nothing
    lower, diag, upper = np.empty((3, q.size))
    for step in range(_RQI_STEPS):
        lower.fill(off)
        upper.fill(off)
        np.add(vq, -2.0 * off - sigma, out=diag)
        # one O(n) solve of (T - sigma) y = q, written over the buffers and q
        if _lapack.gtsv(lower[1:], diag, upper[:-1], q) != 0:
            return None
        norm = math.sqrt(np.einsum("i,i->", q, q))
        if not 0.0 < norm < math.inf:
            return None
        q /= norm
        tq = np.add(psi[:-2], psi[2:], out=diag)
        tq -= np.multiply(q, 2.0, out=lower)
        tq *= off
        tq += np.multiply(vq, q, out=lower)
        sigma = float(np.einsum("i,i->", q, tq))
        tq -= np.multiply(q, sigma, out=lower)
        residual = math.sqrt(np.einsum("i,i->", tq, tq))
        if residual <= (4.0 if step else 1.0) * rounding:
            return sigma, residual
    return None


def _count_at_or_below(v: np.ndarray, h: float, x: float) -> int:
    """How many eigenvalues of the grid v's tridiagonal are at or below x: a Sturm count."""
    from . import _lapack

    d, e = dirichlet_tridiagonal(v, h, 1.0)
    return _lapack.count_in(d, e, d.min() - 2.0 * abs(e[0]) - 1.0, x)  # from below every eigenvalue


def _refined(v: np.ndarray, h: float, energies: np.ndarray, vectors: list):
    """The lowest len(energies) eigenpairs of the grid v by RQI from those of
    the 2h grid, whose vectors it pops; None unless certified, and False
    where two distinct levels fail on their residual intervals alone.

    The certificate: the intervals E_i -+ r_i (r_i the residual plus one
    rounding) are disjoint, so they hold k distinct eigenvalues, and a Sturm
    count finds exactly k eigenvalues at or below the top interval, so they
    are the lowest k. The top level goes first: the count needs its energy,
    and its workspace then shares memory with one vector of this grid only.
    """
    off = -1.0 / h**2
    norm = float(np.abs(v[1:-1]).max()) + 4.0 * abs(off)  # |T| bound
    rounding = 4.0 * np.finfo(float).eps * norm  # of a residual or a Sturm count
    k = len(energies)
    levels, psis = [None] * k, [None] * k
    for i in reversed(range(k)):
        psis[i] = _prolonged(vectors.pop())
        levels[i] = _rqi(v, off, float(energies[i]), psis[i], rounding)
        if levels[i] is None:
            return None
        if i == k - 1 and _count_at_or_below(v, h, levels[i][0] + levels[i][1] + 2.0 * rounding) != k:
            return None
    energies, residuals = map(np.array, zip(*levels))
    radii = residuals + rounding
    close = np.flatnonzero(np.diff(energies) <= radii[:-1] + radii[1:])
    if close.size:
        # parallel vectors are two levels on one eigenvalue, a level the
        # coarser grid missed; else a split below the intervals (False), which
        # stays below them on every finer grid
        return None if any(abs(np.einsum("i,i->", psis[i], psis[i + 1])) > 0.5 for i in close) else False
    return energies, psis


def _cascade(vals: np.ndarray, h: float, count: int) -> tuple[list, list]:
    """The lowest levels of each grid vals[::s], s in _strides, solved coarse
    to fine: their energies, finest grid first, and the finest grid's vectors.

    Once two distinct levels of a grid fail on their residual intervals
    (False from _refined), that grid and every finer one are bisected at
    once, with no more RQI: a split below the intervals of one grid stays
    below those of the next, whose |T| is four times larger. Of those grids
    only the finest needs its vectors; the others give Richardson their
    eigenvalues."""
    solved, level = [], None
    for s in reversed(_strides(vals.size)):
        grid = vals[::s], s * h
        if level and len(level[0]) == count:
            level = _refined(*grid, *level)
        if level is False and s > 1:  # the intervals failed on this grid or a coarser one
            solved.insert(0, lowest_eigenvalues(*dirichlet_tridiagonal(*grid, 1.0), count))
            continue
        if not level or len(level[0]) < count:
            level = _bisected(*grid, count)
        solved.insert(0, level[0])
        if s > 1:  # these vectors only start RQI on the next grid: single precision halves them
            level = (level[0], [psi.astype(np.float32) for psi in level[1]])
    return solved, level[1]


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

    The grids vals[::2**j] are solved coarse to fine, down to the first grid
    below COARSEST_POINTS points, or the coarsest one the point count allows
    (the 4h grid at least when there is one). That grid is bisected. Every
    finer grid refines each level by Rayleigh-quotient iteration from the
    coarser grid's energy and its linearly prolonged vector, one O(n)
    tridiagonal solve a step, and is certified: the levels' residual
    intervals are disjoint and a Sturm count finds no other eigenvalue at or
    below the top one. A grid is bisected instead, and the cascade goes on
    from it, when that fails (RQI that does not settle in _RQI_STEPS steps,
    two levels on one eigenvalue, a level the coarser grid missed) or when
    the coarser grid has fewer interior points than `count`. Two distinct
    levels closer than their residual intervals stay so on every finer grid,
    whose |T| is four times larger: from the grid where that happens on,
    every grid is bisected at once, for its eigenvalues only but on the
    finest. Either way each grid's energies agree with its bisection to a
    few eps * |T|.
    """
    grid, vals = v.grid, v.values
    h = grid.h
    if count < 1:
        raise SolverError(f"count must be at least 1, got {count}")
    if count > grid.n_points - 2:
        raise SolverError("more states requested than interior grid points")

    solved, psis = _cascade(vals, h, count)
    energies = solved[0]
    errors = np.full(count, math.nan)

    if len(solved) > 1:
        coarse = solved[1]
        k = coarse.size
        energies[:k] = (4.0 * energies[:k] - coarse) / 3.0
        if len(solved) > 2:
            coarser = solved[2]
            j = coarser.size
            errors[:j] = np.abs(energies[:j] - (4.0 * coarse[:j] - coarser) / 3.0)

    pairs = []
    for i, psi in enumerate(psis):
        psi /= math.sqrt(integrate(SampledFunction(grid, psi**2)))
        psi *= lobe_sign(psi)
        bound = energies[i] < min(vals[0], vals[-1])
        if check_decay and bound:
            edge_amp = np.abs(psi[[1, -2]]).max()
            if edge_amp > 1e-6 * np.max(np.abs(psi)):
                warnings.warn(
                    f"state {i} has edge amplitude {edge_amp:.2e}; widen the box",
                    stacklevel=2
                )
        pairs.append(
            EigenPair(
                float(energies[i]),
                SampledFunction(grid, psi),
                count_nodes(psi[1:-1]),
                bound,
                float(errors[i])
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
