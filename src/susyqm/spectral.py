"""Spectral bound-state engine for a callable V: -psi'' + V psi = E psi.

Units are the catalog's, hbar = 2m = 1. Two bases, chosen by where the walls
are:

- the sine DVR (Colbert & Miller, J. Chem. Phys. 96 (1992) 1982, App. A) on a
  finite box, with Dirichlet walls exactly at the box ends, for wells with no
  wall;
- the regularized Lagrange-Laguerre mesh (Baye, Phys. Rep. 565 (2015) 1) on
  [lo, inf), for wells with a wall only at lo. Its functions go as
  (r - lo)^s at the wall, with s read off V there, and its scale is one of a
  fixed set of fractions of the box length.

V is evaluated only at the mesh nodes. N doubles until the lowest levels move
by less than SPECTRAL_TOL between N/2 and N (the Laguerre scale is picked from
the same agreement), and that change is each level's error estimate. psi on a
uniform grid is built only when first read. The module is imported on first
use, so the commands that never solve a callable V do not load it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

import numpy as np
from scipy.linalg import eigh, eigh_tridiagonal

from .eigensolver import EigenPair, SolverError, _flip_sign
from .grids import Grid, SampledFunction, count_nodes

SPECTRAL_TOL = 1e-10  # level change between N/2 and N, relative to max(1, |E|)
SPECTRAL_CAP = 1024  # largest basis size N
_N_START = 16
# mesh scale = box length / s. Over the 480 half-line draws of perfbench's
# spectra_grid, seeds 1-30, a scale of 1/320 won 7 and 1/640 none; without
# them every draw still converges, 6 of them at the next N.
LAGUERRE_SCALES = (40, 80, 160)
_CHUNK = 1 << 18  # matrix entries per chunk when a Laguerre psi is built


def _eigh_lowest(h: np.ndarray, count: int):
    """Lowest `count` eigenpairs of the dense symmetric matrix h (overwritten)."""
    # h.T is h in Fortran order, so LAPACK works in place instead of on a copy
    return eigh(h.T, subset_by_index=(0, count - 1), overwrite_a=True, check_finite=False)


@dataclass(frozen=True)
class _Levels:
    """The lowest levels in one basis: energies and coefficients, psi at the
    nodes, the continuum edge, and which levels the basis resolves at all."""

    energies: np.ndarray
    coef: np.ndarray  # (N, count), orthonormal columns
    values: np.ndarray  # psi at the nodes, (N, count)
    edge: float  # V at the outermost node(s) next to an end without a wall
    physical: np.ndarray  # levels that must converge
    psi: Callable  # (coef column, grid) -> psi on the grid


def _potential_at(v, x: np.ndarray) -> np.ndarray:
    # an overflow inside V (1/sinh of a far node is 1/inf = 0) is harmless; a
    # non-finite V is caught below
    with np.errstate(over="ignore"):
        vx = np.broadcast_to(np.asarray(v(x), dtype=float), x.shape)
    bad = ~np.isfinite(vx)
    if bad.any():
        raise SolverError(f"V is not finite at the mesh node x = {x[bad][0]:.6g}")
    return vx


def _toeplitz_plus_hankel(t: np.ndarray, hk: np.ndarray, size: int) -> np.ndarray:
    """M_ij = t[size - 1 + j - i] + hk[i + j] for i, j = 0..size-1 (a new array)."""
    windows = np.lib.stride_tricks.sliding_window_view
    return windows(t, size)[::-1] + windows(hk, size)


def _dst1(y: np.ndarray) -> np.ndarray:
    """sum_j y_j sin(pi j k / (n + 1)) for j, k = 1..n (DST-I), through one real FFT."""
    n = y.size
    z = np.zeros(2 * (n + 1))
    z[1 : n + 1] = y
    z[n + 2 :] = -y[::-1]
    return -0.5 * np.fft.rfft(z)[1 : n + 1].imag


class _SineDVR:
    """psi = sum_k a_k sqrt(2/L) sin(k pi (x - lo)/L), k = 1..N, collocated at
    the N interior points x_i = lo + i L/(N+1); psi = 0 at lo and hi."""

    def __init__(self, lo: float, hi: float):
        self.lo, self.length = lo, hi - lo

    def levels(self, v, n: int, count: int) -> list[_Levels]:
        m = n + 1
        # nodes placed as mirror images about the centre, so an even V is seen as even
        x = (self.lo + 0.5 * self.length) + 0.5 * self.length * (np.arange(2 - m, m, 2) / m)
        vx = _potential_at(v, x)
        # T_ij = p(|i-j|) - p(i+j+2) for i, j = 0..n-1, with
        # p(k) = (-1)^k / sin^2(pi k / 2m), p(0) = (2m^2+1)/3, in units of (pi/L)^2/2
        k = np.arange(2 * m)
        with np.errstate(divide="ignore"):
            p = np.where(k % 2, -1.0, 1.0) / np.sin(np.pi * k / (2 * m)) ** 2
        p[0] = (2.0 * m * m + 1.0) / 3.0
        unit = 0.5 * (math.pi / self.length) ** 2
        if not np.array_equal(vx, vx[::-1]):
            d = np.arange(1 - n, n)
            h = _toeplitz_plus_hankel(p[np.abs(d)], -p[2 : 2 * n + 1], n)
            h *= unit
            h[np.diag_indices(n)] += vx
            energies, coef = _eigh_lowest(h, count)
        else:
            # H commutes with the reflection J: the even states [u; Ju] and the
            # odd states [u; -Ju] come from the blocks A +- B of half the size,
            # B_ij = T(i, n-1-j), assembled without the full matrix (n is a
            # power of two, so even)
            half = n // 2
            d, j = np.arange(1 - half, half), np.arange(n - 1)
            energies, coef = [], []
            for s in (1.0, -1.0):
                block = _toeplitz_plus_hankel(
                    p[np.abs(d)] - s * p[n + 1 - d], s * p[n - 1 - j] - p[j + 2], half
                )
                block *= unit
                block[np.diag_indices(half)] += vx[:half]
                e, u = _eigh_lowest(block, min(count, half))
                energies.append(e)
                coef.append(np.vstack((u, s * u[::-1])) / math.sqrt(2.0))
            energies, coef = np.concatenate(energies), np.hstack(coef)
            order = np.argsort(energies, kind="stable")[:count]
            energies, coef = energies[order], coef[:, order]
        return [
            _Levels(
                energies,
                coef,
                coef * math.sqrt(m / self.length),
                float(min(vx[0], vx[-1])),
                np.ones(count, dtype=bool),
                self.psi,
            )
        ]

    def psi(self, coef: np.ndarray, grid: Grid) -> np.ndarray:
        """Exact psi on the grid: sine amplitudes a = U coef, then a zero-padded
        DST-I on a grid with at least N+1 intervals, sampled every q-th point."""
        n = coef.size
        amp = math.sqrt(2.0 / (n + 1)) * _dst1(coef)
        intervals = grid.n_points - 1
        q = -(-(n + 1) // intervals)
        padded = np.zeros(q * intervals - 1)
        padded[:n] = amp
        out = np.zeros(grid.n_points)
        out[1:-1] = math.sqrt(2.0 / self.length) * _dst1(padded)[q - 1 :: q]
        return out


def _laguerre_functions(n: int, alpha: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """u_k(x) = x^(1+alpha/2) e^(-x/2) p_k(x) for k = n and n - 1, where p_k are the
    orthonormal Laguerre polynomials of weight x^alpha e^-x, by their three-term
    recurrence with the exponential spread over the n steps so nothing overflows."""
    s = np.exp(-x / (2 * n))
    prev = np.zeros_like(x)
    cur = x ** (1.0 + 0.5 * alpha) * math.exp(-0.5 * math.lgamma(alpha + 1.0))
    for k in range(n):
        b_next = math.sqrt((k + 1) * (k + 1 + alpha))
        b_k = math.sqrt(k * (k + alpha))
        prev, cur = cur, s * ((2 * k + 1 + alpha - x) * cur - b_k * s * prev) / b_next
    return cur, s * prev


@lru_cache(maxsize=32)
def _laguerre_nodes(n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Zeros x_i of L_n^alpha and the factors q_i that give psi at the nodes.

    The zeros are the eigenvalues of the Jacobi matrix, polished by one Newton
    step. The regularized Lagrange function of node i is
        f_i(x) = sign(q_i) u_n(x) / (sqrt(x_i) (x_i - x)),
    which goes as x^(1+alpha/2) at the origin and has f_i(x_j) = |q_i| delta_ij,
    with q_i = sqrt(n (n + alpha)) u_(n-1)(x_i) / x_i^(3/2).
    """
    k = np.arange(n, dtype=float)
    x = eigh_tridiagonal(2.0 * k + 1.0 + alpha, np.sqrt(k[1:] * (k[1:] + alpha)), eigvals_only=True)
    bn = math.sqrt(n * (n + alpha))
    un, un1 = _laguerre_functions(n, alpha, x)
    x = x - x * un / (n * un - bn * un1)
    q = bn * _laguerre_functions(n, alpha, x)[1] / x**1.5
    x.flags.writeable = q.flags.writeable = False
    return x, q


def _wall_exponent(v, lo: float, length: float) -> float:
    """alpha = sqrt(1 + 4g) - 1 for V ~ g / (r - lo)^2 at the wall, so psi ~ (r - lo)^(1+alpha/2).

    g is (r - lo)^2 V extrapolated to the wall by the cubic through
    r - lo = rho, 2 rho, 4 rho, 8 rho, which leaves O(rho^4) of a V that goes as
    g/r^2 + c/r + d + .... rho is 1e-5 of the box length, but at least 100
    times the step 1e-6 max(1, |r|) with which core differentiates a W that
    has no w_prime, so a V1 built that way neither samples W beyond the wall
    nor carries more than a few 1e-8 of relative error there. A V that stays
    finite at the wall gives g = 0.
    """
    rho = max(1e-5 * length, 1e-4 * max(1.0, abs(lo))) * np.array([1.0, 2.0, 4.0, 8.0])
    with np.errstate(over="ignore", invalid="ignore"):
        f = rho**2 * np.asarray(v(lo + rho), dtype=float)
    if not np.all(np.isfinite(f)):
        raise SolverError(f"V is not finite next to the wall, at r - lo = {rho[0]:.6g}")
    g = float(np.dot([64.0, -56.0, 14.0, -1.0], f)) / 21.0  # the cubic's value at r = lo
    if not g > -0.25:
        raise SolverError(f"V ~ {g:.6g} / r^2 at the wall: no ground state below -1/(4 r^2)")
    return math.sqrt(1.0 + 4.0 * g) - 1.0


class _LaguerreMesh:
    """Regularized Lagrange-Laguerre mesh r_i = lo + h x_i on [lo, inf), psi ~
    (r - lo)^(1+alpha/2) at the wall, one candidate per scale h = (hi - lo) / s
    for s in LAGUERRE_SCALES."""

    def __init__(self, v, lo: float, hi: float):
        self.lo, self.scales = lo, [(hi - lo) / s for s in LAGUERRE_SCALES]
        self.alpha = _wall_exponent(v, lo, hi - lo)

    def levels(self, v, n: int, count: int) -> list[_Levels]:
        x, q = _laguerre_nodes(n, self.alpha)
        # kinetic matrix of -d^2/dx^2 in the Gauss approximation (Baye 2015)
        sign = np.sign(q)
        xi, xj = x[:, None], x[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = sign[:, None] * sign * (xi + xj) / (np.sqrt(xi * xj) * (xi - xj) ** 2)
        a = self.alpha
        t[np.diag_indices(n)] = ((4 * n + 2 * a + 2) * x + 4.0 - a * a - x * x) / (12.0 * x * x)
        out = []
        for h in self.scales:
            vx = _potential_at(v, self.lo + h * x)
            mat = t / h**2
            mat[np.diag_indices(n)] += vx
            energies, coef = _eigh_lowest(mat, count)
            edge = float(vx[-1])
            out.append(
                _Levels(
                    energies,
                    coef,
                    coef * (np.abs(q) / math.sqrt(h))[:, None],
                    edge,
                    energies < edge,
                    partial(self.psi, h),
                )
            )
        return out

    def psi(self, h: float, coef: np.ndarray, grid: Grid) -> np.ndarray:
        """psi = sum_i coef_i f_i((r - lo)/h) / sqrt(h) on the grid, in chunks of rows."""
        n = coef.size
        xn, q = _laguerre_nodes(n, self.alpha)
        x = (grid.points - self.lo) / h
        un, _ = _laguerre_functions(n, self.alpha, x)
        w = coef * np.sign(q) / np.sqrt(xn)
        out = np.empty_like(x)
        rows = max(1, _CHUNK // n)
        with np.errstate(divide="ignore", invalid="ignore"):
            for i in range(0, x.size, rows):
                xc = x[i : i + rows]
                out[i : i + rows] = un[i : i + rows] * (w / (xn - xc[:, None])).sum(axis=1)
        hit = ~np.isfinite(out)  # a grid point on a node
        out[hit] = [coef[j] * abs(q[j]) for j in np.argmin(np.abs(x[hit, None] - xn), axis=1)]
        return out / math.sqrt(h)


def _change(a: _Levels, b: _Levels) -> np.ndarray:
    return np.abs(b.energies - a.energies) / np.maximum(1.0, np.abs(b.energies))


def _score(a: _Levels, b: _Levels) -> tuple:
    """Most levels resolved at both sizes first, then the smallest relative change."""
    both = a.physical & b.physical
    return (-int(both.sum()), float(np.max(_change(a, b)[both], initial=0.0)))


def spectral_bound_states(
    v,
    interval: tuple[float, float],
    count: int,
    half_line: bool = False,
    n_points: int = 4001,
) -> list[EigenPair]:
    """Lowest `count` eigenpairs of -psi'' + V psi = E psi by a spectral basis.

    half_line=False: sine DVR with Dirichlet walls at both ends of interval.
    half_line=True: Lagrange-Laguerre mesh on [interval[0], inf); the interval
    length sets the candidate scales. N doubles from 16 (or the first power of
    two >= count) until every level the basis resolves moves by at most
    SPECTRAL_TOL * max(1, |E|) between N/2 and N; at SPECTRAL_CAP it stops with
    a warning. Levels above V at the outermost node next to an open end are
    flagged as not bound; on the half line they are not required to converge.
    A bound state of the box still above 1e-6 of its peak at a node next to a
    wall gets a warning. psi is returned on Grid(*interval, n_points), built
    when first read.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if count < 1:
        raise SolverError(f"count must be at least 1, got {count}")
    n = _N_START
    while n < count:
        n *= 2
    if 2 * n > SPECTRAL_CAP:
        raise SolverError(f"{count} states need a basis above the cap N = {SPECTRAL_CAP}")
    basis = _LaguerreMesh(v, lo, hi) if half_line else _SineDVR(lo, hi)
    prev = basis.levels(v, n, count)
    while True:
        n *= 2
        cur = basis.levels(v, n, count)
        scores = [_score(a, b) for a, b in zip(prev, cur)]
        best = min(range(len(cur)), key=scores.__getitem__)
        worst = scores[best][1]
        if worst <= SPECTRAL_TOL or 2 * n > SPECTRAL_CAP:
            break
        prev = cur
    if worst > SPECTRAL_TOL:
        warnings.warn(
            f"levels still move by {worst:.2e} between N = {n // 2} and N = {n}",
            stacklevel=2,
        )
    lv, change = cur[best], _change(prev[best], cur[best])
    grid = Grid(lo, hi, n_points)
    pairs = []
    for i in range(count):
        sign = _flip_sign(lv.values[:, i])
        values = sign * lv.values[:, i]
        bound = bool(lv.energies[i] < lv.edge)
        if bound and not half_line:
            edge_amp = max(abs(values[0]), abs(values[-1]))
            if edge_amp > 1e-6 * np.max(np.abs(values)):
                warnings.warn(
                    f"state {i} has edge amplitude {edge_amp:.2e}; widen the box", stacklevel=2
                )

        def build(coef=sign * lv.coef[:, i], psi=lv.psi):
            return SampledFunction(grid, psi(coef, grid))

        pairs.append(
            EigenPair(
                float(lv.energies[i]),
                build,
                count_nodes(values),
                bound,
                float(change[i] * max(1.0, abs(lv.energies[i]))),
            )
        )
    return pairs
