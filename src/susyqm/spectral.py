"""Spectral bound-state engine for a callable V: -psi'' + V psi = E psi.

Units are the catalog's, hbar = 2m = 1. Three bases, chosen by where the walls
are:

- for wells with no wall, the sine DVR (Colbert & Miller, J. Chem. Phys. 96
  (1992) 1982, App. A) on the sinh map x = x_c + a sinh(s/a), uniform in s
  (Kokoouline et al., J. Chem. Phys. 110 (1999) 9865): x_c sits at V's
  minimum, or at the interval's centre where V is mirror-symmetric, and a is
  twice the oscillator length (2/V'')^(1/4) of the well, a = inf (the
  uniform grid) for a flat V. At an open end (the domain goes on) the nodes
  reach 3000 from x_c, so that no box cuts a weakly bound level off; at a
  closed end psi = 0 at the interval's end;
- a Lagrange-Laguerre mesh on the half line from the one wall, whose scale is
  one of a fixed set of fractions of the box length;
- a Lagrange-Jacobi mesh on [lo, hi] for wells with a wall at both ends.

The two wall meshes are one assembly (_WallMesh) in ground-state form: psi =
Phi p with Phi ~ d^s at each wall, p a polynomial at Gauss nodes, and the
kinetic matrix from the nodes alone. s comes with the call (a catalog entry
reads it off W, which picks the self-adjoint extension) or is read off V.

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
from functools import partial
from typing import Callable

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dsyevr

from .eigensolver import EigenPair, SolverError, _flip_sign
from .grids import Grid, SampledFunction, count_nodes
from .special import jacobi_recurrence

SPECTRAL_TOL = 1e-10  # level change between N/2 and N, relative to max(1, |E|)
SPECTRAL_CAP = 1024  # largest basis size N
ROUNDING_FLOOR = 1e-8  # below this, a level change that grows at the next doubling stops N
_N_START = 16
# mesh scale = box length / s. Over the 480 half-line draws of perfbench's
# spectra_grid, seeds 1-30, a scale of 1/320 won 7 and 1/640 none; without
# them every draw still converges, 6 of them at the next N.
LAGUERRE_SCALES = (40, 80, 160)
_CHUNK = 1 << 16  # matrix entries per chunk when psi is built
_SAMPLES = 1024  # V sampled at 2 _SAMPLES + 1 points of the interval to place the sinh map
_REACH = 3000.0  # an open end's nodes reach this far from x_c ...
_REACH_V = 1e6  # ... where V there is finite and at most this


def _eigh_lowest(h: np.ndarray, count: int):
    """Lowest `count` eigenpairs of the dense symmetric matrix h (overwritten).

    LAPACK's dsyevr finds a subset by bisection on the tridiagonal form, to
    eps ||H|| by default. abstol = the smallest normal number asks for each
    eigenvalue to full relative accuracy instead, at no visible cost: on the
    wall meshes H is graded, with entries ~N^4 next to a wall, and on the
    well ladder at N = 128 the default loses 2e-10 where this keeps 6e-13.
    """
    # h.T is h in Fortran order, so LAPACK works in place instead of on a copy
    w, z, _, _, info = dsyevr(h.T, range="I", il=1, iu=count, abstol=np.finfo(float).tiny, overwrite_a=1)
    if info:
        raise SolverError(f"LAPACK dsyevr failed with info = {info}")
    return w[:count], z[:, :count]


@dataclass(frozen=True)
class _Levels:
    """The lowest levels in one basis: energies and coefficients, psi at the
    nodes, and the continuum edge: the levels below it are bound and must
    converge, the others are discretized continuum."""

    energies: np.ndarray
    coef: np.ndarray  # (N, count), orthonormal columns
    values: np.ndarray  # psi at the nodes, (N, count)
    edge: float  # V at the outermost node next to an open end (inf if none); levels below it must converge
    psi: Callable  # (coef column, grid) -> psi on the grid


def _values(v, x: np.ndarray) -> np.ndarray:
    # V at x with its floating-point warnings silenced: an overflow (1/sinh of a
    # far node is 1/inf = 0) is harmless, and a non-finite V is the caller's to judge
    with np.errstate(all="ignore"):
        return np.broadcast_to(np.asarray(v(x), dtype=float), x.shape)


def _potential_at(v, x: np.ndarray) -> np.ndarray:
    vx = _values(v, x)
    bad = ~np.isfinite(vx)
    if bad.any():
        raise SolverError(f"V is not finite at the mesh node x = {x[bad][0]:.6g}")
    return vx


def _by_rows(fn, y: np.ndarray, n: int) -> np.ndarray:
    """fn over y in chunks of rows, fn(chunk) summing an (rows, n) array over
    its columns, so that no chunk holds more than _CHUNK entries."""
    rows = max(1, _CHUNK // n)
    return np.concatenate([fn(y[i : i + rows]) for i in range(0, y.size, rows)])


class _SineDVR:
    """Sine DVR (Colbert & Miller, J. Chem. Phys. 96 (1992) 1982, App. A) in s
    on the sinh map x = x_c + a sinh(s/a) (Kokoouline et al., J. Chem. Phys.
    110 (1999) 9865; Tiesinga, Williams & Julienne, Phys. Rev. A 57 (1998)
    4257). phi = sum_k b_k sqrt(2/L) sin(k pi (s - s_lo)/L), k = 1..N, is
    collocated at the N interior points s_i = s_lo + i L/(N+1), L = s_hi -
    s_lo, with phi = 0 at both ends, and psi = phi / sqrt(g) with g = dx/ds =
    cosh(s/a), so that int psi^2 dx = int phi^2 ds. With f = 1/g^2 =
    sech^2(s/a) and T the sine DVR's -d^2/ds^2 matrix,
        H = -d/ds f d/ds + V + (2 g g'' - 5 g'^2)/(4 g^4)
          = (F T + T F)/2 + diag(V + f''/2 + (2 g g'' - 5 g'^2)/(4 g^4)),
    and for the sinh map the two terms after V add up to (5 f - 7 f^2)/(4 a^2).

    V sampled at 2 _SAMPLES + 1 points of the interval places the map: x_c is
    the interval's centre where the samples are mirror-symmetric (so an even
    V keeps the parity blocks), else their minimum, and a = 2 (2/V'')^(1/4),
    twice the oscillator length of V's curvature at that minimum (psi_0 ~
    exp(-x^2 / 2 l^2) with l = (2/V'')^(1/4)), or a = inf, the uniform grid
    x = x_c + s, where V'' <= 0 there, as for a flat V. On the 160
    whole-line catalog draws of perfbench's seeds 1-10, a = 2 l and 2.5 l
    converge by N = 256 and a = 3 l needs N = 512 for two of them; at a = l
    the median level error was 1.8 times that at 2 l (seeds 1-5). An end of
    walls that is None is open: the nodes reach _REACH from x_c past it,
    unless V there is not finite or above _REACH_V. At every other end, and
    at an open one that stops, psi = 0 at the interval's end: a box wall."""

    def __init__(self, v, lo: float, hi: float, walls):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        x = mid + half * (np.arange(-_SAMPLES, _SAMPLES + 1) / _SAMPLES)
        vx = _values(v, x)
        i = int(np.clip(np.argmin(np.nan_to_num(vx, nan=math.inf)), 1, 2 * _SAMPLES - 1))
        curvature = (vx[i - 1] - 2.0 * vx[i] + vx[i + 1]) * (_SAMPLES / half) ** 2
        self.xc = mid if np.array_equal(vx, vx[::-1]) else x[i]
        self.a = 2.0 * (2.0 / curvature) ** 0.25 if curvature > 0 else math.inf
        self.open = np.array([w is None for w in walls])
        far = self.xc + max(_REACH, 2.0 * half) * np.array([-1.0, 1.0])
        ends = np.where((_values(v, far) <= _REACH_V) & self.open, far, [lo, hi])
        self.s_lo, self.s_hi = self._s(ends)

    def _s(self, x):
        return self.a * np.arcsinh((x - self.xc) / self.a) if self.a < math.inf else x - self.xc

    def levels(self, v, n: int, count: int) -> list[_Levels]:
        m, length = n + 1, self.s_hi - self.s_lo
        # nodes placed as mirror images about the centre, so an even V is seen as even
        s = 0.5 * (self.s_lo + self.s_hi) + 0.5 * length * (np.arange(1 - n, n + 1, 2) / m)
        f = np.cosh(s / self.a) ** -2.0
        vx = _potential_at(v, self.xc + (self.a * np.sinh(s / self.a) if self.a < math.inf else s))
        # T_ij = p(|i-j|) - p(i+j+2) for i, j = 0..n-1, with
        # p(k) = (-1)^k / sin^2(pi k / 2m), p(0) = (2m^2+1)/3, in units of (pi/L)^2/2,
        # and p(2m - k) = p(k) exactly, so that an even V gives a persymmetric H
        k = np.arange(2 * m)
        with np.errstate(divide="ignore"):
            p = np.where(k % 2, -1.0, 1.0) / np.sin(np.pi * np.minimum(k, 2 * m - k) / (2 * m)) ** 2
        p[0] = (2.0 * m * m + 1.0) / 3.0
        windows = np.lib.stride_tricks.sliding_window_view
        h = windows(p[np.abs(np.arange(1 - n, n))], n)[::-1] - windows(p[2 : 2 * n + 1], n)
        h *= np.add.outer(f, f)
        h *= 0.25 * (math.pi / length) ** 2
        h[np.diag_indices(n)] += vx + (5.0 * f - 7.0 * f * f) / (4.0 * self.a**2)
        if np.array_equal(h, h[::-1, ::-1]):
            # H commutes with the reflection J: the even states [u; Ju] and the
            # odd states [u; -Ju] come from the blocks A +- B of half the size,
            # A = H[:n/2, :n/2] and B_ij = H(i, n-1-j) (n is a power of two, so even)
            half = n // 2
            solves = [
                (sign, *_eigh_lowest(h[:half, :half] + sign * h[:half, : half - 1 : -1], min(count, half)))
                for sign in (1.0, -1.0)
            ]
            energies = np.concatenate([e for _, e, _ in solves])
            coef = np.hstack([np.vstack((u, sign * u[::-1])) for sign, _, u in solves]) / math.sqrt(2.0)
            order = np.argsort(energies, kind="stable")[:count]
            energies, coef = energies[order], coef[:, order]
        else:
            energies, coef = _eigh_lowest(h, count)
        edge = float(np.min(vx[[0, -1]], where=self.open, initial=math.inf))
        return [_Levels(energies, coef, coef * (math.sqrt(m / length) * f**0.25)[:, None], edge, self.psi)]

    def psi(self, coef: np.ndarray, grid: Grid) -> np.ndarray:
        """psi on the grid by direct sums: the sine amplitudes b = S coef, then
        phi at s(x), and psi = phi / sqrt(g)."""
        n, length = coef.size, self.s_hi - self.s_lo
        k = np.arange(1, n + 1)
        amp = np.sin(np.outer(k, k) * (math.pi / (n + 1))) @ coef * math.sqrt(2.0 / (n + 1))
        s = self._s(grid.points)
        phi = _by_rows(lambda rows: np.sin(np.outer(rows - self.s_lo, k * (math.pi / length))) @ amp, s, n)
        return phi * math.sqrt(2.0 / length) / np.sqrt(np.cosh(s / self.a))


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
    return float(np.dot([64.0, -56.0, 14.0, -1.0], g)) / 21.0


def _wall_exponent(v, wall: float, length: float, sense: float = 1.0) -> float:
    """s = 1/2 + sqrt(1/4 + g) for V ~ g / d^2 at the wall: psi ~ d^s, the
    larger root of s (s - 1) = g, and s = 1 for a V finite at the wall.

    rho is 1e-5 of the box length, but at least 100 times the step
    1e-6 max(1, |r|) with which core differentiates a W that has no w_prime,
    so a V1 built that way neither samples W beyond the wall nor carries more
    than a few 1e-8 of relative error there.
    """
    g = _wall_limit(v, wall, sense, max(1e-5 * length, 1e-4 * max(1.0, abs(wall))), 2)
    if not g > -0.25:
        raise SolverError(
            f"V ~ {g:.6g} / d^2 at the wall at {wall:.6g}: no ground state below -1/(4 d^2)"
        )
    return 0.5 + math.sqrt(0.25 + g)


def _ground_state_exponent(w, wall: float, length: float, sense: float) -> float:
    """s = lim -+d W at the wall, so the ground state exp(-int W) goes as d^s.

    Where s < 1/2 this is the smaller root of s (s - 1) = lim d^2 V1, which
    V1 alone cannot tell from 1 - s. rho is 1e-4 |wall|: the position of a
    wall at |wall| ~ 1 is known to about 1e-16, which is then 1e-12 of rho.
    A wall at 0 has no such rounding, and rho = 1e-6 of the box length keeps
    the cubic's 64 rho^4 c below 1e-16 (on poschl_teller A = 3, B = 3.1,
    rho = 3.6e-4 left 1.4e-13 in s and 2.6e-10 in the levels).
    """
    return -sense * _wall_limit(w, wall, sense, max(1e-6 * length, 1e-4 * abs(wall)), 1)


def _is_wall(end) -> bool:
    return isinstance(end, float) or bool(end)


def _exponent(end, v, wall: float, length: float, sense: float) -> float:
    """The wall exponent s of one end of walls: the float given, or read off V for True."""
    s = float(end) if isinstance(end, float) else _wall_exponent(v, wall, length, sense)
    if not s > 0.0:
        raise SolverError(f"wall exponent {s:.6g} at {wall:.6g}: psi ~ d^s needs s > 0")
    return s


def _kinetic(y: np.ndarray, sign: np.ndarray, q: np.ndarray) -> np.ndarray:
    """M^T M for M_ij = sign_i sign_j / (y_i - y_j) and M_ii = -q_i, summed in
    closed form (see _WallMesh), in place on one N x N array."""
    with np.errstate(divide="ignore"):
        k = 1.0 / np.subtract.outer(y, y)
    k *= k
    k[np.diag_indices(y.size)] = 0.0
    diagonal = q * q + k.sum(axis=1)
    k *= 2.0 * sign[:, None]
    k *= sign
    k[np.diag_indices(y.size)] = diagonal
    return k


class _WallMesh:
    """psi = Phi(y) p(y) / sqrt(scale) at r = origin + sense scale y, where Phi
    goes as d^s at each wall and p, of degree below N, is expanded in the
    Lagrange polynomials at the N Gauss nodes y_i of weight Phi^2 / sigma.

    H is assembled in ground-state form, the form ||A psi||^2 of H = A+A + E
    with ground state Phi: for psi = Phi p,
        scale^2 <psi, H psi> = int Phi^2 [p'^2 + (scale^2 V - Phi''/Phi) p^2] dy.
    It selects the self-adjoint extension whose functions go as d^s at a
    wall, also where V ~ s(s - 1)/d^2 admits d^(1 - s) as well (Bulla &
    Gesztesy, J. Math. Phys. 26 (1985) 2520). The rule integrates sigma p_j p_k
    and sigma p_j' p_k' exactly, so the basis is orthonormal and the kinetic
    matrix exact: K = M^T M with M_ij = (-1)^(i-j) / (y_i - y_j) and
    M_ii = pi''(y_i) / (2 pi'(y_i)) = -Phi'/Phi(y_i), pi the node polynomial,
    by its ODE. As M_ii is also sum_(k != i) 1/(y_i - y_k), partial fractions
    collapse the sum over k: K_ij = 2 (-1)^(i-j) / (y_i - y_j)^2 and
    K_ii = M_ii^2 + sum_(k != i) 1/(y_i - y_k)^2, O(N^2) and the same for every
    scale. The potential term is diagonal, V - Phi''/Phi at the nodes, where
    the g/d^2 of V cancels against the same pole of Phi''/Phi. (As int psi'^2
    + V psi^2 over the nodes of weight d^(2s - 2), both terms grow as
    1/(2s - 1) near s = 1/2 and cancel: on a scarf1 draw with s = 0.5015 the
    levels stalled between 1e-8 and 1e-6.)

    A family gives the rule, `_rule(n)` -> (d, e, p_0, C): the recurrence
    y p_k = e_k p_(k+1) + d_k p_k + e_(k-1) p_(k-1) of its orthonormal p_0..p_n
    and C with sigma p_n' = C e_(n-1) p_(n-1) at the nodes; and
    `_envelope(y)` -> sigma, log Phi, Phi'/Phi, Phi''/Phi.
    """

    open_end = False  # an end without a wall: V at the outermost node is the continuum edge

    def _tails(self, y: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Phi p_n and Phi p_(n-1) at y by the recurrence, with Phi spread over
        the n steps so that nothing overflows where p_n grows as e^(y/2)."""
        d, e, p0, _ = self._rule(n)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.exp(self._envelope(y)[1] / n)
        prev, cur = np.zeros_like(y), np.full_like(y, p0)
        for k in range(n):
            prev, cur = cur, t * ((y - d[k]) * cur - (e[k - 1] * t * prev if k else 0.0)) / e[k]
        return cur, t * prev

    def _nodes(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The nodes y_i and a_i = Phi p_n'(y_i) / sqrt(C). The weights are
        C / (sigma_i p_n'(y_i)^2), so the Lagrange function of node i is |a_i|
        on its node and Phi p_n / (y - y_i) sign(a_i) / sqrt(C) elsewhere."""
        if n not in self._memo:
            d, e, _, c = self._rule(n)
            y = eigh_tridiagonal(d[:n], e[: n - 1], eigvals_only=True)
            tail, prev = self._tails(y, n)
            slope = c * e[n - 1] * prev / self._envelope(y)[0]  # Phi p_n' at the nodes
            self._memo[n] = (y - tail / slope, slope / math.sqrt(c))  # one Newton step
        return self._memo[n]

    def levels(self, v, n: int, count: int) -> list[_Levels]:
        y, a = self._nodes(n)
        _, _, q, ratio = self._envelope(y)
        k = _kinetic(y, np.sign(a), q)
        out = []
        for scale in self.scales:
            vx = _potential_at(v, self.origin + self.sense * scale * y)
            h = k / scale**2
            h[np.diag_indices(n)] += vx - ratio / scale**2
            energies, coef = _eigh_lowest(h, count)
            values = (coef * (np.abs(a) / math.sqrt(scale))[:, None])[:: int(self.sense)]  # in the order of r
            edge = float(vx[-1]) if self.open_end else math.inf
            out.append(_Levels(energies, coef, values, edge, partial(self.psi, scale)))
        return out

    def psi(self, scale: float, coef: np.ndarray, grid: Grid) -> np.ndarray:
        """sum_i coef_i times the Lagrange function of node i on the grid."""
        n = coef.size
        yn, a = self._nodes(n)
        y = np.clip(self.sense * (grid.points - self.origin) / scale, *self.domain)
        tail, _ = self._tails(y, n)
        w = coef * np.sign(a) / math.sqrt(self._rule(n)[3])
        with np.errstate(divide="ignore", invalid="ignore"):
            out = tail * _by_rows(lambda rows: (w / (rows[:, None] - yn)).sum(axis=1), y, n)
        hit = ~np.isfinite(out)  # a grid point on a node
        out[hit] = [coef[j] * abs(a[j]) for j in np.argmin(np.abs(y[hit, None] - yn), axis=1)]
        return out / math.sqrt(scale)


class _LaguerreMesh(_WallMesh):
    """The half line from the wall at lo or hi: y = |r - wall| / h, Phi =
    y^s e^(-y/2), weight y^(2s - 1) e^(-y), sigma = y, C = 1; one candidate
    per scale h = (hi - lo) / k for k in LAGUERRE_SCALES."""

    open_end, domain = True, (0.0, math.inf)

    def __init__(self, v, lo: float, hi: float, walls):
        at_hi = _is_wall(walls[1])
        self.origin, self.sense = (hi, -1.0) if at_hi else (lo, 1.0)
        self.scales = [(hi - lo) / k for k in LAGUERRE_SCALES]
        self.s, self._memo = _exponent(walls[at_hi], v, self.origin, hi - lo, self.sense), {}

    def _rule(self, n: int):
        k, s = np.arange(n + 1, dtype=float), self.s
        return 2.0 * (k + s), np.sqrt(k[1:] * (k[1:] + 2.0 * s - 1.0)), math.exp(-0.5 * math.lgamma(2.0 * s)), 1.0

    def _envelope(self, y):
        s = self.s
        return y, s * np.log(y) - 0.5 * y, s / y - 0.5, s * (s - 1.0) / y**2 - s / y + 0.25


class _JacobiMesh(_WallMesh):
    """[lo, hi] for wells with a wall at both ends: r = lo + L (1 + y)/2,
    Phi = (1 - y)^a (1 + y)^b with a = s_hi, b = s_lo, weight
    (1 - y)^(2a - 1) (1 + y)^(2b - 1), sigma = 1 - y^2, C = 2 (n + a + b) - 1."""

    domain, sense = (-1.0, 1.0), 1.0

    def __init__(self, v, lo: float, hi: float, walls):
        self.origin, self.scales = 0.5 * (lo + hi), [0.5 * (hi - lo)]
        self.s_lo = _exponent(walls[0], v, lo, hi - lo, 1.0)
        self.s_hi, self._memo = _exponent(walls[1], v, hi, hi - lo, -1.0), {}

    def _rule(self, n: int):
        a, b = self.s_hi, self.s_lo
        return (*jacobi_recurrence(n + 1, 2.0 * a - 1.0, 2.0 * b - 1.0), 2.0 * (n + a + b) - 1.0)

    def _envelope(self, y):
        a, b = self.s_hi, self.s_lo
        ratio = a * (a - 1.0) / (1.0 - y) ** 2 + b * (b - 1.0) / (1.0 + y) ** 2 - 2.0 * a * b / (1.0 - y * y)
        return 1.0 - y * y, a * np.log1p(-y) + b * np.log1p(y), b / (1.0 + y) - a / (1.0 - y), ratio


def _change(a: _Levels, b: _Levels) -> np.ndarray:
    return np.abs(b.energies - a.energies) / np.maximum(1.0, np.abs(b.energies))


def _score(a: _Levels, b: _Levels) -> tuple:
    """Most levels resolved at N first, then the smallest worst relative change
    among them; a level resolved at N but not at N/2 has not converged."""
    resolved = b.energies < b.edge
    change = np.where(a.energies < a.edge, _change(a, b), math.inf)[resolved]
    return (-int(resolved.sum()), float(np.max(change, initial=0.0)))


def spectral_bound_states(
    v,
    interval: tuple[float, float],
    count: int,
    walls: tuple = (False, False),
    n_points: int = 4001,
) -> list[EigenPair]:
    """Lowest `count` eigenpairs of -psi'' + V psi = E psi by a spectral basis.

    walls = (wall_lo, wall_hi) says what each end of interval is. An end is
    False (closed: psi = 0 there, the wall of a box), None (open: the domain
    goes on past it), True (a wall where psi ~ d^s with s the larger root of
    s (s - 1) = lim d^2 V) or a float s > 0, the exponent of psi at that
    wall: a superpotential W ~ -+s/d there gives it, and with s < 1/2 it
    selects the extension of its ground state exp(-int W). The bases:
    - no wall: sine DVR on the sinh map x = x_c + a sinh(s/a). V sampled on
      interval places it: x_c is the centre where the samples are
      mirror-symmetric (an even V keeps its parity blocks), else their
      minimum, and a = 2 (2/V''(min))^(1/4), twice the oscillator length of
      the well, or a = inf (uniform nodes) where V'' <= 0 there, as for a
      flat V; so V = 0 on (0, pi) with closed ends is the uniform box with
      E = n^2. At an open end the nodes reach x_c -+ 3000, or stop at the
      interval's end where V there is not finite or above 1e6;
    - one wall: Lagrange-Laguerre mesh on the half line from that wall, whose
      scales the interval length sets; its far end is always open;
    - two walls: Lagrange-Jacobi mesh on interval.
    N doubles from 16 (or the first power of two >= count) until every bound
    level moves by at most SPECTRAL_TOL * max(1, |E|) between N/2 and N. It
    stops early, with a warning, at SPECTRAL_CAP or at the rounding floor:
    once a change below ROUNDING_FLOOR grows at the next doubling. At the
    floor it returns the N/2 solve, the better of the two, with its change
    from N/4 as the estimate. A level at or above V at the outermost node next
    to an open end is discretized continuum: it is flagged as not bound, gets
    one warning, and is not required to converge. At closed ends and walls
    every level is bound. psi is returned on Grid(*interval, n_points),
    built when first read.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if count < 1:
        raise SolverError(f"count must be at least 1, got {count}")
    n = _N_START
    while n < count:
        n *= 2
    if 2 * n > SPECTRAL_CAP:
        raise SolverError(f"{count} states need a basis above the cap N = {SPECTRAL_CAP}")
    wall_lo, wall_hi = (_is_wall(w) for w in walls)
    if wall_lo and wall_hi:
        basis = _JacobiMesh(v, lo, hi, walls)
    elif wall_lo or wall_hi:
        basis = _LaguerreMesh(v, lo, hi, walls)
    else:
        basis = _SineDVR(v, lo, hi, walls)
    prev = basis.levels(v, n, count)
    last = math.inf
    while True:
        n *= 2
        cur = basis.levels(v, n, count)
        (_, worst), best = min((_score(a, b), i) for i, (a, b) in enumerate(zip(prev, cur)))
        # a change that grows after one below ROUNDING_FLOOR is rounding, not truncation:
        # keep the N/2 solve and its change. A level newly resolved (an infinite change) is neither
        if last <= ROUNDING_FLOOR and last <= worst < math.inf:
            worst, n = last, n // 2
            break
        solves = prev[best], cur[best]  # N/2 and N in the best basis
        if worst <= SPECTRAL_TOL or 2 * n > SPECTRAL_CAP:
            break
        prev, last = cur, worst
    if worst > SPECTRAL_TOL:
        warnings.warn(
            f"levels still move by {worst:.2e} between N = {n // 2} and N = {n}",
            stacklevel=2,
        )
    lv, change = solves[1], np.abs(solves[1].energies - solves[0].energies)
    grid = Grid(lo, hi, n_points)
    pairs = []
    for i in range(count):
        sign = _flip_sign(lv.values[:, i])
        values = sign * lv.values[:, i]
        bound = bool(lv.energies[i] < lv.edge)
        if not bound:
            warnings.warn(f"state {i} is not below V = {lv.edge:.6g} at the far node: not bound", stacklevel=2)

        def build(coef=sign * lv.coef[:, i], psi=lv.psi):
            return SampledFunction(grid, psi(coef, grid))

        pairs.append(
            EigenPair(
                float(lv.energies[i]),
                build,
                count_nodes(values),
                bound,
                float(change[i]),
            )
        )
    return pairs
