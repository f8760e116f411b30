"""Periodic wells: self-isospectral partners and Lame bands.

A periodic W generates partners V1 = W^2 - W' and V2 = W^2 + W' of the same
period L. The partner is self-isospectral when it is V1 moved: W(x + L/2) =
-W(x) gives V2(x) = V1(x + L/2), and an even W gives V2(x) = V1(-x) (Dunne &
Feinberg, Phys. Rev. D 57 (1998) 1271). classify_pair finds such a shift or
reflection on the samples of V1 and V2. The Lame wells p m sn^2(x, m) with
p = a(a+1), a = 1, 2, ..., supply 2a + 1 closed-form band edges and, from
a = 2 on, partner potentials outside the classical solvable lists.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._blas import one_blas_thread
from .eigensolver import EigenPair, SolverError
from .grids import Grid, SampledFunction, lobe_sign, sample
from .scattering import propagate
from .special import elliptic_K, jacobi_sn_cn_dn


class PeriodicError(ValueError):
    pass


# classify_pair's shifts per period, and its max-norm tolerance relative to max(1, max|V2|)
_N_SHIFTS = 1000
_PAIR_TOL = 1e-8


def classify_pair(v1: Callable, v2: Callable, period: float) -> tuple[str, Optional[float]]:
    """Numeric classifier: is V2 a shift or a reflected shift of V1?

    Tests n = _N_SHIFTS translations per period (and the same with
    reflection) and reports ("translation", s), ("reflection", s) or
    ("neither", None), s being the first shift whose samples fit closest in
    the max norm, within tol = _PAIR_TOL times max(1, max|V2|). A pair that is
    both (V2 = V1(x + s) = V1(s' - x)) is a translation. One circular FFT
    correlation per kind gives every shift's misfit sum (V1 shifted - V2)^2;
    a shift that passes the max-norm test has a misfit at most n (tol scale)^2,
    so only the shifts within that, plus an FFT rounding slack, are tested in
    the max norm. A sampling test, not a proof.
    """
    n, tol = _N_SHIFTS, _PAIR_TOL
    x = np.linspace(0.0, period, n, endpoint=False)
    t1 = np.asarray(v1(x), dtype=float)
    t2 = np.asarray(v2(x), dtype=float)
    t1r = np.roll(t1[::-1], 1)  # v1(-x) on the same cyclic grid
    scale = max(1.0, float(np.max(np.abs(t2))))
    sumsq = float(t1 @ t1 + t2 @ t2)
    # the FFT's rounding in a misfit stays below about eps log2(n) sumsq
    bound = n * (tol * scale) ** 2 + 8 * n * np.finfo(float).eps * sumsq
    f1, f2 = np.fft.rfft(t1), np.fft.rfft(t2)
    # grid-aligned shifts make v1(+-x + s) an index roll of the samples; sum_i t1[i + j] t2[i]
    # is a correlation, and sum_i t1[j - i] t2[i] (the reflection) a convolution
    for kind, base, step, cross in (
        ("translation", t1, -1, f1 * f2.conj()),
        ("reflection", t1r, 1, f1 * f2),
    ):
        misfit = sumsq - 2.0 * np.fft.irfft(cross, n)
        candidates = np.flatnonzero(misfit <= bound).tolist()
        dev = {j: float(np.max(np.abs(np.roll(base, step * j) - t2))) for j in candidates}
        j = min(dev, key=dev.get, default=None)  # the first of the closest, as argmin
        if j is not None and dev[j] <= tol * scale:
            return kind, j * period / n
    return "neither", None


# ---------------------------------------------------------------------------
# Lame wells
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BandEdge:
    energy: float
    period_tag: str  # "L" (periodic over one period) or "2L" (antiperiodic)
    nodes_per_period: int


@dataclass(frozen=True)
class LameSpec:
    """The well p m sn^2(x, m) with p = a(a+1); period 2K(m)."""

    a: int
    m: float

    def __post_init__(self):
        if not isinstance(self.a, (int, np.integer)) or self.a < 1:
            raise PeriodicError("order a must be a positive integer")
        if not 0.0 < self.m < 1.0:
            raise PeriodicError(f"elliptic parameter m must lie in (0,1), got {self.m}")

    @property
    def p(self) -> int:
        return self.a * (self.a + 1)

    @property
    def period(self) -> float:
        return 2.0 * elliptic_K(self.m)


def lame_potential(spec: LameSpec) -> Callable:
    """V(x) = p m sn^2(x, m), period 2K(m)."""

    def v(x):
        sn, _, _ = jacobi_sn_cn_dn(np.asarray(x, dtype=float), spec.m)
        return spec.p * spec.m * np.asarray(sn) ** 2

    return v


def _lame_matrix(a: int, m: float, eps: int, delta: int, gamma: int) -> np.ndarray:
    """The recurrence of sn^eps cn^delta dn^gamma sum_k c_k sn^(2k): [j, k] is c_k's share of sn^(2j)."""
    k = np.arange((a - eps - delta - gamma) // 2 + 1)
    n = 2 * k + eps + delta + gamma
    h = np.diag((2 * k + eps + delta) ** 2 + m * (2 * k + eps + gamma) ** 2)
    h[k[:-1], k[1:]] = -2 * k[1:] * (2 * k[1:] + 2 * eps - 1)
    h[k[1:], k[:-1]] = m * (a - n[:-1]) * (a + n[:-1] + 1)
    return h


def lame_band_edges(spec: LameSpec) -> list[BandEdge]:
    """The 2a + 1 closed-form band edges of the order-a well, tagged.

    The edge states are the Lame polynomials sn^eps cn^delta dn^gamma
    sum_k c_k sn^(2k), eps + delta + gamma = a mod 2 (Arscott, Periodic
    Differential Equations, 1964, ch. IX; Whittaker & Watson sec. 23.4), whose
    c_k obey a three-term recurrence: the edges are the eigenvalues of the
    four classes' tridiagonal matrices, real though each off-diagonal pair has
    a negative product, so that the matrices are not symmetric.
    """
    energies = []
    for eps, delta, gamma in np.ndindex(2, 2, 2):
        if (eps + delta + gamma) % 2 == spec.a % 2:
            energies.extend(np.linalg.eigvals(_lame_matrix(spec.a, spec.m, eps, delta, gamma)).real)
    return _tag_edges(sorted(energies))


def _tag_edges(energies: list[float]) -> list[BandEdge]:
    """Oscillation-theorem bookkeeping: tags L,2L,2L,L,L,... nodes 0,1,1,2,2,..."""
    edges = []
    for i, e in enumerate(energies):
        nodes = (i + 1) // 2
        tag = "L" if (i + 1) // 2 % 2 == 0 else "2L"
        edges.append(BandEdge(float(e), tag, nodes))
    return edges


def lame_partner(spec: LameSpec) -> tuple[Callable, Callable, Callable]:
    """The ground-band factorization of the order-a well: (V1, W, V2) as callables.

    psi0 = dn^g P(sn^2), g = a mod 2, is the nodeless Lame polynomial (Arscott
    1964, ch. IX; Whittaker & Watson sec. 23.4), P following from c_0 = 1 by
    the recurrence at its edge E0; dn' = -m sn cn and (sn^2)' = 2 sn cn dn give
    W = -psi0'/psi0. V1 = p m sn^2 - E0, and V2 = 2W^2 - V1 is isospectral to
    it: for a = 1 its half-period translate, for a = 2 neither shift nor mirror.
    """
    m, g = spec.m, spec.a % 2
    h = _lame_matrix(spec.a, m, 0, 0, g)
    e0 = float(min(np.linalg.eigvals(h).real))
    c = [1.0]
    for k in range(len(h) - 1):  # row k of (h - E0) c = 0 gives c_(k+1)
        c.append((e0 * c[k] - h[k, : k + 1] @ c) / h[k, k + 1])
    c = c[::-1]  # from the highest power of s down, as np.polyval takes it

    def parts(x):
        """(psi0, W, V1) from one sn, cn, dn evaluation."""
        sn, cn, dn = (np.asarray(t) for t in jacobi_sn_cn_dn(np.asarray(x, dtype=float), m))
        s = sn**2
        poly = np.polyval(c, s)
        w = g * m * sn * cn / dn - 2.0 * sn * cn * dn * np.polyval(np.polyder(c), s) / poly
        return dn**g * poly, w, spec.p * m * s - e0

    def psi0(x):
        return parts(x)[0]

    def v1(x):
        return parts(x)[2]

    def w(x):
        return parts(x)[1]

    def v2(x):
        _, wx, v1x = parts(x)
        return 2.0 * wx**2 - v1x

    v1.psi0 = psi0  # expose the analytic zero mode for residual checks
    return v1, w, v2


def numeric_band_edges(
    v: Callable, period: float, count: int, n_points: int = 1201
) -> list[BandEdge]:
    """The lowest `count` band edges of -psi'' + V psi, tagged.

    Fourier-Floquet-Hill method (Deconinck & Kutz, J. Comput. Phys. 219
    (2006) 296): one FFT of V's n = n_points - 1 unique samples over a period
    gives its harmonics, and the Hill matrix is diagonalized in the real
    cos/sin basis of the periodic (kL = 0, tag "L") and antiperiodic
    (kL = pi, tag "2L") sectors; each edge is the Rayleigh quotient of its
    eigenvector. The sorted union is tagged by the oscillation theorem, and
    an edge from the other sector raises PeriodicError. band_edge_states adds
    each edge's eigenvector.

    A sector keeps N = min(n // 4, 2 j + count // 2 + 10) harmonics, j being
    the last harmonic of V above 1e-15 of the largest; n // 4 is the most for
    which every coupling V_{p-q}, |p - q| <= 2N, is resolved without
    aliasing. For smooth V the edges converge spectrally. When the cap binds,
    V's harmonics have not decayed (a step, say), the edges converge only
    algebraically in n_points, and a RuntimeWarning says so.
    """
    return [edge for edge, _, _ in _hill_edges(v, period, count, n_points)[1]]


def band_edge_states(
    v: Callable, period: float, count: int, n_points: int = 1201
) -> list[tuple[BandEdge, EigenPair]]:
    """numeric_band_edges' edges, each with its Bloch eigenvector and node count.

    The eigenvector is synthesized on the n_points grid over one period from
    the Hill solve's own coefficients, so the edges are exactly those of
    numeric_band_edges.
    """
    grid, edges = _hill_edges(v, period, count, n_points)
    return [(edge, _bloch_state(grid, edge, f, coef)) for edge, f, coef in edges]


def _hill_edges(
    v: Callable, period: float, count: int, n_points: int
) -> tuple[Grid, list[tuple[BandEdge, np.ndarray, np.ndarray]]]:
    """The sample grid and the tagged edges, each with its basis frequencies and coefficients."""
    grid = Grid(0.0, period, n_points)
    vals = sample(v, grid).values
    if abs(vals[0] - vals[-1]) > 1e-8 * (1 + abs(vals[0])):
        raise SolverError("potential samples are not periodic over the window")
    n = n_points - 1
    vhat = np.fft.fft(vals[:-1]) / n  # vhat[r] multiplies exp(2 pi i r x / L), r mod n
    if n % 2 == 0:
        vhat[n // 2] /= 2.0  # the Nyquist harmonic is shared by r = n/2 and r = -n/2
    above = np.flatnonzero(np.abs(vhat[: n // 2 + 1]) > 1e-15 * np.max(np.abs(vhat)))
    wanted = 2 * int(above[-1] if above.size else 0) + count // 2 + 10
    modes = min(n // 4, wanted)
    if modes < wanted:
        warnings.warn(
            f"the harmonics of V have not decayed within the {modes} that {n_points} "
            "samples resolve; band edges converge only algebraically in n_points",
            RuntimeWarning,
            stacklevel=3,
        )
    levels = []
    with one_blas_thread():  # on the scipy fallback, numpy's eigh stalls against scipy's pool at 2+ threads
        for tag, cos_f, sin_f in (
            ("L", np.arange(0, 2 * modes + 1, 2), np.arange(2, 2 * modes + 1, 2)),
            ("2L", np.arange(1, 2 * modes, 2), np.arange(1, 2 * modes, 2)),
        ):
            # orthonormal basis sqrt(2/L) Re(c exp(i pi f x / L)): c real for cos, -i for sin
            f = np.concatenate([cos_f, sin_f])
            c = np.concatenate([np.where(cos_f == 0, math.sqrt(0.5), 1.0), np.full(sin_f.size, -1j)])
            # Re(A) Re(B) = (Re(A B) + Re(A conj(B))) / 2: each entry is two harmonics of V
            p, q = f[:, None], f[None, :]
            h = np.outer(c, c) * vhat[(-p - q) // 2] + np.outer(c, c.conj()) * vhat[(q - p) // 2]
            h = h.real
            h[np.diag_indices_from(h)] += (math.pi * f / period) ** 2
            energies, vecs = np.linalg.eigh(h)
            keep = min(count // 2 + 2, f.size)
            e, vecs = energies[:keep], vecs[:, :keep]
            # eigh errs by eps times the kinetic diagonal; a Rayleigh-quotient step leaves about an ulp
            e = e + np.einsum("ij,ij->j", vecs, np.einsum("ik,kj->ij", h, vecs) - e * vecs)
            levels += [(e[i], tag, f, c * vecs[:, i]) for i in range(keep)]
    if len(levels) < count:
        raise SolverError(
            f"{n_points} samples resolve {modes} harmonics, too few for count={count} "
            "band edges; raise n_points"
        )
    levels = sorted(levels, key=lambda t: t[0])[:count]
    out = []
    for (e, tag, f, coef), edge in zip(levels, _tag_edges([t[0] for t in levels])):
        if tag != edge.period_tag:
            raise PeriodicError(
                f"band edge at E={e:.6f} came from the {tag} sector but the "
                f"oscillation theorem expects {edge.period_tag}; widen the grid"
            )
        out.append((edge, f, coef))
    return grid, out


def _bloch_state(grid: Grid, edge: BandEdge, f: np.ndarray, coef: np.ndarray) -> EigenPair:
    """The edge's eigenvector sum coef * basis(f) on the grid, sign-fixed, with its nodes."""
    n, period = grid.n_points - 1, grid.x_max - grid.x_min
    # one inverse FFT over two periods, where every basis frequency f is whole
    z = np.zeros(2 * n, dtype=complex)
    np.add.at(z, f, coef)
    psi = math.sqrt(8.0 / period) * n * np.fft.ifft(z)[: n + 1].real
    psi *= lobe_sign(psi)
    nodes = _cyclic_nodes(psi[:-1], 1.0 if edge.period_tag == "L" else -1.0)
    return EigenPair(edge.energy, SampledFunction(grid, psi), nodes)


def _cyclic_nodes(psi: np.ndarray, sign: float) -> int:
    """Sign changes per period, closing the loop with the Bloch sign.

    The state is unrolled over two periods (antiperiodic states become
    periodic), sign changes are counted cyclically, and the total is halved;
    this counts nodes sitting exactly on the sample boundary correctly.
    """
    doubled = np.concatenate([psi, sign * psi])
    floor = 1e-8 * np.max(np.abs(doubled))
    sig = doubled[np.abs(doubled) > floor]
    if sig.size < 2:
        return 0
    closed = np.append(sig, sig[0])
    flips = int(np.sum(np.signbit(closed[:-1]) != np.signbit(closed[1:])))
    return flips // 2


def hill_discriminant(
    v: Callable, period: float, energy: float, n_steps: int = 4000
) -> float:
    """Hill discriminant D(E): the trace of the one-period Magnus-4 transfer matrix.

    |D| <= 2 inside allowed bands. The matrix comes from scattering.propagate.
    """
    return float(np.trace(propagate(v, 0.0, period, [energy], n_steps)[0]))
