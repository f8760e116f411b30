"""Periodic superpotentials: zero modes, self-isospectrality, Lame bands.

On a period L the integral phi_L = int_0^L W fixes whether the periodic zero
modes exp(-+ int W) survive: phi_L = 0 means both partners keep a zero mode
and their spectra are strictly identical (including the ground edge). Two
structural classes make the pair *self*-isospectral: W antisymmetric on a
half period (V2(x) = V1(x + L/2)) and W even (V2(x) = V1(-x)). The Lame
wells p m sn^2(x, m) with p = a(a+1) supply closed-form band edges for
a = 1, 2, and for a = 2 a partner potential outside the classical solvable
lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .eigensolver import EigenPair, band_solve
from .grids import Grid, SampledFunction, integrate, sample
from .scattering import propagate
from .special import elliptic_K, jacobi_sn_cn_dn


class PeriodicError(ValueError):
    pass


@dataclass(frozen=True)
class PeriodicSuperpotential:
    """Periodic W with its period and the zero-mode phase phi_L = int_0^L W."""

    w: Callable[[np.ndarray], np.ndarray]
    period: float
    n_check: int = 2001

    def __post_init__(self):
        if self.period <= 0:
            raise PeriodicError("period must be positive")
        x = np.linspace(0.0, self.period, 257)
        dev = np.max(np.abs(np.asarray(self.w(x + self.period)) - np.asarray(self.w(x))))
        if dev > 1e-10 * max(1.0, float(np.max(np.abs(self.w(x))))):
            raise PeriodicError(f"w is not periodic over {self.period} (dev {dev:.2e})")

    @property
    def phi_L(self) -> float:
        g = Grid(0.0, self.period, self.n_check)
        return integrate(sample(self.w, g))

    def v1(self, x):
        return self._v(x, -1.0)

    def v2(self, x):
        return self._v(x, +1.0)

    def _v(self, x, sign):
        x = np.asarray(x, dtype=float)
        h = 1e-6 * max(1.0, self.period)
        wp = (self.w(x - 2 * h) - 8 * self.w(x - h) + 8 * self.w(x + h) - self.w(x + 2 * h)) / (
            12 * h
        )
        return np.asarray(self.w(x)) ** 2 + sign * wp


def zero_mode_check(w: PeriodicSuperpotential, tol: float = 1e-10) -> str:
    """"unbroken" iff phi_L vanishes, so exp(-+ int W) are periodic zero modes."""
    return "unbroken" if abs(w.phi_L) <= tol * max(1.0, w.period) else "broken"


def self_isospectral_classify(w: PeriodicSuperpotential, tol: float = 1e-9) -> str:
    """Structural self-isospectrality of the partner pair generated by W.

    Returns "half-period-antisymmetric" (W(x + L/2) = -W(x), so
    V2(x) = V1(x + L/2)), "even-reflection" (W(-x) = W(x), so
    V2(x) = V1(-x)), or "neither". The implied potential identity is
    verified on samples before either label is returned.
    """
    x = np.linspace(0.0, w.period, 1024, endpoint=False)
    wx = np.asarray(w.w(x), dtype=float)
    scale = max(1.0, float(np.max(np.abs(wx))))
    if np.max(np.abs(np.asarray(w.w(x + 0.5 * w.period)) + wx)) <= tol * scale:
        dev = np.max(np.abs(w.v2(x) - w.v1(x + 0.5 * w.period)))
        if dev > 1e-6 * scale**2:
            raise PeriodicError(f"antisymmetry holds but potentials differ ({dev:.2e})")
        return "half-period-antisymmetric"
    if np.max(np.abs(np.asarray(w.w(-x)) - wx)) <= tol * scale:
        dev = np.max(np.abs(w.v2(x) - w.v1(-x)))
        if dev > 1e-6 * scale**2:
            raise PeriodicError(f"evenness holds but potentials differ ({dev:.2e})")
        return "even-reflection"
    return "neither"


def classify_pair(
    v1: Callable, v2: Callable, period: float, n_shifts: int = 1000, tol: float = 1e-8
) -> tuple[str, Optional[float]]:
    """Numeric classifier: is V2 a shift or a reflected shift of V1?

    Scans n_shifts translations per period (and the same with reflection) and
    reports ("translation", s), ("reflection", s) or ("neither", None). A
    sampling test, not a proof.
    """
    x = np.linspace(0.0, period, n_shifts, endpoint=False)
    t1 = np.asarray(v1(x), dtype=float)
    t2 = np.asarray(v2(x), dtype=float)
    t1r = np.roll(t1[::-1], 1)  # v1(-x) on the same cyclic grid
    scale = max(1.0, float(np.max(np.abs(t2))))
    best = ("neither", None, math.inf)
    for j in range(n_shifts):
        s = j * period / n_shifts
        # grid-aligned shifts make v1(x + s) an index roll of the samples
        d_t = float(np.max(np.abs(np.roll(t1, -j) - t2)))
        d_r = float(np.max(np.abs(np.roll(t1r, j) - t2)))
        if d_t < best[2]:
            best = ("translation", s, d_t)
        if d_r < best[2]:
            best = ("reflection", s, d_r)
    kind, s, dev = best
    if dev <= tol * scale:
        return kind, s
    return "neither", None


# ---------------------------------------------------------------------------
# Lame wells
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BandEdge:
    energy: float
    period_tag: str  # "L" (periodic over one period) or "2L" (antiperiodic)
    nodes_per_period: int
    which_band_boundary: str  # bottom | top | continuum-bottom


@dataclass(frozen=True)
class LameSpec:
    """The well p m sn^2(x, m) with p = a(a+1); period 2K(m)."""

    a: int
    m: float

    def __post_init__(self):
        if self.a < 1:
            raise PeriodicError("order a must be a positive integer")
        if not 0.0 < self.m < 1.0:
            raise PeriodicError(f"elliptic parameter m must lie in (0,1), got {self.m}")

    @property
    def p(self) -> int:
        return self.a * (self.a + 1)

    @property
    def period(self) -> float:
        return 2.0 * elliptic_K(self.m)

    @property
    def delta(self) -> float:
        return math.sqrt(1.0 - self.m + self.m**2)


def lame_potential(spec: LameSpec) -> Callable:
    """V(x) = p m sn^2(x, m), period 2K(m)."""

    def v(x):
        sn, _, _ = jacobi_sn_cn_dn(np.asarray(x, dtype=float), spec.m)
        return spec.p * spec.m * np.asarray(sn) ** 2

    return v


def lame_band_edges(spec: LameSpec) -> list[BandEdge]:
    """Closed-form band edges of the a = 1 and a = 2 wells.

    a = 1: one bound band [m, 1] then continuum from 1 + m.
    a = 2: bands [2+2m-2d, 1+m] and [1+4m, 4+m], continuum from 2+2m+2d,
    with d = sqrt(1 - m + m^2).
    """
    m = spec.m
    if spec.a == 1:
        vals = [m, 1.0, 1.0 + m]
    elif spec.a == 2:
        d = spec.delta
        vals = [2 + 2 * m - 2 * d, 1 + m, 1 + 4 * m, 4 + m, 2 + 2 * m + 2 * d]
    else:
        raise PeriodicError(
            f"closed-form edges are available for a in {{1, 2}} only, got a={spec.a}; "
            "use numeric_band_edges instead"
        )
    return _tag_edges(vals)


def _tag_edges(energies: list[float]) -> list[BandEdge]:
    """Oscillation-theorem bookkeeping: tags L,2L,2L,L,L,... nodes 0,1,1,2,2,..."""
    edges = []
    for i, e in enumerate(energies):
        nodes = (i + 1) // 2
        tag = "L" if (i + 1) // 2 % 2 == 0 else "2L"
        if i == len(energies) - 1 and len(energies) % 2 == 1:
            boundary = "continuum-bottom"
        elif i == 0:
            boundary = "bottom"
        else:
            boundary = "top" if i % 2 == 1 else "bottom"
        edges.append(BandEdge(float(e), tag, nodes, boundary))
    return edges


def lame_partner(spec: LameSpec) -> tuple[Callable, Callable, Callable]:
    """The a = 2 ground-band factorization: (V1, W, V2) as callables.

    V1 = -2 - 2m + 2d + 6m sn^2 (the a = 2 well shifted so its lowest edge is
    zero), with nodeless periodic ground state psi0 = 1 + m + d - 3m sn^2 and
    W = 6m sn cn dn / psi0. V2 = 2W^2 - V1 is a genuinely new periodic well:
    it is isospectral to V1 but neither a shift nor a reflection of it.
    """
    if spec.a != 2:
        raise PeriodicError("the closed-form partner construction needs a = 2")
    m, d = spec.m, spec.delta
    shift = -2.0 - 2.0 * m + 2.0 * d

    floor = 1.0 + m + d - 3.0 * m
    if floor <= 0:
        raise PeriodicError("ground-state polynomial is not strictly positive")

    def psi0(x):
        sn, _, _ = jacobi_sn_cn_dn(np.asarray(x, dtype=float), m)
        return 1.0 + m + d - 3.0 * m * np.asarray(sn) ** 2

    def v1(x):
        sn, _, _ = jacobi_sn_cn_dn(np.asarray(x, dtype=float), m)
        return shift + 6.0 * m * np.asarray(sn) ** 2

    def w(x):
        sn, cn, dn = jacobi_sn_cn_dn(np.asarray(x, dtype=float), m)
        return 6.0 * m * np.asarray(sn) * np.asarray(cn) * np.asarray(dn) / psi0(x)

    def v2(x):
        return 2.0 * np.asarray(w(x)) ** 2 - np.asarray(v1(x))

    v1.psi0 = psi0  # expose the analytic zero mode for residual checks
    return v1, w, v2


def numeric_band_edges(
    v: Callable, period: float, count: int, n_points: int = 1201
) -> list[BandEdge]:
    """Band edges by Bloch-sector diagonalization at kL in {0, pi}.

    Solves the periodic and antiperiodic problems over one period, merges the
    levels, and tags the sorted union by the oscillation theorem. count is
    the number of edges returned.
    """
    g = Grid(0.0, period, n_points)
    samples = sample(v, g)
    per_sector = count // 2 + 2
    merged = []
    for kL, tag in ((0.0, "L"), (math.pi, "2L")):
        for p in band_solve(samples, kL, per_sector):
            merged.append((p.energy, tag, p))
    merged.sort(key=lambda t: t[0])
    merged = merged[:count]
    tagged = _tag_edges([e for e, _, _ in merged])
    # keep the sector each level actually came from; it must match the pattern
    out = []
    for (e, sector_tag, pair), edge in zip(merged, tagged):
        if sector_tag != edge.period_tag:
            raise PeriodicError(
                f"band edge at E={e:.6f} came from the {sector_tag} sector but the "
                f"oscillation theorem expects {edge.period_tag}; widen the grid"
            )
        out.append(BandEdge(e, sector_tag, edge.nodes_per_period, edge.which_band_boundary))
    return out


def band_edge_states(
    v: Callable, period: float, count: int, n_points: int = 1201
) -> list[tuple[BandEdge, EigenPair]]:
    """numeric_band_edges plus the corresponding Bloch eigenvectors."""
    g = Grid(0.0, period, n_points)
    samples = sample(v, g)
    per_sector = count // 2 + 2
    merged = []
    for kL in (0.0, math.pi):
        tag = "L" if kL == 0.0 else "2L"
        for p in band_solve(samples, kL, per_sector):
            merged.append((p.energy, tag, p))
    merged.sort(key=lambda t: t[0])
    merged = merged[:count]
    tagged = _tag_edges([e for e, _, _ in merged])
    return [
        (BandEdge(e, t, edge.nodes_per_period, edge.which_band_boundary), p)
        for (e, t, p), edge in zip(merged, tagged)
    ]


def hill_discriminant(
    v: Callable, period: float, energy: float, n_steps: int = 4000
) -> float:
    """Hill discriminant D(E): the trace of the one-period RK4 transfer matrix.

    |D| <= 2 inside allowed bands. The matrix comes from scattering.propagate.
    """
    return float(np.trace(propagate(v, 0.0, period, [energy], n_steps)[0]))
