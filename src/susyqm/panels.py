"""Gauss-Legendre panel tables of ln psi0^2, ln I and ln J for the isospectral members.

psi0 ~ exp(-(1/c) int W) is the normalized zero mode of a superpotential W,
I(x) = int_-inf^x psi0^2 and J = 1 - I. IsoFamily.member reads all three at
any x of the family's grid from tables at the nodes of Gauss-Legendre panels:
W is integrated panel by panel with the rule's spectral integration matrix,
I and J are accumulated from opposite ends in logarithms, so that neither
underflows nor cancels, and a point is read by barycentric interpolation in
its panel. For W = x on (-16, 16) the member it gives is within 4e-15 of the
closed form (I = (1 + erf x)/2) relative to max(1, |V|), for lam in {0.3, 1,
10, -1.5, -11}, out to |x| = 30.

The boundary members lam = 0 and -1 divide by I (J) itself, so there the
tables' relative accuracy in I (J) counts where it is small. A panel's
partial integrals err by about eps times its largest psi0^2, and psi0^2
varies by exp(2 int W / c) across a panel, so for W = x the lam = 0 member
is within 4e-13 of the closed form at x = -6, 6e-12 at -8, 5e-9 at -10 and
1e-6 at -12, where the bound states' psi^2 is below e^-64 of its peak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Superpotential

_PANEL = 0.5  # the panels are at most this wide ...
_NODES = 20  # ... with this many Gauss-Legendre nodes each
_CHUNK = 256  # points interpolated at a time, so that no temporary holds more than _CHUNK x _NODES entries


def _rule(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1]: ascending nodes t, weights,
    the integration matrix S with (S f)_i = int_-1^t_i of f's interpolant, and
    the barycentric weights. Newton's method on P_n from Tricomi's guesses
    gives the nodes. With a_k = (2k + 1)/2 sum_j w_j P_k(t_j) f_j the Legendre
    coefficients of the interpolant (the rule is exact for P_k P_j, k + j < 2n)
    and int_-1^t P_k = (P_(k+1) - P_(k-1))(t) / (2k + 1), t + 1 for k = 0,
    S_ij = sum_k c_k(t_i) P_k(t_j) w_j with c_0 = (t + 1)/2 and
    c_k = (P_(k+1) - P_(k-1))/2."""
    t = -np.cos(math.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(8):
        p = _legendre(n, t)
        t = t - p[n] * (t * t - 1.0) / (n * (t * p[n] - p[n - 1]))  # P_n' = n (t P_n - P_(n-1)) / (t^2 - 1)
    p = _legendre(n, t)
    weights = 2.0 * (1.0 - t * t) / (n * p[n - 1]) ** 2  # 2 / ((1 - t^2) P_n'^2)
    c = np.vstack(((t + 1.0) / 2.0, (p[2:] - p[:-2]) / 2.0))  # c_0 .. c_(n-1) at t
    integrate = np.einsum("ki,kj,j->ij", c, p[:n], weights)
    bary = np.where(np.arange(n) % 2, -1.0, 1.0) * np.sqrt((1.0 - t * t) * weights)
    return t, weights, integrate, bary


def _legendre(n: int, t: np.ndarray) -> np.ndarray:
    """P_0 .. P_n at t, by the three-term recurrence."""
    p = np.empty((n + 1, t.size))
    p[0], p[1] = 1.0, t
    for k in range(1, n):
        p[k + 1] = ((2 * k + 1) * t * p[k] - k * p[k - 1]) / (k + 1)
    return p


@dataclass(frozen=True)
class LogTables:
    """ln (psi0^2, I, J) at the _NODES Gauss-Legendre nodes of each panel of
    width `width` from x_min on; `logs` has shape (panels, 3, _NODES). The
    tables keep the rule's nodes on [-1, 1] and barycentric weights."""

    x_min: float
    width: float
    logs: np.ndarray
    nodes: np.ndarray
    bary: np.ndarray

    @classmethod
    def build(cls, w: Superpotential, lo: float, hi: float) -> "LogTables":
        """The tables over [lo, hi] in panels of width at most _PANEL.

        ln psi0^2 = -(2/c) int W. Each panel's partial integrals of psi0^2
        are taken relative to its largest node value, and the panel totals
        are summed with logaddexp: I from the tail seed c psi0^2 / (2|W|) at
        lo, J from the one at hi, both then divided by their common total,
        the norm.
        """
        c = w.c
        count = math.ceil((hi - lo) / _PANEL - 1e-9)
        h = (hi - lo) / count
        t, weights, integrate, bary = _rule(_NODES)
        wv = np.asarray(w.w(lo + h * (np.arange(count)[:, None] + 0.5 * (t + 1.0))), dtype=float)
        steps = -(h / c) * np.einsum("j,pj->p", weights, wv)
        # ln psi0^2 at the panel ends, summed outward from the largest so that
        # its rounding stays at eps |ln psi0^2|, small where psi0 is not
        peak = int(np.argmax(np.cumsum(steps)))
        ends = np.zeros(count + 1)
        ends[peak + 2 :] = np.cumsum(steps[peak + 1 :])
        ends[: peak + 1] = -np.cumsum(steps[peak::-1])[::-1]
        ell = ends[:-1, None] - (h / c) * np.einsum("ij,pj->pi", integrate, wv)
        top = ell.max(axis=1)
        scaled = np.exp(ell - top[:, None])
        with np.errstate(divide="ignore"):
            whole = top + np.log(0.5 * h * np.einsum("j,pj->p", weights, scaled))
            up = np.log(np.maximum(0.5 * h * np.einsum("ij,pj->pi", integrate, scaled), 0.0))
            down = np.log(np.maximum(0.5 * h * np.einsum("ij,pj->pi", integrate[::-1, ::-1], scaled), 0.0))
        w_lo, w_hi = (float(w.w(np.array(end))) for end in (lo, hi))
        seed_lo = ends[0] + math.log(c / (2.0 * max(-w_lo, 1e-12)))
        seed_hi = ends[-1] + math.log(c / (2.0 * max(w_hi, 1e-12)))
        left = np.logaddexp.accumulate(np.concatenate(([seed_lo], whole)))  # ln I at the panel ends
        right = np.logaddexp.accumulate(np.concatenate(([seed_hi], whole[::-1])))[::-1]  # ln J at the panel ends
        log_i = np.logaddexp(left[:-1, None], top[:, None] + up)
        log_j = np.logaddexp(right[1:, None], top[:, None] + down)
        return cls(lo, h, np.stack((ell, log_i, log_j), axis=1) - right[0], t, bary)

    def at(self, x: np.ndarray) -> np.ndarray:
        """ln (psi0^2, I, J) at x in the tables' span, shape (3, x.size), by
        barycentric interpolation in each point's panel, _CHUNK points at a time."""
        lo, h = self.x_min, self.width
        panel = np.minimum(((x - lo) // h).astype(int), self.logs.shape[0] - 1)
        local = (2.0 / h) * (x - lo - h * panel) - 1.0
        out = np.empty((3, x.size))
        for start in range(0, x.size, _CHUNK):
            rows = slice(start, start + _CHUNK)
            d = local[rows, None] - self.nodes
            d[d == 0.0] = 1e-300  # a point on a node: that node's weight swamps the others'
            k = self.bary / d
            out[:, rows] = np.einsum("pj,pqj->qp", k, self.logs[panel[rows]]) / k.sum(axis=1)
        return out
