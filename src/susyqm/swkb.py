"""Semiclassical quantizers: ordinary WKB and the SUSY-inspired SWKB rule.

For a single-well profile U(x) (U = V for WKB, U = W^2 for SWKB) the action
    S(E) = int_a^b sqrt(E - U) dx,   U(a) = U(b) = E,
in the catalog's units hbar = 2m = 1, is monotone in E and the quantization
targets are
    WKB:      S = (n + 1/2) pi,
    SWKB V1:  S = n pi,
    SWKB V2:  S = (n + 1) pi.
The inverse-square-root endpoint singularity is removed by the substitution
x = mid + halfwidth * sin(theta), after which Gauss-Legendre quadrature
converges spectrally. The turning points and the level energy are both
found with Brent's zero finder (R. P. Brent, Algorithms for Minimization
without Derivatives, 1973), a pure-Python port of `scipy.optimize.brentq`,
step for step, so the levels are bit for bit those of scipy while the module
loads no scipy. A problem keeps its scan of the well and every S(E) its
levels have needed, so the bracket ends that levels share are integrated
once, and each turning-point search starts from the scan's own values at
its cell's two nodes. The SWKB V1 ground level needs no search in E: at
E = 0 the turning points meet at the zero x0 of W, so E0 = W(x0)^2, which
is 0 up to roundoff (Comtet, Bandrauk & Campbell, Phys. Lett. B 150 (1985)
159). SWKB reproduces the exact spectrum for every shape-invariant entry;
ordinary WKB is exact only for the oscillator and Morse wells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .catalog import SipEntry, numeric_grid, sip_spectrum

# intervals in the uniform scan of the window that locates turning points
_N_SCAN = 4000
# Gauss-Legendre nodes of the action integral
_N_QUAD = 256
# the highest level exactness_audit compares
_AUDIT_N_MAX = 5


class QuantizeError(ValueError):
    pass


# scipy.optimize.brentq's default relative tolerance, 4 eps
_RTOL = 4.0 * np.finfo(float).eps


def _brentq(
    f: Callable[[float], float],
    a: float,
    b: float,
    xtol: float,
    maxiter: int = 100,
    ends: tuple[float, float] | None = None,
) -> float:
    """A root of f in [a, b] by Brent's method: scipy's C brentq, step for step.

    xpre is the previous iterate, xcur the current one and xblk the contrapoint
    whose f has the opposite sign; spre and scur are the last two steps. An
    inverse quadratic (or secant) step is taken while it is short enough,
    else the bracket is bisected. ends, when given, are the known f(a) and
    f(b), which are then not evaluated again. Raises QuantizeError where scipy
    raises: f(a) and f(b) of one sign, a NaN value, or no convergence in
    maxiter steps.
    """

    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise QuantizeError(f"the function value at x={x} is NaN; Brent cannot continue")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = (call(xpre), call(xcur)) if ends is None else (float(ends[0]), float(ends[1]))
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise QuantizeError(f"f({a}) and f({b}) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise QuantizeError(f"Brent's method did not converge in {maxiter} iterations, x={xcur}")


class Mode(Enum):
    WKB = "wkb"
    SWKB_V1 = "swkb_v1"
    SWKB_V2 = "swkb_v2"


@dataclass(frozen=True)
class QuantizationProblem:
    """A semiclassical level problem on a finite search window, at hbar = 2m = 1.

    profile is V(x) for WKB and W(x) for the SWKB modes; the well that enters
    the action is V or W^2 accordingly. window must contain both turning
    points for every energy of interest.
    """

    mode: Mode
    profile: Callable[[np.ndarray], np.ndarray]
    window: tuple[float, float]

    def well(self, x):
        u = np.asarray(self.profile(np.asarray(x, dtype=float)), dtype=float)
        return u if self.mode is Mode.WKB else u**2

    @cached_property
    def scan(self) -> tuple[np.ndarray, np.ndarray]:
        """The window's uniform scan nodes and the well sampled on them."""
        xs = np.linspace(*self.window, _N_SCAN + 1)
        return xs, self.well(xs)

    @cached_property
    def actions(self) -> dict[float, float]:
        """S(E) by E, as quantize has computed it: every level of the problem reads it."""
        return {}

    def target(self, n: int) -> float:
        if n < 0:
            raise QuantizeError("level index must be non-negative")
        offset = {Mode.WKB: 0.5, Mode.SWKB_V1: 0.0, Mode.SWKB_V2: 1.0}[self.mode]
        return (n + offset) * math.pi


@lru_cache(maxsize=None)
def _sine_gauss_rule(n_quad: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes sin(theta_i) and folded weights (pi/2) w_i cos(theta_i).

    (theta_i, w_i) is the n_quad-point Gauss-Legendre rule mapped onto
    [-pi/2, pi/2]. With x = sin(theta), int_{-1}^{1} f(x) dx is approximated
    by weights @ f(nodes), which converges spectrally for an f that vanishes
    like a square root at both ends. Every caller shares the arrays, so they
    are read-only.
    """
    t, w = np.polynomial.legendre.leggauss(n_quad)
    theta = 0.5 * math.pi * t
    nodes, weights = np.sin(theta), 0.5 * math.pi * w * np.cos(theta)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def turning_points(problem: QuantizationProblem, energy: float) -> tuple[float, float]:
    """The two roots of E - U(x) on the window, refined by Brent's method to 1e-14.

    The problem's scan locates them: a node where E - U is 0, or a cell
    (x_i, x_i+1) where it changes sign. Brent's method on a cell starts from
    the scan's values at its ends, so it brackets exactly the sign change the
    scan saw and evaluates U only inside the cell.
    """
    xs, u = problem.scan
    gaps = energy - u
    s = np.sign(gaps)
    on_node = np.flatnonzero(s == 0.0)
    flips = np.flatnonzero(s[:-1] * s[1:] < 0)
    found = on_node.size + flips.size
    if found != 2:
        raise QuantizeError(
            f"expected exactly 2 turning points at E={energy}, found {found}"
        )

    def gap(x):
        return energy - float(problem.well(x))

    # a root on node i precedes the crossing in (x_i, x_i+1)
    order = np.argsort(np.concatenate([on_node, flips + 0.5]))
    roots = [xs[i] for i in on_node]
    roots += [_brentq(gap, xs[i], xs[i + 1], 1e-14, ends=(gaps[i], gaps[i + 1])) for i in flips]
    a, b = (float(roots[k]) for k in order)
    return a, b


def action_integral(problem: QuantizationProblem, energy: float) -> float:
    """S(E) = int_a^b sqrt(E - U) dx with singularity-free quadrature."""
    well_min = float(problem.scan[1].min())
    if energy <= well_min + 1e-14 * max(1.0, abs(well_min)):
        return 0.0
    a, b = turning_points(problem, energy)
    mid, halfw = 0.5 * (a + b), 0.5 * (b - a)
    nodes, weights = _sine_gauss_rule(_N_QUAD)
    integrand = energy - problem.well(mid + halfw * nodes)
    return halfw * float(weights @ np.sqrt(np.maximum(integrand, 0.0)))


def quantize(problem: QuantizationProblem, n: int) -> float:
    """Energy of level n: root of S(E) = target by Brent's method in E, to 1e-13.

    The bracket starts at the well minimum, where S = 0, and its upper end
    grows geometrically until S reaches the target. S(E) is read through
    problem.actions, so the ends the growth loop tries for one level, which
    recur for every level above it, are integrated once per problem. The
    SWKB V1 ground level (target 0) is W(x0)^2 at the zero x0 of W, found by
    Brent's method on W between the scan nodes either side of min W^2; a W
    that keeps one sign there (broken SUSY) has no such level and raises
    QuantizeError.
    """
    target = problem.target(n)
    xs, wvals = problem.scan
    well_min = float(np.min(wvals))
    edge = float(min(wvals[0], wvals[-1]))
    if target == 0.0:
        i = int(np.argmin(wvals))
        lo_b, hi_b = xs[max(i - 1, 0)], xs[min(i + 1, xs.size - 1)]
        w = lambda x: float(problem.profile(np.asarray(x)))
        if w(lo_b) * w(hi_b) > 0:
            raise QuantizeError("SWKB's n = 0 level needs W to change sign (unbroken SUSY)")
        return float(problem.well(_brentq(w, lo_b, hi_b, xtol=1e-14)))

    actions = problem.actions

    def f(e):
        if e not in actions:
            actions[e] = action_integral(problem, e)
        return actions[e] - target

    cap = edge - 1e-9 * max(1.0, abs(edge))
    hi = min(well_min + max(1.0, abs(well_min)), cap)
    while f(hi) < 0:
        if hi >= cap:
            raise QuantizeError(f"level n={n} lies above the continuum edge {edge}")
        hi = min(well_min + 2.0 * (hi - well_min), cap)
    return _brentq(f, well_min, hi, xtol=1e-13)


@dataclass(frozen=True)
class AuditRow:
    entry: str
    mode: str
    n: int
    e_exact: float
    e_semiclassical: float

    @property
    def error(self) -> float:
        return abs(self.e_semiclassical - self.e_exact)

    @property
    def exact(self) -> bool:
        return self.error <= 1e-7 * max(1.0, abs(self.e_exact))


# entries whose full-line V1 is a textbook single well where plain WKB applies
WKB_APPLICABLE = {"shifted_oscillator", "morse"}


def problem_for_entry(
    entry: SipEntry, mode: Mode = Mode.SWKB_V1, n_points: int = 2001, e_top: float | None = None
) -> QuantizationProblem:
    """SWKB/WKB problem on the entry's working window.

    e_top, when given, is the highest level the problem must hold: at an open
    end of the domain where the well is at or below e_top, the window doubles
    outwards for as long as the well there still rises.
    """
    g = numeric_grid(entry, n_points)
    w = entry.superpotential()
    profile = w.w if mode is not Mode.WKB else (lambda x: w.v1(x))
    prob = QuantizationProblem(mode=mode, profile=profile, window=(g.x_min, g.x_max))
    if e_top is None:
        return prob
    window = [g.x_min, g.x_max]
    for i, sense in ((0, -1.0), (1, 1.0)):
        u = float(prob.well(window[i])) if math.isinf(entry.domain[i]) else math.inf
        while u <= e_top:
            out = window[i] + sense * (window[1] - window[0])
            u_out = float(prob.well(out))
            if not u_out > u:
                break
            window[i], u = out, u_out
    return replace(prob, window=tuple(window))


def exactness_audit(entries: list[SipEntry]) -> list[AuditRow]:
    """Per-entry comparison of SWKB (and WKB where sensible) to E_n for n <= _AUDIT_N_MAX."""
    rows = []
    for entry in entries:
        spec, _ = sip_spectrum(entry, _AUDIT_N_MAX)
        prob = problem_for_entry(entry, Mode.SWKB_V1, e_top=spec[-1])
        for n, e_exact in enumerate(spec):
            rows.append(AuditRow(entry.name, "swkb", n, e_exact, quantize(prob, n)))
        if entry.name in WKB_APPLICABLE:
            prob_w = problem_for_entry(entry, Mode.WKB, e_top=spec[-1])
            for n, e_exact in enumerate(spec):
                e = quantize(prob_w, n)
                rows.append(AuditRow(entry.name, "wkb", n, e_exact, e))
    return rows
