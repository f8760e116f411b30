"""Catalog of shape-invariant potentials and the algebraic spectrum machinery.

Each entry packages a closed-form superpotential W(x; a1), the parameter map
a1 -> a2 and the closed-form spectrum E_n(a1). Shape invariance is
    V2(x; a1) = V1(x; a2) + R(a1),
with an x-independent remainder R. Since V1 has E_0 = 0, the ground level of
V2 is R(a1) and also E_1(a1), so R(a1) = E_1(a1) needs no formula of its own
(Gendenshtein, JETP Lett. 38 (1983) 356). The spectrum is then
E_n = sum_{k<n} R(a_k), which sip_spectrum checks against E_n(a1). Wave
functions are built by the ladder-operator chain from the ground state, not
from special polynomials. Units are hbar = 2m = 1 throughout the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .core import Superpotential, apply_Adag, ground_state_from_w, normalized
from .eigensolver import EigenPair
from .grids import Grid, SampledFunction
from .special import csch, sech


class CatalogError(ValueError):
    pass


@dataclass(frozen=True)
class SipEntry:
    """One shape-invariant potential with its algebraic data."""

    name: str
    params: dict
    w_of: Callable  # (x, params) -> W
    w_prime_of: Callable  # (x, params) -> W'
    step: Callable  # params -> params of the partner
    energy_closed: Callable  # (n, params) -> E_n
    domain: tuple[float, float]
    wall_lo: bool = False  # singular/confining wall at the left endpoint
    wall_hi: bool = False
    n_bound: Optional[int] = None  # None: infinitely many bound states
    w_minus: Optional[float] = None  # finite asymptote => scattering supported
    w_plus: Optional[float] = None
    box: tuple[float, float] = (-10.0, 10.0)  # numeric window (walls clipped to domain)

    def superpotential(self, params: Optional[dict] = None) -> Superpotential:
        """W at params (default: the entry's), with p's own finite asymptotes.

        The limits are W(-+inf; p) on the sides where the entry declares a
        finite asymptote, so they follow p along the parameter chain.
        """
        p = dict(self.params if params is None else params)

        def limit(declared, end):
            return None if declared is None else float(self.w_of(np.asarray(end), p))

        return Superpotential(
            w=lambda x: self.w_of(np.asarray(x, dtype=float), p),
            w_prime=lambda x: self.w_prime_of(np.asarray(x, dtype=float), p),
            domain=self.domain,
            w_minus=limit(self.w_minus, -math.inf),
            w_plus=limit(self.w_plus, math.inf),
        )

    def v1(self, x, params: Optional[dict] = None):
        return self.superpotential(params).v1(x)

    def v2(self, x, params: Optional[dict] = None):
        return self.superpotential(params).v2(x)

    def remainder(self, params: dict) -> float:
        """R(a1) in V2(x; a1) = V1(x; a2) + R(a1): the first level E_1(a1)."""
        return self.energy_closed(1, params)

    def param_chain(self, depth: int) -> list[dict]:
        chain = [dict(self.params)]
        for _ in range(depth):
            chain.append(self.step(chain[-1]))
        return chain


# ---------------------------------------------------------------------------
# entry builders
# ---------------------------------------------------------------------------


def _shifted_oscillator(omega=2.0, b=0.0):
    if omega <= 0:
        raise CatalogError("shifted oscillator needs omega > 0")
    half_w = 8.0 / math.sqrt(omega / 2.0)
    x0 = 2.0 * b / omega
    return SipEntry(
        name="shifted_oscillator",
        params={"omega": omega, "b": b},
        w_of=lambda x, p: 0.5 * p["omega"] * x - p["b"],
        w_prime_of=lambda x, p: np.full_like(x, 0.5 * p["omega"]),
        step=lambda p: dict(p),
        energy_closed=lambda n, p: n * p["omega"],
        domain=(-math.inf, math.inf),
        box=(x0 - half_w, x0 + half_w),
    )


def _oscillator_3d(omega=2.0, l=0.0):
    if omega <= 0 or l < 0:
        raise CatalogError("3-D oscillator needs omega > 0 and l >= 0")
    return SipEntry(
        name="oscillator_3d",
        params={"omega": omega, "l": l},
        w_of=lambda r, p: 0.5 * p["omega"] * r - (p["l"] + 1.0) / r,
        w_prime_of=lambda r, p: 0.5 * p["omega"] + (p["l"] + 1.0) / r**2,
        step=lambda p: {**p, "l": p["l"] + 1.0},
        energy_closed=lambda n, p: 2.0 * n * p["omega"],
        domain=(0.0, math.inf),
        wall_lo=True,
        box=(0.0, 6.0 * 8.0 / 8.0 / math.sqrt(omega / 2.0) + 6.0),
    )


def _coulomb(e2=2.0, l=0.0):
    if e2 <= 0 or l < 0:
        raise CatalogError("coulomb needs e2 > 0 and l >= 0")
    return SipEntry(
        name="coulomb",
        params={"e2": e2, "l": l},
        w_of=lambda r, p: p["e2"] / (2.0 * (p["l"] + 1.0)) - (p["l"] + 1.0) / r,
        w_prime_of=lambda r, p: (p["l"] + 1.0) / r**2,
        step=lambda p: {**p, "l": p["l"] + 1.0},
        energy_closed=lambda n, p: (p["e2"] ** 2 / 4.0)
        * (1.0 / (p["l"] + 1.0) ** 2 - 1.0 / (n + p["l"] + 1.0) ** 2),
        domain=(0.0, math.inf),
        wall_lo=True,
        box=(0.0, 100.0 * 2.0 / e2),
        w_plus=e2 / (2.0 * (l + 1.0)),
    )


def _morse(A=3.0, B=1.0, alpha=1.0, x0=0.0):
    if A <= 0 or B <= 0 or alpha <= 0:
        raise CatalogError("morse needs A, B, alpha > 0")
    return SipEntry(
        name="morse",
        params={"A": A, "B": B, "alpha": alpha, "x0": x0},
        w_of=lambda x, p: p["A"] - p["B"] * np.exp(-p["alpha"] * (x + p["x0"])),
        w_prime_of=lambda x, p: p["alpha"] * p["B"] * np.exp(-p["alpha"] * (x + p["x0"])),
        step=lambda p: {**p, "A": p["A"] - p["alpha"]},
        energy_closed=lambda n, p: p["A"] ** 2 - (p["A"] - n * p["alpha"]) ** 2,
        domain=(-math.inf, math.inf),
        n_bound=_strict_count(A / alpha),
        box=(-x0 - 6.0 / alpha, -x0 + 30.0 / alpha + 12.0),
    )


def _scarf2(A=3.0, B=1.0, alpha=1.0, x0=0.0):
    if A <= 0 or alpha <= 0 or B < 0:
        raise CatalogError("scarf II needs A, alpha > 0 and B >= 0")
    return SipEntry(
        name="scarf2",
        params={"A": A, "B": B, "alpha": alpha, "x0": x0},
        w_of=lambda x, p: p["A"] * np.tanh(p["alpha"] * (x + p["x0"]))
        + p["B"] * sech(p["alpha"] * (x + p["x0"])),
        w_prime_of=lambda x, p: p["alpha"]
        * (
            p["A"] * sech(p["alpha"] * (x + p["x0"])) ** 2
            - p["B"] * sech(p["alpha"] * (x + p["x0"])) * np.tanh(p["alpha"] * (x + p["x0"]))
        ),
        step=lambda p: {**p, "A": p["A"] - p["alpha"]},
        energy_closed=lambda n, p: p["A"] ** 2 - (p["A"] - n * p["alpha"]) ** 2,
        domain=(-math.inf, math.inf),
        n_bound=_strict_count(A / alpha),
        w_minus=-A,
        w_plus=A,
        box=(-x0 - 16.0 / alpha, -x0 + 16.0 / alpha),
    )


def _sech2(B=2.0, alpha=1.0):
    """Reflectionless family: scarf II with no sech term, W = B tanh(alpha x)."""
    return replace(_scarf2(A=B, B=0.0, alpha=alpha), name="sech2")


def _rosen_morse2(A=4.0, B=1.0, alpha=1.0, x0=0.0):
    if not (A > 0 and alpha > 0 and 0 < B < A**2):
        raise CatalogError("rosen-morse II needs A, alpha > 0 and 0 < B < A^2")
    return SipEntry(
        name="rosen_morse2",
        params={"A": A, "B": B, "alpha": alpha, "x0": x0},
        w_of=lambda x, p: p["A"] * np.tanh(p["alpha"] * (x + p["x0"])) + p["B"] / p["A"],
        w_prime_of=lambda x, p: p["alpha"] * p["A"] * sech(p["alpha"] * (x + p["x0"])) ** 2,
        step=lambda p: {**p, "A": p["A"] - p["alpha"]},
        energy_closed=lambda n, p: (
            p["A"] ** 2
            - (p["A"] - n * p["alpha"]) ** 2
            + p["B"] ** 2 / p["A"] ** 2
            - p["B"] ** 2 / (p["A"] - n * p["alpha"]) ** 2
        ),
        domain=(-math.inf, math.inf),
        n_bound=_strict_count((A - math.sqrt(B)) / alpha),
        w_minus=-A + B / A,
        w_plus=A + B / A,
        box=(-x0 - 18.0 / alpha, -x0 + 18.0 / alpha),
    )


def _eckart(A=2.0, B=25.0, alpha=1.0):
    if not (A > 0 and alpha > 0 and B > A**2):
        raise CatalogError("eckart needs A, alpha > 0 and B > A^2")
    return SipEntry(
        name="eckart",
        params={"A": A, "B": B, "alpha": alpha},
        w_of=lambda r, p: -p["A"] / np.tanh(p["alpha"] * r) + p["B"] / p["A"],
        w_prime_of=lambda r, p: p["alpha"] * p["A"] * csch(p["alpha"] * r) ** 2,
        step=lambda p: {**p, "A": p["A"] + p["alpha"]},
        energy_closed=lambda n, p: (
            p["A"] ** 2
            - (p["A"] + n * p["alpha"]) ** 2
            + p["B"] ** 2 / p["A"] ** 2
            - p["B"] ** 2 / (p["A"] + n * p["alpha"]) ** 2
        ),
        domain=(0.0, math.inf),
        wall_lo=True,
        n_bound=_strict_count((math.sqrt(B) - A) / alpha),
        w_plus=-A + B / A,
        box=(0.0, 22.0 / alpha),
    )


def _scarf1(A=3.0, B=1.0, alpha=1.0):
    if not (A > 0 and alpha > 0 and 0 <= B < A):
        raise CatalogError("scarf I needs A > B >= 0 and alpha > 0")
    half = math.pi / (2.0 * alpha)
    return SipEntry(
        name="scarf1",
        params={"A": A, "B": B, "alpha": alpha},
        w_of=lambda x, p: p["A"] * np.tan(p["alpha"] * x) - p["B"] / np.cos(p["alpha"] * x),
        w_prime_of=lambda x, p: p["alpha"]
        * (
            p["A"] / np.cos(p["alpha"] * x) ** 2
            - p["B"] * np.tan(p["alpha"] * x) / np.cos(p["alpha"] * x)
        ),
        step=lambda p: {**p, "A": p["A"] + p["alpha"]},
        energy_closed=lambda n, p: (p["A"] + n * p["alpha"]) ** 2 - p["A"] ** 2,
        domain=(-half, half),
        wall_lo=True,
        wall_hi=True,
        box=(-half, half),
    )


def _poschl_teller(A=3.0, B=5.0, alpha=1.0):
    if not (0 < A < B and alpha > 0):
        raise CatalogError("poschl-teller needs 0 < A < B and alpha > 0")
    return SipEntry(
        name="poschl_teller",
        params={"A": A, "B": B, "alpha": alpha},
        w_of=lambda r, p: p["A"] / np.tanh(p["alpha"] * r) - p["B"] * csch(p["alpha"] * r),
        w_prime_of=lambda r, p: p["alpha"]
        * (
            -p["A"] * csch(p["alpha"] * r) ** 2
            + p["B"] * csch(p["alpha"] * r) / np.tanh(p["alpha"] * r)
        ),
        step=lambda p: {**p, "A": p["A"] - p["alpha"]},
        energy_closed=lambda n, p: p["A"] ** 2 - (p["A"] - n * p["alpha"]) ** 2,
        domain=(0.0, math.inf),
        wall_lo=True,
        n_bound=_strict_count(A / alpha),
        w_plus=A,
        box=(0.0, 36.0 / alpha),
    )


def _rosen_morse1(A=2.0, B=1.0, alpha=1.0):
    if not (A > 0 and alpha > 0 and B >= 0):
        raise CatalogError("rosen-morse I needs A, alpha > 0 and B >= 0")
    return SipEntry(
        name="rosen_morse1",
        params={"A": A, "B": B, "alpha": alpha},
        w_of=lambda x, p: -p["A"] / np.tan(p["alpha"] * x) - p["B"] / p["A"],
        w_prime_of=lambda x, p: p["alpha"] * p["A"] / np.sin(p["alpha"] * x) ** 2,
        step=lambda p: {**p, "A": p["A"] + p["alpha"]},
        energy_closed=lambda n, p: (
            (p["A"] + n * p["alpha"]) ** 2
            - p["A"] ** 2
            + p["B"] ** 2 / p["A"] ** 2
            - p["B"] ** 2 / (p["A"] + n * p["alpha"]) ** 2
        ),
        domain=(0.0, math.pi / alpha),
        wall_lo=True,
        wall_hi=True,
        box=(0.0, math.pi / alpha),
    )


def _strict_count(ratio: float) -> int:
    """Number of n with n < ratio (strict), for finite bound-state families."""
    n = math.ceil(ratio) - 1 if ratio == int(ratio) else math.floor(ratio)
    return max(int(n) + 1, 0)


_BUILDERS = {
    "shifted_oscillator": _shifted_oscillator,
    "oscillator_3d": _oscillator_3d,
    "coulomb": _coulomb,
    "morse": _morse,
    "scarf2": _scarf2,
    "rosen_morse2": _rosen_morse2,
    "eckart": _eckart,
    "scarf1": _scarf1,
    "poschl_teller": _poschl_teller,
    "rosen_morse1": _rosen_morse1,
    "sech2": _sech2,
}

CATALOG_NAMES = [n for n in _BUILDERS if n != "sech2"]


def sip_lookup(name: str, check_residual: bool = True, **params) -> SipEntry:
    """Fetch a catalog entry; validates constraints and the defining residual."""
    key = name.lower().replace("-", "_")
    if key not in _BUILDERS:
        raise CatalogError(f"unknown potential {name!r}; known: {sorted(_BUILDERS)}")
    entry = _BUILDERS[key](**params)
    if check_residual:
        res = shape_invariance_residual(entry)
        if res > 1e-9:
            raise CatalogError(f"shape-invariance residual {res:.2e} for {name}")
    return entry


def _test_grid(entry: SipEntry, n: int = 801) -> np.ndarray:
    lo, hi = entry.box
    span = hi - lo
    return np.linspace(lo + 0.05 * span + 1e-3, hi - 0.05 * span - 1e-3, n)


def shape_invariance_residual(entry: SipEntry) -> float:
    """max_x |V2(x; a1) - V1(x; a2) - R(a1)| on a dense interior grid."""
    p1 = entry.params
    p2 = entry.step(p1)
    x = _test_grid(entry)
    res = entry.v2(x, p1) - entry.v1(x, p2) - entry.remainder(p1)
    return float(np.max(np.abs(res)))


def sip_spectrum(entry: SipEntry, n_max: int) -> tuple[list[float], bool]:
    """Energies E_0..E_n via the remainder sum, cross-checked against closed form.

    Returns (levels, truncated); truncated is True when the bound-state count
    cuts the list short of the request.
    """
    levels_wanted = n_max + 1
    truncated = False
    if entry.n_bound is not None and levels_wanted > entry.n_bound:
        levels_wanted = entry.n_bound
        truncated = True
    chain = entry.param_chain(levels_wanted)
    energies = [0.0]
    acc = 0.0
    for k in range(1, levels_wanted):
        acc += entry.remainder(chain[k - 1])
        energies.append(acc)
    for n, e in enumerate(energies):
        closed = entry.energy_closed(n, entry.params)
        if abs(e - closed) > 1e-12 * max(1.0, abs(closed)):
            raise CatalogError(
                f"{entry.name}: remainder sum {e} != closed form {closed} at n={n}"
            )
    return energies, truncated


def sip_eigenfunction(entry: SipEntry, n: int, grid: Grid) -> SampledFunction:
    """n-th bound state by the ladder chain Adag(a1)...Adag(a_n) psi0(a_{n+1})."""
    spectrum, truncated = sip_spectrum(entry, n)
    if truncated or n >= len(spectrum):
        raise CatalogError(f"{entry.name} has no bound state n={n}")
    chain = entry.param_chain(n)
    psi = ground_state_from_w(entry.superpotential(chain[n]), grid)
    for k in range(n - 1, -1, -1):
        psi = apply_Adag(entry.superpotential(chain[k]), psi)
    return normalized(psi)


def hierarchy_potential(entry: SipEntry, s: int):
    """Potential of the s-th hierarchy member: V1(x; a_s) + sum_{k<s} R(a_k).

    Its spectrum equals the base spectrum with the lowest s-1 levels removed.
    Returns (callable, ground_energy_shift).
    """
    if s < 1:
        raise CatalogError("hierarchy depth starts at s = 1")
    chain = entry.param_chain(s - 1)
    shift = sum(entry.remainder(chain[k]) for k in range(s - 1))

    def v(x):
        return entry.v1(x, chain[s - 1]) + shift

    return v, shift


def well_hierarchy_potential(p: int, L: float = math.pi):
    """Infinite-well ladder member: p(p+1)/sin^2(pi x/L) - p^2 (times pi^2/L^2).

    This is the discrete family generated by repeatedly factorizing the
    square well with each member re-zeroed before factorization; its ground
    state is sin^{p+1}(pi x/L).
    """
    k = math.pi / L

    def v(x):
        x = np.asarray(x, dtype=float)
        if p == 0:
            return np.zeros_like(x) * k**2
        return k**2 * (p * (p + 1) / np.sin(k * x) ** 2 - p**2)

    return v


def numeric_levels(entry: SipEntry, count: int, n_points: int = 4001) -> list[EigenPair]:
    """Numeric spectrum of V1 on the entry's domain (independent oracle).

    The spectral engine picks its basis from the entry's walls: the
    sinh-mapped sine DVR for wells with no wall, the Lagrange-Laguerre mesh on
    [box[0], inf) for a wall only at the left end (the box length sets its
    scales), and the Lagrange-Jacobi mesh on the box for a wall at both ends.
    Each end where the domain is infinite is open (None in walls): there the
    DVR's nodes reach 3000 past the well's centre instead of stopping at the
    box, unless V1 is not finite or above 1e6 that far out, and a level at
    or above V1 at the far node is flagged as not bound. The map is centred
    at V1's minimum in the box (its centre for an even V1) with twice the
    well's oscillator length as its scale. At each wall psi goes as d^s with
    s = lim -+d W, the exponent of the ground state exp(-int W): W picks the
    self-adjoint extension, also where V1 ~ s (s - 1)/d^2 admits d^(1 - s)
    as well, while the energies still come from V1 alone. Levels converge to
    1e-10 relative, and psi is returned on Grid(*box, n_points).
    """
    from .spectral import _ground_state_exponent, spectral_bound_states

    lo, hi = entry.box
    w = entry.superpotential().w
    walls = tuple(
        _ground_state_exponent(w, wall, hi - lo, sense) if on else (None if math.isinf(end) else False)
        for wall, sense, on, end in zip(entry.box, (1.0, -1.0), (entry.wall_lo, entry.wall_hi), entry.domain)
    )
    return spectral_bound_states(entry.v1, entry.box, count, walls=walls, n_points=n_points)


def numeric_grid(entry: SipEntry, n_points: int = 4001) -> Grid:
    """Interior grid slightly inside the box, safe for superpotential sampling."""
    lo, hi = entry.box
    pad_lo = 1e-4 * (hi - lo) if entry.wall_lo else 0.0
    pad_hi = 1e-4 * (hi - lo) if entry.wall_hi else 0.0
    return Grid(lo + pad_lo, hi - pad_hi, n_points)
