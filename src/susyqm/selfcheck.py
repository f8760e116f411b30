"""End-to-end invariant suite: eleven cross-module consistency checks.

Each check exercises a published closed-form result against this package's
independent numerics and returns a CheckResult. The CLI `check` subcommand
runs all of them and fails (exit 1) if any check fails; the test suite runs
them one per test. Everything is deterministic and sized to finish in well
under five minutes single-threaded.
"""

from __future__ import annotations

import cmath
import math
import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .catalog import (
    CATALOG_NAMES,
    numeric_grid,
    numeric_levels,
    shape_invariance_residual,
    sip_lookup,
    sip_spectrum,
    well_hierarchy_potential,
)
from .core import algebra_check, map_to_partner, Superpotential
from .eigensolver import bound_states
from .grids import Grid, SampledFunction, integrate
from .isospectral import IsoFamily, conserved_charges, pursey_abraham_moses
from .periodic import (
    LameSpec,
    PeriodicError,
    PeriodicSuperpotential,
    band_edge_states,
    classify_pair,
    lame_band_edges,
    lame_partner,
    lame_potential,
    numeric_band_edges,
    self_isospectral_classify,
)
from .scattering import numeric_rt_for, reflectionless_T
from .special import elliptic_K, jacobi_sn_cn_dn
from .swkb import Mode, QuantizeError, exactness_audit, problem_for_entry, quantize


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float = math.nan  # wall time of the check, set by run_all
    warnings: tuple[str, ...] = ()  # the distinct messages it warned, set by run_all


def _result(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name, bool(passed), detail)


def check_well_ladder() -> CheckResult:
    """Singular-well ladder p=0,1,2: levels n(n+2p+2) above a 2p+1 ground level."""
    from .spectral import spectral_bound_states  # on use: keeps scipy off `import selfcheck`

    name = "well ladder spectra and ground shapes"
    worst_e, worst_ov = 0.0, 0.0
    grid = Grid(0.0, math.pi, 4001)
    for p in (0, 1, 2):
        v = well_hierarchy_potential(p)
        levels = spectral_bound_states(v, (0.0, math.pi), 5, (True, True), grid.n_points)
        e0 = levels[0].energy
        worst_e = max(worst_e, abs(e0 - (2 * p + 1)))
        for n, pair in enumerate(levels):
            worst_e = max(worst_e, abs((pair.energy - e0) - n * (n + 2 * p + 2)))
        if levels[0].nodes != 0:
            return _result(name, False, f"p={p} ground state has {levels[0].nodes} nodes")
        shape = np.sin(grid.points) ** (p + 1)
        shape /= math.sqrt(integrate(SampledFunction(grid, shape**2)))
        ov = abs(integrate(SampledFunction(grid, shape * levels[0].psi.values)))
        worst_ov = max(worst_ov, 1.0 - ov)
    passed = worst_e <= 1e-4 and worst_ov <= 1e-6
    return _result(name, passed, f"max level dev {worst_e:.2e}, max 1-overlap {worst_ov:.2e}")


_DEGENERACY_ENTRIES = ["shifted_oscillator", "morse", "scarf2", "poschl_teller", "rosen_morse1"]


def check_degeneracy() -> CheckResult:
    """spec(H2) = spec(H1) \\ {0} and the first-order operators map states across."""
    name = "partner degeneracy and state mapping"
    worst_e, worst_map = 0.0, 0.0
    for entry_name in _DEGENERACY_ENTRIES:
        entry = sip_lookup(entry_name)
        w = entry.superpotential()
        grid = numeric_grid(entry, 4001)
        x = grid.points
        v1 = SampledFunction(grid, np.asarray(w.v1(x), dtype=float))
        v2 = SampledFunction(grid, np.asarray(w.v2(x), dtype=float))
        k = 2 if entry.n_bound is None or entry.n_bound >= 3 else entry.n_bound - 1
        lv1 = bound_states(v1, k + 1, check_decay=False)
        lv2 = bound_states(v2, k, check_decay=False)
        for n in range(k):
            worst_e = max(worst_e, abs(lv2[n].energy - lv1[n + 1].energy))
            mapped = map_to_partner(w, lv1[n + 1].psi, lv1[n + 1].energy)
            norm = integrate(mapped.map(lambda v: v**2))
            ov = abs(integrate(SampledFunction(grid, mapped.values * lv2[n].psi.values)))
            worst_map = max(worst_map, abs(norm - 1.0), 1.0 - ov / math.sqrt(norm))
    passed = worst_e <= 1e-5 and worst_map <= 1e-5
    return _result(name, passed, f"max level dev {worst_e:.2e}, max mapping dev {worst_map:.2e}")


def check_reflectionless() -> CheckResult:
    """Fully transparent wells: |R| ~ 0, T phase from the product formula."""
    name = "reflectionless scattering family"
    worst_r, worst_ph, worst_e = 0.0, 0.0, 0.0
    for p in (1, 2, 3):
        entry = sip_lookup("sech2", B=float(p))
        w = entry.superpotential()
        spectrum, _ = sip_spectrum(entry, p - 1)
        levels = numeric_levels(entry, len(spectrum))
        for n, e in enumerate(spectrum):
            worst_e = max(worst_e, abs(levels[n].energy - e))
        for k in (0.5, 1.0, 2.0):
            energy = k * k + p * p
            amp = numeric_rt_for(w, 1, energy, -16.0, 16.0, n_steps=6000)
            worst_r = max(worst_r, abs(amp.r))
            dph = cmath.phase(amp.t / reflectionless_T(p, k))
            worst_ph = max(worst_ph, abs(dph))
    passed = worst_r <= 1e-5 and worst_ph <= 1e-4 and worst_e <= 1e-5
    return _result(
        name,
        passed,
        f"max |R| {worst_r:.2e}, max T-phase dev {worst_ph:.2e}, max level dev {worst_e:.2e}",
    )


def _random_params(name: str, rng: np.random.Generator) -> dict:
    u = rng.uniform
    if name == "shifted_oscillator":
        return {"omega": u(0.5, 4.0), "b": u(-2.0, 2.0)}
    if name == "oscillator_3d":
        return {"omega": u(0.5, 4.0), "l": float(rng.integers(0, 4))}
    if name == "coulomb":
        return {"e2": u(0.5, 4.0), "l": float(rng.integers(0, 4))}
    if name in ("morse", "scarf2"):
        return {"A": u(1.0, 4.0), "B": u(0.5, 3.0), "alpha": u(0.5, 1.5)}
    if name == "rosen_morse2":
        a = u(2.0, 5.0)
        return {"A": a, "B": u(0.1, 0.8) * a * a, "alpha": u(0.5, 1.5)}
    if name == "eckart":
        a = u(1.0, 3.0)
        return {"A": a, "B": a * a * u(1.5, 4.0), "alpha": u(0.5, 1.5)}
    if name == "scarf1":
        a = u(1.0, 4.0)
        return {"A": a, "B": u(0.0, 0.9) * a, "alpha": u(0.5, 1.5)}
    if name == "poschl_teller":
        a = u(1.0, 3.0)
        return {"A": a, "B": a + u(0.5, 3.0), "alpha": u(0.5, 1.5)}
    if name == "rosen_morse1":
        return {"A": u(1.0, 3.0), "B": u(0.0, 2.0), "alpha": u(0.5, 1.5)}
    raise ValueError(name)


def check_shape_invariance() -> CheckResult:
    """V2(x; a1) - V1(x; a2) - R(a1) vanishes for random admissible parameters."""
    name = "shape-invariance residuals (random draws)"
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for entry_name in CATALOG_NAMES:
        for _ in range(5):
            params = _random_params(entry_name, rng)
            entry = sip_lookup(entry_name, check_residual=False, **params)
            worst = max(worst, shape_invariance_residual(entry))
    return _result(name, worst <= 1e-9, f"max residual {worst:.2e}")


def check_isospectral() -> CheckResult:
    """Deformed families keep the spectrum; invariants hold; boundary member loses one state."""
    name = "isospectral deformation family"
    entry = sip_lookup("shifted_oscillator")
    w = entry.superpotential()
    grid = Grid(-16.0, 16.0, 4001)
    fam = IsoFamily.build(w, grid)
    worst = 0.0
    for lam in (0.3, 1.0, 10.0):
        levels = bound_states(fam.potential(lam), 5, check_decay=False)
        for n, pair in enumerate(levels):
            worst = max(worst, abs(pair.energy - 2.0 * n))
    sech = sip_lookup("sech2", B=1.0)
    fam_s = IsoFamily.build(sech.superpotential(), Grid(-24.0, 24.0, 4001))
    charges = [conserved_charges(fam_s.potential(lam), 1.0) for lam in (0.5, 1.0, 10.0)]
    dq = max(
        max(abs(q1 - charges[0][0]), abs(q2 - charges[0][1])) for q1, q2 in charges[1:]
    )
    v_pursey, _ = pursey_abraham_moses(fam)
    pursey_levels = bound_states(v_pursey, 5, check_decay=False)
    base_count = 5  # oscillator levels 0,2,4,6,8 below E=9
    pursey_count = sum(1 for p in pursey_levels if p.energy < 9.0)
    passed = worst <= 1e-5 and dq <= 1e-5 and pursey_count == base_count - 1
    return _result(
        name,
        passed,
        f"max level dev {worst:.2e}, charge drift {dq:.2e}, "
        f"boundary-member bound count {pursey_count} vs base {base_count}",
    )


_WKB_CONTRAST_ENTRIES = ["scarf2", "poschl_teller", "rosen_morse1"]


def check_swkb_exactness() -> CheckResult:
    """SWKB reproduces every catalog spectrum; plain WKB only the two known wells."""
    name = "SWKB exactness across the catalog"
    entries = [sip_lookup(n) for n in CATALOG_NAMES]
    rows = exactness_audit(entries, n_max=5)
    bad = [r for r in rows if not r.exact]
    if bad:
        r = bad[0]
        return _result(name, False, f"{r.entry} n={r.n} {r.mode} err {r.error:.2e}")
    wkb_rows = [r for r in rows if r.mode == "wkb"]
    if any(not r.exact for r in wkb_rows):
        return _result(name, False, "WKB not exact for the oscillator/Morse wells")
    # plain WKB must deviate measurably elsewhere
    contrast = 0
    worst_detail = []
    for entry_name in _WKB_CONTRAST_ENTRIES:
        entry = sip_lookup(entry_name)
        prob = problem_for_entry(entry, Mode.WKB)
        spec, _ = sip_spectrum(entry, 1)
        e = quantize(prob, 1)
        rel = abs(e - spec[1]) / max(1.0, abs(spec[1]))
        worst_detail.append(f"{entry_name}:{rel:.1e}")
        if rel > 1e-3:
            contrast += 1
    passed = contrast >= 3
    return _result(
        name, passed, f"all SWKB exact; WKB n=1 deviations {', '.join(worst_detail)}"
    )


def check_swkb_ground() -> CheckResult:
    """The SWKB rule returns E0 = 0 identically for every unbroken entry."""
    name = "SWKB ground level exact by construction"
    worst = 0.0
    for entry_name in CATALOG_NAMES:
        prob = problem_for_entry(sip_lookup(entry_name), Mode.SWKB_V1)
        try:
            worst = max(worst, abs(quantize(prob, 0)))
        except QuantizeError as exc:
            return _result(name, False, f"{entry_name}: {exc}")
    return _result(name, worst <= 1e-10, f"max |E0| {worst:.2e}")


def _lame_edge_dev(a: int) -> float:
    """Worst gap between the 2a + 1 numeric and closed-form edges of order a, m = 0.3, 0.5, 0.8."""
    worst = 0.0
    for m in (0.3, 0.5, 0.8):
        spec = LameSpec(a, m)
        exact = [e.energy for e in lame_band_edges(spec)]
        num = numeric_band_edges(lame_potential(spec), spec.period, 2 * a + 1, n_points=801)
        worst = max(worst, max(abs(e.energy - x) for e, x in zip(num, exact)))
    return worst


def check_lame_one() -> CheckResult:
    """Single-band elliptic well: edges {m, 1, 1+m}; partner is self-isospectral."""
    name = "elliptic well a=1 band edges and self-isospectrality"
    worst = _lame_edge_dev(1)
    m = 0.5
    period = 2.0 * elliptic_K(m)

    def w_fn(x):
        sn, cn, dn = jacobi_sn_cn_dn(np.asarray(x, dtype=float), m)
        return m * np.asarray(sn) * np.asarray(cn) / np.asarray(dn)

    label = self_isospectral_classify(PeriodicSuperpotential(w_fn, period))
    passed = worst <= 1e-4 and label == "half-period-antisymmetric"
    return _result(name, passed, f"max edge dev {worst:.2e}, partner class {label!r}")


def check_lame_two() -> CheckResult:
    """Two-band elliptic well: analytic edges; its partner is isospectral but new."""
    name = "elliptic well a=2 partner is new and isospectral"
    worst = _lame_edge_dev(2)
    spec = LameSpec(2, 0.5)
    v1, _, v2 = lame_partner(spec)
    n1 = numeric_band_edges(v1, spec.period, 5, n_points=801)
    n2 = numeric_band_edges(v2, spec.period, 5, n_points=801)
    pair_dev = max(abs(a.energy - b.energy) for a, b in zip(n1, n2))
    label, _ = classify_pair(v1, v2, spec.period)
    passed = worst <= 1e-4 and pair_dev <= 1e-4 and label == "neither"
    return _result(
        name, passed, f"max edge dev {worst:.2e}, partner dev {pair_dev:.2e}, class {label!r}"
    )


def check_algebra() -> CheckResult:
    """Bidiagonal superalgebra of W = x: exact partner spectra, O(h^2) gap to V1."""
    name = "superalgebra closure on the discretization"
    w = Superpotential(w=lambda x: x, w_prime=lambda x: np.ones_like(x))
    grid = Grid(-8.0, 8.0, 800)
    coarse, fine = algebra_check(w, grid), algebra_check(w, grid.refine())
    worst = max(max(r.zero_mode_residual, r.partner_residual) for r in (coarse, fine))
    # 3 sits between first order in h (ratio 2) and second order (ratio 4)
    ratio = coarse.discretization_gap / fine.discretization_gap
    return _result(
        name,
        worst <= 1e-8 and ratio >= 3.0,
        f"max algebra residual {worst:.2e} (discretization gap "
        f"{coarse.discretization_gap:.2e} -> {fine.discretization_gap:.2e}, ratio {ratio:.2f})",
    )


def check_oscillation_theorem() -> CheckResult:
    """Band-edge period tags L,2L,2L,L,L,... and node counts 0,1,1,2,2,... exactly."""
    name = "oscillation theorem tags and node counts"
    targets = []
    for a, m in ((1, 0.5), (2, 0.5)):
        spec = LameSpec(a, m)
        targets.append((lame_potential(spec), spec.period, 2 * a + 1))
    spec = LameSpec(2, 0.5)
    v1, _, v2 = lame_partner(spec)
    targets.append((v2, spec.period, 5))
    for v, period, count in targets:
        try:
            states = band_edge_states(v, period, count, n_points=801)
        except PeriodicError as exc:  # a sector tag off the L,2L,2L,L,L pattern
            return _result(name, False, str(exc))
        for edge, pair in states:
            if pair.nodes != edge.nodes_per_period:
                return _result(
                    name,
                    False,
                    f"edge E={edge.energy:.6f}: eigenvector has {pair.nodes} nodes, "
                    f"theorem expects {edge.nodes_per_period}",
                )
    return _result(name, True, "all tags and node counts follow the alternation pattern")


ALL_CHECKS = [
    check_well_ladder,
    check_degeneracy,
    check_reflectionless,
    check_shape_invariance,
    check_isospectral,
    check_swkb_exactness,
    check_swkb_ground,
    check_lame_one,
    check_lame_two,
    check_algebra,
    check_oscillation_theorem,
]


def run_all(verbose_print=None) -> list[CheckResult]:
    """Run every check in suite order, each timed with perf_counter.

    A check's warnings are recorded on its result, not shown: the verbose
    line is the check's only printed output.
    """
    results = []
    for fn in ALL_CHECKS:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            res = fn()
            seconds = time.perf_counter() - start
        messages = tuple(dict.fromkeys(str(w.message) for w in caught))
        res = replace(res, seconds=seconds, warnings=messages)
        results.append(res)
        if verbose_print is not None:
            verbose_print(f"{'PASS' if res.passed else 'FAIL'}  {res.name}: {res.detail}")
    return results
