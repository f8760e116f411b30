"""The four workloads as job lists built from a seed.

Each workload is a closed loop: one caller runs one job at a time. Inputs
come from numpy's default_rng(seed) over the admissible ranges of
selfcheck._random_params; a job receives only those inputs. selfcheck and
cli_examples have fixed inputs (the suite and the README), so their seed
changes nothing.

Tolerances are the gates selfcheck states for the same quantity. Where it
states none: the flux defect and the partner relation use the |R| gate
(1e-5) and the Hill discriminant uses its unit test's gate (1e-5).
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from functools import partial
from pathlib import Path

import numpy as np

from harness import Job, Output, condition

LEVEL_TOL = 1e-5
EDGE_TOL = 1e-4
R_TOL = 1e-5
PHASE_TOL = 1e-4
HILL_TOL = 1e-5
SHAPE_TOL = 1e-9

PROPAGATOR_STEPS = 6000  # numeric_rt_for steps, as in check_reflectionless
HILL_STEPS = 400  # ~1.3 s per energy at HILL_M; the 4000-step default costs ~10 s
# Not seeded: sn/cn/dn cost depends on m (about a quarter of m in [0.3, 0.8]
# run all 63 Landen steps, ten times the usual 5), so a seeded m would make
# the pass time a coin flip. m = 0.5 is the README's value and on the slow path.
HILL_M = 0.5
SECH2_MOMENTA = 3  # seeded k per depth p = 1, 2, 3, one in each third of [0.25, 3]
RM2_DRAWS = 10  # seeded Rosen-Morse II draws; their k stratified the same way
RM2_STEPS = 12000  # boxes reach 72 wide: keeps the step near the sech2 jobs' 32/6000
LEVEL_GRIDS = (16001, 64001)
EDGE_GRIDS = (801, 1601, 3201)
# Extra seeded draws on the cheaper grids steady the per-seed medians: the first
# draw runs on every grid, the others on all but the largest one.
LEVEL_DRAWS = 4  # parameter draws per catalog entry
EDGE_DRAWS = 3  # elliptic parameters m per Lame order
ISO_GRID = 64001

WORKLOADS = ("selfcheck", "transmission_sweep", "spectra_grid", "cli_examples")


def build(workload: str, seed: int, workdir: Path, in_process: bool = False) -> list:
    if workload == "selfcheck":
        return selfcheck_jobs()
    if workload == "transmission_sweep":
        return transmission_jobs(seed)
    if workload == "spectra_grid":
        return spectra_jobs(seed)
    if workload == "cli_examples":
        return cli_jobs(workdir, in_process)
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def _quiet(fn, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fn(*args, **kwargs)


# ---------------------------------------------------------------------------
# selfcheck: the 11 checks in suite order
# ---------------------------------------------------------------------------

_NUM = r"([-+]?\d+(?:\.\d+)?e[-+]\d+)"

# label in the detail line -> (category, gate); the gates are those of selfcheck
SELFCHECK_GATES = {
    "check_well_ladder": [("max level dev", "level", 1e-4), ("max 1-overlap", None, 1e-6)],
    "check_degeneracy": [("max level dev", "level", 1e-5), ("max mapping dev", None, 1e-5)],
    "check_reflectionless": [
        ("max |R|", "scatter", 1e-5),
        ("max T-phase dev", "scatter", 1e-4),
        ("max level dev", "level", 1e-5),
    ],
    "check_shape_invariance": [("max residual", "residual", 1e-9)],
    "check_isospectral": [("max level dev", "level", 1e-5), ("charge drift", None, 1e-5)],
    "check_swkb_exactness": [],
    "check_swkb_ground": [("max |E0|", "swkb", 1e-10)],
    "check_lame_one": [("max edge dev", "band", 1e-4)],
    "check_lame_two": [("max edge dev", "band", 1e-4), ("partner dev", "band", 1e-4)],
    "check_algebra": [("max algebra residual", "residual", 1e-8)],
    "check_oscillation_theorem": [],
}


def selfcheck_jobs() -> list:
    from susyqm import selfcheck

    names = [fn.__name__ for fn in selfcheck.ALL_CHECKS]
    return [Job(n, partial(_run_check, n), partial(_check_selfcheck, n)) for n in names]


def _run_check(name: str):
    """Run one check through the module attribute (so a traced wrapper is used).

    The SWKB detail line omits the audit error, so the rows returned by the
    public exactness_audit call are captured on the way out.
    """
    from susyqm import selfcheck

    rows = []
    audit = selfcheck.exactness_audit

    def capture(*args, **kwargs):
        out = audit(*args, **kwargs)
        rows.extend((r.entry, r.mode, r.n, r.e_exact, r.e_semiclassical) for r in out)
        return out

    selfcheck.exactness_audit = capture
    try:
        result = _quiet(getattr(selfcheck, name))
    finally:
        selfcheck.exactness_audit = audit
    return result.passed, result.detail, rows


def _check_selfcheck(name: str, raw) -> list:
    passed, detail, rows = raw
    outputs = [condition(f"{name} verdict", passed)]
    for label, cat, tol in SELFCHECK_GATES[name]:
        m = re.search(re.escape(label) + " " + _NUM, detail)
        err = float(m.group(1)) if m else math.inf
        outputs.append(Output(f"{name} {label}", cat, err, tol))
    for entry, mode, n, e_exact, e in rows:
        tol = 1e-7 * max(1.0, abs(e_exact))
        outputs.append(Output(f"{name} {entry} {mode} n={n}", "swkb", abs(e - e_exact), tol))
    return outputs


# ---------------------------------------------------------------------------
# transmission_sweep: the wave-equation propagator, no SWKB, no eigensolver
# ---------------------------------------------------------------------------


def transmission_jobs(seed: int) -> list:
    from susyqm.catalog import sip_lookup
    from susyqm.periodic import LameSpec, lame_band_edges
    from susyqm.selfcheck import _random_params

    rng = np.random.default_rng(seed)
    jobs = []
    for p in (1, 2, 3):
        for k in _stratified(rng, 0.25, 3.0, SECH2_MOMENTA):
            jobs.append(
                Job(f"sech2 p={p} k={k:.4f}", partial(_run_sech2, p, k), partial(_check_sech2, p, k))
            )
    for k in _stratified(rng, 0.25, 3.0, RM2_DRAWS):
        params = _random_params("rosen_morse2", rng)
        entry = sip_lookup("rosen_morse2", check_residual=False, **params)
        energy = max(entry.w_minus**2, entry.w_plus**2) + k**2
        jobs.append(
            Job(f"rosen_morse2 A={params['A']:.4f} E={energy:.4f}", partial(_run_rm2, params, energy), _check_rm2)
        )
    for a in (1, 2):
        spec = LameSpec(a, HILL_M)
        for edge in lame_band_edges(spec):
            target = 2.0 if edge.period_tag == "L" else -2.0
            jobs.append(
                Job(
                    f"hill a={a} E={edge.energy:.4f}",
                    partial(_run_hill, spec, edge.energy),
                    partial(_check_hill, target),
                )
            )
    return jobs


def _stratified(rng, lo: float, hi: float, n: int) -> list:
    """One uniform draw in each of n equal slices of [lo, hi]: every seed spans the range."""
    return [float(lo + (hi - lo) * (i + u) / n) for i, u in enumerate(rng.uniform(size=n))]


def _run_sech2(p: int, k: float):
    from susyqm.catalog import sip_lookup
    from susyqm.scattering import numeric_rt_for

    w = sip_lookup("sech2", B=float(p)).superpotential()
    return numeric_rt_for(w, 1, k * k + p * p, -16.0, 16.0, n_steps=PROPAGATOR_STEPS)


def _check_sech2(p: int, k: float, amp) -> list:
    from susyqm.scattering import reflectionless_T

    return [
        Output("|R|", "scatter", abs(amp.r), R_TOL),
        Output("T phase", "scatter", abs(cmath.phase(amp.t / reflectionless_T(p, k))), PHASE_TOL),
        Output("flux defect", "scatter", amp.flux_defect, R_TOL),
    ]


def _run_rm2(params: dict, energy: float):
    from susyqm.catalog import shape_invariance_residual, sip_lookup
    from susyqm.scattering import numeric_rt_for, partner_rt

    entry = sip_lookup("rosen_morse2", check_residual=False, **params)
    w = entry.superpotential()
    lo, hi = entry.box
    a1 = numeric_rt_for(w, 1, energy, lo, hi, n_steps=RM2_STEPS)
    a2 = numeric_rt_for(w, 2, energy, lo, hi, n_steps=RM2_STEPS)
    r1, t1 = partner_rt(w, energy, a2.r, a2.t)
    return a1, a2, r1, t1, shape_invariance_residual(entry)


def _check_rm2(raw) -> list:
    a1, a2, r1, t1, residual = raw
    return [
        Output("partner R", "scatter", abs(r1 - a1.r), R_TOL),
        Output("partner T", "scatter", abs(t1 - a1.t), R_TOL),
        Output("flux defect V1", "scatter", a1.flux_defect, R_TOL),
        Output("flux defect V2", "scatter", a2.flux_defect, R_TOL),
        Output("shape-invariance residual", "residual", residual, SHAPE_TOL),
    ]


def _run_hill(spec, energy: float):
    from susyqm.periodic import hill_discriminant, lame_potential

    return hill_discriminant(lame_potential(spec), spec.period, energy, n_steps=HILL_STEPS)


def _check_hill(target: float, d: float) -> list:
    return [Output("Hill D at edge", "band", abs(d - target), HILL_TOL)]


# ---------------------------------------------------------------------------
# spectra_grid: the eigensolver and band solver, no propagator, no SWKB
# ---------------------------------------------------------------------------


def spectra_jobs(seed: int) -> list:
    from susyqm.catalog import CATALOG_NAMES
    from susyqm.periodic import LameSpec
    from susyqm.selfcheck import _DEGENERACY_ENTRIES, _random_params

    rng = np.random.default_rng(seed)
    jobs = []
    draws = {name: [_random_params(name, rng) for _ in range(LEVEL_DRAWS)] for name in CATALOG_NAMES}
    for name, params_list in draws.items():
        for i, params in enumerate(params_list):
            for n_points in LEVEL_GRIDS if i == 0 else LEVEL_GRIDS[:-1]:
                jobs.append(
                    Job(
                        f"levels {name} draw={i} n={n_points}",
                        partial(_run_levels, name, params, n_points),
                        partial(_check_levels, name, params),
                    )
                )
    for name in _DEGENERACY_ENTRIES:
        jobs.append(Job(f"degeneracy {name}", partial(_run_degeneracy, name, draws[name][0]), _check_pairs))
    specs = {a: [LameSpec(a, float(m)) for m in rng.uniform(0.3, 0.8, EDGE_DRAWS)] for a in (1, 2)}
    for a, spec_list in specs.items():
        for i, spec in enumerate(spec_list):
            for n_points in EDGE_GRIDS if i == 0 else EDGE_GRIDS[:-1]:
                jobs.append(
                    Job(
                        f"edges a={a} m={spec.m:.4f} n={n_points}",
                        partial(_run_edges, spec, n_points),
                        partial(_check_edges, spec),
                    )
                )
    jobs.append(Job("lame partner edges", partial(_run_partner, specs[2][0]), _check_partner))
    jobs.append(
        Job("expression band potential", partial(_run_expression, specs[2][0]), partial(_check_edges, specs[2][0]))
    )
    lams = [float(10.0 ** rng.uniform(-1, 1)) for _ in range(2)]
    lams.append(-1.0 - float(10.0 ** rng.uniform(-1, 1)))
    jobs.append(Job("isospectral family", partial(_run_iso, lams), _check_iso))
    return jobs


def _level_count(entry) -> int:
    return 6 if entry.n_bound is None else min(entry.n_bound, 6)


def _run_levels(name: str, params: dict, n_points: int):
    from susyqm.catalog import numeric_levels, shape_invariance_residual, sip_lookup

    entry = sip_lookup(name, check_residual=False, **params)
    levels = _quiet(numeric_levels, entry, _level_count(entry), n_points=n_points)
    residual = shape_invariance_residual(entry) if n_points == LEVEL_GRIDS[0] else None
    return [p.energy for p in levels], residual


def _check_levels(name: str, params: dict, raw) -> list:
    from susyqm.catalog import sip_lookup, sip_spectrum

    energies, residual = raw
    entry = sip_lookup(name, check_residual=False, **params)
    exact, _ = sip_spectrum(entry, _level_count(entry) - 1)
    out = [Output(f"{name} n={n}", "level", abs(e - x), LEVEL_TOL) for n, (e, x) in enumerate(zip(energies, exact))]
    out.append(condition(f"{name} level count", len(energies) == len(exact)))
    if residual is not None:
        out.append(Output(f"{name} shape-invariance residual", "residual", residual, SHAPE_TOL))
    return out


def _run_degeneracy(name: str, params: dict):
    from susyqm.catalog import numeric_grid, sip_lookup
    from susyqm.eigensolver import bound_states
    from susyqm.grids import sample

    entry = sip_lookup(name, check_residual=False, **params)
    w = entry.superpotential()
    grid = numeric_grid(entry, LEVEL_GRIDS[0])
    k = 2 if entry.n_bound is None or entry.n_bound >= 3 else entry.n_bound - 1
    lv1 = _quiet(bound_states, sample(w.v1, grid), k + 1, check_decay=False)
    lv2 = _quiet(bound_states, sample(w.v2, grid), max(k, 1), check_decay=False)
    return [(lv2[n].energy, lv1[n + 1].energy) for n in range(k)]


def _check_pairs(pairs) -> list:
    return [Output(f"partner level {n}", "level", abs(a - b), LEVEL_TOL) for n, (a, b) in enumerate(pairs)]


def _run_edges(spec, n_points: int):
    from susyqm.periodic import lame_potential, numeric_band_edges

    edges = numeric_band_edges(lame_potential(spec), spec.period, 2 * spec.a + 1, n_points=n_points)
    return [(e.energy, e.period_tag) for e in edges]


def _check_edges(spec, edges) -> list:
    from susyqm.periodic import lame_band_edges

    exact = lame_band_edges(spec)
    out = [Output(f"edge {i}", "band", abs(e - x.energy), EDGE_TOL) for i, ((e, _), x) in enumerate(zip(edges, exact))]
    out.append(condition("edge tags", [t for _, t in edges] == [x.period_tag for x in exact]))
    return out


def _run_partner(spec):
    from susyqm.periodic import classify_pair, lame_partner, numeric_band_edges

    v1, _, v2 = lame_partner(spec)
    n1 = numeric_band_edges(v1, spec.period, 5, n_points=EDGE_GRIDS[0])
    n2 = numeric_band_edges(v2, spec.period, 5, n_points=EDGE_GRIDS[0])
    label, _ = classify_pair(v1, v2, spec.period)
    return [(a.energy, b.energy) for a, b in zip(n1, n2)], label


def _check_partner(raw) -> list:
    pairs, label = raw
    out = [Output(f"partner edge {i}", "band", abs(a - b), EDGE_TOL) for i, (a, b) in enumerate(pairs)]
    out.append(condition("partner is neither a shift nor a reflection", label == "neither"))
    return out


def _run_expression(spec):
    from susyqm.expressions import compile_expression
    from susyqm.periodic import numeric_band_edges

    v = compile_expression("p*m*sn(x,m)^2", {"p": float(spec.p), "m": spec.m})
    edges = numeric_band_edges(v, spec.period, 2 * spec.a + 1, n_points=EDGE_GRIDS[0])
    return [(e.energy, e.period_tag) for e in edges]


def _run_iso(lams: list):
    from susyqm.catalog import sip_lookup
    from susyqm.eigensolver import bound_states
    from susyqm.grids import Grid
    from susyqm.isospectral import IsoFamily

    w = sip_lookup("shifted_oscillator").superpotential()
    fam = IsoFamily.build(w, Grid(-16.0, 16.0, ISO_GRID))
    return [(lam, [p.energy for p in _quiet(bound_states, fam.potential(lam), 5, check_decay=False)]) for lam in lams]


def _check_iso(members) -> list:
    return [
        Output(f"lam={lam:.4f} n={n}", "level", abs(e - 2.0 * n), LEVEL_TOL)
        for lam, energies in members
        for n, e in enumerate(energies)
    ]


# ---------------------------------------------------------------------------
# cli_examples: the README commands, each its own process
# ---------------------------------------------------------------------------

CLI_EXAMPLES = [
    ("partner", ["partner", "--potential", "well", "--params", "L=pi", "--hierarchy", "3"]),
    ("spectrum", ["spectrum", "--potential", "sech2", "--params", "B=2"]),
    ("scatter", ["scatter", "--potential", "sech2", "--params", "B=1", "--k", "0.5,1,2"]),
    ("isospectral", ["isospectral", "--potential", "shifted_oscillator", "--lambdas", "0.5,1,5"]),
    ("swkb", ["swkb", "--potential", "morse", "--levels", "3"]),
    ("bands", ["bands", "--lame", "a=1", "--m", "0.5"]),
    ("figures", ["figures", "--outdir", "out/"]),
]


def cli_jobs(workdir: Path, in_process: bool) -> list:
    runner = _cli_in_process if in_process else _cli_subprocess
    return [
        Job(sub, partial(runner, workdir, sub, argv), partial(_check_cli, sub))
        for sub, argv in CLI_EXAMPLES
    ]


def _cli_env() -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _fresh(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)


def _cli_subprocess(workdir: Path, sub: str, argv: list):
    _fresh(workdir)
    res = subprocess.run(
        [sys.executable, "-m", "susyqm.cli", *argv],
        cwd=workdir,
        env=_cli_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    if res.returncode != 0:
        raise RuntimeError(f"exit {res.returncode}: {res.stderr.strip()[-200:]}")
    return res.stdout, _figure_files(workdir) if sub == "figures" else None


def _cli_in_process(workdir: Path, sub: str, argv: list):
    from susyqm import cli

    _fresh(workdir)
    buf = io.StringIO()
    with contextlib.chdir(workdir), contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"exit {code}")
    return buf.getvalue(), _figure_files(workdir) if sub == "figures" else None


def _figure_files(workdir: Path) -> dict:
    out = workdir / "out"
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    return {name: (out / name).read_text(encoding="utf-8") for name in manifest}


def _rows(text: str) -> tuple:
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    return header, np.array([[float(v) for v in row] for row in reader])


def _check_cli(sub: str, raw) -> list:
    stdout, files = raw
    if sub == "figures":
        return _check_figures(files)
    header, rows = _rows(stdout)
    col = {name: rows[:, i] for i, name in enumerate(header)}
    if sub == "partner":  # 6/sin^2(x) - 4
        ref = 6.0 / np.sin(col["x"]) ** 2 - 4.0
        err = float(np.max(np.abs(col["v"] - ref) / np.maximum(1.0, np.abs(ref))))
        return [Output("hierarchy member 3", "residual", err, SHAPE_TOL)]
    if sub == "spectrum":  # E = 0, 3
        out = [Output(f"E{n}", "level", abs(e - x), LEVEL_TOL) for n, (e, x) in enumerate(zip(col["energy"], (0.0, 3.0)))]
        return out + [condition("two bound states", len(col["energy"]) == 2)]
    if sub == "scatter":  # reflectionless, T = (1 - ik)/(-1 - ik)
        out = []
        for k, rr, ri, tr, ti, pr, pt in zip(
            col["k"], col["re_r"], col["im_r"], col["re_t"], col["im_t"], col["prob_r"], col["prob_t"]
        ):
            t_exact = (1 - 1j * k) / (-1 - 1j * k)
            out.append(Output(f"|R| k={k:g}", "scatter", abs(complex(rr, ri)), R_TOL))
            out.append(Output(f"T phase k={k:g}", "scatter", abs(cmath.phase(complex(tr, ti) / t_exact)), PHASE_TOL))
            out.append(Output(f"flux k={k:g}", "scatter", abs(pr + pt - 1.0), R_TOL))
        return out
    if sub == "isospectral":  # every deformed ground state stays normalized
        x = col["x"]
        return [
            Output(f"{name} norm", None, abs(float(np.trapezoid(col[name] ** 2, x)) - 1.0), LEVEL_TOL)
            for name in header
            if name.startswith("psi0_")
        ]
    if sub == "swkb":  # Morse A=3, alpha=1: E = 0, 5, 8, exact for SWKB and WKB
        exact = [9.0 - (3.0 - n) ** 2 for n in range(3)]
        out = []
        for n, x in enumerate(exact):
            tol = 1e-7 * max(1.0, abs(x))
            out.append(Output(f"SWKB E{n}", "swkb", abs(col["e_swkb"][n] - x), tol))
            out.append(Output(f"WKB E{n}", "swkb", abs(col["e_wkb"][n] - x), tol))
            out.append(Output(f"closed E{n}", "level", abs(col["e_exact"][n] - x), LEVEL_TOL))
        return out
    if sub == "bands":  # a=1, m=0.5: edges 0.5, 1, 1.5 tagged L, 2L, 2L
        out = [Output(f"edge {i}", "band", abs(e - x), EDGE_TOL) for i, (e, x) in enumerate(zip(col["energy"], (0.5, 1.0, 1.5)))]
        return out + [condition("edge tags", list(col["antiperiodic"]) == [0.0, 1.0, 1.0])]
    raise ValueError(sub)


def _check_figures(files: dict) -> list:
    expect = {
        "box_and_singular_partner.csv": 2001,
        "isospectral_oscillator_potentials.csv": 1201,
        "isospectral_oscillator_ground_states.csv": 1201,
    }
    out = [condition("manifest lists the three data files", set(files) == set(expect))]
    for name, n in expect.items():
        if name not in files:
            continue
        header, rows = _rows(files[name])
        out.append(condition(f"{name} rows", rows.shape[0] == n and bool(np.all(np.isfinite(rows)))))
    if "box_and_singular_partner.csv" in files:  # flat-box ground state sqrt(2/pi) sin x
        header, rows = _rows(files["box_and_singular_partner.csv"])
        x, psi = rows[:, 0], rows[:, header.index("psi0_box")]
        err = float(np.max(np.abs(psi - math.sqrt(2.0 / math.pi) * np.sin(x))))
        out.append(Output("box ground state", None, err, 1e-4))
    return out
