"""Command-line front end: partner/spectrum/scatter/isospectral/swkb/bands/check/figures.

Outputs are deterministic CSV (17 significant digits) or a JSON envelope that
echoes the inputs and carries per-operation outputs plus discretization
diagnostics. Exit codes: 0 success, 1 numeric failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from . import __version__
from .catalog import (
    CatalogError,
    hierarchy_potential,
    numeric_grid,
    sip_lookup,
    sip_spectrum,
    well_hierarchy_potential,
)
from .core import Superpotential
from .eigensolver import SolverError
from .expressions import ExpressionError, compile_expression
from .grids import Grid, GridError, SampledFunction, sample
from .isospectral import IsoFamily, IsospectralError
from .periodic import LameSpec, PeriodicError, lame_band_edges, lame_potential, numeric_band_edges
from .scattering import ScatterError, numeric_rt_for
from .swkb import Mode, QuantizeError, WKB_APPLICABLE, problem_for_entry, quantize

_NUMERIC_ERRORS = (
    CatalogError,
    SolverError,
    GridError,
    IsospectralError,
    PeriodicError,
    ScatterError,
    QuantizeError,
    ValueError,
)


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Echoable run description: one potential source plus output options."""

    subcommand: str
    potential: Optional[str] = None
    params: dict = field(default_factory=dict)
    w_expr: Optional[str] = None
    grid: Optional[tuple[float, float, int]] = None
    hbar: float = 1.0
    mass2: float = 1.0
    out_format: str = "csv"
    output: Optional[str] = None
    extra: dict = field(default_factory=dict)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _parse_params(text: Optional[str]) -> dict:
    if not text:
        return {}
    out = {}
    for item in text.split(","):
        if "=" not in item:
            raise ConfigError(f"parameter {item!r} is not of the form name=value")
        key, val = item.split("=", 1)
        val = val.strip()
        if val == "pi":
            out[key.strip()] = math.pi
        else:
            try:
                out[key.strip()] = float(val)
            except ValueError as exc:
                raise ConfigError(f"parameter {key!r} has non-numeric value {val!r}") from exc
    return out


def _parse_grid(text: Optional[str]):
    if text is None:
        return None
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError("--grid expects lo,hi,n")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad --grid value {text!r}") from exc
    return (lo, hi, n)


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        return [float(t) for t in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"{flag} expects a comma-separated list of numbers") from exc


def _output_stream(cfg: RunConfig):
    if cfg.output is None:
        return sys.stdout, False
    path = cfg.output
    if not os.path.isabs(path):
        path = os.path.join(os.environ.get("SUSYQM_OUTDIR", "."), path)
    return open(path, "w", encoding="utf-8"), True


def _emit(cfg: RunConfig, columns: list[str], rows: list[list[float]], diagnostics: dict):
    stream, close = _output_stream(cfg)
    try:
        if cfg.out_format == "json":
            envelope = {
                "inputs": asdict(cfg),
                "version": __version__,
                "outputs": {"columns": columns, "rows": [[float(v) for v in r] for r in rows]},
                "diagnostics": diagnostics,
            }
            json.dump(envelope, stream, indent=2)
            stream.write("\n")
        else:
            stream.write(",".join(columns) + "\n")
            for row in rows:
                stream.write(",".join(_fmt(v) for v in row) + "\n")
    finally:
        if close:
            stream.close()


def _lookup(cfg: RunConfig):
    """sip_lookup with name/parameter mistakes reported as configuration errors."""
    if cfg.hbar != 1.0 or cfg.mass2 != 1.0:
        raise ConfigError(
            "--hbar and --mass2 apply to --w-expr only; catalog potentials use hbar = 2m = 1"
        )
    try:
        return sip_lookup(cfg.potential, **cfg.params)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for {cfg.potential!r}: {exc}") from exc
    except CatalogError as exc:
        if "unknown potential" in str(exc):
            raise ConfigError(str(exc)) from exc
        raise


def _superpotential_from_config(cfg: RunConfig) -> tuple[Superpotential, Grid]:
    if (cfg.potential is None) == (cfg.w_expr is None):
        raise ConfigError("choose exactly one of --potential or --w-expr")
    if cfg.w_expr is not None:
        if cfg.grid is None:
            raise ConfigError("--w-expr requires an explicit --grid lo,hi,n")
        lo, hi, n = cfg.grid
        w_fn = compile_expression(cfg.w_expr, cfg.params)
        return (
            Superpotential(w=w_fn, hbar=cfg.hbar, mass2=cfg.mass2),
            Grid(lo, hi, n),
        )
    entry = _lookup(cfg)
    grid = Grid(*cfg.grid) if cfg.grid else numeric_grid(entry, 2001)
    return entry.superpotential(), grid


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_partner(cfg: RunConfig) -> int:
    hierarchy = int(cfg.extra.get("hierarchy") or 0)
    if cfg.potential == "well":
        length = float(cfg.params.get("L", math.pi))
        depth = max(hierarchy, 1) - 1
        v = well_hierarchy_potential(depth, length)
        n = cfg.grid[2] if cfg.grid else 2001
        grid = Grid(length * 1e-4, length * (1 - 1e-4), n)
        x = grid.points
        rows = [[xi, vi] for xi, vi in zip(x, np.asarray(v(x), dtype=float))]
        _emit(cfg, ["x", "v"], rows, {"n_points": grid.n_points, "h": grid.h})
        return 0
    if hierarchy > 0:
        if cfg.potential is None:
            raise ConfigError("--hierarchy needs a catalog --potential")
        entry = _lookup(cfg)
        v, shift = hierarchy_potential(entry, hierarchy)
        grid = Grid(*cfg.grid) if cfg.grid else numeric_grid(entry, 2001)
        x = grid.points
        rows = [[xi, vi] for xi, vi in zip(x, np.asarray(v(x), dtype=float))]
        _emit(
            cfg,
            ["x", "v"],
            rows,
            {"n_points": grid.n_points, "h": grid.h, "ground_energy_shift": shift},
        )
        return 0
    w, grid = _superpotential_from_config(cfg)
    x = grid.points
    v1 = np.asarray(w.v1(x), dtype=float)
    v2 = np.asarray(w.v2(x), dtype=float)
    wx = np.asarray(w.w(x), dtype=float)
    rows = [[a, b, c, d] for a, b, c, d in zip(x, wx, v1, v2)]
    _emit(cfg, ["x", "w", "v1", "v2"], rows, {"n_points": grid.n_points, "h": grid.h})
    return 0


def _cmd_spectrum(cfg: RunConfig) -> int:
    if cfg.potential is None:
        raise ConfigError("spectrum needs a catalog --potential")
    entry = _lookup(cfg)
    levels = int(cfg.extra.get("levels") or 6)
    spec, truncated = sip_spectrum(entry, levels - 1)
    rows = [[n, e] for n, e in enumerate(spec)]
    _emit(
        cfg,
        ["n", "energy"],
        rows,
        {"bound_states": entry.n_bound, "truncated": bool(truncated)},
    )
    return 0


def _cmd_scatter(cfg: RunConfig) -> int:
    w, grid = _superpotential_from_config(cfg)
    if w.w_minus is None and cfg.w_expr is not None:
        wm = float(w.w(np.array(grid.x_min)))
        wp = float(w.w(np.array(grid.x_max)))
        w = Superpotential(
            w=w.w, hbar=w.hbar, mass2=w.mass2, w_minus=wm, w_plus=wp, domain=w.domain
        )
    if w.w_minus is None or w.w_plus is None:
        raise ConfigError(
            f"potential {cfg.potential!r} has no finite superpotential asymptotes; "
            "scattering needs a full-line entry such as sech2 or rosen_morse2"
        )
    ks = _parse_floats(cfg.extra.get("k") or "0.5,1,2", "--k")
    side = int(cfg.extra.get("side") or 1)
    steps = int(cfg.extra.get("steps", 8000))
    if steps < 1:
        raise ConfigError(f"--steps must be a positive integer, got {steps}")
    rows, flux_defect = [], []
    for k in ks:
        energy = (w.c * k) ** 2 + float(w.w_minus) ** 2
        amp = numeric_rt_for(w, side, energy, grid.x_min, grid.x_max, n_steps=steps)
        flux_defect.append(amp.flux_defect)
        rows.append(
            [
                k,
                energy,
                amp.r.real,
                amp.r.imag,
                amp.t.real,
                amp.t.imag,
                amp.reflection_probability,
                amp.transmission_probability,
            ]
        )
    _emit(
        cfg,
        ["k", "energy", "re_r", "im_r", "re_t", "im_t", "prob_r", "prob_t"],
        rows,
        {"window": [grid.x_min, grid.x_max], "side": side, "flux_defect": flux_defect},
    )
    return 0


def _cmd_isospectral(cfg: RunConfig) -> int:
    w, grid = _superpotential_from_config(cfg)
    lams = _parse_floats(cfg.extra.get("lambdas") or "0.5,1,5", "--lambdas")
    fam = IsoFamily.build(w, grid)
    columns = ["x"]
    series = [grid.points]
    for lam in lams:
        columns += [f"v_lam_{lam:g}", f"psi0_lam_{lam:g}"]
        series += [fam.potential(lam).values, fam.ground_state(lam).values]
    rows = [list(t) for t in zip(*series)]
    _emit(cfg, columns, rows, {"n_points": grid.n_points, "h": grid.h, "lambdas": lams})
    return 0


def _cmd_swkb(cfg: RunConfig) -> int:
    if cfg.potential is None:
        raise ConfigError("swkb needs a catalog --potential")
    entry = _lookup(cfg)
    levels = int(cfg.extra.get("levels") or 4)
    spec, _ = sip_spectrum(entry, levels - 1)
    prob_s = problem_for_entry(entry, Mode.SWKB_V1)
    prob_w = problem_for_entry(entry, Mode.WKB) if entry.name in WKB_APPLICABLE else None
    rows = []
    for n, e_exact in enumerate(spec):
        e_swkb = quantize(prob_s, n)
        e_wkb = quantize(prob_w, n) if prob_w is not None else math.nan
        rows.append([n, e_exact, e_swkb, e_wkb])
    _emit(cfg, ["n", "e_exact", "e_swkb", "e_wkb"], rows, {"entry": entry.name})
    return 0


def _cmd_bands(cfg: RunConfig) -> int:
    lame = cfg.extra.get("lame")
    count = cfg.extra.get("count")
    if lame:
        try:
            a = int(str(lame).split("=")[-1])
        except ValueError as exc:
            raise ConfigError(f"bad --lame value {lame!r}") from exc
        m = float(cfg.extra.get("m") or 0.5)
        spec = LameSpec(a, m)
        n_edges = int(count or (2 * a + 1))
        v = lame_potential(spec)
        numeric = numeric_band_edges(v, spec.period, n_edges, n_points=1201)
        analytic = lame_band_edges(spec) if a in (1, 2) else None
        rows = []
        for i, edge in enumerate(numeric):
            exact = analytic[i].energy if analytic and i < len(analytic) else math.nan
            rows.append([edge.energy, exact, 0.0 if edge.period_tag == "L" else 1.0, edge.nodes_per_period])
        _emit(
            cfg,
            ["energy", "energy_closed_form", "antiperiodic", "nodes_per_period"],
            rows,
            {"a": a, "m": m, "period": spec.period},
        )
        return 0
    expr = cfg.extra.get("v_expr")
    period = cfg.extra.get("period")
    if not expr or not period:
        raise ConfigError("bands needs either --lame a=N [--m M] or --v-expr with --period")
    v = compile_expression(expr, cfg.params)
    period = float(period)
    n_edges = int(count or 5)
    numeric = numeric_band_edges(v, period, n_edges, n_points=1201)
    rows = [
        [e.energy, 0.0 if e.period_tag == "L" else 1.0, e.nodes_per_period] for e in numeric
    ]
    _emit(cfg, ["energy", "antiperiodic", "nodes_per_period"], rows, {"period": period})
    return 0


def _cmd_figures(cfg: RunConfig) -> int:
    outdir = cfg.extra.get("outdir") or os.environ.get("SUSYQM_OUTDIR", ".")
    os.makedirs(outdir, exist_ok=True)
    manifest = {}

    # singular partner of the flat box: both wells with their first eigenfunctions
    from .eigensolver import bound_states

    grid = Grid(0.0, math.pi, 2001)
    x = grid.points.copy()
    x[0], x[-1] = x[1], x[-2]
    rows = []
    flat = well_hierarchy_potential(0)
    steep = well_hierarchy_potential(1)
    lv0 = bound_states(SampledFunction(grid, np.asarray(flat(x))), 2, check_decay=False)
    lv1 = bound_states(SampledFunction(grid, np.asarray(steep(x))), 2, check_decay=False)
    for i in range(grid.n_points):
        rows.append(
            [
                grid.points[i],
                float(np.asarray(flat(x))[i]),
                float(np.asarray(steep(x))[i]),
                lv0[0].psi.values[i],
                lv0[1].psi.values[i],
                lv1[0].psi.values[i],
                lv1[1].psi.values[i],
            ]
        )
    name = "box_and_singular_partner.csv"
    _write_csv(
        os.path.join(outdir, name),
        ["x", "v_box", "v_partner", "psi0_box", "psi1_box", "psi0_partner", "psi1_partner"],
        rows,
    )
    manifest[name] = "flat box and its inverse-square partner with their two lowest states"

    # deformed oscillator potentials and ground states over a lambda sweep
    entry = sip_lookup("shifted_oscillator")
    g = Grid(-6.0, 6.0, 1201)
    fam = IsoFamily.build(entry.superpotential(), Grid(-16.0, 16.0, 4001))
    idx = np.searchsorted(fam.grid.points, g.points)
    lams = [0.5, 1.0, 5.0, 1e6]
    cols_v, cols_p = [], []
    for lam in lams:
        cols_v.append(fam.potential(lam).values[idx])
        cols_p.append(fam.ground_state(lam).values[idx])
    rows_v = [[xv] + [c[i] for c in cols_v] for i, xv in enumerate(g.points)]
    rows_p = [[xv] + [c[i] for c in cols_p] for i, xv in enumerate(g.points)]
    name_v = "isospectral_oscillator_potentials.csv"
    name_p = "isospectral_oscillator_ground_states.csv"
    headers = ["x"] + [f"lam_{lam:g}" for lam in lams]
    _write_csv(os.path.join(outdir, name_v), headers, rows_v)
    _write_csv(os.path.join(outdir, name_p), headers, rows_p)
    manifest[name_v] = "one-parameter isospectral deformations of the oscillator well"
    manifest[name_p] = "normalized ground states along the same deformation sweep"

    with open(os.path.join(outdir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    print(f"wrote {len(manifest)} data files and manifest.json to {outdir}")
    return 0


def _write_csv(path: str, columns: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _cmd_check(cfg: RunConfig) -> int:
    from .selfcheck import run_all

    results = run_all(print)
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="susyqm",
        description="Self-verifying toolkit for factorized quantum mechanics.",
    )
    parser.add_argument("--version", action="version", version=f"susyqm {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--potential", help="catalog entry name")
        p.add_argument("--params", help="comma-separated name=value parameters")
        p.add_argument("--w-expr", dest="w_expr", help="inline superpotential expression in x")
        p.add_argument("--grid", help="lo,hi,n sampling grid")
        p.add_argument("--hbar", type=float, default=1.0)
        p.add_argument("--mass2", type=float, default=1.0, help="2m in chosen units")
        p.add_argument("--format", dest="out_format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", help="output file (default: stdout)")
        p.add_argument("--config", help="JSON file with the same keys as the flags")

    p = sub.add_parser("partner", help="partner potentials, or a hierarchy member")
    common(p)
    p.add_argument("--hierarchy", type=int, help="emit the s-th hierarchy member")

    p = sub.add_parser("spectrum", help="closed-form bound spectrum of a catalog entry")
    common(p)
    p.add_argument("--levels", type=int, default=6)

    p = sub.add_parser("scatter", help="reflection/transmission amplitudes")
    common(p)
    p.add_argument("--k", help="comma-separated incident momenta (default 0.5,1,2)")
    p.add_argument("--side", type=int, choices=(1, 2), default=1)
    p.add_argument("--steps", type=int, default=8000)

    p = sub.add_parser("isospectral", help="one-parameter isospectral family curves")
    common(p)
    p.add_argument("--lambdas", help="comma-separated deformation parameters")

    p = sub.add_parser("swkb", help="semiclassical vs exact level table")
    common(p)
    p.add_argument("--levels", type=int, default=4)

    p = sub.add_parser("bands", help="band edges of a periodic well")
    common(p)
    p.add_argument("--lame", help="a=1 or a=2 elliptic well")
    p.add_argument("--m", help="elliptic parameter in (0,1)")
    p.add_argument("--count", help="number of edges")
    p.add_argument("--v-expr", dest="v_expr", help="inline periodic potential expression")
    p.add_argument("--period", help="period of --v-expr")

    p = sub.add_parser("figures", help="write plot-ready data files plus a manifest")
    common(p)
    p.add_argument("--outdir", help="output directory (default: SUSYQM_OUTDIR or .)")

    p = sub.add_parser("check", help="run the full invariant suite")
    common(p)
    return parser


_DISPATCH = {
    "partner": _cmd_partner,
    "spectrum": _cmd_spectrum,
    "scatter": _cmd_scatter,
    "isospectral": _cmd_isospectral,
    "swkb": _cmd_swkb,
    "bands": _cmd_bands,
    "figures": _cmd_figures,
    "check": _cmd_check,
}

_EXTRA_KEYS = (
    "hierarchy",
    "levels",
    "k",
    "side",
    "steps",
    "lambdas",
    "lame",
    "m",
    "count",
    "v_expr",
    "period",
    "outdir",
)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    merged = vars(args).copy()
    if merged.get("config"):
        try:
            with open(merged["config"], "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in file_cfg.items():
            if key not in merged:
                raise ConfigError(f"unknown config key {key!r}")
            if merged.get(key) in (None, 1.0) or key in ("hbar", "mass2"):
                merged[key] = value
    extra = {k: merged.get(k) for k in _EXTRA_KEYS if merged.get(k) is not None}
    return RunConfig(
        subcommand=merged["subcommand"],
        potential=merged.get("potential"),
        params=_parse_params(merged.get("params"))
        if isinstance(merged.get("params"), str) or merged.get("params") is None
        else dict(merged["params"]),
        w_expr=merged.get("w_expr"),
        grid=_parse_grid(merged.get("grid"))
        if isinstance(merged.get("grid"), str) or merged.get("grid") is None
        else tuple(merged["grid"]),
        hbar=float(merged.get("hbar") or 1.0),
        mass2=float(merged.get("mass2") or 1.0),
        out_format=merged.get("out_format") or "csv",
        output=merged.get("output"),
        extra=extra,
    )


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = _config_from_args(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return _DISPATCH[cfg.subcommand](cfg)
    except (ConfigError, ExpressionError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure in {cfg.subcommand}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
