"""Command-line front end: partner/spectrum/scatter/isospectral/swkb/bands/check/figures.

Outputs are deterministic CSV (17 significant digits) or a JSON envelope that
echoes every flag of the subcommand with its parsed value, defaults included,
and carries per-operation outputs plus discretization diagnostics. Each flag
is parsed once, by its argparse type, and its default is declared with it.
Units are 2m = 1, so --hbar is the one scale of a --w-expr run; catalog
potentials take hbar = 1. Exit codes: 0 success, 1 numeric failure, 2
configuration error; inf and nan are refused where numbers are parsed (exit
2). Each distinct warning a run raises is printed once on stderr as
"warning: ...". A reader that closes stdout early (`susyqm check | head -3`)
ends the run quietly with exit 1. Each subcommand defines only the flags its
handler reads.
No command loads scipy where numpy bundles its OpenBLAS: the bound-state
solvers of `check` call that library's LAPACK (see _lapack), and `figures`
writes its states in closed form. Where numpy bundles none, `check` loads
scipy.linalg for those calls and the other commands load no scipy.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import sys
import time
import warnings
from dataclasses import asdict, replace
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
from .expressions import ExpressionError, compile_expression
from .grids import Grid
from .isospectral import IsoFamily, admissible
from .periodic import LameSpec, PeriodicError, lame_band_edges, lame_potential, numeric_band_edges
from .scattering import numeric_rt_for

# every package error subclasses ValueError (swkb.QuantizeError too, which only
# swkb runs import); OverflowError: a finite parameter too large for the closed
# forms, e.g. B=1e308
_NUMERIC_ERRORS = (ValueError, OverflowError)


class ConfigError(ValueError):
    pass


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _finite(text: str) -> float:
    """float(text), refusing inf and nan: no closed form or solver takes them."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return value


@contextlib.contextmanager
def _output_stream(args: argparse.Namespace):
    """stdout, or the --output file (relative paths under $SUSYQM_OUTDIR), closed after use."""
    if args.output is None:
        yield sys.stdout
        return
    path = args.output
    if not os.path.isabs(path):
        path = os.path.join(os.environ.get("SUSYQM_OUTDIR", "."), path)
    with open(path, "w", encoding="utf-8") as stream:
        yield stream


def _emit(args: argparse.Namespace, columns: list[str], rows: list[list[float]], diagnostics: dict):
    if args.out_format == "json":
        outputs = {"columns": columns, "rows": [[float(v) for v in r] for r in rows]}
        _emit_json(args, outputs, diagnostics)
        return
    with _output_stream(args) as stream:
        _write_csv(stream, columns, rows)


def _write_csv(stream, columns: list[str], rows) -> None:
    """The header, then each row as _fmt would write its values, through one format string per row."""
    stream.write(",".join(columns) + "\n")
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    for row in np.asarray(rows, dtype=float).tolist():
        stream.write(line % tuple(row))


def _emit_json(args: argparse.Namespace, outputs: dict, diagnostics: dict):
    """The JSON envelope: every flag of the run with its parsed value, the version, the outputs and diagnostics."""
    envelope = {
        "inputs": {key: value for key, value in vars(args).items() if key != "config"},
        "version": __version__,
        "outputs": outputs,
        "diagnostics": diagnostics,
    }
    with _output_stream(args) as stream:
        json.dump(envelope, stream, indent=2)
        stream.write("\n")


def _refuse_units(args: argparse.Namespace) -> None:
    """Refuse a --hbar other than 1 for a catalog potential (spectrum and swkb define no --hbar)."""
    if getattr(args, "hbar", 1.0) != 1.0:
        raise ConfigError("--hbar applies to --w-expr only; catalog potentials use hbar = 2m = 1")


def _lookup(args: argparse.Namespace):
    """sip_lookup with name/parameter mistakes reported as configuration errors."""
    _refuse_units(args)
    try:
        return sip_lookup(args.potential, **args.params)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for {args.potential!r}: {exc}") from exc
    except CatalogError as exc:
        if "unknown potential" in str(exc):
            raise ConfigError(str(exc)) from exc
        raise


def _superpotential(args: argparse.Namespace) -> tuple[Superpotential, Grid]:
    if (args.potential is None) == (args.w_expr is None):
        raise ConfigError("choose exactly one of --potential or --w-expr")
    if args.w_expr is not None:
        if args.grid is None:
            raise ConfigError("--w-expr requires an explicit --grid lo,hi,n")
        w_fn = compile_expression(args.w_expr, args.params)
        return Superpotential(w=w_fn, hbar=args.hbar), Grid(*args.grid)
    entry = _lookup(args)
    grid = Grid(*args.grid) if args.grid else numeric_grid(entry, 2001)
    return entry.superpotential(), grid


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_partner(args: argparse.Namespace) -> int:
    grid, series, diagnostics = _partner_series(args)
    table = np.column_stack([grid.points] + [np.asarray(s, dtype=float) for s in series.values()])
    bad = ~np.isfinite(table).all(axis=1)
    if bad.any():
        raise ValueError(f"partner output is not finite at x = {_fmt(table[bad][0, 0])}")
    diagnostics = {"n_points": grid.n_points, "h": grid.h, **diagnostics}
    _emit(args, ["x", *series], table.tolist(), diagnostics)
    return 0


def _partner_series(args: argparse.Namespace) -> tuple[Grid, dict, dict]:
    hierarchy = args.hierarchy
    if args.potential == "well":
        if args.w_expr is not None:
            raise ConfigError("choose exactly one of --potential or --w-expr")
        _refuse_units(args)
        if set(args.params) - {"L"}:
            raise ConfigError(f"bad parameters for 'well': it takes L only, got {sorted(args.params)}")
        length = args.params.get("L", math.pi)
        if not length > 0:
            raise ConfigError(f"well width L must be positive, got {_fmt(length)}")
        v = well_hierarchy_potential(max(hierarchy, 1) - 1, length)
        grid = Grid(*args.grid) if args.grid else Grid(length * 1e-4, length * (1 - 1e-4), 2001)
        return grid, {"v": v(grid.points)}, {}
    if hierarchy > 0:
        if args.potential is None:
            raise ConfigError("--hierarchy needs a catalog --potential")
        entry = _lookup(args)
        try:
            v, shift = hierarchy_potential(entry, hierarchy)
        except CatalogError as exc:  # a depth past the entry's last member
            raise ConfigError(str(exc)) from exc
        grid = Grid(*args.grid) if args.grid else numeric_grid(entry, 2001)
        return grid, {"v": v(grid.points)}, {"ground_energy_shift": shift}
    w, grid = _superpotential(args)
    x = grid.points
    return grid, {"w": w.w(x), "v1": w.v1(x), "v2": w.v2(x)}, {}


def _cmd_spectrum(args: argparse.Namespace) -> int:
    if args.potential is None:
        raise ConfigError("spectrum needs a catalog --potential")
    entry = _lookup(args)
    spec, truncated = sip_spectrum(entry, args.levels - 1)
    rows = [[n, e] for n, e in enumerate(spec)]
    _emit(
        args,
        ["n", "energy"],
        rows,
        {"bound_states": entry.n_bound, "truncated": bool(truncated)},
    )
    return 0


def _cmd_scatter(args: argparse.Namespace) -> int:
    ks = args.k
    if any(k <= 0 for k in ks):
        raise ConfigError(f"--k must be positive incident momenta, got {_fmt(min(ks))}")
    w, grid = _superpotential(args)
    if w.w_minus is None and args.w_expr is not None:
        wm = float(w.w(np.array(grid.x_min)))
        wp = float(w.w(np.array(grid.x_max)))
        w = replace(w, w_minus=wm, w_plus=wp)
    if w.w_minus is None or w.w_plus is None:
        raise ConfigError(
            f"potential {args.potential!r} has no finite superpotential asymptotes; "
            "scattering needs a full-line entry such as sech2 or rosen_morse2"
        )
    # E = (hbar k)^2 + W-^2 must also clear the right threshold W+^2
    k_open = math.sqrt(max(0.0, float(w.w_plus) ** 2 - float(w.w_minus) ** 2)) / w.c
    if min(ks) <= k_open:
        raise ConfigError(
            f"--k {_fmt(min(ks))} leaves the right channel closed: scattering needs k > "
            f"sqrt(max(0, W+^2 - W-^2)) / hbar = {_fmt(k_open)}"
        )
    rows, flux_defect, propagator_error = [], [], []
    for k in ks:
        energy = (w.c * k) ** 2 + float(w.w_minus) ** 2
        amp = numeric_rt_for(w, args.side, energy, grid.x_min, grid.x_max, n_steps=args.steps)
        flux_defect.append(amp.flux_defect)
        if args.out_format == "json":
            # every step has determinant 1, so the flux defect sits at rounding; halving the steps does not
            half = numeric_rt_for(w, args.side, energy, grid.x_min, grid.x_max, n_steps=max(args.steps // 2, 1))
            propagator_error.append(max(abs(amp.r - half.r), abs(amp.t - half.t)) if args.steps > 1 else None)
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
    bad = ~np.isfinite(rows).all(axis=1)
    if bad.any():
        raise ValueError(f"scatter output is not finite at k = {_fmt(np.asarray(ks)[bad][0])}")
    _emit(
        args,
        ["k", "energy", "re_r", "im_r", "re_t", "im_t", "prob_r", "prob_t"],
        rows,
        {
            "window": [grid.x_min, grid.x_max],
            "side": args.side,
            "flux_defect": flux_defect,
            "propagator_error": propagator_error,
        },
    )
    return 0


def _cmd_isospectral(args: argparse.Namespace) -> int:
    lams = args.lambdas
    bad = [lam for lam in lams if not admissible(lam)]
    if bad:
        raise ConfigError(f"--lambdas {_fmt(bad[0])} is not admissible: need lam > 0 or lam < -1")
    w, grid = _superpotential(args)
    fam = IsoFamily.build(w, grid)
    columns = ["x"]
    series = [grid.points]
    for lam in lams:
        columns += [f"v_lam_{lam:g}", f"psi0_lam_{lam:g}"]
        series += [fam.potential(lam).values, fam.ground_state(lam).values]
    rows = [list(t) for t in zip(*series)]
    _emit(args, columns, rows, {"n_points": grid.n_points, "h": grid.h, "lambdas": lams})
    return 0


def _cmd_swkb(args: argparse.Namespace) -> int:
    from .swkb import Mode, WKB_APPLICABLE, problem_for_entry, quantize

    if args.potential is None:
        raise ConfigError("swkb needs a catalog --potential")
    entry = _lookup(args)
    spec, truncated = sip_spectrum(entry, args.levels - 1)
    columns, problems = ["n", "e_exact", "e_swkb"], [problem_for_entry(entry, Mode.SWKB_V1, e_top=spec[-1])]
    if entry.name in WKB_APPLICABLE:  # a column only where plain WKB applies
        columns.append("e_wkb")
        problems.append(problem_for_entry(entry, Mode.WKB, e_top=spec[-1]))
    rows = [[n, e_exact, *(quantize(p, n) for p in problems)] for n, e_exact in enumerate(spec)]
    _emit(
        args,
        columns,
        rows,
        {"entry": entry.name, "bound_states": entry.n_bound, "truncated": bool(truncated)},
    )
    return 0


_BANDS_SOURCES = "choose --lame a=N [--m M] or --v-expr EXPR --period P [--params k=v,...]"


def _cmd_bands(args: argparse.Namespace) -> int:
    count = args.count
    if args.lame is not None:
        stray = {"--v-expr": args.v_expr, "--period": args.period, "--params": args.params or None}
        for flag, value in stray.items():
            if value is not None:
                raise ConfigError(f"{flag} does not apply to --lame; {_BANDS_SOURCES}")
        a = args.lame
        m = 0.5 if args.m is None else args.m
        try:
            spec = LameSpec(a, m)
        except PeriodicError as exc:
            raise ConfigError(str(exc)) from exc
        n_edges = 2 * a + 1 if count is None else count
        v, period = lame_potential(spec), spec.period
        diagnostics = {"a": a, "m": m, "period": period, "closed_form": n_edges <= 2 * a + 1}
    else:
        period = args.period
        if not args.v_expr or period is None:
            raise ConfigError(f"bands needs a potential: {_BANDS_SOURCES}")
        if args.m is not None:
            raise ConfigError(f"--m does not apply to --v-expr; {_BANDS_SOURCES}")
        if period <= 0:
            raise ConfigError(f"--period must be positive, got {_fmt(period)}")
        v = compile_expression(args.v_expr, args.params)
        n_edges = 5 if count is None else count
        diagnostics = {"period": period}
    numeric = numeric_band_edges(v, period, n_edges, n_points=1201)
    columns = ["energy", "antiperiodic", "nodes_per_period"]
    rows = [[e.energy, 0.0 if e.period_tag == "L" else 1.0, e.nodes_per_period] for e in numeric]
    if diagnostics.get("closed_form"):  # built after the Hill solve, which fails fast at a large a
        columns.insert(1, "energy_closed_form")
        for row, exact in zip(rows, lame_band_edges(spec)):
            row.insert(1, exact.energy)
    _emit(args, columns, rows, diagnostics)
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    outdir = args.outdir or os.environ.get("SUSYQM_OUTDIR", ".")
    os.makedirs(outdir, exist_ok=True)
    manifest = {
        "box_and_singular_partner.csv": "flat box and its inverse-square partner with their two lowest states",
        "isospectral_oscillator_potentials.csv": "one-parameter isospectral deformations of the oscillator well",
        "isospectral_oscillator_ground_states.csv": "normalized ground states along the same deformation sweep",
    }

    # box psi_n = sqrt(2/pi) sin((n+1)x); partner (W = -cot x) psi_n = A psi1_n+1 / sqrt((n+2)^2 - 1),
    # A = d/dx - cot x: A sin 2x = -2 sin^2 x, A sin 3x = -8 sin^2 x cos x, signs flipped to + first lobe
    grid = Grid(0.0, math.pi, 2001)
    x = grid.points.copy()
    x[0], x[-1] = x[1], x[-2]  # V is infinite on the walls: the CSV repeats the next sample
    wells = (well_hierarchy_potential(0), well_hierarchy_potential(1))
    s, c, norm = np.sin(grid.points), np.cos(grid.points), math.sqrt(2 / math.pi)
    psis = (norm * s, norm * 2 * s * c, norm * 2 * s**2 / math.sqrt(3), norm * 8 * s**2 * c / math.sqrt(8))

    # deformed oscillator potentials and ground states over a lambda sweep
    entry = sip_lookup("shifted_oscillator")
    g = Grid(-6.0, 6.0, 1201)
    fam = IsoFamily.build(entry.superpotential(), g)
    lams = [0.5, 1.0, 5.0, 1e6]
    lam_cols = ["x"] + [f"lam_{lam:g}" for lam in lams]

    tables = (  # (columns, rows) of each manifest file, in its order
        (
            ["x", "v_box", "v_partner", "psi0_box", "psi1_box", "psi0_partner", "psi1_partner"],
            np.column_stack([grid.points, *(v(x) for v in wells), *psis]),
        ),
        (lam_cols, np.column_stack([g.points, *(fam.potential(lam).values for lam in lams)])),
        (lam_cols, np.column_stack([g.points, *(fam.ground_state(lam).values for lam in lams)])),
    )
    for name, (columns, rows) in zip(manifest, tables):
        with open(os.path.join(outdir, name), "w", encoding="utf-8") as fh:
            _write_csv(fh, columns, rows)
    with open(os.path.join(outdir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    print(f"wrote {len(manifest)} data files and manifest.json to {outdir}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    # the suite, the spectral engine, the solvers' LAPACK (numpy's bundled
    # OpenBLAS, or scipy.linalg where numpy bundles none) and the numpy
    # submodules that numpy loads on first use are loaded as a stage of their
    # own, so each check's time is its own work
    start = time.perf_counter()
    import numpy.fft  # noqa: F401
    import numpy.polynomial  # noqa: F401
    import numpy.random  # noqa: F401

    from . import spectral  # noqa: F401
    from ._lapack import lapack
    from .selfcheck import run_all

    library = lapack()
    import_seconds = time.perf_counter() - start
    if args.out_format == "json":
        results = run_all()
        checks = [asdict(r) for r in results]
        diagnostics = {"seconds": sum(r.seconds for r in results), "import_seconds": import_seconds, "lapack": library}
        _emit_json(args, {"checks": checks}, diagnostics)
    else:  # one line per check as it finishes
        with _output_stream(args) as stream:
            results = run_all(lambda line: print(line, file=stream))
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag as one configuration-error line instead of the usage text."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _typed(expected: str, parse):
    """argparse type: parse(text), with a ValueError reported as 'expected <expected>, got <text>'."""

    def typed(text: str):
        try:
            return parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}") from None

    return typed


def _int_from(lowest: int):
    """argparse type: an integer no smaller than lowest."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lowest:
            raise ValueError(text)
        return value

    return _typed(f"an integer >= {lowest}", parse)


def _positive(text: str) -> float:
    value = _finite(text)
    if not value > 0:
        raise ValueError(text)
    return value


def _param(item: str) -> tuple[str, float]:
    key, value = item.split("=", 1)  # an item without "=" is a ValueError
    return key.strip(), math.pi if value.strip() == "pi" else _finite(value)


def _lo_hi_n(text: str) -> tuple[float, float, int]:
    lo, hi, n = text.split(",")  # other than three fields is a ValueError
    return _finite(lo), _finite(hi), int(n)


_finite_float = _typed("a finite number", _finite)
_positive_float = _typed("a positive finite number", _positive)
_floats = _typed("a comma-separated list of finite numbers", lambda text: [_finite(t) for t in text.split(",")])
_params = _typed(
    "comma-separated name=value pairs with finite values",
    lambda text: dict(map(_param, text.split(","))) if text else {},
)
_grid = _typed("lo,hi,n with finite lo and hi and an integer n", _lo_hi_n)
_lame = _typed("a=N with an integer N", lambda text: int(text.removeprefix("a=")))


def _build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: an abbreviated flag is an unknown flag, not the one it prefixes
    parser = _Parser(
        prog="susyqm",
        description="Self-verifying toolkit for factorized quantum mechanics.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"susyqm {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def params(p):
        p.add_argument("--params", type=_params, default={}, help="comma-separated name=value parameters")

    def catalog(p):
        p.add_argument("--potential", help="catalog entry name")
        params(p)

    def inline(p):
        p.add_argument("--w-expr", dest="w_expr", help="inline superpotential expression in x")
        p.add_argument("--grid", type=_grid, help="lo,hi,n sampling grid")
        p.add_argument("--hbar", type=_positive_float, default=1.0, help="hbar of --w-expr, in units 2m = 1")

    def output(p):
        p.add_argument("--format", dest="out_format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", help="output file (default: stdout)")

    def add(name, help, *groups):
        """A subcommand with the flag groups its handler reads, and --config."""
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        for group in groups:
            group(p)
        p.add_argument("--config", help="JSON file of flag values; explicit flags win")
        return p

    p = add("partner", "partner potentials, or a hierarchy member", catalog, inline, output)
    p.add_argument("--hierarchy", type=_int_from(0), default=0, help="emit the s-th hierarchy member")

    p = add("spectrum", "closed-form bound spectrum of a catalog entry", catalog, output)
    p.add_argument("--levels", type=_int_from(1), default=6)

    p = add("scatter", "reflection/transmission amplitudes", catalog, inline, output)
    p.add_argument(
        "--k", type=_floats, default="0.5,1,2", help="comma-separated positive incident momenta (default %(default)s)"
    )
    p.add_argument("--side", type=int, choices=(1, 2), default=1)
    p.add_argument("--steps", type=_int_from(1), default=8000)

    p = add("isospectral", "one-parameter isospectral family curves", catalog, inline, output)
    p.add_argument(
        "--lambdas",
        type=_floats,
        default="0.5,1,5",
        help="comma-separated deformation parameters, each > 0 or < -1 (default %(default)s)",
    )

    p = add("swkb", "semiclassical vs exact level table", catalog, output)
    p.add_argument("--levels", type=_int_from(1), default=4)

    p = add("bands", "band edges of a periodic well", output, params)
    p.add_argument("--lame", type=_lame, help="a=N elliptic well, N >= 1 (closed-form column up to 2N + 1 edges)")
    p.add_argument("--m", type=_finite_float, help="elliptic parameter of --lame, in (0,1); default 0.5")
    p.add_argument("--count", type=_int_from(1), help="number of edges")
    p.add_argument("--v-expr", dest="v_expr", help="inline periodic potential expression")
    p.add_argument("--period", type=_finite_float, help="period of --v-expr, > 0")

    p = add("figures", "write plot-ready data files plus a manifest")
    p.add_argument("--outdir", help="output directory (default: SUSYQM_OUTDIR or .)")

    add("check", "run the full invariant suite", output)  # a fixed suite: no potential to choose
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

def _config_flags(path: str, known: set) -> list[str]:
    """The config file's keys as --flag=value tokens, checked like typed flags.

    Lists are joined by commas and dicts written as name=value pairs.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            file_cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    if not isinstance(file_cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    flags = []
    for key, value in file_cfg.items():
        if key not in known or key in ("subcommand", "config"):
            raise ConfigError(f"unknown config key {key!r}")
        if value is None:
            continue
        if isinstance(value, dict):
            value = ",".join(f"{k}={v}" for k, v in value.items())
        elif isinstance(value, list):
            value = ",".join(str(v) for v in value)
        flag = "--format" if key == "out_format" else "--" + key.replace("_", "-")
        flags.append(f"{flag}={value}")
    return flags


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Rewrite "--grid -10,10,2001" as "--grid=-10,10,2001".

    argparse reads a token that starts with '-' and is not a plain number as
    an option, so a negative lo,hi,n or comma list would be refused.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and re.match(r"-\.?\d", token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv: Optional[list[str]] = None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
    except BrokenPipeError:
        # the reader has gone; send the rest of stdout to devnull so the
        # interpreter's final flush stays quiet (Python docs, signal module)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def _run(argv: Optional[list[str]]) -> int:
    parser = _build_parser()
    argv = _attach_negative_values(sys.argv[1:] if argv is None else list(argv))
    try:
        args = parser.parse_args(argv)
        if args.config is not None:  # the file's flags go first, so explicit flags win
            i = argv.index(args.subcommand) + 1
            file_flags = _config_flags(args.config, set(vars(args)))
            args = parser.parse_args(argv[:i] + file_flags + argv[i:])
    except SystemExit:  # --help and --version; bad flags raise ConfigError
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = _DISPATCH[args.subcommand](args)
        except BrokenPipeError:  # a closed stdout, for main to end quietly
            raise
        except (ConfigError, ExpressionError, OSError) as exc:  # OSError: an unwritable output
            print(f"configuration error: {exc}", file=sys.stderr)
            return 2
        except _NUMERIC_ERRORS as exc:  # its one line, without the warnings that led to it
            print(f"numeric failure in {args.subcommand}: {exc}", file=sys.stderr)
            return 1
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
