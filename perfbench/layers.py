"""Per-layer metrics of a traced run, and the counters recorded at layer boundaries.

Layer time is reported as a share of the traced pass (self_pct, total_pct),
so a layer a workload never calls reads 0 %, not a constant 0 s; seconds
per layer are printed in the run's report and kept in the span file.
"""

from __future__ import annotations

from collections import defaultdict

LAYER_FUNCS = [
    "swkb.action_integral",
    "swkb.turning_points",
    "swkb.quantize",
    "grids.bisect_root",
    "scattering.numeric_rt",
    "periodic.hill_discriminant",
    "periodic.numeric_band_edges",
    "periodic.band_edge_states",
    "periodic.classify_pair",
    "special.jacobi_sn_cn_dn",
    "eigensolver.bound_states",
    "eigensolver.band_solve",
    "isospectral.IsoFamily.build",
    "isospectral.IsoFamily.potential",
    "core.algebra_check",
    "core.Superpotential.v1",
    "core.Superpotential.v2",
    "catalog.sip_lookup",
    "catalog.numeric_levels",
    "expressions.compile_expression",
    "cli.main",
]

SELFCHECKS = [
    "check_well_ladder",
    "check_degeneracy",
    "check_reflectionless",
    "check_shape_invariance",
    "check_isospectral",
    "check_swkb_exactness",
    "check_swkb_ground",
    "check_lame_one",
    "check_lame_two",
    "check_algebra",
    "check_oscillation_theorem",
]

CLI_SUBCOMMANDS = ["partner", "spectrum", "scatter", "isospectral", "swkb", "bands", "figures"]

# computed counters: (metric name, unit)
COUNTERS = [
    ("swkb.action_evals_per_level", "count"),
    ("scattering.rk4_steps", "count"),
    ("scattering.steps_per_s", "1/s"),
    ("periodic.hill_discriminant.rk4_steps", "count"),
    ("special.points_per_call", "count"),
    ("eigensolver.bound_states.points", "count"),
    ("eigensolver.band_solve.dense_bytes_computed", "bytes"),
    ("eigensolver.band_solve.n3_ops_computed", "count"),
    ("expressions.points_evaluated", "count"),
]

TRACE_METRICS = [
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
]


def per_layer_spec() -> list:
    """Every per-layer metric as (name, unit), in BENCHMARK.json order."""
    spec = []
    for f in LAYER_FUNCS:
        spec += [(f"{f}.calls", "count"), (f"{f}.self_pct", "%"), (f"{f}.total_pct", "%")]
    spec += [(f"selfcheck.{c}.pct", "%") for c in SELFCHECKS]
    spec += [(f"cli.main.{s}.self_pct", "%") for s in CLI_SUBCOMMANDS]
    return spec + COUNTERS + TRACE_METRICS


# -- hooks: counters recorded at the boundary, from the call's arguments --------


def _rt_steps(tracer, args, result):
    tracer.counts["scattering.rk4_steps"] += args["n_steps"]
    return result


def _hill_steps(tracer, args, result):
    tracer.counts["periodic.hill_discriminant.rk4_steps"] += 2 * args["n_steps"]  # two columns
    return result


def _jacobi_points(tracer, args, result):
    tracer.counts["special.points"] += getattr(args["x"], "size", 1)
    return result


def _bound_points(tracer, args, result):
    tracer.counts["eigensolver.bound_states.points"] += args["v"].grid.n_points
    return result


def _band_dense(tracer, args, result):
    """Dense Bloch matrices: n unique points, plus the 2h grid when extrapolating."""
    n = args["v"].grid.n_points - 1
    sizes = [n, n // 2] if args["richardson"] and n % 2 == 0 and n >= 8 else [n]
    tracer.counts["eigensolver.band_solve.dense_bytes_computed"] += sum(8 * s * s for s in sizes)
    tracer.counts["eigensolver.band_solve.n3_ops_computed"] += sum(s**3 for s in sizes)
    return result


def _expression_points(tracer, args, result):
    """Count the points every compiled expression is evaluated on."""

    def counted(x):
        tracer.counts["expressions.points_evaluated"] += getattr(x, "size", 1)
        return result(x)

    return counted


HOOKS = {
    "scattering.numeric_rt": _rt_steps,
    "periodic.hill_discriminant": _hill_steps,
    "special.jacobi_sn_cn_dn": _jacobi_points,
    "eigensolver.bound_states": _bound_points,
    "eigensolver.band_solve": _band_dense,
    "expressions.compile_expression": _expression_points,
}


def per_layer_values(agg: dict, by_job: dict, counts: dict, traced_wall: float, untraced_wall: float, n_spans: int) -> dict:
    """Per-layer metric values from span aggregates by name and by (name, job)."""
    zero = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    pct = 100.0 / traced_wall
    out = {}
    for f in LAYER_FUNCS:
        row = agg.get(f, zero)
        out[f"{f}.calls"] = row["calls"]
        out[f"{f}.self_pct"] = row["self_s"] * pct
        out[f"{f}.total_pct"] = row["total_s"] * pct
    for c in SELFCHECKS:
        out[f"selfcheck.{c}.pct"] = agg.get(f"selfcheck.{c}", zero)["total_s"] * pct
    cli_self = defaultdict(float)
    for (name, job), row in by_job.items():
        if name == "cli.main":
            cli_self[job] += row["self_s"]
    for s in CLI_SUBCOMMANDS:
        out[f"cli.main.{s}.self_pct"] = cli_self[s] * pct
    quantize = agg.get("swkb.quantize", zero)["calls"]
    rt_total = agg.get("scattering.numeric_rt", zero)["total_s"]
    jacobi = agg.get("special.jacobi_sn_cn_dn", zero)["calls"]
    out["swkb.action_evals_per_level"] = (
        agg.get("swkb.action_integral", zero)["calls"] / quantize if quantize else 0.0
    )
    out["scattering.rk4_steps"] = counts.get("scattering.rk4_steps", 0.0)
    out["scattering.steps_per_s"] = out["scattering.rk4_steps"] / rt_total if rt_total else 0.0
    out["periodic.hill_discriminant.rk4_steps"] = counts.get("periodic.hill_discriminant.rk4_steps", 0.0)
    out["special.points_per_call"] = counts.get("special.points", 0.0) / jacobi if jacobi else 0.0
    for name in (
        "eigensolver.bound_states.points",
        "eigensolver.band_solve.dense_bytes_computed",
        "eigensolver.band_solve.n3_ops_computed",
        "expressions.points_evaluated",
    ):
        out[name] = counts.get(name, 0.0)
    out["trace.wall_s"] = traced_wall
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.overhead_s"] = traced_wall - untraced_wall
    out["trace.spans"] = n_spans
    return out
