"""susyqm benchmark: one command per workload, every output checked, every metric named.

    python3 perfbench/run.py --workload selfcheck --seed 1 --seconds 25 --trace 0

Workloads: selfcheck, transmission_sweep, spectra_grid, cli_examples (see
workloads.py and README.md). With --trace 0 the job list is run for about
--seconds (at least one pass) and the end-to-end metrics are printed; with
--trace 1 a traced pass between two untraced ones gives the per-layer
metrics and the tracing overhead. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("level_digits", "digits"),
    ("swkb_digits", "digits"),
    ("scatter_digits", "digits"),
    ("band_digits", "digits"),
    ("residual_digits", "digits"),
]

# import plus the first call into each layer, in a fresh interpreter
SETUP_CODE = """
import numpy as np
import susyqm.cli
from susyqm import (Grid, IsoFamily, LameSpec, bound_states_of, compile_expression,
                    lame_potential, numeric_band_edges, numeric_rt, sip_lookup)
from susyqm.swkb import Mode, action_integral, problem_for_entry
entry = sip_lookup("shifted_oscillator")
bound_states_of(entry.v1, -5.0, 5.0, 2, n_points=101)
spec = LameSpec(1, 0.5)
numeric_band_edges(lame_potential(spec), spec.period, 3, n_points=65)
numeric_rt(lambda x: 0.0 * np.asarray(x), 1.0, -1.0, 1.0, n_steps=10)
action_integral(problem_for_entry(entry, Mode.SWKB_V1, n_points=101), 1.0)
IsoFamily.build(entry.superpotential(), Grid(-8.0, 8.0, 201))
compile_expression("x^2")(np.linspace(0.0, 1.0, 5))
"""


def setup_seconds(workdir: Path, env: dict) -> float:
    t0 = time.perf_counter()
    res = subprocess.run(
        [sys.executable, "-c", SETUP_CODE], cwd=workdir, env=env, capture_output=True, text=True, timeout=120
    )
    elapsed = time.perf_counter() - t0
    if res.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {res.stderr.strip()[-300:]}")
    return elapsed


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def measured_run(args, workdir: Path) -> tuple:
    from harness import call_job, category_digits, check_pass, run_passes, timing_summary
    from workloads import _cli_env, build

    jobs = build(args.workload, args.seed, workdir / "cli")
    walls, passes = run_passes(jobs, args.seconds, call_job)
    # cli_examples runs in child processes; read their peak before any set-up probe runs
    rss = peak_rss_mb(children=args.workload == "cli_examples")
    setups = [setup_seconds(workdir, _cli_env()) for _ in range(SETUP_REPEATS)]
    outputs = check_pass(jobs, passes[0])
    repeat_ok = all(check_pass(jobs, raws) == outputs for raws in passes[1:])
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
        **category_digits(outputs),
    }
    notes = {"wall_s": timing_summary(walls), "setup_s": timing_summary(setups)}
    return jobs, passes[0], outputs, repeat_ok, metrics, notes


def traced_run(args, workdir: Path) -> tuple:
    from harness import call_job, check_pass
    from layers import HOOKS, per_layer_values
    from tracing import Tracer, aggregate, by_name
    from workloads import build

    jobs = build(args.workload, args.seed, workdir / "cli", in_process=True)

    def untraced_pass():
        t0 = time.perf_counter()
        raws = [call_job(job) for job in jobs]
        return time.perf_counter() - t0, raws

    # the traced pass sits between two untraced ones, so drift and first-call
    # costs do not land on the overhead
    before, untraced = untraced_pass()
    tracer = Tracer(hooks=HOOKS)
    tracer.install()
    try:
        raws = []
        t0 = time.perf_counter()
        for job in jobs:
            tracer.set_job(job.name)
            raws.append(call_job(job))
        traced_wall = time.perf_counter() - t0
    finally:
        tracer.restore()
    after, _ = untraced_pass()
    untraced_wall = 0.5 * (before + after)
    tracer.write(OUT / f"spans-{args.workload}.npz")
    cols = tracer.columns()
    per_job = aggregate(cols)
    totals = by_name(per_job)
    values = per_layer_values(totals, per_job, tracer.counts, traced_wall, untraced_wall, cols["name"].size)
    outputs = check_pass(jobs, raws)
    repeat_ok = check_pass(jobs, untraced) == outputs
    top = sorted(totals.items(), key=lambda kv: -kv[1]["self_s"])[:12]
    notes = {"top_self_s": [(name, round(row["self_s"], 4), row["calls"]) for name, row in top]}
    return jobs, raws, outputs, repeat_ok, values, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "susyqm" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC.name}/susyqm; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from harness import JobError, pin_threads, run_record

    threads = pin_threads()  # before numpy loads its BLAS
    sys.path.insert(0, str(SRC))
    import susyqm.cli  # noqa: F401  every module is loaded before timing or tracing
    import susyqm.selfcheck  # noqa: F401
    from layers import per_layer_spec
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = traced_run if args.trace else measured_run
        jobs, raws, outputs, repeat_ok, values, notes = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    spec = per_layer_spec() if args.trace else END_TO_END
    failed = [o for o in outputs if not o.ok]
    crashed = [job.name for job, raw in zip(jobs, raws) if isinstance(raw, JobError)]
    record = run_record(ROOT, args.seed, args.workload, threads)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} jobs={len(jobs)}")
    for name, unit in spec:
        print(f"  {name:48s} {values[name]:>16.6g} {unit}")
    print(f"  {'fail_ratio':48s} {len(failed) / max(1, len(outputs)):>16.6g} ({len(failed)} of {len(outputs)} outputs)")
    for o in failed[:40]:
        print(f"  failed: {o.what}: error {o.error:.3e} > tol {o.tol:.1e}")
    for name in crashed:
        print(f"  crashed: {name}")
    if not repeat_ok:
        print("  outputs differed between passes")
    print("notes: " + json.dumps(notes))
    print("record: " + json.dumps(record))
    print(
        json.dumps(
            {
                "correct": repeat_ok and not crashed,
                "attempted": len(outputs),
                "failed": len(failed),
                "metrics": {name: {"value": values[name], "unit": unit} for name, unit in spec},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
