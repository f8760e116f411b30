"""Accounting shared by every workload: checked outputs, digits, pass timing, run record.

A job returns raw results; its checker turns them into Outputs, one per
closed-form comparison. An Output is within its gate when error <= tol. The
digits of an output are log10(tol / error), capped at DIGITS_CAP (an exact
match has error 0 and reads the cap).
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import statistics
import subprocess
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional

DIGITS_CAP = 16.0
CATEGORIES = ("level", "swkb", "scatter", "band", "residual")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Output:
    """One comparison of a program output with its closed form.

    category is one of CATEGORIES, or None for a pass/fail condition that
    has no accuracy scale (a label, a count, a file that must exist).
    """

    what: str
    category: Optional[str]
    error: float
    tol: float

    @property
    def ok(self) -> bool:
        return math.isfinite(self.error) and self.error <= self.tol


def condition(what: str, holds: bool) -> Output:
    """A pass/fail output: error 0 when it holds, inf when it does not."""
    return Output(what, None, 0.0 if holds else math.inf, 0.0)


@dataclass(frozen=True)
class Job:
    """One unit of work: run() is timed, check(raw) is not."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], list]


def digits(error: float, tol: float) -> float:
    """log10(tol / error), capped at DIGITS_CAP; error 0 reads the cap."""
    if error == 0.0:
        return DIGITS_CAP
    if not math.isfinite(error):
        return -DIGITS_CAP
    return max(-DIGITS_CAP, min(DIGITS_CAP, math.log10(tol / error)))


def category_digits(outputs: list) -> dict:
    """Median digits per category; a category with no outputs reads the cap.

    The median, not the minimum, so that one seeded draw landing on a known
    defect does not set the whole workload's figure (the misses themselves
    are counted as failed outputs).
    """
    out = {}
    for cat in CATEGORIES:
        vals = [digits(o.error, o.tol) for o in outputs if o.category == cat]
        out[f"{cat}_digits"] = statistics.median(vals) if vals else DIGITS_CAP
    return out


def timing_summary(samples: list) -> dict:
    """Median, sample count and the highest percentile with >= 10 samples beyond it."""
    n = len(samples)
    s = sorted(samples)
    summary = {"median": statistics.median(s), "n": n, "tail_pct": None, "tail": None}
    if n >= 11:
        pct = 100.0 * (n - 10) / n
        summary["tail_pct"] = pct
        summary["tail"] = s[n - 11]
    return summary


def run_passes(jobs: list, seconds: float, run_job: Callable) -> tuple:
    """Run the job list repeatedly for about `seconds`; at least one pass.

    A further pass starts only if the last pass would still fit. Returns the
    pass wall times and each pass's raw results.
    """
    walls, passes = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        raws = [run_job(job) for job in jobs]
        wall = time.perf_counter() - t0
        walls.append(wall)
        passes.append(raws)
        if time.perf_counter() - start + wall > seconds:
            return walls, passes


def check_pass(jobs: list, raws: list) -> list:
    """Outputs of one pass, named after their job; a job that raised yields one failed output."""
    outputs = []
    for job, raw in zip(jobs, raws):
        if isinstance(raw, JobError):
            outputs.append(Output(f"{job.name}: {raw.message}", None, math.inf, 0.0))
        else:
            outputs.extend(replace(o, what=f"{job.name}: {o.what}") for o in job.check(raw))
    return outputs


class JobError:
    """A job that raised or exited non-zero; stands in for its raw result."""

    def __init__(self, message: str):
        self.message = message


def call_job(job: Job):
    try:
        return job.run()
    except Exception as exc:  # a failing job is counted, the run goes on
        return JobError(f"{type(exc).__name__}: {exc}")


def pin_threads() -> dict:
    """Pin the BLAS/OpenMP pools to at most nproc threads; return the settings."""
    nproc = os.cpu_count() or 1
    settings = {}
    for var in THREAD_VARS:
        try:
            want = int(os.environ.get(var, nproc))
        except ValueError:
            want = nproc
        os.environ[var] = str(max(1, min(want, nproc)))
        settings[var] = os.environ[var]
    return settings


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit(root: Path) -> Optional[str]:
    """HEAD of the checkout, or None when the checkout is not a git repository."""
    if not (root / ".git").exists():
        return None
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def source_digest(src: Path) -> str:
    """sha256 over the package sources, to name the code when git is absent."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_record(root: Path, seed: int, workload: str, threads: dict) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "commit": _commit(root),
        "source_sha256": source_digest(root / "src" / "susyqm"),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": threads,
    }
