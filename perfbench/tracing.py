"""Outside-in tracing: wrap the package's public functions, record one span per call.

install() sweeps sys.modules and replaces every public function defined in
the package, in every namespace that bound it (a name brought in with
`from .x import y` is bound in several modules), and every public method of
the package's classes. restore() puts the originals back, so untraced runs
call the original functions. A span is (name, start, end, parent, job);
spans are kept in flat arrays and written out at the end (numpy .npz).
"""

from __future__ import annotations

import enum
import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable, Optional

import numpy as np


class Tracer:
    def __init__(self, prefix: str = "susyqm", hooks: Optional[dict] = None):
        self.prefix = prefix
        self.hooks = hooks or {}
        self.names: list = []
        self._name_ids: dict = {}
        self.jobs: list = []
        self._nid = array("i")
        self._t0 = array("d")
        self._t1 = array("d")
        self._parent = array("i")
        self._job = array("i")
        self.counts: dict = defaultdict(float)
        self._stack: list = []
        self._job_id = -1
        self._replaced: list = []

    # -- spans ---------------------------------------------------------------

    def set_job(self, job: str) -> None:
        self.jobs.append(job)
        self._job_id = len(self.jobs) - 1

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn: Callable, name: str) -> Callable:
        nid = self._name_id(name)
        hook = self.hooks.get(name)
        sig = inspect.signature(fn) if hook else None
        stack, now = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self._t0)
            self._nid.append(nid)
            self._parent.append(stack[-1] if stack else -1)
            self._job.append(self._job_id)
            self._t0.append(0.0)
            self._t1.append(0.0)
            stack.append(idx)
            t0 = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = now()
                stack.pop()
                self._t0[idx] = t0
                self._t1[idx] = t1
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                result = hook(self, bound.arguments, result)
            return result

        return traced

    # -- install / restore ---------------------------------------------------

    def _in_package(self, modname: str) -> bool:
        return modname == self.prefix or modname.startswith(self.prefix + ".")

    def _ours(self, obj) -> bool:
        return self._in_package(getattr(obj, "__module__", None) or "")

    def _span_name(self, qualname: str, module: str) -> str:
        return f"{module.rsplit('.', 1)[-1]}.{qualname}"

    def install(self) -> None:
        """Wrap every public package function and method, in every namespace that bound it."""
        wrappers: dict = {}
        classes: set = set()
        for modname, mod in list(sys.modules.items()):
            if mod is None or not self._in_package(modname):
                continue
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_") or not self._ours(val):
                    continue
                if inspect.isfunction(val):
                    if id(val) not in wrappers:
                        wrappers[id(val)] = self._wrap(val, self._span_name(val.__qualname__, val.__module__))
                    self._replace(mod, attr, val, wrappers[id(val)])
                elif inspect.isclass(val) and val not in classes:
                    classes.add(val)
                    if not issubclass(val, (enum.Enum, BaseException)):
                        self._install_class(val)

    def _install_class(self, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = self._span_name(f"{cls.__qualname__}.{attr}", cls.__module__)
            if isinstance(member, classmethod):
                self._replace(cls, attr, member, classmethod(self._wrap(member.__func__, name)))
            elif isinstance(member, staticmethod):
                self._replace(cls, attr, member, staticmethod(self._wrap(member.__func__, name)))
            elif inspect.isfunction(member):
                self._replace(cls, attr, member, self._wrap(member, name))

    def _replace(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._replaced.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._replaced):
            setattr(owner, attr, original)
        self._replaced.clear()

    # -- results -------------------------------------------------------------

    def columns(self) -> dict:
        """The spans as arrays: name and job index into names and jobs, parent index or -1."""
        return {
            "names": list(self.names),
            "jobs": list(self.jobs),
            "name": np.frombuffer(self._nid, dtype=np.int32),
            "start": np.frombuffer(self._t0),
            "end": np.frombuffer(self._t1),
            "parent": np.frombuffer(self._parent, dtype=np.int32),
            "job": np.frombuffer(self._job, dtype=np.int32),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        cols = self.columns()
        np.savez(path, **{**cols, "names": np.array(cols["names"]), "jobs": np.array(cols["jobs"])})


def self_times(cols: dict) -> np.ndarray:
    """Each span's duration minus the time its direct child spans cover."""
    dur = cols["end"] - cols["start"]
    inner = cols["parent"] >= 0
    return dur - np.bincount(cols["parent"][inner], weights=dur[inner], minlength=dur.size)


def _outermost(cols: dict) -> np.ndarray:
    """True where no enclosing span has the same name."""
    name, parent = cols["name"], cols["parent"]
    outer = np.ones(name.size, dtype=bool)
    idx = np.nonzero(parent >= 0)[0]
    anc = parent[idx]
    while idx.size:
        same = name[anc] == name[idx]
        outer[idx[same]] = False
        idx, anc = idx[~same], parent[anc[~same]]
        keep = anc >= 0
        idx, anc = idx[keep], anc[keep]
    return outer


def aggregate(cols: dict) -> dict:
    """calls, self_s and total_s per (name, job).

    total_s counts a call only when no enclosing span has the same name, so
    a function that re-enters itself is not counted twice.
    """
    dur = cols["end"] - cols["start"]
    width = len(cols["jobs"]) + 1  # job -1 (none set) maps to slot 0
    keys, inv = np.unique(cols["name"].astype(np.int64) * width + cols["job"] + 1, return_inverse=True)
    calls = np.bincount(inv, minlength=keys.size)
    selfs = np.bincount(inv, weights=self_times(cols), minlength=keys.size)
    totals = np.bincount(inv, weights=np.where(_outermost(cols), dur, 0.0), minlength=keys.size)
    out = {}
    for key, c, s_, t in zip(keys.tolist(), calls, selfs, totals):
        job = key % width - 1
        name_job = (cols["names"][key // width], cols["jobs"][job] if job >= 0 else None)
        out[name_job] = {"calls": int(c), "self_s": float(s_), "total_s": float(t)}
    return out


def by_name(agg: dict) -> dict:
    """Sum an aggregate over jobs."""
    out: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    for (name, _), row in agg.items():
        for key, value in row.items():
            out[name][key] += value
    return dict(out)
