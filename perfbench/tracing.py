"""Spans around the public functions of linsys, recorded from outside it.

``Tracer.install`` replaces each traced function in every linsys module
that holds it, so a call is seen however the caller looks the function up
(``linsys.lattice`` imports ``iter_solutions`` by name, ``linsys.cli`` calls
``structure.build_hypergraph`` through the module).  Only the lookups named
in ``LOOKUPS`` are replaced, so a function called through other modules is
not counted there.

Each span records its function, the job it ran in, the span open around it
(its parent), its start and end, and one number the function reports
(nodes explored, points built, tuples yielded).  Spans stay in columnar
arrays until the end of the run.  ``iter_solutions`` is a generator: its
span runs from the call until the generator is exhausted or closed, and it
opens no child spans.
"""
from __future__ import annotations

import gzip
import json
import statistics
import sys
import time
from array import array
from pathlib import Path
from typing import Callable

# traced function -> (module that defines it, modules whose lookup is replaced)
LOOKUPS: dict[str, tuple[str, tuple[str, ...]]] = {
    "max_strongly_free": ("oracle", ("oracle", "cli")),
    "max_weakly_free": ("oracle", ("oracle", "cli")),
    "iter_solutions": ("oracle", ("oracle", "lattice")),
    "is_strongly_free": ("oracle", ("oracle", "cli")),
    "is_weakly_free": ("oracle", ("oracle", "cli")),
    "lambda_min": ("bounds", ("bounds",)),
    "optimize_allocation": ("bounds", ("bounds",)),
    "c_tilde": ("bounds", ("bounds",)),
    "reduction_sequence": ("dominance", ("dominance", "cli")),
    "subsystem": ("eqsys", ("dominance",)),
    "norm_class_counts": ("lattice", ("lattice", "cli")),
    "best_sphere_set": ("lattice", ("lattice", "cli")),
    "verify_construction": ("lattice", ("lattice", "cli")),
    "build_hypergraph": ("structure", ("structure", "bounds", "dominance")),
}

# the number a span keeps from its function's result
_RESULT_COUNT: dict[str, Callable[[object], int]] = {
    "max_strongly_free": lambda res: res.nodes_explored,
    "max_weakly_free": lambda res: res.nodes_explored,
    "best_sphere_set": lambda res: len(res.points),
}

NAMES = tuple(LOOKUPS)
_NO_PARENT = -1

# per-layer metric -> unit; the README says which end-to-end metric each moves
PER_LAYER_UNITS = {
    "oracle.search_s": "s",
    "oracle.search_nodes": "count",
    "oracle.enum_calls": "count",
    "oracle.enum_s": "s",
    "oracle.solutions": "count",
    "oracle.verify_s": "s",
    "bounds.lambda_calls": "count",
    "bounds.lambda_distinct": "count",
    "bounds.lambda_s": "s",
    "bounds.allocation_s": "s",
    "bounds.ctilde_s": "s",
    "dominance.reduce_s": "s",
    "dominance.reductions": "count",
    "lattice.census_s": "s",
    "lattice.sphere_s": "s",
    "lattice.sphere_points": "count",
    "lattice.verify_s": "s",
    "structure.hypergraph_calls": "count",
    "cli.self_s": "s",
    "cli.jobs": "count",
}


class Tracer:
    """Records spans; one instance per traced pass."""

    def __init__(self) -> None:
        self.name = array("b")
        self.job = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.count = array("q")
        self._open: list[int] = []       # spans of plain calls now running
        self._job = -1
        self._job_start = 0.0
        self.job_times: list[tuple[float, float]] = []
        self.lambda_args: set = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _open_span(self, name_id: int) -> int:
        sid = len(self.start)
        self.name.append(name_id)
        self.job.append(self._job)
        self.parent.append(self._open[-1] if self._open else _NO_PARENT)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.count.append(0)
        return sid

    def _wrap_call(self, name: str, fn: Callable) -> Callable:
        name_id = NAMES.index(name)
        result_count = _RESULT_COUNT.get(name)

        def traced(*args, **kwargs):
            sid = self._open_span(name_id)
            self._open.append(sid)
            try:
                res = fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.end[sid] = time.perf_counter()
            if result_count is not None:
                self.count[sid] = result_count(res)
            return res

        return traced

    def _wrap_generator(self, name: str, fn: Callable) -> Callable:
        name_id = NAMES.index(name)

        def iterate(sid: int, gen):
            yielded = 0
            try:
                for item in gen:
                    yielded += 1
                    yield item
            finally:
                self.end[sid] = time.perf_counter()
                self.count[sid] = yielded

        def traced(*args, **kwargs):
            sid = self._open_span(name_id)
            self.end[sid] = self.start[sid]  # stays so if never iterated
            return iterate(sid, fn(*args, **kwargs))

        return traced

    def _wrap_lambda(self, fn: Callable) -> Callable:
        traced = self._wrap_call("lambda_min", fn)

        def with_args(m, alpha, h):
            self.lambda_args.add((m, float(alpha), h))
            return traced(m, alpha, h)

        return with_args

    def install(self) -> None:
        modules = {name: sys.modules[f"linsys.{name}"] for name in
                   ("oracle", "bounds", "dominance", "eqsys", "lattice", "structure", "cli")}
        for name, (home, lookups) in LOOKUPS.items():
            original = getattr(modules[home], name)
            if name == "iter_solutions":
                wrapper = self._wrap_generator(name, original)
            elif name == "lambda_min":
                wrapper = self._wrap_lambda(original)
            else:
                wrapper = self._wrap_call(name, original)
            for mod_name in lookups:
                module = modules[mod_name]
                if getattr(module, name) is not original:
                    raise RuntimeError(f"linsys.{mod_name}.{name} is not linsys.{home}.{name}")
                self._restore.append((module, name, original))
                setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def begin_job(self, job_id: int) -> None:
        self._job = job_id
        self._job_start = time.perf_counter()

    def end_job(self) -> None:
        self.job_times.append((self._job_start, time.perf_counter()))
        self._job = -1

    # -- summaries -----------------------------------------------------------

    def _totals(self) -> dict[str, list]:
        """Per span name: [seconds, calls, sum of counts]."""
        totals = [[0.0, 0, 0] for _ in NAMES]
        for name_id, start, end, counted in zip(self.name, self.start, self.end, self.count):
            acc = totals[name_id]
            acc[0] += end - start
            acc[1] += 1
            acc[2] += counted
        return dict(zip(NAMES, totals))

    def _uncovered(self) -> float:
        """Job time outside every top-level span."""
        covered: list[list[tuple[float, float]]] = [[] for _ in self.job_times]
        for i, parent in enumerate(self.parent):
            if parent == _NO_PARENT and self.job[i] >= 0:
                covered[self.job[i]].append((self.start[i], self.end[i]))
        total = 0.0
        for (start, end), spans in zip(self.job_times, covered):
            busy, reach = 0.0, start
            for s, e in sorted(spans):
                if e > reach:
                    busy += e - max(s, reach)
                    reach = e
            total += (end - start) - busy
        return total

    def metrics(self) -> dict[str, float]:
        t = self._totals()
        return {
            "oracle.search_s": t["max_strongly_free"][0] + t["max_weakly_free"][0],
            "oracle.search_nodes": t["max_strongly_free"][2] + t["max_weakly_free"][2],
            "oracle.enum_calls": t["iter_solutions"][1],
            "oracle.enum_s": t["iter_solutions"][0],
            "oracle.solutions": t["iter_solutions"][2],
            "oracle.verify_s": t["is_strongly_free"][0] + t["is_weakly_free"][0],
            "bounds.lambda_calls": t["lambda_min"][1],
            "bounds.lambda_distinct": len(self.lambda_args),
            "bounds.lambda_s": t["lambda_min"][0],
            "bounds.allocation_s": t["optimize_allocation"][0],
            "bounds.ctilde_s": t["c_tilde"][0],
            "dominance.reduce_s": t["reduction_sequence"][0],
            "dominance.reductions": t["subsystem"][1],
            "lattice.census_s": t["norm_class_counts"][0],
            "lattice.sphere_s": t["best_sphere_set"][0],
            "lattice.sphere_points": t["best_sphere_set"][2],
            "lattice.verify_s": t["verify_construction"][0],
            "structure.hypergraph_calls": t["build_hypergraph"][1],
            "cli.self_s": self._uncovered(),
            "cli.jobs": len(self.job_times),
        }

    def write(self, path: Path, job_names: list[str]) -> None:
        """All spans, as columns, gzip-compressed JSON."""
        data = {
            "names": list(NAMES),
            "jobs": job_names,
            "columns": ["name", "job", "parent", "start", "end", "count"],
            "name": self.name.tolist(),
            "job": self.job.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "count": self.count.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(data, fh)


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(m[key] for m in per_pass) for key in PER_LAYER_UNITS}
