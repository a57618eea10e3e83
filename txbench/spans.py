"""In-memory span tracing of txlaw's layers, installed from outside the program.

`Tracer.install` wraps every public function of each layer module under
every name a txlaw module binds it to (`txlaw.cli.find_edges`,
`txlaw.support.density_batch`, ...), so calls between modules and within a
module are both seen. A span records its name, start, end, parent span and
thread, plus counts taken from the call's arguments and return value.
`uninstall` restores the original bindings, so untraced rounds run the
program unchanged.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("sigma", "master", "support", "density", "linalg", "montecarlo", "cli")


def _size(v) -> int:
    return int(np.size(v))


# counts per wrapped function: (args, kwargs, result) -> {count: value}
COUNTS = {
    "master.solve_master_batch": lambda a, k, r: {
        "points": _size(a[0]), "no_root_points": int(np.sum(np.asarray(r[4]) == 0))},
    "master.density_batch": lambda a, k, r: {"points": _size(a[0])},
    "linalg.companion_roots_batch": lambda a, k, r: {
        "rows": int(np.atleast_2d(a[0]).shape[0]), "degree": int(np.shape(a[0])[-1] - 1)},
    "support.find_edges": lambda a, k, r: {
        "calls": 1, "scan_points": int(r.scan_points), "edges": len(r.edges),
        "edges_refined": sum(bool(e.refined) for e in r.edges)},
    "density.tabulate_density": lambda a, k, r: {"nodes": _size(r.x)},
    "density.quantiles": lambda a, k, r: {"quantiles": int(a[1] if len(a) > 1 else k["N"])},
    "density.compute_radial_profile": lambda a, k, r: {"radii": _size(r.r)},
    "montecarlo.run_ensemble": lambda a, k, r: {
        "runs": len(r), "failed_runs": sum(bool(x.failed) for x in r),
        "workers": (min(a[0].threads, a[0].runs)
                    if a[0].threads > 1 and a[0].runs > 1 else 1)},
}


class Tracer:
    """Spans kept in memory; safe to record from the ensemble's thread pool."""

    def __init__(self):
        # span: [name, t0, t1, parent index or -1, thread id, counts or None]
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = defaultdict(list)
        self._main = threading.get_ident()
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = self._stacks[tid]
            # a span opened on a pool thread hangs under the innermost span
            # open on the main thread, which submitted the work
            owner = stack or self._stacks[self._main]
            span = [name, 0.0, 0.0, owner[-1] if owner else -1, tid, None]
            with self._lock:
                idx = len(self.spans)
                self.spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(args, kwargs, result)
            return result

        return traced

    def install(self, package) -> None:
        modules = [package] + [importlib.import_module(f"{package.__name__}.{m.name}")
                               for m in pkgutil.iter_modules(package.__path__)]
        for layer in LAYERS:
            mod = importlib.import_module(f"{package.__name__}.{layer}")
            for fname, fn in vars(mod).copy().items():
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", fn)
                for other in modules:
                    for bound, val in vars(other).copy().items():
                        if val is fn:
                            self._saved.append((other, bound, fn))
                            setattr(other, bound, wrapper)

    def uninstall(self) -> None:
        for mod, bound, fn in reversed(self._saved):
            setattr(mod, bound, fn)
        self._saved.clear()

    def self_times(self) -> np.ndarray:
        """Span duration minus the union of the intervals its children cover."""
        children = defaultdict(list)
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                children[s[3]].append((s[1], s[2]))
        out = np.empty(len(self.spans))
        for i, s in enumerate(self.spans):
            covered, end = 0.0, s[1]
            for c0, c1 in sorted(children.get(i, ())):
                c0, c1 = max(c0, end), min(c1, s[2])
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            out[i] = (s[2] - s[1]) - covered
        return out

    def layer_metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """(value, unit) per layer metric, per round over `rounds` traced rounds."""
        dur = defaultdict(float)
        self_s = defaultdict(float)
        counts = defaultdict(float)
        degree = 0
        for s, st in zip(self.spans, self.self_times()):
            dur[s[0]] += s[2] - s[1]
            self_s[s[0]] += st
            for key, v in (s[5] or {}).items():
                if key == "degree":
                    degree = max(degree, v)
                else:
                    counts[f"{s[0]}.{key}"] += v
        wall_x_workers = sum(s[2] - s[1] for s in self.spans
                             if s[0] == "montecarlo.run_ensemble"
                             for _ in range(s[5]["workers"]))
        layer_self = {layer: sum(v for k, v in self_s.items() if k.startswith(layer + "."))
                      for layer in LAYERS}
        n = max(rounds, 1)

        def sec(v):
            return (v / n, "s")

        def cnt(v):
            return (v / n, "count")

        def ratio(num, den, scale, unit):
            return (scale * num / den if den else 0.0, unit)

        return {
            "master.solve_master_batch.self_s": sec(self_s["master.solve_master_batch"]),
            "master.solve_master_batch.points": cnt(counts["master.solve_master_batch.points"]),
            "master.solve_master_batch.us_per_point": ratio(
                dur["master.solve_master_batch"], counts["master.solve_master_batch.points"],
                1e6, "us"),
            "master.solve_master_batch.no_root_points": cnt(
                counts["master.solve_master_batch.no_root_points"]),
            "master.density_batch.self_s": sec(self_s["master.density_batch"]),
            "master.density_batch.points": cnt(counts["master.density_batch.points"]),
            "linalg.companion_roots_batch.s": sec(dur["linalg.companion_roots_batch"]),
            "linalg.companion_roots_batch.rows": cnt(counts["linalg.companion_roots_batch.rows"]),
            "linalg.companion_roots_batch.degree": (float(degree), "count"),
            "linalg.general_eigenvalues.s": sec(dur["linalg.general_eigenvalues"]),
            "linalg.symmetric_eigen.s": sec(dur["linalg.symmetric_eigen"]),
            "linalg.qr_haar.s": sec(dur["linalg.qr_haar"]),
            "support.find_edges.self_s": sec(self_s["support.find_edges"]),
            "support.find_edges.calls": cnt(counts["support.find_edges.calls"]),
            "support.find_edges.scan_points": cnt(counts["support.find_edges.scan_points"]),
            "support.edges": cnt(counts["support.find_edges.edges"]),
            "support.edges_refined": cnt(counts["support.find_edges.edges_refined"]),
            "density.tabulate_density.self_s": sec(self_s["density.tabulate_density"]),
            "density.tabulate_density.nodes": cnt(counts["density.tabulate_density.nodes"]),
            "density.quantiles.s": sec(dur["density.quantiles"]),
            "density.quantiles.us_per_quantile": ratio(
                dur["density.quantiles"], counts["density.quantiles.quantiles"], 1e6, "us"),
            "density.compute_radial_profile.self_s": sec(
                self_s["density.compute_radial_profile"]),
            "density.compute_radial_profile.radii": cnt(
                counts["density.compute_radial_profile.radii"]),
            "density.log_potential.s": sec(dur["density.log_potential"]),
            "density.write_csv.s": sec(sum(v for k, v in dur.items()
                                           if k.startswith("density.write_"))),
            "montecarlo.run_ensemble.s": sec(dur["montecarlo.run_ensemble"]),
            "montecarlo.run_ensemble.runs": cnt(counts["montecarlo.run_ensemble.runs"]),
            "montecarlo.run_ensemble.failed_runs": cnt(
                counts["montecarlo.run_ensemble.failed_runs"]),
            "montecarlo.sample_run.busy_s": sec(dur["montecarlo.sample_run"]),
            "montecarlo.pool_efficiency": ratio(dur["montecarlo.sample_run"], wall_x_workers,
                                                1.0, "ratio"),
            "montecarlo.sample_entries.s": sec(dur["montecarlo.sample_entries"]),
            "montecarlo.build_t.s": sec(dur["montecarlo.build_t"]),
            "sigma.load_sigma_file.s": sec(dur["sigma.load_sigma_file"]),
            **{f"{layer}.self_s": sec(v) for layer, v in layer_self.items()},
        }

    def write(self, path: Path) -> None:
        """All spans as JSON, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([
            {"name": s[0], "start": s[1] - t0, "end": s[2] - t0, "parent": s[3],
             "thread": s[4], "counts": s[5]} for s in self.spans]))
