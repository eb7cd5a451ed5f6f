"""Spans and counters recorded from outside the program.

The benchmark never edits ``parallelobox``.  For a traced pass it replaces
public functions in the module namespace where their callers look them up
(``meta.prepare_model`` is called by ``run_metaheuristic`` through the
``meta`` module globals, ``grid.grid_cell_volumes`` by ``measure_cells``
through the ``grid`` globals, and so on) with wrappers that time or count
the call and pass arguments and results through unchanged.
``Tracer.uninstall`` restores every original.  ``Patches`` is the one way
the benchmark replaces program functions; ``run.Capture`` uses it too.
"""
from __future__ import annotations

import functools
import logging
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass

#: WARNING messages of the geometry kernels that signal a degraded answer,
#: keyed by the counter they feed.
FALLBACK_KINDS = {
    "no visible bridge": "clip",
    "cap hole outside every outer loop": "clip",
    "open boundary chain": "clip",
    "containment ray stays ambiguous": "clip",
    "open mesh: per-cell volumes are parity estimates": "grid",
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: int


class Patches:
    """Replaces module attributes and puts the originals back, newest first."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, module, attr: str, replacement) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


class FallbackCounter(logging.Handler):
    """Counts kernel fallback warnings on the ``parallelobox`` logger."""

    def __init__(self) -> None:
        super().__init__(level=logging.WARNING)
        self.counts: Counter[str] = Counter()

    def emit(self, record: logging.LogRecord) -> None:
        message = record.getMessage()
        for kind in FALLBACK_KINDS:
            if kind in message:
                self.counts[kind] += 1


class Tracer:
    """In-memory spans, call counters and per-layer tallies for one pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.job = -1
        self.fallbacks = FallbackCounter()
        self._stack: list[int] = []
        self._next_id = 0
        self._patches = Patches()

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(sid, name, start, end, parent, self.job))
            self.counts[name] += 1
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _grow(self, fn):
        """grow_blocks with a trace list of our own, to count steps."""
        @functools.wraps(fn)
        def wrapper(state, trace=None):
            steps = [] if trace is None else trace
            before = len(steps)
            result = fn(state, steps)
            self.counts["blocks.growth_steps"] += len(steps) - before
            return result
        return self._span("blocks.grow", wrapper)

    def install(self) -> None:
        from parallelobox import blocks, cli, grid, meta

        def grid_measured(args, kwargs, measures):
            g = args[0]
            self.counts["grid.cells"] += int(g.classification.size)
            self.counts["grid.boundary_cells"] += int(
                (g.classification == grid.CellClass.BOUNDARY).sum())

        def iteration_done(args, kwargs, result):
            self.counts["meta.iterations_valid"] += int(result.valid)

        def regions_carved(args, kwargs, regions):
            self.counts["resolve.regions"] += len(regions)

        def stl_written(args, kwargs, result):
            mesh = args[0]
            self.counts["mesh.stl_bytes"] += 84 + 50 * len(mesh.triangles)

        span = self._span
        # (module whose globals the caller reads, attribute, replacement)
        plan = [
            (cli, "load_mesh", span("mesh.load", cli.load_mesh)),
            (cli, "save_stl", span("mesh.save", cli.save_stl, stl_written)),
            (cli, "write_results_csv", span("cli.reports", cli.write_results_csv)),
            (cli, "write_plotdata", span("cli.reports", cli.write_plotdata)),
            (cli, "write_runlog", span("cli.reports", cli.write_runlog)),
            (cli, "run_metaheuristic", span("meta.search", cli.run_metaheuristic)),
            (cli, "recursive_symmetry_baseline",
             span("meta.baseline", cli.recursive_symmetry_baseline)),
            (meta, "prepare_model", span("meta.prepare", meta.prepare_model)),
            (meta, "run_decomposition",
             span("meta.iteration", meta.run_decomposition, iteration_done)),
            (meta, "find_best_symmetry_plane",
             span("preprocess.symmetry", meta.find_best_symmetry_plane)),
            (meta, "optimize_orientation",
             span("preprocess.orient", meta.optimize_orientation)),
            (meta, "measure_cells",
             span("grid.measure", meta.measure_cells, grid_measured)),
            (grid, "clip_surface_to_box",
             span("clip.surface", grid.clip_surface_to_box)),
            (meta, "clip_surface_to_box",
             span("clip.surface", meta.clip_surface_to_box)),
            (grid, "points_in_mesh",
             span("clip.points_in_mesh", grid.points_in_mesh)),
            (grid, "grid_cell_volumes",
             span("clip.cell_volumes", grid.grid_cell_volumes)),
            (meta, "clip_to_box", span("clip.to_box", meta.clip_to_box)),
            (meta, "cut_by_plane", span("clip.cut", meta.cut_by_plane)),
            (meta, "clip_halfspace", span("clip.cut", meta.clip_halfspace)),
            (meta, "select_seed_blocks",
             span("blocks.seed", meta.select_seed_blocks)),
            (meta, "grow_blocks", self._grow(meta.grow_blocks)),
            (blocks, "score_growth",
             self._counted("blocks.options_scored", blocks.score_growth)),
            (meta, "get_discrete_empty_regions",
             span("resolve.void", meta.get_discrete_empty_regions,
                  regions_carved)),
        ]
        for module, attr, replacement in plan:
            self._patches.patch(module, attr, replacement)
        logging.getLogger("parallelobox").addHandler(self.fallbacks)

    def uninstall(self) -> None:
        logging.getLogger("parallelobox").removeHandler(self.fallbacks)
        self._patches.restore()

    # -- results -----------------------------------------------------------

    def times(self) -> dict[str, dict[str, float]]:
        """Per span name: total duration, total self time and call count.

        Self time is a span's duration minus the part of it that its child
        spans cover; children of one span never overlap, because the program
        runs on one thread.
        """
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"total": 0.0, "self": 0.0, "calls": 0})
        for s in self.spans:
            row = out[s.name]
            row["total"] += s.end - s.start
            row["self"] += s.end - s.start - child_time[s.id]
            row["calls"] += 1
        return dict(out)

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of BENCHMARK.json, trace.overhead_s aside."""
        t = self.times()
        c = self.counts

        def total(name):
            return t.get(name, {}).get("total", 0.0)

        def self_time(name):
            return t.get(name, {}).get("self", 0.0)

        clip_fallbacks = sum(n for kind, n in self.fallbacks.counts.items()
                             if FALLBACK_KINDS[kind] == "clip")
        grid_fallbacks = sum(n for kind, n in self.fallbacks.counts.items()
                             if FALLBACK_KINDS[kind] == "grid")
        return {
            "clip.cell_volumes_s": total("clip.cell_volumes"),
            "clip.surface_s": total("clip.surface"),
            "clip.surface_calls": c["clip.surface"],
            "clip.points_in_mesh_s": total("clip.points_in_mesh"),
            "clip.to_box_s": total("clip.to_box"),
            "clip.to_box_calls": c["clip.to_box"],
            "clip.cut_s": total("clip.cut"),
            "clip.fallbacks": clip_fallbacks,
            "grid.measure_self_s": self_time("grid.measure"),
            "grid.cells": c["grid.cells"],
            "grid.boundary_cells": c["grid.boundary_cells"],
            "grid.volume_fallbacks": grid_fallbacks,
            "blocks.grow_s": total("blocks.grow"),
            "blocks.growth_steps": c["blocks.growth_steps"],
            "blocks.options_scored": c["blocks.options_scored"],
            "blocks.step_yield": (c["blocks.growth_steps"]
                                  / max(c["blocks.options_scored"], 1)),
            "blocks.seed_s": total("blocks.seed"),
            "resolve.void_s": total("resolve.void"),
            "resolve.regions": c["resolve.regions"],
            "preprocess.symmetry_s": total("preprocess.symmetry"),
            "preprocess.symmetry_calls": c["preprocess.symmetry"],
            "preprocess.orient_s": total("preprocess.orient"),
            "meta.prepare_s": total("meta.prepare"),
            "meta.prepare_calls": c["meta.prepare"],
            "meta.iteration_self_s": self_time("meta.iteration"),
            "meta.iterations": c["meta.iteration"],
            "meta.iteration_yield": (c["meta.iterations_valid"]
                                     / max(c["meta.iteration"], 1)),
            "meta.baseline_s": total("meta.baseline"),
            "mesh.load_s": total("mesh.load"),
            "mesh.save_s": total("mesh.save"),
            "mesh.stl_bytes": c["mesh.stl_bytes"],
            "cli.reports_s": total("cli.reports"),
        }

    def span_records(self):
        return (asdict(s) for s in self.spans)
