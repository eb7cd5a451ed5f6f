"""Batch front end: config parsing, pipeline runs, and report emission.

Two subcommands make one request of :func:`run_batch`:

* ``batch manifest.json`` sweeps the models and printer counts named in a
  small JSON manifest (see :func:`load_manifest`).
* ``decompose model.stl --printers N ...`` is the batch of a single model
  at a single printer count.

Every run appends to ``results.csv``, dumps per-model series into
``plotdata.json``, streams one JSON line per search iteration into
``runlog.jsonl``, and exports the winning parts as binary STL files under
``out/<model>/<printers>/<algorithm>/part_###.stl``.  The process exits 0
when at least one run produced a valid decomposition and 2 otherwise.

A batch does each model's shared work once (:class:`meta.ModelWork`): one
mirror-plane search, one set of baseline halving rounds, and one
preparation and growth pass for its one-printer runs and one for the rest.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import json
import logging
import math
import sys
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .errors import ConfigError, ParalleloboxError
from .grid import GRANULARITY_CELLS
from .mesh import load_mesh, save_stl
from .meta import (Decomposition, ModelWork, PrinterProfile, RunPlan,
                   RunRecord, recursive_symmetry_baseline, run_metaheuristic)

logger = logging.getLogger(__name__)

CSV_COLUMNS = ("model", "algorithm", "printers", "parts", "parallel_time_s",
               "aggregate_time_s", "parallel_score", "compute_time_s", "valid",
               "cut_area_mm2")
#: The per-(model, algorithm) series of plotdata.json, one entry per row.
PLOT_SERIES = ("printers", "parts", "parallel_time_s", "aggregate_time_s",
               "parallel_score", "valid", "cut_area_mm2")


def parse_config(path) -> PrinterProfile:
    """Read a ``[printer]`` ini section; absent keys keep their defaults,
    and a missing section or a key of it that no PrinterProfile field has
    raises."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"printer config not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read_string(path.read_text(encoding="utf-8"))
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not parser.has_section("printer"):
        raise ConfigError(f"{path}: no [printer] section")
    section = parser["printer"]
    keys = [f.name for f in fields(PrinterProfile)]
    unknown = sorted(set(section) - set(keys) - set(parser.defaults()))
    if unknown:
        raise ConfigError(f"{path}: unknown [printer] keys {unknown}")
    values = {}
    for key in [key for key in keys if key in section]:
        try:
            values[key] = float(section[key])
        except ValueError as exc:
            raise ConfigError(
                f"{path}: [printer] {key} = {section[key]!r} "
                "is not a number") from exc
        if not (math.isfinite(values[key]) and values[key] > 0.0):
            raise ConfigError(f"{path}: [printer] {key} must be a finite "
                              f"positive number, got {section[key]!r}")
    return PrinterProfile(**values)


# ---------------------------------------------------------------------------
# run bookkeeping


def _row(model: str, algorithm: str, printers: int, compute_time_s: float,
         result: Decomposition | None) -> dict:
    """One results row: the run's RunRecord, or 0 parts and not valid when
    it gave no result; the writers read it by CSV_COLUMNS and PLOT_SERIES."""
    row = {"model": model, "algorithm": algorithm, "printers": printers,
           "compute_time_s": compute_time_s}
    if result is None:
        return row | {"parts": 0, "valid": False}
    return row | RunRecord.of(result, 0, 0, compute_time_s).to_dict()


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))   # a numpy float prints as a plain one
    return str(value)


@dataclass
class BatchReport:
    rows: list[dict] = field(default_factory=list)
    log_lines: list[dict] = field(default_factory=list)

    @property
    def any_valid(self) -> bool:
        return any(row["valid"] for row in self.rows)


def _write_parts(parts: list, part_dir: Path) -> None:
    """Replace the part files in part_dir with the meshes of parts."""
    if parts:
        part_dir.mkdir(parents=True, exist_ok=True)
    for stale in sorted(part_dir.glob("part_*.stl")):
        stale.unlink()
    for i, part in enumerate(parts):
        save_stl(part.mesh, part_dir / f"part_{i:03d}.stl")


def run_model(model_name: str, printers: int, plan: RunPlan,
              profile: PrinterProfile, algorithms: list[str], out_dir: Path,
              report: BatchReport, work: ModelWork) -> None:
    """Run the requested algorithms for one (model, printer count) pair.

    ``work`` carries the model's mesh and the work its printer counts
    share.  Part files left in an algorithm's directory by an earlier run
    are removed when this run exports none.
    """
    plan = replace(plan, printers_available=printers)
    for algorithm in algorithms:
        tick = time.perf_counter()
        result: Decomposition | None = None
        records: list[RunRecord] = []
        try:
            run = (run_metaheuristic if algorithm == "parallelobox"
                   else recursive_symmetry_baseline)
            result = run(work.mesh, plan, profile, records, work=work)
        except ParalleloboxError as exc:
            logger.error("%s x%d (%s): %s", model_name, printers,
                         algorithm, exc)
        elapsed = time.perf_counter() - tick

        report.log_lines.extend(
            {"model": model_name, "printers": printers, "algorithm": algorithm,
             **record.to_dict()} for record in records)

        _write_parts(result.parts if result is not None and result.valid
                     else [], out_dir / model_name / str(printers) / algorithm)
        report.rows.append(_row(model_name, algorithm, printers, elapsed,
                                result))
        if result is not None:
            logger.info("%s x%d %s: %d parts, parallel %.1f s, valid=%s",
                        model_name, printers, algorithm, result.printers_used,
                        result.parallel_time_s, result.valid)


# ---------------------------------------------------------------------------
# report files


def write_results_csv(report: BatchReport, path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows([_csv_cell(row.get(column)) for column in CSV_COLUMNS]
                         for row in report.rows)


def write_plotdata(report: BatchReport, path: Path) -> None:
    """Per-model series keyed for bar-chart reproduction."""
    data: dict = {}
    for row in report.rows:
        series = data.setdefault(row["model"], {}).setdefault(
            row["algorithm"], {key: [] for key in PLOT_SERIES})
        for key in PLOT_SERIES:
            series[key].append(row.get(key))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_runlog(report: BatchReport, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in report.log_lines:
            fh.write(json.dumps(line, sort_keys=True) + "\n")


def run_batch(models: list[Path], printer_counts: list[int], plan: RunPlan,
              profile: PrinterProfile, algorithms: list[str],
              out_dir: Path) -> BatchReport:
    """Run every (model, printer count) pair and write the report files.

    Printer counts of two or more share one prepared model and one growth
    pass per model; every printer count shares the model's mirror plane and
    the baseline's halving rounds (see :class:`meta.ModelWork`).  Models
    that share a file stem would share their output names, so they raise
    ConfigError before anything is written.
    """
    stems = [Path(model_path).stem for model_path in models]
    shared = sorted({stem for stem in stems if stems.count(stem) > 1})
    if shared:
        raise ConfigError(f"models share the output names {shared}: "
                          + ", ".join(str(m) for m, stem in zip(models, stems)
                                      if stem in shared))
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {out_dir}: {exc}") from exc
    report = BatchReport()
    for model_path, name in zip(models, stems):
        try:
            mesh = load_mesh(model_path)
        except (ParalleloboxError, OSError) as exc:
            logger.error("skipping %s: %s", model_path, exc)
            report.rows.extend(_row(name, algorithm, printers, 0.0, None)
                               for printers in printer_counts
                               for algorithm in algorithms)
            continue
        work = ModelWork(mesh, tuple(printer_counts))
        for printers in printer_counts:
            run_model(name, printers, plan, profile, algorithms, out_dir,
                      report, work)
    write_results_csv(report, out_dir / "results.csv")
    write_plotdata(report, out_dir / "plotdata.json")
    write_runlog(report, out_dir / "runlog.jsonl")
    return report


# ---------------------------------------------------------------------------
# argument plumbing


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return ((_is_int(value) or isinstance(value, float))
            and math.isfinite(value))


ALGORITHM_CHOICES = ("parallelobox", "symmetry", "both")

#: Manifest options: key -> (RunPlan field it overrides or None,
#: accepts the value?, what it must be).
_MANIFEST_OPTIONS = {
    "granularity": ("granularity",
                    lambda v: isinstance(v, str) and v in GRANULARITY_CELLS,
                    "one of " + ", ".join(sorted(GRANULARITY_CELLS))),
    "sample_tries": ("sample_tries", lambda v: _is_int(v) and v >= 1,
                     "an integer >= 1"),
    "seed": ("seed_base", lambda v: _is_int(v) and v >= 0,
             "an integer >= 0"),
    "min_printers": ("min_printers", lambda v: _is_int(v) and v >= 1,
                     "an integer >= 1"),
    "infill": ("infill_fraction", lambda v: _is_number(v) and 0 <= v <= 1,
               "a number in [0, 1]"),
    "overhang_tolerance": ("overhang_tolerance_deg",
                           lambda v: _is_number(v) and 0 <= v <= 90,
                           "a number of degrees in [0, 90]"),
    "symmetry_threshold": ("symmetry_threshold",
                           lambda v: _is_number(v) and v >= 0,
                           "a number >= 0"),
    "skip_symmetry": ("skip_symmetry_cut", lambda v: isinstance(v, bool),
                      "true or false"),
    "baseline": (None, lambda v: isinstance(v, str) and v in ALGORITHM_CHOICES,
                 "one of " + ", ".join(ALGORITHM_CHOICES)),
    "out": (None, lambda v: isinstance(v, str), "a path string"),
    "config": (None, lambda v: isinstance(v, str), "a path string"),
}


def load_manifest(path) -> dict:
    """A sweep manifest: {"models": [...], "printers": [...], ...options}.

    The paths it names (``models``, ``config`` and ``out``) are relative to
    the manifest's own directory, not the working directory.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"manifest not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict) or "models" not in raw:
        raise ConfigError(f"{path}: expected an object with a 'models' list")
    unknown = sorted(set(raw) - {"models", "printers", *_MANIFEST_OPTIONS})
    if unknown:
        raise ConfigError(f"{path}: unknown manifest keys {unknown}")
    models = raw["models"]
    if (not isinstance(models, list) or not models
            or not all(isinstance(m, str) for m in models)):
        raise ConfigError(f"{path}: 'models' must be a non-empty list of paths")
    counts = raw.get("printers", [RunPlan.printers_available])
    if not isinstance(counts, list) or not counts or not all(
            _is_int(c) and c >= 1 for c in counts):
        raise ConfigError(f"{path}: 'printers' must be a non-empty list of "
                          "counts >= 1")
    for key, (_, ok, expected) in _MANIFEST_OPTIONS.items():
        if key in raw and not ok(raw[key]):
            raise ConfigError(f"{path}: {key!r} must be {expected}, "
                              f"got {raw[key]!r}")
    raw["models"] = [path.parent / m for m in models]
    for key in ("config", "out"):
        if key in raw:
            raw[key] = path.parent / raw[key]
    raw["printers"] = counts
    return raw


def _add_shared_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--granularity", choices=sorted(GRANULARITY_CELLS),
                     default=RunPlan.granularity, help="grid resolution preset")
    sub.add_argument("--sample-tries", type=int, default=RunPlan.sample_tries,
                     metavar="K", help="random restarts per seed-block count")
    sub.add_argument("--skip-symmetry", action="store_true",
                     help="never apply the pre-cut, even on mirror models")
    sub.add_argument("--symmetry-threshold", type=float,
                     default=RunPlan.symmetry_threshold, metavar="T",
                     help="max normalized mirror error that still cuts")
    sub.add_argument("--overhang-tolerance", type=float,
                     default=RunPlan.overhang_tolerance_deg, metavar="DEG",
                     help="face slope treated as printable")
    sub.add_argument("--infill", type=float, default=RunPlan.infill_fraction,
                     metavar="F", help="infill fraction used by the time model")
    sub.add_argument("--config", type=Path, default=None, metavar="INI",
                     help="printer profile .ini (defaults: 250 mm cube)")
    sub.add_argument("--seed", type=int, default=RunPlan.seed_base,
                     metavar="S", help="base RNG seed")
    sub.add_argument("--out", type=Path, default=Path("out"), metavar="DIR",
                     help="report/output directory")
    sub.add_argument("--baseline", default="parallelobox",
                     choices=ALGORITHM_CHOICES,
                     help="which algorithm(s) to run")
    sub.add_argument("--min-printers", type=int, default=RunPlan.min_printers,
                     metavar="N", help="stop the outer search below this seed count")
    sub.add_argument("-v", "--verbose", action="store_true",
                     help="debug logging")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parallelobox",
        description="Split a watertight mesh into printer-sized boxes that "
                    "print in parallel.")
    subs = parser.add_subparsers(dest="command", required=True)

    one = subs.add_parser("decompose", help="decompose a single model")
    one.add_argument("model", type=Path, help="STL or OBJ file")
    one.add_argument("--printers", type=int,
                     default=RunPlan.printers_available, metavar="N",
                     help="printers available")
    _add_shared_options(one)

    many = subs.add_parser("batch", help="sweep models x printer counts")
    many.add_argument("manifest", type=Path,
                      help="JSON manifest with 'models' and 'printers' lists")
    _add_shared_options(many)
    return parser


def _plan_from_args(args, overrides: dict | None = None) -> RunPlan:
    """The run plan from the command line, manifest overrides taking
    precedence; command-line values must pass the manifest checks too."""
    given = {key: getattr(args, key)
             for key, (name, _, _) in _MANIFEST_OPTIONS.items() if name}
    for key, value in given.items():
        _, ok, expected = _MANIFEST_OPTIONS[key]
        if not ok(value):
            raise ConfigError(f"--{key.replace('_', '-')} must be {expected}, "
                              f"got {value!r}")
    overrides = overrides or {}
    return RunPlan(**{_MANIFEST_OPTIONS[key][0]: overrides.get(key, value)
                      for key, value in given.items()})


def _request(args) -> dict:
    """The batch a subcommand asks for; the flags fill in what it omits."""
    if args.command == "batch":
        return load_manifest(args.manifest)
    if args.printers < 1:
        raise ConfigError(f"--printers must be an integer >= 1, "
                          f"got {args.printers}")
    return {"models": [args.model], "printers": [args.printers]}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    try:
        request = _request(args)
        config = request.get("config", args.config)
        profile = parse_config(config) if config else PrinterProfile()
        baseline = request.get("baseline", args.baseline)
        report = run_batch(request["models"], request["printers"],
                           _plan_from_args(args, request), profile,
                           ["parallelobox", "symmetry"] if baseline == "both"
                           else [baseline], Path(request.get("out", args.out)))
    except ConfigError as exc:
        logger.error("%s", exc)
        return 2
    logger.info("%d/%d runs valid", sum(row["valid"] for row in report.rows),
                len(report.rows))
    return 0 if report.any_valid else 2


if __name__ == "__main__":
    sys.exit(main())
