"""Batch front end: config parsing, pipeline runs, and report emission.

Two subcommands share one writer:

* ``decompose model.stl --printers N ...`` runs a single model at a single
  printer count.
* ``batch manifest.json`` sweeps the models and printer counts named in a
  small JSON manifest (see :func:`load_manifest`).

Every run appends to ``results.csv``, dumps per-model series into
``plotdata.json``, streams one JSON line per search iteration into
``runlog.jsonl``, and exports the winning parts as binary STL files under
``out/<model>/<printers>/<algorithm>/part_###.stl``.  The process exits 0
when at least one run produced a valid decomposition and 2 otherwise.

A batch does each model's shared work once (:class:`ModelCache`): one
mirror-plane search, one preparation and one growth pass per preparation
key across its printer counts, and one set of baseline halving rounds.
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
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import meta
from .errors import ConfigError, ParalleloboxError
from .grid import GRANULARITY_CELLS
from .mesh import TriangleMesh, load_mesh, save_stl
from .meta import (BaselineRounds, Decomposition, PreparedModel,
                   PrinterProfile, RunPlan, RunRecord,
                   recursive_symmetry_baseline, run_metaheuristic)
from .preprocess import SYMMETRY_THRESHOLD, SymmetryPlane

logger = logging.getLogger(__name__)

CSV_COLUMNS = ("model", "algorithm", "printers", "parts", "parallel_time_s",
               "aggregate_time_s", "parallel_score", "compute_time_s", "valid",
               "cut_area_mm2")

_PROFILE_KEYS = ("volume_x", "volume_y", "volume_z", "speed_shell",
                 "speed_infill", "line_width", "layer_height")


def parse_config(path) -> PrinterProfile:
    """Read a ``[printer]`` ini section; absent keys keep their defaults."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"printer config not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read_string(path.read_text(encoding="utf-8"))
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    values = {}
    if parser.has_section("printer"):
        section = parser["printer"]
        for key in _PROFILE_KEYS:
            if key not in section:
                continue
            try:
                values[key] = float(section[key])
            except ValueError as exc:
                raise ConfigError(
                    f"{path}: [printer] {key} = {section[key]!r} "
                    "is not a number") from exc
            if not (math.isfinite(values[key]) and values[key] > 0.0):
                raise ConfigError(f"{path}: [printer] {key} must be a finite "
                                  f"positive number, got {section[key]!r}")
    else:
        logger.warning("%s has no [printer] section; using defaults", path)
    return PrinterProfile(**values)


# ---------------------------------------------------------------------------
# run bookkeeping


@dataclass
class RunRow:
    """One results.csv row; the defaults are a run that gave no result."""

    model: str
    algorithm: str
    printers: int
    compute_time_s: float = 0.0
    valid: bool = False
    parts: int = 0
    parallel_time_s: float | None = None
    aggregate_time_s: float | None = None
    parallel_score: float | None = None
    cut_area_mm2: float | None = None

    def csv_values(self) -> list[str]:
        def num(x):
            return "" if x is None else repr(float(x))

        return [self.model, self.algorithm, str(self.printers),
                str(self.parts), num(self.parallel_time_s),
                num(self.aggregate_time_s), num(self.parallel_score),
                num(self.compute_time_s), "true" if self.valid else "false",
                num(self.cut_area_mm2)]


@dataclass
class BatchReport:
    rows: list[RunRow] = field(default_factory=list)
    log_lines: list[dict] = field(default_factory=list)

    @property
    def any_valid(self) -> bool:
        return any(row.valid for row in self.rows)


def _clear_parts(part_dir: Path) -> None:
    for stale in sorted(part_dir.glob("part_*.stl")):
        stale.unlink()


def _export_parts(result: Decomposition, part_dir: Path) -> int:
    part_dir.mkdir(parents=True, exist_ok=True)
    _clear_parts(part_dir)
    for i, part in enumerate(result.parts):
        save_stl(part.mesh, part_dir / f"part_{i:03d}.stl")
    return len(result.parts)


def _log_record(report: BatchReport, model: str, printers: int,
                algorithm: str, record: RunRecord) -> None:
    line = {"model": model, "printers": printers, "algorithm": algorithm}
    line.update(record.to_dict())
    report.log_lines.append(line)


@dataclass
class ModelCache:
    """One model's work, shared by the printer counts of a batch.

    ``prepared`` holds the model's prepared forms by
    :func:`~parallelobox.meta.preparation_key`, and ``grown`` its grown
    search runs by the same key: the first search of a key grows the runs
    of the largest of ``printer_counts`` with that key, which include the
    runs of every smaller count.  ``rounds`` holds the baseline's halving
    rounds by :func:`~parallelobox.meta.baseline_key`.  ``plane`` is the
    model's best mirror plane, which preparation and the baseline's first
    round both start from.
    """

    mesh: TriangleMesh
    printer_counts: list[int]
    plane: SymmetryPlane | None = None
    prepared: dict[tuple, PreparedModel] = field(default_factory=dict)
    grown: dict[tuple, dict] = field(default_factory=dict)
    rounds: dict[tuple, BaselineRounds] = field(default_factory=dict)

    def mirror_plane(self) -> SymmetryPlane:
        if self.plane is None:
            self.plane = meta.find_best_symmetry_plane(self.mesh)
        return self.plane

    def search_inputs(self, plan: RunPlan,
                      profile: PrinterProfile) -> tuple[PreparedModel, dict]:
        """The prepared model and grown runs of plan's search."""
        key = meta.preparation_key(plan)
        if key not in self.prepared:
            self.prepared[key] = meta.prepare_model(self.mesh, plan, profile,
                                                    self.mirror_plane())
            self.grown[key] = {}
            largest = max(n for n in self.printer_counts if meta.preparation_key(
                replace(plan, printers_available=n)) == key)
            meta.grow_missing_runs(self.prepared[key],
                                   replace(plan, printers_available=largest),
                                   profile, self.grown[key])
        return self.prepared[key], self.grown[key]


def run_model(model_name: str, printers: int, plan: RunPlan,
              profile: PrinterProfile, algorithms: list[str], out_dir: Path,
              report: BatchReport, cache: ModelCache) -> None:
    """Run the requested algorithms for one (model, printer count) pair.

    ``cache`` carries the model's mesh and the work its printer counts
    share.  Part files left in an algorithm's directory by an earlier run
    are removed when this run exports none.
    """
    mesh = cache.mesh
    plan = replace(plan, printers_available=printers)
    for algorithm in algorithms:
        tick = time.perf_counter()
        result: Decomposition | None = None
        records: list[RunRecord] = []
        try:
            if algorithm == "parallelobox":
                prepared, grown = cache.search_inputs(plan, profile)
                result = run_metaheuristic(mesh, plan, profile, records,
                                           prepared=prepared, grown=grown)
            else:
                key = meta.baseline_key(plan)
                if key not in cache.rounds:
                    cache.rounds[key] = BaselineRounds(cache.mirror_plane())
                result = recursive_symmetry_baseline(mesh, plan, profile,
                                                     rounds=cache.rounds[key])
        except ParalleloboxError as exc:
            logger.error("%s x%d (%s): %s", model_name, printers,
                         algorithm, exc)
        elapsed = time.perf_counter() - tick

        for record in records:
            _log_record(report, model_name, printers, algorithm, record)
        if result is not None and algorithm == "symmetry":
            _log_record(report, model_name, printers, algorithm, RunRecord(
                seed_blocks=0, try_index=0, seed=plan.seed_base,
                valid=result.valid, parts=result.printers_used,
                parallel_score=result.parallel_score,
                parallel_time_s=result.parallel_time_s,
                aggregate_time_s=result.aggregate_time_s,
                reason=result.reason, clipped=result.clipped,
                cut_area_mm2=result.cut_area_mm2, wall_clock_s=elapsed))

        part_dir = out_dir / model_name / str(printers) / algorithm
        if result is None or not result.valid:
            _clear_parts(part_dir)
        if result is None:
            report.rows.append(RunRow(model_name, algorithm, printers,
                                      compute_time_s=elapsed))
            continue
        exported = _export_parts(result, part_dir) if result.valid else 0
        report.rows.append(RunRow(
            model=model_name, algorithm=algorithm, printers=printers,
            parts=exported if result.valid else result.printers_used,
            parallel_time_s=result.parallel_time_s,
            aggregate_time_s=result.aggregate_time_s,
            parallel_score=result.parallel_score,
            compute_time_s=elapsed, valid=result.valid,
            cut_area_mm2=result.cut_area_mm2))
        logger.info("%s x%d %s: %d parts, parallel %.1f s, valid=%s",
                    model_name, printers, algorithm, result.printers_used,
                    result.parallel_time_s, result.valid)


# ---------------------------------------------------------------------------
# report files


def write_results_csv(report: BatchReport, path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in report.rows:
            writer.writerow(row.csv_values())


def write_plotdata(report: BatchReport, path: Path) -> None:
    """Per-model series keyed for bar-chart reproduction."""
    data: dict = {}
    for row in report.rows:
        series = data.setdefault(row.model, {}).setdefault(
            row.algorithm, {"printers": [], "parts": [], "parallel_time_s": [],
                            "aggregate_time_s": [], "parallel_score": [],
                            "valid": [], "cut_area_mm2": []})
        series["printers"].append(row.printers)
        series["parts"].append(row.parts)
        series["parallel_time_s"].append(row.parallel_time_s)
        series["aggregate_time_s"].append(row.aggregate_time_s)
        series["parallel_score"].append(row.parallel_score)
        series["valid"].append(row.valid)
        series["cut_area_mm2"].append(row.cut_area_mm2)
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

    Each model is prepared and its search runs grown once per preparation
    key, so printer counts of two or more share one prepared model and one
    growth pass; every printer count shares the model's mirror plane and
    the baseline's halving rounds (see :class:`ModelCache`).
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    report = BatchReport()
    for model_path in models:
        name = Path(model_path).stem
        try:
            mesh = load_mesh(model_path)
        except (ParalleloboxError, OSError) as exc:
            logger.error("skipping %s: %s", model_path, exc)
            for printers in printer_counts:
                for algorithm in algorithms:
                    report.rows.append(RunRow(name, algorithm, printers))
            continue
        cache = ModelCache(mesh, list(printer_counts))
        for printers in printer_counts:
            run_model(name, printers, plan, profile, algorithms, out_dir,
                      report, cache)
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
    models = raw["models"]
    if (not isinstance(models, list) or not models
            or not all(isinstance(m, str) for m in models)):
        raise ConfigError(f"{path}: 'models' must be a non-empty list of paths")
    counts = raw.get("printers", [4])
    if not isinstance(counts, list) or not all(
            _is_int(c) and c >= 1 for c in counts):
        raise ConfigError(f"{path}: 'printers' must be a list of counts >= 1")
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
                     default="very_fine", help="grid resolution preset")
    sub.add_argument("--sample-tries", type=int, default=3, metavar="K",
                     help="random restarts per seed-block count")
    sub.add_argument("--skip-symmetry", action="store_true",
                     help="never apply the pre-cut, even on mirror models")
    sub.add_argument("--symmetry-threshold", type=float,
                     default=SYMMETRY_THRESHOLD, metavar="T",
                     help="max normalized mirror error that still cuts")
    sub.add_argument("--overhang-tolerance", type=float, default=1.0,
                     metavar="DEG", help="face slope treated as printable")
    sub.add_argument("--infill", type=float, default=0.05, metavar="F",
                     help="infill fraction used by the time model")
    sub.add_argument("--config", type=Path, default=None, metavar="INI",
                     help="printer profile .ini (defaults: 250 mm cube)")
    sub.add_argument("--seed", type=int, default=0, metavar="S",
                     help="base RNG seed")
    sub.add_argument("--out", type=Path, default=Path("out"), metavar="DIR",
                     help="report/output directory")
    sub.add_argument("--baseline", default="parallelobox",
                     choices=ALGORITHM_CHOICES,
                     help="which algorithm(s) to run")
    sub.add_argument("--min-printers", type=int, default=1, metavar="N",
                     help="stop the outer search below this seed count")
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
    one.add_argument("--printers", type=int, default=4, metavar="N",
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
    given = {
        "granularity": args.granularity,
        "sample_tries": args.sample_tries,
        "seed": args.seed,
        "min_printers": args.min_printers,
        "infill": args.infill,
        "overhang_tolerance": args.overhang_tolerance,
        "symmetry_threshold": args.symmetry_threshold,
        "skip_symmetry": args.skip_symmetry,
    }
    for key, value in given.items():
        _, ok, expected = _MANIFEST_OPTIONS[key]
        if not ok(value):
            raise ConfigError(f"--{key.replace('_', '-')} must be {expected}, "
                              f"got {value!r}")
    overrides = overrides or {}
    return RunPlan(**{_MANIFEST_OPTIONS[key][0]: overrides.get(key, value)
                      for key, value in given.items()})


def _algorithms(choice: str) -> list[str]:
    return ["parallelobox", "symmetry"] if choice == "both" else [choice]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    try:
        if args.command == "decompose":
            if args.printers < 1:
                raise ConfigError(f"--printers must be an integer >= 1, "
                                  f"got {args.printers}")
            profile = (parse_config(args.config) if args.config
                       else PrinterProfile())
            report = run_batch([args.model], [args.printers],
                               _plan_from_args(args), profile,
                               _algorithms(args.baseline), args.out)
        else:
            manifest = load_manifest(args.manifest)
            config = manifest.get("config", args.config)
            profile = parse_config(config) if config else PrinterProfile()
            out_dir = Path(manifest.get("out", args.out))
            report = run_batch(manifest["models"], manifest["printers"],
                               _plan_from_args(args, manifest), profile,
                               _algorithms(manifest.get("baseline",
                                                        args.baseline)),
                               out_dir)
    except ConfigError as exc:
        logger.error("%s", exc)
        return 2
    valid = sum(row.valid for row in report.rows)
    logger.info("%d/%d runs valid", valid, len(report.rows))
    return 0 if report.any_valid else 2


if __name__ == "__main__":
    sys.exit(main())
