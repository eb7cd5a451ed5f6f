"""parallelobox benchmark: seeded workloads through the public batch API.

Usage, from the root of a checkout::

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Every job is one ``parallelobox.cli.run_batch`` call for one model, the
code path of ``parallelobox decompose`` and ``parallelobox batch``: it
loads the model's STL file, decomposes it, exports the winning parts and
writes the report files.  The seed sets ``RunPlan.seed_base``.  A run
repeats the workload's job list once per ``PASS_BUDGET_S`` of ``--seconds``
(at least once), checks every decomposition, and prints the metrics as one
JSON object on the last line of standard output.

With ``--trace 0`` it reports the end-to-end metrics of untraced passes.
With ``--trace 1`` it alternates untraced and traced passes and reports
the per-layer metrics of the traced ones, plus the tracing overhead; the
run is incorrect unless traced and untraced passes produce identical
decompositions.  Times are scaled to a reference machine speed measured
by ``calibrate.py`` in a child process (see ``SpeedProbe``).  See NOTES.md
for why each workload exists.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

# checks.py and tracing.py import numpy and parallelobox, so they are
# imported inside functions: setup_s must include the package import.

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 5
#: Seconds of --seconds allotted to one repeat of a workload's job list.
#: Each job list takes 3-5 s at the reference speed on a 2-core x86
#: virtual machine, and up to twice that when the machine is slow.
PASS_BUDGET_S = 9.5
#: calibrate.kernel() on the machine the benchmark was written on (2-core
#: x86 virtual machine, fast phase).  Scaled times are seconds at that speed.
REFERENCE_S = 0.04
#: Kernel runs per speed sample; the sample is their median.
SPEED_REPEATS = 3

#: End-to-end metric -> unit, in print order.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_s_p50": "s",
    "job_s_tail": "s",
    "valid_share": "ratio",
    "printable_share": "ratio",
    "parallel_print_s_gmean": "s",
    "aggregate_print_s_gmean": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {"_s": "s", "_yield": "ratio", "_bytes": "bytes"}


def layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


@dataclass(frozen=True)
class Workload:
    models: tuple[str, ...]     # parallelobox.fixtures functions, defaults
    printers: tuple[int, ...]
    algorithms: tuple[str, ...]
    granularity: str
    sample_tries: int
    printer_mm: float   # side of the cubic build volume


WORKLOADS = {
    # meta.prepare_model dominates: very_fine grids, one search try.
    "prep_very_fine": Workload(
        ("l_bracket", "asymmetric_blob", "dumbbell"),
        (2,), ("parallelobox",), "very_fine", 1, 250.0),
    # The search is most of the time: coarse grids, 8 printers of 30 mm.
    "search_small_printer": Workload(
        ("dumbbell", "l_bracket", "hollow_box", "asymmetric_blob"),
        (8,), ("parallelobox",), "coarse", 1, 30.0),
    # The batch path: several printer counts per model plus the baseline.
    "batch_sweep": Workload(
        ("dumbbell", "l_bracket", "asymmetric_blob"),
        (2, 4), ("parallelobox", "symmetry"), "fine", 2, 250.0),
}


# ---------------------------------------------------------------------------
# set-up


def pin_threads() -> None:
    """One BLAS/OpenMP thread: every workload runs in a single thread."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_package() -> None:
    """Import parallelobox from this checkout's src/, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import parallelobox
    if Path(parallelobox.__file__).resolve().parent != SRC / "parallelobox":
        raise SystemExit(f"error: imported parallelobox from {parallelobox.__file__}")


def write_inputs(workload: Workload, workdir: Path) -> list[Path]:
    """Build the workload's meshes and write them as binary STL files."""
    from parallelobox import fixtures
    from parallelobox.mesh import save_stl
    paths = []
    for name in workload.models:
        path = workdir / f"{name}.stl"
        save_stl(getattr(fixtures, name)(), path)
        paths.append(path)
    return paths


def timed_setup(workload: Workload, workdir: Path) -> tuple[float, list[Path]]:
    start = time.perf_counter()
    import_package()
    paths = write_inputs(workload, workdir)
    return time.perf_counter() - start, paths


def setup_probe(name: str) -> float:
    """Set-up time of a fresh interpreter, measured in a child process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--setup-probe"], capture_output=True, text=True, timeout=120,
        check=True)
    return float(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# machine speed


class SpeedProbe:
    """Samples the machine's speed from ``calibrate.py`` in a child process.

    The speed of a shared virtual machine changes by up to 2x, within
    seconds or over minutes, and the program's work is of the same kind as
    the kernel.
    The probe is sampled before the first timed unit (a set-up, a job) and
    after each one; ``scaled`` multiplies a unit's time by REFERENCE_S over
    the mean of the two samples around it.  The kernel runs in its own
    process with the garbage collector off, while this process waits, so
    nothing the program keeps in memory changes the scale factor.
    """

    def __enter__(self) -> "SpeedProbe":
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "calibrate.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def sample(self) -> float:
        self.proc.stdin.write(f"{SPEED_REPEATS}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("calibrate.py exited early")
        return float(line)

    def __exit__(self, *exc) -> None:
        try:
            self.proc.stdin.close()
        except OSError:  # the child is already gone
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def scaled(times: list[float], ref_s: list[float]) -> list[float]:
    """times[i] at the reference speed; ref_s[i], ref_s[i + 1] surround it."""
    return [t * 2 * REFERENCE_S / (ref_s[i] + ref_s[i + 1])
            for i, t in enumerate(times)]


# ---------------------------------------------------------------------------
# passes


@dataclass
class Pass:
    traced: bool
    job_s: list[float] = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    problems: list[list[str]] = field(default_factory=list)
    crashes: list[str] = field(default_factory=list)
    tracer: object = None
    ref_s: list[float] = field(default_factory=list)  # speed samples

    @property
    def scaled_job_s(self) -> list[float]:
        return scaled(self.job_s, self.ref_s)

    def fingerprints(self) -> list:
        from checks import fingerprint
        return [fingerprint(o) for o in self.outcomes] + self.crashes


class Capture:
    """Records what each decomposition call returned, for the checks.

    Installed for every pass; it only appends the call's result.
    """

    def __init__(self) -> None:
        self.sink: list = []

    def __enter__(self) -> "Capture":
        from parallelobox import cli
        from checks import Outcome
        from tracing import Patches
        self._patches = Patches()

        def hook(attr, algorithm):
            fn = getattr(cli, attr)

            def captured(mesh, plan, profile, *args, **kwargs):
                outcome = Outcome(mesh.name, algorithm,
                                  plan.printers_available, mesh, None)
                self.sink.append(outcome)
                try:
                    outcome.result = fn(mesh, plan, profile, *args, **kwargs)
                except Exception as exc:
                    outcome.error = type(exc).__name__
                    raise
                return outcome.result
            self._patches.patch(cli, attr, captured)

        hook("run_metaheuristic", "parallelobox")
        hook("recursive_symmetry_baseline", "symmetry")
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()


def run_pass(workload: Workload, inputs: list[Path], seed: int, workdir: Path,
             capture: Capture, probe: SpeedProbe, traced: bool = False) -> Pass:
    """Run every job once, timing each; check outputs between jobs."""
    from parallelobox import cli
    from parallelobox.meta import PrinterProfile, RunPlan
    from checks import check_outcome
    from tracing import Tracer

    plan = RunPlan(granularity=workload.granularity,
                   sample_tries=workload.sample_tries, seed_base=seed)
    side = workload.printer_mm
    profile = PrinterProfile(volume_x=side, volume_y=side, volume_z=side)
    result = Pass(traced, tracer=Tracer() if traced else None)
    result.ref_s.append(probe.sample())
    for job, path in enumerate(inputs):
        out_dir = workdir / "out" / path.stem
        first = len(capture.sink)
        if traced:
            result.tracer.job = job
            result.tracer.install()
        start = time.perf_counter()
        try:
            cli.run_batch([path], list(workload.printers), plan, profile,
                          list(workload.algorithms), out_dir)
        except Exception as exc:  # a crash is a failed job, not a dead run
            result.crashes.append(f"{path.stem}: {type(exc).__name__}: {exc}")
        finally:
            result.job_s.append(time.perf_counter() - start)
            if traced:
                result.tracer.uninstall()
        for outcome in capture.sink[first:]:
            part_dir = (out_dir / path.stem / str(outcome.printers)
                        / outcome.algorithm)
            result.outcomes.append(outcome)
            result.problems.append(check_outcome(
                outcome, profile.dims, part_dir))
        result.ref_s.append(probe.sample())
    return result


def run_passes(workload: Workload, inputs: list[Path], seed: int,
               workdir: Path, seconds: float, trace: bool,
               probe: SpeedProbe) -> list[Pass]:
    """Repeat the job list (with --trace 1, an untraced/traced pair).

    A run makes one repeat per PASS_BUDGET_S of --seconds, and stops early
    if the next repeat is not expected to finish within --seconds.
    """
    budget = PASS_BUDGET_S * (2 if trace else 1)
    wanted = max(1, int(seconds // budget))
    passes: list[Pass] = []
    start = time.perf_counter()
    longest = 0.0
    with Capture() as capture:
        for _ in range(wanted):
            if passes and time.perf_counter() - start + longest > seconds:
                break
            tick = time.perf_counter()
            passes.append(run_pass(workload, inputs, seed, workdir, capture,
                                   probe))
            if trace:
                passes.append(run_pass(workload, inputs, seed, workdir,
                                       capture, probe, traced=True))
            longest = max(longest, time.perf_counter() - tick)
    return passes


# ---------------------------------------------------------------------------
# metrics


def job_times(passes: list[Pass], scale: bool = True) -> dict:
    """wall_s, job_s_p50 and job_s_tail of the passes, scaled or not.

    Each job's time is its median over the passes, which drops a pass that
    a burst of machine load slowed down.  The wall time is the sum of those
    medians and the tail the slowest job.
    """
    per_pass = [p.scaled_job_s if scale else p.job_s for p in passes]
    jobs = [statistics.median(times) for times in zip(*per_pass)]
    return {"wall_s": sum(jobs),
            "job_s_p50": statistics.median(jobs),
            "job_s_tail": max(jobs)}


def gmean(values: list[float]) -> float | None:
    if not values:
        return None
    return math.exp(statistics.fmean(math.log(v) for v in values))


def shares(first: Pass, algorithms: set[str]) -> dict:
    """Valid and printable shares of the pass's requests by these algorithms.

    A job that crashed counts as one failed request.
    """
    rows = [(o, problems) for o, problems in zip(first.outcomes, first.problems)
            if o.algorithm in algorithms]
    attempted = len(rows) + len(first.crashes)
    return {"valid_share": sum(o.result is not None and o.result.valid
                               for o, _ in rows) / attempted,
            "printable_share": sum(not problems for _, problems in rows)
                               / attempted}


def print_times(first: Pass, algorithm: str) -> dict:
    """Geometric means of the valid winners' modelled print times."""
    valid = [o.result for o in first.outcomes if o.algorithm == algorithm
             and o.result is not None and o.result.valid]
    return {"parallel_print_s_gmean": gmean([r.parallel_time_s for r in valid]),
            "aggregate_print_s_gmean": gmean([r.aggregate_time_s for r in valid])}


def end_to_end(passes: list[Pass], setup_s: float) -> tuple[dict, dict]:
    """The end-to-end metrics and what the details file adds to them.

    The shares count every decomposition request, the plane-cut baseline's
    too: each is an answer a user gets.  The print-time means are the
    search's alone (algorithm "parallelobox", the paper's objective); the
    baseline's, and the shares of each algorithm, are details only.
    """
    plain = [p for p in passes if not p.traced]
    algorithms = {o.algorithm for o in plain[0].outcomes}
    metrics = {
        "setup_s": setup_s,
        **job_times(plain),
        **shares(plain[0], algorithms),
        **print_times(plain[0], "parallelobox"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {
        "passes": len(plain),
        "job_medians_s": [statistics.median(times) for times in
                          zip(*(p.scaled_job_s for p in plain))],
        "unscaled": job_times(plain, scale=False),
        "by_algorithm": {a: {**shares(plain[0], {a}), **print_times(plain[0], a)}
                         for a in sorted(algorithms)},
    }
    return metrics, details


def per_layer(passes: list[Pass]) -> dict:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    layers = [p.tracer.layer_metrics() for p in traced]
    metrics = {name: statistics.median(m[name] for m in layers)
               for name in layers[0]}
    metrics["trace.overhead_s"] = (job_times(traced)["wall_s"]
                                   - job_times(plain)["wall_s"])
    return metrics


def environment() -> dict:
    import numpy
    import scipy
    commit = "unknown (not a git checkout)"
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
            check=True).stdout.split()
        if Path(top).resolve() == ROOT:
            commit = head
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": commit,
            "threads": {var: os.environ.get(var) for var in THREAD_VARS}}


def summarize(passes: list[Pass], setup_s: float, trace: bool):
    """(result line, details) for a finished run."""
    fingerprints = passes[0].fingerprints()
    deterministic = all(p.fingerprints() == fingerprints for p in passes)
    e2e, details = end_to_end(passes, setup_s)
    # Known defects (no valid decomposition, an unprintable winner) are
    # failed operations.  A crash, or output that changes between passes of
    # the same seed, traced or not, makes the run incorrect.
    correct = deterministic and not any(p.crashes for p in passes)
    attempted = sum(len(p.outcomes) + len(p.crashes) for p in passes)
    failed = sum(sum(bool(x) for x in p.problems) + len(p.crashes)
                 for p in passes)
    if trace:
        values = per_layer(passes)
        units = {name: layer_unit(name) for name in values}
    else:
        values = e2e
        units = END_TO_END
    line = {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name in values}}
    details.update({
        "deterministic": deterministic,
        "end_to_end": e2e,
        "pass_job_s": [p.job_s for p in passes],
        "pass_ref_s": [p.ref_s for p in passes],
        "pass_job_scaled_s": [p.scaled_job_s for p in passes],
        "pass_traced": [p.traced for p in passes],
        "failures": [
            {"model": o.model, "algorithm": o.algorithm,
             "printers": o.printers, "problems": problems}
            for o, problems in zip(passes[0].outcomes, passes[0].problems)
            if problems] + passes[0].crashes,
    })
    if trace:
        first = next(p for p in passes if p.traced)
        details["span_times"] = first.tracer.times()
        details["fallbacks"] = dict(first.tracer.fallbacks.counts)
    return line, details


# ---------------------------------------------------------------------------
# entry point


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    if not (SRC / "parallelobox" / "__init__.py").is_file():
        print(f"error: no parallelobox sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.setup_probe:
            print(timed_setup(workload, workdir)[0])
            return 0
        with SpeedProbe() as probe:
            setup_ref_s = [probe.sample()]
            sample, inputs = timed_setup(workload, workdir)
            samples = [sample]
            setup_ref_s.append(probe.sample())
            for _ in range(SETUP_SAMPLES - 1):
                samples.append(setup_probe(args.workload))
                setup_ref_s.append(probe.sample())
            passes = run_passes(workload, inputs, args.seed, workdir,
                                args.seconds, bool(args.trace), probe)
        setup_scaled = scaled(samples, setup_ref_s)
        line, details = summarize(passes, statistics.median(setup_scaled),
                                  bool(args.trace))
        details["unscaled"]["setup_s"] = statistics.median(samples)
        details.update({"workload": args.workload, "seed": args.seed,
                        "seconds": args.seconds, "trace": args.trace,
                        "setup_samples_s": samples,
                        "setup_ref_s": setup_ref_s,
                        "setup_scaled_s": setup_scaled,
                        "environment": environment()})
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        (OUT / f"{stem}.json").write_text(
            json.dumps({"result": line, "details": details}, indent=1,
                       default=str) + "\n", encoding="utf-8")
        if args.trace:
            first = next(p for p in passes if p.traced)
            with open(OUT / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
                for record in first.tracer.span_records():
                    fh.write(json.dumps(record) + "\n")
        for name, metric in line["metrics"].items():
            print(f"{name:28s} {metric['value']:14.6g} {metric['unit']}")
        print(json.dumps(line))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
