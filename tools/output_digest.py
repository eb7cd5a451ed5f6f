"""SHA-256 digests of every output file of the benchmark's workloads.

Usage, from the root of a checkout::

    python3 tools/output_digest.py [--seeds 0-9]

For each workload of ``bench/run.py`` (read, never edited) and each seed,
every model runs through one ``parallelobox.cli.run_batch`` call with the
plan and printer the benchmark gives it.  One line is printed per output
file: workload, seed, the file's path under the job's output directory,
and the SHA-256 of its bytes.  Two fields are left out of the digest
because they change from run to run: ``compute_time_s`` of
``results.csv`` and ``wall_clock_s`` of ``runlog.jsonl``.  One more line
per workload and seed, ``decisions``, is the SHA-256 of the
``bench/checks.py`` fingerprints of every request, captured with
``run.Capture``: part count, part boxes, parallel time to 1e-6 and
validity.  A change that moves only mesh bytes leaves it as it was.
Running the script in two checkouts and comparing the outputs with
``diff`` shows which files and decisions differ.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import logging
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

# bench/run.py: the workload table.  It imports no numpy, so the thread
# pinning in main() precedes the numpy import, as in the benchmark.
import run  # noqa: E402


def stable_bytes(path: Path) -> bytes:
    """The file's bytes, without its field that changes between runs."""
    raw = path.read_bytes()
    if path.name == "results.csv":
        rows = list(csv.reader(io.StringIO(raw.decode("utf-8"))))
        drop = rows[0].index("compute_time_s")
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(
            row[:drop] + row[drop + 1:] for row in rows)
        return out.getvalue().encode("utf-8")
    if path.name == "runlog.jsonl":
        lines = [json.loads(line) for line in raw.decode("utf-8").splitlines()]
        return "".join(
            json.dumps({key: value for key, value in line.items()
                        if key != "wall_clock_s"}, sort_keys=True) + "\n"
            for line in lines).encode("utf-8")
    return raw


def digest_job(name: str, seed: int, workdir: Path) -> list[str]:
    """Run every model of one workload at one seed; one line per file,
    then the decisions line."""
    from checks import fingerprint
    from parallelobox import cli
    from parallelobox.meta import PrinterProfile, RunPlan

    workload = run.WORKLOADS[name]
    plan = RunPlan(granularity=workload.granularity,
                   sample_tries=workload.sample_tries, seed_base=seed)
    side = workload.printer_mm
    profile = PrinterProfile(volume_x=side, volume_y=side, volume_z=side)
    lines = []
    with run.Capture() as capture:
        for path in run.write_inputs(workload, workdir):
            out_dir = workdir / "out" / path.stem
            cli.run_batch([path], list(workload.printers), plan, profile,
                          list(workload.algorithms), out_dir)
            for file in sorted(p for p in out_dir.rglob("*") if p.is_file()):
                digest = hashlib.sha256(stable_bytes(file)).hexdigest()
                lines.append(f"{name} {seed} {path.stem}/"
                             f"{file.relative_to(out_dir).as_posix()} {digest}")
    decisions = repr([fingerprint(outcome) for outcome in capture.sink])
    lines.append(f"{name} {seed} decisions "
                 f"{hashlib.sha256(decisions.encode('utf-8')).hexdigest()}")
    return lines


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"),
                        help="a seed or an inclusive range such as 0-9")
    args = parser.parse_args(argv)
    logging.disable(logging.CRITICAL)
    run.pin_threads()
    for name in sorted(run.WORKLOADS):
        for seed in args.seeds:
            workdir = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-"))
            try:
                print("\n".join(digest_job(name, seed, workdir)), flush=True)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
