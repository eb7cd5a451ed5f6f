"""The executable lines of ``src/parallelobox`` that a run never reaches.

Usage, from the root of a checkout::

    python3 tools/line_coverage.py pytest [PYTEST_ARGS ...]
    python3 tools/line_coverage.py workloads [--seeds 0-2]

``pytest`` runs the test suite in this process, with any further
arguments passed on to pytest, and prints the report in pytest's summary.
``workloads`` runs every model of each workload of ``bench/run.py`` (read,
never edited) at the given seeds, the way ``tools/output_digest.py`` does.
Only the standard library traces: ``sys.settrace`` for this thread and
``threading.settrace`` for any thread started later.  The tracer is
installed before the package is imported, so module-level lines count.
Code run in a child process, such as a test's ``python -m parallelobox``,
is not traced and shows as never run.

A line is executable when an instruction of a code object compiled from
the file maps to it (``co_lines()``).  The report has one
``path:line: source`` line per executable line that never ran, then a count.
Tracing slows the run down several times: the whole suite takes minutes.
"""
from __future__ import annotations

import argparse
import logging
import shutil
import sys
import tempfile
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "parallelobox"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

#: (file, line) of every package line that ran.
RAN: set[tuple[str, int]] = set()
_PREFIX = str(PACKAGE) + "/"


def _lines(frame, event, arg):
    RAN.add((frame.f_code.co_filename, frame.f_lineno))
    return _lines


def _calls(frame, event, arg):
    """The global trace function: trace the lines of package frames only."""
    if frame.f_code.co_filename.startswith(_PREFIX):
        return _lines(frame, event, arg)
    return None


def start() -> None:
    threading.settrace(_calls)
    sys.settrace(_calls)


def stop() -> None:
    sys.settrace(None)
    threading.settrace(None)


def executable(path: Path) -> set[int]:
    """The lines that an instruction of path's code objects maps to."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec", dont_inherit=True)]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def report() -> list[str]:
    out, total = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        lines = executable(path)
        total += len(lines)
        out += [f"{path.relative_to(ROOT).as_posix()}:{line}: "
                f"{source[line - 1].strip()}"
                for line in sorted(lines) if (str(path), line) not in RAN]
    return out + [f"{len(out)} of {total} executable lines never ran"]


class Plugin:
    """Ends tracing with the test session and reports in its summary."""

    def pytest_sessionfinish(self, session, exitstatus):
        stop()

    def pytest_terminal_summary(self, terminalreporter):
        terminalreporter.section("lines never run")
        for line in report():
            terminalreporter.write_line(line)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["pytest"]:
        start()
        import pytest
        return int(pytest.main(argv[1:], plugins=[Plugin()]))
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        usage="%(prog)s pytest [PYTEST_ARGS ...] | workloads [--seeds 0-2]")
    parser.add_argument("mode", choices=["workloads"])
    parser.add_argument("--seeds", default="0-2",
                        help="a seed or an inclusive range such as 0-2")
    args = parser.parse_args(argv)
    start()
    import output_digest
    import run
    logging.disable(logging.CRITICAL)
    run.pin_threads()
    for name in sorted(run.WORKLOADS):
        for seed in output_digest.seed_range(args.seeds):
            workdir = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-"))
            try:
                output_digest.digest_job(name, seed, workdir)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
    stop()
    print("\n".join(report()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
