"""Smoke tests of the benchmark itself: one job per workload.

Run from the repository root with ``python3 -m pytest bench/test_smoke.py``.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
run.import_package()

from checks import check_outcome  # noqa: E402  (needs the package on sys.path)
from parallelobox.mesh import TriangleMesh  # noqa: E402


def one_job_passes(name: str, tmp_path: Path) -> list[run.Pass]:
    workload = run.WORKLOADS[name]
    workload = replace(workload, models=workload.models[:1])
    inputs = run.write_inputs(workload, tmp_path)
    with run.Capture() as capture, run.SpeedProbe() as probe:
        return [run.run_pass(workload, inputs, 0, tmp_path, capture, probe,
                             traced)
                for traced in (False, True)]


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, tmp_path):
    passes = one_job_passes(name, tmp_path)
    for trace, declared in ((False, BENCHMARK["end_to_end"]),
                            (True, BENCHMARK["per_layer"])):
        line, _ = run.summarize(passes, setup_s=0.5, trace=trace)
        assert line["correct"] is True
        assert line["attempted"] >= 1
        emitted = {k: v["unit"] for k, v in line["metrics"].items()}
        assert emitted == {m["name"]: m["unit"] for m in declared}
        assert all(isinstance(v["value"], (int, float))
                   for v in line["metrics"].values())
    e2e, details = run.end_to_end(passes, setup_s=0.5)
    search = details["by_algorithm"].pop("parallelobox")
    assert e2e["parallel_print_s_gmean"] == search["parallel_print_s_gmean"]
    others = set(run.WORKLOADS[name].algorithms) - {"parallelobox"}
    assert set(details["by_algorithm"]) == others
    times = passes[1].tracer.times()
    assert times, "the traced pass recorded no spans"
    assert all(row["self"] >= 0.0 for row in times.values())
    assert {s.job for s in passes[1].tracer.spans} == {0}


def test_speed_probe_samples_and_exits():
    with run.SpeedProbe() as probe:
        samples = [probe.sample() for _ in range(2)]
    assert all(t > 0.0 for t in samples)
    assert probe.proc.returncode == 0
    assert run.scaled([2.0], [run.REFERENCE_S * 2, run.REFERENCE_S * 2]) == [1.0]


def test_check_rejects_an_opened_part(tmp_path):
    passes = one_job_passes("prep_very_fine", tmp_path)
    outcome = passes[0].outcomes[0]
    workload = run.WORKLOADS["prep_very_fine"]
    dims = (workload.printer_mm,) * 3
    part_dir = (tmp_path / "out" / outcome.model / outcome.model
                / str(outcome.printers) / outcome.algorithm)
    assert check_outcome(outcome, dims, part_dir) == []

    part = outcome.result.parts[0]
    part.mesh = TriangleMesh(part.mesh.vertices, part.mesh.triangles[1:],
                             part.mesh.name)
    problems = check_outcome(outcome, dims, part_dir)
    assert "part 0 is not watertight" in problems
    assert any("volumes sum" in p for p in problems)
    assert "exported part 0 differs from part 0" in problems


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    bench = Path(run.__file__).resolve().parent
    shutil.copytree(bench, tmp_path / bench.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{bench.name}/run.py", "--workload", "batch_sweep",
         "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
