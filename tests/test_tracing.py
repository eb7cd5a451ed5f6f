"""The benchmark's traced mode patches program functions by name; every name
it patches must exist, and uninstalling must put every original back."""
import importlib
import logging
from pathlib import Path

from parallelobox import blocks, cli, fixtures, grid, meta
from parallelobox.mesh import save_stl
from parallelobox.meta import PrinterProfile, RunPlan

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _attributes():
    return {(m.__name__, k): v for m in (blocks, cli, grid, meta)
            for k, v in vars(m).items()}


def test_tracer_install_patches_and_uninstall_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    handlers = list(logging.getLogger("parallelobox").handlers)
    before = _attributes()

    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = _attributes()
    finally:
        tracer.uninstall()

    assert during.keys() == before.keys()
    patched = {key for key in before if during[key] is not before[key]}
    assert ("parallelobox.grid", "points_in_mesh") in patched
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert logging.getLogger("parallelobox").handlers == handlers


def test_traced_preparation_times_the_surface_clip_of_every_grid(monkeypatch):
    """The traced mode times the surface clip under the name measure_cells
    calls it by: one clip.surface span per measured grid, each a child of
    that grid's grid.measure span."""
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        meta.prepare_model(fixtures.dumbbell(), RunPlan(printers_available=2))
    finally:
        tracer.uninstall()
    measured = [s.id for s in tracer.spans if s.name == "grid.measure"]
    surface = [s.parent for s in tracer.spans if s.name == "clip.surface"]
    assert len(measured) == 2     # the two halves of the symmetry cut
    assert sorted(surface) == measured


def test_traced_batch_records_every_span_the_layer_metrics_read(monkeypatch,
                                                                tmp_path):
    """A traced batch with the baseline records each span that a per-layer
    metric reads.  A span goes missing when the program stops calling a
    patched function through the module global the tracer replaces."""
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    model = tmp_path / "unit_cube.stl"
    save_stl(fixtures.unit_cube(), model)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cli.run_batch([model], [2], RunPlan(granularity="coarse",
                                            sample_tries=1),
                      PrinterProfile(), ["parallelobox", "symmetry"],
                      tmp_path / "out")
    finally:
        tracer.uninstall()
    recorded = {s.name for s in tracer.spans}
    assert recorded >= {
        "meta.prepare", "grid.measure", "clip.surface", "clip.cell_volumes",
        "preprocess.symmetry", "preprocess.orient", "blocks.seed",
        "blocks.grow", "resolve.void", "meta.iteration", "clip.to_box",
        "clip.cut", "meta.baseline", "mesh.load", "mesh.save",
        "cli.reports"}
