"""Time estimation, preparation, the retry search, and the cut-in-half baseline."""
import logging
import math
from dataclasses import replace

import numpy as np
import pytest

from parallelobox import clip, fixtures, meta
from parallelobox.blocks import GrowthState, grow_blocks, select_seed_blocks
from parallelobox.clip import clip_to_box, cut_by_plane
from parallelobox.errors import (InsufficientBoundaryCells, NonWatertightInput,
                                 NoValidDecomposition)
from parallelobox.fixtures import (asymmetric_blob, box_mesh, dumbbell,
                                   hollow_box, unit_cube)
from parallelobox.grid import AREA, CellClass
from parallelobox.mesh import (TriangleMesh, aabb_of, measure, triangle_areas,
                              validate_watertight)
from parallelobox.meta import (Decomposition, ModelWork, PartResult,
                               PrinterProfile, RunPlan, _beats,
                               _proportional_share, estimate_time,
                               fits_printer, prepare_model,
                               recursive_symmetry_baseline, run_metaheuristic)
from parallelobox.preprocess import SymmetryPlane
from test_resolve import _reference_regions, paint_owner

PROFILE = PrinterProfile()
#: A mirror plane far beyond every fixture: cutting at it cuts nothing.
FAR_PLANE = SymmetryPlane(np.array([1.0, 0.0, 0.0]), 1e6, 0.0)


def test_estimate_time_reference_value():
    t = estimate_time(1000.0, 600.0, PROFILE, infill_fraction=0.05)
    # infill: 0.05*1000/(0.4*0.25*20) = 25 s; shell: 0.4*600/(0.4*0.25*20) = 120 s
    assert t == 145.0


def test_parallel_vs_aggregate_semantics():
    times = [1200.0] * 5  # five identical 20-minute parts
    assert max(times) == 1200.0
    assert sum(times) == 6000.0
    # the same reductions drive a real run's reported fields
    dec = run_metaheuristic(dumbbell(),
                            RunPlan(printers_available=2, granularity="coarse",
                                    sample_tries=2), PROFILE)
    assert dec.parallel_time_s == pytest.approx(max(p.time_s for p in dec.parts))
    assert dec.aggregate_time_s == pytest.approx(sum(p.time_s for p in dec.parts))
    assert dec.parallel_score == pytest.approx(max(p.print_score for p in dec.parts))


def test_proportional_share():
    assert _proportional_share(4, 1.0, 1.0) == 2
    assert _proportional_share(5, 1.0, 1.0) == 3  # round-half-up, then clamp
    assert _proportional_share(4, 1000.0, 1.0) == 3  # never exhausts the other side
    assert _proportional_share(4, 1.0, 1000.0) == 1
    assert _proportional_share(2, 10.0, 1.0) == 1


def _box(grid, lo, hi) -> tuple[float, float]:
    """Volume and capped area of one cell range, read through
    ``Grid.boxes``."""
    volume, area = grid.boxes([lo], [hi])
    return float(volume[0]), float(area[0])


def table_cut_area(mesh, prepared, parts) -> float:
    """The caps of the parts' boxes, read from the cell tables, plus the
    caps of the symmetry cut, measured on the two halves of mesh."""
    caps = 0.0
    for p in parts:
        grid = prepared.pieces[p.piece].grid
        lo, hi = np.array(p.cell_lo), np.array(p.cell_hi)
        caps += _box(grid, lo, hi)[1] - grid.sums(lo, hi)[AREA]
    if prepared.cut:
        normal, offset = prepared.plane.normal, prepared.plane.offset
        for half in cut_by_plane(mesh, normal, offset):
            corners = half.vertices[half.triangles]
            on = (np.abs(corners @ normal - offset) <= 1e-9).all(axis=1)
            caps += float(triangle_areas(half)[on].sum())
    return caps


def test_prepare_model_symmetric_cut_and_shells():
    plan = RunPlan(printers_available=4, granularity="coarse")
    prep = prepare_model(hollow_box(), plan)
    assert prep.cut
    assert len(prep.pieces) == 2
    total = measure(hollow_box())
    assert prep.surface_area == total.surface_area
    vol = sum(p.volume for p in prep.pieces)
    assert vol == pytest.approx(total.volume, rel=1e-9)
    # The cells of a piece share its whole surface, and the pieces carry
    # the model's surface plus the two caps of the symmetry cut.
    areas = [measure(p.mesh).surface_area for p in prep.pieces]
    for piece, area in zip(prep.pieces, areas):
        assert piece.grid.area.sum() == pytest.approx(area, rel=1e-9)
    caps = table_cut_area(hollow_box(), prep, [])
    assert caps > 0.0
    assert sum(areas) - total.surface_area == pytest.approx(caps, rel=1e-9)


def test_prepare_model_skips_asymmetric_and_single_printer():
    plan = RunPlan(printers_available=4, granularity="coarse")
    prep = prepare_model(asymmetric_blob(), plan)
    assert not prep.cut
    assert len(prep.pieces) == 1

    # with a single printer the pre-cut would be unusable
    plan = RunPlan(printers_available=1, granularity="coarse")
    prep = prepare_model(unit_cube(), plan)
    assert not prep.cut


def test_prepare_model_keeps_the_model_whole_when_its_plane_cuts_nothing(
        caplog):
    with caplog.at_level(logging.WARNING, logger="parallelobox.meta"):
        prep = prepare_model(dumbbell(), RunPlan(printers_available=2,
                                                 granularity="coarse"),
                             FAR_PLANE)
    assert not prep.cut
    assert [piece.mesh.name for piece in prep.pieces] == ["dumbbell"]
    assert prep.pieces[0].volume == pytest.approx(measure(dumbbell()).volume,
                                                  rel=1e-9)
    assert [r.getMessage() for r in caplog.records] == [
        "symmetry plane cut off nothing; skipping the cut"]


def test_run_metaheuristic_records_and_selection():
    plan = RunPlan(printers_available=4, granularity="coarse", sample_tries=3,
                   seed_base=7)
    records = []
    dec = run_metaheuristic(dumbbell(), plan, PROFILE, records=records)
    assert dec.valid
    assert dec.printers_used <= 4
    assert records
    for r in records:
        # the published seed formula
        assert r.seed == 7 + 1000 * r.seed_blocks + r.try_index
        assert r.wall_clock_s > 0.0
    valid = [r for r in records if r.valid]
    assert valid
    best = min(valid, key=lambda r: (r.parallel_score, r.parts, r.aggregate_time_s))
    assert dec.parallel_score == pytest.approx(best.parallel_score)
    # every tried block count stays within the printer budget
    assert {r.seed_blocks for r in records} <= set(range(1, 5))


def test_run_metaheuristic_conserves_model():
    mesh = dumbbell()
    total = measure(mesh)
    plan = RunPlan(printers_available=4, granularity="coarse", sample_tries=2)
    work = ModelWork(mesh)
    prepared, _ = work.search_inputs(plan, PROFILE)
    dec = run_metaheuristic(mesh, plan, PROFILE, work=work)
    assert sum(p.volume for p in dec.parts) == pytest.approx(total.volume, rel=1e-6)
    assert dec.cut_area_mm2 == (sum(p.surface_area for p in dec.parts)
                                - total.surface_area)
    assert dec.cut_area_mm2 >= 0.0
    assert dec.cut_area_mm2 == pytest.approx(
        table_cut_area(mesh, prepared, dec.parts), rel=1e-9,
        abs=1e-9 * total.surface_area)
    for p in dec.parts:
        assert p.source in ("block", "void")
        assert p.cell_lo is not None and p.cell_hi is not None


def test_run_metaheuristic_raises_when_nothing_fits():
    # a 300 mm cube can never satisfy a 250 mm printer with two parts
    big = box_mesh(size=(300.0, 300.0, 300.0))
    plan = RunPlan(printers_available=2, granularity="coarse", sample_tries=2)
    with pytest.raises(NoValidDecomposition):
        run_metaheuristic(big, plan, PROFILE)


def test_baseline_cube_four_congruent_slabs():
    dec = recursive_symmetry_baseline(
        unit_cube(), RunPlan(printers_available=4, granularity="coarse"), PROFILE)
    assert dec.valid
    assert len(dec.parts) == 4
    scores = [p.print_score for p in dec.parts]
    assert max(scores) - min(scores) <= 1e-6 * max(scores)
    vols = [p.volume for p in dec.parts]
    assert sum(vols) == pytest.approx(1.0, rel=1e-9)


def test_baseline_respects_budget_and_conserves():
    mesh = dumbbell()
    total = measure(mesh)
    for printers in (2, 4, 8):
        dec = recursive_symmetry_baseline(
            mesh, RunPlan(printers_available=printers, granularity="coarse"), PROFILE)
        assert dec.valid
        assert 1 <= len(dec.parts) <= printers
        assert sum(p.volume for p in dec.parts) == pytest.approx(total.volume, rel=1e-9)
        assert dec.cut_area_mm2 == (sum(p.surface_area for p in dec.parts)
                                    - total.surface_area)
        assert dec.cut_area_mm2 >= 0.0
        assert (dec.cut_area_mm2 > 1e-9 * total.surface_area) == (len(dec.parts) > 1)
        for p in dec.parts:
            ext = aabb_of(p.mesh).extent
            assert np.all(np.sort(ext) <= np.sort(np.array(PROFILE.dims)) + 1e-9)


def test_baseline_single_printer_returns_whole_model():
    dec = recursive_symmetry_baseline(
        dumbbell(), RunPlan(printers_available=1, granularity="coarse"), PROFILE)
    assert len(dec.parts) == 1
    assert dec.valid


def test_baseline_stops_once_pieces_outnumber_printers(monkeypatch):
    """Rounds never lose pieces, so the first round with more pieces than
    printers is returned, invalid, without halving further."""
    halvings = []
    halve = meta._halve
    monkeypatch.setattr(meta, "_halve", lambda pieces, *plane: halvings.append(
        len(pieces)) or halve(pieces, *plane))
    dec = recursive_symmetry_baseline(
        fixtures.l_bracket(), RunPlan(printers_available=2,
                                      granularity="coarse"),
        PrinterProfile(volume_x=22.0, volume_y=22.0, volume_z=22.0))
    assert not dec.valid
    assert len(dec.parts) > 2
    assert 1 <= len(halvings) <= 3
    assert dec.reason == f"{len(dec.parts)} parts exceed 2 printers"


def test_baseline_keeps_uncut_pieces_and_ends_its_rounds(monkeypatch):
    """A piece whose mirror plane cuts nothing is kept whole, and the first
    round that cuts nothing ends the halving, for this printer count and
    every later one on the same ModelWork.  Only the model and the second
    half of the dumbbell get a plane through them here."""
    find, cut = meta.find_best_symmetry_plane, meta.cut_by_plane
    monkeypatch.setattr(meta, "find_best_symmetry_plane", lambda mesh: (
        find(mesh) if mesh.name in ("dumbbell", "dumbbellb") else FAR_PLANE))
    cuts = []
    monkeypatch.setattr(meta, "cut_by_plane", lambda mesh, *plane: cuts.append(
        mesh.name) or cut(mesh, *plane))
    work = ModelWork(dumbbell(), (4, 8))
    plan = RunPlan(printers_available=4, granularity="coarse")
    four = recursive_symmetry_baseline(work.mesh, plan, PROFILE, work=work)
    names = ["dumbbella", "dumbbellba", "dumbbellbb"]
    assert four.valid and [p.mesh.name for p in four.parts] == names
    assert cuts == ["dumbbell", "dumbbella", "dumbbellb"] + names
    assert work.rounds[-1] is None and len(work.rounds) == 4
    eight = recursive_symmetry_baseline(
        work.mesh, replace(plan, printers_available=8), PROFILE, work=work)
    assert eight.valid and [p.mesh.name for p in eight.parts] == names
    assert len(cuts) == 6


def _open_mesh(name):
    """A fixture with its last triangle removed: a surface with a hole."""
    mesh = getattr(fixtures, name)()
    return TriangleMesh(mesh.vertices, mesh.triangles[:-1], mesh.name)


@pytest.mark.parametrize("name", ["l_bracket", "icosphere"])
@pytest.mark.parametrize("printers", [1, 2, 4])
@pytest.mark.parametrize("skip_symmetry_cut", [False, True])
def test_search_rejects_open_mesh_before_growth(name, printers,
                                                skip_symmetry_cut, monkeypatch):
    calls = []
    for attr in ("grow_blocks", "clip_to_box"):
        fn = getattr(meta, attr)
        monkeypatch.setattr(meta, attr, lambda *args, _attr=attr, _fn=fn, **kwargs:
                            calls.append(_attr) or _fn(*args, **kwargs))
    plan = RunPlan(printers_available=printers, granularity="coarse",
                   sample_tries=1, skip_symmetry_cut=skip_symmetry_cut)
    with pytest.raises(NonWatertightInput):
        run_metaheuristic(_open_mesh(name), plan, PROFILE)
    assert calls == []


@pytest.mark.parametrize("name", ["l_bracket", "icosphere"])
@pytest.mark.parametrize("printers", [1, 2, 4])
def test_baseline_rejects_open_mesh(name, printers):
    plan = RunPlan(printers_available=printers, granularity="coarse")
    with pytest.raises(NonWatertightInput):
        recursive_symmetry_baseline(_open_mesh(name), plan, PROFILE)


#: A 6 x 6 x 6 voxel model, one bit per voxel: with the first round's caps
#: ear-clipped, its baseline's second round cut a cap whose hole had a
#: vertex 1.8e-15 mm from the outer ring, and the hole was dropped.
FZ12_20 = "0000002080000002080003cf208c30fcf208df7fcf3c8df7dc71c0"


@pytest.mark.parametrize("printers", [4, 8])
def test_baseline_keeps_cap_hole_touching_its_outer_ring(printers):
    occupancy = np.unpackbits(np.frombuffer(bytes.fromhex(FZ12_20), np.uint8))
    mesh = fixtures.voxel_mesh(occupancy[:216].reshape(6, 6, 6).astype(bool),
                               voxel_size=10.0)
    dec = recursive_symmetry_baseline(
        mesh, RunPlan(printers_available=printers, granularity="fine"),
        PROFILE)
    assert dec.valid and len(dec.parts) == printers
    assert all(validate_watertight(p.mesh).is_watertight for p in dec.parts)
    assert sum(p.volume for p in dec.parts) == pytest.approx(
        measure(mesh).volume, rel=1e-9)


def test_open_parts_trip_the_gate(monkeypatch):
    """Caps that lose a triangle leave the cut parts open: the shared rule
    marks them bad_part, for the baseline and for the search alike."""
    triangulate = clip._triangulate_region
    monkeypatch.setattr(clip, "_triangulate_region",
                        lambda *args: triangulate(*args)[:-1])
    # No symmetry cut, so preparation triangulates no cap; the 60 mm model
    # needs two parts on 40 mm printers.
    plan = RunPlan(printers_available=2, granularity="coarse", sample_tries=1,
                   skip_symmetry_cut=True)
    profile = PrinterProfile(volume_x=40.0, volume_y=40.0, volume_z=40.0)
    baseline = recursive_symmetry_baseline(dumbbell(), plan, profile)
    assert not baseline.valid
    assert baseline.reason.startswith("bad_part: part ")
    records = []
    with pytest.raises(NoValidDecomposition):
        run_metaheuristic(dumbbell(), plan, profile, records)
    clipped = [r for r in records if r.clipped]
    assert clipped and all(r.reason.startswith("bad_part: part ") for r in clipped)


def test_parts_missing_volume_trip_the_gate():
    """Closed parts whose volumes do not add up to the model's."""
    halves = [meta._score_part(box_mesh((10.0, 10.0, 5.0), name=f"p{i}"), "block",
                               PROFILE, RunPlan().infill_fraction, piece=0)
              for i in range(2)]
    assert meta._parts_verdict(halves, 2, PROFILE.dims, 1000.0) == ""
    assert meta._parts_verdict(halves[:1], 2, PROFILE.dims, 1000.0) == (
        "bad_part: part volumes sum to 500, not 1000")


# ---------------------------------------------------------------------------
# the table-scored search against a search that clips every iteration


def _reference_decomposition(prepared, plan, profile, seed_blocks, seed):
    """One iteration with every block and void box clipped and scored from
    its mesh, as the search did before it scored from the cell tables.
    Parts are scored by the formulas of ``print_score`` and
    ``estimate_time`` written out with the profile's speeds and the plan's
    infill."""
    total_printers = plan.printers_available
    pieces = prepared.pieces
    if len(pieces) == 2:
        v1, v2 = pieces[0].volume, pieces[1].volume
        first = _proportional_share(seed_blocks, v1, v2)
        growth_split = [first, seed_blocks - first]
        first_budget = _proportional_share(total_printers, v1, v2)
        budget_split = [first_budget, total_printers - first_budget]
    else:
        growth_split = [seed_blocks]
        budget_split = [total_printers]
    parts = []
    reason = ""
    for index, (piece, k, budget) in enumerate(zip(pieces, growth_split,
                                                   budget_split)):
        grid = piece.grid
        try:
            seeds = select_seed_blocks(grid, piece.mesh, k,
                                       rng_seed=seed * 2 + index)
        except InsufficientBoundaryCells as exc:
            reason = f"piece {index}: {exc}"
            break
        state = GrowthState([grid], [seeds], profile, plan.infill_fraction)
        grow_blocks(state)
        blocks = list(zip(state.lo[0], state.hi[0]))
        free = max(0, budget - len(blocks))
        cls = grid.classification
        owner = paint_owner(cls, blocks)
        regions = _reference_regions(cls, owner, grid.cell_size, free,
                                     profile.dims)
        left = paint_owner(cls, blocks + regions) < 0
        left_b = int((left & (cls == CellClass.BOUNDARY)).sum())
        left_i = int((left & (cls == CellClass.INTERNAL)).sum())
        if left_b or left_i:
            reason = (f"piece {index}: {left_b} boundary / {left_i} internal "
                      "cells uncovered")
            break
        boxes = ([(lo, hi, "block", f"_b{i}") for i, (lo, hi) in enumerate(blocks)]
                 + [(lo, hi, "void", f"_v{r}")
                    for r, (lo, hi) in enumerate(regions)])
        for lo, hi, source, suffix in boxes:
            box = grid.box_of_range(lo, hi)
            clipped = clip_to_box(piece.mesh, box)
            if clipped.is_empty:
                continue
            clipped.name = piece.mesh.name + suffix
            mm = measure(clipped)
            parts.append(PartResult(
                volume=mm.volume, surface_area=mm.surface_area,
                print_score=(profile.speed_infill
                             * (plan.infill_fraction * mm.volume)
                             + profile.speed_shell * mm.surface_area),
                time_s=(plan.infill_fraction * mm.volume
                        / (profile.line_width * profile.layer_height
                           * profile.speed_infill)
                        + profile.line_width * mm.surface_area
                        / (profile.line_width * profile.layer_height
                           * profile.speed_shell)),
                source=source, mesh=clipped, piece=index,
                cell_lo=tuple(int(x) for x in lo),
                cell_hi=tuple(int(x) for x in hi), name=clipped.name))
    if reason:
        parts = []      # a stopped iteration has no result
    valid = not reason
    if valid and len(parts) == 0:
        valid, reason = False, "no parts produced"
    if valid and len(parts) > total_printers:
        valid, reason = False, f"{len(parts)} parts exceed {total_printers} printers"
    if valid:
        for part in parts:
            if not fits_printer(aabb_of(part.mesh).extent, profile.dims):
                valid, reason = False, f"part {part.mesh.name} exceeds the printer"
                break
    nan = float("nan")
    return Decomposition(
        parts=parts, algorithm="parallelobox", printers_available=total_printers,
        seed_blocks=seed_blocks, seed=seed, valid=valid, reason=reason,
        parallel_score=max((p.print_score for p in parts), default=nan),
        parallel_time_s=max((p.time_s for p in parts), default=nan),
        aggregate_time_s=sum(p.time_s for p in parts) if parts else nan,
        symmetry_cut=prepared.cut, clipped=True,
        cut_area_mm2=(sum(p.surface_area for p in parts) - prepared.surface_area
                      if parts else float("nan")))


def test_stopped_iteration_reports_no_parts():
    """An iteration that stops at a piece that failed to seed or stays
    uncovered reports no parts, and NaN for its score and both times, not
    the parts of the pieces before it.  unit_cube at fine with 8 printers
    of 30 mm stops at piece 1 for 7 seed blocks."""
    plan = RunPlan(printers_available=8, granularity="fine", sample_tries=1,
                   seed_base=0)
    profile = PrinterProfile(volume_x=30.0, volume_y=30.0, volume_z=30.0)
    records = []
    try:
        run_metaheuristic(unit_cube(), plan, profile, records)
    except NoValidDecomposition:
        pass
    stopped = [r for r in records if r.reason.startswith("piece ")]
    assert any(r.seed_blocks == 7 and r.reason.startswith("piece 1: ")
               and r.reason.endswith("cells uncovered") for r in stopped)
    for record in stopped:
        assert not record.valid and record.parts == 0, record
        assert all(math.isnan(x) for x in (
            record.parallel_score, record.parallel_time_s,
            record.aggregate_time_s, record.cut_area_mm2)), record


def _reference_search(prepared, plan, profile):
    """The retry loop over clipped iterations; (winner or None, results)."""
    floor = max(plan.min_printers, len(prepared.pieces), 1)
    best, results = None, []
    for p in range(plan.printers_available, floor - 1, -1):
        for t in range(1, plan.sample_tries + 1):
            result = _reference_decomposition(prepared, plan, profile, p,
                                              plan.seed_base + 1000 * p + t)
            results.append(result)
            if result.valid and _beats(result, best):
                best = result
    return best, results


def _caps_cover_once(mesh, box) -> bool:
    """Do the faces of a clipped mesh on each box plane cover it once?

    On a plane covered once, the unsigned area of the faces lying in it
    equals the magnitude of their signed area along the plane normal.
    """
    corners = mesh.vertices[mesh.triangles]
    half_cross = 0.5 * np.cross(corners[:, 1] - corners[:, 0],
                                corners[:, 2] - corners[:, 0])
    for axis in range(3):
        for plane in (box.min[axis], box.max[axis]):
            on = (np.abs(corners[:, :, axis] - plane) <= 1e-9).all(axis=1)
            unsigned = float(np.linalg.norm(half_cross[on], axis=1).sum())
            signed = abs(float(half_cross[on, axis].sum()))
            if unsigned - signed > 1e-9 * max(unsigned, 1.0):
                return False
    return True


def _record_fields(record):
    return (record.seed_blocks, record.try_index, record.seed, record.valid,
            record.parts, record.parallel_score, record.parallel_time_s,
            record.aggregate_time_s, record.reason)


def _part_fields(part):
    return (part.piece, part.source, part.cell_lo, part.cell_hi, part.name,
            part.volume, part.surface_area, part.print_score,
            part.time_s, part.mesh.vertices.tobytes(),
            part.mesh.triangles.tobytes())


def _assert_search_matches_reference(mesh, prepared, plan, profile, case):
    """The search's winner and records equal those of the reference search
    that clips every iteration; returns the winner or None."""
    want, reference = _reference_search(prepared, plan, profile)
    records = []
    try:
        got = run_metaheuristic(mesh, plan, profile, records)
    except NoValidDecomposition:
        got = None
    assert (got is None) == (want is None), case
    if got is not None:
        assert (got.seed_blocks, got.seed) == (want.seed_blocks, want.seed), case
        assert ([_part_fields(p) for p in got.parts]
                == [_part_fields(p) for p in want.parts]), case
        assert (got.parallel_score, got.parallel_time_s,
                got.aggregate_time_s, got.cut_area_mm2) == (
            want.parallel_score, want.parallel_time_s,
            want.aggregate_time_s, want.cut_area_mm2), case
    assert len(records) == len(reference), case
    for record, exact in zip(records, reference):
        fields = (record.seed, record.valid, record.parts, record.reason)
        assert fields == (exact.seed, exact.valid, exact.printers_used,
                          exact.reason), case
        assert (math.isnan(record.cut_area_mm2)
                == math.isnan(exact.cut_area_mm2)), case
        if record.clipped:
            assert (record.parallel_score, record.parallel_time_s,
                    record.aggregate_time_s, record.cut_area_mm2) == (
                exact.parallel_score, exact.parallel_time_s,
                exact.aggregate_time_s, exact.cut_area_mm2), case
            continue
        if not exact.parts:
            assert math.isnan(record.parallel_score), case
            continue
        # Table and mesh areas agree, and so do the cut areas.
        assert record.cut_area_mm2 == pytest.approx(
            exact.cut_area_mm2, rel=1e-9,
            abs=1e-9 * prepared.surface_area, nan_ok=True), case
        # The mesh caps cover each box plane once, so tables and meshes
        # score alike.
        assert record.parallel_score <= exact.parallel_score * (
            1.0 + 1e-12), case
        assert all(_caps_cover_once(
            p.mesh, prepared.pieces[p.piece].grid.box_of_range(
                p.cell_lo, p.cell_hi)) for p in exact.parts), case
        assert record.parallel_score == pytest.approx(
            exact.parallel_score, rel=1e-9), case
    return got


@pytest.mark.parametrize("granularity", ["coarse", "fine"])
@pytest.mark.parametrize("fixture", ["unit_cube", "icosphere", "dumbbell",
                                     "l_bracket", "hollow_box",
                                     "asymmetric_blob"])
def test_search_matches_reference(fixture, granularity, monkeypatch):
    mesh = getattr(fixtures, fixture)()
    # Printer counts >= 2 share one prepared model; prepare it once.
    prepared = prepare_model(mesh, RunPlan(printers_available=2,
                                           granularity=granularity))
    monkeypatch.setattr(meta, "prepare_model", lambda *args: prepared)
    for printers in (2, 4, 8):
        for side in (30.0, 250.0):
            profile = PrinterProfile(volume_x=side, volume_y=side, volume_z=side)
            for seed_base in (0, 10, 20):
                case = (printers, side, seed_base)
                plan = RunPlan(printers_available=printers,
                               granularity=granularity, sample_tries=1,
                               seed_base=seed_base)
                _assert_search_matches_reference(mesh, prepared, plan,
                                                 profile, case)


@pytest.mark.parametrize("fixture", ["dumbbell", "l_bracket"])
def test_search_matches_reference_with_printer_profile(fixture, monkeypatch):
    """A non-cubic printer with its own speeds and a non-default infill
    reach growth, the void fill and part scoring: the search equals the
    reference, which reads them from the profile and the plan alone."""
    mesh = getattr(fixtures, fixture)()
    prepared = prepare_model(mesh, RunPlan(printers_available=2,
                                           granularity="fine"))
    monkeypatch.setattr(meta, "prepare_model", lambda *args: prepared)
    profile = PrinterProfile(volume_x=40.0, volume_y=30.0, volume_z=60.0,
                             speed_shell=30.0, speed_infill=45.0)
    winners = 0
    for printers in (2, 4, 8):
        plan = RunPlan(printers_available=printers, granularity="fine",
                       sample_tries=1, infill_fraction=0.15)
        winners += _assert_search_matches_reference(
            mesh, prepared, plan, profile, printers) is not None
    assert winners


@pytest.mark.parametrize("granularity", ["coarse", "fine"])
def test_box_tables_match_clipped_meshes(granularity):
    """Grid.boxes against clip_to_box on random cell-aligned boxes."""
    rng = np.random.default_rng(5)
    for make in (unit_cube, fixtures.icosphere, dumbbell, fixtures.l_bracket,
                 hollow_box, asymmetric_blob):
        prepared = prepare_model(make(), RunPlan(printers_available=2,
                                                 granularity=granularity))
        for piece in prepared.pieces:
            dims = np.array(piece.grid.dims)
            face = piece.grid.cell_size ** 2
            cell = piece.grid.cell_size ** 3
            for _ in range(12):
                a, b = rng.integers(0, dims), rng.integers(0, dims)
                lo, hi = np.minimum(a, b), np.maximum(a, b)
                box = piece.grid.box_of_range(lo, hi)
                clipped = clip_to_box(piece.mesh, box)
                exact = measure(clipped)
                volume, area = _box(piece.grid, lo, hi)
                case = (make.__name__, lo, hi)
                assert volume == pytest.approx(
                    exact.volume, rel=1e-9, abs=1e-9 * cell), case
                assert area <= exact.surface_area + 1e-9 * max(
                    exact.surface_area, face), case
                assert _caps_cover_once(clipped, box), case
                assert area == pytest.approx(
                    exact.surface_area, rel=1e-9, abs=1e-9 * face), case


def test_dumbbell_box_mesh_matches_its_table():
    """Piece 0 of the dumbbell at fine with 4 printers, cells (0, 4, 0) to
    (7, 7, 11): the clipped mesh has the table's 1720 mm².  A cap covering
    part of the box's y-min face twice made it 1780."""
    prepared = prepare_model(dumbbell(), RunPlan(printers_available=4,
                                                 granularity="fine"))
    piece = prepared.pieces[0]
    lo, hi = np.array([0, 4, 0]), np.array([7, 7, 11])
    clipped = clip_to_box(piece.mesh, piece.grid.box_of_range(lo, hi))
    _, area = _box(piece.grid, lo, hi)
    assert area == pytest.approx(1720.0, rel=1e-9)
    assert measure(clipped).surface_area == pytest.approx(area, rel=1e-9)


def test_blob_seed_4002_parts_are_closed(caplog):
    """asymmetric_blob at fine with 4 printers, seed 4002: a cap on part
    0's box found no bridge for its hole and dropped it, and two of the
    valid result's parts were open.  Every part is closed now, with the
    table's area and volume."""
    plan = RunPlan(printers_available=4, granularity="fine")
    prepared = prepare_model(asymmetric_blob(), plan)
    grown = meta.grow_runs(prepared, plan, PROFILE, [(4, 4002)])[0]
    result = meta.clip_parts(prepared, plan, PROFILE, meta.run_decomposition(
        prepared, plan, PROFILE, 4, 4002, grown), {})
    assert result.valid and len(result.parts) == 4
    assert not [r for r in caplog.records if r.name == "parallelobox.clip"]
    for part in result.parts:
        volume, area = _box(prepared.pieces[part.piece].grid,
                            np.array(part.cell_lo), np.array(part.cell_hi))
        exact = measure(part.mesh)
        assert validate_watertight(part.mesh).is_watertight, part.name
        assert exact.surface_area == pytest.approx(area, rel=1e-9), part.name
        assert exact.volume == pytest.approx(volume, rel=1e-9), part.name


def test_search_clips_boxes_larger_than_the_printer(monkeypatch):
    """A cell wider than the printer may hold a part that fits: the tables
    cannot judge such an iteration, so it is clipped, once, and each
    distinct box of the search is clipped to a mesh once."""
    rod = box_mesh(size=(8.0, 0.5, 0.5), name="rod")
    plan = RunPlan(printers_available=8, granularity="coarse", sample_tries=2,
                   skip_symmetry_cut=True)
    # Cells are 1.001 mm cubes; the part in a cell is at most 0.5 mm thick.
    profile = PrinterProfile(volume_x=0.6)
    iterations, boxes = [], []
    clip_parts, clip_to_box = meta.clip_parts, meta.clip_to_box
    monkeypatch.setattr(meta, "clip_parts", lambda *args: iterations.append(
        args[3]) or clip_parts(*args))
    monkeypatch.setattr(meta, "clip_to_box", lambda meshes, batch: boxes.extend(
        (id(mesh), tuple(box.min), tuple(box.max))
        for mesh, box in zip(meshes, batch)) or clip_to_box(meshes, batch))
    records = []
    got = run_metaheuristic(rod, plan, profile, records)
    want, reference = _reference_search(prepare_model(rod, plan),
                                        plan, profile)
    assert got.valid and all(r.valid and r.clipped for r in records)
    assert sorted(r.seed for r in iterations) == sorted(r.seed for r in records)
    distinct = {(p.piece, p.cell_lo, p.cell_hi)
                for r in iterations for p in r.parts}
    assert len(boxes) == len(set(boxes)) == len(distinct)
    assert len(boxes) < sum(r.parts for r in records)
    assert [_part_fields(p) for p in got.parts] == [_part_fields(p)
                                                    for p in want.parts]
    assert [(r.parallel_score, r.parts) for r in records] == [
        (r.parallel_score, r.printers_used) for r in reference]


def test_search_leaves_oversize_iterations_that_cannot_win_unclipped(
        monkeypatch):
    """The search clips its covered iterations in one pass by ascending
    table score, until the next one exceeds the best clipped score by more
    than SCORE_RTOL.  A table score never exceeds its clipped score, so an
    iteration with a box larger than the printer past that point cannot
    win, and it keeps its table reason unclipped.  Here the dumbbell's
    two-block iterations are marked oversize."""
    plan = RunPlan(printers_available=4, granularity="coarse", sample_tries=2)
    want = run_metaheuristic(dumbbell(), plan, PROFILE)
    decompose = meta.run_decomposition

    def marked(*args):
        result = decompose(*args)
        if result.seed_blocks == 2:
            return replace(result, valid=False,
                           reason=meta.BOX_EXCEEDS_PRINTER)
        return result

    monkeypatch.setattr(meta, "run_decomposition", marked)
    records = []
    got = run_metaheuristic(dumbbell(), plan, PROFILE, records)
    oversize = [r for r in records if r.seed_blocks == 2]
    assert len(oversize) == 2
    for record in oversize:
        assert record.reason == meta.BOX_EXCEEDS_PRINTER
        assert not record.valid and not record.clipped
        assert record.parallel_score > got.parallel_score * (
            1.0 + meta.SCORE_RTOL)
    assert (got.seed_blocks, got.seed) == (want.seed_blocks, want.seed)
    assert [_part_fields(p) for p in got.parts] == [_part_fields(p)
                                                    for p in want.parts]


def test_clip_parts_drops_boxes_that_clip_to_nothing():
    """A box over empty cells clips to an empty mesh and gives no part; a
    result left with no parts is invalid."""
    plan = RunPlan(printers_available=2, granularity="coarse")
    prepared = prepare_model(dumbbell(), plan)
    grown = meta.grow_runs(prepared, plan, PROFILE, [(2, 0)])[0]
    result = meta.run_decomposition(prepared, plan, PROFILE, 2, 0, grown)
    assert result.valid
    cell = tuple(np.argwhere(prepared.pieces[0].grid.classification
                             == CellClass.EXTERNAL)[0].tolist())
    hollow = meta.PartResult(0.0, 0.0, 0.0, 0.0, "void", piece=0,
                             cell_lo=cell, cell_hi=cell, name="hollow")
    want = meta.clip_parts(prepared, plan, PROFILE, result, {})
    got = meta.clip_parts(prepared, plan, PROFILE,
                          replace(result, parts=result.parts + [hollow]), {})
    assert want.valid and got.valid
    assert [_part_fields(p) for p in got.parts] == [_part_fields(p)
                                                    for p in want.parts]
    alone = meta.clip_parts(prepared, plan, PROFILE,
                            replace(result, parts=[hollow]), {})
    assert (alone.valid, alone.reason, alone.parts) == (
        False, "no parts produced", [])


@pytest.mark.parametrize("mesh, profile", [
    (box_mesh(size=(8.0, 0.5, 0.5), name="rod"), PrinterProfile(volume_x=0.6)),
    (fixtures.l_bracket(), PrinterProfile(volume_x=30.0, volume_y=30.0,
                                          volume_z=30.0))])
def test_clip_parts_clips_what_its_memo_lacks_in_one_call(mesh, profile,
                                                         monkeypatch):
    """Each clipped iteration makes one clip_to_box call with exactly the
    boxes the search's memo lacks, in part order, and none when it lacks
    none; a box shared by iterations is clipped once.  The L bracket is
    cut in two, so its call mixes the boxes of both pieces."""
    plan = RunPlan(printers_available=8, granularity="coarse", sample_tries=2,
                   skip_symmetry_cut=mesh.name == "rod")
    calls, rounds = [], []
    clip_parts, clip_to_box = meta.clip_parts, meta.clip_to_box

    def clipped(meshes, boxes):
        calls[-1].append([(id(m), tuple(b.min), tuple(b.max))
                          for m, b in zip(meshes, boxes)])
        return clip_to_box(meshes, boxes)

    def parts(prepared, plan, profile, result, memo):
        keys = list(dict.fromkeys((p.piece, p.cell_lo, p.cell_hi)
                                  for p in result.parts))
        missing = [k for k in keys if k not in memo]
        rounds.append((len(keys), [
            (id(prepared.pieces[k[0]].mesh),
             tuple(prepared.pieces[k[0]].grid.box_of_range(k[1], k[2]).min),
             tuple(prepared.pieces[k[0]].grid.box_of_range(k[1], k[2]).max))
            for k in missing]))
        calls.append([])
        return clip_parts(prepared, plan, profile, result, memo)

    monkeypatch.setattr(meta, "clip_parts", parts)
    monkeypatch.setattr(meta, "clip_to_box", clipped)
    run_metaheuristic(mesh, plan, profile)
    assert len(rounds) >= 2
    for (_, want), got in zip(rounds, calls):
        assert got == ([want] if want else [])
    boxes = [box for call in calls for batch in call for box in batch]
    assert len(boxes) == len(set(boxes))
    assert len(boxes) < sum(count for count, _ in rounds)
    if mesh.name == "l_bracket":
        assert any(len({key[0] for key in batch}) == 2
                   for call in calls for batch in call)


def test_more_seeds_than_boundary_cells_is_a_logged_failure():
    """A piece with fewer boundary cells than its seed count cannot be
    seeded, and the iteration's record says so; smaller counts still run.
    The halves of the 8 x 0.5 x 0.5 mm rod have 8 boundary cells each at
    coarse, so 20 printers ask one of them for 10 seeds."""
    rod = box_mesh(size=(8.0, 0.5, 0.5), name="rod")
    records = []
    result = run_metaheuristic(rod, RunPlan(printers_available=20,
                                            granularity="coarse"),
                               PROFILE, records)
    assert result.valid
    failed = [r for r in records if not r.valid]
    assert "piece 0: need 10 boundary cells, grid has 8" in {
        r.reason for r in failed}
    assert all(r.parts == 0 and not r.clipped for r in failed)


def test_clipped_part_larger_than_the_printer_is_invalid():
    """Every box of the 0.5 mm thick rod is larger than a 0.45 mm printer,
    so every iteration is clipped, and its clipped parts are still too
    thick: the search fails, each record naming the first such part."""
    rod = box_mesh(size=(8.0, 0.5, 0.5), name="rod")
    records = []
    with pytest.raises(NoValidDecomposition):
        run_metaheuristic(rod, RunPlan(printers_available=16,
                                       granularity="coarse"),
                          PrinterProfile(volume_x=0.45, volume_y=0.45,
                                         volume_z=0.45), records)
    assert records
    assert all(r.clipped and r.reason == "part rod_half0_b0 exceeds the printer"
               for r in records)
