"""Acceptance suite: one test per promised behavior of the whole pipeline.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per check.  These tests exercise the public API end to end and pin the
core guarantees: conservation of volume and surface, selection and scoring
semantics, balanced symmetric splits, comparison against the plane-cut
baseline, monotone use of extra printers, bitwise determinism, and the
geometry kernels against independent reference computations.
"""
import csv
import math
import time
from collections import defaultdict

import numpy as np
import pytest

from parallelobox.blocks import cell_limits, print_score
from parallelobox.cli import run_batch
from parallelobox.clip import clip_to_box
from parallelobox.errors import NoValidDecomposition
from parallelobox.fixtures import (asymmetric_blob, dumbbell, hollow_box,
                                   icosphere, l_bracket, random_solid, unit_cube)
from parallelobox.mesh import Aabb, aabb_of, measure, save_stl, validate_watertight
from parallelobox.meta import (ModelWork, PrinterProfile, RunPlan,
                               estimate_time, prepare_model,
                               recursive_symmetry_baseline, run_metaheuristic)
from parallelobox.resolve import get_discrete_empty_regions
from test_meta import table_cut_area
from test_resolve import paint_owner, random_boxes, table_measures

PROFILE = PrinterProfile()
FIXTURES = (unit_cube, icosphere, dumbbell, l_bracket, hollow_box)
SEED_BASES = (0, 100, 200, 300, 400)


def _best_time(mesh, printers: int, tries: int) -> float:
    """Best-of-seed-bases parallel print time; inf when nothing is valid."""
    best = math.inf
    for base in SEED_BASES:
        plan = RunPlan(printers_available=printers, granularity="fine",
                       sample_tries=tries, seed_base=base)
        try:
            dec = run_metaheuristic(mesh, plan, PROFILE)
        except NoValidDecomposition:
            continue
        best = min(best, dec.parallel_time_s)
    return best


def test_part_conservation_and_fit():
    """Parts re-assemble the model, stay disjoint, and fit the printer."""
    tick = time.perf_counter()
    limit = np.sort(np.array(PROFILE.dims))
    for make in FIXTURES:
        mesh = make()
        total = measure(mesh)
        plan = RunPlan(printers_available=4, granularity="very_fine")
        work = ModelWork(mesh)
        prepared, _ = work.search_inputs(plan, PROFILE)
        dec = run_metaheuristic(mesh, plan, PROFILE, work=work)
        assert dec.valid, mesh.name
        assert sum(p.volume for p in dec.parts) == pytest.approx(
            total.volume, rel=1e-4), mesh.name
        # The cut area is the box caps plus the symmetry cut's caps.
        assert dec.cut_area_mm2 >= 0.0, mesh.name
        assert dec.cut_area_mm2 == pytest.approx(
            table_cut_area(mesh, prepared, dec.parts), rel=1e-6,
            abs=1e-9 * total.surface_area), mesh.name
        ranges = defaultdict(list)
        for p in dec.parts:
            assert np.all(np.sort(aabb_of(p.mesh).extent) <= limit + 1e-9)
            assert p.cell_lo is not None and p.cell_hi is not None
            ranges[p.piece].append((p.cell_lo, p.cell_hi))
        for boxes in ranges.values():
            for i in range(len(boxes)):
                for j in range(i + 1, len(boxes)):
                    (alo, ahi), (blo, bhi) = boxes[i], boxes[j]
                    overlap = all(alo[d] <= bhi[d] and blo[d] <= ahi[d]
                                  for d in range(3))
                    assert not overlap, (mesh.name, boxes[i], boxes[j])
    assert time.perf_counter() - tick < 60.0


#: The random solids of test_random_solids_are_printable: fixtures.random_solid seeds.
RANDOM_SOLIDS = range(24)


def test_random_solids_are_printable():
    """Random polycubes through both algorithms at 2, 4 and 8 printers,
    coarse and fine grids, and printers of 250 mm and of 0.6 x the
    model's longest extent: every valid result has closed parts that fit
    the printer by sorted extents and sum to the model's volume."""
    tick = time.perf_counter()
    checked = 0
    for seed in RANDOM_SOLIDS:
        mesh = random_solid(seed)
        volume = measure(mesh).volume
        for granularity in ("coarse", "fine"):
            for side in (250.0, 0.6 * float(aabb_of(mesh).extent.max())):
                profile = PrinterProfile(volume_x=side, volume_y=side, volume_z=side)
                work = ModelWork(mesh, printer_counts=(2, 4, 8))
                for printers in (2, 4, 8):
                    plan = RunPlan(printers_available=printers,
                                   granularity=granularity, sample_tries=2)
                    for algorithm in (run_metaheuristic, recursive_symmetry_baseline):
                        try:
                            dec = algorithm(mesh, plan, profile, work=work)
                        except NoValidDecomposition:
                            continue
                        if not dec.valid:
                            continue
                        case = (seed, granularity, side, printers, algorithm.__name__)
                        checked += 1
                        for p in dec.parts:
                            assert validate_watertight(p.mesh).is_watertight, case
                            assert np.all(np.sort(aabb_of(p.mesh).extent)
                                          <= np.sort(profile.dims) + 1e-9), case
                        assert sum(p.volume for p in dec.parts) == pytest.approx(
                            volume, rel=1e-6), case
    assert checked >= len(RANDOM_SOLIDS) * 8
    assert time.perf_counter() - tick < 60.0


def test_selection_matches_log_scan():
    """The returned result is the argmin an outside reader gets from the log."""
    plan = RunPlan(printers_available=4, granularity="medium", sample_tries=3)
    records = []
    dec = run_metaheuristic(dumbbell(), plan, PROFILE, records=records)
    valid = [r for r in records if r.valid]
    assert valid
    best = min(valid, key=lambda r: (r.parallel_score, r.parts,
                                     r.aggregate_time_s))
    assert (dec.seed_blocks, dec.seed) == (best.seed_blocks, best.seed)
    assert dec.parallel_score == best.parallel_score
    assert dec.parallel_time_s == best.parallel_time_s
    assert dec.aggregate_time_s == best.aggregate_time_s
    assert dec.printers_used == best.parts
    # and the logged score really is the max over per-part recomputation
    rescored = [print_score(measure(p.mesh).volume,
                            measure(p.mesh).surface_area, PROFILE,
                            plan.infill_fraction)
                for p in dec.parts]
    assert dec.parallel_score == max(rescored)
    assert dec.parallel_time_s == max(p.time_s for p in dec.parts)
    assert dec.aggregate_time_s == sum(p.time_s for p in dec.parts)


def test_worked_scoring_values():
    """The documented example numbers come out exactly."""
    assert print_score(1000.0, 600.0, PROFILE, 0.05) == 13000.0
    assert estimate_time(1000.0, 600.0, PROFILE, infill_fraction=0.05) == 145.0
    # five equal 20-minute parts: 20 min in parallel, 100 min of work
    times = [1200.0] * 5
    assert max(times) == 1200.0
    assert sum(times) == 6000.0
    dec = run_metaheuristic(unit_cube(),
                            RunPlan(printers_available=2, granularity="coarse",
                                    sample_tries=1), PROFILE)
    assert dec.parallel_time_s == max(p.time_s for p in dec.parts)
    assert dec.aggregate_time_s == sum(p.time_s for p in dec.parts)


def test_symmetric_split_balance():
    """Mirrored models split into near-equal halves; skew models stay whole."""
    for make in (unit_cube, dumbbell):
        dec = run_metaheuristic(
            make(), RunPlan(printers_available=2, granularity="very_fine"),
            PROFILE)
        assert dec.symmetry_cut, make().name
        assert len(dec.parts) == 2
        scores = sorted(p.print_score for p in dec.parts)
        assert scores[1] - scores[0] < 0.01 * scores[1], (make().name, scores)
    prep = prepare_model(asymmetric_blob(),
                         RunPlan(printers_available=2, granularity="coarse"))
    assert not prep.cut
    assert len(prep.pieces) == 1


def test_beats_recursive_baseline():
    """Best-of-seeds growth should match or beat the plane-cut baseline."""
    rows = []
    for make in (dumbbell, l_bracket, hollow_box):
        mesh = make()
        tick = time.perf_counter()
        for printers in (2, 4, 8):
            base = recursive_symmetry_baseline(
                mesh, RunPlan(printers_available=printers,
                              granularity="fine"), PROFILE)
            best = _best_time(mesh, printers, tries=15)
            rows.append((mesh.name, printers, best, base.parallel_time_s))
        assert time.perf_counter() - tick < 300.0, mesh.name
    table = "\n".join(
        f"  {name} x{printers}: grown {best:.4f} s vs plane-cut {base:.4f} s"
        f"{'' if best <= base * (1 + 1e-9) else '  <-- slower'}"
        for name, printers, best, base in rows)
    losses = [r for r in rows if not r[2] <= r[3] * (1 + 1e-9)]
    assert not losses, (
        f"growth lost to the plane-cut baseline on {len(losses)} of "
        f"{len(rows)} model/printer cells:\n{table}")


def test_more_printers_never_slower():
    """Raising the printer budget never raises the best parallel time."""
    for make in FIXTURES:
        mesh = make()
        series = [_best_time(mesh, printers, tries=5)
                  for printers in (1, 2, 4, 8)]
        assert series[0] < math.inf, mesh.name
        for slower, faster in zip(series, series[1:]):
            assert faster <= slower * (1 + 1e-9), (mesh.name, series)


def test_deterministic_reruns(tmp_path):
    """Same plan, same seed: identical parts, identical report files."""
    plan = RunPlan(printers_available=2, granularity="coarse", sample_tries=2)
    runs = [run_metaheuristic(dumbbell(), plan, PROFILE) for _ in range(2)]

    def fingerprint(dec):
        return [dec.cut_area_mm2] + [
            (p.piece, p.source, p.cell_lo, p.cell_hi, p.volume,
             p.surface_area, p.print_score, p.time_s) for p in dec.parts]

    assert fingerprint(runs[0]) == fingerprint(runs[1])
    assert (runs[0].seed_blocks, runs[0].seed) == (runs[1].seed_blocks,
                                                   runs[1].seed)

    model = tmp_path / "dumbbell.stl"
    save_stl(dumbbell(), model)
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        report = run_batch([model], [2], plan, PROFILE,
                           ["parallelobox", "symmetry"], out)
        assert report.any_valid
        outs.append(out)

    def stable_rows(out):
        with open(out / "results.csv", newline="", encoding="utf-8") as fh:
            return [row[:7] + row[8:] for row in csv.reader(fh)]

    assert stable_rows(outs[0]) == stable_rows(outs[1])


def _void_boxes_reference(classification, owner, cell_size, budget, printer):
    """Plain-loop reimplementation of the empty-region carver."""
    dims = classification.shape
    carved = np.zeros(dims, dtype=bool)
    limit = np.sort(np.asarray(printer, dtype=float))
    out = []
    for _ in range(max(0, budget)):
        seed = None
        for idx in np.ndindex(*dims):  # lexicographic scan
            if (classification[idx] == 1 and owner[idx] < 0
                    and not carved[idx]):
                seed = idx
                break
        if seed is None:
            break
        lo, hi = list(seed), list(seed)
        moved = True
        while moved:
            moved = False
            for axis, sign in ((0, 1), (0, -1), (1, 1), (1, -1),
                               (2, 1), (2, -1)):
                pos = hi[axis] + 1 if sign > 0 else lo[axis] - 1
                if pos < 0 or pos >= dims[axis]:
                    continue
                ext = np.array([hi[0] - lo[0], hi[1] - lo[1],
                                hi[2] - lo[2]], dtype=float) + 1.0
                ext[axis] += 1.0
                if np.any(np.sort(ext * cell_size) > limit + 1e-9):
                    continue
                layer = [slice(lo[0], hi[0] + 1), slice(lo[1], hi[1] + 1),
                         slice(lo[2], hi[2] + 1)]
                layer[axis] = slice(pos, pos + 1)
                layer = tuple(layer)
                if np.any(owner[layer] >= 0) or np.any(carved[layer]):
                    continue
                if sign > 0:
                    hi[axis] = pos
                else:
                    lo[axis] = pos
                moved = True
        carved[lo[0]:hi[0] + 1, lo[1]:hi[1] + 1, lo[2]:hi[2] + 1] = True
        out.append((tuple(lo), tuple(hi)))
    return out


def test_void_region_reference():
    """Empty-region carving agrees with a plain-loop reference on 50 grids."""
    rng = np.random.default_rng(2024)
    for trial in range(50):
        dims = tuple(int(d) for d in rng.integers(2, 9, size=3))
        cell = float(rng.uniform(0.5, 3.0))
        classes = rng.choice([0, 1, 2], size=dims,
                             p=[0.25, 0.5, 0.25]).astype(np.int8)
        # Block boxes holding disjoint solid cells, as growth leaves them.
        boxes = random_boxes(rng, classes)
        printer = ((2.5 * cell,) * 3 if trial % 4 == 0
                   else (250.0, 250.0, 250.0))
        budget = int(rng.integers(0, 7))
        got = [(tuple(int(v) for v in lo), tuple(int(v) for v in hi))
               for lo, hi in get_discrete_empty_regions(
                   table_measures(classes), boxes, budget,
                   cell_limits(printer, cell))]
        want = _void_boxes_reference(classes, paint_owner(classes, boxes),
                                     cell, budget, printer)
        assert got == want, f"trial {trial}: {got} != {want}"


def test_clip_volume_brute_force():
    """Box clipping matches closed-form overlap volumes on 200 random boxes."""
    cube = unit_cube()
    rng = np.random.default_rng(424242)
    for _ in range(200):
        corners = rng.uniform(-0.5, 1.5, size=(2, 3))
        lo = np.minimum(*corners)
        hi = np.maximum(*corners) + 1e-3  # keep the box non-degenerate
        expected = float(np.prod(np.maximum(
            np.minimum(hi, 1.0) - np.maximum(lo, 0.0), 0.0)))
        part = clip_to_box(cube, Aabb(lo, hi))
        got = 0.0 if part.is_empty else measure(part).volume
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-12), (lo, hi)
