"""Void-region carving versus a straight-line reference interpreter."""
import numpy as np
import pytest

from parallelobox.blocks import fits_printer
from parallelobox.clip import clip_to_box
from parallelobox.fixtures import box_mesh
from parallelobox.grid import CellClass, Grid, build_grid, measure_cells
from parallelobox.meta import _uncovered_cells
from parallelobox.resolve import get_discrete_empty_regions


def _reference_regions(classification, owner, cell_size, num_free, printer_dims):
    """Independent restatement: seed at the first unassigned boundary cell,
    sweep all six faces, each viable face advances one layer per sweep."""
    dims = classification.shape
    carved = np.zeros(dims, dtype=bool)
    out = []
    for _ in range(num_free):
        seed = None
        for x in range(dims[0]):
            for y in range(dims[1]):
                for z in range(dims[2]):
                    if (classification[x, y, z] == int(CellClass.BOUNDARY)
                            and owner[x, y, z] < 0 and not carved[x, y, z]):
                        seed = (x, y, z)
                        break
                if seed:
                    break
            if seed:
                break
        if seed is None:
            break
        lo = list(seed)
        hi = list(seed)
        moved = True
        while moved:
            moved = False
            for axis, sign in ((0, 1), (0, -1), (1, 1), (1, -1), (2, 1), (2, -1)):
                if sign > 0:
                    new = hi[axis] + 1
                    if new >= dims[axis]:
                        continue
                else:
                    new = lo[axis] - 1
                    if new < 0:
                        continue
                trial_lo = lo.copy()
                trial_hi = hi.copy()
                if sign > 0:
                    trial_hi[axis] = new
                else:
                    trial_lo[axis] = new
                ext = [(trial_hi[a] - trial_lo[a] + 1) * cell_size for a in range(3)]
                if not fits_printer(ext, printer_dims):
                    continue
                ok = True
                layer = [range(lo[a], hi[a] + 1) for a in range(3)]
                layer[axis] = range(new, new + 1)
                for cx in layer[0]:
                    for cy in layer[1]:
                        for cz in layer[2]:
                            if owner[cx, cy, cz] >= 0 or carved[cx, cy, cz]:
                                ok = False
                if not ok:
                    continue
                lo, hi = trial_lo, trial_hi
                moved = True
        for cx in range(lo[0], hi[0] + 1):
            for cy in range(lo[1], hi[1] + 1):
                for cz in range(lo[2], hi[2] + 1):
                    carved[cx, cy, cz] = True
        out.append((tuple(lo), tuple(hi)))
    return out


def _random_grid(rng):
    dims = tuple(int(x) for x in rng.integers(2, 9, size=3))
    grid = Grid(origin=(0.0, 0.0, 0.0), cell_size=float(rng.uniform(0.5, 3.0)),
                dims=dims)
    grid.classification[...] = rng.choice(
        [int(CellClass.EXTERNAL), int(CellClass.BOUNDARY), int(CellClass.INTERNAL)],
        size=dims, p=[0.25, 0.5, 0.25]).astype(np.int8)
    owned = rng.random(size=dims) < 0.25
    grid.owner[owned] = 0
    return grid


def test_matches_reference_on_random_grids():
    rng = np.random.default_rng(1234)
    for trial in range(50):
        grid = _random_grid(rng)
        free = int(rng.integers(0, 4))
        # occasionally constrain the printer enough to matter
        if trial % 3 == 0:
            printer = (grid.cell_size * 2.5,) * 3
        else:
            printer = (250.0, 250.0, 250.0)
        got = get_discrete_empty_regions(grid, free, printer)
        want = _reference_regions(grid.classification, grid.owner,
                                  grid.cell_size, free, printer)
        got_t = [(tuple(int(v) for v in lo), tuple(int(v) for v in hi))
                 for lo, hi in got]
        assert got_t == want, f"trial {trial}"


def test_regions_respect_invariants():
    rng = np.random.default_rng(555)
    for _ in range(25):
        grid = _random_grid(rng)
        free = int(rng.integers(1, 4))
        printer = (grid.cell_size * 3.5,) * 3
        regions = get_discrete_empty_regions(grid, free, printer)
        assert len(regions) <= free
        seen = np.zeros(grid.dims, dtype=bool)
        for lo, hi in regions:
            assert np.all(lo >= 0) and np.all(hi < np.array(grid.dims))
            ext = (hi - lo + 1) * grid.cell_size
            assert fits_printer(ext, printer)
            sl = tuple(slice(int(a), int(b) + 1) for a, b in zip(lo, hi))
            # never overlaps owners or earlier regions
            assert not np.any(grid.owner[sl] >= 0)
            assert not np.any(seen[sl])
            seen[sl] = True


def test_zero_free_printers_carves_nothing():
    rng = np.random.default_rng(9)
    grid = _random_grid(rng)
    assert get_discrete_empty_regions(grid, 0, (250.0,) * 3) == []


def test_coverage_and_leftover_accounting():
    grid = Grid(origin=(0.0, 0.0, 0.0), cell_size=1.0, dims=(2, 2, 1))
    grid.classification[...] = int(CellClass.BOUNDARY)
    assert _uncovered_cells(grid, [])[0] > 0
    grid.owner[...] = 0
    assert _uncovered_cells(grid, []) == (0, 0)
    grid.owner[1, 1, 0] = -1
    assert _uncovered_cells(grid, [])[0] > 0
    regions = get_discrete_empty_regions(grid, 1, (250.0,) * 3)
    assert _uncovered_cells(grid, regions)[0] == 0


def test_assign_mesh_boxes_clips_solid():
    mesh = box_mesh(size=(4.0, 4.0, 4.0))
    grid = build_grid(mesh, "coarse")
    measure_cells(grid, mesh)
    regions = get_discrete_empty_regions(grid, 2, (250.0,) * 3)
    parts = [clip_to_box(mesh, grid.box_of_range(lo, hi))
             for lo, hi in regions]
    parts = [part for part in parts if not part.is_empty]
    assert parts, "a fully unowned solid grid must produce at least one part"
    for part in parts:
        assert not part.is_empty
