"""Void-region carving versus a straight-line reference interpreter.

The program reads ownership from the block boxes; the references read an
owner array the tests paint from those boxes.
"""
import numpy as np

from parallelobox.blocks import (GrowthState, PrinterProfile, cell_limits,
                                 fits_printer, grow_blocks)
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


def paint_owner(classification, boxes):
    """The owner array of boxes that hold disjoint solid cells: box i owns
    the non-external cells of its range, -1 marks a cell no box owns."""
    owner = np.full(classification.shape, -1, dtype=np.int32)
    for i, (lo, hi) in enumerate(boxes):
        sl = tuple(slice(int(a), int(b) + 1) for a, b in zip(lo, hi))
        owner[sl][classification[sl] != int(CellClass.EXTERNAL)] = i
    return owner


def measured_grid(classification):
    """A grid of unit cells with a classification, every measure zero."""
    dims = classification.shape
    return Grid(np.zeros(3), 1.0, dims).set_cells(
        np.zeros(dims), np.zeros(dims), np.zeros((6,) + dims),
        np.zeros((3,) + dims), classification)


def random_boxes(rng, classification, tries=6):
    """Up to ``tries`` random cell boxes that hold disjoint solid cells;
    a box whose solid cells meet an earlier box's is dropped."""
    dims = np.array(classification.shape)
    solid = classification != int(CellClass.EXTERNAL)
    taken = np.zeros(classification.shape, dtype=bool)
    boxes = []
    for _ in range(int(rng.integers(0, tries + 1))):
        lo = rng.integers(0, dims)
        hi = lo + rng.integers(0, np.minimum(dims - lo, 3))
        sl = tuple(slice(int(a), int(b) + 1) for a, b in zip(lo, hi))
        if np.any(taken[sl] & solid[sl]):
            continue
        taken[sl] |= solid[sl]
        boxes.append((lo, hi))
    return boxes


def _random_piece(rng):
    """(classification, cell size, block boxes) of a random grid."""
    dims = tuple(int(x) for x in rng.integers(2, 9, size=3))
    classification = rng.choice(
        [int(CellClass.EXTERNAL), int(CellClass.BOUNDARY), int(CellClass.INTERNAL)],
        size=dims, p=[0.25, 0.5, 0.25]).astype(np.int8)
    return (classification, float(rng.uniform(0.5, 3.0)),
            random_boxes(rng, classification))


def _as_tuples(regions):
    return [(tuple(int(v) for v in lo), tuple(int(v) for v in hi))
            for lo, hi in regions]


def test_matches_reference_on_random_grids():
    rng = np.random.default_rng(1234)
    for trial in range(50):
        classification, cell_size, boxes = _random_piece(rng)
        free = int(rng.integers(0, 4))
        # occasionally constrain the printer enough to matter
        if trial % 3 == 0:
            printer = (cell_size * 2.5,) * 3
        else:
            printer = (250.0, 250.0, 250.0)
        got = get_discrete_empty_regions(measured_grid(classification), boxes,
                                         free, cell_limits(printer, cell_size))
        want = _reference_regions(classification,
                                  paint_owner(classification, boxes),
                                  cell_size, free, printer)
        assert _as_tuples(got) == want, f"trial {trial}"


def test_regions_respect_invariants():
    rng = np.random.default_rng(555)
    for _ in range(25):
        classification, cell_size, boxes = _random_piece(rng)
        owner = paint_owner(classification, boxes)
        free = int(rng.integers(1, 4))
        printer = (cell_size * 3.5,) * 3
        regions = get_discrete_empty_regions(measured_grid(classification),
                                             boxes, free,
                                             cell_limits(printer, cell_size))
        assert len(regions) <= free
        seen = np.zeros(classification.shape, dtype=bool)
        for lo, hi in regions:
            assert np.all(lo >= 0) and np.all(hi < np.array(classification.shape))
            ext = (hi - lo + 1) * cell_size
            assert fits_printer(ext, printer)
            sl = tuple(slice(int(a), int(b) + 1) for a, b in zip(lo, hi))
            # never overlaps owners or earlier regions
            assert not np.any(owner[sl] >= 0)
            assert not np.any(seen[sl])
            seen[sl] = True


def test_void_fill_stops_at_growth_cell_limit():
    """On a bar of boundary cells, a void region and a grown block both stop
    at the whole-cell limit of the printer: k cells fit, k + 1 do not."""
    for cell_size, printer in [(15.0, (30.0, 30.0, 30.0)),
                               (0.1, (0.3, 0.3, 0.3)),
                               (0.1, (0.7, 0.3, 0.5)),
                               (1.0 / 3.0, (2.0 - 5e-10, 1.0, 1.0))]:
        # A 1 x 1 x c box is held to the printer's longest side.
        k = int(cell_limits(printer, cell_size)[-1])
        assert fits_printer((k * cell_size, cell_size, cell_size), printer)
        assert not fits_printer(((k + 1) * cell_size, cell_size, cell_size),
                                printer)
        dims = (k + 3, 1, 1)
        classification = np.full(dims, int(CellClass.BOUNDARY), dtype=np.int8)
        # Unit volume and area per cell give growth positive scores.
        grid = Grid(np.zeros(3), cell_size, dims).set_cells(
            np.ones(dims), np.ones(dims), np.zeros((6,) + dims),
            np.zeros((3,) + dims), classification)
        regions = get_discrete_empty_regions(grid, [], 1,
                                             cell_limits(printer, cell_size))
        assert _as_tuples(regions) == [((0, 0, 0), (k - 1, 0, 0))]
        state = GrowthState([grid], [np.zeros((1, 3), dtype=np.int64)],
                            PrinterProfile(*printer), 0.05)
        grow_blocks(state)
        assert state.hi[0, 0].tolist() == [k - 1, 0, 0]
        assert state.unassigned.tolist() == [3]


def test_zero_free_printers_carves_nothing():
    rng = np.random.default_rng(9)
    classification, cell_size, boxes = _random_piece(rng)
    assert get_discrete_empty_regions(measured_grid(classification), boxes,
                                      0, cell_limits((250.0,) * 3, cell_size)) == []


def _uncovered_of(grid, boxes):
    lo, hi = np.array(boxes, dtype=np.int64).reshape(-1, 2, 3).transpose(1, 0, 2)
    return _uncovered_cells(grid, grid.sums(lo, hi))


def test_coverage_and_leftover_accounting():
    classification = np.full((2, 2, 1), int(CellClass.BOUNDARY), dtype=np.int8)
    grid = measured_grid(classification)
    assert _uncovered_of(grid, []) == (4, 0)
    assert _uncovered_of(grid, [((0, 0, 0), (1, 1, 0))]) == (0, 0)
    blocks = [((0, 0, 0), (1, 0, 0)), ((0, 1, 0), (0, 1, 0))]
    assert _uncovered_of(grid, blocks) == (1, 0)
    regions = get_discrete_empty_regions(grid, blocks, 1,
                                         cell_limits((250.0,) * 3, 1.0))
    assert _as_tuples(regions) == [((1, 1, 0), (1, 1, 0))]
    assert _uncovered_of(grid, blocks + regions) == (0, 0)


def test_coverage_count_matches_painted_count():
    """The table count of cells in no block or region box equals the count
    of cells an owner array painted from the boxes leaves unowned."""
    rng = np.random.default_rng(4321)
    for trial in range(50):
        classification, cell_size, boxes = _random_piece(rng)
        grid = measured_grid(classification)
        regions = get_discrete_empty_regions(
            grid, boxes, int(rng.integers(0, 4)),
            cell_limits((cell_size * 2.5,) * 3, cell_size))
        free = paint_owner(classification, boxes + regions) < 0
        want = (int((free & (classification == int(CellClass.BOUNDARY))).sum()),
                int((free & (classification == int(CellClass.INTERNAL))).sum()))
        assert _uncovered_of(grid, boxes + regions) == want, f"trial {trial}"


def test_assign_mesh_boxes_clips_solid():
    mesh = box_mesh(size=(4.0, 4.0, 4.0))
    grid = build_grid(mesh, "coarse")
    measure_cells(grid, mesh)
    regions = get_discrete_empty_regions(grid, [], 2,
                                         cell_limits((250.0,) * 3, grid.cell_size))
    parts = [clip_to_box(mesh, grid.box_of_range(lo, hi))
             for lo, hi in regions]
    parts = [part for part in parts if not part.is_empty]
    assert parts, "a fully unowned solid grid must produce at least one part"
    for part in parts:
        assert not part.is_empty
