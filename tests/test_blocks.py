"""Scoring pieces of the growth objective, seeding, and the growth loop."""
import numpy as np
import pytest

from parallelobox.blocks import (Block, GrowthState, ObjectiveParams,
                                 _kmeans_pp, apply_growth, fits_printer,
                                 grow_blocks, print_score,
                                 score_growth, select_seed_blocks)
from parallelobox.errors import InsufficientBoundaryCells
from parallelobox.fixtures import box_mesh, icosphere, unit_cube
from parallelobox.grid import CellClass, CellMeasures, Grid, build_grid, measure_cells
from parallelobox.mesh import Aabb, TriangleMesh


def test_print_score_reference_values():
    params = ObjectiveParams(speed_infill=20.0, speed_shell=20.0,
                             infill_fraction=0.05)
    assert print_score(1000.0, 600.0, params) == 13000.0
    assert print_score(0.0, 0.0, params) == 0.0
    # doubling all linear dims: volume x8, area x4
    v, a = 1000.0, 600.0
    s1 = print_score(v, a, params)
    s2 = print_score(8.0 * v, 4.0 * a, params)
    assert s2 == pytest.approx(20.0 * 0.05 * 8000.0 + 20.0 * 2400.0)
    assert s2 > s1


def test_fits_printer_reorients_by_sorting():
    dims = (250.0, 250.0, 250.0)
    assert fits_printer((250.0, 10.0, 10.0), dims)
    assert fits_printer((10.0, 10.0, 250.0 + 1e-10), dims)
    assert not fits_printer((250.1, 10.0, 10.0), dims)
    # a tall thin part fits a flat wide printer after axis swap
    assert fits_printer((10.0, 20.0, 100.0), (100.0, 20.0, 10.0))


def _one_cell_overhang(box: Aabb, mesh) -> float:
    """Minimum oriented overhang area of a single-cell grid over box."""
    grid = Grid(origin=box.min, cell_size=float(box.extent[0]), dims=(1, 1, 1))
    params = ObjectiveParams()
    over = measure_cells(grid, mesh, params.overhang_tolerance_deg).overhang
    return float(over[:, 0, 0, 0].min())


def test_overhang_score_cube_is_one_face():
    cube = unit_cube()
    box = Aabb((-1.0, -1.0, -1.0), (2.0, 2.0, 2.0))
    # all 6 down choices see exactly the one face pointing that way
    assert _one_cell_overhang(box, cube) == pytest.approx(1.0, rel=1e-9)


def test_overhang_score_empty_region():
    far = Aabb((5.0, 5.0, 5.0), (6.0, 6.0, 6.0))
    assert _one_cell_overhang(far, unit_cube()) == 0.0


def test_kmeans_two_far_clusters():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(50, 3)) * 0.1
    b = rng.normal(size=(50, 3)) * 0.1 + np.array([100.0, 0.0, 0.0])
    pts = np.vstack([a, b])
    centers = _kmeans_pp(pts, 2, np.random.default_rng(1), tol=1e-6)
    xs = np.sort(centers[:, 0])
    assert abs(xs[0]) < 1.0 and abs(xs[1] - 100.0) < 1.0


def test_kmeans_k1_is_mean():
    rng = np.random.default_rng(4)
    pts = rng.uniform(-5.0, 5.0, size=(200, 3))
    centers = _kmeans_pp(pts, 1, np.random.default_rng(2), tol=1e-9)
    assert np.allclose(centers[0], pts.mean(axis=0), atol=1e-6)


def test_kmeans_deterministic_per_seed():
    rng = np.random.default_rng(6)
    pts = rng.uniform(0.0, 1.0, size=(120, 3))
    c1 = _kmeans_pp(pts, 3, np.random.default_rng(42), tol=1e-6)
    c2 = _kmeans_pp(pts, 3, np.random.default_rng(42), tol=1e-6)
    assert np.array_equal(c1, c2)


def test_select_seed_blocks_snaps_to_boundary():
    mesh = box_mesh(size=(30.0, 10.0, 10.0))
    grid = build_grid(mesh, "medium")
    measure_cells(grid, mesh)
    for k in (1, 2, 4):
        blocks = select_seed_blocks(grid, mesh, k, rng_seed=3)
        assert len(blocks) == k
        keys = set()
        for b in blocks:
            key = tuple(int(x) for x in b.lo)
            assert np.array_equal(b.lo, b.hi)
            assert grid.classification[key] == CellClass.BOUNDARY
            keys.add(key)
        assert len(keys) == k  # no two seeds share a cell


def test_select_seed_blocks_insufficient():
    mesh = unit_cube()
    grid = build_grid(mesh, "coarse")
    measure_cells(grid, mesh)
    n_boundary = int((grid.classification == CellClass.BOUNDARY).sum())
    with pytest.raises(InsufficientBoundaryCells):
        select_seed_blocks(grid, mesh, n_boundary + 1, rng_seed=0)


def _uniform_state(dims, classes, seeds, cell_size=1.0, params=None):
    """Synthetic grid with unit volume/area per non-external cell."""
    grid = Grid(origin=(0.0, 0.0, 0.0), cell_size=cell_size, dims=dims)
    grid.classification[...] = classes
    solid = np.asarray(classes) != int(CellClass.EXTERNAL)
    measures = CellMeasures(volume=solid.astype(float),
                            area=solid.astype(float),
                            overhang=np.zeros((6,) + tuple(dims)),
                            approximate_volume=False)
    blocks = [Block(i, np.array(s), np.array(s), {tuple(s)})
              for i, s in enumerate(seeds)]
    state = GrowthState(grid, measures, blocks,
                        params or ObjectiveParams(printer_dims=(1e9, 1e9, 1e9)))
    return state


def test_growth_single_block_covers_bar():
    classes = np.full((3, 1, 1), int(CellClass.BOUNDARY), dtype=np.int8)
    state = _uniform_state((3, 1, 1), classes, [(0, 0, 0)])
    trace = []
    grow_blocks(state, trace)
    assert state.unassigned_boundary() == 0
    b = state.blocks[0]
    assert tuple(b.lo) == (0, 0, 0) and tuple(b.hi) == (2, 0, 0)
    assert len(b.owned_cells) == 3
    # two growth steps, both along +x
    assert [t[2] for t in trace] == ["+x", "+x"]


def test_growth_score_matches_hand_computation():
    classes = np.full((3, 1, 1), int(CellClass.BOUNDARY), dtype=np.int8)
    state = _uniform_state((3, 1, 1), classes, [(0, 0, 0)])
    opt = score_growth(state, state.blocks[0], 0)  # +x
    # P = 20*(0.05*2) + 20*2 = 42; single block, prox = floor = 1
    assert opt.score == pytest.approx(42.0)
    # off-grid directions are hard failures
    assert score_growth(state, state.blocks[0], 1).score == -1.0
    assert score_growth(state, state.blocks[0], 2).score == -1.0


def test_growth_hard_constraints():
    # printer limit: 2 cells of 200mm exceed a 250mm printer
    classes = np.full((3, 1, 1), int(CellClass.BOUNDARY), dtype=np.int8)
    params = ObjectiveParams(printer_dims=(250.0, 250.0, 250.0))
    state = _uniform_state((3, 1, 1), classes, [(0, 0, 0)],
                           cell_size=200.0, params=params)
    assert score_growth(state, state.blocks[0], 0).score == -1.0

    # an all-external layer is never claimable
    classes = np.full((2, 1, 1), int(CellClass.BOUNDARY), dtype=np.int8)
    classes[1, 0, 0] = int(CellClass.EXTERNAL)
    state = _uniform_state((2, 1, 1), classes, [(0, 0, 0)])
    assert score_growth(state, state.blocks[0], 0).score == -1.0

    # bumping into an owned cell is forbidden
    classes = np.full((2, 1, 1), int(CellClass.BOUNDARY), dtype=np.int8)
    state = _uniform_state((2, 1, 1), classes, [(0, 0, 0), (1, 0, 0)])
    assert score_growth(state, state.blocks[0], 0).score == -1.0


def test_growth_tie_breaks_lowest_block_then_direction():
    classes = np.full((5, 1, 1), int(CellClass.BOUNDARY), dtype=np.int8)
    state = _uniform_state((5, 1, 1), classes, [(0, 0, 0), (4, 0, 0)])
    trace = []
    grow_blocks(state, trace)
    assert state.unassigned_boundary() == 0
    # both blocks face symmetric scores; block 0 must move first
    assert trace[0][1] == 0
    owned0 = len(state.blocks[0].owned_cells)
    owned1 = len(state.blocks[1].owned_cells)
    assert owned0 + owned1 == 5
    assert owned0 == 3  # block 0 wins the middle cell by the id tie-break


def test_growth_ties_up_to_rounding_go_to_the_first_direction():
    classes = np.full((3, 1, 1), int(CellClass.BOUNDARY), dtype=np.int8)
    state = _uniform_state((3, 1, 1), classes, [(1, 0, 0)])
    # -x scores lower than +x by rounding only; that is still a tie.
    state.measures.volume[0, 0, 0] -= 1e-13
    assert score_growth(state, state.blocks[0], 1).score \
        < score_growth(state, state.blocks[0], 0).score
    trace = []
    grow_blocks(state, trace)
    assert trace[0][2] == "+x"


def test_apply_growth_claims_only_non_external():
    classes = np.full((2, 2, 1), int(CellClass.BOUNDARY), dtype=np.int8)
    classes[1, 1, 0] = int(CellClass.EXTERNAL)
    state = _uniform_state((2, 2, 1), classes, [(0, 0, 0)])
    grow_blocks(state)
    grid = state.grid
    assert grid.owner[1, 1, 0] == -1
    assert grid.owner[0, 0, 0] == 0


def test_growth_caches_match_measures_on_real_mesh():
    mesh = icosphere(radius=6.0, subdivisions=2)
    grid = build_grid(mesh, "coarse")
    meas = measure_cells(grid, mesh)
    blocks = select_seed_blocks(grid, mesh, 2, rng_seed=9)
    params = ObjectiveParams()
    state = GrowthState(grid, meas, blocks, params)
    grow_blocks(state)
    for b in blocks:
        sl = tuple(slice(int(a), int(c) + 1) for a, c in zip(b.lo, b.hi))
        assert state.volume[b.id] == pytest.approx(float(meas.volume[sl].sum()), rel=1e-9)
        assert state.area[b.id] == pytest.approx(float(meas.area[sl].sum()), rel=1e-9)


def test_grown_blocks_stay_disjoint_random():
    rng = np.random.default_rng(77)
    for trial in range(15):
        dims = tuple(int(x) for x in rng.integers(2, 6, size=3))
        classes = rng.choice(
            [int(CellClass.EXTERNAL), int(CellClass.BOUNDARY), int(CellClass.INTERNAL)],
            size=dims, p=[0.3, 0.5, 0.2]).astype(np.int8)
        boundary = np.argwhere(classes == int(CellClass.BOUNDARY))
        if len(boundary) < 2:
            continue
        picks = rng.choice(len(boundary), size=2, replace=False)
        seeds = [tuple(int(x) for x in boundary[p]) for p in picks]
        state = _uniform_state(dims, classes, seeds)
        grow_blocks(state)
        cells0 = state.blocks[0].owned_cells
        cells1 = state.blocks[1].owned_cells
        assert not (cells0 & cells1)
        for b in state.blocks:
            assert np.all(b.lo >= 0)
            assert np.all(b.hi < np.array(dims))
            for cell in b.owned_cells:
                assert np.all(np.array(cell) >= b.lo)
                assert np.all(np.array(cell) <= b.hi)
