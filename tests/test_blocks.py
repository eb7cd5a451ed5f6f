"""Scoring pieces of the growth objective, seeding, and the growth loop."""
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from parallelobox import blocks as blocks_module
from parallelobox.blocks import (OVERHANG_WEIGHT, PROXIMITY_FLOOR, SCORE_RTOL,
                                 GrowthState, PrinterProfile, cell_limits,
                                 _kmeans_pp, _Pcg64Stream, _pick, fits_printer, grow_blocks,
                                 print_score, score_growth, select_seed_blocks)
from parallelobox.errors import InsufficientBoundaryCells
from parallelobox.fixtures import (asymmetric_blob, box_mesh, dumbbell,
                                   hollow_box, icosphere, l_bracket, unit_cube,
                                   wedge)
from parallelobox.grid import (AREA, BOUNDARY, OVERHANG, VOLUME, CellClass,
                               Grid, build_grid, measure_cells)
from parallelobox.mesh import Aabb, TriangleMesh
from parallelobox.meta import RunPlan, prepare_model, run_metaheuristic
from test_preprocess import _env
from test_resolve import paint_owner


def _cube(side):
    """A printer whose build volume is a cube of the given side."""
    return PrinterProfile(volume_x=side, volume_y=side, volume_z=side)


def test_print_score_reference_values():
    profile = PrinterProfile(speed_infill=20.0, speed_shell=20.0)
    assert print_score(1000.0, 600.0, profile, 0.05) == 13000.0
    assert print_score(0.0, 0.0, profile, 0.05) == 0.0
    # doubling all linear dims: volume x8, area x4
    v, a = 1000.0, 600.0
    s1 = print_score(v, a, profile, 0.05)
    s2 = print_score(8.0 * v, 4.0 * a, profile, 0.05)
    assert s2 == pytest.approx(20.0 * 0.05 * 8000.0 + 20.0 * 2400.0)
    assert s2 > s1


def test_fits_printer_reorients_by_sorting():
    dims = (250.0, 250.0, 250.0)
    assert fits_printer((250.0, 10.0, 10.0), dims)
    assert fits_printer((10.0, 10.0, 250.0 + 1e-10), dims)
    assert not fits_printer((250.1, 10.0, 10.0), dims)
    # a tall thin part fits a flat wide printer after axis swap
    assert fits_printer((10.0, 20.0, 100.0), (100.0, 20.0, 10.0))


def test_cell_limits_match_fits_printer():
    """Each sorted side's limit is the largest cell count fits_printer
    accepts on it, and one cell more is rejected; a box of whole cells fits
    by its sorted counts exactly when fits_printer takes its extents."""
    # 15 mm cells against 30 mm sides: 2 fit, 3 do not.
    assert cell_limits((30.0, 30.0, 30.0), 15.0).tolist() == [2, 2, 2]
    assert fits_printer((30.0,), (30.0,)) and not fits_printer((45.0,), (30.0,))
    rng = np.random.default_rng(28)
    cases = [((30.0, 30.0, 30.0), 15.0), ((0.3, 0.7, 0.5), 0.1),
             ((250.0, 200.0, 30.0), 1.0 / 3.0)]
    for _ in range(300):
        size = float(rng.uniform(0.01, 40.0))
        printer = rng.uniform(0.5, 300.0, size=3)
        # Sides within 1e-9 of a whole-cell multiple, either way.
        near = rng.random(3) < 0.5
        printer[near] = (np.maximum(np.round(printer[near] / size), 1) * size
                         + rng.choice([-2e-9, -1e-9, -5e-10, 0.0, 5e-10, 1e-9, 2e-9],
                                      size=int(near.sum())))
        # A side whose slack ends one ulp short of m cells, which the
        # rounded quotient can still reach.
        m = int(rng.integers(1, 40))
        short = np.nextafter(m * size, 0)
        side = short - 1e-9
        while side + 1e-9 > short:
            side = np.nextafter(side, 0)
        while np.nextafter(side, np.inf) + 1e-9 <= short:
            side = np.nextafter(side, np.inf)
        printer[0] = side
        cases.append((tuple(printer.tolist()), size))
    for printer, size in cases:
        limits = cell_limits(printer, size)
        for side, limit in zip(np.sort(printer).tolist(), limits.tolist()):
            assert limit >= 0
            assert limit == 0 or fits_printer((limit * size,), (side,))
            assert not fits_printer(((limit + 1) * size,), (side,))
        counts = rng.integers(1, np.maximum(limits, 1) + 2, size=(20, 3))
        assert np.array_equal((np.sort(counts, axis=1) <= limits).all(axis=1),
                              fits_printer(counts * size, printer))
    sizes = [size for _, size in cases[:3]]
    assert np.array_equal(cell_limits((250.0, 200.0, 30.0), sizes),
                          [cell_limits((250.0, 200.0, 30.0), s) for s in sizes])


def test_cell_limits_hold_a_huge_side_to_any_box():
    """A printer side of 2**63 cells or more does not wrap its limit
    negative in the integer cast: it is held to 2**62 cells, more than any
    grid has, so a search with it takes the boxes one with a side of 1e6 mm
    takes."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        limits = cell_limits((1e300, 250.0, 250.0), 2.5)
    assert limits.tolist() == [100, 100, 2 ** 62]
    plan = RunPlan(printers_available=4, granularity="coarse", sample_tries=1)
    huge, large = (run_metaheuristic(asymmetric_blob(), plan,
                                     PrinterProfile(volume_x=side))
                   for side in (1e300, 1e6))
    assert huge.valid and len(huge.parts) == 3
    assert ([(p.piece, p.cell_lo, p.cell_hi) for p in huge.parts]
            == [(p.piece, p.cell_lo, p.cell_hi) for p in large.parts])
    assert huge.parallel_time_s == large.parallel_time_s
    assert huge.parallel_time_s == pytest.approx(368.28, abs=0.005)


def _one_cell_overhang(box: Aabb, mesh) -> float:
    """Minimum oriented overhang area of a single-cell grid over box."""
    grid = Grid(origin=box.min, cell_size=float(box.extent[0]), dims=(1, 1, 1))
    over = measure_cells(grid, mesh, RunPlan().overhang_tolerance_deg).overhang
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


def _reference_kmeans_pp(points, k, rng, tol, max_iter=100):
    """_kmeans_pp with its Lloyd update as a loop over the clusters, kept as
    the bit-exact reference."""
    n = len(points)
    centers = np.empty((k, 3))
    centers[0] = points[rng.integers(n)]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[i] = points[rng.integers(n)]
        else:
            centers[i] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((points - centers[i]) ** 2).sum(axis=1))
    for _ in range(max_iter):
        dists = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = dists.argmin(axis=1)
        moved = 0.0
        for c in range(k):
            members = points[assign == c]
            if len(members):    # a starved cluster keeps its center
                new = members.mean(axis=0)
                moved = max(moved, float(np.linalg.norm(new - centers[c])))
                centers[c] = new
        if moved < tol:
            break
    return centers


@pytest.mark.parametrize("fixture", [unit_cube, icosphere, dumbbell, l_bracket,
                                     hollow_box, asymmetric_blob, wedge])
def test_kmeans_matches_cluster_loop(fixture):
    """The bincount Lloyd update gives the loop's centers bit for bit, for
    k 1-8 at 40 seeds each.  A cluster starves only when there are more
    centers than distinct points, as on the 6-vertex wedge at k 7 and 8;
    the 8-vertex cube also takes k 9 and 10.  A starved cluster keeps its
    center, so those centers repeat."""
    points = fixture().vertices
    tol = 1e-4 * float(np.ptp(points, axis=0).max()) / 12
    top = 10 if fixture is unit_cube else 8
    starved = 0
    for k in range(1, top + 1):
        for seed in range(40):
            got = _kmeans_pp(points, k, np.random.default_rng(seed), tol)
            want = _reference_kmeans_pp(points, k, np.random.default_rng(seed), tol)
            assert np.array_equal(got, want), (k, seed)
            starved += k - len(np.unique(got, axis=0))
    assert (starved > 0) == (len(np.unique(points, axis=0)) < top)


@pytest.mark.parametrize("fixture", [dumbbell, l_bracket, asymmetric_blob])
def test_kmeans_stops_like_the_cluster_loop_at_a_tolerance_tie(fixture):
    """With tol equal, or one ulp off, to a Lloyd step's largest move as the
    cluster loop's per-center norms give it, the loop's stopping decision
    and so its centers are kept."""
    points = fixture().vertices
    for k in (2, 5):
        for seed in range(5):
            first = _reference_kmeans_pp(points, k, np.random.default_rng(seed),
                                         np.inf, max_iter=1)
            start = _reference_kmeans_pp(points, k, np.random.default_rng(seed),
                                         np.inf, max_iter=0)
            move = max(float(np.linalg.norm(d)) for d in first - start)
            for tol in (move, np.nextafter(move, 0.0), np.nextafter(move, np.inf)):
                got = _kmeans_pp(points, k, np.random.default_rng(seed), tol)
                want = _reference_kmeans_pp(points, k, np.random.default_rng(seed),
                                            tol)
                assert np.array_equal(got, want), (k, seed, tol)


def test_pcg64_stream_matches_default_rng():
    """Integer draws, among them bounds where about half the 32-bit draws
    are rejected, and weighted choices in between follow numpy's
    default_rng; integers(1) consumes nothing.  Seeds of 2**128 and more
    have words past the pool's four, which are mixed in afterwards."""
    bounds = [2, 5, 168, 432, 2**31 + 1, 3 * 2**30]
    for seed in [*range(300), 2**32 + 5, 2**64 + 7, 2**128, 2**128 + 5,
                 2**129 - 3, 2**200 + 12345, 2**300 + 7]:
        got, want = _Pcg64Stream(seed), np.random.default_rng(seed)
        for i, n in enumerate(bounds * 3):
            assert got.integers(n) == want.integers(n), (seed, n)
            assert got.integers(1) == 0
            p = np.arange(1.0, 3.0 + 7 * i) ** 2
            p /= p.sum()
            assert got.choice(len(p), p=p) == want.choice(len(p), p=p), (seed, i)
    with pytest.raises(ValueError):
        _Pcg64Stream(-1)


@pytest.mark.parametrize("fixture", [unit_cube, icosphere, dumbbell, l_bracket,
                                     hollow_box, asymmetric_blob])
def test_select_seed_blocks_match_default_rng(fixture, monkeypatch):
    """The seed blocks are those that numpy's default_rng draws."""
    mesh = fixture()
    for granularity in ("coarse", "fine"):
        grid = build_grid(mesh, granularity)
        measure_cells(grid, mesh)
        cells = int((grid.classification == CellClass.BOUNDARY).sum())
        picks = [(seed, 1 + seed % min(8, cells)) for seed in range(50)]
        got = [select_seed_blocks(grid, mesh, k, rng_seed=seed) for seed, k in picks]
        with monkeypatch.context() as patch:
            patch.setattr(blocks_module, "_Pcg64Stream", np.random.default_rng)
            want = [select_seed_blocks(grid, mesh, k, rng_seed=seed)
                    for seed, k in picks]
        for g, w in zip(got, want):
            assert g.tolist() == w.tolist()


def test_search_does_not_import_numpy_random():
    """A run seeds its blocks without loading numpy.random, and the
    library loads none of the command line's modules."""
    code = ("import sys\n"
            "import parallelobox\n"
            "from parallelobox.fixtures import dumbbell\n"
            "from parallelobox.meta import PrinterProfile, RunPlan, run_metaheuristic\n"
            "dec = run_metaheuristic(dumbbell(), RunPlan(printers_available=4,\n"
            "    granularity='coarse'), PrinterProfile())\n"
            "print(len(dec.parts), 'numpy.random' in sys.modules)\n"
            "print(*sorted({'parallelobox.cli', 'argparse', 'configparser',\n"
            "               'csv', 'json'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=_env()).stdout
    first, cli_modules = out.split("\n")[:2]
    parts, loaded = first.split()
    assert int(parts) > 0
    assert loaded == "False"
    assert cli_modules == ""


def test_select_seed_blocks_snaps_to_boundary():
    """Seeds take distinct boundary cells, also when k-means++ repeats its
    centers because there are more seeds than the box's 8 vertices."""
    mesh = box_mesh(size=(30.0, 10.0, 10.0))
    grid = build_grid(mesh, "medium")
    measure_cells(grid, mesh)
    for k in (1, 2, 4, 9, 10, 12):
        seeds = select_seed_blocks(grid, mesh, k, rng_seed=3)
        assert seeds.shape == (k, 3)
        keys = set()
        for cell in seeds:
            key = tuple(int(x) for x in cell)
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


def _uniform_state(dims, classes, seeds, cell_size=1.0, profile=None,
                   volume=None):
    """Synthetic grid with unit volume/area per non-external cell, holding
    one growth problem."""
    classification = np.broadcast_to(np.asarray(classes, dtype=np.int8),
                                     dims).copy()
    solid = classification != int(CellClass.EXTERNAL)
    grid = Grid(np.zeros(3), cell_size, dims).set_cells(
        volume=solid.astype(float) if volume is None else volume,
        area=solid.astype(float),
        overhang=np.zeros((6,) + tuple(dims)),
        section=np.zeros((3,) + tuple(dims)),
        classification=classification)
    state = GrowthState([grid], [np.array(seeds)], profile or _cube(1e9), 0.05)
    return state


def _boxes(state, p=0):
    """The (lo, hi) cell ranges of problem p's blocks, in slot order."""
    real = state.real[p]
    return list(zip(state.lo[p, real], state.hi[p, real]))


def _owner(state, p=0):
    """Problem p's owner array, painted from its block boxes (a block is
    named by its slot)."""
    return paint_owner(state.grids[p].classification, _boxes(state, p))


def test_growth_single_block_covers_bar():
    classes = np.full((3, 1, 1), int(CellClass.BOUNDARY), dtype=np.int8)
    state = _uniform_state((3, 1, 1), classes, [(0, 0, 0)])
    trace = []
    grow_blocks(state, trace)
    assert state.unassigned.tolist() == [0]
    lo, hi = _boxes(state)[0]
    assert tuple(lo) == (0, 0, 0) and tuple(hi) == (2, 0, 0)
    assert int((_owner(state) == 0).sum()) == 3
    # two growth steps, both along +x
    assert [t[3] for t in trace] == ["+x", "+x"]
    assert state.moves.tolist() == [2]


def test_growth_score_matches_hand_computation():
    classes = np.full((3, 1, 1), int(CellClass.BOUNDARY), dtype=np.int8)
    state = _uniform_state((3, 1, 1), classes, [(0, 0, 0)])
    scores = score_growth(state)[0]
    # +x: P = 20*(0.05*2) + 20*2 = 42; single block, prox = floor = 1
    assert scores[0, 0] == pytest.approx(42.0)
    # off-grid directions are hard failures
    assert scores[0, 1] == -1.0
    assert scores[0, 2] == -1.0


def test_growth_hard_constraints():
    # printer limit: 2 cells of 200mm exceed a 250mm printer
    classes = np.full((3, 1, 1), int(CellClass.BOUNDARY), dtype=np.int8)
    state = _uniform_state((3, 1, 1), classes, [(0, 0, 0)],
                           cell_size=200.0, profile=_cube(250.0))
    assert score_growth(state)[0, 0, 0] == -1.0

    # an all-external layer is never claimable
    classes = np.full((2, 1, 1), int(CellClass.BOUNDARY), dtype=np.int8)
    classes[1, 0, 0] = int(CellClass.EXTERNAL)
    state = _uniform_state((2, 1, 1), classes, [(0, 0, 0)])
    assert score_growth(state)[0, 0, 0] == -1.0

    # bumping into an owned cell is forbidden
    classes = np.full((2, 1, 1), int(CellClass.BOUNDARY), dtype=np.int8)
    state = _uniform_state((2, 1, 1), classes, [(0, 0, 0), (1, 0, 0)])
    assert score_growth(state)[0, 0, 0] == -1.0


def test_growth_tie_breaks_lowest_block_then_direction():
    classes = np.full((5, 1, 1), int(CellClass.BOUNDARY), dtype=np.int8)
    state = _uniform_state((5, 1, 1), classes, [(0, 0, 0), (4, 0, 0)])
    trace = []
    grow_blocks(state, trace)
    assert state.unassigned.tolist() == [0]
    # both blocks face symmetric scores; block 0 must move first
    assert trace[0][2] == 0
    owner = _owner(state)
    owned0 = int((owner == 0).sum())
    owned1 = int((owner == 1).sum())
    assert owned0 + owned1 == 5
    assert owned0 == 3  # block 0 wins the middle cell by the id tie-break


def test_growth_ties_up_to_rounding_go_to_the_first_direction():
    classes = np.full((3, 1, 1), int(CellClass.BOUNDARY), dtype=np.int8)
    # -x scores lower than +x by rounding only; that is still a tie.  The
    # measures are rounded as they are set and the offset survives it.
    volume = np.ones((3, 1, 1))
    volume[0, 0, 0] -= 1e-13
    state = _uniform_state((3, 1, 1), classes, [(1, 0, 0)], volume=volume)
    assert state.grids[0].volume[0, 0, 0] < 1.0
    scores = score_growth(state)[0]
    assert scores[0, 1] < scores[0, 0]
    trace = []
    grow_blocks(state, trace)
    assert trace[0][3] == "+x"


def _serial_pick(row):
    """The scan of one row of option scores in option order, kept as the
    reference: a later option replaces the incumbent only when lower by
    more than SCORE_RTOL relative."""
    best, best_score = -1, 0.0
    for option, score in enumerate(row):
        if score > 0 and (best < 0 or score < best_score * (1.0 - SCORE_RTOL)):
            best, best_score = option, score
    return best, best_score


def test_pick_is_the_serial_scan(monkeypatch):
    """Rows with exact ties, a chain of near ties, no allowed option and a
    single positive option each get the serial scan's option; only rows
    where a second positive score is within SCORE_RTOL of the lowest are
    scanned."""
    near = 1.0 + 0.6 * SCORE_RTOL
    rows = {
        "exact ties": [5.0, -1.0, 3.0, 4.0, 3.0, 3.0],
        # a > b > c, each within SCORE_RTOL of the next, a and c not.
        "chain": [3.0 * near * near, 3.0 * near, 3.0, 7.0, -1.0, 9.0],
        "chain, lowest first": [3.0, 3.0 * near * near, 3.0 * near, 7.0,
                                -1.0, 9.0],
        "rounding tie": [2.0 * (1.0 + 1e-12), 2.0, 8.0, 8.0, -1.0, 6.0],
        "forbidden": [-1.0] * 6,
        "one positive": [-1.0, -1.0, -1.0, 0.25, -1.0, -1.0],
        "distinct": [4.0, 1.0, 2.0, 1.5, -1.0, 3.0],
    }
    scanned = []
    scan = blocks_module._scan

    def recording_scan(row_scores):
        scanned.append(list(row_scores))
        return scan(row_scores)

    monkeypatch.setattr(blocks_module, "_scan", recording_scan)
    scores = np.array(list(rows.values()))
    best, best_score = _pick(scores)
    for (name, row), option, score in zip(rows.items(), best.tolist(),
                                          best_score.tolist()):
        want, want_score = _serial_pick(row)
        if want < 0:
            assert score == np.inf, name
        else:
            assert (option, score) == (want, want_score), name
    assert rows["chain"][0] > rows["chain"][1] > rows["chain"][2]
    assert not rows["chain"][2] >= rows["chain"][0] * (1.0 - SCORE_RTOL)
    assert [rows[n] for n in ("exact ties", "chain", "chain, lowest first",
                              "rounding tie")] == scanned


@pytest.mark.parametrize("printer", [30.0, 250.0])
@pytest.mark.parametrize("granularity", ["coarse", "fine"])
@pytest.mark.parametrize("fixture", [icosphere, hollow_box, l_bracket,
                                     dumbbell, asymmetric_blob])
def test_growth_caches_match_a_fresh_state(fixture, granularity, printer,
                                           monkeypatch):
    """After every lockstep pass, the kept option scores and box sums equal,
    bit for bit, those of a state built anew from the current boxes.  The
    problems hold 1 to 8 blocks on both pieces of the model cut at its
    mirror plane, in one state (the blob has no mirror plane and is grown
    whole)."""
    prepared = prepare_model(fixture(), RunPlan(printers_available=2,
                                                granularity=granularity))
    assert prepared.cut == (fixture is not asymmetric_blob)
    profile = _cube(printer)
    grids, problems = [], []
    for seed, k in enumerate((1, 8, 3, 5, 2)):
        for index, piece in enumerate(prepared.pieces):
            problems.append(select_seed_blocks(piece.grid, piece.mesh, k,
                                               rng_seed=seed * 2 + index))
            grids.append(piece.grid)
    state = GrowthState(grids, problems, profile, 0.05)
    boundary = np.array([int((g.classification == CellClass.BOUNDARY).sum())
                         for g in grids])
    passes = []

    def checked_score_growth(checked, rows=None):
        # A state built from the seeds, given the current boxes and
        # scored anew from them, as its constructor scores the seeds.
        fresh = GrowthState(grids,
                            [lo[real] for lo, real in zip(checked.lo,
                                                          checked.real)],
                            profile, 0.05)
        fresh.hi[:] = checked.hi
        fresh.sums = np.where(fresh.real[..., None], fresh.range_sums(
            np.arange(len(problems))[:, None], fresh.lo, fresh.hi), 0.0)
        fresh.rescore(*np.nonzero(fresh.real), moved=False)
        assert np.array_equal(score_growth(checked), score_growth(fresh))
        assert np.array_equal(checked.sums, fresh.sums)
        # The running count of unowned boundary cells.
        assert checked.unassigned.dtype == np.int64
        assert np.array_equal(checked.unassigned, boundary
                              - checked.sums[..., BOUNDARY].sum(axis=1))
        passes.append(len(passes))
        return score_growth(checked, rows)

    monkeypatch.setattr(blocks_module, "score_growth", checked_score_growth)
    grow_blocks(state)
    checked_score_growth(state)
    assert len(passes) > 10


def test_apply_growth_claims_only_non_external():
    classes = np.full((2, 2, 1), int(CellClass.BOUNDARY), dtype=np.int8)
    classes[1, 1, 0] = int(CellClass.EXTERNAL)
    state = _uniform_state((2, 2, 1), classes, [(0, 0, 0)])
    grow_blocks(state)
    owner = _owner(state)
    assert owner[1, 1, 0] == -1
    assert owner[0, 0, 0] == 0


def test_growth_caches_match_measures_on_real_mesh():
    mesh = icosphere(radius=6.0, subdivisions=2)
    grid = build_grid(mesh, "coarse")
    meas = measure_cells(grid, mesh)
    seeds = select_seed_blocks(grid, mesh, 2, rng_seed=9)
    state = GrowthState([grid], [seeds], PrinterProfile(), 0.05)
    grow_blocks(state)
    for i, (lo, hi) in enumerate(_boxes(state)):
        sl = tuple(slice(int(a), int(c) + 1) for a, c in zip(lo, hi))
        assert state.sums[0, i, VOLUME] == float(meas.volume[sl].sum())
        assert state.sums[0, i, AREA] == float(meas.area[sl].sum())


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
        # Every solid cell of a block's box is its own, so the solid
        # parts of two boxes never overlap.
        solid = classes != int(CellClass.EXTERNAL)
        claims = np.zeros(dims, dtype=np.int64)
        for lo, hi in _boxes(state):
            assert np.all(lo >= 0)
            assert np.all(hi < np.array(dims))
            sl = tuple(slice(int(a), int(c) + 1) for a, c in zip(lo, hi))
            claims[sl] += solid[sl]
        assert claims.max() <= 1


def _reference_grow(grid, seeds, profile, infill_fraction=0.05):
    """The per-option growth loop, kept as the bit-exact reference.

    Scores one (block, direction) option at a time with its own slice sums,
    keeps each block's owned cells in a set and rescans the grid for
    unassigned boundary cells every step.  ``seeds`` are unit blocks.
    Returns the trace, the owner array, the boxes and the cached sums.
    """
    owner = np.full(grid.dims, -1, dtype=np.int32)
    cls = grid.classification
    dims = np.array(grid.dims)
    boxes = [[np.array(lo), np.array(hi)] for lo, hi in seeds]
    volume, area, overhang = [], [], []
    for bid, (lo, _) in enumerate(boxes):
        cell = tuple(int(x) for x in lo)
        owner[cell] = bid
        ov = np.zeros(6)
        ov += grid.overhang[(slice(None),) + cell]
        volume.append(0.0 + grid.volume[cell])
        area.append(0.0 + grid.area[cell])
        overhang.append(ov)

    def layer(bid, d):
        lo, hi = boxes[bid][0].copy(), boxes[bid][1].copy()
        axis = d // 2
        edge = hi[axis] + 1 if d % 2 == 0 else lo[axis] - 1
        lo[axis] = hi[axis] = edge
        return lo, hi

    def score(bid, d):
        lo, hi = layer(bid, d)
        if np.any(lo < 0) or np.any(hi >= dims):
            return -1.0
        new_lo = np.minimum(boxes[bid][0], lo)
        new_hi = np.maximum(boxes[bid][1], hi)
        if not np.all(np.sort((new_hi - new_lo + 1) * grid.cell_size)
                      <= np.sort(np.asarray(profile.dims, dtype=float)) + 1e-9):
            return -1.0
        sl = tuple(slice(int(a), int(b) + 1) for a, b in zip(lo, hi))
        if not np.any(cls[sl] != int(CellClass.EXTERNAL)):
            return -1.0
        if np.any(owner[sl] >= 0):
            return -1.0
        vol = volume[bid] + float(grid.volume[sl].sum())
        ar = area[bid] + float(grid.area[sl].sum())
        over6 = overhang[bid] + grid.overhang[(slice(None),) + sl].reshape(6, -1).sum(axis=1)
        p_score = print_score(vol, ar, profile, infill_fraction)
        o_score = float(over6.min())
        centroid = 0.5 * (new_lo + new_hi + 1)
        size = 0.5 * float((new_hi - new_lo + 1).sum())
        prox = np.inf
        for other, (olo, ohi) in enumerate(boxes):
            if other == bid:
                continue
            gap = float(np.abs(centroid - 0.5 * (olo + ohi + 1)).sum()) \
                - (size + 0.5 * float((ohi - olo + 1).sum()))
            prox = min(prox, gap)
        if not np.isfinite(prox):
            prox = PROXIMITY_FLOOR
        denom = max(prox, PROXIMITY_FLOOR)
        return (p_score + OVERHANG_WEIGHT * o_score) / denom

    trace = []
    while int(((cls == int(CellClass.BOUNDARY)) & (owner < 0)).sum()) > 0:
        best = None
        for bid in range(len(boxes)):
            for d in range(6):
                s = score(bid, d)
                if s <= 0:
                    continue
                if best is None or s < best[2] * (1.0 - SCORE_RTOL):
                    best = (bid, d, s)
        if best is None:
            break
        bid, d, s = best
        lo, hi = layer(bid, d)
        sl = tuple(slice(int(a), int(b) + 1) for a, b in zip(lo, hi))
        for c in np.argwhere(cls[sl] != int(CellClass.EXTERNAL)) + lo:
            owner[tuple(int(x) for x in c)] = bid
        boxes[bid] = [np.minimum(boxes[bid][0], lo), np.maximum(boxes[bid][1], hi)]
        volume[bid] += float(grid.volume[sl].sum())
        area[bid] += float(grid.area[sl].sum())
        overhang[bid] += grid.overhang[(slice(None),) + sl].reshape(6, -1).sum(axis=1)
        trace.append((len(trace), bid, ("+x", "-x", "+y", "-y", "+z", "-z")[d], s))
    boxes = [(tuple(int(x) for x in lo), tuple(int(x) for x in hi)) for lo, hi in boxes]
    return trace, owner, boxes, (volume, area, overhang)


def _assert_matches_reference(state, p, trace, want):
    """Problem p of a grown state against one _reference_grow result."""
    want_trace, want_owner, want_boxes, want_sums = want
    boxes, classification = _boxes(state, p), state.grids[p].classification
    owner = _owner(state, p)
    got = [t[1:] for t in trace if t[0] == p]
    assert got == want_trace
    assert len(got) == state.moves[p] > 0
    assert np.array_equal(owner, want_owner)
    assert [(tuple(int(x) for x in lo), tuple(int(x) for x in hi))
            for lo, hi in boxes] == want_boxes
    sums = state.sums[p, :len(boxes)]
    assert sums[:, VOLUME].tolist() == want_sums[0]
    assert sums[:, AREA].tolist() == want_sums[1]
    assert np.array_equal(sums[:, OVERHANG], np.array(want_sums[2]))
    assert state.unassigned[p] == int(
        ((classification == CellClass.BOUNDARY) & (owner < 0)).sum())


@pytest.mark.parametrize("fixture", [icosphere, hollow_box, l_bracket])
@pytest.mark.parametrize("granularity", ["coarse", "fine"])
def test_grow_blocks_matches_reference(fixture, granularity):
    mesh = fixture()
    grid = measure_cells(build_grid(mesh, granularity), mesh)
    # A printer that is no cube, with its own speeds, at another infill: on
    # hollow_box's 3 mm cells at fine it holds at most 4, 6 and 9 cells on
    # its sorted sides, which stop the blocks of the two-block problem.
    odd = PrinterProfile(volume_x=20.0, volume_y=14.0, volume_z=30.0,
                         speed_shell=30.0, speed_infill=45.0)
    for k in (2, 8):
        for profile, infill in ((_cube(30.0), 0.05), (_cube(250.0), 0.05),
                                (odd, 0.15)):
            seeds = select_seed_blocks(grid, mesh, k, rng_seed=k)
            want = _reference_grow(grid, zip(seeds, seeds), profile, infill)
            state = GrowthState([grid], [seeds], profile, infill)
            trace = []
            grow_blocks(state, trace)
            _assert_matches_reference(state, 0, trace, want)


@pytest.mark.parametrize("printer", [30.0, 250.0])
@pytest.mark.parametrize("fixture", [icosphere, hollow_box, l_bracket])
def test_lockstep_batch_matches_problems_grown_alone(fixture, printer):
    """Problems with different block counts, on one grid of the whole model
    and on both pieces of the model cut at its mirror plane, grown together
    in one state, each equal the reference loop run alone, bit for bit."""
    mesh = fixture()
    grid = build_grid(mesh, "fine")
    measure_cells(grid, mesh)
    prepared = prepare_model(mesh, RunPlan(printers_available=2,
                                           granularity="fine"))
    assert prepared.cut
    # (mesh, grid) of the whole model and of each cut piece, whose grids
    # differ from it in dims and cell size.
    surfaces = [(mesh, grid)] + [(piece.mesh, piece.grid)
                                 for piece in prepared.pieces]
    profile = _cube(printer)
    counts = (1, 2, 5, 8, 3)
    grids, problems, wants = [], [], []
    for seed, k in enumerate(counts):
        # Problems of the three grids interleave in the state.
        for surface, (shape, base) in enumerate(surfaces):
            seeds = select_seed_blocks(base, shape, k,
                                       rng_seed=100 + 10 * seed + surface)
            wants.append(_reference_grow(base, zip(seeds, seeds), profile))
            grids.append(base)
            problems.append(seeds)
    state = GrowthState(grids, problems, profile, 0.05)
    assert state.lo.shape == (len(problems), max(counts), 3)
    assert len({tuple(g.dims) for g in grids}) > 1
    trace = []
    grow_blocks(state, trace)
    assert not state.active.any()
    for p, want in enumerate(wants):
        _assert_matches_reference(state, p, trace, want)


def test_growth_state_set_up_memory_is_bounded():
    """Setting up 100 problems of 64 blocks on a 40 x 40 x 1 grid scores the
    seeds in chunks: scored in one call, whose overlap arrays are (blocks,
    6, 64, 3), they took 340 MB traced.  The scores do not depend on the
    chunks."""
    dims = (40, 40, 1)
    rng = np.random.default_rng(0)
    classification = np.full(dims, int(CellClass.BOUNDARY), dtype=np.int8)
    grid = Grid(np.zeros(3), 1.0, dims).set_cells(
        np.ones(dims), np.ones(dims), np.zeros((6,) + dims),
        np.zeros((3,) + dims), classification)
    seeds = [np.argwhere(classification)[rng.choice(1600, 64, replace=False)]
             for _ in range(100)]
    tracemalloc.start()
    try:
        state = GrowthState([grid] * 100, seeds, PrinterProfile(), 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6
    assert state.numerator.sum() == 1329972.0
    assert state.allowed.sum() == 23872
