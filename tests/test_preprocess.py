"""Symmetry planes, the optional cut, and build orientation."""
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from parallelobox.fixtures import (asymmetric_blob, box_mesh, dumbbell,
                                   hollow_box, icosphere, l_bracket,
                                   thin_plate, unit_cube, wedge)
from parallelobox.mesh import (TriangleMesh, aabb_of, measure, save_stl,
                               triangle_areas, triangle_normals)
from parallelobox.meta import RunPlan, _halve, prepare_model
from parallelobox import preprocess
from parallelobox.preprocess import (OFFSET_SWEEP, SYMMETRY_THRESHOLD,
                                     SymmetryPlane, _CellGrid,
                                     _principal_axes, find_best_symmetry_plane,
                                     optimize_orientation,
                                     overhang_area_for_up_z)

SRC = Path(__file__).resolve().parent.parent / "src"


def _brute_symmetry_error(mesh, normal, offset):
    """O(n^2) restatement of the score for cross-checking."""
    n = np.asarray(normal, dtype=float)
    v = mesh.vertices
    reflected = v - 2.0 * ((v @ n) - offset)[:, None] * n
    d = np.sqrt(((reflected[:, None, :] - v[None, :, :]) ** 2).sum(axis=2)).min(axis=1)
    return float(d.mean()) / aabb_of(mesh).diagonal


def test_symmetry_error_matches_brute_force():
    """On each fixture, the best plane's error is its brute-force score, and
    no candidate plane (principal axis x offset sweep) scores lower by
    brute force."""
    for mesh in (box_mesh(size=(2.0, 1.0, 3.0)), unit_cube(), dumbbell(),
                 wedge(), asymmetric_blob(),
                 icosphere(radius=5.0, subdivisions=2)):
        plane = find_best_symmetry_plane(mesh)
        assert plane.error_score == pytest.approx(
            _brute_symmetry_error(mesh, plane.normal, plane.offset),
            rel=1e-9, abs=1e-15), mesh.name
        v = mesh.vertices
        for axis in _principal_axes(v):
            along = v @ axis
            extent = float(along.max() - along.min())
            for frac in OFFSET_SWEEP:
                offset = float(v.mean(axis=0) @ axis) + float(frac) * extent
                assert _brute_symmetry_error(mesh, axis, offset) >= (
                    plane.error_score - 1e-12), mesh.name


def test_perfect_mirror_scores_zero():
    assert find_best_symmetry_plane(unit_cube()).error_score < 1e-9
    assert find_best_symmetry_plane(dumbbell()).error_score < 1e-9


def test_displaced_corner_keeps_plane_but_gains_error():
    cube = unit_cube()
    v = cube.vertices.copy()
    v[0] += 0.1 * aabb_of(cube).diagonal * np.array([1.0, 0.0, 0.0])
    bent = TriangleMesh(v, cube.triangles)
    plane = find_best_symmetry_plane(bent)
    assert plane.error_score > 0.0


def test_asymmetric_cloud_above_threshold():
    plane = find_best_symmetry_plane(asymmetric_blob())
    assert plane.error_score > SYMMETRY_THRESHOLD


def test_principal_axes_snap_for_degenerate_shapes():
    # A bar with a square cross-section has two equal eigenvalues; the
    # returned basis must still be the coordinate axes, not an arbitrary
    # in-plane rotation of them.
    bar = box_mesh(size=(30.0, 10.0, 10.0))
    axes = _principal_axes(bar.vertices)
    assert np.allclose(np.abs(axes), np.eye(3), atol=1e-9)

    tray = box_mesh(size=(36.0, 36.0, 18.0))
    axes = _principal_axes(tray.vertices)
    assert np.allclose(np.sort(np.abs(axes).argmax(axis=1)), [0, 1, 2])
    assert np.allclose(np.abs(axes @ axes.T), np.eye(3), atol=1e-12)
    for row in axes:
        assert np.abs(row).max() == pytest.approx(1.0, abs=1e-9)


def test_principal_axes_recover_true_frame():
    # Distinct variances along a rotated frame: the detector should find it.
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(4000, 3)) * np.array([5.0, 2.0, 1.0])
    theta = 0.6
    rot = np.array([[np.cos(theta), -np.sin(theta), 0.0],
                    [np.sin(theta), np.cos(theta), 0.0],
                    [0.0, 0.0, 1.0]])
    axes = _principal_axes(pts @ rot.T)
    want_first = rot @ np.array([1.0, 0.0, 0.0])
    assert abs(float(axes[0] @ want_first)) > 0.999


def maybe_symmetry_cut(mesh, threshold):
    """The pieces prepare_model cuts a mesh into at a symmetry threshold."""
    plan = RunPlan(printers_available=2, granularity="coarse",
                   symmetry_threshold=threshold)
    return [piece.mesh for piece in prepare_model(mesh, plan).pieces]


def test_maybe_symmetry_cut_behaviour():
    halves = maybe_symmetry_cut(unit_cube(), 0.01)
    assert len(halves) == 2
    va, vb = (measure(h).volume for h in halves)
    assert va == pytest.approx(vb, rel=1e-6)
    assert va + vb == pytest.approx(1.0, rel=1e-9)

    kept = maybe_symmetry_cut(asymmetric_blob(), 0.01)
    assert len(kept) == 1

    halves = maybe_symmetry_cut(icosphere(radius=10.0, subdivisions=3), 0.01)
    assert len(halves) == 2
    analytic_half = 0.5 * 4.0 / 3.0 * np.pi * 1000.0
    for h in halves:
        assert measure(h).volume == pytest.approx(analytic_half, rel=0.02)


def test_orientation_centers_and_preserves_measure():
    rng = np.random.default_rng(12)
    for make in (unit_cube, dumbbell, wedge):
        mesh = make().transformed(np.eye(3), rng.uniform(-40.0, 40.0, size=3))
        before = measure(mesh)
        oriented, pose = optimize_orientation(mesh)
        after = measure(oriented)
        assert np.abs(oriented.vertices.mean(axis=0)).max() < 1e-9
        assert after.volume == pytest.approx(before.volume, rel=1e-9)
        assert after.surface_area == pytest.approx(before.surface_area, rel=1e-9)
        assert np.linalg.det(pose.rotation) == pytest.approx(1.0, abs=1e-9)
        # pose.apply reproduces the returned mesh
        replay = pose.apply(mesh)
        assert np.allclose(replay.vertices, oriented.vertices, atol=1e-9)


def test_orientation_minimizes_overhang_among_24():
    mesh = wedge()
    oriented, pose = optimize_orientation(mesh, overhang_tolerance_deg=1.0)
    areas = triangle_areas(mesh)
    normals0 = triangle_normals(mesh)
    chosen = overhang_area_for_up_z(normals0 @ pose.rotation.T, areas, 1.0)
    # Exhaustive check across every axis-aligned proper rotation of the
    # wedge's principal frame: none may beat the chosen orientation.
    from parallelobox.preprocess import _AXIS_ROTATIONS, _principal_axes
    base = _principal_axes(mesh.vertices)
    if np.linalg.det(base) < 0:
        base[2] = -base[2]
    best = min(overhang_area_for_up_z(normals0 @ (q @ base).T, areas, 1.0)
               for q in _AXIS_ROTATIONS)
    assert chosen == pytest.approx(best, rel=1e-9, abs=1e-9)


def test_translated_cube_identity_rotation_family():
    mesh = unit_cube().transformed(np.eye(3), (10.0, 0.0, 0.0))
    oriented, pose = optimize_orientation(mesh)
    # Any rotation in the cube's symmetry group is fine; the result must be
    # the same axis-aligned cube centered at the origin.
    bb = aabb_of(oriented)
    assert np.allclose(bb.extent, [1.0, 1.0, 1.0], atol=1e-9)
    assert np.allclose(bb.min, [-0.5, -0.5, -0.5], atol=1e-9)


def test_symmetry_error_rigid_invariance():
    mesh = dumbbell()
    plane = find_best_symmetry_plane(mesh)
    rng = np.random.default_rng(21)
    theta = rng.uniform(0.0, np.pi)
    rot = np.array([[np.cos(theta), -np.sin(theta), 0.0],
                    [np.sin(theta), np.cos(theta), 0.0],
                    [0.0, 0.0, 1.0]])
    shift = rng.uniform(-30.0, 30.0, size=3)
    moved = mesh.transformed(rot, shift)
    moved_plane = find_best_symmetry_plane(moved)
    assert moved_plane.error_score == pytest.approx(plane.error_score, abs=1e-6)


# ---------------------------------------------------------------------------
# the exact mirror search


def _nearest_brute(q, v):
    """Distance from each row of q to its nearest row of v, by brute force,
    a few hundred thousand pairs at a time."""
    parts = min(len(q), 1 + len(q) * len(v) // 200_000)
    return np.concatenate([
        np.sqrt(((part[:, None] - v[None]) ** 2).sum(axis=2)).min(axis=1)
        for part in np.array_split(q, parts)])


def _reference_symmetry_plane(mesh):
    """The mirror search as a plain loop over the candidates, with
    brute-force nearest-vertex distances."""
    v = mesh.vertices
    centroid = v.mean(axis=0)
    axes = _principal_axes(v)
    diag = max(aabb_of(mesh).diagonal, 1e-300)
    best = None
    for axis in axes:
        along = v @ axis
        extent = float(along.max() - along.min())
        center_offset = float(centroid @ axis)
        for frac in OFFSET_SWEEP:
            offset = center_offset + float(frac) * extent
            reflected = v - 2.0 * (along - offset)[:, None] * axis
            score = float(_nearest_brute(reflected, v).mean()) / diag
            if best is None or score < best.error_score:
                best = SymmetryPlane(axis.copy(), offset, score)
    return best


def _assert_same_plane(mesh):
    got = find_best_symmetry_plane(mesh)
    want = _reference_symmetry_plane(mesh)
    assert got.normal.tobytes() == want.normal.tobytes(), mesh.name
    assert got.offset == want.offset, mesh.name
    assert got.error_score == want.error_score, mesh.name


def _rigid_motion(rng):
    rotation, upper = np.linalg.qr(rng.normal(size=(3, 3)))
    rotation *= np.sign(np.diag(upper))
    if np.linalg.det(rotation) < 0:
        rotation[:, 0] = -rotation[:, 0]
    return rotation, rng.uniform(-50.0, 50.0, size=3)


EXACTNESS_FIXTURES = {
    "unit_cube": unit_cube, "wedge": wedge, "thin_plate": thin_plate,
    "icosphere": icosphere, "l_bracket": l_bracket,
    "asymmetric_blob": asymmetric_blob, "dumbbell": dumbbell,
    "hollow_box": hollow_box,
}


@pytest.mark.parametrize("name", sorted(EXACTNESS_FIXTURES))
def test_mirror_search_is_the_brute_force_search(name):
    """Normal, offset and score equal the brute-force loop's bit for bit:
    on the fixture, its halves and quarters as the baseline cuts them, 10
    random rigid motions of the fixture, and 3 copies with every vertex
    moved at random by about 1e-3 of the bounding-box diagonal."""
    mesh = EXACTNESS_FIXTURES[name]()
    meshes = [mesh]
    halves = _halve([mesh])
    if halves is not None:
        meshes += halves
        meshes += _halve(halves) or []
    rng = np.random.default_rng(sum(map(ord, name)))
    meshes += [mesh.transformed(*_rigid_motion(rng)) for _ in range(10)]
    jitter = 1e-3 * aabb_of(mesh).diagonal
    meshes += [TriangleMesh(mesh.vertices + rng.normal(size=mesh.vertices.shape) * jitter,
                            mesh.triangles, mesh.name) for _ in range(3)]
    for m in meshes:
        _assert_same_plane(m)


def _cloud(kind, rng):
    if kind == "random":
        return rng.normal(size=(300, 3)) * [30.0, 10.0, 5.0] + 100.0
    if kind == "duplicates":
        return np.repeat(rng.uniform(-5.0, 5.0, size=(40, 3)), 4, axis=0)
    if kind == "flat":
        return np.column_stack([rng.uniform(-20.0, 20.0, size=(200, 2)),
                                np.full(200, 3.0)])
    if kind == "collinear":
        t = rng.uniform(-10.0, 10.0, size=150)
        return np.column_stack([t, 2.0 * t, np.full(150, -1.0)])
    if kind == "lattice":
        return np.stack(np.meshgrid(*[np.arange(6) * 4.0] * 3),
                        axis=-1).reshape(-1, 3)
    return np.array([[1.0, 2.0, 3.0]])                   # "single"


@pytest.mark.parametrize("kind", ["random", "duplicates", "flat", "collinear",
                                  "lattice", "single"])
def test_cell_grid_matches_brute_force(kind):
    """Where one grid calls a distance exact it is the brute-force one bit
    for bit, and its bounds hold; climbing, every distance is exact: on the
    vertices, inside the box, near it and far outside it."""
    rng = np.random.default_rng(5)
    v = _cloud(kind, rng)
    lo, hi = v.min(axis=0), v.max(axis=0)
    size = max(float((hi - lo).max()), 1.0)
    queries = np.concatenate([
        v,
        rng.uniform(lo, hi, size=(2000, 3)),
        rng.uniform(lo - 0.2 * size, hi + 0.2 * size, size=(2000, 3)),
        lo + rng.normal(size=(500, 3)) * 1000.0 * size,
    ])
    want = _nearest_brute(queries, v)
    grid = _CellGrid(np.ascontiguousarray(v.T))
    points = np.ascontiguousarray(queries.T)
    nearest, reach = grid.search(points, climb=False)
    hit = nearest <= reach
    assert hit[:len(v)].all()                  # every vertex finds itself
    assert (nearest[hit] == want[hit]).all()
    assert (reach[~hit] <= want[~hit]).all()
    assert (nearest >= want).all()
    assert (grid.box_distance(points) <= want).all()
    assert (grid.brute(points) == want).all()
    assert (grid.search(points)[0] == want).all()
    coarser = grid.coarser()
    nearest, reach = coarser.search(points, climb=False)
    hit = nearest <= reach
    assert (nearest[hit] == want[hit]).all()
    assert (reach[~hit] <= want[~hit]).all()


def test_crowded_cloud_reads_bounded_chunks(monkeypatch):
    """A dense clump of near-duplicate and duplicate vertices on a sparse
    plate, ringed by single vertices: every distance stays exact, also
    where a ring vertex outside a crowded block is nearer than the clump,
    the clump's points read a finer grid of its distinct vertices, and no
    chunk reads more than the pair cap unless it is one point's block.
    The points are located a thousand at a time."""
    rng = np.random.default_rng(11)
    plate = np.stack(np.meshgrid(np.linspace(0.0, 100.0, 11),
                                 np.linspace(0.0, 100.0, 11), [0.0, 10.0]),
                     axis=-1).reshape(-1, 3)
    clump = np.array([50.0, 50.0, 10.0]) + rng.normal(size=(3000, 3)) * 1e-3
    ring = rng.normal(size=(200, 3))
    ring = np.array([50.0, 50.0, 10.0]) + 3.0 * ring / np.linalg.norm(
        ring, axis=1)[:, None]
    v = np.concatenate([plate, clump, np.repeat(clump[:500], 3, axis=0), ring])
    queries = np.concatenate([
        v,
        ring + rng.normal(size=ring.shape) * 0.3,
        np.array([50.0, 50.0, 10.0]) + rng.normal(size=(3000, 3)) * 2e-3,
        np.array([50.0, 50.0, 10.0]) + rng.normal(size=(500, 3)) * 3.0,
        rng.uniform([-20.0, -20.0, -5.0], [120.0, 120.0, 15.0], size=(2000, 3)),
    ])
    chunks = []
    pairs = _CellGrid._pairs

    def counted(self, points, begin, counts):
        chunks.append((len(counts), int(counts.sum())))
        return pairs(self, points, begin, counts)

    monkeypatch.setattr(_CellGrid, "_pairs", counted)
    monkeypatch.setattr(preprocess, "_CHUNK_POINTS", 1000)
    grid = _CellGrid(np.ascontiguousarray(v.T))
    nearest, reach = grid.search(np.ascontiguousarray(queries.T))
    assert (nearest == _nearest_brute(queries, v)).all()
    assert (nearest <= reach).all()
    crowd = grid._crowd.vertices                     # duplicates held once
    assert crowd.shape[1] == np.unique(crowd, axis=1).shape[1] <= 3000 + len(ring)
    assert all(total <= preprocess._CHUNK_PAIRS or points == 1
               for points, total in chunks)


def test_far_points_climb_coarser_grids():
    """Points far from a large cloud are answered exactly by coarser grids,
    not by comparing them with every vertex."""
    rng = np.random.default_rng(3)
    direction = rng.normal(size=(8000, 3))
    v = 50.0 * direction / np.linalg.norm(direction, axis=1)[:, None]
    queries = rng.normal(size=(200, 3)) * 40.0
    grid = _CellGrid(np.ascontiguousarray(v.T))
    assert len(queries) * len(v) > preprocess._BRUTE_PAIRS
    nearest = grid.search(np.ascontiguousarray(queries.T))[0]
    assert grid._coarser is not None
    assert (nearest == _nearest_brute(queries, v)).all()


def test_dense_cloud_grows_the_cell_side():
    """20,000 points spread through a 100 mm cube would give more than 8n +
    1000 blocks at the side sqrt(A / n), 1.73 mm, so the grid grows it by
    1.25x to 2.17 mm; distances near the cloud stay exact."""
    rng = np.random.default_rng(8)
    v = rng.uniform(0.0, 100.0, size=(20_000, 3))
    ex, ey, ez = np.ptp(v, axis=0)
    side = np.sqrt(2.0 * (ex * ey + ey * ez + ez * ex) / len(v))
    grid = _CellGrid(np.ascontiguousarray(v.T))
    assert side == pytest.approx(1.73, abs=0.005)
    assert grid.h == 1.25 * side
    queries = np.concatenate([v[:1000] + rng.normal(size=(1000, 3)),
                              rng.uniform(-5.0, 105.0, size=(1000, 3))])
    points = np.ascontiguousarray(queries.T)
    assert (grid.search(points)[0] == grid.brute(points)).all()


def test_crowd_grid_that_is_not_finer_is_dropped():
    """A helix of 8,000 points crowds its blocks, but its crowd grid holds
    the same distinct vertices at no finer a side, so the grid drops it and
    reads its own blocks; distances near the helix stay exact."""
    t = np.linspace(0.0, 4.0 * np.pi, 8000)
    v = np.stack([30.0 * np.cos(t), 30.0 * np.sin(t), 3.0 * t], axis=1)
    grid = _CellGrid(np.ascontiguousarray(v.T))
    assert grid.crowded is not None
    rng = np.random.default_rng(9)
    queries = v[::8] + rng.normal(size=(1000, 3))
    points = np.ascontiguousarray(queries.T)
    assert (grid.search(points)[0] == grid.brute(points)).all()
    assert grid.crowded is None and grid._crowd is None


def test_mirror_search_lets_passed_levels_go(monkeypatch):
    """A clump with a few far vertices, whose search climbs at least three
    grid levels: when the level loop reads a level, no level it has
    passed is alive but the finest, and no level is built twice.  The
    plane is the brute-force search's."""
    rng = np.random.default_rng(0)
    v = np.concatenate([rng.normal(size=(940, 3)), 100.0 * rng.normal(size=(60, 3))])
    mesh = TriangleMesh(v, np.zeros((0, 3), dtype=np.int32), "clump")
    finest, levels, reads = [], [], []
    init, coarser, search = _CellGrid.__init__, _CellGrid.coarser, _CellGrid.search

    def made(self, vertices, h=None):
        init(self, vertices, h)
        if not finest:
            finest.append(self)

    def climbed(self):
        built = self._coarser is None
        out = coarser(self)
        if built and (self is finest[0] or any(ref() is self for ref, _ in levels)):
            levels.append((weakref.ref(out), out.h))
        return out

    def searched(self, points, climb=True):
        if not climb and (self is finest[0] or any(ref() is self for ref, _ in levels)):
            reads.append((self.h, [h for ref, h in levels if ref() is not None]))
        return search(self, points, climb)

    monkeypatch.setattr(_CellGrid, "__init__", made)
    monkeypatch.setattr(_CellGrid, "coarser", climbed)
    monkeypatch.setattr(_CellGrid, "search", searched)
    got = find_best_symmetry_plane(mesh)
    finest.clear()
    read = sorted({h for h, _ in reads})
    assert len(read) >= 3
    for h, alive in reads:
        assert all(other >= h for other in alive), (h, alive)
    assert not [ref for ref, _ in levels if ref() is not None]
    built = [h for _, h in levels]
    assert len(built) == len(set(built))
    monkeypatch.undo()
    want = _reference_symmetry_plane(mesh)
    assert (got.normal.tobytes(), got.offset, got.error_score) == (
        want.normal.tobytes(), want.offset, want.error_score)


def test_scipy_is_not_imported():
    code = ("import sys, parallelobox\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=_env()).stdout
    assert out.strip() == "[]"


def test_decompose_runs_without_scipy(tmp_path):
    model = tmp_path / "dumbbell.stl"
    save_stl(dumbbell(), model)
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "import parallelobox\n"
            "from parallelobox.cli import main\n"
            "sys.exit(main(sys.argv[1:]))")
    proc = subprocess.run(
        [sys.executable, "-c", code, "decompose", str(model), "--printers", "2",
         "--granularity", "coarse", "--sample-tries", "1", "--baseline", "both",
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=_env())
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "results.csv").exists()


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env
