"""Half-space and box clipping: conservation, caps, coplanar ownership."""
import numpy as np
import pytest

from parallelobox.clip import (clip_halfspace, clip_surface_to_box,
                               clip_to_box, cut_by_plane, point_in_mesh,
                               points_in_mesh)
from parallelobox.fixtures import (box_mesh, dumbbell, hollow_box, icosphere,
                                   l_bracket, unit_cube)
from parallelobox.grid import build_grid, measure_cells
from parallelobox.mesh import Aabb, aabb_of, measure, validate_watertight


def _random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def test_cut_by_plane_conserves_volume():
    rng = np.random.default_rng(11)
    for mesh in (unit_cube(), icosphere(radius=6.0, subdivisions=2), dumbbell()):
        total = measure(mesh).volume
        center = aabb_of(mesh).min + 0.5 * aabb_of(mesh).extent
        for _ in range(8):
            n = _random_unit(rng)
            offset = float(center @ n) + rng.uniform(-1.0, 1.0)
            pos, neg = cut_by_plane(mesh, n, offset)
            va = measure(pos).volume if not pos.is_empty else 0.0
            vb = measure(neg).volume if not neg.is_empty else 0.0
            assert va + vb == pytest.approx(total, rel=1e-9)
            for half in (pos, neg):
                if not half.is_empty:
                    assert validate_watertight(half).is_watertight


def test_cut_by_plane_caps_add_area():
    mesh = icosphere(radius=5.0, subdivisions=2)
    pos, neg = cut_by_plane(mesh, (0.0, 0.0, 1.0), 0.0)
    # Each capped hemisphere shows the disk: area ~ 2*pi*r^2 + pi*r^2.
    for half in (pos, neg):
        a = measure(half).surface_area
        assert a == pytest.approx(3.0 * np.pi * 25.0, rel=0.03)


def test_clip_halfspace_keep_coplanar_rule():
    cube = unit_cube()
    # Plane exactly on the z=1 face: keep_coplanar decides who owns it.
    kept = clip_halfspace(cube, (0.0, 0.0, 1.0), 1.0, keep_coplanar=True, cap=False)
    dropped = clip_halfspace(cube, (0.0, 0.0, 1.0), 1.0, keep_coplanar=False, cap=False)
    def area(m):
        if m.is_empty:
            return 0.0
        v = m.vertices[m.triangles]
        cr = np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
        return float(0.5 * np.linalg.norm(cr, axis=1).sum())
    assert area(kept) == pytest.approx(6.0, rel=1e-12)
    assert area(dropped) == pytest.approx(5.0, rel=1e-12)


def test_clip_to_box_unit_cube_analytic():
    cube = unit_cube()
    rng = np.random.default_rng(99)
    for _ in range(50):
        lo = rng.uniform(-0.5, 1.0, size=3)
        hi = lo + rng.uniform(0.05, 1.2, size=3)
        box = Aabb(lo, hi)
        clipped = clip_to_box(cube, box, mode="volumetric").mesh
        got = measure(clipped).volume if not clipped.is_empty else 0.0
        want = float(np.prod(np.clip(np.minimum(hi, 1.0) - np.maximum(lo, 0.0), 0.0, None)))
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)
        if not clipped.is_empty:
            assert validate_watertight(clipped).is_watertight


def test_adjacent_boxes_partition_volume_and_surface():
    mesh = icosphere(radius=8.0, subdivisions=2)
    bb = aabb_of(mesh)
    mid = float(bb.min[0] + 0.5 * bb.extent[0])
    left = Aabb(bb.min - 1.0, np.array([mid, bb.max[1] + 1.0, bb.max[2] + 1.0]))
    right = Aabb(np.array([mid, bb.min[1] - 1.0, bb.min[2] - 1.0]), bb.max + 1.0)
    va = measure(clip_to_box(mesh, left).mesh).volume
    vb = measure(clip_to_box(mesh, right).mesh).volume
    assert va + vb == pytest.approx(measure(mesh).volume, rel=1e-9)

    # surface-only clips of the same two boxes partition the total area,
    # triangles exactly in the shared plane counted once.
    def clipped_area(box):
        pieces, _ = clip_surface_to_box(mesh, box)
        if len(pieces) == 0:
            return 0.0
        cr = np.cross(pieces[:, 1] - pieces[:, 0], pieces[:, 2] - pieces[:, 0])
        return float(0.5 * np.linalg.norm(cr, axis=1).sum())

    assert clipped_area(left) + clipped_area(right) == pytest.approx(
        measure(mesh).surface_area, rel=1e-9)


def test_coplanar_surface_triangles_single_owner():
    # A unit cube split exactly at its own z=0 bottom face: the face lies in
    # the max plane of the lower box and the min plane of the upper box, so
    # only the upper box (whose min face it is NOT) must keep it... the
    # convention is: a box owns triangles on its max faces.
    cube = unit_cube()
    lower = Aabb((-1.0, -1.0, -1.0), (2.0, 2.0, 0.0))
    upper = Aabb((-1.0, -1.0, 0.0), (2.0, 2.0, 2.0))

    def area(box):
        pieces, _ = clip_surface_to_box(cube, box)
        if len(pieces) == 0:
            return 0.0
        cr = np.cross(pieces[:, 1] - pieces[:, 0], pieces[:, 2] - pieces[:, 0])
        return float(0.5 * np.linalg.norm(cr, axis=1).sum())

    assert area(lower) == pytest.approx(1.0, rel=1e-12)   # bottom face only
    assert area(upper) == pytest.approx(5.0, rel=1e-12)   # the other five
    assert area(lower) + area(upper) == pytest.approx(6.0, rel=1e-12)


@pytest.mark.parametrize("make_mesh", [
    lambda: icosphere(radius=6.0, subdivisions=2),
    hollow_box,   # its cavity puts external cells under solid ones
    l_bracket,
], ids=["icosphere", "hollow_box", "l_bracket"])
def test_grid_cell_volumes_match_per_cell_clips(make_mesh):
    mesh = make_mesh()
    grid = build_grid(mesh, "coarse")
    vols = measure_cells(grid, mesh).volume
    assert float(vols.sum()) == pytest.approx(measure(mesh).volume, rel=1e-9)
    rng = np.random.default_rng(5)
    nx, ny, nz = grid.dims
    for _ in range(12):
        i, j, k = rng.integers(0, nx), rng.integers(0, ny), rng.integers(0, nz)
        box = grid.cell_box(int(i), int(j), int(k))
        part = clip_to_box(mesh, box).mesh
        want = measure(part).volume if not part.is_empty else 0.0
        assert vols[i, j, k] == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_point_containment_cube():
    cube = unit_cube()
    rng = np.random.default_rng(17)
    pts = rng.uniform(-0.5, 1.5, size=(500, 3))
    inside = points_in_mesh(cube, pts)
    want = np.all((pts > 0.0) & (pts < 1.0), axis=1)
    assert np.array_equal(inside, want)


def test_point_containment_sphere_radial():
    mesh = icosphere(radius=10.0, subdivisions=3)
    rng = np.random.default_rng(23)
    pts = rng.uniform(-12.0, 12.0, size=(300, 3))
    r = np.linalg.norm(pts, axis=1)
    keep = np.abs(r - 10.0) > 0.2  # skip the faceted shell's fuzzy band
    inside = points_in_mesh(mesh, pts[keep])
    assert np.array_equal(inside, r[keep] < 10.0)
    assert point_in_mesh(mesh, (0.0, 0.0, 0.0))
    assert not point_in_mesh(mesh, (11.0, 0.0, 0.0))


def test_clip_empty_and_disjoint():
    cube = unit_cube()
    far = Aabb((10.0, 10.0, 10.0), (11.0, 11.0, 11.0))
    assert clip_to_box(cube, far).mesh.is_empty
    whole = Aabb((-1.0, -1.0, -1.0), (2.0, 2.0, 2.0))
    again = clip_to_box(cube, whole).mesh
    assert measure(again).volume == pytest.approx(1.0, rel=1e-12)


def test_random_plane_cut_area_conservation_open_shell():
    # cap=False on both sides splits a closed surface into two open shells
    # whose areas add back up.
    mesh = icosphere(radius=4.0, subdivisions=2)
    rng = np.random.default_rng(31)
    total = measure(mesh).surface_area

    def area(m):
        if m.is_empty:
            return 0.0
        v = m.vertices[m.triangles]
        cr = np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
        return float(0.5 * np.linalg.norm(cr, axis=1).sum())

    for _ in range(8):
        n = _random_unit(rng)
        off = rng.uniform(-2.0, 2.0)
        a = clip_halfspace(mesh, -n, -off, keep_coplanar=False, cap=False)
        b = clip_halfspace(mesh, n, off, keep_coplanar=True, cap=False)
        assert area(a) + area(b) == pytest.approx(total, rel=1e-9)
