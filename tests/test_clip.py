"""Half-space and box clipping: conservation, caps, coplanar ownership."""
import numpy as np
import pytest

from parallelobox.clip import (PLANE_EPS, clip_halfspace, clip_surface_to_box,
                               clip_to_box, cut_by_plane, point_in_mesh,
                               points_in_mesh)
from parallelobox.fixtures import (box_mesh, dumbbell, hollow_box, icosphere,
                                   l_bracket, unit_cube)
from parallelobox.grid import _triangle_cell_bins, build_grid, measure_cells
from parallelobox.mesh import (Aabb, TriangleMesh, aabb_of, measure,
                              validate_watertight)


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
        clipped = clip_to_box(cube, box).mesh
        got = measure(clipped).volume if not clipped.is_empty else 0.0
        want = float(np.prod(np.clip(np.minimum(hi, 1.0) - np.maximum(lo, 0.0), 0.0, None)))
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)
        if not clipped.is_empty:
            assert validate_watertight(clipped).is_watertight


def _piece_area(pieces) -> float:
    if len(pieces) == 0:
        return 0.0
    cr = np.cross(pieces[:, 1] - pieces[:, 0], pieces[:, 2] - pieces[:, 0])
    return float(0.5 * np.linalg.norm(cr, axis=1).sum())


def test_adjacent_boxes_partition_volume_and_surface():
    # (mesh, split axis, split plane or None for the bounding-box middle);
    # the l_bracket plane z = 12 holds the top face of its arm.
    cases = [(icosphere(radius=8.0, subdivisions=2), 0, None),
             (l_bracket(), 2, 12.0)]
    for mesh, axis, plane in cases:
        bb = aabb_of(mesh)
        if plane is None:
            plane = float(bb.min[axis] + 0.5 * bb.extent[axis])
        left_hi = bb.max + 1.0
        left_hi[axis] = plane
        right_lo = bb.min - 1.0
        right_lo[axis] = plane
        left = Aabb(bb.min - 1.0, left_hi)
        right = Aabb(right_lo, bb.max + 1.0)
        va = measure(clip_to_box(mesh, left).mesh).volume
        vb = measure(clip_to_box(mesh, right).mesh).volume
        assert va + vb == pytest.approx(measure(mesh).volume, rel=1e-9)

        # surface-only clips of the same two boxes partition the total area,
        # triangles exactly in the shared plane counted once.
        total = measure(mesh).surface_area
        a_left = _piece_area(clip_surface_to_box(mesh, left)[0])
        a_right = _piece_area(clip_surface_to_box(mesh, right)[0])
        assert a_left + a_right == pytest.approx(total, rel=1e-9)

        # One per-pair call with both boxes gives the same two pieces.
        m = len(mesh.triangles)
        lo = np.repeat([left.min, right.min], m, axis=0)
        hi = np.repeat([left.max, right.max], m, axis=0)
        pieces, sources = clip_surface_to_box(
            mesh, (lo, hi), np.tile(np.arange(m), 2))
        assert _piece_area(pieces[sources < m]) == a_left
        assert _piece_area(pieces[sources >= m]) == a_right


def test_coplanar_surface_triangles_single_owner():
    # A unit cube split exactly at one of its own faces: the face lies in
    # the max plane of the lower box and the min plane of the upper box, and
    # a box owns triangles on its max faces.  Cases: (axis, plane, area of
    # the lower box); at z = 0 the lower box keeps only the bottom face, at
    # x = 1 every face.
    cube = unit_cube()
    for axis, plane, lower_area in ((2, 0.0, 1.0), (0, 1.0, 6.0), (1, 0.0, 1.0)):
        lower_hi = np.array([2.0, 2.0, 2.0])
        lower_hi[axis] = plane
        upper_lo = np.array([-1.0, -1.0, -1.0])
        upper_lo[axis] = plane
        lower = Aabb((-1.0, -1.0, -1.0), lower_hi)
        upper = Aabb(upper_lo, (2.0, 2.0, 2.0))

        def area(box):
            return _piece_area(clip_surface_to_box(cube, box)[0])

        assert area(lower) == pytest.approx(lower_area, rel=1e-12)
        assert area(upper) == pytest.approx(6.0 - lower_area, rel=1e-12)
        # The per-pair form applies the same rule to each pair's own box.
        pieces, sources = clip_surface_to_box(
            cube, (np.repeat([lower.min, upper.min], 12, axis=0),
                   np.repeat([lower.max, upper.max], 12, axis=0)),
            np.tile(np.arange(12), 2))
        assert _piece_area(pieces[sources < 12]) == area(lower)
        assert _piece_area(pieces[sources >= 12]) == area(upper)


def test_clip_snaps_vertices_within_plane_eps():
    # A vertex 1e-10 beyond a max face (and another beyond a min face) is
    # snapped onto the plane: the triangle comes back unclipped, bit for
    # bit.  1e-8 beyond the max face is a real crossing and is cut.
    box = Aabb((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))
    for over, clipped in ((1e-10, False), (1e-8, True)):
        verts = np.array([[0.0, 0.0, 0.0], [1.0 + over, 0.5, 0.0],
                          [0.0, -1.0 - 1e-10, 0.5]])
        mesh = TriangleMesh(verts, np.array([[0, 1, 2]], dtype=np.int32))
        pieces, sources = clip_surface_to_box(mesh, box)
        if clipped:
            assert len(pieces) == 2
            assert pieces[:, :, 0].max() == 1.0
        else:
            assert np.array_equal(pieces, verts[None])
        assert np.array_equal(sources, np.zeros(len(pieces), dtype=np.int64))


def _reference_clip(mesh, box, tri_ids):
    """Sutherland-Hodgman one triangle, plane and vertex at a time."""
    pieces, sources = [], []
    for pos, ti in enumerate(tri_ids):
        poly = list(mesh.vertices[mesh.triangles[ti]])
        for axis in range(3):
            for sign, bound in ((1.0, box.max[axis]), (-1.0, box.min[axis])):
                if not poly:
                    break
                d = [sign * (p[axis] - bound) for p in poly]
                d = [0.0 if abs(x) <= PLANE_EPS else x for x in d]
                if all(x == 0.0 for x in d):
                    poly = [] if sign < 0.0 else poly   # min faces are not owned
                    continue
                out = []
                for i in range(len(poly)):
                    dp, dc = d[i - 1], d[i]
                    if (dp > 0.0 > dc) or (dp < 0.0 < dc):
                        t = dp / (dp - dc)
                        out.append(poly[i - 1] + t * (poly[i] - poly[i - 1]))
                    if dc <= 0.0:
                        out.append(poly[i])
                poly = out if len(out) >= 3 else []
        for k in range(1, len(poly) - 1):
            pieces.append((poly[0], poly[k], poly[k + 1]))
            sources.append(pos)
    return np.reshape(pieces, (-1, 3, 3)), np.asarray(sources, dtype=np.int64)


@pytest.mark.parametrize("make_mesh", [
    lambda: icosphere(radius=6.0, subdivisions=2),
    hollow_box,
], ids=["icosphere", "hollow_box"])
def test_batched_clip_matches_per_cell_clips(make_mesh):
    mesh = make_mesh()
    grid = build_grid(mesh, "fine")
    cells, tris = _triangle_cell_bins(mesh, grid)
    lo = grid.origin + cells * grid.cell_size
    pieces, sources = clip_surface_to_box(mesh, (lo, lo + grid.cell_size), tris)
    assert len(pieces)
    pair_cell = np.ravel_multi_index(cells.T, grid.dims)
    piece_cell = pair_cell[sources]
    for c in np.unique(pair_cell):
        ids = tris[pair_cell == c]
        box = grid.cell_box(*np.unravel_index(c, grid.dims))
        want, want_sources = clip_surface_to_box(mesh, box, ids)
        ref, ref_sources = _reference_clip(mesh, box, ids)
        assert np.array_equal(want, ref) and np.array_equal(want_sources, ref_sources)
        mine = piece_cell == c
        assert np.array_equal(pieces[mine], want)
        assert np.array_equal(tris[sources[mine]], ids[want_sources])


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
