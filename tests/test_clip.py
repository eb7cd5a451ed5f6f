"""Half-space and box clipping: conservation, caps, coplanar ownership."""
import numpy as np
import pytest

from parallelobox import clip, fixtures
from parallelobox.clip import (PLANE_EPS, clip_halfspace, clip_surface_to_box,
                               clip_to_box, cut_by_plane, points_in_mesh)
from parallelobox.errors import DegenerateBox, NonWatertightInput
from parallelobox.fixtures import (asymmetric_blob, box_mesh, dumbbell,
                                   hollow_box, icosphere, l_bracket, unit_cube,
                                   wedge)
from parallelobox.grid import (DIRECTIONS, GRANULARITY_CELLS, CellClass, Grid,
                               build_grid, face_sections, grid_cell_volumes,
                               measure_cells)
from parallelobox.mesh import (Aabb, TriangleMesh, aabb_of, compact, measure,
                              triangle_normals, validate_watertight)
from parallelobox.meta import PrinterProfile, RunPlan, prepare_model


_FIXTURES = [unit_cube, lambda: icosphere(radius=6.0, subdivisions=2), dumbbell,
             l_bracket, hollow_box, asymmetric_blob]
_FIXTURE_IDS = ["cube", "icosphere", "dumbbell", "l_bracket", "hollow_box", "blob"]


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


def test_clip_halfspace_in_plane_face_rule():
    """A face lying in the cut plane goes to the side it faces out of: a
    cut on the cube's top face keeps the whole cube below it and nothing
    above it, and a cut on its bottom face the reverse."""
    cube = unit_cube()
    up, down = np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])
    for normal, offset, whole in ((up, 1.0, True), (down, -1.0, False),
                                  (up, 0.0, False), (down, 0.0, True)):
        got = clip_halfspace(cube, normal, offset)
        assert got.is_empty != whole
        if whole:
            assert _same_mesh(got, cube)
    # cut_by_plane gives the whole cube to one half and nothing to the other.
    for offset, side in ((1.0, 1), (0.0, 0)):
        halves = cut_by_plane(cube, up, offset)
        assert _same_mesh(halves[side], cube) and halves[1 - side].is_empty


def test_clip_to_box_unit_cube_analytic():
    cube = unit_cube()
    rng = np.random.default_rng(99)
    for _ in range(50):
        lo = rng.uniform(-0.5, 1.0, size=3)
        hi = lo + rng.uniform(0.05, 1.2, size=3)
        box = Aabb(lo, hi)
        clipped = clip_to_box(cube, box)
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
        va = measure(clip_to_box(mesh, left)).volume
        vb = measure(clip_to_box(mesh, right)).volume
        assert va + vb == pytest.approx(measure(mesh).volume, rel=1e-9)

        # surface-only clips of the same two boxes partition the total area,
        # triangles exactly in the shared plane counted once.
        total = measure(mesh).surface_area
        m = len(mesh.triangles)
        a_left = _piece_area(_reference_clip(mesh, left, np.arange(m))[0])
        a_right = _piece_area(_reference_clip(mesh, right, np.arange(m))[0])
        assert a_left + a_right == pytest.approx(total, rel=1e-9)

        # One per-pair call of the reference kernel with both boxes gives
        # the same two sets of pieces.
        lo = np.repeat([left.min, right.min], m, axis=0)
        hi = np.repeat([left.max, right.max], m, axis=0)
        pieces, sources = _reference_pair_clip(mesh, lo, hi, np.tile(np.arange(m), 2))
        assert _piece_area(pieces[sources < m]) == a_left
        assert _piece_area(pieces[sources >= m]) == a_right
        for box, mine in ((left, sources < m), (right, sources >= m)):
            got, got_sources = _reference_clip(mesh, box, np.arange(m))
            assert np.array_equal(got, pieces[mine])
            assert np.array_equal(got_sources, sources[mine] % m)


def test_coplanar_surface_triangles_single_owner():
    # A unit cube split exactly at one of its own faces: the face lies in
    # the max plane of the lower box and the min plane of the upper box, and
    # a box owns the triangles in its planes that face out of it.  Cases:
    # (axis, plane, area of the lower box); at z = 0 the bottom face faces
    # out of the upper box, which so owns all six faces, and at x = 1 the
    # face faces out of the lower box.
    cube = unit_cube()
    for axis, plane, lower_area in ((2, 0.0, 0.0), (0, 1.0, 6.0), (1, 0.0, 0.0)):
        lower_hi = np.array([2.0, 2.0, 2.0])
        lower_hi[axis] = plane
        upper_lo = np.array([-1.0, -1.0, -1.0])
        upper_lo[axis] = plane
        lower = Aabb((-1.0, -1.0, -1.0), lower_hi)
        upper = Aabb(upper_lo, (2.0, 2.0, 2.0))

        def area(box):
            return _piece_area(_reference_clip(cube, box, np.arange(12))[0])

        assert area(lower) == pytest.approx(lower_area, rel=1e-12)
        assert area(upper) == pytest.approx(6.0 - lower_area, rel=1e-12)
        # The per-pair reference kernel applies the same rule to each
        # pair's own box.
        pieces, sources = _reference_pair_clip(
            cube, np.repeat([lower.min, upper.min], 12, axis=0),
            np.repeat([lower.max, upper.max], 12, axis=0), np.tile(np.arange(12), 2))
        assert _piece_area(pieces[sources < 12]) == area(lower)
        assert _piece_area(pieces[sources >= 12]) == area(upper)
        assert np.array_equal(pieces[sources < 12],
                              _reference_clip(cube, lower, np.arange(12))[0])
        assert np.array_equal(pieces[sources >= 12],
                              _reference_clip(cube, upper, np.arange(12))[0])


def test_clip_snaps_vertices_within_plane_eps():
    # A vertex 1e-10 beyond a max face (and another beyond a min face) is
    # snapped onto the plane: the triangle comes back unclipped, bit for
    # bit.  1e-8 beyond the max face is a real crossing and is cut.  The
    # box [-1, 1]^3 is a grid of one cell.
    box = Grid((-1.0, -1.0, -1.0), 2.0, (1, 1, 1))
    for over, clipped in ((1e-10, False), (1e-8, True)):
        verts = np.array([[0.0, 0.0, 0.0], [1.0 + over, 0.5, 0.0],
                          [0.0, -1.0 - 1e-10, 0.5]])
        mesh = TriangleMesh(verts, np.array([[0, 1, 2]], dtype=np.int32))
        pieces, sources, cells = clip_surface_to_box(mesh, box)
        assert np.array_equal(cells, np.zeros(len(pieces), dtype=np.int64))
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
        normal = np.cross(poly[1] - poly[0], poly[2] - poly[0])
        for axis in range(3):
            for sign, bound in ((1.0, box.max[axis]), (-1.0, box.min[axis])):
                if not poly:
                    break
                d = [sign * (p[axis] - bound) for p in poly]
                d = [0.0 if abs(x) <= PLANE_EPS else x for x in d]
                if all(x == 0.0 for x in d):
                    # Kept when it faces out of the box across the plane.
                    poly = poly if sign * normal[axis] > 0.0 else []
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


# ---------------------------------------------------------------------------
# the per-pair surface clip measure_cells used before the staged one, as
# the reference of the grid form


def _reference_cell_bins(mesh, grid):
    """Every (cell, triangle) pair whose bounding boxes overlap.

    Returns the (p, 3) cell indices and the (p,) triangle ids, sorted by
    cell in C order and by triangle within a cell.
    """
    v, t = mesh.vertices, mesh.triangles
    corners = v[t]  # (m, 3, 3)
    tri_lo = corners.min(axis=1)
    tri_hi = corners.max(axis=1)
    lo_idx = np.floor((tri_lo - grid.origin) / grid.cell_size - 1e-12).astype(np.int64)
    hi_idx = np.floor((tri_hi - grid.origin) / grid.cell_size + 1e-12).astype(np.int64)
    lo_idx = np.clip(lo_idx, 0, np.array(grid.dims) - 1)
    hi_idx = np.clip(hi_idx, 0, np.array(grid.dims) - 1)
    span = hi_idx - lo_idx + 1
    per_tri = span.prod(axis=1)
    tris = np.repeat(np.arange(len(t)), per_tri)
    # Rank of each pair within its triangle's cell range, unravelled C-order.
    rank = np.arange(len(tris)) - np.repeat(np.cumsum(per_tri) - per_tri, per_tri)
    ny, nz = span[tris, 1], span[tris, 2]
    offset = np.stack([rank // (ny * nz), rank // nz % ny, rank % nz], axis=1)
    cells = lo_idx[tris] + offset
    order = np.argsort(np.ravel_multi_index(cells.T, grid.dims), kind="stable")
    return cells[order], tris[order]


def _reference_pair_clip(mesh, lo, hi, tri_ids):
    """Six Sutherland-Hodgman passes over padded rows, one (triangle, box)
    pair a row: tri_ids[i] is clipped to the box lo[i], hi[i].  Returns the
    pieces and the position in tri_ids each came from, in input order."""
    v, t = mesh.vertices, mesh.triangles
    ids = np.asarray(tri_ids, dtype=np.int64)
    poly = v[t[ids]]                        # (n, width, 3), padded polygons
    normal = np.cross(poly[:, 1] - poly[:, 0], poly[:, 2] - poly[:, 0])
    near = ~((poly.min(axis=1) - hi > PLANE_EPS)
             | (lo - poly.max(axis=1) > PLANE_EPS)).any(axis=1)
    pos = np.nonzero(near)[0]               # position of each row in ids
    poly = poly[pos]
    count = np.full(len(pos), 3)            # live vertices per polygon
    for axis in range(3):
        for bound, sign in ((hi, 1.0), (lo, -1.0)):
            d = sign * (poly[:, :, axis] - bound[pos, axis, None])
            d[np.abs(d) <= PLANE_EPS] = 0.0
            valid = np.arange(poly.shape[1]) < count[:, None]
            d[~valid] = 0.0
            # A polygon in the plane is kept when it faces out of the box.
            live = (d != 0.0).any(axis=1) | (sign * normal[pos, axis] > 0.0)
            poly, count, pos, d, valid = (a[live] for a in (poly, count, pos, d, valid))
            cut = np.nonzero((d > 0.0).any(axis=1))[0]
            if len(cut):
                out, count[cut] = _reference_clip_rows(poly[cut], count[cut], d[cut],
                                                       valid[cut])
                if out.shape[1] > poly.shape[1]:
                    pad = np.zeros((len(poly), out.shape[1] - poly.shape[1], 3))
                    poly = np.concatenate([poly, pad], axis=1)
                poly[cut, :out.shape[1]] = out
                live = count >= 3
                poly, count, pos = poly[live], count[live], pos[live]
    rows, k = np.nonzero(np.arange(1, poly.shape[1] - 1) < count[:, None] - 1)
    k = k + 1
    pieces = np.stack([poly[rows, 0], poly[rows, k], poly[rows, k + 1]], axis=1)
    return pieces, pos[rows]


def _reference_clip_rows(p, count, d, valid):
    """One Sutherland-Hodgman pass keeping d <= 0 on padded polygons."""
    prev = (np.arange(p.shape[1]) - 1) % count[:, None]
    dp = np.take_along_axis(d, prev, axis=1)
    cross = valid & (((dp > 0.0) & (d < 0.0)) | ((dp < 0.0) & (d > 0.0)))
    keep = valid & (d <= 0.0)
    emitted = cross.astype(np.int64) + keep
    end = np.cumsum(emitted, axis=1)
    start = end - emitted
    out = np.zeros((len(p), int(end[:, -1].max()), 3))
    r, c = np.nonzero(cross)
    pc = prev[r, c]
    t = dp[r, c] / (dp[r, c] - d[r, c])
    out[r, start[r, c]] = p[r, pc] + t[:, None] * (p[r, c] - p[r, pc])
    r, c = np.nonzero(keep)
    out[r, start[r, c] + cross[r, c]] = p[r, c]
    return out, end[:, -1]


def _reference_grid_clip(mesh, grid):
    """The per-pair clip of every (cell, triangle) pair, as
    (pieces, sources, flat cells)."""
    cells, tris = _reference_cell_bins(mesh, grid)
    lo = grid.origin + cells * grid.cell_size
    pieces, pos = _reference_pair_clip(mesh, lo, lo + grid.cell_size, tris)
    return pieces, tris[pos], np.ravel_multi_index(cells[pos].T, grid.dims)


def _reference_measure_cells(grid, mesh, overhang_tolerance_deg=1.0):
    """measure_cells summing the per-pair clip, each piece's z0 read from
    its pair's box."""
    cells, tris = _reference_cell_bins(mesh, grid)
    nx, ny, nz = grid.dims
    lo = grid.origin + cells * grid.cell_size
    pieces, sources = _reference_pair_clip(mesh, lo, lo + grid.cell_size, tris)
    flat = np.ravel_multi_index(cells[sources].T, grid.dims)

    def per_cell(weights):
        return np.bincount(flat, weights, minlength=nx * ny * nz).reshape(grid.dims)

    cross = np.cross(pieces[:, 1] - pieces[:, 0], pieces[:, 2] - pieces[:, 0])
    piece_area = 0.5 * np.linalg.norm(cross, axis=1)
    tilt = triangle_normals(mesh)[tris[sources]] @ DIRECTIONS.T
    sin_tol = np.sin(np.radians(overhang_tolerance_deg))
    over = np.stack([per_cell(np.where(tilt[:, d] > sin_tol, piece_area, 0.0))
                     for d in range(6)])
    nz_da = 0.5 * cross[:, 2]
    z_mean = pieces[:, :, 2].mean(axis=1)
    lift = per_cell(nz_da)
    section = np.stack([face_sections(per_cell(0.5 * cross[:, 0]), 0),
                        face_sections(per_cell(0.5 * cross[:, 1]), 1),
                        face_sections(lift, 2)])
    volume = grid_cell_volumes(per_cell((z_mean - lo[sources, 2]) * nz_da), lift,
                               grid.cell_size)
    classification = np.where(volume > 0.5 * grid.cell_size ** 3,
                              np.int8(CellClass.INTERNAL), np.int8(CellClass.EXTERNAL))
    classification[per_cell(None) > 0] = CellClass.BOUNDARY
    return Grid(grid.origin, grid.cell_size, grid.dims).set_cells(
        volume, per_cell(piece_area), over, section, classification)


@pytest.mark.parametrize("make_mesh", [
    lambda: icosphere(radius=6.0, subdivisions=2),
    hollow_box,
], ids=["icosphere", "hollow_box"])
def test_batched_clip_matches_per_cell_clips(make_mesh):
    """The grid form gives each cell the pieces of a one-box clip of the
    triangles binned to it, and those are the loop kernel's."""
    mesh = make_mesh()
    grid = build_grid(mesh, "fine")
    pieces, sources, cells = clip_surface_to_box(mesh, grid)
    assert len(pieces)
    pair_cells, pair_tris = _reference_cell_bins(mesh, grid)
    pair_cell = np.ravel_multi_index(pair_cells.T, grid.dims)
    seen = 0
    for c in np.unique(pair_cell):
        ids = pair_tris[pair_cell == c]
        # The cell's box as the grid form builds it, bit for bit, and as
        # a grid of that one cell.
        lo = grid.origin + np.array(np.unravel_index(c, grid.dims)) * grid.cell_size
        box = Aabb(lo, lo + grid.cell_size)
        binned = TriangleMesh(mesh.vertices, mesh.triangles[ids])
        want, want_sources, _ = clip_surface_to_box(
            binned, Grid(lo, grid.cell_size, (1, 1, 1)))
        ref, ref_sources = _reference_clip(mesh, box, ids)
        assert np.array_equal(want, ref) and np.array_equal(want_sources, ref_sources)
        mine = cells == c
        assert np.array_equal(pieces[mine], want)
        assert np.array_equal(sources[mine], ids[want_sources])
        seen += int(mine.sum())
    assert seen == len(pieces)


def _rigid_motion(mesh, rng):
    """mesh under a random rotation and translation."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return TriangleMesh(mesh.vertices @ q.T + rng.uniform(-50.0, 50.0, size=3),
                        mesh.triangles, mesh.name)


def _staged_clip_cases(mesh, rng):
    """The mesh, three rigid motions of it and its two halves across the
    middle plane of its longest axis."""
    yield "unmoved", mesh
    for k in range(3):
        yield f"moved{k}", _rigid_motion(mesh, rng)
    bb = aabb_of(mesh)
    axis = int(np.argmax(bb.extent))
    for side, half in zip(("upper", "lower"), cut_by_plane(
            mesh, np.eye(3)[axis], float(bb.min[axis] + 0.5 * bb.extent[axis]))):
        yield side, half


@pytest.mark.parametrize("make_mesh", _FIXTURES + [wedge],
                         ids=_FIXTURE_IDS + ["wedge"])
def test_staged_grid_clip_matches_per_pair_kernel(make_mesh):
    """The grid form clips one axis at a time, sharing each triangle's x
    and y passes among the cells that need them; its pieces, cells,
    triangles and their order are the per-pair kernel's bit for bit, and
    so are the measure_cells tables.  Cases: the fixture, rotated and
    moved copies and symmetry-cut halves, at every granularity, on the
    default grid and on one whose planes pass through the mesh's min
    corner."""
    rng = np.random.default_rng(97)
    for name, mesh in _staged_clip_cases(make_mesh(), rng):
        for granularity in GRANULARITY_CELLS:
            default = build_grid(mesh, granularity)
            cornered = Grid(aabb_of(mesh).min, default.cell_size, default.dims)
            for grid in (default, cornered):
                case = (name, granularity, tuple(grid.origin))
                got = clip_surface_to_box(mesh, grid)
                want = _reference_grid_clip(mesh, grid)
                assert len(want[0]), case
                for g, w in zip(got, want):
                    assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), case
                tables = measure_cells(grid, mesh)
                reference = _reference_measure_cells(grid, mesh)
                assert tables.table.tobytes() == reference.table.tobytes(), case
                assert np.array_equal(grid.classification, reference.classification), case


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
        box = grid.box_of_range((i, j, k), (i, j, k))
        part = clip_to_box(mesh, box)
        want = measure(part).volume if not part.is_empty else 0.0
        assert vols[i, j, k] == pytest.approx(want, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("name", ["l_bracket", "dumbbell", "hollow_box",
                                  "asymmetric_blob"])
def test_tables_match_meshes_on_face_aligned_grids(name):
    """A grid of the voxel size laid on the voxel planes puts mesh faces in
    cell planes, facing into some ranges' boxes and out of others: on
    random cell ranges the tables' volume and capped area equal those of
    the clipped mesh."""
    mesh = getattr(fixtures, name)()
    bb = aabb_of(mesh)
    dims = np.round(bb.extent / 4.0).astype(np.int64) + 2
    grid = Grid(bb.min - 4.0, 4.0, dims)
    tables = measure_cells(grid, mesh)
    rng = np.random.default_rng(sum(map(ord, name)))
    a, b = rng.integers(0, dims, size=(2, 400, 3))
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    volumes, areas = tables.boxes(lo, hi)
    parts = clip_to_box(mesh, [grid.box_of_range(*r) for r in zip(lo, hi)])
    for part, volume, area, r in zip(parts, volumes, areas, zip(lo, hi)):
        got = (0.0, 0.0) if part.is_empty else (measure(part).volume,
                                                measure(part).surface_area)
        assert got == pytest.approx((volume, area), abs=1e-6), r


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
    assert points_in_mesh(mesh, [(0.0, 0.0, 0.0)])[0]
    assert not points_in_mesh(mesh, [(11.0, 0.0, 0.0)])[0]


def _reference_points_in_mesh(mesh, points):
    """Ray-parity containment: count the crossings of a +x ray, re-cast a
    numerically ambiguous hit (grazing an edge, running inside a triangle
    plane) along random directions."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if mesh.is_empty or len(pts) == 0:
        return np.zeros(len(pts), dtype=bool)
    rng = np.random.default_rng(9173)
    p0 = mesh.vertices[mesh.triangles[:, 0]]
    e1 = mesh.vertices[mesh.triangles[:, 1]] - p0
    e2 = mesh.vertices[mesh.triangles[:, 2]] - p0
    scale = max(float(np.abs(mesh.vertices).max()), 1.0)
    inside = np.zeros(len(pts), dtype=bool)
    for start in range(0, len(pts), 512):
        sub = pts[start:start + 512]
        crossings, ambiguous = _count_crossings(
            sub, np.array([1.0, 0.0, 0.0]), p0, e1, e2, scale)
        for local in np.nonzero(ambiguous)[0]:
            for _ in range(32):
                d = rng.normal(size=3)
                d /= np.linalg.norm(d)
                count, unsure = _count_crossings(sub[local][None], d, p0, e1, e2, scale)
                crossings[local] = count[0]
                if not unsure[0]:
                    break
        inside[start:start + 512] = crossings % 2 == 1
    return inside


def _count_crossings(pts, direction, p0, e1, e2, scale):
    """Moeller-Trumbore hits of rays from pts along direction, and which
    rays hit a triangle too close to an edge or its plane to count."""
    eps_par = 1e-12 * scale * scale
    eps_bary = 1e-10
    eps_t = 1e-9 * scale
    d = direction
    h = np.cross(d, e2)
    a = np.einsum("tj,tj->t", e1, h)
    ok = np.abs(a) > eps_par
    f = np.zeros_like(a)
    f[ok] = 1.0 / a[ok]
    s = pts[:, None, :] - p0[None, :, :]
    u = np.einsum("ptj,tj->pt", s, h) * f
    q = np.cross(s, e1[None, :, :])
    v = np.einsum("ptj,j->pt", q, d) * f
    t = np.einsum("ptj,tj->pt", q, e2) * f
    hit = ok[None, :] & (t > eps_t) & (u > eps_bary) & (v > eps_bary) & (u + v < 1.0 - eps_bary)
    grazing = ok[None, :] & (t > -eps_t) & (
        (np.abs(u) <= eps_bary) | (np.abs(v) <= eps_bary)
        | (np.abs(u + v - 1.0) <= eps_bary) | (np.abs(t) <= eps_t)
    ) & (u > -10 * eps_bary) & (v > -10 * eps_bary) & (u + v < 1.0 + 10 * eps_bary)
    normal = np.cross(e1, e2)
    norm_n = np.linalg.norm(normal, axis=1)
    plane_risk = ((~ok) & (norm_n > eps_par))[None, :] & (
        np.abs(np.einsum("ptj,tj->pt", s, normal)) <= eps_t * norm_n[None, :] + eps_par
    )
    ambiguous = (grazing | plane_risk).any(axis=1)
    return hit.sum(axis=1), ambiguous


@pytest.mark.parametrize("name", ["unit_cube", "icosphere", "dumbbell",
                                  "l_bracket", "hollow_box", "asymmetric_blob"])
@pytest.mark.parametrize("granularity", ["coarse", "fine"])
def test_winding_number_matches_ray_parity(name, granularity):
    """The winding number and ray parity agree at every cell center
    without surface, the points clip_to_box asks about."""
    mesh = getattr(fixtures, name)()
    grid = build_grid(mesh, granularity)
    measure_cells(grid, mesh)
    free = np.argwhere(grid.classification != CellClass.BOUNDARY)
    centers = grid.origin + (free + 0.5) * grid.cell_size
    assert np.array_equal(points_in_mesh(mesh, centers),
                          _reference_points_in_mesh(mesh, centers))


def test_clip_empty_and_disjoint():
    cube = unit_cube()
    far = Aabb((10.0, 10.0, 10.0), (11.0, 11.0, 11.0))
    assert clip_to_box(cube, far).is_empty
    whole = Aabb((-1.0, -1.0, -1.0), (2.0, 2.0, 2.0))
    again = clip_to_box(cube, whole)
    assert measure(again).volume == pytest.approx(1.0, rel=1e-12)


def test_clip_and_cut_reject_bad_input():
    """A box of zero extent, an open mesh and a plane normal that is not
    of unit length raise before anything is clipped."""
    cube = unit_cube()
    with pytest.raises(DegenerateBox):
        clip_to_box(cube, Aabb((0.0, 0.0, 0.0), (1.0, 0.0, 1.0)))
    open_cube = TriangleMesh(cube.vertices, cube.triangles[:-1], "open")
    with pytest.raises(NonWatertightInput):
        clip_to_box(open_cube, Aabb((0.0, 0.0, 0.0), (0.5, 0.5, 0.5)))
    with pytest.raises(ValueError, match="unit length"):
        cut_by_plane(cube, (2.0, 0.0, 0.0), 0.5)


def test_random_plane_cut_area_conservation_open_shell():
    # The two sides of a cut, without their caps, split a closed surface into
    # two open shells whose areas add back up.  A side's shell is its capped
    # cut's leading triangles, as many as the loop kernel cuts without caps.
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
        shells = 0.0
        for sign in (-1.0, 1.0):
            got = clip_halfspace(mesh, sign * n, sign * off)
            bare = _reference_clip_halfspace(mesh, sign * n, sign * off, cap=False)
            _assert_capped(got, bare, sign * n)
            shells += area(TriangleMesh(got.vertices, got.triangles[:len(bare.triangles)]))
        assert shells == pytest.approx(total, rel=1e-9)


# ---------------------------------------------------------------------------
# the array-built half-space clip against the loop kernel it replaced

def _reference_clip_halfspace(mesh, normal, offset, *, cap=True):
    """clip_halfspace one crossing triangle and one cut edge at a time; with
    cap=False, the cut without its caps."""
    if mesh.is_empty:
        return TriangleMesh.empty(mesh.name)
    n = np.asarray(normal, dtype=np.float64).reshape(3)
    d = mesh.vertices @ n - float(offset)
    d[np.abs(d) <= PLANE_EPS] = 0.0
    tri_d = d[mesh.triangles]
    below = tri_d <= 0.0
    corners = mesh.vertices[mesh.triangles]
    facing = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0]) @ n > 0.0
    # A triangle in the plane is kept when it faces out of the kept side.
    keep_full = below.all(axis=1) & (facing | ~(tri_d == 0.0).all(axis=1))
    drop_full = (tri_d > 0.0).all(axis=1)
    crossing = np.nonzero(~below.all(axis=1) & ~drop_full)[0]
    if not crossing.size and not keep_full.any():
        return TriangleMesh.empty(mesh.name)
    if not crossing.size and keep_full.all():
        return mesh.copy()

    verts = mesh.vertices
    new_points, edge_cut = [], {}

    def cut_point(a, b):
        key = (a, b) if a < b else (b, a)
        idx = edge_cut.get(key)
        if idx is None:
            pa, pb = verts[key[0]], verts[key[1]]
            t = d[key[0]] / (d[key[0]] - d[key[1]])
            idx = len(verts) + len(new_points)
            new_points.append(pa + t * (pb - pa))
            edge_cut[key] = idx
        return idx

    out_tris = [tuple(tri) for tri in mesh.triangles[keep_full]]
    for ti in crossing:
        ia, ib, ic = (int(x) for x in mesh.triangles[ti])
        poly, prev = [], ic
        for cur in (ia, ib, ic):
            dp, dc = d[prev], d[cur]
            if dc <= 0.0:
                if dp > 0.0 and dc < 0.0:
                    poly.append(cut_point(prev, cur))
                poly.append(cur)
            elif dp < 0.0:
                poly.append(cut_point(prev, cur))
            prev = cur
        for k in range(1, len(poly) - 1):
            out_tris.append((poly[0], poly[k], poly[k + 1]))
    if not out_tris:
        return TriangleMesh.empty(mesh.name)
    all_verts = verts if not new_points else np.vstack([verts, np.asarray(new_points)])
    tris = np.asarray(out_tris, dtype=np.int32)
    if cap:
        boundary = _reference_boundary_edges(tris)
        if boundary:
            u, v = clip._plane_basis(n)
            uv = np.column_stack([all_verts @ u, all_verts @ v])
            loops = clip._assemble_loops([(b, a) for a, b in boundary], uv)
            caps = clip._triangulate_region(uv, loops)
            if caps:
                tris = np.vstack([tris, np.asarray(caps, dtype=np.int32)])
    return compact(TriangleMesh(all_verts, tris, mesh.name))


def _reference_boundary_edges(tris):
    t = np.asarray(tris, dtype=np.int64)
    ab = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    base = int(ab.max()) + 1
    keys, counts = np.unique(ab[:, 0] * base + ab[:, 1], return_counts=True)
    rev = (keys % base) * base + keys // base
    pos = np.clip(np.searchsorted(keys, rev), 0, len(keys) - 1)
    rev_counts = np.where(keys[pos] == rev, counts[pos], 0)
    out = []
    for key, excess in zip(keys, counts - rev_counts):
        if excess > 0:
            out.extend([(int(key // base), int(key % base))] * int(excess))
    return out


def _reference_clip_to_box(mesh, box):
    """The loop kernel's box clip: a box that no surface piece crosses (by
    a full weld) is the box or nothing, by the winding number at its
    center, and any other box takes all six cuts.  clip_to_box, which only
    cuts, must agree with it up to the triangulation of the caps."""
    pieces = _reference_clip(mesh, box, np.arange(len(mesh.triangles)))[0]
    verts = pieces.reshape(-1, 3)
    count = 0
    if len(verts):
        keys = np.round(verts / PLANE_EPS).astype(np.int64)
        _, inverse = np.unique(keys, axis=0, return_inverse=True)
        t = inverse.reshape(-1, 3)
        keep = (t[:, 0] != t[:, 1]) & (t[:, 1] != t[:, 2]) & (t[:, 2] != t[:, 0])
        count = len(np.unique(t[keep]))
    if count == 0:
        if _reference_points_in_mesh(mesh, [box.center])[0]:
            return box_mesh(box.extent, box.min, mesh.name)
        return TriangleMesh.empty(mesh.name)
    current = mesh
    for axis in range(3):
        for sign, bound in ((1.0, box.max[axis]), (-1.0, box.min[axis])):
            if current.is_empty:
                break
            current = _reference_clip_halfspace(
                current, sign * np.eye(3)[axis], sign * bound)
    return current


def _same_mesh(got, want):
    return (got.vertices.dtype == want.vertices.dtype
            and got.triangles.dtype == want.triangles.dtype
            and got.vertices.shape == want.vertices.shape
            and got.triangles.shape == want.triangles.shape
            and got.vertices.tobytes() == want.vertices.tobytes()
            and got.triangles.tobytes() == want.triangles.tobytes()
            and got.name == want.name)


def _plane_areas(mesh, normal, offset):
    """Unsigned area of the faces lying in the plane normal . x = offset,
    and their signed area along normal."""
    corners = mesh.vertices[mesh.triangles]
    on = (np.abs(corners @ normal - offset) <= PLANE_EPS).all(axis=1)
    half = 0.5 * np.cross(corners[on, 1] - corners[on, 0],
                          corners[on, 2] - corners[on, 0])
    return float(np.linalg.norm(half, axis=1).sum()), float((half @ normal).sum())


def _assert_capped(got, bare, normal):
    """got is bare, the cut without caps, with caps that close it: the same
    vertices and leading triangles bit for bit, a watertight mesh, and caps
    that cover their loops once (their unsigned area equals their signed
    area along the normal, which equals the loops' signed area)."""
    assert got.is_empty == bare.is_empty
    if got.is_empty:
        return
    m = len(bare.triangles)
    assert got.vertices.tobytes() == bare.vertices.tobytes()
    assert got.triangles[:m].tobytes() == bare.triangles.tobytes()
    assert validate_watertight(got).is_watertight
    cap = got.vertices[got.triangles[m:]]
    half = 0.5 * np.cross(cap[:, 1] - cap[:, 0], cap[:, 2] - cap[:, 0])
    unsigned = float(np.linalg.norm(half, axis=1).sum())
    signed = float((half @ normal).sum())
    loops = 0.0
    edges = np.reshape(_reference_boundary_edges(bare.triangles), (-1, 2))
    if len(edges):
        a, b = bare.vertices[edges[:, 0]], bare.vertices[edges[:, 1]]
        loops = -0.5 * float((np.cross(a, b) @ normal).sum())
    tol = 1e-9 * max(unsigned, 1.0)
    assert abs(unsigned - signed) <= tol, (unsigned, signed)
    assert abs(signed - loops) <= tol, (signed, loops)


def _box_plane_areas(mesh, box):
    """_plane_areas on each of the box's six planes, normals outward."""
    return [_plane_areas(mesh, sign * np.eye(3)[axis], sign * bound)
            for axis in range(3)
            for sign, bound in ((1.0, box.max[axis]), (-1.0, box.min[axis]))]


def _assert_same_solid(got, want, box):
    """A clipped box solid against the loop kernel's.  Solids without caps
    match bit for bit.  Otherwise got is watertight, the faces on each box
    plane cover it once and have the same signed area as want's there, and
    the faces off the planes have the same area, and the solids the same
    volume."""
    if got.is_empty or want.is_empty or _same_mesh(got, want):
        assert _same_mesh(got, want)
        return
    assert validate_watertight(got).is_watertight
    got_planes, want_planes = _box_plane_areas(got, box), _box_plane_areas(want, box)
    tol = 1e-9 * max(measure(got).surface_area, 1.0)
    for (unsigned, signed), (_, want_signed) in zip(got_planes, want_planes):
        assert abs(unsigned - signed) <= tol, (unsigned, signed)
        assert abs(signed - want_signed) <= tol, (signed, want_signed)
    got_off, want_off = (measure(m).surface_area - sum(u for u, _ in planes)
                         for m, planes in ((got, got_planes), (want, want_planes)))
    assert got_off == pytest.approx(want_off, rel=1e-9, abs=tol)
    assert measure(got).volume == pytest.approx(measure(want).volume, rel=1e-9)


@pytest.mark.parametrize("make_mesh", _FIXTURES, ids=_FIXTURE_IDS)
def test_halfspace_clip_matches_loop_kernel(make_mesh):
    """Axis planes at grid coordinates (through faces of the voxel models),
    both ways, and random oblique planes: the loop kernel's cut without
    caps bit for bit, plus caps that close it once."""
    mesh = make_mesh()
    grid = build_grid(mesh, "fine")
    rng = np.random.default_rng(61)
    planes = []
    for axis in range(3):
        for i in rng.choice(grid.dims[axis] + 1, size=4, replace=False):
            for sign in (1.0, -1.0):
                normal = sign * np.eye(3)[axis]
                planes.append((normal, sign * (grid.origin[axis] + i * grid.cell_size)))
    bb = aabb_of(mesh)
    for _ in range(8):
        normal = _random_unit(rng)
        point = bb.min + rng.uniform(0.1, 0.9, size=3) * bb.extent
        planes.append((normal, float(point @ normal)))
    for normal, offset in planes:
        _assert_capped(clip_halfspace(mesh, normal, offset),
                       _reference_clip_halfspace(mesh, normal, offset, cap=False), normal)


@pytest.mark.parametrize("make_mesh", _FIXTURES, ids=_FIXTURE_IDS)
def test_clip_to_box_matches_loop_kernel(make_mesh):
    mesh = make_mesh()
    grid = build_grid(mesh, "fine")
    rng = np.random.default_rng(67)
    dims = np.array(grid.dims)
    for _ in range(10):
        a, b = rng.integers(0, dims), rng.integers(0, dims)
        box = grid.box_of_range(np.minimum(a, b), np.maximum(a, b))
        _assert_same_solid(clip_to_box(mesh, box), _reference_clip_to_box(mesh, box), box)


def test_cap_through_a_cavity_bridges_its_hole():
    """A cut through hollow_box's cavity leaves an outer ring and a hole;
    on each of the six cuts the cap covers the ring less the hole once."""
    mesh = hollow_box()
    bb = aabb_of(mesh)
    for axis in range(3):
        offset = float(bb.min[axis] + 0.5 * bb.extent[axis])
        for sign in (1.0, -1.0):
            normal = sign * np.eye(3)[axis]
            uv, loops = _cut_loops(mesh, normal, sign * offset)
            assert sorted(_signed_area(uv, ring) > 0.0 for ring in loops) == [False, True]
            got = clip_halfspace(mesh, normal, sign * offset)
            _assert_capped(got, _reference_clip_halfspace(
                mesh, normal, sign * offset, cap=False), normal)


def test_touching_boxes_match_the_weld():
    """Boxes the surface only touches: on a face from outside, max face or
    min face, along an edge, at a corner, and a needle tip whose pieces all
    collapse below PLANE_EPS.  None of them gets a part or a surface
    piece, as with the loop kernel: a cube face in a box plane faces into
    the box, so neither clip keeps it."""
    cube = unit_cube()
    boxes = [Aabb((-1.0, 0.0, 0.0), (0.0, 1.0, 1.0)),   # max face on x = 0
             Aabb((1.0, 0.0, 0.0), (2.0, 1.0, 1.0)),    # min face on x = 1
             Aabb((1.0, 1.0, 0.0), (2.0, 2.0, 1.0)),    # along an edge
             Aabb((1.0, 1.0, 1.0), (2.0, 2.0, 2.0))]    # at a corner
    for box in boxes:
        assert clip_to_box(cube, box).is_empty
        assert _reference_clip_to_box(cube, box).is_empty
        assert len(_reference_clip(cube, box, np.arange(12))[0]) == 0
    # A tetrahedron whose tip pokes 1.5e-9 into the box: the pieces are
    # slivers about 1.5e-10 wide, distinct points that weld together.
    tip = TriangleMesh(np.array([[0.0, 0.0, 0.0], [10.0, -1.0, -1.0],
                                 [10.0, 1.0, -1.0], [10.0, 0.0, 1.0]]),
                       np.array([[0, 2, 1], [0, 3, 2], [0, 1, 3], [1, 2, 3]],
                                dtype=np.int32))
    assert validate_watertight(tip).is_watertight
    box = Aabb((-1.0, -1.0, -1.0), (1.5e-9, 1.0, 1.0))
    pieces = _reference_clip(tip, box, np.arange(4))[0]
    assert len(pieces) == 3
    assert clip_to_box(tip, box).is_empty
    _assert_same_solid(clip_to_box(tip, box), _reference_clip_to_box(tip, box), box)


def _reference_cuts(cuts):
    """The batched half-space kernel's entries, each cut by the loop kernel."""
    return [_reference_clip_halfspace(mesh, normal, offset)
            for mesh, normal, offset in cuts]


def _cut_loops(mesh, normal, offset):
    """The plane coordinates and boundary loops clip_halfspace caps, from
    the loop kernel's uncapped cut."""
    bare = _reference_clip_halfspace(mesh, normal, offset, cap=False)
    u, v = clip._plane_basis(normal)
    uv = np.column_stack([bare.vertices @ u, bare.vertices @ v])
    edges = _reference_boundary_edges(bare.triangles)
    return uv, clip._assemble_loops([(b, a) for a, b in edges], uv)


def _signed_area(uv, ring):
    """The signed area of a ring of uv indices, positive when CCW."""
    after = uv[ring[1:] + ring[:1]]
    return 0.5 * float(np.dot(uv[ring, 0], after[:, 1]) - np.dot(uv[ring, 1], after[:, 0]))


def _region_areas(uv, tris):
    """Unsigned and signed area of triangles given as uv indices."""
    p = uv[np.asarray(tris)]
    cross = ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
             - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0]))
    return 0.5 * float(np.abs(cross).sum()), 0.5 * float(cross.sum())


def test_dumbbell_ring_is_capped_once(monkeypatch):
    """The ring on the y-min face of a dumbbell part (fine, 4 printers,
    piece 0, cells (0, 4, 0)-(7, 7, 11)), the face on the symmetry plane,
    with the piece cut by the loop kernel.  The face is the symmetry cut's
    cap, so the ring's 52 vertices are where that cap's triangles cross
    the part's box.  Most of them are collinear with both neighbours; ear
    clipping every vertex covered 500 mm² for its 440."""
    with monkeypatch.context() as patch:
        patch.setattr(clip, "_clip_halfspaces", _reference_cuts)
        prepared = prepare_model(dumbbell(), RunPlan(printers_available=4,
                                                     granularity="fine"))
    piece = prepared.pieces[0]
    box = piece.grid.box_of_range((0, 4, 0), (7, 7, 11))
    uv, loops = _cut_loops(piece.mesh, -np.eye(3)[1], -box.min[1])
    assert [len(ring) for ring in loops] == [52]
    assert _signed_area(uv, loops[0]) == pytest.approx(440.0, rel=1e-9)
    unsigned, signed = _region_areas(uv, clip._triangulate_region(uv, loops))
    assert signed == pytest.approx(440.0, rel=1e-9)
    assert unsigned == pytest.approx(signed, rel=1e-12)


@pytest.mark.parametrize("angle", [0.0, 0.5])
def test_comb_ring_with_many_reflex_corners(angle):
    """A comb (a spine with twelve teeth, two reflex corners between each
    pair) with a hole in its spine, every edge split into collinear
    vertices, axis-aligned and rotated: the triangles tile the region
    once, each ring edge in one triangle and every other edge paired."""
    teeth = 12
    outer = [(0.0, 0.0), (2.0 * teeth - 1.0, 0.0)]
    for i in reversed(range(teeth)):
        outer += [(2.0 * i + 1.0, 6.0), (2.0 * i, 6.0)]
        if i:
            outer += [(2.0 * i, 2.0), (2.0 * i - 1.0, 2.0)]
    hole = [(3.5, 0.5), (3.5, 1.5), (9.5, 1.5), (9.5, 0.5)]      # clockwise

    def split(corners):
        ring = []
        for p, q in zip(corners, corners[1:] + corners[:1]):
            ring += [tuple(np.add(p, t * np.subtract(q, p))) for t in (0.0, 0.25, 0.5, 0.75)]
        return ring

    points = split(outer) + split(hole)
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    uv = np.asarray(points) @ rot.T
    n_outer = 4 * len(outer)
    loops = [list(range(n_outer)), list(range(n_outer, len(points)))]
    tris = clip._triangulate_region(uv, loops)
    # A ring of n vertices with h holes has n + 2h - 2 triangles.
    assert len(tris) == len(points) + 2 - 2
    area = _signed_area(uv, loops[0]) + _signed_area(uv, loops[1])
    assert area == pytest.approx(teeth * 4.0 + (2 * teeth - 1) * 2.0 - 6.0, rel=1e-12)
    unsigned, signed = _region_areas(uv, tris)
    assert signed == pytest.approx(area, rel=1e-12)
    assert unsigned == pytest.approx(signed, rel=1e-12)
    edges = [e for a, b, c in tris for e in ((a, b), (b, c), (c, a))]
    assert len(set(edges)) == len(edges)
    ring_edges = {(r[k], r[(k + 1) % len(r)]) for r in loops for k in range(len(r))}
    inner = set(edges) - ring_edges
    assert ring_edges <= set(edges)
    assert {(b, a) for a, b in inner} == inner


def test_squares_sharing_a_corner_make_two_loops():
    """Two unit squares touching at one corner: the corner has two outgoing
    edges, and the most counterclockwise turn keeps the squares apart, two
    loops of 4 vertices whose cap covers each square once."""
    uv = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                   [2.0, 1.0], [2.0, 2.0], [1.0, 2.0]])
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (4, 5), (5, 6), (6, 2)]
    loops = clip._assemble_loops(edges, uv)
    assert sorted(sorted(ring) for ring in loops) == [[0, 1, 2, 3], [2, 4, 5, 6]]
    unsigned, signed = _region_areas(uv, clip._triangulate_region(uv, loops))
    assert unsigned == signed == 2.0


def test_hole_bridges_from_another_vertex_when_the_rightmost_is_blocked(caplog):
    """A hole whose rightmost vertex rests, within tolerance, on the outer
    ring's right edge: the sweep still joins the hole to the outer ring,
    and the hole is kept."""
    uv = np.array([(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0),
                   (10.0 - 1e-7, 5.0), (5.0, 3.0), (5.0, 7.0)])
    loops = [[0, 1, 2, 3], [4, 5, 6]]                # the hole is clockwise
    area = _signed_area(uv, loops[0]) + _signed_area(uv, loops[1])
    assert area == pytest.approx(90.0000002, rel=1e-12)
    with caplog.at_level("WARNING", logger="parallelobox.clip"):
        tris = clip._triangulate_region(uv, loops)
    assert not caplog.records
    unsigned, signed = _region_areas(uv, tris)
    assert signed == pytest.approx(area, rel=1e-12)
    assert unsigned == pytest.approx(area, rel=1e-12)


def _lattice_region(rng, case):
    """Filled unit cells of a random rectilinear outer: each column a run
    of cells with ragged ends.  case "holes" carves 0-3 single-cell holes
    apart from each other and the outer ring, "touching" one hole meeting
    the outer ring at a corner only, and "sharing" two holes meeting at a
    corner only."""
    while True:
        w, h = rng.integers(6, 10, size=2)
        occ = np.zeros((w + 2, h + 2), dtype=bool)      # an empty margin
        for x in range(w):
            lo, hi = rng.integers(0, 3), h - rng.integers(0, 3)
            occ[x + 1, lo + 1:hi + 1] = True

        def filled(x, y, skip=()):
            """Whether the 3 x 3 cells around (x, y) but skip are filled."""
            return all(occ[x + i, y + j] for i in (-1, 0, 1) for j in (-1, 0, 1)
                       if (i, j) not in skip)

        cells = [(int(x), int(y)) for x, y in zip(*np.nonzero(occ))]
        rng.shuffle(cells)
        if case == "holes":
            for _ in range(rng.integers(0, 4)):
                inner = [c for c in cells if filled(*c)]
                if inner:
                    occ[inner[0]] = False
            return occ
        for x, y in cells:
            if case == "touching":
                corner = [(i, j) for i in (-1, 1) for j in (-1, 1)
                          if not occ[x + i, y + j]]
                if len(corner) == 1 and filled(x, y, corner):
                    occ[x, y] = False
                    return occ
            elif filled(x, y) and filled(x + 1, y + 1):
                occ[x, y] = occ[x + 1, y + 1] = False
                return occ


def _lattice_loops(occ, angle):
    """Lattice points rotated by angle, and the boundary loops of the
    filled cells of occ as clip assembles them: CCW outer, CW holes."""
    ids = np.arange(occ.size + sum(occ.shape) + 1).reshape(np.add(occ.shape, 1))
    edges = set()
    for x, y in zip(*np.nonzero(occ)):
        ring = [ids[x, y], ids[x + 1, y], ids[x + 1, y + 1], ids[x, y + 1]]
        edges.update((int(a), int(b)) for a, b in zip(ring, ring[1:] + ring[:1]))
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    uv = np.argwhere(ids >= 0).astype(float) @ rot.T
    return uv, clip._assemble_loops(sorted(edges - {(b, a) for a, b in edges}), uv)


@pytest.mark.parametrize("case", ["holes", "touching", "sharing"])
@pytest.mark.parametrize("angle", [0.0, 0.5])
def test_sweep_tiles_lattice_regions(case, angle):
    """Random rectilinear regions, axis-aligned and rotated: each ring edge
    lies in one triangle and every other edge is paired; n ring corners
    and h holes give n + 2h - 2 triangles, two fewer for each corner two
    rings share; and the triangles cover the rings' area once."""
    rng = np.random.default_rng(89)
    for _ in range(30):
        uv, loops = _lattice_loops(_lattice_region(rng, case), angle)
        areas = [_signed_area(uv, ring) for ring in loops]
        holes = sum(a < 0.0 for a in areas)
        corners = sum(len(ring) for ring in loops)
        shared = corners - len({v for ring in loops for v in ring})
        assert sum(a > 0.0 for a in areas) == 1
        assert (holes, shared) == {"holes": (holes, 0), "touching": (1, 1),
                                   "sharing": (2, 1)}[case]
        tris = clip._triangulate_region(uv, loops)
        assert len(tris) == corners + 2 * holes - 2 - 2 * shared
        edges = [e for a, b, c in tris for e in ((a, b), (b, c), (c, a))]
        assert len(set(edges)) == len(edges)
        ring_edges = {(r[k], r[(k + 1) % len(r)]) for r in loops for k in range(len(r))}
        inner = set(edges) - ring_edges
        assert ring_edges <= set(edges)
        assert {(b, a) for a, b in inner} == inner
        unsigned, signed = _region_areas(uv, tris)
        assert signed == pytest.approx(sum(areas), rel=1e-12)
        assert unsigned == pytest.approx(signed, rel=1e-12)


@pytest.mark.parametrize("make_mesh", _FIXTURES, ids=_FIXTURE_IDS)
def test_random_axis_cuts_stay_watertight(make_mesh):
    """Axis cuts at random offsets at least 1e-6 from every vertex: the
    capped halves are watertight and their caps cover the cut once."""
    mesh = make_mesh()
    bb = aabb_of(mesh)
    rng = np.random.default_rng(71)
    for trial in range(12):
        axis = trial % 3
        offset = float(bb.min[axis] + rng.uniform(0.02, 0.98) * bb.extent[axis])
        while np.abs(mesh.vertices[:, axis] - offset).min() <= 1e-6:
            offset = float(bb.min[axis] + rng.uniform(0.02, 0.98) * bb.extent[axis])
        for sign in (1.0, -1.0):
            normal = sign * np.eye(3)[axis]
            got = clip_halfspace(mesh, normal, sign * offset)
            assert not got.is_empty
            _assert_capped(got, _reference_clip_halfspace(
                mesh, normal, sign * offset, cap=False), normal)


@pytest.mark.parametrize("make_mesh", _FIXTURES, ids=_FIXTURE_IDS)
def test_vertex_plane_cuts_stay_closed(make_mesh, caplog):
    """Axis cuts at vertex coordinates, through faces that lie in the
    plane: cut_by_plane's halves and the two clip_halfspace sides are each
    empty or closed with positive volume, and sum to the model's volume,
    with no clip WARNING."""
    mesh = make_mesh()
    total = measure(mesh).volume
    rng = np.random.default_rng(7)
    with caplog.at_level("WARNING", logger="parallelobox.clip"):
        for _ in range(40):
            axis = int(rng.integers(3))
            offset = float(mesh.vertices[rng.integers(len(mesh.vertices)), axis])
            normal = np.eye(3)[axis]
            for halves in (cut_by_plane(mesh, normal, offset),
                           [clip_halfspace(mesh, -normal, -offset),
                            clip_halfspace(mesh, normal, offset)]):
                volume = 0.0
                for half in halves:
                    if not half.is_empty:
                        assert validate_watertight(half).is_watertight, (axis, offset)
                        assert measure(half).volume > 0.0, (axis, offset)
                        volume += measure(half).volume
                assert volume == pytest.approx(total, rel=1e-9), (axis, offset)
    assert not caplog.records


@pytest.mark.parametrize("make_mesh", _FIXTURES, ids=_FIXTURE_IDS)
def test_culled_surface_clip_matches_unculled_kernel(make_mesh):
    """The per-pair reference kernel of the grid form drops the triangles
    beyond PLANE_EPS of their box before clipping; on random boxes, half of
    them with every plane on a vertex coordinate or PLANE_EPS-scale nudges
    off it, its pieces are the per-triangle kernel's over every triangle,
    bit for bit, one box a call and all boxes in one call."""
    mesh = make_mesh()
    bb = aabb_of(mesh)
    ids = np.arange(len(mesh.triangles))
    rng = np.random.default_rng(79)
    boxes = []
    for trial in range(16):
        if trial % 2:
            v = mesh.vertices[rng.integers(len(mesh.vertices), size=(2, 3)), np.arange(3)]
            nudge = rng.choice([0.0, 0.5, 1.0, 1.5, -0.5, -1.0, -1.5], size=(2, 3))
            lo, hi = np.sort(v + nudge * PLANE_EPS, axis=0)
            if np.any(hi - lo <= 0.0):
                continue
        else:
            lo = bb.min + rng.uniform(-0.1, 0.8, size=3) * bb.extent
            hi = lo + rng.uniform(0.05, 0.6, size=3) * bb.extent
        boxes.append(Aabb(lo, hi))
        got, got_sources = _reference_pair_clip(
            mesh, np.tile(boxes[-1].min, (len(ids), 1)),
            np.tile(boxes[-1].max, (len(ids), 1)), ids)
        want, want_sources = _reference_clip(mesh, boxes[-1], ids)
        assert np.array_equal(got, want) and np.array_equal(got_sources, want_sources)
    assert len(boxes) >= 12
    m = len(ids)
    pieces, sources = _reference_pair_clip(
        mesh, np.repeat([b.min for b in boxes], m, axis=0),
        np.repeat([b.max for b in boxes], m, axis=0), np.tile(ids, len(boxes)))
    for k, box in enumerate(boxes):
        want, want_sources = _reference_clip(mesh, box, ids)
        mine = sources // m == k
        assert np.array_equal(pieces[mine], want)
        assert np.array_equal(sources[mine] - k * m, want_sources)


def test_boundary_edges_read_only_the_cut_plane(monkeypatch):
    """The caps read the open edges among the edges in the cut plane; on
    random cuts (axis planes on vertices and between them, and oblique
    planes) those are all the open edges."""
    seen = []
    build = clip._build_caps
    monkeypatch.setattr(clip, "_build_caps", lambda verts, tris, on, n: seen.append(
        (tris, on)) or build(verts, tris, on, n))
    rng = np.random.default_rng(83)
    for make_mesh in _FIXTURES:
        mesh = make_mesh()
        bb = aabb_of(mesh)
        for trial in range(9):
            axis = trial % 3
            if trial < 3:
                normal = np.eye(3)[axis]
                offset = float(mesh.vertices[rng.integers(len(mesh.vertices)), axis])
            elif trial < 6:
                normal = -np.eye(3)[axis]
                offset = -float(bb.min[axis] + rng.uniform(0.1, 0.9) * bb.extent[axis])
            else:
                normal = _random_unit(rng)
                offset = float((bb.min + rng.uniform(0.1, 0.9, size=3) * bb.extent) @ normal)
            for sign in (1.0, -1.0):
                clip_halfspace(mesh, sign * normal, sign * offset)
    assert len(seen) >= 90
    for tris, on in seen:
        got = clip._boundary_edges(tris, on)
        assert got.tolist() == [list(e) for e in _reference_boundary_edges(tris)]


def _surface_pass_crosses(mesh, box) -> bool:
    """The surface pass's answer: some piece keeps three corners apart at
    PLANE_EPS resolution."""
    pieces = _reference_clip(mesh, box, np.arange(len(mesh.triangles)))[0]
    keys = np.round(pieces / PLANE_EPS).astype(np.int64)
    return bool((keys != np.roll(keys, -1, axis=1)).any(axis=2).all(axis=1).any())


def _crossing_boxes(mesh, rng):
    """Random boxes on the fine grid, boxes with every face on a vertex
    coordinate or PLANE_EPS-scale nudges off it, and boxes whose min face
    holds a triangle of the mesh."""
    grid = build_grid(mesh, "fine")
    dims = np.array(grid.dims)
    boxes = []
    for _ in range(12):
        a, b = rng.integers(0, dims), rng.integers(0, dims)
        boxes.append(grid.box_of_range(np.minimum(a, b), np.maximum(a, b)))
    v = mesh.vertices
    for _ in range(12):
        corners = v[rng.integers(len(v), size=(2, 3)), np.arange(3)]
        nudge = rng.choice([0.0, 0.5, 1.0, -0.5, -1.0], size=(2, 3))
        lo, hi = np.sort(corners + nudge * PLANE_EPS, axis=0)
        if np.all(hi - lo > 0.0):
            boxes.append(Aabb(lo, hi))
    corners = v[mesh.triangles]
    flat = np.ptp(corners, axis=1) == 0.0          # (m, 3): in an axis plane
    for tri, axis in zip(*np.nonzero(flat)):
        if len(boxes) >= 40:
            break
        lo, hi = corners[tri].min(axis=0), corners[tri].max(axis=0)
        hi = hi + rng.uniform(0.0, 1.0) * (hi - lo)
        hi[axis] = lo[axis] + rng.choice([PLANE_EPS / 2, 1.0])
        boxes.append(Aabb(lo, np.maximum(hi, lo + PLANE_EPS / 2)))
    return boxes


@pytest.mark.parametrize("make_mesh", _FIXTURES, ids=_FIXTURE_IDS)
def test_vertex_rule_agrees_with_the_surface_pass(make_mesh):
    """A triangle with every corner in the closed box, not lying (within
    PLANE_EPS) in a face of the box that it faces into, comes back whole
    from the surface pass: one piece, its own corners."""
    mesh = make_mesh()
    boxes = _crossing_boxes(mesh, np.random.default_rng(83))
    v, t = mesh.vertices, mesh.triangles
    normal = triangle_normals(mesh)
    whole = 0
    for box in boxes:
        inside = ((v >= box.min) & (v <= box.max)).all(axis=1)[t].all(axis=1)
        into = (((np.abs(v - box.min) <= PLANE_EPS)[t].all(axis=1) & (normal >= 0.0))
                | ((np.abs(v - box.max) <= PLANE_EPS)[t].all(axis=1) & (normal <= 0.0)))
        pieces, sources = _reference_clip(mesh, box, np.arange(len(t)))
        for tri in np.nonzero(inside & ~into.any(axis=1))[0]:
            mine = np.nonzero(sources == tri)[0]
            assert len(mine) == 1 and np.array_equal(pieces[mine[0]], v[t[tri]]), box
            whole += 1
    assert whole > 0


def test_vertex_rule_on_the_needle_tip_and_a_min_face():
    """The needle tip's pieces collapse below PLANE_EPS, and a triangle in
    a box's face that it faces into is not the box's: neither gives
    clip_to_box a part."""
    tip = TriangleMesh(np.array([[0.0, 0.0, 0.0], [10.0, -1.0, -1.0],
                                 [10.0, 1.0, -1.0], [10.0, 0.0, 1.0]]),
                       np.array([[0, 2, 1], [0, 3, 2], [0, 1, 3], [1, 2, 3]],
                                dtype=np.int32))
    boxes = [Aabb((-1.0, -1.0, -1.0), (1.5e-9, 1.0, 1.0)),
             Aabb((-1.0, -1.0, -1.0), (PLANE_EPS / 2, 1.0, 1.0))]
    for box in boxes:
        assert not _surface_pass_crosses(tip, box)
        assert clip_to_box(tip, box).is_empty
    # The base triangle of the tip lies in x = 10 and faces +x: a box from
    # there on holds it whole but does not own it, a box up to there does.
    base = Aabb((10.0, -2.0, -2.0), (11.0, 2.0, 2.0))
    assert not _surface_pass_crosses(tip, base)
    assert clip_to_box(tip, base).is_empty
    assert not clip_to_box(tip, Aabb((9.0, -2.0, -2.0), (10.0, 2.0, 2.0))).is_empty


def test_boxes_the_surface_misses():
    """The six cuts alone decide a box the surface misses.  A box inside
    the solid comes back built from its caps, watertight, with the box's
    volume and area; a box in hollow_box's cavity comes back empty, and so
    does a box no thicker than PLANE_EPS, whose min cut snaps its max
    cap's corners into its plane.  A box 2 * PLANE_EPS thick is kept as
    its watertight slab."""
    for mesh, box in ((unit_cube(), Aabb((0.25, 0.25, 0.25), (0.5, 0.75, 0.625))),
                      (icosphere(radius=6.0, subdivisions=2),
                       Aabb((-2.0, -1.0, -3.0), (1.0, 2.0, 0.5)))):
        assert not _surface_pass_crosses(mesh, box)
        got = clip_to_box(mesh, box)
        assert validate_watertight(got).is_watertight
        assert measure(got).volume == pytest.approx(np.prod(box.extent), rel=1e-12)
        assert measure(got).surface_area == pytest.approx(
            2.0 * (box.extent @ np.roll(box.extent, 1)), rel=1e-12)
    hollow = hollow_box()
    center = aabb_of(hollow).center
    cavity = Aabb(center - 1.0, center + 1.0)
    assert not _surface_pass_crosses(hollow, cavity)
    assert clip_to_box(hollow, cavity).is_empty
    cube = unit_cube()
    for thickness in (PLANE_EPS / 2, PLANE_EPS):
        thin = Aabb((0.5, 0.25, 0.25), (0.5 + thickness, 0.75, 0.75))
        assert clip_to_box(cube, thin).is_empty
    slab = clip_to_box(cube, Aabb((0.5, 0.25, 0.25), (0.5 + 2 * PLANE_EPS, 0.75, 0.75)))
    assert validate_watertight(slab).is_watertight
    assert measure(slab).volume == pytest.approx(0.5 * PLANE_EPS, rel=1e-6)


def _six_cuts(mesh, box):
    """clip_to_box's cuts, every one of them made."""
    current = mesh
    for axis in range(3):
        for sign, bound in ((1.0, box.max[axis]), (-1.0, box.min[axis])):
            current = clip_halfspace(current, sign * np.eye(3)[axis], sign * bound)
            if current.is_empty:
                return current
    return current


@pytest.mark.parametrize("make_mesh", _FIXTURES, ids=_FIXTURE_IDS)
def test_skipped_cuts_match_six_cuts(make_mesh, monkeypatch):
    """Box faces at the mesh bounds, PLANE_EPS inside and outside them,
    beyond them, and well inside: clip_to_box skips the cuts the mesh lies
    more than PLANE_EPS inside of and gives the six cuts' mesh bit for
    bit, a copy when it skips all six."""
    mesh = make_mesh()
    bb = aabb_of(mesh)
    rng = np.random.default_rng(89)
    steps = [0.0, PLANE_EPS, -PLANE_EPS, 2 * PLANE_EPS, 1.0, None]  # None: inside
    cuts = []
    batched = clip._clip_halfspaces
    monkeypatch.setattr(clip, "_clip_halfspaces",
                        lambda entries, *args: cuts.extend(entries) or batched(entries, *args))
    faces = [[1.0] * 6, [0.0] * 6] + [rng.choice(steps, size=6).tolist()
                                      for _ in range(30)]
    skipped = 0
    for out in faces:
        out = np.array([-0.25 * bb.extent[k // 2] if s is None else s
                        for k, s in enumerate(out)])
        box = Aabb(bb.min - out[1::2], bb.max + out[0::2])
        before = len(cuts)
        got = clip_to_box(mesh, box)
        made = len(cuts) - before
        skipped += 6 - made
        assert _same_mesh(got, _six_cuts(mesh, box)), out
        if made == 0:
            assert got.vertices is not mesh.vertices and _same_mesh(got, mesh)
    assert skipped > 0


# ---------------------------------------------------------------------------
# batched box clipping


def _one_by_one(meshes, boxes):
    return [clip_to_box(mesh, box) for mesh, box in zip(meshes, boxes)]


def _assert_batching_is_invisible(meshes, boxes):
    """One call, one call in reverse order and one call per box give the
    same meshes bit for bit."""
    alone = _one_by_one(meshes, boxes)
    together = clip_to_box(meshes, boxes)
    reverse = clip_to_box(meshes[::-1], boxes[::-1])[::-1]
    assert len(together) == len(reverse) == len(boxes)
    for one, got, back, box in zip(alone, together, reverse, boxes):
        assert _same_mesh(got, one), box
        assert _same_mesh(back, one), box
    return alone


@pytest.mark.parametrize("granularity", ["coarse", "fine"])
@pytest.mark.parametrize("name", ["dumbbell", "l_bracket", "hollow_box",
                                  "asymmetric_blob", "icosphere"])
def test_batched_box_clip_matches_one_box_per_call(name, granularity):
    """The part boxes of the seed-0 decompositions at 4 printers of 250 mm
    and 8 of 30 mm, and random cell ranges, on each prepared piece: each
    piece's boxes and all pieces' boxes together."""
    from parallelobox import meta
    mesh = getattr(fixtures, name)()
    rng = np.random.default_rng(sum(map(ord, name + granularity)))
    meshes, boxes = [], []
    for printers, side in ((4, 250.0), (8, 30.0)):
        plan = RunPlan(printers_available=printers, granularity=granularity)
        profile = PrinterProfile(volume_x=side, volume_y=side, volume_z=side)
        prepared = prepare_model(mesh, plan)
        grown = meta.grow_runs(prepared, plan, profile, [(printers, 0)])[0]
        result = meta.run_decomposition(prepared, plan, profile, printers, 0, grown)
        for part in result.parts:
            piece = prepared.pieces[part.piece]
            meshes.append(piece.mesh)
            boxes.append(piece.grid.box_of_range(part.cell_lo, part.cell_hi))
        for piece in prepared.pieces:
            dims = np.array(piece.grid.dims)
            for _ in range(4):
                lo = rng.integers(0, dims)
                hi = lo + rng.integers(0, dims - lo)
                meshes.append(piece.mesh)
                boxes.append(piece.grid.box_of_range(lo, hi))
    assert len(boxes) >= 8
    for piece_mesh in {id(m): m for m in meshes}.values():
        mine = [box for m, box in zip(meshes, boxes) if m is piece_mesh]
        _assert_batching_is_invisible([piece_mesh] * len(mine), mine)
        assert _same_mesh(clip_to_box(piece_mesh, mine[0]),
                          clip_to_box(piece_mesh, mine)[0])
    alone = _assert_batching_is_invisible(meshes, boxes)
    assert any(not part.is_empty for part in alone)


def test_batched_box_clip_edge_cases():
    """In one batch: a box inside the solid, a box in hollow_box's cavity,
    a box no thicker than PLANE_EPS, a repeated box and a box the mesh
    lies wholly inside, each as it comes alone."""
    cube, hollow = unit_cube(), hollow_box()
    center = aabb_of(hollow).center
    inside = Aabb((0.25, 0.25, 0.25), (0.5, 0.75, 0.625))
    thin = Aabb((0.5, 0.25, 0.25), (0.5 + PLANE_EPS, 0.75, 0.75))
    whole = Aabb((-1.0, -1.0, -1.0), (2.0, 2.0, 2.0))
    half = Aabb((-1.0, -1.0, -1.0), (0.5, 2.0, 2.0))
    meshes = [cube, hollow, cube, cube, hollow, cube, cube]
    boxes = [inside, Aabb(center - 1.0, center + 1.0), thin, half,
             Aabb(aabb_of(hollow).min - 1.0, aabb_of(hollow).max + 1.0), half, whole]
    got = clip_to_box(meshes, boxes)
    _assert_batching_is_invisible(meshes, boxes)
    assert measure(got[0]).volume == pytest.approx(np.prod(inside.extent), rel=1e-12)
    assert validate_watertight(got[0]).is_watertight
    assert got[1].is_empty and got[2].is_empty
    assert _same_mesh(got[3], got[5]) and got[3] is not got[5]
    assert measure(got[3]).volume == pytest.approx(0.5, rel=1e-12)
    for source, copy in ((hollow, got[4]), (cube, got[6])):
        assert copy is not source and copy.vertices is not source.vertices
        assert _same_mesh(copy, source)
    assert clip_to_box(cube, []) == []
    with pytest.raises(ValueError):
        clip_to_box([cube], [inside, whole])


@pytest.mark.parametrize("make_mesh", _FIXTURES + [wedge],
                         ids=_FIXTURE_IDS + ["wedge"])
def test_cut_by_plane_is_two_lone_cuts(make_mesh):
    """cut_by_plane's halves, cut in one batched pass, are bit for bit
    the two one-entry cuts at the fixture's mirror plane."""
    from parallelobox.preprocess import find_best_symmetry_plane
    mesh = make_mesh()
    plane = find_best_symmetry_plane(mesh)
    positive, negative = cut_by_plane(mesh, plane.normal, plane.offset)
    assert not positive.is_empty and not negative.is_empty
    assert _same_mesh(positive, clip_halfspace(mesh, -plane.normal, -plane.offset))
    assert _same_mesh(negative, clip_halfspace(mesh, plane.normal, plane.offset))
