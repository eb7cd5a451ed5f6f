"""Half-space and axis-box clipping of triangle meshes.

The volumetric kernel cuts closed meshes with planes: each triangle is
clipped Sutherland-Hodgman style against its half-space, the open boundary
left on the plane is assembled into loops, and the loops are triangulated
into cap faces so every intermediate stays watertight.  Intersection
points are interpolated once per undirected edge, so both triangles
sharing an edge reuse the bit-identical point and the cut never tears the
surface.

The half-space cut is built from arrays, not a loop over triangles, and
cuts a batch of (mesh, plane) entries in one pass: their vertices and
triangles are stacked entry after entry, each entry's new points placed
after its own old vertices, so every entry comes out bit for bit as its
lone cut.  Slot j of a crossing triangle stands for the edge into corner
j: it emits the edge's cut point when the edge changes sign strictly, then
the corner when it is kept, in a padded (crossing, 6) array.  The cut
edges, read row-major, are numbered by first occurrence (``np.unique``
and an argsort of the first indices), so the new points come out in the
order of a triangle-by-triangle walk; each row's emitted ids are closed up
and fan-triangulated.  The cap's boundary edges are read from the edges in
the cut plane only, and each entry's loops are capped in its own plane
coordinates.  A box clip is six batched passes, one per box plane, over
all the boxes of a call, and :func:`cut_by_plane` is one pass of two
entries.

A cap is triangulated over the corners of its loops.  Cut loops of
voxel-like models are mostly vertices collinear with both neighbours;
those are set aside, each run under the corner edge that spans it, with
the turns of every loop of a pass computed at once.  One plane sweep
over all corner rings of a cap, outer rings and holes together, adds a
diagonal at each split and merge corner (de Berg et al., "Computational
Geometry", ch. 3), so holes need no bridges.  The y-monotone faces are
read back by the left-face traversal that assembles the loops, each is
triangulated with the two-chain stack, and each run is fanned back into
the one cap triangle that holds its corner edge.

The surface-only clip, which needs no topology, is Sutherland-Hodgman
("Reentrant polygon clipping", CACM 1974) to every cell of a grid, one
axis at a time.  Each triangle is expanded into the x-slabs its
bounding box overlaps and clipped to their max then min x plane; the
survivors are expanded into their (x, y) columns and clipped in y, and
those into their cells and clipped in z.  A triangle's x passes are so
shared by the cells of a slab, and its y passes by those of a column,
while each cell still sees its own six planes in the order max x, min x,
max y, min y, max z, min z.  A pass is vectorized over all polygons at
once, their vertices one after another in one flat array.  A triangle
is not taken into a slab it lies farther than PLANE_EPS outside of; the
pieces come back fan-triangulated.

Vertices within PLANE_EPS of a cut plane are snapped onto it before
classification, which keeps near-tangent geometry from generating sliver
loops.  Both clippers give a face lying in a cut plane, every corner
snapped onto it, to the side it faces out of: the side whose solid it
bounds.  So every cut stays closed, and cells and clipped boxes agree.

Volumetric operations need a closed mesh (NonWatertightInput otherwise),
checked once per input mesh and call.  A box clip is the six cuts alone,
less each cut whose plane the mesh lies more than PLANE_EPS inside of:
that cut would only copy the mesh.  A box the surface misses needs no
case of its own: inside the solid the cuts build it from their caps,
outside it they keep nothing.  The result is welded at PLANE_EPS
resolution, and it is empty when no triangle keeps three corners apart,
so a surface that only touches a box gives nothing.
"""
from __future__ import annotations

import heapq
import itertools
import logging
import math
from collections import defaultdict

import numpy as np

from .errors import DegenerateBox, NonWatertightInput
from .mesh import (
    Aabb,
    TriangleMesh,
    cross,
    validate_watertight,
)

logger = logging.getLogger(__name__)

#: Distance (mm) below which a vertex is considered to lie on a cut plane.
PLANE_EPS = 1e-9

#: Most (point, triangle) pairs one winding-number block sums at once.
_WINDING_PAIRS = 1 << 16


# ---------------------------------------------------------------------------
# surface-only clipping (coordinate polygons, no topology needed)


def clip_surface_to_box(mesh: TriangleMesh, grid):
    """Clip the surface to every cell of a grid, keeping no volume
    information.

    grid is a :class:`~parallelobox.grid.Grid` whose cells are the boxes:
    cell (i, j, k) spans origin + (i, j, k) * cell_size to that plus
    cell_size on each axis, and each triangle is clipped to the cells its
    bounding box overlaps.  Returns (pieces, sources, cells): the (k, 3, 3)
    output triangles, the triangle id each came from, and the flat C-order
    index of its cell, sorted by cell, then triangle, then fan order.
    """
    corners = mesh.vertices[mesh.triangles]
    c0, c1, c2 = corners.transpose(1, 0, 2)     # numpy reduces (m, 3, 3) slowly
    tri_lo = np.minimum(np.minimum(c0, c1), c2)
    tri_hi = np.maximum(np.maximum(c0, c1), c2)
    normals = cross(c1 - c0, c2 - c0)
    dims, size = grid.dims, grid.cell_size
    top = np.array(dims) - 1
    first = np.clip(np.floor((tri_lo - grid.origin) / size - 1e-12).astype(np.int64), 0, top)
    last = np.clip(np.floor((tri_hi - grid.origin) / size + 1e-12).astype(np.int64), 0, top)
    planes = []
    for axis in range(3):
        lo = grid.origin[axis] + np.arange(dims[axis]) * size
        planes.append((lo, lo + size))
    # The polygons so far, one per row, lie one after another in verts.  A
    # row also has its triangle and the flat index of its cell over the
    # axes done.
    verts, count = corners.reshape(-1, 3), np.full(len(corners), 3)
    tris = np.arange(len(corners))
    cells = np.zeros(len(corners), dtype=np.int64)
    for axis in range(3):
        # Each row becomes one row per slab along the axis that its
        # triangle's bounding box overlaps, less those its triangle lies
        # farther than PLANE_EPS outside of: they would be clipped away.
        parent, rank = _expand((last - first + 1)[tris, axis])
        tri = tris[parent]
        slab = first[tri, axis] + rank
        lo, hi = planes[axis][0][slab], planes[axis][1][slab]
        near = np.flatnonzero((tri_lo[tri, axis] - hi <= PLANE_EPS)
                              & (lo - tri_hi[tri, axis] <= PLANE_EPS))
        at = (np.cumsum(count) - count)[parent[near]]
        count = count[parent[near]]
        polygon, vertex = _expand(count)
        verts = verts.take(at[polygon] + vertex, axis=0)
        verts, count, kept = _clip_axis(verts, count, axis, lo[near], hi[near],
                                        normals[tri[near], axis])
        rows = near[kept]
        tris = tri[rows]
        cells = cells[parent[rows]] * dims[axis] + slab[rows]
    order = np.argsort(cells * len(corners) + tris)
    # Fan triangulation (poly[0], poly[k], poly[k + 1]), polygon by polygon.
    polygon, k = _expand(count[order] - 2)
    at = (np.cumsum(count) - count)[order][polygon]
    pieces = verts.take(np.stack([at, at + k + 1, at + k + 2], axis=1), axis=0)
    return pieces, tris[order][polygon], cells[order][polygon]


def _expand(counts):
    """(group, rank) of sum(counts) items laid out group after group:
    counts[g] items of group g, ranked 0 to counts[g] - 1."""
    group = np.repeat(np.arange(len(counts)), counts)
    return group, np.arange(len(group)) - (np.cumsum(counts) - counts)[group]


def _clip_axis(verts, count, axis, lo, hi, facing):
    """Clip polygons to lo <= x[axis] <= hi: a Sutherland-Hodgman pass
    against the max plane, then one against the min plane.

    The polygons lie one after another in verts, count[i] vertices for
    polygon i, each with its own lo and hi and, in facing, the axis
    component of its triangle's normal.  Returns the surviving polygons in
    the same layout, their vertex counts and their positions in the input.
    """
    pos = np.arange(len(count))
    for bound, sign in ((hi, 1.0), (lo, -1.0)):
        owner = np.repeat(np.arange(len(count)), count)
        d = sign * (verts[:, axis] - bound[pos].take(owner))
        d[np.abs(d) <= PLANE_EPS] = 0.0
        # Drop polygons cut below three vertices, and those in the plane facing in.
        live = (count >= 3) & ((np.bincount(owner, d != 0.0, len(count)) > 0.0)
                               | (sign * facing[pos] > 0.0))
        if not live.all():
            verts, d = verts.compress(live[owner], axis=0), d.compress(live[owner])
            count, pos = count[live], pos[live]
        verts, count = _clip_pass(verts, count, d)
    live = count >= 3
    owner = np.repeat(np.arange(len(count)), count)
    return verts.compress(live[owner], axis=0), count[live], pos[live]


def _clip_pass(verts, count, d):
    """One Sutherland-Hodgman pass keeping d <= 0, over polygons laid out
    as in :func:`_clip_axis`, each of at least three vertices.

    Each vertex emits the crossing point of the edge from its predecessor
    when that edge changes sign strictly, then itself when d <= 0: the
    vertices are repeated by their emission counts, and the crossing
    points written over the first copies.  Returns the new polygons and
    their vertex counts.
    """
    first = np.cumsum(count) - count
    prev = np.arange(len(d)) - 1
    prev[first] = first + count - 1
    dp = d.take(prev)
    cross = ((dp > 0.0) & (d < 0.0)) | ((dp < 0.0) & (d > 0.0))
    emitted = cross.astype(np.int8) + (d <= 0.0)
    c = np.flatnonzero(cross)
    # Only the crossing edges are read from here on; dropping the rest
    # frees their arrays before the output copy.
    prev, dp = prev[c], dp[c]
    t = dp / (dp - d[c])
    a = verts.take(prev, axis=0)
    points = a + t[:, None] * (verts.take(c, axis=0) - a)
    out = np.repeat(verts, emitted, axis=0)
    # Written through a view with one item per point: numpy scatters such
    # items much faster than rows of three floats.
    row = np.dtype((np.void, out.itemsize * 3))
    out.view(row)[np.cumsum(emitted)[c] - emitted[c], 0] = points.view(row)[:, 0]
    return out, np.add.reduceat(emitted, first, dtype=np.int64)


# ---------------------------------------------------------------------------
# watertight half-space clipping


def clip_halfspace(mesh: TriangleMesh, normal, offset: float) -> TriangleMesh:
    """Keep the region of a closed mesh with ``normal . v <= offset``.

    The caller is responsible for the input being watertight; the output is
    then watertight as well (the cut is capped).  A triangle lying in the
    plane is kept when it faces out of the kept side, ``(p1 - p0) x (p2 -
    p0) . normal > 0``: the side whose solid it bounds.
    """
    return _clip_halfspaces([(mesh, normal, offset)])[0]


def _clip_halfspaces(cuts) -> list[TriangleMesh]:
    """Cut every (mesh, normal, offset) entry of cuts as
    :func:`clip_halfspace` does, in one pass.

    The entries' vertices and triangles are stacked entry after entry, and
    every step but the triangulation of each cap runs once over the stack.
    An entry's block of the stack holds its old vertices, then its new
    points, so each result is bit for bit that of a lone cut: its new
    points are numbered by first encounter in its own triangles, it keeps
    its old vertices before its new ones, and its triangles are its kept
    ones, its fans, then its caps.
    """
    if not cuts:
        return []
    meshes = [entry[0] for entry in cuts]
    normals = [np.asarray(entry[1], dtype=np.float64).reshape(3) for entry in cuts]
    d = np.concatenate([m.vertices @ n - float(entry[2])
                        for m, n, entry in zip(meshes, normals, cuts)])
    d[np.abs(d) <= PLANE_EPS] = 0.0
    counts = np.array([len(m.vertices) for m in meshes])
    vstart = np.cumsum(counts) - counts
    verts = np.concatenate([m.vertices for m in meshes])
    tri_entry = np.repeat(np.arange(len(cuts)), [len(m.triangles) for m in meshes])
    triangles = np.concatenate([m.triangles for m in meshes]).astype(np.int64)
    triangles += vstart[tri_entry][:, None]

    tri_d = d[triangles]
    # Per-corner columns: numpy reduces a short last axis slowly.
    d0, d1, d2 = tri_d.T
    keep_full = (d0 <= 0.0) & (d1 <= 0.0) & (d2 <= 0.0)
    drop_full = (d0 > 0.0) & (d1 > 0.0) & (d2 > 0.0)
    crossing = np.nonzero(~keep_full & ~drop_full)[0]
    # A triangle in the plane is kept when it faces out of the kept side.
    flat = np.flatnonzero((d0 == 0.0) & (d1 == 0.0) & (d2 == 0.0))
    if len(flat):
        p0, p1, p2 = verts[triangles[flat]].transpose(1, 0, 2)
        keep_full[flat] = np.einsum("ij,ij->i", cross(p1 - p0, p2 - p0),
                                    np.array(normals)[tri_entry[flat]]) > 0.0

    # Slot j of a crossing triangle walks the edge from corner j - 1 to
    # corner j: it emits the edge's cut point when the edge changes sign
    # strictly, then corner j when it is kept.
    cur = triangles[crossing]
    prev = cur[:, [2, 0, 1]]
    dc = tri_d[crossing]
    dp = dc[:, [2, 0, 1]]
    cut = ((dp > 0.0) & (dc < 0.0)) | ((dp < 0.0) & (dc > 0.0))
    # One point per undirected edge, numbered in order of first encounter
    # (row-major over the cut mask), so both sides of an edge share it.
    # The rows run entry after entry, and so do the numbers.
    rows, cols = np.nonzero(cut)
    a = np.minimum(prev[rows, cols], cur[rows, cols])
    b = np.maximum(prev[rows, cols], cur[rows, cols])
    _, first, inverse = np.unique(a * len(verts) + b, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    a, b = a[first[order]], b[first[order]]
    t = d[a] / (d[a] - d[b])
    new_points = verts[a] + t[:, None] * (verts[b] - verts[a])

    # Each entry's block: its old vertices, then its new points.
    added = np.bincount(tri_entry[crossing[rows[first[order]]]],
                        minlength=len(cuts))
    before = np.cumsum(added) - added       # new points of earlier entries
    block = vstart + before
    old_at = np.arange(len(verts)) + np.repeat(before, counts)
    new_at = np.arange(len(new_points)) + np.repeat(vstart + counts, added)
    all_verts = np.empty((len(verts) + len(new_points), 3))
    all_verts[old_at] = verts
    all_verts[new_at] = new_points

    slots = np.full((len(crossing), 6), -1, dtype=np.int64)
    slots[rows, 2 * cols] = new_at[rank[inverse.reshape(-1)]]
    slots[:, 1::2] = np.where(dc <= 0.0, old_at[cur], -1)
    # Close up each row's emitted ids, then fan (poly[0], poly[k], poly[k+1]).
    r, c = np.nonzero(slots >= 0)
    count = np.bincount(r, minlength=len(slots))
    poly = np.zeros_like(slots)
    poly[r, np.arange(len(r)) - (np.cumsum(count) - count)[r]] = slots[r, c]
    r, k = np.nonzero(np.arange(1, 5) < count[:, None] - 1)
    k = k + 1
    fans = np.stack([poly[r, 0], poly[r, k], poly[r, k + 1]], axis=1)
    tris = np.concatenate([old_at[triangles[keep_full]], fans])

    if len(tris):
        on = np.ones(len(all_verts), dtype=bool)
        on[old_at] = d == 0.0
        planes = [(n, lo, lo + size) for n, lo, size
                  in zip(normals, block.tolist(), (counts + added).tolist())]
        tris = np.concatenate([tris, _build_caps(all_verts, tris, on, planes)])
    # Kept triangles, fans and caps, entry by entry; then the vertices no
    # triangle uses are dropped, and each entry's are numbered from 0.
    owner = np.searchsorted(block, tris[:, 0], side="right") - 1
    tris = tris[np.argsort(owner, kind="stable")]
    used = np.zeros(len(all_verts), dtype=bool)
    used[tris] = True
    prior = np.concatenate([[0], np.cumsum(used)])     # used vertices before
    faces = np.bincount(owner, minlength=len(cuts))
    out_verts = all_verts[used]
    out_tris = (prior[tris] - np.repeat(prior[block], faces)[:, None]).astype(np.int32)
    v_end = prior[block + counts + added].tolist()
    t_end = np.cumsum(faces).tolist()
    return [TriangleMesh(out_verts[v0:v1], out_tris[t0:t1], m.name) if t1 > t0
            else TriangleMesh.empty(m.name)
            for m, v0, v1, t0, t1 in zip(meshes, prior[block].tolist(), v_end,
                                         [0] + t_end[:-1], t_end)]


def _boundary_edges(tris: np.ndarray, on: np.ndarray) -> np.ndarray:
    """(m, 2) directed edges that have no opposite-direction partner, one
    row per unpartnered copy, in ascending order of (start, end).

    Only edges with both ends marked in ``on`` are read: every open edge
    of a cut through a closed mesh lies in the cut plane.
    """
    t = np.asarray(tris, dtype=np.int64)
    t_on = on[t]
    start, end = [], []
    for i, j in ((0, 1), (1, 2), (2, 0)):
        both = t_on[:, i] & t_on[:, j]
        start.append(t[both, i])
        end.append(t[both, j])
    start, end = np.concatenate(start), np.concatenate(end)
    if len(start) == 0:
        return np.zeros((0, 2), dtype=np.int64)
    base = int(max(start.max(), end.max())) + 1
    keys, counts = np.unique(start * base + end, return_counts=True)
    rev = (keys % base) * base + keys // base
    pos = np.clip(np.searchsorted(keys, rev), 0, len(keys) - 1)
    rev_counts = np.where(keys[pos] == rev, counts[pos], 0)
    excess = np.maximum(counts - rev_counts, 0)
    keys = np.repeat(keys, excess)
    return np.column_stack([keys // base, keys % base])


def _plane_basis(n: np.ndarray):
    """Orthonormal (u, v) in the plane with u x v = n."""
    pick = np.zeros(3)
    pick[int(np.argmin(np.abs(n)))] = 1.0
    u = cross(n, pick)
    u /= np.linalg.norm(u)
    v = cross(n, u)
    return u, v


def _build_caps(verts: np.ndarray, tris: np.ndarray, on: np.ndarray,
                planes) -> np.ndarray:
    """Triangulate the open boundary (reversed) into cap faces; on marks
    the vertices in a cut plane.

    planes holds, per entry of a batched cut, its normal n and the range
    [start, stop) of its vertices.  Each entry's vertices are read in its
    own plane coordinates and its loops form a region of their own, so
    its caps are those of a lone cut.
    """
    boundary = _boundary_edges(tris, on)
    if not len(boundary):
        return np.zeros((0, 3), dtype=np.int64)
    starts = np.array([start for _, start, _ in planes])
    uv = np.zeros((len(verts), 2))
    owner = np.searchsorted(starts, boundary[:, 0], side="right") - 1
    for e in np.flatnonzero(np.bincount(owner)).tolist():
        n, start, stop = planes[e]
        u, v = _plane_basis(n)
        local = verts[start:stop]
        uv[start:stop, 0] = local @ u
        uv[start:stop, 1] = local @ v
    ends = boundary.ravel()
    loops = _assemble_loops(boundary[:, ::-1].tolist(),
                            dict(zip(ends.tolist(), uv[ends].tolist())))
    region = np.searchsorted(starts, [loop[0] for loop in loops], side="right") - 1
    cap = _triangulate_region(uv, loops, region)
    return np.fromiter(itertools.chain.from_iterable(cap), dtype=np.int64,
                       count=3 * len(cap)).reshape(-1, 3)


def _assemble_loops(edges: list[tuple[int, int]], uv) -> list[list[int]]:
    """Chain directed edges into closed loops; uv[i] is vertex i's (u, v).

    At a vertex with several outgoing edges the most counterclockwise turn
    is taken, and turning back along the edge just walked comes last, which
    keeps touching loops separate (left-face traversal).  A walk that comes
    back to a vertex it has passed closes a loop there, so no loop passes a
    vertex twice.
    """
    succ: dict[int, list[int]] = defaultdict(list)
    for a, b in edges:
        succ[a].append(b)
    for a in succ:
        succ[a].sort()
    loops: list[list[int]] = []
    starts = sorted(succ)
    for start in starts:
        while succ[start]:
            loop = [start]
            at = {start: 0}     # position of each vertex in loop
            prev = None
            cur = start
            while True:
                options = succ[cur]
                if not options:
                    logger.warning("open boundary chain at vertex %d; cap skipped", cur)
                    break
                if len(options) == 1 or prev is None:
                    nxt = options.pop(0)
                else:
                    (px, py), (cx, cy) = uv[prev], uv[cur]
                    dx, dy = cx - px, cy - py
                    best_k, best_ang = 0, -math.inf
                    for k, cand in enumerate(options):
                        wx, wy = uv[cand][0] - cx, uv[cand][1] - cy
                        ang = -math.inf if cand == prev else math.atan2(
                            dx * wy - dy * wx, dx * wx + dy * wy)
                        if ang > best_ang:
                            best_k, best_ang = k, ang
                    nxt = options.pop(best_k)
                if nxt in at:
                    k = at[nxt]
                    if len(loop) - k >= 3:
                        loops.append(loop[k:])
                    for v in loop[k + 1:]:
                        del at[v]
                    del loop[k + 1:]
                    if k == 0:
                        break
                else:
                    at[nxt] = len(loop)
                    loop.append(nxt)
                prev, cur = cur, nxt
    return loops


def _triangulate_region(uv: np.ndarray, loops: list[list[int]],
                        region=None) -> list[tuple[int, int, int]]:
    """Triangulate the region bounded by CCW outer loops and CW holes.

    region gives each loop's region, 0 for all when omitted.  Each region
    is triangulated on its own, with its own area scale.  Each loop is cut
    down to its corners first (:func:`_corner_rings`), the corner rings of
    a region are triangulated together (:func:`_triangulate_rings`), and
    the dropped runs are fanned back in (:func:`_fan_runs`).
    """
    if not loops:
        return []
    region = np.zeros(len(loops), dtype=np.int64) if region is None else np.asarray(region)
    sizes = np.array([len(ring) for ring in loops])
    flat = np.fromiter(itertools.chain.from_iterable(loops), dtype=np.int64,
                       count=int(sizes.sum()))
    first = np.cumsum(sizes) - sizes
    pts = uv[flat]
    ext = np.maximum.reduceat(pts, first) - np.minimum.reduceat(pts, first)
    ext = np.maximum(ext[:, 0], ext[:, 1])
    scale = np.zeros(int(region.max()) + 1)
    np.maximum.at(scale, region, ext)
    eps_area = 1e-12 * scale * scale + 1e-300

    runs: list[tuple[int, int, list[int]]] = []
    rings = _corner_rings(loops, pts, eps_area[region], runs)
    tris: list[tuple[int, int, int]] = []
    for r in np.flatnonzero(np.bincount(region)).tolist():
        mine = np.flatnonzero(region == r).tolist()
        tris.extend(_triangulate_rings(uv, [rings[i] for i in mine], float(eps_area[r])))
    return _fan_runs(tris, runs)


def _triangulate_rings(uv: np.ndarray, rings: list[list[int]],
                       eps_area: float) -> list[tuple[int, int, int]]:
    """Triangulate the corner rings of one region, which lies on the left
    of every ring edge.

    One sweep in decreasing v, then increasing u, ties broken by vertex id,
    runs over all rings at once and joins each split and merge corner to
    the helper of the edge to its west (de Berg et al., Computational
    Geometry, ch. 3).  The diagonals cut the region into y-monotone faces,
    holes included, without matching holes to outer rings.  The faces are
    read back by left-face traversal and triangulated one by one.
    """
    # Corner c of the flattened rings is vertex ids[c]; its ring edge runs
    # to corner nxt[c].  Ring r holds corners bounds[r] to bounds[r + 1].
    ids = list(itertools.chain.from_iterable(rings))
    bounds = list(itertools.accumulate([len(ring) for ring in rings], initial=0))
    nxt, prv = [], []
    for a, b in zip(bounds, bounds[1:]):
        nxt += list(range(a + 1, b)) + [a]
        prv += [b - 1] + list(range(a, b - 1))
    pts = uv[ids].tolist()
    order = sorted(range(len(ids)), reverse=True,
                   key=lambda c: (pts[c][1], -pts[c][0], ids[c], c))
    rank = [0] * len(ids)
    for r, c in enumerate(order):
        rank[c] = r

    def orient(a: int, b: int, c: int) -> float:
        (ax, ay), (bx, by), (cx, cy) = pts[a], pts[b], pts[c]
        return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)

    # A ring turns the way it winds at its first corner in the sweep; a
    # region with no CCW ring is trash and gets no triangles.
    tops = [order[min(rank[a:b])] for a, b in zip(bounds, bounds[1:])]
    if all(orient(prv[t], t, nxt[t]) < 0.0 for t in tops):
        return []

    def west_of(q: int):
        """The status edge nearest west of corner q, None when there is
        none.  A corner on an edge, within eps_area, is on the side of its
        ring neighbours."""
        best = None
        # helper holds the status edges in the order they started in the
        # sweep, so best started before e: e lies east of best when e's
        # start, or else its end, lies east of best.
        for e in helper:
            side = orient(e, nxt[e], q)
            if abs(side) <= eps_area:
                side = orient(e, nxt[e], prv[q]) + orient(e, nxt[e], nxt[q])
            if side > 0.0 and (best is None or (
                    orient(best, nxt[best], e)
                    or orient(best, nxt[best], nxt[e])) > 0.0):
                best = e
        return best

    # The status: each edge c -> nxt[c] that crosses the sweep line with
    # the region on its east, and its helper, the lowest corner passed so
    # far whose way west along the sweep line to the edge stays inside.
    helper: dict[int, int] = {}
    merges: set[int] = set()
    diagonals: list[tuple[int, int]] = []
    for q in order:
        p, s = prv[q], nxt[q]
        p_above, s_above = rank[p] < rank[q], rank[s] < rank[q]
        reflex = orient(p, q, s) <= 0.0
        split = reflex and not p_above and not s_above
        merge = reflex and p_above and s_above
        if p_above:                     # the edge p -> q ends
            if helper[p] in merges:
                diagonals.append((q, helper[p]))
            del helper[p]
        if split or merge or (s_above and not p_above):
            e = west_of(q)
            if e is not None:
                if split or helper[e] in merges:
                    diagonals.append((q, helper[e]))
                helper[e] = q
            if merge:
                merges.add(q)
        if not s_above:                 # the edge q -> s starts
            helper[q] = q
    xy = dict(zip(ids, pts))
    faces = rings
    if diagonals:
        edges = [(ids[c], ids[nxt[c]]) for c in range(len(ids))]
        for a, b in diagonals:
            if ids[a] != ids[b]:
                edges += [(ids[a], ids[b]), (ids[b], ids[a])]
        faces = _assemble_loops(edges, xy)
    tris: list[tuple[int, int, int]] = []
    for face in faces:
        tris.extend(_triangulate_monotone(xy, face, eps_area))
    return tris


def _triangulate_monotone(xy: dict, face: list[int],
                          eps_area: float) -> list[tuple[int, int, int]]:
    """Triangulate a y-monotone CCW face with the two-chain stack (de Berg
    et al., ch. 3.3); xy maps each corner to its (u, v).

    The chains from the top corner down to the bottom one are merged in
    the sweep's order.  A corner on the other chain than the top of the
    stack fans to the whole stack; a corner on the same chain cuts off the
    stacked corners that turn convex (by more than eps_area) as seen from
    it.  Each chain keeps its own order in the merge, so every triangle
    joins corners adjacent on what is left of the face.
    """
    n = len(face)
    key = [(xy[i][1], -xy[i][0], i) for i in face]
    top, bottom = key.index(max(key)), key.index(min(key))
    west = [(key[(top + k) % n], 0, face[(top + k) % n])
            for k in range(1, (bottom - top) % n)]
    east = [(key[(top - k) % n], 1, face[(top - k) % n])
            for k in range(1, (top - bottom) % n)]

    def tri(hi: int, lo: int, apex: int, chain: int) -> tuple[int, int, int]:
        """The CCW triangle of apex and the edge hi-lo of a chain."""
        return (hi, lo, apex) if chain == 0 else (lo, hi, apex)

    def convex(t: tuple[int, int, int]) -> bool:
        (ax, ay), (bx, by), (cx, cy) = xy[t[0]], xy[t[1]], xy[t[2]]
        return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) > eps_area

    tris: list[tuple[int, int, int]] = []
    stack, side = [face[top]], -1
    for _, chain, v in heapq.merge(west, east, reverse=True):
        if chain != side:
            tris += [tri(a, b, v, side) for a, b in zip(stack, stack[1:])]
            stack = [stack[-1], v]
        else:
            last = stack.pop()
            while stack and convex(tri(stack[-1], last, v, chain)):
                tris.append(tri(stack[-1], last, v, chain))
                last = stack.pop()
            stack += [last, v]
        side = chain
    tris += [tri(a, b, face[bottom], side) for a, b in zip(stack, stack[1:])]
    return tris


def _corner_rings(loops: list[list[int]], pts: np.ndarray, eps_area: np.ndarray,
                  runs: list[tuple[int, int, list[int]]]) -> list[list[int]]:
    """The loops without the vertices that lie on a straight edge.

    pts holds the uv of the loops' vertices, one loop after another, and
    eps_area the turn tolerance of each loop.  A vertex at the same point
    as its predecessor is dropped, and so is a vertex collinear with both
    neighbours (turn within eps_area) and between them; the turns of all
    loops are computed at once.  Each run of dropped vertices is appended
    to runs as (a, b, [p1, ..., pk]) under the corner edge a -> b that now
    spans it.  Cut rings of voxel-like models are mostly such vertices.  A
    loop that would keep fewer than three corners is kept whole.
    """
    sizes = np.array([len(ring) for ring in loops])
    loop = np.repeat(np.arange(len(loops)), sizes)
    first = np.cumsum(sizes) - sizes
    prev = np.arange(len(pts)) - 1
    prev[first] = first + sizes - 1
    moved = np.flatnonzero((pts[:, 0] != pts[prev, 0]) | (pts[:, 1] != pts[prev, 1]))
    # Per loop, each moved vertex's edge to the next one, wrapping.
    q = pts[moved]
    owner = loop[moved]
    count = np.bincount(owner, minlength=len(loops))
    last = (np.cumsum(count) - 1)[count > 0]
    after = np.arange(1, len(moved) + 1)
    after[last] = last + 1 - count[count > 0]
    e_out = q[after] - q
    e_in = np.empty_like(e_out)     # q - its predecessor
    e_in[after] = e_out
    turn = e_in[:, 0] * e_out[:, 1] - e_in[:, 1] * e_out[:, 0]
    ahead = e_in[:, 0] * e_out[:, 0] + e_in[:, 1] * e_out[:, 1] > 0.0
    corner = (np.abs(turn) > eps_area[owner]) | ~ahead
    kept_at = (moved - first[owner])[corner].tolist()
    ends = np.cumsum(np.bincount(owner[corner], minlength=len(loops))).tolist()
    rings: list[list[int]] = []
    for ring, end, begin in zip(loops, ends, [0] + ends[:-1]):
        kept = kept_at[begin:end]
        n = len(ring)
        if len(kept) < 3 or len(kept) == n:
            rings.append(list(ring))
            continue
        for a, b in zip(kept, kept[1:] + [kept[0] + n]):
            if b - a > 1:
                runs.append((ring[a], ring[b % n], [ring[k % n] for k in range(a + 1, b)]))
        rings.append([ring[k] for k in kept])
    return rings


def _fan_runs(tris: list[tuple[int, int, int]],
              runs: list[tuple[int, int, list[int]]]) -> list[tuple[int, int, int]]:
    """Fan each run (a, b, [p1, ..., pk]) into the triangle (a, b, c) that
    holds its corner edge: (a, p1, c), (p1, p2, c), ..., (pk, b, c).  A run
    whose ring was not triangulated is dropped with it."""
    owner: dict[tuple[int, int], list[int]] = {(a, b): [] for a, b, _ in runs}
    for i, (x, y, z) in enumerate(tris):
        for edge in ((x, y), (y, z), (z, x)):
            if edge in owner:
                owner[edge].append(i)
    for a, b, run in runs:
        if not owner[(a, b)]:
            continue
        i = owner[(a, b)].pop()
        x, y, z = tris[i]
        c = z if (x, y) == (a, b) else x if (y, z) == (a, b) else y
        tris[i] = (a, run[0], c)
        tris.extend(zip(run, run[1:] + [b], [c] * len(run)))
        # Edge b -> c moved to the last triangle of the fan.
        if (b, c) in owner:
            held = owner[(b, c)]
            held[held.index(i)] = len(tris) - 1
    return tris


# ---------------------------------------------------------------------------
# box clipping


def _check_box(box: Aabb) -> None:
    if np.any(box.extent <= 0.0):
        raise DegenerateBox(f"box extent must be positive, got {box.extent}")


def clip_to_box(mesh, boxes):
    """Clip a watertight mesh to an axis-aligned box, or to each of a
    sequence of boxes.

    boxes is one Aabb, which gives one mesh, or a sequence of them, which
    gives a list of meshes in the same order.  mesh is the mesh of every
    box, or a sequence of meshes, one per box.  Each input mesh is checked
    to be closed once per call.  A result is a watertight solid with caps
    on the box faces, the box built from caps alone when it lies inside
    the solid.  It is empty when the box holds none of the solid, or when
    no triangle of it keeps three corners apart at PLANE_EPS resolution.

    The boxes are clipped together in six batched passes, one per box
    plane (max x, min x, max y, min y, max z, min z), each result bit for
    bit that of clipping its box alone.
    """
    one = isinstance(boxes, Aabb)
    boxes = [boxes] if one else list(boxes)
    meshes = [mesh] * len(boxes) if isinstance(mesh, TriangleMesh) else list(mesh)
    if len(meshes) != len(boxes):
        raise ValueError(f"{len(meshes)} meshes for {len(boxes)} boxes")
    for box in boxes:
        _check_box(box)
    for m in {id(m): m for m in meshes}.values():
        if not validate_watertight(m).is_watertight:
            raise NonWatertightInput("volumetric clipping needs a closed mesh")
    current = list(meshes)
    live = list(range(len(boxes)))
    for axis in range(3):
        for sign in (1.0, -1.0):
            normal = sign * np.eye(3)[axis]
            cuts, cut = [], []
            for i in live:
                # normal . v - offset as clip_halfspace computes it, at the
                # vertex nearest the plane: it rounds monotonically in v.
                offset = sign * (boxes[i].max if sign > 0.0 else boxes[i].min)[axis]
                if (sign * current[i].vertices[:, axis]).max() - offset >= -PLANE_EPS:
                    cuts.append((current[i], normal, offset))
                    cut.append(i)
            for i, result in zip(cut, _clip_halfspaces(cuts)):
                current[i] = result
            live = [i for i in live if not current[i].is_empty]
    results = [TriangleMesh.empty(m.name) for m in meshes]
    if live:
        for i, collapsed in zip(live, _weld_away([current[i] for i in live]).tolist()):
            if not collapsed:
                results[i] = meshes[i].copy() if current[i] is meshes[i] else current[i]
    return results[0] if one else results


def _weld_away(meshes: list[TriangleMesh]) -> np.ndarray:
    """Whether each nonempty mesh loses every triangle when welded at
    PLANE_EPS: a surface that only touches a box leaves slivers narrower
    than that."""
    corners = np.concatenate([m.vertices[m.triangles] for m in meshes])
    keys = np.round(corners / PLANE_EPS).astype(np.int64)
    a, b, c = keys[:, 0], keys[:, 1], keys[:, 2]

    def differ(p, q):
        return (p[:, 0] != q[:, 0]) | (p[:, 1] != q[:, 1]) | (p[:, 2] != q[:, 2])

    apart = differ(a, b) & differ(b, c) & differ(c, a)
    sizes = np.array([len(m.triangles) for m in meshes])
    return ~np.logical_or.reduceat(apart, np.cumsum(sizes) - sizes)


def cut_by_plane(mesh: TriangleMesh, normal, offset: float):
    """Split a watertight mesh by a plane into capped (positive, negative)
    halves, both cut in one batched pass."""
    n = np.asarray(normal, dtype=np.float64).reshape(3)
    if abs(np.linalg.norm(n) - 1.0) > 1e-9:
        raise ValueError("plane normal must be unit length")
    if not validate_watertight(mesh).is_watertight:
        raise NonWatertightInput("plane cutting needs a closed mesh")
    return tuple(_clip_halfspaces([(mesh, -n, -float(offset)), (mesh, n, float(offset))]))


# ---------------------------------------------------------------------------
# point containment


def points_in_mesh(mesh: TriangleMesh, points) -> np.ndarray:
    """Which points lie inside a closed mesh.

    The generalized winding number (Jacobson, Kavan & Sorkine-Hornung,
    SIGGRAPH 2013): the signed solid angles of the triangles seen from a
    point (Van Oosterom & Strackee 1983) sum to 0 outside and to +-4 pi
    inside.  Points are taken in blocks of at most _WINDING_PAIRS
    (point, triangle) pairs, which bounds the memory.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    corners = mesh.vertices[mesh.triangles]
    angles = np.zeros(len(pts))
    step = max(1, _WINDING_PAIRS // max(len(corners), 1))
    for start in range(0, len(pts), step):
        a, b, c = np.moveaxis(corners[None] - pts[start:start + step, None, None], 2, 0)
        la, lb, lc = (np.linalg.norm(x, axis=-1) for x in (a, b, c))
        det = (a * cross(b, c)).sum(axis=-1)
        den = (la * lb * lc + (a * b).sum(axis=-1) * lc
               + (a * c).sum(axis=-1) * lb + (b * c).sum(axis=-1) * la)
        angles[start:start + step] = 2.0 * np.arctan2(det, den).sum(axis=1)
    return np.abs(angles) > 2.0 * np.pi
