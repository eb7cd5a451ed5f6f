"""Half-space and axis-box clipping of triangle meshes.

The volumetric kernel cuts a closed mesh with one plane at a time: each
triangle is clipped Sutherland-Hodgman style against the half-space, the
open boundary left on the plane is assembled into loops, and the loops are
triangulated (ear clipping, holes bridged to their outer ring) into cap
faces so every intermediate stays watertight.  A box clip is six successive
half-space cuts.  Intersection points are interpolated once per undirected
edge, so both triangles sharing an edge reuse the bit-identical point and
the cut never tears the surface.

The surface-only clip, which needs no topology, is Sutherland-Hodgman
("Reentrant polygon clipping", CACM 1974) over many (triangle, box) pairs at
once: the polygons live in one padded (n, width, 3) array, and each of the
six box planes is one vectorized pass over all of them.  The width grows
with the longest polygon (a triangle gains at most one vertex per plane, so
at most 9); the pieces come back fan-triangulated.

Vertices within PLANE_EPS of a cut plane are snapped onto it before
classification, which keeps near-tangent geometry from generating sliver
loops.
"""
from __future__ import annotations

import logging
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBox, NonWatertightInput
from .mesh import (
    Aabb,
    TriangleMesh,
    box_mesh,
    compact,
    validate_watertight,
)

logger = logging.getLogger(__name__)

#: Distance (mm) below which a vertex is considered to lie on a cut plane.
PLANE_EPS = 1e-9


@dataclass(frozen=True)
class ClipResult:
    """Outcome of clip_to_box.

    surface_vertex_count counts welded vertices coming from the input
    surface (before any caps), so `> 0` means the surface crosses the box.
    """

    mesh: TriangleMesh
    surface_vertex_count: int
    capped: bool


# ---------------------------------------------------------------------------
# surface-only clipping (coordinate polygons, no topology needed)


def clip_surface_to_box(mesh: TriangleMesh, box, tri_indices=None):
    """Clip triangles to boxes, keeping no volume information.

    box is one Aabb for every triangle, or a (lo, hi) pair of (n, 3) corner
    arrays giving one box per entry of tri_indices.  Returns (pieces,
    sources): pieces is a (k, 3, 3) array of output triangles, sources the
    position in tri_indices (the triangle id when tri_indices is None) of
    the input each piece came from, in input order.
    """
    v, t = mesh.vertices, mesh.triangles
    ids = (np.arange(len(t)) if tri_indices is None
           else np.asarray(tri_indices, dtype=np.int64).reshape(-1))
    if isinstance(box, Aabb):
        _check_box(box)
        lo = np.broadcast_to(box.min, (len(ids), 3))
        hi = np.broadcast_to(box.max, (len(ids), 3))
    else:
        lo, hi = (np.asarray(c, dtype=np.float64).reshape(len(ids), 3) for c in box)
        if np.any(hi - lo <= 0.0):
            raise DegenerateBox("every box extent must be positive")
    poly = v[t[ids]]                        # (n, width, 3), padded polygons
    count = np.full(len(ids), 3)            # live vertices per polygon
    pos = np.arange(len(ids))               # position of each row in ids
    for axis in range(3):
        for bound, sign in ((hi, 1.0), (lo, -1.0)):
            d = sign * (poly[:, :, axis] - bound[pos, axis, None])
            d[np.abs(d) <= PLANE_EPS] = 0.0
            valid = np.arange(poly.shape[1]) < count[:, None]
            d[~valid] = 0.0
            if sign < 0.0:
                # Same half-open convention as the volumetric clip: a box
                # owns triangles lying in its max faces, its neighbour
                # across the min face owns the rest.
                live = (d != 0.0).any(axis=1)
                poly, count, pos, d, valid = (
                    a[live] for a in (poly, count, pos, d, valid))
            cut = np.nonzero((d > 0.0).any(axis=1))[0]
            if len(cut):
                out, count[cut] = _clip_rows(poly[cut], count[cut], d[cut], valid[cut])
                if out.shape[1] > poly.shape[1]:
                    pad = np.zeros((len(poly), out.shape[1] - poly.shape[1], 3))
                    poly = np.concatenate([poly, pad], axis=1)
                poly[cut, :out.shape[1]] = out
                live = count >= 3
                poly, count, pos = poly[live], count[live], pos[live]
    # Fan triangulation (poly[0], poly[k], poly[k + 1]), row-major order.
    rows, k = np.nonzero(np.arange(1, poly.shape[1] - 1) < count[:, None] - 1)
    k = k + 1
    pieces = np.stack([poly[rows, 0], poly[rows, k], poly[rows, k + 1]], axis=1)
    return pieces, pos[rows]


def _clip_rows(p, count, d, valid):
    """One Sutherland-Hodgman pass keeping d <= 0 on padded polygons.

    Each vertex emits the crossing point of the edge from its predecessor
    when that edge changes sign strictly, then itself when d <= 0.  An
    exclusive cumulative sum over the emission counts places the points.
    Returns the new polygons and their vertex counts.
    """
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


def _soup_mesh(pieces: np.ndarray, name: str) -> TriangleMesh:
    if len(pieces) == 0:
        return TriangleMesh.empty(name)
    verts = pieces.reshape(-1, 3)
    tris = np.arange(len(verts), dtype=np.int32).reshape(-1, 3)
    # Weld exactly so shared cut points merge but geometry is untouched.
    keys = np.round(verts / PLANE_EPS).astype(np.int64)
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    mesh = TriangleMesh(verts[first], inverse.reshape(-1)[tris].astype(np.int32), name)
    keep = (
        (mesh.triangles[:, 0] != mesh.triangles[:, 1])
        & (mesh.triangles[:, 1] != mesh.triangles[:, 2])
        & (mesh.triangles[:, 2] != mesh.triangles[:, 0])
    )
    return compact(TriangleMesh(mesh.vertices, mesh.triangles[keep], name))


# ---------------------------------------------------------------------------
# watertight half-space clipping


def clip_halfspace(mesh: TriangleMesh, normal, offset: float, *,
                   keep_coplanar: bool = True, cap: bool = True) -> TriangleMesh:
    """Keep the region of a closed mesh with ``normal . v <= offset``.

    The caller is responsible for the input being watertight; the output is
    then watertight as well (the cut is capped).  Triangles lying exactly in
    the plane are kept or dropped according to keep_coplanar, which lets two
    complementary clips partition a mesh without double-counting them.
    """
    if mesh.is_empty:
        return TriangleMesh.empty(mesh.name)
    n = np.asarray(normal, dtype=np.float64).reshape(3)
    d = mesh.vertices @ n - float(offset)
    d[np.abs(d) <= PLANE_EPS] = 0.0

    tri_d = d[mesh.triangles]
    below = tri_d <= 0.0
    keep_full = below.all(axis=1)
    coplanar = (tri_d == 0.0).all(axis=1)
    if not keep_coplanar:
        keep_full &= ~coplanar
    drop_full = (tri_d > 0.0).all(axis=1)
    crossing = np.nonzero(~below.all(axis=1) & ~drop_full)[0]

    if not crossing.size and not keep_full.any():
        return TriangleMesh.empty(mesh.name)
    if not crossing.size and keep_full.all() and (keep_coplanar or not coplanar.any()):
        return mesh.copy()

    verts = mesh.vertices
    new_points: list[np.ndarray] = []
    edge_cut: dict[tuple[int, int], int] = {}

    def cut_point(a: int, b: int) -> int:
        key = (a, b) if a < b else (b, a)
        idx = edge_cut.get(key)
        if idx is None:
            pa, pb = verts[key[0]], verts[key[1]]
            t = d[key[0]] / (d[key[0]] - d[key[1]])
            idx = len(verts) + len(new_points)
            new_points.append(pa + t * (pb - pa))
            edge_cut[key] = idx
        return idx

    out_tris: list[tuple[int, int, int]] = [tuple(tri) for tri in mesh.triangles[keep_full]]
    for ti in crossing:
        ia, ib, ic = (int(x) for x in mesh.triangles[ti])
        poly: list[int] = []
        prev = ic
        for cur in (ia, ib, ic):
            dp, dc = d[prev], d[cur]
            if dc <= 0.0:
                if dp > 0.0 and dc < 0.0:
                    poly.append(cut_point(prev, cur))
                poly.append(cur)
            elif dp < 0.0:
                poly.append(cut_point(prev, cur))
            prev = cur
        if len(poly) >= 3:
            for k in range(1, len(poly) - 1):
                out_tris.append((poly[0], poly[k], poly[k + 1]))

    if not out_tris:
        return TriangleMesh.empty(mesh.name)
    all_verts = verts if not new_points else np.vstack([verts, np.asarray(new_points)])
    tris = np.asarray(out_tris, dtype=np.int32)

    if cap:
        cap_tris = _build_caps(all_verts, tris, n)
        if len(cap_tris):
            tris = np.vstack([tris, cap_tris])
    return compact(TriangleMesh(all_verts, tris, mesh.name))


def _boundary_edges(tris: np.ndarray) -> list[tuple[int, int]]:
    """Directed edges that have no opposite-direction partner."""
    if len(tris) == 0:
        return []
    t = np.asarray(tris, dtype=np.int64)
    ab = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    base = int(ab.max()) + 1
    keys, counts = np.unique(ab[:, 0] * base + ab[:, 1], return_counts=True)
    rev = (keys % base) * base + keys // base
    pos = np.clip(np.searchsorted(keys, rev), 0, len(keys) - 1)
    rev_counts = np.where(keys[pos] == rev, counts[pos], 0)
    out: list[tuple[int, int]] = []
    for key, excess in zip(keys, counts - rev_counts):
        if excess > 0:
            out.extend([(int(key // base), int(key % base))] * int(excess))
    return out


def _plane_basis(n: np.ndarray):
    """Orthonormal (u, v) in the plane with u x v = n."""
    pick = np.zeros(3)
    pick[int(np.argmin(np.abs(n)))] = 1.0
    u = np.cross(n, pick)
    u /= np.linalg.norm(u)
    v = np.cross(n, u)
    return u, v


def _build_caps(verts: np.ndarray, tris: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Triangulate the open boundary (reversed) into cap faces with normal n."""
    boundary = _boundary_edges(tris)
    if not boundary:
        return np.zeros((0, 3), dtype=np.int32)
    reversed_edges = [(b, a) for (a, b) in boundary]
    u, v = _plane_basis(n)
    uv = np.column_stack([verts @ u, verts @ v])
    loops = _assemble_loops(reversed_edges, uv)
    cap = _triangulate_region(uv, loops)
    if not cap:
        return np.zeros((0, 3), dtype=np.int32)
    return np.asarray(cap, dtype=np.int32)


def _assemble_loops(edges: list[tuple[int, int]], uv: np.ndarray) -> list[list[int]]:
    """Chain directed edges into closed loops.

    At a vertex with several outgoing edges the most counterclockwise turn
    is taken, which keeps touching loops separate (left-face traversal).
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
            prev = None
            cur = start
            while True:
                options = succ[cur]
                if not options:
                    logger.warning("open boundary chain at vertex %d; cap skipped", cur)
                    loop = []
                    break
                if len(options) == 1 or prev is None:
                    nxt = options.pop(0)
                else:
                    din = uv[cur] - uv[prev]
                    best_k, best_ang = 0, -np.inf
                    for k, cand in enumerate(options):
                        w = uv[cand] - uv[cur]
                        ang = np.arctan2(din[0] * w[1] - din[1] * w[0],
                                         din[0] * w[0] + din[1] * w[1])
                        if ang > best_ang:
                            best_k, best_ang = k, ang
                    nxt = options.pop(best_k)
                if nxt == start:
                    break
                loop.append(nxt)
                prev, cur = cur, nxt
            if len(loop) >= 3:
                loops.append(loop)
    return loops


def _signed_area(uv: np.ndarray, ring: list[int]) -> float:
    pts = uv[ring]
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _point_in_ring(uv: np.ndarray, ring: list[int], p: np.ndarray) -> bool:
    """Even-odd rule."""
    inside = False
    pts = uv[ring]
    j = len(pts) - 1
    for i in range(len(pts)):
        xi, yi = pts[i]
        xj, yj = pts[j]
        if (yi > p[1]) != (yj > p[1]):
            x_cross = xi + (p[1] - yi) / (yj - yi) * (xj - xi)
            if p[0] < x_cross:
                inside = not inside
        j = i
    return inside


def _orient2(p, q, r) -> float:
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def _on_segment(p, q, r, eps: float) -> bool:
    return (min(p[0], q[0]) - eps <= r[0] <= max(p[0], q[0]) + eps
            and min(p[1], q[1]) - eps <= r[1] <= max(p[1], q[1]) + eps)


def _segment_blocked(m, p, a, b, eps: float) -> bool:
    """Does edge ab intersect the bridge m-p anywhere other than at m or p?

    eps is a length tolerance; contacts exactly at the bridge endpoints are
    allowed (incident edges always pass).
    """
    span = max(np.hypot(*(np.asarray(p) - m)), np.hypot(*(np.asarray(b) - a)), eps)
    eps_o = eps * span
    o1, o2 = _orient2(m, p, a), _orient2(m, p, b)
    o3, o4 = _orient2(a, b, m), _orient2(a, b, p)
    if ((o1 > eps_o and o2 < -eps_o) or (o1 < -eps_o and o2 > eps_o)) and \
       ((o3 > eps_o and o4 < -eps_o) or (o3 < -eps_o and o4 > eps_o)):
        return True
    # Any endpoint resting on the other segment blocks unless it rests
    # exactly on m or p.
    for r in (a, b):
        if _touches(r, m, eps) or _touches(r, p, eps):
            continue
        if abs(_orient2(m, p, r)) <= eps_o and _on_segment(m, p, r, eps):
            return True
    for r in (m, p):
        if _touches(r, a, eps) or _touches(r, b, eps):
            continue
        if abs(_orient2(a, b, r)) <= eps_o and _on_segment(a, b, r, eps):
            return True
    return False


def _triangulate_region(uv: np.ndarray, loops: list[list[int]]) -> list[tuple[int, int, int]]:
    if not loops:
        return []
    scale = 0.0
    for ring in loops:
        pts = uv[ring]
        ext = pts.max(axis=0) - pts.min(axis=0)
        scale = max(scale, float(ext.max()))
    eps_area = 1e-12 * scale * scale + 1e-300

    outers: list[list[int]] = []
    holes: list[list[int]] = []
    for ring in loops:
        if _signed_area(uv, ring) >= 0.0:
            outers.append(ring)
        else:
            holes.append(ring)
    if not outers:
        # Pure negative-area trash; triangulate nothing.
        return []
    grouped: dict[int, list[list[int]]] = {i: [] for i in range(len(outers))}
    for hole in holes:
        probe = uv[hole[0]]
        candidates = [
            (abs(_signed_area(uv, outer)), i)
            for i, outer in enumerate(outers)
            if _point_in_ring(uv, outer, probe)
        ]
        if not candidates:
            logger.warning("cap hole outside every outer loop; dropped")
            continue
        grouped[min(candidates)[1]].append(hole)

    tris: list[tuple[int, int, int]] = []
    for i, outer in enumerate(outers):
        ring = list(outer)
        for hole in sorted(grouped[i], key=lambda h: -float(uv[h][:, 0].max())):
            ring = _splice_hole(uv, ring, hole, eps_area)
        tris.extend(_ear_clip(uv, ring, eps_area))
    return tris


def _splice_hole(uv: np.ndarray, outer: list[int], hole: list[int], eps_area: float) -> list[int]:
    """Join a hole ring into the outer ring with a two-way bridge edge."""
    hj = max(range(len(hole)), key=lambda k: (uv[hole[k]][0], -k))
    m_pt = uv[hole[hj]]
    eps = max(np.sqrt(eps_area), 1e-12)
    order = sorted(
        range(len(outer)),
        key=lambda k: (float(np.hypot(*(uv[outer[k]] - m_pt))), k),
    )
    edges = _ring_edges(outer) + _ring_edges(hole)
    for pi in order:
        p_pt = uv[outer[pi]]
        if np.hypot(*(p_pt - m_pt)) < eps:
            # Coincident points: a zero-length bridge is always safe.
            return _splice_at(outer, pi, hole, hj)
        if all(not _segment_blocked(m_pt, p_pt, uv[sa], uv[sb], eps)
               for sa, sb in edges):
            return _splice_at(outer, pi, hole, hj)
    logger.warning("no visible bridge for cap hole; hole dropped")
    return outer


def _touches(p, q, eps: float) -> bool:
    return abs(p[0] - q[0]) <= eps and abs(p[1] - q[1]) <= eps


def _ring_edges(ring: list[int]) -> list[tuple[int, int]]:
    return [(ring[i], ring[(i + 1) % len(ring)]) for i in range(len(ring))]


def _splice_at(outer: list[int], pi: int, hole: list[int], hj: int) -> list[int]:
    rotated = hole[hj:] + hole[:hj]
    return outer[: pi + 1] + rotated + [rotated[0], outer[pi]] + outer[pi + 1:]


def _ear_clip(uv: np.ndarray, ring: list[int], eps_area: float) -> list[tuple[int, int, int]]:
    """Triangulate a weakly simple CCW ring; degenerate ears are emitted as a
    last resort so edge pairing stays intact.

    Every pass harvests all ears whose neighbourhood is untouched so far in
    the pass; blocky models produce cut rings with hundreds of collinear
    vertices and clipping one ear per pass would go quadratic on them.
    """
    ring = list(ring)
    tris: list[tuple[int, int, int]] = []
    while len(ring) > 3:
        n = len(ring)
        pts = uv[ring]
        prv = np.concatenate([pts[-1:], pts[:-1]])
        nxt = np.concatenate([pts[1:], pts[:1]])
        cr = ((pts[:, 0] - prv[:, 0]) * (nxt[:, 1] - pts[:, 1])
              - (pts[:, 1] - prv[:, 1]) * (nxt[:, 0] - pts[:, 0]))
        locked = np.zeros(n, dtype=bool)
        removed: list[int] = []
        for k in np.nonzero(cr > eps_area)[0]:
            if len(removed) >= n - 3:
                break
            k = int(k)
            if locked[k - 1] or locked[k] or locked[(k + 1) % n]:
                continue
            if _ear_blocked(pts, k, eps_area):
                continue
            tris.append((ring[k - 1], ring[k], ring[(k + 1) % n]))
            locked[[k - 1, k, (k + 1) % n]] = True
            removed.append(k)
        if removed:
            for k in sorted(removed, reverse=True):
                del ring[k]
            continue
        k = int(cr.argmax())
        tris.append((ring[k - 1], ring[k], ring[(k + 1) % n]))
        del ring[k]
    tris.append((ring[0], ring[1], ring[2]))
    return tris


def _ear_blocked(pts: np.ndarray, k: int, eps_area: float) -> bool:
    """Any ring vertex strictly inside the ear triangle at k blocks the ear."""
    n = len(pts)
    a, b, c = pts[(k - 1) % n], pts[k], pts[(k + 1) % n]
    s1 = (b[0] - a[0]) * (pts[:, 1] - a[1]) - (b[1] - a[1]) * (pts[:, 0] - a[0])
    s2 = (c[0] - b[0]) * (pts[:, 1] - b[1]) - (c[1] - b[1]) * (pts[:, 0] - b[0])
    s3 = (a[0] - c[0]) * (pts[:, 1] - c[1]) - (a[1] - c[1]) * (pts[:, 0] - c[0])
    inside = (s1 > eps_area) & (s2 > eps_area) & (s3 > eps_area)
    inside[[(k - 1) % n, k, (k + 1) % n]] = False
    return bool(inside.any())


# ---------------------------------------------------------------------------
# box clipping


def _check_box(box: Aabb) -> None:
    if np.any(box.extent <= 0.0):
        raise DegenerateBox(f"box extent must be positive, got {box.extent}")


def clip_to_box(mesh: TriangleMesh, box: Aabb) -> ClipResult:
    """Clip a watertight mesh to an axis-aligned box.

    Returns a watertight solid with caps on the box faces;
    surface_vertex_count reflects only the clipped input surface.
    """
    _check_box(box)
    if not validate_watertight(mesh).is_watertight:
        raise NonWatertightInput("volumetric clipping needs a closed mesh")
    pieces, _ = clip_surface_to_box(mesh, box)
    count = len(_soup_mesh(pieces, mesh.name).vertices)

    if count == 0:
        # No surface inside the box: either completely inside or outside.
        if point_in_mesh(mesh, box.center):
            solid = box_mesh(box.extent, box.min, mesh.name)
            return ClipResult(solid, 0, True)
        return ClipResult(TriangleMesh.empty(mesh.name), 0, False)

    current = mesh
    axes = np.eye(3)
    for axis in range(3):
        # Own the max face (keep coplanar there), give away the min face.
        current = clip_halfspace(current, axes[axis], box.max[axis], keep_coplanar=True)
        if current.is_empty:
            break
        current = clip_halfspace(current, -axes[axis], -box.min[axis], keep_coplanar=False)
        if current.is_empty:
            break
    capped = not current.is_empty and count > 0
    return ClipResult(current, count, capped)


def cut_by_plane(mesh: TriangleMesh, normal, offset: float):
    """Split a watertight mesh by a plane into capped (positive, negative) halves."""
    n = np.asarray(normal, dtype=np.float64).reshape(3)
    if abs(np.linalg.norm(n) - 1.0) > 1e-9:
        raise ValueError("plane normal must be unit length")
    if not validate_watertight(mesh).is_watertight:
        raise NonWatertightInput("plane cutting needs a closed mesh")
    positive = clip_halfspace(mesh, -n, -float(offset), keep_coplanar=False)
    negative = clip_halfspace(mesh, n, float(offset), keep_coplanar=True)
    return positive, negative


# ---------------------------------------------------------------------------
# point containment


def points_in_mesh(mesh: TriangleMesh, points, *, votes: int = 1,
                   rng: np.random.Generator | None = None) -> np.ndarray:
    """Ray-parity containment test for many points.

    Casts one axis ray per vote; any numerically ambiguous hit (grazing an
    edge, running inside a triangle plane) triggers a re-cast of that point
    along a random direction.  With votes=3 the majority of the three axis
    rays wins, which tolerates moderately damaged surfaces.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if mesh.is_empty or len(pts) == 0:
        return np.zeros(len(pts), dtype=bool)
    if rng is None:
        rng = np.random.default_rng(9173)
    votes = 3 if votes >= 2 else 1
    dirs = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]),
            np.array([0.0, 0.0, 1.0])][:votes]
    tally = np.zeros(len(pts), dtype=np.int64)
    for d in dirs:
        tally += _parity_along(mesh, pts, d, rng).astype(np.int64)
    return tally * 2 > votes


def point_in_mesh(mesh: TriangleMesh, point, rng: np.random.Generator | None = None) -> bool:
    """Single-point ray-parity containment (mesh assumed closed)."""
    return bool(points_in_mesh(mesh, [point], rng=rng)[0])


def _parity_along(mesh: TriangleMesh, pts: np.ndarray, direction: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    p0 = mesh.vertices[mesh.triangles[:, 0]]
    e1 = mesh.vertices[mesh.triangles[:, 1]] - p0
    e2 = mesh.vertices[mesh.triangles[:, 2]] - p0
    scale = max(float(np.abs(mesh.vertices).max()), 1.0)
    inside = np.zeros(len(pts), dtype=bool)
    chunk = 512
    for start in range(0, len(pts), chunk):
        sub = pts[start:start + chunk]
        crossings, ambiguous = _count_crossings(sub, direction, p0, e1, e2, scale)
        for local in np.nonzero(ambiguous)[0]:
            crossings[local] = _stubborn_parity(sub[local], p0, e1, e2, scale, rng)
        inside[start:start + chunk] = crossings % 2 == 1
    return inside


def _count_crossings(pts, direction, p0, e1, e2, scale):
    eps_par = 1e-12 * scale * scale
    eps_bary = 1e-10
    eps_t = 1e-9 * scale
    d = direction
    h = np.cross(d, e2)  # (T, 3)
    a = np.einsum("tj,tj->t", e1, h)
    ok = np.abs(a) > eps_par
    f = np.zeros_like(a)
    f[ok] = 1.0 / a[ok]
    s = pts[:, None, :] - p0[None, :, :]  # (P, T, 3)
    u = np.einsum("ptj,tj->pt", s, h) * f
    q = np.cross(s, e1[None, :, :])
    v = np.einsum("ptj,j->pt", q, d) * f
    t = np.einsum("ptj,tj->pt", q, e2) * f
    hit = ok[None, :] & (t > eps_t) & (u > eps_bary) & (v > eps_bary) & (u + v < 1.0 - eps_bary)
    grazing = ok[None, :] & (t > -eps_t) & (
        (np.abs(u) <= eps_bary) | (np.abs(v) <= eps_bary)
        | (np.abs(u + v - 1.0) <= eps_bary) | (np.abs(t) <= eps_t)
    ) & (u > -10 * eps_bary) & (v > -10 * eps_bary) & (u + v < 1.0 + 10 * eps_bary)
    # A ray running inside a triangle's plane is also unreliable.  Degenerate
    # (zero-area) triangles are excluded: they can never flip the parity.
    normal = np.cross(e1, e2)
    norm_n = np.linalg.norm(normal, axis=1)
    plane_risk = ((~ok) & (norm_n > eps_par))[None, :] & (
        np.abs(np.einsum("ptj,tj->pt", s, normal)) <= eps_t * norm_n[None, :] + eps_par
    )
    ambiguous = (grazing | plane_risk).any(axis=1)
    return hit.sum(axis=1), ambiguous


def _stubborn_parity(point, p0, e1, e2, scale, rng) -> int:
    for _ in range(32):
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        crossings, ambiguous = _count_crossings(point[None, :], d, p0, e1, e2, scale)
        if not ambiguous[0]:
            return int(crossings[0])
    logger.warning("containment ray stays ambiguous; using the last cast")
    return int(crossings[0])
