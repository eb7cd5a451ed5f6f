"""Symmetry detection and build orientation.

Candidate mirror planes come from the vertex cloud's three principal axes,
each swept through five offsets around the centroid.  A plane's error is
the mean distance from every reflected vertex to its nearest original
vertex, normalized by the bounding-box diagonal, so 0 means a perfect
mirror and the score is scale-free.

The distances are exact, bit for bit those of a brute-force search.  They
come from uniform cell grids over the vertices (Bentley, Stanat and
Williams 1977, "The complexity of finding fixed-radius near neighbors"):
each reflected vertex reads the 2x2x2 block of cells nearest to it, which
answers it exactly when its nearest vertex there is no farther than the
block's outside, and bounds its distance from below otherwise.  Crowded
blocks hand their points to a finer grid of their own vertices, and the
unanswered points read grids of twice the cell side, one after another,
or every vertex when they are few.  The bounds skip work: the centre
offset with the least bound is answered in full first, and every
candidate whose bounded distance sum exceeds that sum is dropped, first
from a sample of its points, then from all of them, and again after each
coarser grid.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import TriangleMesh, aabb_of, triangle_areas, triangle_normals

#: Default symmetry acceptance threshold (fraction of the bbox diagonal).
SYMMETRY_THRESHOLD = 0.01
#: Offsets swept along each principal axis, as a fraction of the extent.
OFFSET_SWEEP = np.linspace(-0.1, 0.1, 5)


@dataclass(frozen=True)
class SymmetryPlane:
    """Mirror plane ``normal . x = offset`` with its normalized error score."""

    normal: np.ndarray
    offset: float
    error_score: float


@dataclass(frozen=True)
class Pose:
    """Rigid transform ``x -> rotation @ x + translation``."""

    rotation: np.ndarray
    translation: np.ndarray

    def apply(self, mesh: TriangleMesh) -> TriangleMesh:
        return mesh.transformed(self.rotation, self.translation)

    def move(self, plane: SymmetryPlane) -> SymmetryPlane:
        """The plane of the moved mesh, signed as :func:`_principal_axes`
        signs an axis: the normal's largest-magnitude component positive.
        The error score is kept."""
        normal = self.rotation @ plane.normal
        offset = plane.offset + float(normal @ self.translation)
        if normal[np.argmax(np.abs(normal))] < 0:
            normal, offset = -normal, -offset
        return SymmetryPlane(normal, offset, plane.error_score)


def _principal_axes(vertices: np.ndarray) -> np.ndarray:
    """Rows are unit principal axes, strongest variance first, determinate sign.

    Near-equal eigenvalues leave the eigensolver free to return any basis of
    the shared eigenspace, which would twist symmetric models by an arbitrary
    angle from run to run.  Each such group is therefore realigned toward the
    coordinate axes: project the best-covered axes into the eigenspace and
    re-orthonormalize.
    """
    centered = vertices - vertices.mean(axis=0)
    cov = centered.T @ centered / max(len(vertices), 1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    axes = evecs[:, order].T
    scale = max(float(evals[0]), 1e-300)
    bounds = [0]
    for i in range(1, 3):
        if evals[bounds[-1]] - evals[i] > 1e-7 * scale:
            bounds.append(i)
    bounds.append(3)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi - lo < 2:
            continue
        block = axes[lo:hi]
        proj = block.T @ block  # projector onto the degenerate eigenspace
        coverage = np.diag(proj)
        picked: list[np.ndarray] = []
        for ci in np.argsort(-coverage, kind="stable"):
            vec = proj[:, ci].copy()
            for prev in picked:
                vec -= (vec @ prev) * prev
            norm = float(np.linalg.norm(vec))
            if norm > 1e-9:
                picked.append(vec / norm)
            if len(picked) == hi - lo:
                break
        if len(picked) == hi - lo:
            axes[lo:hi] = np.asarray(picked)
    for i in range(3):
        # Fix the sign so results do not flip between numerically equal runs.
        j = int(np.argmax(np.abs(axes[i])))
        if axes[i][j] < 0:
            axes[i] = -axes[i]
    return axes


#: The first pass of the mirror search reads every point of the centre
#: offsets and every ceil(n / _SAMPLES)-th point of the other candidates.
_SAMPLES = 8
#: A candidate is dropped when a lower bound of its distance sum exceeds
#: the best centre sum by this relative margin, which covers rounding.
_PRUNE_MARGIN = 1e-9
#: Points located in one chunk of a grid query, and point-vertex pairs
#: read in one chunk: enough to spread numpy's call overhead, few enough to
#: keep the temporaries small.  A point whose block alone holds more pairs
#: is read on its own.
_CHUNK_POINTS = 1 << 14
_CHUNK_PAIRS = 1 << 13
#: Points that their blocks leave unanswered are compared with every
#: vertex when that makes at most this many pairs, and read a coarser grid
#: otherwise.
_BRUTE_PAIRS = 1 << 16
#: A block of a grid sized to its vertices is crowded when it holds more
#: vertices than this; its points then read a finer grid of its vertices.
_CROWDED = 64
#: The 0/1 offsets, per axis, of the 8 cells of a block.
_CORNERS = np.array([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)],
                    dtype=np.float64)


class _CellGrid:
    """Vertices bucketed into cubic cells, for exact nearest-vertex distances.

    A block is 2x2x2 cells, its first cell from -1 (one cell before the
    grid) to the last, and the block table lists, block after block, the
    indices of the vertices in each: 8n entries, and one sentinel, a
    vertex at infinity, that empty blocks read instead.  A point reads the
    block nearest to it.  Points and vertices are (3, m) arrays, one row
    per coordinate, so every sum runs over rows and none over a length-3
    axis.

    Without a cell side ``h`` the grid is sized to its vertices: h is
    sqrt(A / n), A the surface area of their bounding box, grown by 1.25x
    until the blocks number at most 8n + 1000.  Such a grid hands the
    points of its crowded blocks to a grid sized to the distinct vertices
    of those blocks alone, if they are fewer or its cells at most half as
    wide.  Points whose nearest vertex may lie outside their block read a
    grid of twice the cell side, and so on up to one whose block holds
    every vertex, unless they are few enough to be compared with every
    vertex at once.
    """

    def __init__(self, vertices: np.ndarray, h: float | None = None) -> None:
        n = vertices.shape[1]
        self.vertices = vertices
        self.lo = vertices.min(axis=1)[:, None]
        self.hi = vertices.max(axis=1)[:, None]
        ex, ey, ez = extent = (self.hi - self.lo)[:, 0].tolist()
        sized = h is None
        if h is None:
            h = float(np.sqrt(2.0 * (ex * ey + ey * ez + ez * ex) / n))
            if not h > 0.0:     # collinear or coincident vertices
                h = max(extent) / n or 1.0
        while True:
            dims = [int(e // h) + 1 for e in extent]
            if (not sized
                    or (dims[0] + 1) * (dims[1] + 1) * (dims[2] + 1) <= 8 * n + 1000):
                break
            h *= 1.25
        self.h = h
        self.whole = max(dims) == 1         # every block holds every vertex
        self.last = np.array(dims, dtype=np.float64)[:, None] - 1.0
        # Flat index of a block from its first cell plus one, per axis.
        self.strides = np.array([[(dims[1] + 1) * (dims[2] + 1)],
                                 [dims[2] + 1], [1.0]])
        # Cell faces are computed in floats, so a vertex may lie a rounding
        # error outside its cell; distances to a block's outside are
        # shortened by this much.
        self.slack = 1e-10 * (float(np.abs(self.lo).max()) + max(extent) + h)
        # The blocks holding a vertex start at its cell or the one before,
        # on each axis.
        cell = np.minimum(np.floor((vertices - self.lo) / h), self.last)
        corners = (_CORNERS @ self.strides).astype(np.int64)
        blocks = (self._block(cell - 1.0)[None, :] + corners).ravel()
        order = np.argsort(blocks, kind="stable") % n
        self.table = np.append(order, n)
        self.sentinel = 8 * n
        self.coords = np.concatenate([vertices, np.full((3, 1), np.inf)], axis=1)
        counts = np.bincount(
            blocks, minlength=(dims[0] + 1) * (dims[1] + 1) * (dims[2] + 1))
        self.starts = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=self.starts[1:])
        self._coarser: _CellGrid | None = None
        self._crowd: _CellGrid | None = None
        self.crowded = None
        if sized and counts.max() > _CROWDED:
            self.crowded = counts > _CROWDED
            self._crowd_members = np.unique(order[np.repeat(self.crowded, counts)])

    def _block(self, first: np.ndarray) -> np.ndarray:
        """Flat index of the blocks whose first cells are these (3, m)."""
        return ((first + 1.0) * self.strides).sum(axis=0).astype(np.int64)

    def box_distance(self, points: np.ndarray) -> np.ndarray:
        """Distance of each point, (3, ...), to the vertices' bounding box.

        It is computed with the operations of a vertex distance, each of
        which rounds monotonically, so it never exceeds the computed
        distance to any vertex.
        """
        d2 = np.zeros(points.shape[1:])
        for k in range(3):
            out = self.lo[k] - points[k]
            np.maximum(out, points[k] - self.hi[k], out=out)
            np.maximum(out, 0.0, out=out)
            out *= out
            d2 += out
        return np.sqrt(d2, out=d2)

    def search(self, points: np.ndarray,
               climb: bool = True) -> tuple[np.ndarray, np.ndarray]:
        """(nearest, reach) of each of the (3, m) points.

        ``nearest`` is the distance to the nearest vertex the point read,
        ``reach`` a lower bound of its distance to every vertex it did not
        read; where nearest <= reach, nearest is the exact distance to the
        nearest vertex, and elsewhere reach bounds it from below.  With
        ``climb`` every point reads on until it is exact.  Exact distances
        are bit for bit those of a brute-force search: both take one
        square root of the same least sum (dx*dx + dy*dy) + dz*dz.
        """
        m = points.shape[1]
        if m > _CHUNK_POINTS:
            nearest = np.empty(m)
            reach = np.empty(m)
            for i in range(0, m, _CHUNK_POINTS):
                part = slice(i, i + _CHUNK_POINTS)
                nearest[part], reach[part] = self.search(points[:, part], climb)
            return nearest, reach
        cell = points - self.lo
        cell /= self.h
        first = cell - 0.5
        np.floor(first, out=first)
        np.maximum(first, -1.0, out=first)
        np.minimum(first, self.last, out=first)
        # Distances, in cells, to the block's low and high faces.  No
        # vertex lies before the first cell or beyond the last.
        low = cell - first
        low[first <= 0.0] = np.inf
        high = first + 2.0
        edge = high > self.last
        high -= cell
        high[edge] = np.inf
        np.minimum(low, high, out=low)
        reach = np.minimum(np.minimum(low[0], low[1]), low[2])
        reach *= self.h
        reach -= self.slack

        block = self._block(first)
        begin = self.starts[block]
        counts = self.starts[block + 1] - begin
        crowded = None if self.crowded is None else self.crowded[block]
        if crowded is not None and crowded.any() and self._crowd is None:
            members = self._crowd_members
            crowd = _CellGrid(np.unique(self.vertices[:, members], axis=1))
            if crowd.vertices.shape[1] < len(members) or crowd.h <= 0.5 * self.h:
                self._crowd = crowd
            else:
                self.crowded = crowded = None
        empty = counts == 0
        begin[empty] = self.sentinel
        counts[empty] = 1
        if crowded is None or not crowded.any():
            nearest = self._read(points, begin, counts)
        else:
            nearest = np.empty(m)
            rest = ~crowded
            nearest[rest] = self._read(points[:, rest], begin[rest], counts[rest])
            # Every vertex of a crowded block is in the crowd grid, so the
            # vertices that grid leaves unread lie beyond its reach or
            # outside the block.
            near, far = self._crowd.search(points[:, crowded])
            nearest[crowded] = near
            np.minimum(reach[crowded], far, out=far)
            reach[crowded] = far
        if climb and not self.whole:
            miss = np.flatnonzero(nearest > reach)
            if len(miss):
                nearest[miss] = self.beyond(points[:, miss])
                reach[miss] = np.inf
        return nearest, reach

    def coarser(self) -> _CellGrid:
        """The grid of the same vertices with twice the cell side."""
        if self._coarser is None:
            self._coarser = _CellGrid(self.vertices, 2.0 * self.h)
        return self._coarser

    def drop_grids(self) -> None:
        """Let go of the coarser and crowd grids built from this one; a
        later search builds them again."""
        self._coarser = self._crowd = None

    def beyond(self, points: np.ndarray) -> np.ndarray:
        """Exact nearest-vertex distance of each of the (3, m) points, for
        points that their blocks here leave unanswered."""
        if points.shape[1] * self.vertices.shape[1] > _BRUTE_PAIRS:
            return self.coarser().search(points)[0]
        return self.brute(points)

    def brute(self, points: np.ndarray) -> np.ndarray:
        """Exact nearest-vertex distance of each of the (3, m) points,
        against every vertex."""
        n = self.vertices.shape[1]
        out = np.empty(points.shape[1])
        step = max(1, _CHUNK_PAIRS // n)
        for i in range(0, len(out), step):
            part = slice(i, i + step)
            d2 = np.subtract.outer(points[0, part], self.vertices[0])
            d2 *= d2
            d = np.empty_like(d2)
            for k in (1, 2):
                np.subtract.outer(points[k, part], self.vertices[k], out=d)
                d *= d
                d2 += d
            out[part] = np.sqrt(d2.min(axis=1))
        return out

    def _read(self, points: np.ndarray, begin: np.ndarray,
              counts: np.ndarray) -> np.ndarray:
        """Least distance from each of the (3, m) points to its ``counts``
        table entries from ``begin``, read about _CHUNK_PAIRS pairs at a
        time."""
        out = np.empty(len(counts))
        ends = np.cumsum(counts)
        i = 0
        while i < len(counts):
            j = max(i + 1, int(np.searchsorted(
                ends, ends[i] - counts[i] + _CHUNK_PAIRS, side="right")))
            out[i:j] = self._pairs(points[:, i:j], begin[i:j], counts[i:j])
            i = j
        return out

    def _pairs(self, points: np.ndarray, begin: np.ndarray,
               counts: np.ndarray) -> np.ndarray:
        ends = np.cumsum(counts)
        lead = ends - counts                    # each point's first pair
        pick = np.repeat(begin - lead, counts)
        pick += np.arange(ends[-1])
        owner = np.repeat(np.arange(len(counts)), counts)
        entry = self.table[pick]
        d2 = self.coords[0][entry]
        d2 -= points[0][owner]
        d2 *= d2
        for k in (1, 2):
            d = self.coords[k][entry]
            d -= points[k][owner]
            d *= d
            d2 += d
        nearest = np.minimum.reduceat(d2, lead)
        return np.sqrt(nearest, out=nearest)


def find_best_symmetry_plane(mesh: TriangleMesh) -> SymmetryPlane:
    """Best mirror among 3 principal axes x 5 offsets (+-10% of the extent).

    Ties keep the first candidate, axes in order and offsets ascending.
    The distances come from a :class:`_CellGrid` of the vertices and are
    exact; a candidate whose distance sum provably exceeds that of
    the best centre offset is dropped before it is read in full.
    """
    v = mesh.vertices
    n = len(v)
    centroid = v.mean(axis=0)
    axes = _principal_axes(v)
    diag = max(aabb_of(mesh).diagonal, 1e-300)
    planes: list[tuple[np.ndarray, float]] = []
    shifts = []
    for axis in axes:
        along = v @ axis
        extent = float(along.max() - along.min())
        center_offset = float(centroid @ axis)
        offsets = [center_offset + float(frac) * extent for frac in OFFSET_SWEEP]
        planes += [(axis, offset) for offset in offsets]
        shifts.append(2.0 * (along - np.array(offsets)[:, None]))
    # points[k, c] is coordinate k of the vertices reflected in plane c,
    # filled one coordinate at a time to bound the memory.
    shift = np.concatenate(shifts)
    normals = np.repeat(axes.T, len(OFFSET_SWEEP), axis=1)
    points = np.empty((3,) + shift.shape)
    for k in range(3):
        np.multiply(shift, normals[k][:, None], out=points[k])
        np.subtract(v[:, k], points[k], out=points[k])
    grid = _CellGrid(np.ascontiguousarray(v.T))

    # A lower bound of each distance until it is made exact.
    dist = grid.box_distance(points)
    exact = np.zeros(dist.shape, dtype=bool)

    def query(level: _CellGrid, mask: np.ndarray) -> None:
        if mask.any():
            nearest, reach = level.search(points[:, mask], climb=False)
            hit = nearest <= reach
            exact[mask] = hit
            dist[mask] = np.where(hit, nearest, np.maximum(reach, dist[mask]))

    # Pass 1: every point of the centre offsets and a sample of the other
    # candidates.  The exact sum of the centre offset with the least bound
    # bounds the winner's.
    centre = np.zeros(len(planes), dtype=bool)
    centre[len(OFFSET_SWEEP) // 2::len(OFFSET_SWEEP)] = True
    sampled = np.zeros(dist.shape, dtype=bool)
    sampled[:, ::-(-n // _SAMPLES)] = True
    sampled[centre] = True
    query(grid, sampled)
    lead = int(np.argmin(np.where(centre, dist.sum(axis=1), np.inf)))
    miss = (np.arange(len(planes)) == lead)[:, None] & ~exact
    if miss.any():
        dist[miss] = grid.beyond(points[:, miss])
        exact[miss] = True
    limit = float(dist[lead].sum()) * (1.0 + _PRUNE_MARGIN)
    alive = dist.sum(axis=1) <= limit
    # Pass 2: the other points of the candidates left, then the points
    # still unanswered on ever coarser grids, dropping candidates as their
    # bounds grow.  Few enough are compared with every vertex.
    level = grid
    todo = alive[:, None] & ~sampled
    while True:
        query(level, todo)
        alive &= dist.sum(axis=1) <= limit
        todo = alive[:, None] & ~exact
        if np.count_nonzero(todo) * n <= _BRUTE_PAIRS:
            dist[todo] = grid.brute(points[:, todo])
            exact[todo] = True
            break
        # Only the finest grid is read again, by brute: it lets go of the
        # grids it built, so each level the loop passes is freed.
        level = level.coarser()
        grid.drop_grids()

    best: SymmetryPlane | None = None
    for c in np.flatnonzero(alive):
        score = float(dist[c].mean()) / diag
        if best is None or score < best.error_score:
            best = SymmetryPlane(planes[c][0].copy(), planes[c][1], score)
    assert best is not None
    return best


def _proper_axis_rotations() -> list[np.ndarray]:
    """All 24 rotation matrices that permute and flip coordinate axes."""
    mats = []
    for perm in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        for signs in ((1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1),
                      (-1, 1, 1), (-1, 1, -1), (-1, -1, 1), (-1, -1, -1)):
            m = np.zeros((3, 3))
            for row, (col, s) in enumerate(zip(perm, signs)):
                m[row, col] = s
            if np.linalg.det(m) > 0:
                mats.append(m)
    return mats


_AXIS_ROTATIONS = _proper_axis_rotations()


def overhang_area_for_up_z(normals: np.ndarray, areas: np.ndarray,
                           tolerance_deg: float) -> float:
    """Total area of faces tilted below horizontal past the tolerance (up = +z)."""
    sin_tol = np.sin(np.radians(tolerance_deg))
    return float(areas[normals[:, 2] < -sin_tol].sum())


def optimize_orientation(mesh: TriangleMesh, symmetry: SymmetryPlane | None = None,
                         overhang_tolerance_deg: float = 1.0) -> tuple[TriangleMesh, Pose]:
    """Center the mesh, align principal axes, and pick the least-overhang
    orientation out of the 24 axis-aligned proper rotations.

    Ties fall back to aligning the symmetry normal with +x, then to the
    lowest bounding-box height, then to the candidate index.
    """
    v = mesh.vertices
    centroid = v.mean(axis=0)
    base = _principal_axes(v)  # rows: principal axes
    if np.linalg.det(base) < 0:
        base[2] = -base[2]
    normals0 = triangle_normals(mesh)
    areas = triangle_areas(mesh)
    total_area = float(areas.sum())
    eps = 1e-9 * (1.0 + total_area)
    sym_normal = None if symmetry is None else symmetry.normal

    centered = v - centroid
    # Overhang and height depend on the up axis q[2] alone: 6 for 24 turns.
    by_up: dict[tuple, tuple[float, float]] = {}
    best = None  # (overhang, -alignment, height, index, rotation)
    for idx, q in enumerate(_AXIS_ROTATIONS):
        rot = q @ base
        up = tuple(q[2].tolist())
        if up not in by_up:
            normals = normals0 @ rot.T
            rotated_z = centered @ rot.T[:, 2]
            by_up[up] = (overhang_area_for_up_z(normals, areas,
                                                overhang_tolerance_deg),
                         float(rotated_z.max() - rotated_z.min()))
        overhang, height = by_up[up]
        align = 0.0 if sym_normal is None else abs(float((rot @ sym_normal)[0]))
        if best is None:
            best = (overhang, align, height, idx, rot)
            continue
        b_over, b_align, b_height, _, _ = best
        if overhang < b_over - eps:
            better = True
        elif overhang > b_over + eps:
            better = False
        elif align > b_align + 1e-9:
            better = True
        elif align < b_align - 1e-9:
            better = False
        else:
            better = height < b_height - 1e-9
        if better:
            best = (overhang, align, height, idx, rot)
    assert best is not None
    rotation = best[4]
    translation = -rotation @ centroid
    pose = Pose(rotation, translation)
    return pose.apply(mesh), pose
