"""Triangle meshes, STL/OBJ input, binary STL output, and basic measures.

All coordinates are millimetres.  Triangles are index triples wound
counterclockwise when seen from outside the solid, so signed volumes of a
closed mesh come out positive.
"""
from __future__ import annotations

import logging
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptyMesh, ParseError

logger = logging.getLogger(__name__)

#: Vertices closer than this (mm) are merged during load-time cleanup.
WELD_TOLERANCE = 1e-6
#: Triangles with less area (mm^2) than this are dropped during cleanup.
DEGENERATE_AREA = 1e-12

_STL_RECORD = np.dtype(
    [("normal", "<f4", (3,)), ("verts", "<f4", (3, 3)), ("attr", "<u2")]
)


@dataclass
class TriangleMesh:
    """Indexed triangle mesh.

    vertices: (n, 3) float64 positions in mm.
    triangles: (m, 3) int32 vertex indices, CCW from outside.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    name: str = ""

    def __post_init__(self) -> None:
        self.vertices = np.ascontiguousarray(
            np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        )
        self.triangles = np.ascontiguousarray(
            np.asarray(self.triangles, dtype=np.int32).reshape(-1, 3)
        )
        if self.triangles.size:
            if int(self.triangles.max()) >= len(self.vertices):
                raise ValueError("triangle references a vertex that does not exist")
            if int(self.triangles.min()) < 0:
                raise ValueError("triangle index is negative")

    @classmethod
    def empty(cls, name: str = "") -> "TriangleMesh":
        return cls(np.empty((0, 3)), np.empty((0, 3), dtype=np.int32), name)

    @property
    def is_empty(self) -> bool:
        return len(self.triangles) == 0

    def copy(self) -> "TriangleMesh":
        return TriangleMesh(self.vertices.copy(), self.triangles.copy(), self.name)

    def transformed(self, rotation: np.ndarray, translation: np.ndarray) -> "TriangleMesh":
        """Return the mesh mapped through ``v -> rotation @ v + translation``."""
        rot = np.asarray(rotation, dtype=np.float64)
        tr = np.asarray(translation, dtype=np.float64).reshape(3)
        return TriangleMesh(self.vertices @ rot.T + tr, self.triangles.copy(), self.name)


@dataclass(frozen=True)
class Aabb:
    """Axis-aligned box given by two corners, ``min <= max`` per axis."""

    min: np.ndarray
    max: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "min", np.asarray(self.min, dtype=np.float64).reshape(3))
        object.__setattr__(self, "max", np.asarray(self.max, dtype=np.float64).reshape(3))

    @property
    def extent(self) -> np.ndarray:
        return self.max - self.min

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.min + self.max)

    @property
    def diagonal(self) -> float:
        return float(np.linalg.norm(self.extent))

    def scaled(self, factor: float) -> "Aabb":
        """Scale the box about its own center."""
        c = self.center
        half = 0.5 * factor * self.extent
        return Aabb(c - half, c + half)


@dataclass(frozen=True)
class MeshMeasures:
    volume: float
    surface_area: float


@dataclass(frozen=True)
class WatertightReport:
    is_watertight: bool
    open_edge_count: int


# Corner offsets and the two CCW-outward triangles of each cube face.
_BOX_CORNERS = np.array(
    [
        [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
        [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
    ],
    dtype=np.float64,
)
_BOX_TRIS = np.array(
    [
        [0, 2, 1], [0, 3, 2],  # bottom (z = 0), normal -z
        [4, 5, 6], [4, 6, 7],  # top, normal +z
        [0, 1, 5], [0, 5, 4],  # front (y = 0), normal -y
        [2, 3, 7], [2, 7, 6],  # back, normal +y
        [0, 4, 7], [0, 7, 3],  # left (x = 0), normal -x
        [1, 2, 6], [1, 6, 5],  # right, normal +x
    ],
    dtype=np.int32,
)


def box_mesh(size=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 0.0), name="box") -> TriangleMesh:
    """Axis-aligned solid box: 8 vertices, 12 triangles."""
    size = np.asarray(size, dtype=np.float64)
    origin = np.asarray(origin, dtype=np.float64)
    return TriangleMesh(_BOX_CORNERS * size + origin, _BOX_TRIS.copy(), name)


def triangle_corners(mesh: TriangleMesh):
    """The three (m, 3) corner arrays of every triangle."""
    v, t = mesh.vertices, mesh.triangles
    return v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross products of the 3-vectors along the last axes of a and b,
    which broadcast: np.cross's three products and differences, written
    out, so the same floats without its set-up cost."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0],
                    axis=-1)


def row_norms(v: np.ndarray) -> np.ndarray:
    """Lengths of the rows of an (n, 3) array, the floats of
    ``np.linalg.norm(v, axis=1)`` summed column by column: numpy reduces a
    short last axis slowly."""
    v0, v1, v2 = v[:, 0], v[:, 1], v[:, 2]
    return np.sqrt((v0 * v0 + v1 * v1) + v2 * v2)


def triangle_areas(mesh: TriangleMesh) -> np.ndarray:
    if mesh.is_empty:
        return np.zeros(0)
    p0, p1, p2 = triangle_corners(mesh)
    return 0.5 * row_norms(cross(p1 - p0, p2 - p0))


def triangle_normals(mesh: TriangleMesh) -> np.ndarray:
    """Unit normals; zero vector for degenerate triangles."""
    if mesh.is_empty:
        return np.zeros((0, 3))
    p0, p1, p2 = triangle_corners(mesh)
    n = cross(p1 - p0, p2 - p0)
    length = row_norms(n)
    ok = length > 0
    n[ok] /= length[ok, None]
    n[~ok] = 0.0
    return n


def measure(mesh: TriangleMesh) -> MeshMeasures:
    """Signed volume and surface area.

    The volume is the divergence-theorem sum of signed tetrahedra and is only
    meaningful for closed, consistently wound meshes.
    """
    if mesh.is_empty:
        return MeshMeasures(0.0, 0.0)
    p0, p1, p2 = triangle_corners(mesh)
    volume = float(np.einsum("ij,ij->", p0, cross(p1, p2))) / 6.0
    return MeshMeasures(volume, float(triangle_areas(mesh).sum()))


def aabb_of(mesh: TriangleMesh) -> Aabb:
    if len(mesh.vertices) == 0:
        return Aabb(np.zeros(3), np.zeros(3))
    return Aabb(mesh.vertices.min(axis=0), mesh.vertices.max(axis=0))


def validate_watertight(mesh: TriangleMesh) -> WatertightReport:
    """Check that every edge is shared by exactly two opposed triangles.

    Returns the number of undirected edges violating that rule; zero means
    the surface is closed and consistently oriented.
    """
    t = mesh.triangles
    if len(t) == 0:
        return WatertightReport(False, 0)
    # Edges a -> b, column by column: numpy reduces a short last axis slowly.
    a = np.concatenate([t[:, 0], t[:, 1], t[:, 2]]).astype(np.int64)
    b = np.concatenate([t[:, 1], t[:, 2], t[:, 0]]).astype(np.int64)
    forward = a < b
    key = np.minimum(a, b) * len(mesh.vertices) + np.maximum(a, b)
    order = np.argsort(key)
    key_sorted = key[order]
    fwd_sorted = forward[order]
    # Each run of equal keys is one undirected edge.
    start = np.flatnonzero(np.concatenate([[True], key_sorted[1:] != key_sorted[:-1]]))
    counts = np.diff(np.append(start, len(key_sorted)))
    fwd_counts = np.add.reduceat(fwd_sorted.astype(np.int64), start)
    bad = (counts != 2) | (fwd_counts != 1)
    open_edges = int(bad.sum())
    return WatertightReport(open_edges == 0, open_edges)


def weld_vertices(mesh: TriangleMesh, tolerance: float = WELD_TOLERANCE) -> TriangleMesh:
    """Merge vertices that quantize to the same grid cell of size `tolerance`."""
    if len(mesh.vertices) == 0:
        return mesh.copy()
    keys = np.round(mesh.vertices / tolerance).astype(np.int64)
    # Keys in ascending (x, y, z) order, equal keys in input order.
    order = np.lexsort(keys.T[::-1])
    x, y, z = (c[order] for c in keys.T)
    new = np.ones(len(keys), dtype=bool)
    new[1:] = (x[1:] != x[:-1]) | (y[1:] != y[:-1]) | (z[1:] != z[:-1])
    # Representative position: first occurrence of each key, for determinism.
    verts = mesh.vertices[order[new]]
    inverse = np.empty(len(keys), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    tris = inverse[mesh.triangles.astype(np.int64)].astype(np.int32)
    return TriangleMesh(verts, tris, mesh.name)


def drop_degenerate_triangles(mesh: TriangleMesh, min_area: float = DEGENERATE_AREA) -> TriangleMesh:
    if mesh.is_empty:
        return mesh.copy()
    t = mesh.triangles
    distinct = (t[:, 0] != t[:, 1]) & (t[:, 1] != t[:, 2]) & (t[:, 0] != t[:, 2])
    keep = distinct & (triangle_areas(mesh) > min_area)
    return TriangleMesh(mesh.vertices, t[keep], mesh.name)


def compact(mesh: TriangleMesh) -> TriangleMesh:
    """Drop vertices that no triangle references."""
    if mesh.is_empty:
        return TriangleMesh.empty(mesh.name)
    used, inverse = np.unique(mesh.triangles, return_inverse=True)
    verts = mesh.vertices[used]
    tris = inverse.reshape(-1, 3).astype(np.int32)
    return TriangleMesh(verts, tris, mesh.name)


def clean_mesh(mesh: TriangleMesh, tolerance: float = WELD_TOLERANCE) -> TriangleMesh:
    """Load-time cleanup: weld, drop degenerate triangles, drop orphan vertices."""
    return compact(drop_degenerate_triangles(weld_vertices(mesh, tolerance)))


# ---------------------------------------------------------------------------
# file I/O


def load_mesh(path) -> TriangleMesh:
    """Load a mesh from STL (binary or ASCII) or OBJ.

    The format is sniffed from the extension and file contents.  The
    result is welded at 1e-6 mm and degenerate triangles are dropped.
    Raises ParseError for malformed files and EmptyMesh when nothing
    survives cleanup.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    fmt = _sniff_format(path, raw)
    if fmt == "stl-binary":
        verts, tris = _parse_stl_binary(raw, path)
    elif fmt == "stl-ascii":
        verts, tris = _parse_stl_ascii(raw, path)
    else:
        verts, tris = _parse_obj(raw, path)
    mesh = clean_mesh(TriangleMesh(verts, tris, path.stem))
    if mesh.is_empty:
        raise EmptyMesh(f"{path} contains no usable triangles")
    report = validate_watertight(mesh)
    if not report.is_watertight:
        logger.warning(
            "%s is not watertight (%d open edges); decomposing it raises "
            "NonWatertightInput", path.name, report.open_edge_count,
        )
    return mesh


def _sniff_format(path: Path, raw: bytes) -> str:
    suffix = path.suffix.lower()
    if suffix == ".obj":
        return "obj"
    if suffix == ".stl":
        head = raw[:512].lstrip()
        if head.startswith(b"solid") and b"facet" in raw[:2048]:
            return "stl-ascii"
        return "stl-binary"
    raise ParseError(f"cannot infer mesh format from {path.name!r}")


def _parse_stl_binary(raw: bytes, path: Path):
    if len(raw) < 84:
        raise ParseError(f"{path}: binary STL shorter than its 84-byte preamble")
    (count,) = struct.unpack_from("<I", raw, 80)
    expected = 84 + 50 * count
    if len(raw) < expected:
        raise ParseError(
            f"{path}: header promises {count} triangles but file holds fewer"
        )
    records = np.frombuffer(raw, dtype=_STL_RECORD, count=count, offset=84)
    verts = records["verts"].astype(np.float64).reshape(-1, 3)
    tris = np.arange(3 * count, dtype=np.int32).reshape(-1, 3)
    return verts, tris


def _parse_stl_ascii(raw: bytes, path: Path):
    text = raw.decode("utf-8", errors="replace")
    coords: list[float] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        parts = line.split()
        if not parts or parts[0] != "vertex":
            continue
        if len(parts) != 4:
            raise ParseError(f"{path}:{lineno}: malformed vertex line")
        try:
            coords.extend(float(p) for p in parts[1:])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: non-numeric vertex") from exc
    if len(coords) % 9 != 0:
        raise ParseError(f"{path}: vertex count is not a multiple of three")
    verts = np.asarray(coords, dtype=np.float64).reshape(-1, 3)
    tris = np.arange(len(verts), dtype=np.int32).reshape(-1, 3)
    return verts, tris


def _parse_obj(raw: bytes, path: Path):
    text = raw.decode("utf-8", errors="replace")
    verts: list[list[float]] = []
    tris: list[list[int]] = []
    ahead: list[tuple[int, str, int]] = []  # indices of vertices read later
    for lineno, line in enumerate(text.splitlines(), 1):
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "v":
            if len(parts) < 4:
                raise ParseError(f"{path}:{lineno}: short vertex line")
            try:
                verts.append([float(p) for p in parts[1:4]])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: non-numeric vertex") from exc
        elif parts[0] == "f":
            idx = []
            for tok in parts[1:]:
                head = tok.split("/")[0]
                try:
                    i = int(head)
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: bad face index {tok!r}") from exc
                if i == 0 or len(verts) + i < 0:
                    raise ParseError(f"{path}:{lineno}: face index {tok!r} "
                                     "names no vertex")
                idx.append(i - 1 if i > 0 else len(verts) + i)
                if idx[-1] >= len(verts):
                    ahead.append((lineno, tok, idx[-1]))
            if len(idx) < 3:
                raise ParseError(f"{path}:{lineno}: face with fewer than 3 vertices")
            for k in range(1, len(idx) - 1):  # fan triangulation
                tris.append([idx[0], idx[k], idx[k + 1]])
    for lineno, tok, i in ahead:
        if i >= len(verts):
            raise ParseError(f"{path}:{lineno}: face index {tok!r} is past "
                             f"the {len(verts)} vertices")
    return (np.asarray(verts, dtype=np.float64).reshape(-1, 3),
            np.asarray(tris, dtype=np.int32).reshape(-1, 3))


def save_stl(mesh: TriangleMesh, path) -> None:
    """Write a binary STL: 80-byte header, uint32 count, 50-byte records."""
    path = Path(path)
    count = len(mesh.triangles)
    records = np.zeros(count, dtype=_STL_RECORD)
    if count:
        records["normal"] = triangle_normals(mesh).astype(np.float32)
        p0, p1, p2 = triangle_corners(mesh)
        records["verts"][:, 0] = p0.astype(np.float32)
        records["verts"][:, 1] = p1.astype(np.float32)
        records["verts"][:, 2] = p2.astype(np.float32)
    header = mesh.name.encode("utf-8", errors="replace")[:80].ljust(80, b"\0")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(struct.pack("<I", count))
        fh.write(records.tobytes())
