"""Programmatic watertight test meshes.

Everything here is exact, constructed geometry: boxes, an icosphere, and
polycube solids extracted from voxel masks.  The shapes exist so tests and
demos have known volumes, areas, and symmetries without shipping binary
mesh files.  ``box_mesh`` lives in :mod:`parallelobox.mesh` and is
available here as well.
"""
from __future__ import annotations

import numpy as np

from .mesh import TriangleMesh, box_mesh


def unit_cube(name="cube") -> TriangleMesh:
    return box_mesh((1.0, 1.0, 1.0), (0.0, 0.0, 0.0), name)


def icosphere(radius: float = 10.0, subdivisions: int = 3, center=(0.0, 0.0, 0.0),
              name="sphere") -> TriangleMesh:
    """Subdivided icosahedron; 3 subdivisions give 1280 triangles."""
    phi = (1.0 + 5.0 ** 0.5) / 2.0
    verts = np.array(
        [
            [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
            [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
            [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
        ],
        dtype=np.float64,
    )
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = [v for v in verts]
    for _ in range(subdivisions):
        cache: dict[tuple[int, int], int] = {}

        def midpoint(a: int, b: int) -> int:
            key = (a, b) if a < b else (b, a)
            if key not in cache:
                m = verts[a] + verts[b]
                m /= np.linalg.norm(m)
                cache[key] = len(verts)
                verts.append(m)
            return cache[key]

        faces = [
            tri
            for (a, b, c) in faces
            for tri in (
                (a, midpoint(a, b), midpoint(c, a)),
                (midpoint(a, b), b, midpoint(b, c)),
                (midpoint(c, a), midpoint(b, c), c),
                (midpoint(a, b), midpoint(b, c), midpoint(c, a)),
            )
        ]
    positions = np.asarray(verts) * radius + np.asarray(center, dtype=np.float64)
    return TriangleMesh(positions, np.asarray(faces, dtype=np.int32), name)


def voxel_mesh(occupancy: np.ndarray, voxel_size: float = 1.0,
               origin=(0.0, 0.0, 0.0), name="voxels") -> TriangleMesh:
    """Watertight surface of a boolean voxel volume.

    Emits one outward-facing quad (two triangles) per solid/empty face pair,
    so cavities get their own inner shells.  Keep solids face-connected;
    voxels touching only along an edge would produce a non-manifold seam.
    Corners are numbered once, in ascending (x, y, z) order of their
    integer voxel coordinates: the numbering that welding at 1e-6 mm
    gives when ``voxel_size`` exceeds 1e-6 mm.
    """
    occ = np.asarray(occupancy, dtype=bool)
    if occ.ndim != 3:
        raise ValueError("occupancy must be a 3-D boolean array")
    padded = np.pad(occ, 1, constant_values=False)
    quads, tris = [], []
    # For each axis, faces exist where solidity flips between neighbours.
    for axis in range(3):
        shifted = np.roll(padded, -1, axis=axis)
        du, dw = np.eye(3, dtype=np.int64)[[(axis + 1) % 3, (axis + 2) % 3]]
        # A quad's corners are base, +u, +u+w, +w.  A solid -> empty step
        # along +axis gives a face toward +axis, empty -> solid toward -axis.
        for mask, order in ((padded & ~shifted, [0, 1, 2, 0, 2, 3]),
                            (~padded & shifted, [0, 2, 1, 0, 3, 2])):
            base = np.argwhere(mask) - 1
            base[:, axis] += 1  # the face sits on the +axis side of the cell
            first = 4 * sum(len(q) for q in quads)
            quads.append(np.stack([base, base + du, base + du + dw, base + dw],
                                  axis=1))
            tris.append(first + 4 * np.arange(len(base))[:, None] + order)
    corners, index = np.unique(np.concatenate(quads).reshape(-1, 3), axis=0,
                               return_inverse=True)
    positions = (corners.astype(np.float64) * voxel_size
                 + np.asarray(origin, dtype=np.float64))
    triangles = index.reshape(-1)[np.concatenate(tris).reshape(-1, 3)]
    return TriangleMesh(positions, triangles.astype(np.int32), name)


def dumbbell(voxel_size: float = 4.0, name="dumbbell") -> TriangleMesh:
    """Two 5x5x5 lobes joined by a 5-voxel bar; mirror-symmetric in x, y, z."""
    occ = np.zeros((15, 5, 5), dtype=bool)
    occ[0:5, :, :] = True
    occ[10:15, :, :] = True
    occ[5:10, 2, 2] = True
    return voxel_mesh(occ, voxel_size, name=name)


def l_bracket(voxel_size: float = 4.0, name="l_bracket") -> TriangleMesh:
    """L-shaped bracket: a 10x3x3 arm with a 3x3x7 upright on one end."""
    occ = np.zeros((10, 3, 10), dtype=bool)
    occ[:, :, 0:3] = True
    occ[0:3, :, 3:10] = True
    return voxel_mesh(occ, voxel_size, name=name)


def hollow_box(voxel_size: float = 4.0, name="hollow_box") -> TriangleMesh:
    """9x9x9 block with a 5x5x5 sealed cavity (wall 2 voxels thick)."""
    occ = np.ones((9, 9, 9), dtype=bool)
    occ[2:7, 2:7, 2:7] = False
    return voxel_mesh(occ, voxel_size, name=name)


def asymmetric_blob(voxel_size: float = 4.0, name="blob") -> TriangleMesh:
    """Face-connected staircase polycube with no mirror symmetry."""
    occ = np.zeros((7, 6, 5), dtype=bool)
    occ[0:4, 0:3, 0:2] = True
    occ[2:7, 1:4, 0:3] = True
    occ[4:6, 2:6, 0:2] = True
    occ[5:7, 1:3, 2:5] = True
    occ[0:2, 0:2, 1:4] = True
    return voxel_mesh(occ, voxel_size, name=name)


def random_solid(seed: int, name="solid") -> TriangleMesh:
    """A seeded random polycube: the union of 2-4 random boxes of voxels in
    a cube of 6, 8 or 12 voxels of 10 mm.  Boxes that ring a gap give
    cross-sections with holes.  Voxels that touch only along an edge or
    at a corner are joined through a voxel beside them, until none are
    left, so the surface is closed."""
    rng = np.random.default_rng(seed)
    n = int(rng.choice([6, 8, 12]))
    occ = np.zeros((n, n, n), dtype=bool)
    for _ in range(int(rng.integers(2, 5))):
        lo = rng.integers(0, n, size=3)
        hi = rng.integers(lo + 1, n + 1)
        occ[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = True
    # The 8 voxels of every 2 x 2 x 2 block, corner c = 4i + 2j + k.
    block = [(slice(i, n - 1 + i), slice(j, n - 1 + j), slice(k, n - 1 + k))
             for i in (0, 1) for j in (0, 1) for k in (0, 1)]
    while True:
        grow = np.zeros_like(occ)
        count = sum(occ[b].astype(np.int64) for b in block)
        for c in range(8):
            # Corners c and c ^ d share an edge when d has two bits, a
            # corner when it has three.  They touch only there when the
            # rest of their square, or of their block, is empty; then
            # c ^ low, low the lowest bit of d, is filled.
            for d in (3, 5, 6, 7):
                if c < c ^ d:
                    low = d & -d
                    alone = (count == 2 if d == 7 else
                             ~occ[block[c ^ low]] & ~occ[block[c ^ d ^ low]])
                    grow[block[c ^ low]] |= occ[block[c]] & occ[block[c ^ d]] & alone
        if not grow.any():
            return voxel_mesh(occ, voxel_size=10.0, name=name)
        occ |= grow


def thin_plate(side: float = 20.0, thickness: float = 0.5, name="plate") -> TriangleMesh:
    """Plate thinner than any grid cell, so no cell is fully interior."""
    return box_mesh((side, side, thickness), name=name)


def wedge(size: float = 10.0, length: float = 10.0, name="wedge") -> TriangleMesh:
    """Right triangular prism whose hypotenuse face leans at 45 degrees."""
    s, l = float(size), float(length)
    verts = np.array(
        [
            [0, 0, 0], [s, 0, 0], [0, 0, s],   # triangle at y = 0
            [0, l, 0], [s, l, 0], [0, l, s],   # triangle at y = l
        ],
        dtype=np.float64,
    )
    tris = np.array(
        [
            [0, 1, 2],              # y = 0 cap, normal -y
            [3, 5, 4],              # y = l cap, normal +y
            [0, 4, 1], [0, 3, 4],   # bottom, normal -z
            [0, 2, 5], [0, 5, 3],   # left, normal -x
            [1, 4, 5], [1, 5, 2],   # slanted face
        ],
        dtype=np.int32,
    )
    return TriangleMesh(verts, tris, name)
