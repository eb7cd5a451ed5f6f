"""Cubic occupancy grid over a mesh, cell labels, and per-cell measures.

The grid covers the mesh's bounding box scaled by 1.001 about its center
(so cell faces avoid lying exactly in mesh faces), with cubic cells sized by
a named granularity preset along the longest axis.  A cell is *boundary*
when the surface clipped to it is non-empty.  A cell without surface is
*internal* when its solid volume (below) exceeds half the cell, otherwise
*external*.  Only a closed mesh bounds a solid, so an open one raises
NonWatertightInput.  The :class:`Grid` is the one record of a piece's
cells: its lattice, labels, measures and their summed-volume table.

The surface is clipped to the cells in one call, one axis at a time: each
triangle is clipped to the x-slabs its bounding box overlaps, the pieces
to their (x, y) columns, and those to their cells (see
:func:`~parallelobox.clip.clip_surface_to_box`).  The pieces are summed
per cell with ``np.bincount``.  Every per-cell measure comes from that
one clip: shell area and overhang areas directly, and solid volume by the
divergence theorem (Mirtich 1996, "Fast and accurate computation of
polyhedral mass properties").  With F = (0, 0, z - z0), z0 the cell's bottom
plane, F has no flux through the bottom and side faces, so

    V(cell) = sum over pieces in the cell of (z_mean - z0) * n_z dA
              + h * A_top

where h is the cell size and A_top, the solid's cross-section on the
cell's top face, is the sum of n_z dA over the pieces in the cells above it
in the same column.  The same sums along x and y give the cross-section on
every cell's max face, so any cell-aligned box gets its solid volume and
its capped surface area (shell plus the six box-face caps) from sums over
these tables, with no mesh clipped.

Every measure is rounded to a multiple of a power of two q, chosen per
array so that the array's absolute sum is below 2**EXACT_BITS * q.
Every partial sum of a rounded array is then an exact float64, whatever
the order of summation.  One summed-volume table (Crow 1984, "Summed-area
tables for texture mapping") over all measures and the solid and boundary
cell counts answers the sum over any cell range with one 8-term
inclusion-exclusion, which is exact too: a table sum equals the slice sum
bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

# points_in_mesh is not called here: the benchmark's traced mode patches it.
from .clip import clip_surface_to_box, points_in_mesh  # noqa: F401
from .errors import NonWatertightInput
from .mesh import (Aabb, TriangleMesh, aabb_of, cross, row_norms,
                   triangle_normals, validate_watertight)

#: Cells along the longest bounding-box axis for each named granularity.
GRANULARITY_CELLS = {"coarse": 8, "medium": 10, "fine": 12, "very_fine": 15}
#: Bounding-box safety scale so mesh faces never coincide with cell faces.
BBOX_SCALE = 1.001


class CellClass(IntEnum):
    EXTERNAL = 0
    BOUNDARY = 1
    INTERNAL = 2


@dataclass
class Grid:
    """Dense cubic grid over one piece, and the one record of its cells.

    :meth:`set_cells`, with which :func:`measure_cells` ends, keeps their
    labels and measures and builds the summed-volume ``table`` of them that
    parts' boxes are counted and scored from.  The measures are rounded as
    they are set (see :func:`quantize`), so arrays changed afterwards are
    not seen by the sums: call :meth:`set_cells` again instead.
    """

    origin: np.ndarray
    cell_size: float
    dims: tuple[int, int, int]
    classification: np.ndarray = field(init=False, repr=False)  # CellClass
    volume: np.ndarray = field(init=False, repr=False)    # solid volume
    area: np.ndarray = field(init=False, repr=False)      # cap-free shell area
    overhang: np.ndarray = field(init=False, repr=False)  # (6, nx, ny, nz):
                                  # per down-direction overhang area
    section: np.ndarray = field(init=False, repr=False)   # (3, nx, ny, nz):
                                  # solid cross-section on the max x, y, z face
    table: np.ndarray = field(init=False, repr=False)     # ((nx+1)(ny+1)(nz+1), 13)
    strides: np.ndarray = field(init=False, repr=False)   # of table, in rows

    def __post_init__(self) -> None:
        self.origin = np.asarray(self.origin, dtype=np.float64).reshape(3)
        self.dims = tuple(int(d) for d in self.dims)
        # Rows of the flat table, which has one more entry along each axis.
        nx, ny, nz = self.dims
        self.strides = np.array([(ny + 1) * (nz + 1), nz + 1, 1])

    def box_of_range(self, lo, hi) -> Aabb:
        """Physical box spanned by cells lo..hi inclusive."""
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        return Aabb(self.origin + lo * self.cell_size,
                    self.origin + (hi + 1.0) * self.cell_size)

    def set_cells(self, volume, area, overhang, section,
                  classification) -> Grid:
        """Keep the cells' measures, rounded, and labels, build their
        summed-volume table, and return the grid."""
        self.volume = quantize(volume)
        self.area = quantize(area)
        self.overhang = quantize(overhang)
        self.section = quantize(section)
        self.classification = np.asarray(classification)
        channels = np.concatenate([
            self.volume[None], self.area[None], self.overhang, self.section,
            (self.classification != CellClass.EXTERNAL)[None],
            (self.classification == CellClass.BOUNDARY)[None]])
        table = np.zeros(tuple(n + 1 for n in self.dims) + (N_CHANNELS,))
        table[1:, 1:, 1:] = np.moveaxis(channels, 0, -1).cumsum(0).cumsum(1).cumsum(2)
        self.table = table.reshape(-1, N_CHANNELS)
        return self

    def sums(self, lo, hi) -> np.ndarray:
        """Every channel summed over the inclusive cell ranges [lo, hi].

        lo and hi are (..., 3); the result is (..., N_CHANNELS).  Ranges are
        clipped to the grid, and an empty range sums to zero.
        """
        return range_sums(self.table, 0, self.dims, self.strides, lo, hi)

    def boxes(self, lo, hi) -> tuple[np.ndarray, np.ndarray]:
        """Solid volume and capped surface area of each of the (k, 3) cell
        ranges lo..hi inclusive, from one table read.

        The caps are the solid's cross-sections on the six box faces: on a
        max face the section of the box's own last layer, on a min face
        that of the layer before it (none at the grid's edge).  The table
        sums are exact, so each range reads the same as it would alone.
        """
        lo = np.asarray(lo, dtype=np.int64)
        hi = np.asarray(hi, dtype=np.int64)
        # Range 0 is the box, range 1 + f the layer of face f's cap, faces
        # in DIRECTIONS order.
        ranges = np.repeat(np.stack([lo, hi], axis=1)[:, None], 7, axis=1)
        for face in range(6):
            axis = face // 2
            layer = hi[:, axis] if face % 2 == 0 else lo[:, axis] - 1
            ranges[:, 1 + face, :, axis] = layer[:, None]
        sums = self.sums(ranges[:, :, 0], ranges[:, :, 1])
        area = sums[:, 0, AREA]
        for face in range(6):
            area = area + sums[:, 1 + face, SECTION.start + face // 2]
        return sums[:, 0, VOLUME], area


def build_grid(mesh: TriangleMesh, granularity: str = "very_fine") -> Grid:
    """Lay a cubic grid over the scaled bounding box of a mesh."""
    if granularity not in GRANULARITY_CELLS:
        raise ValueError(f"unknown granularity {granularity!r}; "
                         f"expected one of {sorted(GRANULARITY_CELLS)}")
    box = aabb_of(mesh).scaled(BBOX_SCALE)
    extent = box.extent
    longest = float(extent.max())
    if longest <= 0:
        raise ValueError("mesh bounding box has no extent")
    n_longest = GRANULARITY_CELLS[granularity]
    cell_size = longest / n_longest
    # The epsilon guards against ceil(5.0000000001) = 6 on exact divisions.
    dims = tuple(int(np.ceil(e / cell_size - 1e-9)) if e > 0 else 1 for e in extent)
    dims = tuple(max(d, 1) for d in dims)
    return Grid(origin=box.min, cell_size=cell_size, dims=dims)


#: Bits, in units of its quantum, of a measure array's absolute sum.  A
#: float64 holds integers to 2**53 exactly; an 8-term inclusion-exclusion
#: of table entries needs 3 more bits than one entry, rounding may add one
#: to the sum, and one is spare.
EXACT_BITS = 48

#: Channels of Grid.table: volume, area, the six overhangs (in
#: DIRECTIONS order), the three face sections (x, y, z), and the counts of
#: non-external (solid) and of boundary cells.
VOLUME, AREA = 0, 1
OVERHANG = slice(2, 8)
SECTION = slice(8, 11)
SOLID, BOUNDARY = 11, 12
N_CHANNELS = 13

#: The 8 corners of a cell range in a summed-volume table, as 0/1 picks of
#: (start, end) per axis, and the sign each corner enters the sum with.
_CORNERS = np.array([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)])
_CORNER_SIGNS = np.where((3 - _CORNERS.sum(axis=1)) % 2 == 0, 1.0, -1.0)


def quantize(values: np.ndarray) -> np.ndarray:
    """values rounded to the multiples of a power of two q chosen so that
    sum(|values|) < 2**EXACT_BITS * q; every partial sum is then exact."""
    total = float(np.abs(values).sum())
    if total == 0.0:
        return np.zeros_like(values, dtype=np.float64)
    exponent = np.frexp(total)[1] - EXACT_BITS    # total < 2**frexp exponent
    return np.ldexp(np.rint(np.ldexp(values, -exponent)), exponent)


def range_sums(table: np.ndarray, base, dims, strides, lo, hi) -> np.ndarray:
    """Every channel of flat summed-volume tables summed over the inclusive
    cell ranges [lo, hi].

    table may hold the tables of several grids one after another: a range
    reads the table that starts at row base, of a grid with the given dims
    and strides (:attr:`Grid.strides`).  lo and hi are (..., 3), dims and
    strides broadcast against them and base against their leading shape;
    the result is (..., N_CHANNELS).  Ranges are clipped to their grid, and
    an empty range sums to zero.
    """
    start = np.minimum(np.maximum(lo, 0), dims)
    end = np.maximum(np.minimum(np.asarray(hi) + 1, dims), start)
    # Corner c takes the end on the axes where it has a 1, the start on
    # the others.
    first = base + (start * strides).sum(axis=-1)
    corners = first[..., None] + ((end - start) * strides) @ _CORNERS.T
    return _CORNER_SIGNS @ table[corners]


#: Growth direction order: +x, -x, +y, -y, +z, -z.
DIRECTIONS = np.array(
    [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
    dtype=np.int64,
)


def measure_cells(grid: Grid, mesh: TriangleMesh,
                  overhang_tolerance_deg: float = 1.0) -> Grid:
    """Label every cell of grid and set its volume, area, overhangs and face
    sections (:meth:`Grid.set_cells`); returns grid.

    Raises NonWatertightInput when the mesh is not closed.
    """
    if not validate_watertight(mesh).is_watertight:
        raise NonWatertightInput("cell volumes need a closed mesh")
    pieces, tris, flat = clip_surface_to_box(mesh, grid)
    nx, ny, nz = grid.dims

    def per_cell(weights):
        return np.bincount(flat, weights, minlength=nx * ny * nz).reshape(grid.dims)

    # Each piece's normal scaled to twice its area.
    twice_area = cross(pieces[:, 1] - pieces[:, 0], pieces[:, 2] - pieces[:, 0])
    piece_area = 0.5 * row_norms(twice_area)
    area = per_cell(piece_area)
    tilt = triangle_normals(mesh)[tris] @ DIRECTIONS.T
    sin_tol = np.sin(np.radians(overhang_tolerance_deg))
    over = np.stack([per_cell(np.where(tilt[:, d] > sin_tol, piece_area, 0.0))
                     for d in range(6)])
    nz_da = 0.5 * twice_area[:, 2]
    z_mean = pieces[:, :, 2].mean(axis=1)
    z0 = grid.origin[2] + flat % nz * grid.cell_size
    flux = per_cell((z_mean - z0) * nz_da)               # (z_mean - z0) * n_z dA
    lift = per_cell(nz_da)                               # n_z dA
    section = np.stack([face_sections(per_cell(0.5 * twice_area[:, 0]), 0),
                        face_sections(per_cell(0.5 * twice_area[:, 1]), 1),
                        face_sections(lift, 2)])

    # A cell without surface is all solid or all void, so its flux volume
    # is about cell_size**3 or 0.
    volume = grid_cell_volumes(flux, lift, grid.cell_size)
    classification = np.where(volume > 0.5 * grid.cell_size ** 3,
                              np.int8(CellClass.INTERNAL), np.int8(CellClass.EXTERNAL))
    classification[per_cell(None) > 0] = CellClass.BOUNDARY
    return grid.set_cells(volume, area, over, section, classification)


def face_sections(lift: np.ndarray, axis: int) -> np.ndarray:
    """Solid cross-section on each cell's max face along axis.

    lift holds the per-cell sums of n_axis dA of a closed surface; the
    section is the lift of all cells beyond the face in the same row, an
    exclusive reverse cumulative sum.
    """
    out = np.zeros_like(lift)
    np.moveaxis(out, axis, -1)[..., :-1] = np.cumsum(
        np.moveaxis(lift, axis, -1)[..., :0:-1], axis=-1)[..., ::-1]
    return out


def grid_cell_volumes(flux: np.ndarray, lift: np.ndarray, cell_size: float) -> np.ndarray:
    """Solid volume per cell of a closed surface from its per-cell flux sums."""
    return flux + cell_size * face_sections(lift, 2)
