"""Seed blocks and objective-driven box growth.

Blocks are axis-aligned cell ranges that compete to cover the solid.  Each
growth step scores every (block, direction) pair and applies the cheapest
positive option.  The cost of growing block M into M' is

    cost = (P(M') + overhang_weight * O(M')) / max(S_prox(M'), proximity_floor)

where P is the print score of the clipped geometry owned by M', O the
minimum oriented overhang area over the six axis build directions, and
S_prox the L1 box-gap to the nearest other block in grid units.  Hard
failures (leaving the grid, outgrowing the printer, an empty new layer, or
bumping into owned cells) score -1 and are never applied.

A step scores all 6k options in one numpy pass.  The measures summed over
the one-cell layer beyond a block face depend only on the static cell
measures and that block's own box, so :class:`GrowthState` caches them per
(block, direction) and a move re-sums only the grown block's layers, with
the same slice sums as a per-option loop; scores stay bit-identical to
one.  Ownership lives in ``grid.owner`` alone: the overlap check counts the
owned cells of every layer from a summed-volume table of it, and the number
of unowned boundary cells is a counter that each move decrements.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientBoundaryCells
from .grid import DIRECTIONS, CellClass, CellMeasures, Grid
from .mesh import TriangleMesh

logger = logging.getLogger(__name__)

DIRECTION_NAMES = ("+x", "-x", "+y", "-y", "+z", "-z")
#: Relative margin by which a growth option must beat the incumbent; closer
#: scores are ties up to rounding and go to the option scanned first.
SCORE_RTOL = 1e-9


@dataclass(frozen=True)
class ObjectiveParams:
    """Knobs of the growth objective and printability constraints."""

    speed_infill: float = 20.0        # mm/s
    speed_shell: float = 20.0         # mm/s
    infill_fraction: float = 0.05
    overhang_tolerance_deg: float = 1.0
    printer_dims: tuple[float, float, float] = (250.0, 250.0, 250.0)
    overhang_weight: float = 1.0
    proximity_floor: float = 1.0      # grid units


@dataclass
class Block:
    """Axis-aligned range of cells [lo, hi] inclusive."""

    id: int
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        self.lo = np.asarray(self.lo, dtype=np.int64).reshape(3)
        self.hi = np.asarray(self.hi, dtype=np.int64).reshape(3)


def print_score(volume: float, surface_area: float, params: ObjectiveParams) -> float:
    """P = speed_infill * (infill * volume) + speed_shell * area."""
    return (params.speed_infill * (params.infill_fraction * volume)
            + params.speed_shell * surface_area)


def fits_printer(physical_dims, printer_dims):
    """Sorted-extent comparison: the part may be reoriented axis-to-axis.

    ``physical_dims`` may hold a stack of extents along its last axis; the
    answer then has its leading shape.
    """
    return np.all(np.sort(np.asarray(physical_dims, dtype=np.float64), axis=-1)
                  <= np.sort(np.asarray(printer_dims, dtype=np.float64)) + 1e-9,
                  axis=-1)


# ---------------------------------------------------------------------------
# seeding


def _kmeans_pp(points: np.ndarray, k: int, rng: np.random.Generator,
               tol: float, max_iter: int = 100) -> np.ndarray:
    n = len(points)
    centers = np.empty((k, 3))
    centers[0] = points[rng.integers(n)]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[i] = points[rng.integers(n)]
        else:
            centers[i] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((points - centers[i]) ** 2).sum(axis=1))
    for _ in range(max_iter):
        dists = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = dists.argmin(axis=1)
        moved = 0.0
        for c in range(k):
            members = points[assign == c]
            if len(members) == 0:
                # Re-seed a starved cluster at the point farthest from its center.
                far = int(dists.min(axis=1).argmax())
                new = points[far]
            else:
                new = members.mean(axis=0)
            moved = max(moved, float(np.linalg.norm(new - centers[c])))
            centers[c] = new
        if moved < tol:
            break
    return centers


def select_seed_blocks(grid: Grid, mesh: TriangleMesh, k: int,
                       rng_seed: int = 0) -> list[Block]:
    """k-means++ the vertex cloud and drop one unit block per centroid.

    Centroids landing in internal or external cells snap to the nearest
    boundary cell; collisions take the next nearest unoccupied one.
    """
    boundary = np.argwhere(grid.classification == CellClass.BOUNDARY)
    if len(boundary) < k:
        raise InsufficientBoundaryCells(
            f"need {k} boundary cells, grid has {len(boundary)}")
    rng = np.random.default_rng(rng_seed)
    centers = _kmeans_pp(mesh.vertices, k, rng, tol=1e-4 * grid.cell_size)
    boundary_centers = grid.origin + (boundary + 0.5) * grid.cell_size
    taken: set[tuple[int, int, int]] = set()
    blocks: list[Block] = []
    for bid, c in enumerate(centers):
        coord = np.floor((c - grid.origin) / grid.cell_size).astype(np.int64)
        coord = np.clip(coord, 0, np.array(grid.dims) - 1)
        key = tuple(int(x) for x in coord)
        if (grid.classification[key] != CellClass.BOUNDARY) or (key in taken):
            order = np.argsort(((boundary_centers - c) ** 2).sum(axis=1), kind="stable")
            for cand in order:
                key = tuple(int(x) for x in boundary[cand])
                if key not in taken:
                    break
            else:  # pragma: no cover - guarded by the k <= len(boundary) check
                raise InsufficientBoundaryCells("ran out of boundary cells")
        taken.add(key)
        blocks.append(Block(bid, np.array(key), np.array(key)))
    return blocks


# ---------------------------------------------------------------------------
# growth

def _cells(lo, hi) -> tuple[slice, slice, slice]:
    """Index of the inclusive cell range [lo, hi]."""
    return tuple(slice(int(a), int(b) + 1) for a, b in zip(lo, hi))


def _layer_boxes(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inclusive cell ranges of the one-cell layer beyond each face of the
    boxes [lo, hi], (k, 3) each; returns two (k, 6, 3) arrays in DIRECTIONS
    order.  A layer beyond the grid edge reads -1 or dims on its axis."""
    lo, hi = lo[:, None], hi[:, None]
    return (np.where(DIRECTIONS > 0, hi + 1, lo + np.minimum(DIRECTIONS, 0)),
            np.where(DIRECTIONS < 0, lo - 1, hi + np.maximum(DIRECTIONS, 0)))


def _owned_counts(owner: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Owned cells in each inclusive range [lo, hi], (..., 3) each, read from
    a summed-volume table of ``owner >= 0`` (Crow 1984).  Ranges are clipped
    to the grid."""
    table = np.zeros(tuple(n + 1 for n in owner.shape), dtype=np.int64)
    table[1:, 1:, 1:] = (owner >= 0).cumsum(0).cumsum(1).cumsum(2)
    x0, y0, z0 = np.maximum(lo, 0).T
    x1, y1, z1 = np.minimum(hi + 1, owner.shape).T
    return (table[x1, y1, z1] - table[x0, y1, z1] - table[x1, y0, z1]
            - table[x1, y1, z0] + table[x0, y0, z1] + table[x0, y1, z0]
            + table[x1, y0, z0] - table[x0, y0, z0]).T


class GrowthState:
    """Block boxes, ownership, and cached objective sums for the growth loop.

    ``grid.owner`` is the only record of which block owns a cell; the state
    claims the non-external cells of each block's starting box.  Per-block
    arrays are indexed by position in ``blocks``, and each block's ``lo``
    and ``hi`` are views of its rows in ``self.lo`` and ``self.hi``.  The
    ``layer_*`` arrays hold the sums over the one-cell layer beyond each
    block face, (k, 6) or (k, 6, 6); they depend only on the measures and
    that block's own box, so a move re-sums only the grown block's layers.
    A layer is open when it lies inside the grid and holds a non-external
    cell; a layer outside the grid sums to zero.
    """

    def __init__(self, grid: Grid, measures: CellMeasures, blocks: list[Block],
                 params: ObjectiveParams):
        self.grid = grid
        self.measures = measures
        self.params = params
        self.blocks = blocks
        k = len(blocks)
        self.lo = np.array([b.lo for b in blocks], dtype=np.int64).reshape(k, 3)
        self.hi = np.array([b.hi for b in blocks], dtype=np.int64).reshape(k, 3)
        self.volume = np.zeros(k)
        self.area = np.zeros(k)
        self.overhang = np.zeros((k, 6))
        self.layer_volume = np.zeros((k, 6))
        self.layer_area = np.zeros((k, 6))
        self.layer_overhang = np.zeros((k, 6, 6))
        self.layer_open = np.zeros((k, 6), dtype=bool)
        for i, b in enumerate(blocks):
            b.lo, b.hi = self.lo[i], self.hi[i]
            sl = _cells(b.lo, b.hi)
            grid.owner[sl][grid.classification[sl] != CellClass.EXTERNAL] = b.id
            self.volume[i], self.area[i], self.overhang[i] = self._sums(sl)
            self._sum_layers(i)
        self._unassigned = int(((grid.classification == CellClass.BOUNDARY)
                                & (grid.owner < 0)).sum())

    def _sums(self, sl):
        """Volume, area and the six overhang areas of the cells in sl."""
        m = self.measures
        return (m.volume[sl].sum(), m.area[sl].sum(),
                m.overhang[(slice(None),) + sl].reshape(6, -1).sum(axis=1))

    def _sum_layers(self, i: int, directions=range(6)) -> None:
        """Sum the measures over the layers beyond block i's faces."""
        grid = self.grid
        layer_lo, layer_hi = _layer_boxes(self.lo[i:i + 1], self.hi[i:i + 1])
        for d in directions:
            lo, hi = layer_lo[0, d].tolist(), layer_hi[0, d].tolist()
            if min(lo) < 0 or any(h >= n for h, n in zip(hi, grid.dims)):
                self.layer_open[i, d] = False
                self.layer_volume[i, d] = self.layer_area[i, d] = 0.0
                self.layer_overhang[i, d] = 0.0
                continue
            sl = _cells(lo, hi)
            self.layer_open[i, d] = (grid.classification[sl] != CellClass.EXTERNAL).any()
            (self.layer_volume[i, d], self.layer_area[i, d],
             self.layer_overhang[i, d]) = self._sums(sl)

    def unassigned_boundary(self) -> int:
        """Boundary cells no block owns yet."""
        return self._unassigned


def score_growth(state: GrowthState) -> np.ndarray:
    """Score every (block, direction) option at once.

    Returns a (k, 6) array, rows in ``state.blocks`` order and columns in
    DIRECTIONS order; -1 encodes a hard constraint failure.
    """
    grid, params = state.grid, state.params
    layer_lo, layer_hi = _layer_boxes(state.lo, state.hi)
    new_lo = np.minimum(state.lo[:, None], layer_lo)
    new_hi = np.maximum(state.hi[:, None], layer_hi)
    extent = new_hi - new_lo + 1
    fits = fits_printer(extent * grid.cell_size, params.printer_dims)
    clear = _owned_counts(grid.owner, layer_lo, layer_hi) == 0
    allowed = state.layer_open & fits & clear  # not open: off-grid or empty

    volume = state.volume[:, None] + state.layer_volume
    area = state.area[:, None] + state.layer_area
    o_score = (state.overhang[:, None] + state.layer_overhang).min(axis=2)
    p_score = print_score(volume, area, params)

    # L1 box gap of each grown block to every other block, in grid units;
    # all terms are multiples of 0.5, so the sums are exact.
    k = len(state.blocks)
    centroid = 0.5 * (new_lo + new_hi + 1)
    size = 0.5 * extent.sum(axis=2)
    other_centroid = 0.5 * (state.lo + state.hi + 1)
    other_size = 0.5 * (state.hi - state.lo + 1).sum(axis=1)
    gap = (np.abs(centroid[:, :, None] - other_centroid).sum(axis=3)
           - (size[:, :, None] + other_size))
    gap[np.arange(k), :, np.arange(k)] = np.inf
    prox = gap.min(axis=2, initial=np.inf)
    # A single block has no neighbour: proximity is moot.
    prox = np.where(np.isfinite(prox), prox, params.proximity_floor)
    denom = np.maximum(prox, params.proximity_floor)
    score = (p_score + params.overhang_weight * o_score) / denom
    return np.where(allowed, score, -1.0)


def apply_growth(state: GrowthState, index: int, direction: int) -> None:
    """Extend block ``state.blocks[index]`` one layer and claim the layer's
    non-external cells, none of which may be owned."""
    block = state.blocks[index]
    layer_lo, layer_hi = _layer_boxes(state.lo[index:index + 1],
                                      state.hi[index:index + 1])
    lo, hi = layer_lo[0, direction], layer_hi[0, direction]
    sl = _cells(lo, hi)
    grid = state.grid
    layer = grid.classification[sl]
    grid.owner[sl][layer != CellClass.EXTERNAL] = block.id
    state._unassigned -= int((layer == CellClass.BOUNDARY).sum())
    state.volume[index] += state.layer_volume[index, direction]
    state.area[index] += state.layer_area[index, direction]
    state.overhang[index] += state.layer_overhang[index, direction]
    np.minimum(block.lo, lo, out=block.lo)
    np.maximum(block.hi, hi, out=block.hi)
    # The layer behind the grown face is unchanged: directions pair up as
    # (+x, -x), (+y, -y), (+z, -z).
    state._sum_layers(index, [d for d in range(6) if d != direction ^ 1])


def grow_blocks(state: GrowthState, trace: list | None = None) -> list[Block]:
    """Run the serial growth loop until no move is allowed or needed.

    Each iteration scores all (block, direction) options in one pass and
    scans them in block order and then the direction order
    +x,-x,+y,-y,+z,-z, applying the one with the smallest positive score.
    A later option replaces the incumbent only when its score is lower by
    more than SCORE_RTOL relative, so scores equal up to rounding go to the
    lowest (block id, direction).  The loop stops when every option is
    forbidden or no unassigned boundary cells remain.
    """
    while state.unassigned_boundary() > 0:
        best, best_score = -1, 0.0
        for option, score in enumerate(score_growth(state).ravel().tolist()):
            if score > 0 and (best < 0 or score < best_score * (1.0 - SCORE_RTOL)):
                best, best_score = option, score
        if best < 0:
            break
        index, direction = divmod(best, 6)
        apply_growth(state, index, direction)
        if trace is not None:
            trace.append((len(trace), state.blocks[index].id,
                          DIRECTION_NAMES[direction], best_score))
    return state.blocks
