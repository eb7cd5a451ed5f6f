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
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

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
    """Axis-aligned range of cells [lo, hi] inclusive, plus owned cell set."""

    id: int
    lo: np.ndarray
    hi: np.ndarray
    owned_cells: set[tuple[int, int, int]] = field(default_factory=set)

    def __post_init__(self) -> None:
        self.lo = np.asarray(self.lo, dtype=np.int64).reshape(3)
        self.hi = np.asarray(self.hi, dtype=np.int64).reshape(3)

    @property
    def cell_extent(self) -> np.ndarray:
        return self.hi - self.lo + 1

    def centroid(self) -> np.ndarray:
        """Box center in grid units."""
        return 0.5 * (self.lo + self.hi + 1)

    def size(self) -> float:
        """Half the L1 extent in grid units."""
        return 0.5 * float(self.cell_extent.sum())


@dataclass(frozen=True)
class GrowthOption:
    block_id: int
    direction: int  # index into DIRECTIONS
    score: float    # -1 when forbidden


def print_score(volume: float, surface_area: float, params: ObjectiveParams) -> float:
    """P = speed_infill * (infill * volume) + speed_shell * area."""
    return (params.speed_infill * (params.infill_fraction * volume)
            + params.speed_shell * surface_area)


def fits_printer(physical_dims, printer_dims) -> bool:
    """Sorted-extent comparison: the part may be reoriented axis-to-axis."""
    return bool(np.all(np.sort(np.asarray(physical_dims, dtype=np.float64))
                       <= np.sort(np.asarray(printer_dims, dtype=np.float64)) + 1e-9))


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
        blocks.append(Block(bid, np.array(key), np.array(key), {key}))
    return blocks


# ---------------------------------------------------------------------------
# growth


class GrowthState:
    """Grid ownership plus per-block cached objective sums."""

    def __init__(self, grid: Grid, measures: CellMeasures, blocks: list[Block],
                 params: ObjectiveParams):
        self.grid = grid
        self.measures = measures
        self.params = params
        self.blocks = blocks
        self.volume = {}
        self.area = {}
        self.overhang = {}
        for b in blocks:
            vol = ar = 0.0
            ov = np.zeros(6)
            for cell in b.owned_cells:
                grid.owner[cell] = b.id
                vol += measures.volume[cell]
                ar += measures.area[cell]
                ov += measures.overhang[(slice(None),) + cell]
            self.volume[b.id] = vol
            self.area[b.id] = ar
            self.overhang[b.id] = ov

    def unassigned_boundary(self) -> int:
        return int(((self.grid.classification == CellClass.BOUNDARY)
                    & (self.grid.owner < 0)).sum())


def _layer_range(block: Block, direction: int):
    """Cell range (lo, hi) of the one-cell-thick layer beyond the block."""
    d = DIRECTIONS[direction]
    lo = block.lo.copy()
    hi = block.hi.copy()
    axis = int(np.argmax(np.abs(d)))
    if d[axis] > 0:
        lo[axis] = hi[axis] = block.hi[axis] + 1
    else:
        lo[axis] = hi[axis] = block.lo[axis] - 1
    return lo, hi


def score_growth(state: GrowthState, block: Block, direction: int) -> GrowthOption:
    """Score one candidate expansion; -1 encodes a hard constraint failure."""
    grid = state.grid
    params = state.params
    lo, hi = _layer_range(block, direction)
    dims = np.array(grid.dims)
    if np.any(lo < 0) or np.any(hi >= dims):
        return GrowthOption(block.id, direction, -1.0)
    new_lo = np.minimum(block.lo, lo)
    new_hi = np.maximum(block.hi, hi)
    if not fits_printer((new_hi - new_lo + 1) * grid.cell_size, params.printer_dims):
        return GrowthOption(block.id, direction, -1.0)
    sl = tuple(slice(int(a), int(b) + 1) for a, b in zip(lo, hi))
    layer_class = grid.classification[sl]
    if not np.any(layer_class != CellClass.EXTERNAL):
        return GrowthOption(block.id, direction, -1.0)  # M_new is empty
    if np.any(grid.owner[sl] >= 0):
        return GrowthOption(block.id, direction, -1.0)  # overlap

    volume = state.volume[block.id] + float(state.measures.volume[sl].sum())
    area = state.area[block.id] + float(state.measures.area[sl].sum())
    over6 = state.overhang[block.id] + state.measures.overhang[(slice(None),) + sl].reshape(6, -1).sum(axis=1)
    p_score = print_score(volume, area, params)
    o_score = float(over6.min())

    grown_centroid = 0.5 * (new_lo + new_hi + 1)
    grown_size = 0.5 * float((new_hi - new_lo + 1).sum())
    prox = np.inf
    for other in state.blocks:
        if other.id == block.id:
            continue
        gap = float(np.abs(grown_centroid - other.centroid()).sum()) \
            - (grown_size + other.size())
        prox = min(prox, gap)
    if not np.isfinite(prox):
        prox = params.proximity_floor  # single block: proximity is moot
    denom = max(prox, params.proximity_floor)
    return GrowthOption(block.id, direction, (p_score + params.overhang_weight * o_score) / denom)


def apply_growth(state: GrowthState, option: GrowthOption) -> None:
    """Extend the block one layer and claim the layer's non-external cells."""
    block = next(b for b in state.blocks if b.id == option.block_id)
    lo, hi = _layer_range(block, option.direction)
    sl = tuple(slice(int(a), int(b) + 1) for a, b in zip(lo, hi))
    grid = state.grid
    claim = grid.classification[sl] != CellClass.EXTERNAL
    coords = np.argwhere(claim) + lo
    for c in coords:
        key = tuple(int(x) for x in c)
        grid.owner[key] = block.id
        block.owned_cells.add(key)
    block.lo = np.minimum(block.lo, lo)
    block.hi = np.maximum(block.hi, hi)
    state.volume[block.id] += float(state.measures.volume[sl].sum())
    state.area[block.id] += float(state.measures.area[sl].sum())
    state.overhang[block.id] += state.measures.overhang[(slice(None),) + sl].reshape(6, -1).sum(axis=1)


def grow_blocks(state: GrowthState, trace: list | None = None) -> list[Block]:
    """Run the serial growth loop until no move is allowed or needed.

    Each iteration scores all (block, direction) pairs, in block id order
    and then the direction order +x,-x,+y,-y,+z,-z, and applies the one
    with the smallest positive score.  A later option replaces the
    incumbent only when its score is lower by more than SCORE_RTOL
    relative, so scores equal up to rounding go to the lowest (block id,
    direction).  The loop stops when every option is forbidden or no
    unassigned boundary cells remain.
    """
    while state.unassigned_boundary() > 0:
        best: GrowthOption | None = None
        for block in state.blocks:
            for direction in range(6):
                opt = score_growth(state, block, direction)
                if opt.score <= 0:
                    continue
                if best is None or opt.score < best.score * (1.0 - SCORE_RTOL):
                    best = opt
        if best is None:
            break
        apply_growth(state, best)
        if trace is not None:
            trace.append((len(trace), best.block_id,
                          DIRECTION_NAMES[best.direction], best.score))
    return state.blocks
