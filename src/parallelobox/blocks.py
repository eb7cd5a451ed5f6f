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

A search grows many independent problems, one per (seed count, retry)
iteration and piece of the model.  :class:`GrowthState` holds them all,
padded to the largest block count, and :func:`grow_blocks` steps them in
lockstep: one numpy pass scores every option of every active problem, and
each problem then picks its own move exactly as a serial loop over its
options would.  Every sum is read in O(1) from the summed-volume table of
its piece's :class:`~parallelobox.grid.CellMeasures`, whose sums are
exact, so scores are bit-identical to a loop summing slices; the tables of
all pieces are joined into one, which each problem reads from its own
offset with its own dims and strides.  Ownership is box arithmetic:
a block owns every solid cell of its box, so the owned cells of a layer
are the solid cells of its overlaps with the other boxes.  The boxes are
the only record of ownership.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientBoundaryCells
from .grid import (AREA, BOUNDARY, DIRECTIONS, N_CHANNELS, OVERHANG, SOLID,
                   VOLUME, CellClass, CellMeasures, Grid, range_sums)
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
        # Per-cluster coordinate sums, each accumulated in point order as a
        # row sum of the members would be.
        counts = np.bincount(assign, minlength=k)
        sums = np.bincount((3 * assign[:, None] + np.arange(3)).ravel(),
                           points.ravel(), minlength=3 * k).reshape(k, 3)
        new = sums / np.maximum(counts, 1)[:, None]
        starved = counts == 0
        if starved.any():
            # Re-seed a starved cluster at the point farthest from its center.
            new[starved] = points[int(dists.min(axis=1).argmax())]
        moved = max(float(np.linalg.norm(d)) for d in new - centers)
        centers = new
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

def _layers(lo: np.ndarray, hi: np.ndarray,
            directions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inclusive cell range of the one-cell layer beyond the face of the
    box [lo, hi] that each direction leaves through; the arguments
    broadcast.  A layer beyond the grid edge reads -1 or dims on its
    axis."""
    return (np.where(directions > 0, hi + 1, lo + np.minimum(directions, 0)),
            np.where(directions < 0, lo - 1, hi + np.maximum(directions, 0)))


class GrowthState:
    """n growth problems, grown in lockstep.

    Problem p grows the blocks ``blocks[p]``, whose starting boxes hold
    disjoint solid cells, on a grid of cells of side ``cell_sizes[p]``,
    scored from ``measures[p]``; the grown boxes keep disjoint solid cells.
    Problems on one piece share its measures and classification; a model
    cut in two grows the problems of both pieces in one state.  The summed-volume tables of the
    distinct measures are joined into one ``table``, and problem p reads
    its own from row ``base[p]`` on, with its own ``dims``, ``strides`` and
    ``cell_size``.  Per-block arrays are (n, K, ...), K the largest block
    count; ``real`` marks the slots that hold a block, and each block's
    ``lo`` and ``hi`` are views of its rows in ``self.lo`` and ``self.hi``.
    ``sums`` holds every channel of the measures summed over each block's
    box.  Per problem, ``moves`` counts the moves made and ``active`` says
    whether it is still growing.
    """

    def __init__(self, cell_sizes: list[float], measures: list[CellMeasures],
                 blocks: list[list[Block]], params: ObjectiveParams):
        self.measures = measures
        self.params = params
        self.blocks = blocks
        n, k = len(blocks), max((len(b) for b in blocks), default=0)
        self.lo = np.zeros((n, k, 3), dtype=np.int64)
        self.hi = np.zeros((n, k, 3), dtype=np.int64)
        self.real = np.zeros((n, k), dtype=bool)
        for p, problem in enumerate(blocks):
            for i, b in enumerate(problem):
                self.lo[p, i], self.hi[p, i] = b.lo, b.hi
                b.lo, b.hi = self.lo[p, i], self.hi[p, i]
                self.real[p, i] = True
        distinct = list({id(m): m for m in measures}.values())
        first_row = dict(zip(map(id, distinct), np.cumsum(
            [0] + [len(m.table) for m in distinct]).tolist()))
        self.table = np.concatenate([m.table for m in distinct]
                                    or [np.zeros((0, N_CHANNELS))])
        self.base = np.array([first_row[id(m)] for m in measures],
                             dtype=np.int64)
        self.dims = np.array([m.dims for m in measures],
                             dtype=np.int64).reshape(n, 3)
        self.strides = np.array([m.strides for m in measures],
                                dtype=np.int64).reshape(n, 3)
        self.cell_size = np.array(cell_sizes, dtype=np.float64)
        # Boundary cells of each problem's whole grid.
        self.boundary = np.array([m.table[-1, BOUNDARY] for m in measures])
        # others[p, i, j]: slot j of problem p holds a block other than i.
        self.others = self.real[:, None, :] & ~np.eye(k, dtype=bool)
        self.sums = np.where(self.real[..., None],
                             self.range_sums(np.arange(n)[:, None],
                                             self.lo, self.hi), 0.0)
        self.moves = np.zeros(n, dtype=np.int64)
        self.active = self.unassigned > 0

    def range_sums(self, rows, lo, hi) -> np.ndarray:
        """Every channel summed over the inclusive cell ranges [lo, hi]
        (..., 3) of problems rows, which broadcast against lo[..., 0]."""
        return range_sums(self.table, self.base[rows], self.dims[rows],
                          self.strides[rows], lo, hi)

    @property
    def unassigned(self) -> np.ndarray:
        """Boundary cells no block owns, per problem."""
        return (self.boundary - self.sums[..., BOUNDARY].sum(axis=1)).astype(np.int64)


def score_growth(state: GrowthState, problems=None) -> np.ndarray:
    """Score every (block, direction) option of some problems at once.

    ``problems`` indexes the state's problems (default: all).  Returns a
    (len(problems), K, 6) array, blocks in ``state.blocks`` order and
    directions in DIRECTIONS order; -1 encodes a hard constraint failure
    or an empty block slot.
    """
    problems = (np.arange(len(state.blocks)) if problems is None
                else np.asarray(problems))
    params = state.params
    lo, hi, real = state.lo[problems], state.hi[problems], state.real[problems]
    rows = problems[:, None, None]
    layer_lo, layer_hi = _layers(lo[:, :, None], hi[:, :, None], DIRECTIONS)
    new_lo = np.minimum(lo[:, :, None], layer_lo)
    new_hi = np.maximum(hi[:, :, None], layer_hi)
    extent = new_hi - new_lo + 1
    layer = state.range_sums(rows, layer_lo, layer_hi)  # 0 beyond the grid
    allowed = (real[:, :, None] & (layer[..., SOLID] > 0)
               & fits_printer(extent * state.cell_size[rows][..., None],
                              params.printer_dims))
    # A block owns every solid cell of its box, so the owned cells of a
    # layer are the solid cells of its overlaps with the other boxes; only
    # allowed layers and the boxes they meet are queried.
    overlap_lo = np.maximum(layer_lo[:, :, :, None], lo[:, None, None])
    overlap_hi = np.minimum(layer_hi[:, :, :, None], hi[:, None, None])
    meets = ((overlap_lo <= overlap_hi).all(axis=-1) & allowed[..., None]
             & real[:, None, None])
    owned = np.zeros(meets.shape, dtype=bool)
    owned[meets] = state.range_sums(problems[np.nonzero(meets)[0]],
                                    overlap_lo[meets],
                                    overlap_hi[meets])[:, SOLID] > 0
    allowed &= ~owned.any(axis=-1)

    grown = state.sums[problems][:, :, None] + layer
    p_score = print_score(grown[..., VOLUME], grown[..., AREA], params)
    o_score = grown[..., OVERHANG].min(axis=-1)

    # L1 box gap of each grown block to every other block, in grid units:
    # half of an integer (twice the centroid distance less the extents).
    twice_gap = (np.abs((new_lo + new_hi)[:, :, :, None]
                        - (lo + hi)[:, None, None]).sum(axis=-1)
                 - (extent.sum(axis=-1)[..., None]
                    + (hi - lo + 1).sum(axis=-1)[:, None, None]))
    prox = np.where(state.others[problems][:, :, None], 0.5 * twice_gap,
                    np.inf).min(axis=-1, initial=np.inf)
    # A single block has no neighbour: proximity is moot.
    prox = np.where(np.isfinite(prox), prox, params.proximity_floor)
    denom = np.maximum(prox, params.proximity_floor)
    score = (p_score + params.overhang_weight * o_score) / denom
    return np.where(allowed, score, -1.0)


def _apply(state: GrowthState, rows: np.ndarray, index: np.ndarray,
           direction: np.ndarray) -> None:
    """Grow block index[m] of problem rows[m] one layer along
    direction[m]; the layers hold no owned cell."""
    lo, hi = state.lo[rows, index], state.hi[rows, index]
    layer_lo, layer_hi = _layers(lo, hi, DIRECTIONS[direction])
    state.sums[rows, index] += state.range_sums(rows, layer_lo, layer_hi)
    state.lo[rows, index] = np.minimum(lo, layer_lo)
    state.hi[rows, index] = np.maximum(hi, layer_hi)
    state.moves[rows] += 1


def grow_blocks(state: GrowthState, trace: list | None = None) -> list[list[Block]]:
    """Grow every problem of the state in lockstep until each one stops.

    Each step scores the options of all active problems in one pass.  Each
    problem then scans its own options in block order and then the
    direction order +x,-x,+y,-y,+z,-z, and applies the one with the
    smallest positive score.  A later option replaces the incumbent only
    when its score is lower by more than SCORE_RTOL relative, so scores
    equal up to rounding go to the lowest (block id, direction).  A problem
    stops when every option is forbidden or no unassigned boundary cells
    remain.  ``trace`` receives one (problem, move, block id, direction,
    score) tuple per move, problems in order within a step.
    """
    while state.active.any():
        active = np.flatnonzero(state.active)
        scores = score_growth(state, active).reshape(len(active), -1)
        rows, options = [], []
        for row, row_scores in zip(active.tolist(), scores.tolist()):
            best, best_score = -1, 0.0
            for option, score in enumerate(row_scores):
                if score > 0 and (best < 0 or score < best_score * (1.0 - SCORE_RTOL)):
                    best, best_score = option, score
            if best < 0:
                state.active[row] = False
                continue
            rows.append(row)
            options.append(best)
            if trace is not None:
                trace.append((row, int(state.moves[row]),
                              state.blocks[row][best // 6].id,
                              DIRECTION_NAMES[best % 6], best_score))
        if rows:
            index, direction = np.divmod(np.array(options), 6)
            rows = np.array(rows)
            _apply(state, rows, index, direction)
            state.active[rows] = state.unassigned[rows] > 0
    return state.blocks
