"""Conflict resolution: cover leftover cells with discrete empty-region boxes.

Growth can stall with boundary cells that no block may claim (every move
blocked by ownership or printer limits).  While free printers remain, each
leftover region is wrapped in a cuboid grown greedily from the first
boundary cell, in lexicographic (x, y, z) order, that lies in no block box
and no earlier region: all six faces are swept repeatedly, each viable face
advancing one cell layer per sweep in growth's direction order, until no
face can move.  A face move is viable when it stays inside the grid, keeps
the box within the printer (in whole cells, against the piece's row of
:func:`~parallelobox.blocks.cell_limits`, the one growth tests), and the new
layer holds no owned cell and meets no previously carved region.

Ownership is box arithmetic, as in growth: a block owns every solid cell of
its box, so a layer holds an owned cell when its overlap with some block
box holds a solid cell, one 8-term lookup in the SOLID channel of the
piece's summed-volume table.  A fill meets a few boxes, so the lookups run
on Python numbers.
"""
from __future__ import annotations

import logging

import numpy as np

from .grid import SOLID, CellClass, CellMeasures

logger = logging.getLogger(__name__)


def get_discrete_empty_regions(measures: CellMeasures, blocks,
                               num_free_printers: int,
                               limits) -> list[tuple[np.ndarray, np.ndarray]]:
    """Carve up to num_free_printers cuboids over the cells no block owns.

    ``measures`` are the piece's cell measures and ``blocks`` the (lo, hi)
    inclusive cell ranges of its grown blocks, which hold disjoint solid
    cells.  ``limits`` holds, per sorted printer side, the most whole cells
    that fit it: the piece's row of :func:`~parallelobox.blocks.cell_limits`.
    Returns (lo, hi) inclusive cell ranges.  Carved boxes never overlap,
    and hold no solid cell of a block box; the caller turns the ranges into
    parts.
    """
    if num_free_printers <= 0:
        return []
    boxes = [([int(v) for v in lo], [int(v) for v in hi]) for lo, hi in blocks]
    # Boundary cells in no block box, in lexicographic (x, y, z) order (the
    # order of np.argwhere); the seeds are taken from them in turn.
    boundary = np.argwhere(measures.classification == CellClass.BOUNDARY)
    lo, hi = np.array(boxes, dtype=np.int64).reshape(-1, 2, 3).transpose(1, 0, 2)
    inside = ((boundary[:, None] >= lo) & (boundary[:, None] <= hi)).all(axis=2)
    seeds = boundary[~inside.any(axis=1)].tolist()
    if not seeds:
        return []
    dims, (sx, sy, _) = measures.dims.tolist(), measures.strides.tolist()
    solid = measures.table[:, SOLID].tolist()
    limit = [int(v) for v in limits]

    def owned(lo, hi) -> bool:
        """Whether the cell range [lo, hi] holds a solid cell of a block box."""
        for blo, bhi in boxes:
            x0, y0, z0 = (max(a, b) for a, b in zip(lo, blo))
            x1, y1, z1 = (min(a, b) + 1 for a, b in zip(hi, bhi))
            if x0 >= x1 or y0 >= y1 or z0 >= z1:
                continue
            x0, x1, y0, y1 = x0 * sx, x1 * sx, y0 * sy, y1 * sy
            if (solid[x1 + y1 + z1] - solid[x0 + y1 + z1] - solid[x1 + y0 + z1]
                    - solid[x1 + y1 + z0] + solid[x0 + y0 + z1]
                    + solid[x0 + y1 + z0] + solid[x1 + y0 + z0]
                    - solid[x0 + y0 + z0]) > 0:
                return True
        return False

    def carved(lo, hi) -> bool:
        """Whether the cell range [lo, hi] meets a region carved earlier."""
        return any(all(a <= d and c <= b for a, b, c, d in zip(lo, hi, rlo, rhi))
                   for rlo, rhi in regions)

    regions: list[tuple[list[int], list[int]]] = []
    next_seed = 0
    for _ in range(num_free_printers):
        while next_seed < len(seeds) and carved(seeds[next_seed], seeds[next_seed]):
            next_seed += 1
        if next_seed == len(seeds):
            break
        lo, hi = list(seeds[next_seed]), list(seeds[next_seed])
        expanded = True
        while expanded:
            expanded = False
            for axis in range(3):
                for sign in (1, -1):
                    pos = hi[axis] + 1 if sign > 0 else lo[axis] - 1
                    if not 0 <= pos < dims[axis]:
                        continue
                    new_lo, new_hi = lo.copy(), hi.copy()
                    new_lo[axis] = min(lo[axis], pos)
                    new_hi[axis] = max(hi[axis], pos)
                    counts = sorted(b - a + 1 for a, b in zip(new_lo, new_hi))
                    if any(c > m for c, m in zip(counts, limit)):
                        continue
                    layer_lo, layer_hi = lo.copy(), hi.copy()
                    layer_lo[axis] = layer_hi[axis] = pos
                    if owned(layer_lo, layer_hi) or carved(layer_lo, layer_hi):
                        continue
                    lo, hi = new_lo, new_hi
                    expanded = True
        regions.append((lo, hi))
        logger.debug("carved empty region %s..%s", lo, hi)
    return [(np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64))
            for lo, hi in regions]
