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

Both rules read one scratch mask of taken cells, shaped like the piece's
classification: a block owns every solid cell of its box, so the mask
starts as those cells, and each carved region then takes all of its cells.
The block boxes stay the only record kept; the mask is dropped at return.
"""
from __future__ import annotations

import logging

import numpy as np

from .grid import CellClass, CellMeasures

logger = logging.getLogger(__name__)


def _cells(lo, hi) -> tuple[slice, ...]:
    """The index of the inclusive cell range [lo, hi]."""
    return tuple(slice(a, b + 1) for a, b in zip(lo, hi))


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
    classification = measures.classification
    solid = classification != CellClass.EXTERNAL
    taken = np.zeros(classification.shape, dtype=bool)
    for lo, hi in blocks:
        box = _cells(lo, hi)
        taken[box] |= solid[box]
    dims = classification.shape
    limit = [int(v) for v in limits]
    regions: list[tuple[list[int], list[int]]] = []
    # Seeds in lexicographic (x, y, z) order, the order of np.argwhere.
    for seed in np.argwhere((classification == CellClass.BOUNDARY) & ~taken).tolist():
        if taken[tuple(seed)]:
            continue
        lo, hi = seed, list(seed)
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
                    if taken[_cells(layer_lo, layer_hi)].any():
                        continue
                    lo, hi = new_lo, new_hi
                    expanded = True
        taken[_cells(lo, hi)] = True
        regions.append((lo, hi))
        logger.debug("carved empty region %s..%s", lo, hi)
        if len(regions) == num_free_printers:
            break
    return [(np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64))
            for lo, hi in regions]
