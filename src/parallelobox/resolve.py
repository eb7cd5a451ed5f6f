"""Conflict resolution: cover leftover cells with discrete empty-region boxes.

Growth can stall with boundary cells that no block may claim (every move
blocked by ownership or printer limits).  While free printers remain, each
leftover region is wrapped in a cuboid grown greedily from the first
unassigned boundary cell in lexicographic (x, y, z) order: all six faces
are swept repeatedly, each viable face advancing one cell layer per sweep,
until no face can move.  A face move is viable when it stays inside the
grid, keeps the box within the printer, and the new layer touches no owned
cell and no cell of a previously carved region.
"""
from __future__ import annotations

import logging

import numpy as np

from .blocks import fits_printer
from .grid import DIRECTIONS, CellClass, Grid

logger = logging.getLogger(__name__)


def _first_unassigned(grid: Grid, region_mask: np.ndarray):
    free = np.argwhere((grid.classification == CellClass.BOUNDARY)
                       & (grid.owner < 0) & ~region_mask)
    if len(free) == 0:
        return None
    # np.argwhere already emits lexicographic (x, y, z) order.
    return free[0]


def _box_clear(grid: Grid, lo, hi, region_mask: np.ndarray) -> bool:
    sl = tuple(slice(int(a), int(b) + 1) for a, b in zip(lo, hi))
    if np.any(grid.owner[sl] >= 0):
        return False
    if np.any(region_mask[sl]):
        return False
    return True


def get_discrete_empty_regions(grid: Grid, num_free_printers: int,
                               printer_dims) -> list[tuple[np.ndarray, np.ndarray]]:
    """Carve up to num_free_printers cuboids over the unassigned leftovers.

    Returns (lo, hi) inclusive cell ranges.  Cells inside carved boxes are
    excluded from later boxes but grid ownership is left untouched; the
    caller turns the ranges into parts.
    """
    regions: list[tuple[np.ndarray, np.ndarray]] = []
    region_mask = np.zeros(grid.dims, dtype=bool)
    dims = np.array(grid.dims)
    for _ in range(max(0, num_free_printers)):
        seed = _first_unassigned(grid, region_mask)
        if seed is None:
            break
        lo = seed.astype(np.int64).copy()
        hi = seed.astype(np.int64).copy()
        while True:
            expanded = False
            for d in DIRECTIONS:
                axis = int(np.argmax(np.abs(d)))
                layer_lo = lo.copy()
                layer_hi = hi.copy()
                if d[axis] > 0:
                    layer_lo[axis] = layer_hi[axis] = hi[axis] + 1
                else:
                    layer_lo[axis] = layer_hi[axis] = lo[axis] - 1
                if np.any(layer_lo < 0) or np.any(layer_hi >= dims):
                    continue
                new_lo = np.minimum(lo, layer_lo)
                new_hi = np.maximum(hi, layer_hi)
                if not fits_printer((new_hi - new_lo + 1) * grid.cell_size,
                                    printer_dims):
                    continue
                if not _box_clear(grid, layer_lo, layer_hi, region_mask):
                    continue
                lo, hi = new_lo, new_hi
                expanded = True
            if not expanded:
                break
        sl = tuple(slice(int(a), int(b) + 1) for a, b in zip(lo, hi))
        region_mask[sl] = True
        regions.append((lo, hi))
        logger.debug("carved empty region %s..%s", lo, hi)
    return regions

