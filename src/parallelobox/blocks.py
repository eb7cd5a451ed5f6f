"""The printer, seed blocks and objective-driven box growth.

:class:`PrinterProfile` is the one record of the printer, which growth,
the void fill and part scoring read.  Blocks are axis-aligned cell ranges
that compete to cover the solid.  Each growth step applies the cheapest
positive (block, direction) option.  The cost of growing block M into M' is

    cost = (P(M') + OVERHANG_WEIGHT * O(M')) / max(S_prox(M'), PROXIMITY_FLOOR)

where P is the :func:`print_score` of the clipped geometry owned by M', O
the minimum oriented overhang area over the six axis build directions, and
S_prox the L1 box-gap to the nearest other block in grid units.  Hard
failures (leaving the grid, outgrowing the printer, an empty new layer, or
bumping into owned cells) score -1 and are never applied.

A search grows many independent problems, one per (seed count, retry)
iteration and piece of the model.  :class:`GrowthState` holds them all,
padded to the largest block count, and :func:`grow_blocks` steps them in
lockstep: each pass scores every option of every active problem, and each
problem then picks its own move exactly as a serial loop over its options
would.  The state keeps every option's layer sums, score numerator,
proximity and allowed flag, and derives its boxes from the block's box.  A
move rereads only what it can change (:meth:`GrowthState.rescore`): the
moved block's six options, and the ownership and proximity of the other
blocks' options, which a move can only worsen.  Fit is tested in whole
cells against one limit per piece (:func:`cell_limits`), as in the void
fill.  Every sum is read in O(1) from the summed-volume table of its
piece's :class:`~parallelobox.grid.Grid`, whose sums are exact, so scores
are bit-identical to a loop summing slices; the tables of all pieces are
joined into one, which each problem reads from its own offset with its own
dims and strides.  Ownership is box arithmetic: a block owns every solid
cell of its box, so the owned cells of a layer are the solid cells of its
overlaps with the other boxes, the only record of ownership.

Seeding is k-means++ on the mesh vertices, one seed cell per block.  Its
draws come from
:class:`_Pcg64Stream`, which equals ``numpy.random.default_rng(seed)``
bit for bit, so no run loads ``numpy.random``.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientBoundaryCells
from .grid import (AREA, BOUNDARY, DIRECTIONS, N_CHANNELS, OVERHANG, SOLID,
                   VOLUME, CellClass, Grid, range_sums)
from .mesh import TriangleMesh

DIRECTION_NAMES = ("+x", "-x", "+y", "-y", "+z", "-z")
#: Relative margin by which a growth option must beat the incumbent; closer
#: scores are ties up to rounding and go to the option scanned first.
SCORE_RTOL = 1e-9
#: Weight of the overhang term O in the growth cost.
OVERHANG_WEIGHT = 1.0
#: Least proximity (grid units) the growth cost divides by.
PROXIMITY_FLOOR = 1.0
#: Most blocks times block slots that one set-up rescore reads: its
#: overlap arrays are (blocks, 6, slots, 3), about 1 KB per pair in all.
SETUP_CHUNK = 1 << 15


@dataclass(frozen=True)
class PrinterProfile:
    """Build volume and kinematics of the (identical) printers."""

    volume_x: float = 250.0   # mm
    volume_y: float = 250.0
    volume_z: float = 250.0
    speed_shell: float = 20.0   # mm/s
    speed_infill: float = 20.0  # mm/s
    line_width: float = 0.4     # mm
    layer_height: float = 0.25  # mm

    @property
    def dims(self) -> tuple[float, float, float]:
        return (self.volume_x, self.volume_y, self.volume_z)


def print_score(volume: float, surface_area: float, profile: PrinterProfile,
                infill_fraction: float) -> float:
    """P = speed_infill * (infill * volume) + speed_shell * area."""
    return (profile.speed_infill * (infill_fraction * volume)
            + profile.speed_shell * surface_area)


def fits_printer(physical_dims, printer_dims):
    """Sorted-extent comparison: the part may be reoriented axis-to-axis.

    ``physical_dims`` may hold a stack of extents along its last axis; the
    answer then has its leading shape.
    """
    return (np.sort(np.asarray(physical_dims, dtype=np.float64), axis=-1)
            <= np.sort(np.asarray(printer_dims, dtype=np.float64)) + 1e-9
            ).all(axis=-1)


def cell_limits(printer_dims, cell_size) -> np.ndarray:
    """Per sorted printer side, the most cells of side ``cell_size`` that fit
    it by the rule of :func:`fits_printer` (c cells fit a side s iff
    ``c * cell_size <= s + 1e-9``), one row per cell size.  As
    ``c -> c * cell_size`` is monotone in floating point, a box of whole
    cells fits iff its sorted cell counts are at most these limits.  No
    grid has 2**62 cells on an axis, so a count is held to that: a larger
    side takes any box."""
    side = np.sort(np.asarray(printer_dims, dtype=np.float64)) + 1e-9
    size = np.asarray(cell_size, dtype=np.float64)[..., None]
    count = np.floor(side / size)
    count -= count * size > side      # the rounded quotient may be one off
    count += (count + 1) * size <= side
    return np.minimum(count, 2.0 ** 62).astype(np.int64)


# ---------------------------------------------------------------------------
# seeding

_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
# numpy's SeedSequence hash constants and the PCG64 multiplier.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


class _Pcg64Stream:
    """The draws of ``np.random.default_rng(seed)`` that :func:`_kmeans_pp`
    makes, bit for bit, without importing ``numpy.random``.

    The seed is hashed into a pool of four 32-bit words as numpy's
    ``SeedSequence`` does, and eight words read from the pool, paired
    little-endian, give PCG64's initial state and increment (O'Neill,
    HMC-CS-2014-0905): a 128-bit LCG stepped before each XSL-RR 64-bit
    output.
    """

    def __init__(self, seed: int) -> None:
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError("expected non-negative integer")
        words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
        const = _INIT_A

        def hashmix(value: int) -> int:
            nonlocal const
            value ^= const
            const = const * _MULT_A & _MASK32
            value = value * const & _MASK32
            return value ^ value >> 16

        def mix(x: int, y: int) -> int:
            value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
            return value ^ value >> 16

        pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in words[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(word))
        const, state = _INIT_B, []
        for i in range(8):
            value = pool[i % 4] ^ const
            const = const * _MULT_B & _MASK32
            value = value * const & _MASK32
            state.append(value ^ value >> 16)
        # generate_state(4, uint64), the 128-bit values high word first.
        u64 = [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]
        initstate, initseq = u64[0] << 64 | u64[1], u64[2] << 64 | u64[3]
        self._inc = (initseq << 1 | 1) & _MASK128
        self._state = 0
        self._step()
        self._state = (self._state + initstate) & _MASK128
        self._step()
        self._half: int | None = None   # high half of the last 64-bit output

    def _step(self) -> None:
        self._state = (self._state * _PCG64_MULT + self._inc) & _MASK128

    def _next64(self) -> int:
        self._step()
        word = (self._state >> 64 ^ self._state) & _MASK64
        rot = self._state >> 122
        return (word >> rot | word << (64 - rot)) & _MASK64

    def _next32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        word = self._next64()
        self._half = word >> 32
        return word & _MASK32

    def integers(self, n: int) -> int:
        """``Generator.integers(n)`` for 1 <= n <= 2**32: Lemire's bounded
        method on 32-bit outputs, each 64-bit output giving its low half
        first and its high half to the next call.  n == 1 draws nothing."""
        if n == 1:
            return 0
        m = self._next32() * n
        if m & _MASK32 < n:
            threshold = (-n & _MASK32) % n
            while m & _MASK32 < threshold:
                m = self._next32() * n
        return m >> 32

    def choice(self, n: int, p: np.ndarray) -> int:
        """``Generator.choice(n, p=p)``: one double in [0, 1) searched in the
        normalised cumulative sum of p, whose length n is."""
        cdf = np.cumsum(p)
        cdf /= cdf[-1]
        return int(cdf.searchsorted((self._next64() >> 11) * 2.0 ** -53,
                                    side="right"))


def _kmeans_pp(points: np.ndarray, k: int, rng: _Pcg64Stream,
               tol: float, max_iter: int = 100) -> np.ndarray:
    """k-means++ seeding, then Lloyd steps until no center moves by tol.
    rng is a :class:`_Pcg64Stream` or a numpy ``Generator``, which draw
    alike."""
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
    x, y, z = (np.ascontiguousarray(c)[:, None] for c in points.T)
    for _ in range(max_iter):
        # Squared distances summed per coordinate in the order of
        # ``.sum(axis=2)`` over the coordinates.
        dx, dy, dz = x - centers[:, 0], y - centers[:, 1], z - centers[:, 2]
        dists = (dx * dx + dy * dy) + dz * dz
        assign = dists.argmin(axis=1)
        # Per-cluster coordinate sums, each accumulated in point order as a
        # row sum of the members would be.
        counts = np.bincount(assign, minlength=k)
        sums = np.bincount((3 * assign[:, None] + np.arange(3)).ravel(),
                           points.ravel(), minlength=3 * k).reshape(k, 3)
        # A starved cluster, which only more centers than distinct points
        # leave, keeps its center.
        new = np.where(counts[:, None] > 0,
                       sums / np.maximum(counts, 1)[:, None], centers)
        step = new - centers
        moved = float(np.sqrt((step * step).sum(axis=1)).max())
        if abs(moved - tol) <= 1e-9 * tol:
            # Too close to call up to rounding: take the per-center norms.
            moved = max(float(np.linalg.norm(d)) for d in step)
        centers = new
        if moved < tol:
            break
    return centers


def select_seed_blocks(grid: Grid, mesh: TriangleMesh, k: int,
                       rng_seed: int = 0) -> np.ndarray:
    """k-means++ the vertex cloud and drop one unit block per centroid.

    Returns the (k, 3) seed cells, block i in row i.  Centroids landing in
    internal or external cells snap to the nearest boundary cell;
    collisions take the next nearest unoccupied one.
    """
    boundary = np.argwhere(grid.classification == CellClass.BOUNDARY)
    if len(boundary) < k:
        raise InsufficientBoundaryCells(
            f"need {k} boundary cells, grid has {len(boundary)}")
    rng = _Pcg64Stream(rng_seed)
    centers = _kmeans_pp(mesh.vertices, k, rng, tol=1e-4 * grid.cell_size)
    boundary_centers = grid.origin + (boundary + 0.5) * grid.cell_size
    taken: set[tuple[int, int, int]] = set()
    seeds = np.empty((k, 3), dtype=np.int64)
    for i, c in enumerate(centers):
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
        seeds[i] = key
    return seeds


# ---------------------------------------------------------------------------
# growth

#: What a move adds to a box's lo (row 0) and hi (row 1), per direction in
#: DIRECTIONS order: the one-cell layer beyond that face.
GROWTH_OFFSETS = np.stack([np.minimum(DIRECTIONS, 0),
                           np.maximum(DIRECTIONS, 0)], axis=1)


def _options(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, ...]:
    """Grown box and added layer of the six moves of each box [lo, hi]
    (..., 3), in DIRECTIONS order along the second to last axis: the box
    plus the move's GROWTH_OFFSETS row, and that box flattened onto its
    moved face.  A move beyond the grid edge reads -1 or dims."""
    grown_lo = lo[..., None, :] + GROWTH_OFFSETS[:, 0]
    grown_hi = hi[..., None, :] + GROWTH_OFFSETS[:, 1]
    return (grown_lo, grown_hi, np.where(DIRECTIONS > 0, grown_hi, grown_lo),
            np.where(DIRECTIONS < 0, grown_lo, grown_hi))


def _gap(lo: np.ndarray, hi: np.ndarray, other_lo: np.ndarray,
         other_hi: np.ndarray) -> np.ndarray:
    """L1 gap in grid units between the boxes [lo, hi] and [other_lo,
    other_hi]: the distance of their centroids less their half extents,
    summed over the axes, an integer; the arguments broadcast.

    On an axis, the centroid distance less the half extents is the signed
    distance between the near faces, the larger of other_lo - (hi + 1) and
    lo - (other_hi + 1).
    """
    return np.maximum(other_lo - hi, lo - other_hi).sum(axis=-1) - 3


class GrowthState:
    """n growth problems, grown in lockstep.

    Problem p grows one block from each distinct boundary cell of the (k, 3)
    ``seeds[p]`` on the measured ``grids[p]``, scored at
    ``infill_fraction``; the grown boxes keep disjoint solid cells.
    Problems on one piece share its grid; a model cut in two grows the
    problems of both pieces in one state.  The summed-volume tables of the
    distinct grids are joined into one ``table``, and problem p reads its
    own from row ``base[p]`` on, with its own ``dims`` and ``strides``, and
    fit is tested in whole cells of its grid's ``cell_size`` against its
    row of :func:`cell_limits` (``limits``) of the printer ``profile``.
    Per-block arrays are (n, K, ...), K the largest block count, seed i of
    problem p in slot [p, i]; ``real`` marks the slots that hold a block,
    whose box is the cells ``lo[p, i]`` to ``hi[p, i]``.
    ``sums`` holds every channel of the tables summed over each block's
    box.  Per problem, ``unassigned`` counts the boundary cells no block
    owns, ``moves`` the moves made, and ``active`` says whether it is still
    growing.

    Option boxes are derived from the block's box (:func:`_options`); per
    option, (n, K, 6, ...) arrays in DIRECTIONS order keep the layer's sums
    (``layer_sums``), the score's numerator P + OVERHANG_WEIGHT * O, its
    denominator (the proximity, at least the floor) and whether the move
    is ``allowed``, built here, in chunks of at most SETUP_CHUNK blocks
    times slots, and after each move by :meth:`rescore`.
    """

    def __init__(self, grids: list[Grid], seeds: list[np.ndarray],
                 profile: PrinterProfile, infill_fraction: float):
        self.grids = grids
        self.profile, self.infill_fraction = profile, infill_fraction
        self.limits = cell_limits(profile.dims, [g.cell_size for g in grids])
        n, k = len(seeds), max(len(s) for s in seeds)
        self.lo = np.zeros((n, k, 3), dtype=np.int64)
        self.real = np.zeros((n, k), dtype=bool)
        for p, cells in enumerate(seeds):
            self.lo[p, :len(cells)] = cells
            self.real[p, :len(cells)] = True
        self.hi = self.lo.copy()
        distinct = list({id(g): g for g in grids}.values())
        first_row = dict(zip(map(id, distinct), np.cumsum(
            [0] + [len(g.table) for g in distinct]).tolist()))
        self.table = np.concatenate([g.table for g in distinct])
        self.base = np.array([first_row[id(g)] for g in grids], dtype=np.int64)
        self.dims = np.array([g.dims for g in grids], dtype=np.int64)
        self.strides = np.array([g.strides for g in grids], dtype=np.int64)
        # others[p, i, j]: slot j of problem p holds a block other than i.
        self.others = self.real[:, None, :] & ~np.eye(k, dtype=bool)
        self.sums = np.where(self.real[..., None], self.range_sums(
            np.arange(n)[:, None], self.lo, self.hi), 0.0)
        boundary = np.array([g.table[-1, BOUNDARY] for g in grids])
        self.unassigned = (boundary - self.sums[..., BOUNDARY].sum(1)).astype(np.int64)
        self.layer_sums = np.zeros((n, k, 6, N_CHANNELS))
        self.numerator = np.zeros((n, k, 6))
        self.denominator = np.ones((n, k, 6))
        self.allowed = np.zeros((n, k, 6), dtype=bool)
        blocks, step = np.argwhere(self.real), max(1, SETUP_CHUNK // k)
        for chunk in np.split(blocks, range(step, len(blocks), step)):
            self.rescore(*chunk.T, moved=False)
        self.moves = np.zeros(n, dtype=np.int64)
        self.active = self.unassigned > 0

    def range_sums(self, rows, lo, hi) -> np.ndarray:
        """Every channel summed over the inclusive cell ranges [lo, hi]
        (..., 3) of problems rows, which broadcast against lo[..., 0]."""
        return range_sums(self.table, self.base[rows], self.dims[rows],
                          self.strides[rows], lo, hi)

    def rescore(self, rows: np.ndarray, index: np.ndarray, moved: bool) -> None:
        """Score the six options of block index[m] of problem rows[m] from
        its box, and, if the blocks have just ``moved``, update the other
        blocks' options of the problem.

        A block's move only worsens the other blocks' options: their
        layers, grown boxes and sums stay, owned cells only appear, and the
        gap to the grown box only shrinks.  An allowed option's layer holds
        no solid cell of any other box, so it is forbidden once its layer
        holds solid cells of the grown box, and its proximity becomes the
        lesser of the kept one and its gap to the grown box.  All sums come
        from one table read.
        """
        lo, hi = self.lo[rows, index], self.hi[rows, index]
        others = self.others[rows, index]
        grown_lo, grown_hi, layer_lo, layer_hi = _options(lo, hi)
        fits = (np.sort(grown_hi - grown_lo + 1, axis=-1)
                <= self.limits[rows][:, None]).all(axis=-1)
        # A block owns every solid cell of its box, so the owned cells of a
        # layer are the solid cells of its overlaps with the other boxes;
        # only layers that fit the printer and the boxes they meet are read.
        box_lo, box_hi = self.lo[rows][:, None], self.hi[rows][:, None]
        overlap_lo = np.maximum(layer_lo[:, :, None], box_lo)
        overlap_hi = np.minimum(layer_hi[:, :, None], box_hi)
        meets = ((overlap_lo <= overlap_hi).all(axis=-1) & fits[..., None]
                 & others[:, None])
        read_rows = [np.repeat(rows, 6), rows[np.nonzero(meets)[0]]]
        read_lo = [layer_lo.reshape(-1, 3), overlap_lo[meets]]
        read_hi = [layer_hi.reshape(-1, 3), overlap_hi[meets]]
        if moved:
            # The allowed options of the other blocks whose layers meet
            # the grown boxes.
            other_lo, other_hi, hit_lo, hit_hi = _options(self.lo[rows], self.hi[rows])
            hit_lo = np.maximum(hit_lo, lo[:, None, None])
            hit_hi = np.minimum(hit_hi, hi[:, None, None])
            hit = ((hit_lo <= hit_hi).all(axis=-1) & self.allowed[rows]
                   & others[..., None])
            hit_m, hit_j, hit_d = np.nonzero(hit)
            read_rows.append(rows[hit_m])
            read_lo.append(hit_lo[hit])
            read_hi.append(hit_hi[hit])
        sums = self.range_sums(np.concatenate(read_rows),
                               np.concatenate(read_lo), np.concatenate(read_hi))
        layer_end = 6 * len(rows)
        meets_end = layer_end + len(read_rows[1])
        layer = sums[:layer_end].reshape(-1, 6, N_CHANNELS)
        owned = np.zeros(meets.shape, dtype=bool)
        owned[meets] = sums[layer_end:meets_end, SOLID] > 0
        grown = self.sums[rows, index][:, None] + layer
        p_score = print_score(grown[..., VOLUME], grown[..., AREA],
                              self.profile, self.infill_fraction)
        o_score = grown[..., OVERHANG].min(axis=-1)
        prox = np.where(others[:, None],
                        _gap(grown_lo[:, :, None], grown_hi[:, :, None],
                             box_lo, box_hi),
                        np.inf).min(axis=-1, initial=np.inf)
        # A single block has no neighbour: proximity is moot.
        prox = np.where(np.isfinite(prox), prox, PROXIMITY_FLOOR)
        self.layer_sums[rows, index] = layer
        self.numerator[rows, index] = p_score + OVERHANG_WEIGHT * o_score
        self.denominator[rows, index] = np.maximum(prox, PROXIMITY_FLOOR)
        self.allowed[rows, index] = (fits & (layer[..., SOLID] > 0)
                                     & ~owned.any(axis=-1))
        if not moved:
            return
        owned = sums[meets_end:, SOLID] > 0
        self.allowed[rows[hit_m[owned]], hit_j[owned], hit_d[owned]] = False
        # Each axis term of the gap to a box grown by one layer moves by 0
        # or -1, so the new gap is never the larger.
        gap = _gap(other_lo, other_hi, lo[:, None, None], hi[:, None, None])
        self.denominator[rows] = np.minimum(
            self.denominator[rows],
            np.where(others[..., None],
                     np.maximum(gap, PROXIMITY_FLOOR), np.inf))


def score_growth(state: GrowthState, problems=None) -> np.ndarray:
    """Score every (block, direction) option of some problems at once.

    ``problems`` indexes the state's problems (default: all).  Returns a
    (len(problems), K, 6) array, blocks in slot order and
    directions in DIRECTIONS order; -1 encodes a hard constraint failure
    or an empty block slot.  The scores are the state's kept numerators
    over its kept denominators.
    """
    if problems is None:
        problems = slice(None)
    return np.where(state.allowed[problems],
                    state.numerator[problems] / state.denominator[problems],
                    -1.0)


def _apply(state: GrowthState, rows: np.ndarray, index: np.ndarray,
           direction: np.ndarray) -> None:
    """Grow block index[m] of problem rows[m] one layer along
    direction[m]; the layers hold no owned cell."""
    layer = state.layer_sums[rows, index, direction]
    state.sums[rows, index] += layer
    state.unassigned[rows] -= layer[:, BOUNDARY].astype(np.int64)
    state.lo[rows, index] += GROWTH_OFFSETS[direction, 0]
    state.hi[rows, index] += GROWTH_OFFSETS[direction, 1]
    state.moves[rows] += 1
    # With one block per problem, no other option can change.
    state.rescore(rows, index, moved=state.lo.shape[1] > 1)


def _scan(row_scores) -> tuple[int, float]:
    """The option a scan in option order keeps, and its score: the first
    positive one, replaced only by a score lower by more than SCORE_RTOL
    relative; (-1, inf) when no option is positive."""
    best, best_score = -1, np.inf
    for option, score in enumerate(row_scores):
        if score > 0 and (best < 0 or score < best_score * (1.0 - SCORE_RTOL)):
            best, best_score = option, score
    return best, best_score


def _pick(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's :func:`_scan` pick of a (rows, options) score array.

    The lowest positive score is the scan's pick unless another positive
    score lies within SCORE_RTOL of it, so only such rows are scanned.
    """
    positive = np.where(scores > 0, scores, np.inf)
    best = positive.argmin(axis=1)
    lowest, second = np.partition(positive, 1, axis=1)[:, :2].T
    near = (second < np.inf) & (lowest >= second * (1.0 - SCORE_RTOL))
    for row in np.flatnonzero(near):
        best[row], lowest[row] = _scan(scores[row].tolist())
    return best, lowest


def grow_blocks(state: GrowthState, trace: list | None = None) -> None:
    """Grow every problem of the state in lockstep until each one stops.

    Each step scores the options of all active problems in one pass.  Each
    problem then applies the option that a scan of its options in block
    order and then the direction order +x,-x,+y,-y,+z,-z picks, the one
    with the smallest positive score.  A later option replaces the
    incumbent only when its score is lower by more than SCORE_RTOL
    relative, so scores equal up to rounding go to the lowest (block,
    direction).  A problem stops when every option is forbidden or no
    unassigned boundary cells remain.  ``trace`` receives one (problem,
    move, block slot, direction, score) tuple per move, problems in order
    within a step.
    """
    while state.active.any():
        active = np.flatnonzero(state.active)
        scores = score_growth(state, active).reshape(len(active), -1)
        best, best_score = _pick(scores)
        moving = np.isfinite(best_score)
        state.active[active[~moving]] = False
        rows, options = active[moving], best[moving]
        if trace is not None:
            for row, option, score in zip(rows.tolist(), options.tolist(),
                                          best_score[moving].tolist()):
                trace.append((row, int(state.moves[row]), option // 6,
                              DIRECTION_NAMES[option % 6], score))
        if len(rows):
            index, direction = np.divmod(options, 6)
            _apply(state, rows, index, direction)
            state.active[rows] = state.unassigned[rows] > 0
