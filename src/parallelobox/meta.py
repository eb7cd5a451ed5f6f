"""Pipeline orchestration: preprocess once, then search seed counts.

A decomposition run is deterministic given (model, plan, seed).  The
expensive per-model work — symmetry detection, orientation, grid build,
cell classification and measures — happens once in :func:`prepare_model`;
every search iteration reuses it.  Of the printer count it reads only
whether there are two printers or more, so a batch prepares each model at
most twice.

The search itself is a two-loop sweep: the outer loop walks the number of
seed blocks ``p`` down from ``printers_available``, the inner loop retries
each ``p`` with ``sample_tries`` different RNG seeds
(``seed_base + 1000 * p + try_index``).  Lower ``p`` leaves more spare
printers for patching uncovered voids, so late iterations trade
parallelism for robustness.  The best valid iteration wins: smallest
parallel print score, then fewest printers used, then smallest aggregate
time.  Every iteration is seeded up front, and all iterations of every
piece grow together in one lockstep :func:`~parallelobox.blocks.grow_blocks`
call (:func:`grow_runs`); :func:`run_decomposition` then fills the voids
of one grown iteration and scores it.  The grown block boxes, rows of
cell arrays, are the only record of the cells an iteration has claimed:
the void fill and the coverage count read them against the piece's cell
tables.  An iteration's seeds and growth do not depend on the printer
count, so a search takes its grown runs from a map that a batch shares
across printer counts (:meth:`ModelWork.search_inputs`): the runs of the
largest count include those of every smaller one, and each is grown once.
:class:`ModelWork` builds and holds all the work a batch shares across one
model's printer counts, for the search and the baseline alike.  The
printer is the :class:`~parallelobox.blocks.PrinterProfile` and the plan's
infill fraction, nothing else; :func:`run_decomposition` gives its void
fill and its box check one whole-cell limit per piece.

Every part score is a sum over grid cells plus the caps on the box faces,
so an iteration is scored from the per-cell tables of its pieces'
:class:`~parallelobox.grid.Grid` without clipping anything.  Meshes
are clipped only for the covered iterations that can still win: the
valid ones and those with a box larger than the printer (the tables cannot
tell whether the part inside fits), in ascending order of table score
until the next one exceeds the best clipped score.  The caps of a clipped
mesh cover each box face once, so the table score of a part equals that
of its mesh up to rounding, and the winner is the one a search clipping
every iteration would pick.  It is scored from its meshes.
Iterations that share a box share its clipped mesh, so a search clips
each distinct box once; scoring clips nothing more.  A result's cut area,
its parts' surface area less the model's, is read from the tables until
its parts are clipped.

A :class:`Decomposition` keeps its parts and reads its validity, scores,
times and cut area from them, and :func:`_parts_verdict` judges every set
of part meshes, the search's clipped parts and the baseline's alike.
"""
from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .blocks import (SCORE_RTOL, GrowthState, PrinterProfile, cell_limits,
                     fits_printer, grow_blocks, print_score,
                     select_seed_blocks)
# The benchmark's traced mode patches clip_halfspace and clip_surface_to_box
# here, but this module calls neither, so those two patches record no span.
from .clip import clip_halfspace, clip_surface_to_box, clip_to_box, cut_by_plane  # noqa: F401
from .errors import (InsufficientBoundaryCells, NonWatertightInput,
                     NoValidDecomposition)
from .grid import BOUNDARY, SOLID, Grid, build_grid, measure_cells
from .mesh import TriangleMesh, aabb_of, measure, validate_watertight
from .preprocess import (SYMMETRY_THRESHOLD, SymmetryPlane,
                         find_best_symmetry_plane, optimize_orientation)
from .resolve import get_discrete_empty_regions

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RunPlan:
    """Everything about a decomposition run except the mesh and printer."""

    printers_available: int = 4
    granularity: str = "very_fine"
    sample_tries: int = 3
    seed_base: int = 0
    infill_fraction: float = 0.05
    overhang_tolerance_deg: float = 1.0
    symmetry_threshold: float = SYMMETRY_THRESHOLD
    skip_symmetry_cut: bool = False


def estimate_time(volume: float, surface_area: float, profile: PrinterProfile,
                  infill_fraction: float) -> float:
    """Print time in seconds: infill deposition plus shell tracing."""
    infill = (infill_fraction * volume) / (
        profile.line_width * profile.layer_height * profile.speed_infill)
    shell = (profile.line_width * surface_area) / (
        profile.line_width * profile.layer_height * profile.speed_shell)
    return infill + shell


# ---------------------------------------------------------------------------
# results


@dataclass
class PartResult:
    """One part; scored from the cell tables (no mesh) until it is clipped."""

    volume: float
    surface_area: float     # of the capped, printable part
    print_score: float
    time_s: float
    source: str  # "block" or "void"
    mesh: TriangleMesh | None = None
    piece: int = 0          # which prepared piece the part was carved from
    cell_lo: tuple[int, int, int] | None = None  # grid cell range, blocks/voids only
    cell_hi: tuple[int, int, int] | None = None  # inclusive
    name: str = ""          # the mesh name, known before the part is clipped


@dataclass
class Decomposition:
    """A result, scored from its parts; valid when there is no reason.
    Its scores and times are NaN when it has no parts."""

    parts: list[PartResult]
    seed_blocks: int
    seed: int
    reason: str
    symmetry_cut: bool
    clipped: bool           # the parts are clipped meshes, scored from them
    model_area_mm2: float   # NaN when the parts do not cover the model

    @property
    def valid(self) -> bool:
        return not self.reason

    @property
    def printers_used(self) -> int:
        return len(self.parts)

    @property
    def parallel_score(self) -> float:
        return max((p.print_score for p in self.parts), default=float("nan"))

    @property
    def parallel_time_s(self) -> float:
        return max((p.time_s for p in self.parts), default=float("nan"))

    @property
    def aggregate_time_s(self) -> float:
        return sum(p.time_s for p in self.parts) if self.parts else float("nan")

    @property
    def cut_area_mm2(self) -> float:     # Σ part − model surface area
        return sum(p.surface_area for p in self.parts) - self.model_area_mm2


@dataclass
class RunRecord:
    """One search iteration or baseline run, ready for a jsonl log."""

    seed_blocks: int
    try_index: int          # 0 for the baseline
    seed: int
    valid: bool
    parts: int
    parallel_score: float
    parallel_time_s: float
    aggregate_time_s: float
    reason: str
    clipped: bool           # scored from clipped meshes, not cell tables
    cut_area_mm2: float     # Σ part surface area − model surface area
    growth_steps: int       # growth moves of the iteration, every piece
    wall_clock_s: float     # of the run; an iteration's omits shared growth

    @classmethod
    def of(cls, result: Decomposition, try_index: int, growth_steps: int,
           wall_clock_s: float) -> RunRecord:
        return cls(seed_blocks=result.seed_blocks, try_index=try_index,
                   seed=result.seed, valid=result.valid,
                   parts=result.printers_used,
                   parallel_score=result.parallel_score,
                   parallel_time_s=result.parallel_time_s,
                   aggregate_time_s=result.aggregate_time_s,
                   reason=result.reason, clipped=result.clipped,
                   cut_area_mm2=result.cut_area_mm2,
                   growth_steps=growth_steps, wall_clock_s=wall_clock_s)

    def to_dict(self) -> dict:
        return dict(vars(self))


# ---------------------------------------------------------------------------
# preparation


@dataclass
class PreparedPiece:
    """The model or one side of its symmetry cut, oriented and gridded."""

    mesh: TriangleMesh          # capped, oriented, watertight
    grid: Grid                  # labelled and measured
    volume: float


@dataclass
class PreparedModel:
    pieces: list[PreparedPiece]
    cut: bool
    surface_area: float         # of the model before the symmetry cut


def prepare_model(mesh: TriangleMesh, plan: RunPlan,
                  plane: SymmetryPlane | None = None) -> PreparedModel:
    """Symmetry-cut (maybe), orient, and grid each piece once.

    ``plane``, when given, is ``find_best_symmetry_plane(mesh)``.
    """
    if plane is None:
        plane = find_best_symmetry_plane(mesh)
    raw: list[TriangleMesh] = [mesh]
    cut = False
    if (not plan.skip_symmetry_cut and plan.printers_available >= 2
            and plane.error_score <= plan.symmetry_threshold):
        positive, negative = cut_by_plane(mesh, plane.normal, plane.offset)
        if not positive.is_empty and not negative.is_empty:
            raw = [positive, negative]
            cut = True
            logger.info("symmetry cut accepted (error %.4g)", plane.error_score)
        else:
            logger.warning("symmetry plane cut off nothing; skipping the cut")
    pieces = []
    for i, piece in enumerate(raw):
        piece.name = f"{mesh.name}_half{i}" if cut else mesh.name
        oriented, _pose = optimize_orientation(
            piece, symmetry=plane,
            overhang_tolerance_deg=plan.overhang_tolerance_deg)
        grid = measure_cells(build_grid(oriented, plan.granularity), oriented,
                             plan.overhang_tolerance_deg)
        pieces.append(PreparedPiece(oriented, grid, measure(oriented).volume))
    return PreparedModel(pieces, cut, measure(mesh).surface_area)


def _proportional_share(total: int, v_first: float, v_second: float) -> int:
    """Round total * v1/(v1+v2) to the nearest int, clamped to [1, total-1]."""
    share = int(np.floor(total * v_first / max(v_first + v_second, 1e-300) + 0.5))
    return min(max(share, 1), total - 1)


def _uncovered_cells(grid: Grid, sums: np.ndarray) -> tuple[int, int]:
    """(boundary, internal) cells of a piece in none of its part boxes.

    ``sums`` holds the channel sums of the boxes (``grid.sums``), which
    hold disjoint solid cells, so their cell counts add up exactly.
    """
    total = grid.table[-1]
    boundary = int(total[BOUNDARY] - sums[:, BOUNDARY].sum())
    return boundary, int(total[SOLID] - sums[:, SOLID].sum()) - boundary


# ---------------------------------------------------------------------------
# one iteration

#: Reason of a table-scored result with a box larger than the printer: the
#: part inside may still fit, so only its clipped mesh can tell.
BOX_EXCEEDS_PRINTER = "a part box exceeds the printer"


def _splits(prepared: PreparedModel, printers: int,
            seed_blocks: int) -> tuple[list[int], list[int]]:
    """Seed blocks and printer budget of each piece."""
    pieces = prepared.pieces
    if len(pieces) == 1:
        return [seed_blocks], [printers]
    v1, v2 = pieces[0].volume, pieces[1].volume
    if seed_blocks < 2:
        raise ValueError("a symmetry-cut model needs at least 2 seed blocks")
    first = _proportional_share(seed_blocks, v1, v2)
    first_budget = _proportional_share(printers, v1, v2)
    return [first, seed_blocks - first], [first_budget, printers - first_budget]


@dataclass
class GrownPiece:
    """One piece of one iteration after growth."""

    lo: np.ndarray          # (k, 3): block i spans cells lo[i] to hi[i]
    hi: np.ndarray
    steps: int              # growth moves


def grow_runs(prepared: PreparedModel, plan: RunPlan, profile: PrinterProfile,
              runs: list[tuple[int, int]]) -> list[list[GrownPiece | str]]:
    """Seed and grow every (seed blocks, seed) run on every piece.

    Every run of every piece is one problem of a single lockstep
    :func:`grow_blocks` call, so a model cut in two takes as many lockstep
    passes as its longest growth, not the sum over its pieces.  Returns,
    per run, one entry per piece: the grown piece, or why it could not be
    seeded.
    """
    grown: list[list[GrownPiece | str]] = []
    problems: list[tuple[GrownPiece, PreparedPiece]] = []
    for seed_blocks, seed in runs:
        entry: list[GrownPiece | str] = []
        counts = _splits(prepared, plan.printers_available, seed_blocks)[0]
        for index, (piece, k) in enumerate(zip(prepared.pieces, counts)):
            try:
                seeds = select_seed_blocks(piece.grid, piece.mesh, k,
                                           rng_seed=seed * 2 + index)
            except InsufficientBoundaryCells as exc:
                entry.append(f"piece {index}: {exc}")
                continue
            entry.append(GrownPiece(seeds, seeds, 0))
            problems.append((entry[-1], piece))
        grown.append(entry)
    if problems:
        state = GrowthState([piece.grid for _, piece in problems],
                            [g.lo for g, _ in problems], profile,
                            plan.infill_fraction)
        grow_blocks(state)
        for p, (g, _) in enumerate(problems):
            k = len(g.lo)
            g.lo, g.hi = state.lo[p, :k].copy(), state.hi[p, :k].copy()
            g.steps = int(state.moves[p])
    return grown


def search_runs(prepared: PreparedModel,
                plan: RunPlan) -> list[tuple[int, int, int]]:
    """(seed blocks, try index, seed) of every iteration of the search, in
    the search's order."""
    return [(p, t, plan.seed_base + 1000 * p + t)
            for p in range(plan.printers_available, len(prepared.pieces) - 1, -1)
            for t in range(1, plan.sample_tries + 1)]


def run_decomposition(prepared: PreparedModel, plan: RunPlan,
                      profile: PrinterProfile, seed_blocks: int, seed: int,
                      grown: list[GrownPiece | str]) -> Decomposition:
    """Fill the voids of one grown iteration and score its boxes.

    ``grown`` is the iteration's entry of :func:`grow_runs`.  The first
    piece that failed to seed or stays uncovered gives the reason, and the
    iteration then has no parts.  Every box is scored from the per-cell
    tables and nothing is clipped: the parts carry no mesh (``clipped`` is
    False) until :func:`clip_parts` turns them into meshes.
    """
    total_printers = plan.printers_available
    budget_split = _splits(prepared, total_printers, seed_blocks)[1]
    parts: list[PartResult] = []
    reason = ""
    fits = True
    for index, (piece, entry, budget) in enumerate(zip(prepared.pieces, grown,
                                                       budget_split)):
        if isinstance(entry, str):
            reason = entry
            break
        blocked = list(zip(entry.lo, entry.hi))
        limits = cell_limits(profile.dims, piece.grid.cell_size)
        regions = get_discrete_empty_regions(
            piece.grid, blocked, max(0, budget - len(blocked)), limits)
        ranges = np.array(blocked + regions, dtype=np.int64)
        sums = piece.grid.sums(ranges[:, 0], ranges[:, 1])
        left_b, left_i = _uncovered_cells(piece.grid, sums)
        if left_b or left_i:
            reason = (f"piece {index}: {left_b} boundary / {left_i} internal "
                      "cells uncovered")
            break
        names = ([("block", f"_b{i}") for i in range(len(blocked))]
                 + [("void", f"_v{r}") for r in range(len(regions))])
        kept = np.flatnonzero(sums[:, SOLID] != 0)
        lo, hi = ranges[kept, 0], ranges[kept, 1]
        fits = fits and bool((np.sort(hi - lo + 1, axis=-1) <= limits).all())
        volumes, areas = piece.grid.boxes(lo, hi)
        for i, box_lo, box_hi, volume, area in zip(
                kept.tolist(), lo.tolist(), hi.tolist(), volumes.tolist(),
                areas.tolist()):
            source, suffix = names[i]
            parts.append(_part(volume, area, source, profile,
                               plan.infill_fraction, piece=index,
                               cell_lo=tuple(box_lo), cell_hi=tuple(box_hi),
                               name=piece.mesh.name + suffix))
    if reason:
        # The parts of the pieces before the one that stopped the iteration
        # cover only part of the model: the iteration has no result.
        parts = []
    reason = reason or _count_verdict(parts, total_printers)
    if not reason and not fits:
        reason = BOX_EXCEEDS_PRINTER
    return Decomposition(parts, seed_blocks, seed, reason, prepared.cut,
                         clipped=False,
                         model_area_mm2=_covered_area(prepared, parts))


def clip_parts(prepared: PreparedModel, plan: RunPlan, profile: PrinterProfile,
               result: Decomposition,
               meshes: dict[tuple, TriangleMesh]) -> Decomposition:
    """Clip the boxes of a covered iteration to meshes and score the meshes.

    result is what :func:`run_decomposition` returned for an iteration whose
    every piece was covered.  A box whose clipped mesh is empty is dropped,
    and validity is judged again from the meshes.  ``meshes`` holds the
    clipped mesh of every (piece, cell_lo, cell_hi) box clipped so far in
    the search and gains the new ones, so boxes shared by iterations are
    clipped once; each part still gets its own named mesh.  The boxes it
    lacks are clipped in one :func:`clip_to_box` call.
    """
    missing = [key for key in dict.fromkeys(
        (part.piece, part.cell_lo, part.cell_hi) for part in result.parts)
        if key not in meshes]
    if missing:
        pieces = [prepared.pieces[piece] for piece, _, _ in missing]
        meshes.update(zip(missing, clip_to_box(
            [piece.mesh for piece in pieces],
            [piece.grid.box_of_range(lo, hi)
             for piece, (_, lo, hi) in zip(pieces, missing)])))
    parts: list[PartResult] = []
    for part in result.parts:
        clipped = meshes[(part.piece, part.cell_lo, part.cell_hi)]
        if clipped.is_empty:
            continue
        parts.append(_score_part(
            TriangleMesh(clipped.vertices, clipped.triangles, part.name),
            part.source, profile, plan.infill_fraction, piece=part.piece,
            cell_lo=part.cell_lo, cell_hi=part.cell_hi))
    volume = sum(piece.volume for piece in prepared.pieces)
    return Decomposition(
        parts, result.seed_blocks, result.seed,
        _parts_verdict(parts, plan.printers_available, profile.dims, volume),
        prepared.cut, clipped=True,
        model_area_mm2=_covered_area(prepared, parts))


def _count_verdict(parts: list[PartResult], printers: int) -> str:
    """Why a result is invalid before any part's extent is looked at."""
    if not parts:
        return "no parts produced"
    if len(parts) > printers:
        return f"{len(parts)} parts exceed {printers} printers"
    return ""


def _parts_verdict(parts: list[PartResult], printers: int,
                   printer_dims: tuple[float, float, float], volume: float) -> str:
    """Why a set of part meshes is invalid, empty when it is valid: the
    part count, then each part's fit, then ``bad_part`` when a part is not
    closed or the parts' volumes miss ``volume``, the volume they
    partition, by more than 1e-9 of it."""
    reason = _count_verdict(parts, printers)
    if reason:
        return reason
    for part in parts:
        if not fits_printer(aabb_of(part.mesh).extent, printer_dims):
            return f"part {part.name} exceeds the printer"
    for part in parts:
        if not validate_watertight(part.mesh).is_watertight:
            return f"bad_part: part {part.name} is not closed"
    total = sum(part.volume for part in parts)
    if abs(total - volume) > 1e-9 * abs(volume):
        return f"bad_part: part volumes sum to {total:.12g}, not {volume:.12g}"
    return ""


def _covered_area(prepared: PreparedModel, parts: list[PartResult]) -> float:
    """The model's surface area when parts cover it, NaN otherwise."""
    # An iteration stops at its first uncovered piece, and a covered piece
    # has parts: the parts cover the model when every piece has some.
    covered = {p.piece for p in parts} == set(range(len(prepared.pieces)))
    return prepared.surface_area if covered else float("nan")


def _part(volume: float, area: float, source: str, profile: PrinterProfile,
          infill_fraction: float, **where) -> PartResult:
    """A part of the given volume and capped surface area, scored;
    ``where`` holds its remaining :class:`PartResult` fields."""
    return PartResult(volume=volume, surface_area=area,
                      print_score=print_score(volume, area, profile,
                                              infill_fraction),
                      time_s=estimate_time(volume, area, profile,
                                           infill_fraction),
                      source=source, **where)


def _score_part(mesh: TriangleMesh, source: str, profile: PrinterProfile,
                infill_fraction: float, **where) -> PartResult:
    """A part scored from its mesh."""
    mm = measure(mesh)
    return _part(mm.volume, mm.surface_area, source, profile, infill_fraction,
                 mesh=mesh, name=mesh.name, **where)


# ---------------------------------------------------------------------------
# one model's shared work


@dataclass
class ModelWork:
    """One model's work, shared by runs whose plans and profiles differ at
    most in their printer count, as a batch's do.

    ``plane`` is the model's best mirror plane, which preparation and the
    baseline's first halving start from.  Preparation reads only whether
    the printer count is two or more, so ``searches`` holds, by
    ``printers >= 2``, the prepared model and its grown search runs, first
    grown for the largest count of that key in ``printer_counts``: its
    runs include those of every smaller count.  ``rounds`` holds the
    baseline's halving rounds built so far (:meth:`halving_round`).  Only
    the baseline's stop test reads the printer count and size, so every
    count walks the same rounds.  ``first`` holds the first run's plan,
    its printer count set to 0, and profile (:meth:`check`).  Only
    the methods write the fields.
    """

    mesh: TriangleMesh
    printer_counts: tuple[int, ...] = ()
    plane: SymmetryPlane | None = None
    searches: dict[bool, tuple[PreparedModel, dict]] = field(default_factory=dict)
    rounds: list[list[TriangleMesh] | None] = field(default_factory=list)
    oriented_plane: SymmetryPlane | None = None  # plane moved with round 0
    first: tuple = ()

    def check(self, plan: RunPlan, profile: PrinterProfile) -> None:
        """Raise ValueError, naming the field, unless plan and profile are
        the first call's but for the printer count."""
        given = (replace(plan, printers_available=0), profile)
        self.first = self.first or given
        if given != self.first:
            held = vars(self.first[0]) | vars(self.first[1])
            for key, value in (vars(given[0]) | vars(given[1])).items():
                if value != held[key]:
                    raise ValueError(f"this ModelWork holds runs of {key}="
                                     f"{held[key]!r}, not {value!r}")

    def mirror_plane(self) -> SymmetryPlane:
        if self.plane is None:
            self.plane = find_best_symmetry_plane(self.mesh)
        return self.plane

    def search_inputs(self, plan: RunPlan,
                      profile: PrinterProfile) -> tuple[PreparedModel, dict]:
        """The prepared model of plan's search, and a map from (seed blocks,
        seed) to the entry of :func:`grow_runs` of every run of the search.

        A run's seeds and growth read nothing a batch varies, so the runs
        the map lacks are grown in one :func:`grow_runs` call for the
        largest count of plan's key, which holds the runs of every smaller
        count.  It calls :meth:`check` first."""
        self.check(plan, profile)
        key = plan.printers_available >= 2
        if key not in self.searches:
            self.searches[key] = prepare_model(self.mesh, plan,
                                               self.mirror_plane()), {}
        prepared, grown = self.searches[key]
        plan = replace(plan, printers_available=max([plan.printers_available] + [
            n for n in self.printer_counts if (n >= 2) == key]))
        runs = [(p, seed) for p, _, seed in search_runs(prepared, plan)
                if (p, seed) not in grown]
        if runs:
            grown.update(zip(runs, grow_runs(prepared, plan, profile, runs)))
        return prepared, grown

    def halving_round(self, r: int, plan: RunPlan) -> list[TriangleMesh] | None:
        """The baseline's round r, the printable mesh of every piece, or
        None when an earlier halving cut nothing.

        Round 0 is the model, checked closed and oriented; round 1 halves
        it at the model's mirror plane moved with it, and each later round
        halves every piece at its own mirror plane.  Rounds are built as
        they are first asked for.  Raises NonWatertightInput when the mesh
        is not closed.
        """
        rounds = self.rounds
        if not rounds:
            if not validate_watertight(self.mesh).is_watertight:
                raise NonWatertightInput("the baseline needs a closed mesh")
            oriented, pose = optimize_orientation(
                self.mesh, symmetry=self.mirror_plane(),
                overhang_tolerance_deg=plan.overhang_tolerance_deg)
            oriented.name = self.mesh.name
            rounds.append([oriented])
            self.oriented_plane = pose.move(self.plane)
        while len(rounds) <= r and rounds[-1] is not None:
            rounds.append(_halve(rounds[-1], self.oriented_plane
                                 if len(rounds) == 1 else None))
        return rounds[min(r, len(rounds) - 1)]


# ---------------------------------------------------------------------------
# search


def _beats(challenger: Decomposition, incumbent: Decomposition | None) -> bool:
    if incumbent is None:
        return True
    a = (challenger.parallel_score, challenger.printers_used,
         challenger.aggregate_time_s)
    b = (incumbent.parallel_score, incumbent.printers_used,
         incumbent.aggregate_time_s)
    return a < b


def run_metaheuristic(mesh: TriangleMesh, plan: RunPlan,
                      profile: PrinterProfile,
                      records: list[RunRecord] | None = None,
                      work: ModelWork | None = None) -> Decomposition:
    """Sweep seed-block counts and retries; return the best valid result.

    ``records``, when given, gains one :class:`RunRecord` per iteration, in
    the search's order.  ``work``, when given, is mesh's
    :class:`ModelWork`, which gives the prepared model and grown runs; the
    runs it lacks are seeded and grown up front, all in one lockstep pass
    (:func:`grow_runs`).  Every run is filled and scored from the cell
    tables in the search's order.  Then the covered iterations, valid or
    with a box larger than the printer, are clipped in ascending order of
    table score until the next table score exceeds the best clipped score
    by more than ``SCORE_RTOL``; each distinct box is clipped once.  A
    table score does not exceed the score of the clipped meshes, so no
    iteration left unclipped could have won.  The winner is the best
    clipped result by :func:`_beats`, the earlier iteration on ties.

    Raises NoValidDecomposition when every iteration fails, and ValueError
    when work holds runs of another plan or profile (:meth:`ModelWork.check`).
    """
    work = ModelWork(mesh) if work is None else work
    prepared, grown = work.search_inputs(plan, profile)
    runs = search_runs(prepared, plan)
    results: list[Decomposition] = []
    seconds: list[float] = []
    for p, _, seed in runs:
        tick = time.perf_counter()
        results.append(run_decomposition(prepared, plan, profile, p, seed,
                                         grown[(p, seed)]))
        seconds.append(time.perf_counter() - tick)

    meshes: dict[tuple, TriangleMesh] = {}
    best_score = float("inf")
    covered = [i for i, r in enumerate(results)
               if r.valid or r.reason == BOX_EXCEEDS_PRINTER]
    for i in sorted(covered, key=lambda i: results[i].parallel_score):
        if results[i].parallel_score > best_score * (1.0 + SCORE_RTOL):
            break
        tick = time.perf_counter()
        results[i] = clip_parts(prepared, plan, profile, results[i], meshes)
        seconds[i] += time.perf_counter() - tick
        if results[i].valid:
            best_score = min(best_score, results[i].parallel_score)

    best: Decomposition | None = None
    for (p, t, seed), result, wall in zip(runs, results, seconds):
        if records is not None:
            records.append(RunRecord.of(
                result, t, sum(g.steps for g in grown[(p, seed)]
                               if isinstance(g, GrownPiece)), wall))
        logger.debug("p=%d t=%d seed=%d valid=%s score=%.6g clipped=%s (%s)",
                     p, t, seed, result.valid, result.parallel_score,
                     result.clipped, result.reason or "ok")
        if result.clipped and result.valid and _beats(result, best):
            best = result
    if best is None:
        raise NoValidDecomposition(
            f"no valid decomposition for {mesh.name or 'mesh'!r} "
            f"in {len(results)} iterations with {plan.printers_available} printers")
    return best


# ---------------------------------------------------------------------------
# comparison baseline

#: Most halving rounds of the baseline.
BASELINE_MAX_ROUNDS = 10


def recursive_symmetry_baseline(mesh: TriangleMesh, plan: RunPlan,
                                profile: PrinterProfile,
                                records: list[RunRecord] | None = None,
                                work: ModelWork | None = None) -> Decomposition:
    """Halve every part at its best mirror plane until the count reaches the
    largest power of two <= printers_available and everything fits.

    A round with more pieces than printers ends the halving: rounds never
    lose pieces, so neither it nor any later round is valid, and it is
    returned as the invalid result.  The rounds come from
    :meth:`ModelWork.halving_round`, and the halving also ends at the first
    round that cuts nothing.  ``records``, when given, gains the run's
    :class:`RunRecord`.  ``work``, when given, is mesh's
    :class:`ModelWork`; it keeps the rounds this call builds.

    Raises NonWatertightInput when the mesh is not closed, and ValueError
    when work holds runs of another plan or profile (:meth:`ModelWork.check`).
    """
    tick = time.perf_counter()
    work = ModelWork(mesh) if work is None else work
    work.check(plan, profile)
    target = 1
    while target * 2 <= plan.printers_available:
        target *= 2

    def final(pieces) -> bool:
        return len(pieces) > plan.printers_available or (
            len(pieces) >= target
            and all(fits_printer(aabb_of(m).extent, profile.dims)
                    for m in pieces))

    pieces = work.halving_round(0, plan)
    for r in range(1, BASELINE_MAX_ROUNDS + 1):
        halved = None if final(pieces) else work.halving_round(r, plan)
        if halved is None:
            break
        pieces = halved

    parts = [_score_part(m, "block", profile, plan.infill_fraction, piece=i)
             for i, m in enumerate(pieces)]
    mm = measure(mesh)
    result = Decomposition(
        parts, seed_blocks=0, seed=plan.seed_base,
        reason=_parts_verdict(parts, plan.printers_available, profile.dims,
                              mm.volume),
        symmetry_cut=len(parts) > 1, clipped=True,
        model_area_mm2=mm.surface_area)
    if records is not None:
        records.append(RunRecord.of(result, 0, 0, time.perf_counter() - tick))
    return result


def _halve(pieces: list[TriangleMesh],
           plane: SymmetryPlane | None = None) -> list[TriangleMesh] | None:
    """Cut every piece at its best mirror plane; None when none was cut.

    ``plane``, when given, is that plane of the one piece of round 0."""
    cut_any = False
    nxt: list[TriangleMesh] = []
    for m in pieces:
        best = plane if plane is not None else find_best_symmetry_plane(m)
        positive, negative = cut_by_plane(m, best.normal, best.offset)
        if positive.is_empty or negative.is_empty:
            nxt.append(m)
            continue
        positive.name = f"{m.name}a"
        negative.name = f"{m.name}b"
        nxt.extend([positive, negative])
        cut_any = True
    return nxt if cut_any else None
