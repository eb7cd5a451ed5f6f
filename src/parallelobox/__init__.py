"""Decompose watertight meshes into printer-sized boxes that print in parallel."""

from .errors import (ConfigError, DegenerateBox, EmptyMesh,
                     InsufficientBoundaryCells, NonWatertightInput,
                     NoValidDecomposition, ParalleloboxError, ParseError)
from .mesh import (Aabb, TriangleMesh, aabb_of, clean_mesh, load_mesh,
                   measure, save_stl, validate_watertight)
from .clip import clip_to_box, cut_by_plane, points_in_mesh
from .preprocess import (SymmetryPlane, find_best_symmetry_plane,
                         optimize_orientation)
from .grid import CellClass, Grid, build_grid, measure_cells
from .blocks import PrinterProfile, print_score, select_seed_blocks
from .resolve import get_discrete_empty_regions
from .meta import (Decomposition, PartResult, RunPlan, RunRecord,
                   estimate_time, recursive_symmetry_baseline,
                   run_metaheuristic)

__version__ = "0.1.0"

__all__ = [
    "Aabb", "CellClass", "ConfigError", "Decomposition", "DegenerateBox",
    "EmptyMesh", "Grid", "InsufficientBoundaryCells", "NonWatertightInput",
    "NoValidDecomposition", "ParalleloboxError", "ParseError", "PartResult",
    "PrinterProfile", "RunPlan", "RunRecord", "SymmetryPlane", "TriangleMesh",
    "aabb_of", "build_grid", "clean_mesh", "clip_to_box", "cut_by_plane",
    "estimate_time", "find_best_symmetry_plane", "get_discrete_empty_regions",
    "load_mesh", "measure", "measure_cells", "optimize_orientation",
    "points_in_mesh", "print_score",
    "recursive_symmetry_baseline", "run_metaheuristic", "save_stl",
    "select_seed_blocks", "validate_watertight",
]
