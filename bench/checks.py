"""Independent output check and decomposition fingerprints.

The check does not trust ``Decomposition.valid``: a winner counts as
printable only when the benchmark itself finds every part watertight, the
part volumes summing to the model volume, every part fitting the printer
by sorted extents, and no more parts than printers.  Parts are checked in
memory, in float64.  The exported STL files are then read back and must
hold exactly those parts, rounded to float32 as binary STL stores them.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from parallelobox.mesh import measure, validate_watertight

#: Relative tolerance on the part volume sum.
VOLUME_RTOL = 1e-9
FIT_EPS = 1e-9

_STL_RECORD = np.dtype([("normal", "<f4", (3,)), ("verts", "<f4", (3, 3)),
                        ("attr", "<u2")])


@dataclass
class Outcome:
    """One decomposition request as the program answered it."""

    model: str
    algorithm: str
    printers: int
    mesh: object            # the TriangleMesh the program was given
    result: object | None   # Decomposition, or None when it raised
    error: str = ""


def fits(mesh, printer_dims) -> bool:
    extent = mesh.vertices.max(axis=0) - mesh.vertices.min(axis=0)
    return bool(np.all(np.sort(extent) <= np.sort(printer_dims) + FIT_EPS))


def read_stl(path: Path) -> np.ndarray:
    """(n, 3, 3) float32 triangle corners of a binary STL file."""
    raw = path.read_bytes()
    count = int.from_bytes(raw[80:84], "little")
    if len(raw) != 84 + _STL_RECORD.itemsize * count:
        raise ValueError(f"{path.name}: {len(raw)} bytes for {count} triangles")
    return np.frombuffer(raw, dtype=_STL_RECORD, count=count, offset=84)["verts"]


def part_problems(meshes, model_volume: float, printers: int,
                  printer_dims) -> list[str]:
    """Reasons a set of part meshes is not a printable decomposition."""
    problems = []
    if not meshes:
        problems.append("no parts")
    if len(meshes) > printers:
        problems.append(f"{len(meshes)} parts for {printers} printers")
    for i, mesh in enumerate(meshes):
        if not validate_watertight(mesh).is_watertight:
            problems.append(f"part {i} is not watertight")
        if not fits(mesh, printer_dims):
            problems.append(f"part {i} does not fit the printer")
    total = sum(measure(m).volume for m in meshes)
    if abs(total - model_volume) > VOLUME_RTOL * abs(model_volume):
        problems.append(f"part volumes sum to {total!r}, model {model_volume!r}")
    return problems


def check_outcome(outcome: Outcome, printer_dims, part_dir: Path | None) -> list[str]:
    """Empty when the outcome is a valid, printable decomposition.

    part_dir holds the exported ``part_###.stl`` files of this outcome.
    """
    result = outcome.result
    if result is None:
        return [outcome.error or "no result"]
    if not result.valid:
        return [f"invalid: {result.reason}"]
    meshes = [p.mesh for p in result.parts]
    problems = part_problems(meshes, measure(outcome.mesh).volume,
                             outcome.printers, printer_dims)
    if part_dir is not None:
        files = sorted(part_dir.glob("part_*.stl"))
        if len(files) != len(meshes):
            problems.append(f"{len(files)} exported files for {len(meshes)} parts")
        for i, (path, mesh) in enumerate(zip(files, meshes)):
            try:
                corners = read_stl(path)
            except ValueError as exc:
                problems.append(f"exported part {i}: {exc}")
                continue
            expected = mesh.vertices[mesh.triangles].astype(np.float32)
            if not np.array_equal(corners, expected):
                problems.append(f"exported part {i} differs from part {i}")
    return problems


def fingerprint(outcome: Outcome):
    """What a decomposition produced, comparable across passes."""
    head = (outcome.model, outcome.algorithm, outcome.printers)
    result = outcome.result
    if result is None:
        return head + (outcome.error,)
    parts = sorted((p.piece, p.cell_lo or (), p.cell_hi or (), p.source)
                   for p in result.parts)
    time_s = result.parallel_time_s
    time_s = None if time_s != time_s else round(time_s, 6)  # NaN: no parts
    return head + (len(parts), tuple(parts), time_s, result.valid)
