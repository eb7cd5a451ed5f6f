"""Symmetry detection and build orientation.

Candidate mirror planes come from the vertex cloud's three principal axes,
each swept through five offsets around the centroid.  A plane's error is
the mean distance from every reflected vertex to its nearest original
vertex, normalized by the bounding-box diagonal, so 0 means a perfect
mirror and the score is scale-free.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .mesh import TriangleMesh, aabb_of, triangle_areas, triangle_normals

#: Default symmetry acceptance threshold (fraction of the bbox diagonal).
SYMMETRY_THRESHOLD = 0.01
#: Offsets swept along each principal axis, as a fraction of the extent.
OFFSET_SWEEP = np.linspace(-0.1, 0.1, 5)


@dataclass(frozen=True)
class SymmetryPlane:
    """Mirror plane ``normal . x = offset`` with its normalized error score."""

    normal: np.ndarray
    offset: float
    error_score: float


@dataclass(frozen=True)
class Pose:
    """Rigid transform ``x -> rotation @ x + translation``."""

    rotation: np.ndarray
    translation: np.ndarray

    def apply(self, mesh: TriangleMesh) -> TriangleMesh:
        return mesh.transformed(self.rotation, self.translation)


def _principal_axes(vertices: np.ndarray) -> np.ndarray:
    """Rows are unit principal axes, strongest variance first, determinate sign.

    Near-equal eigenvalues leave the eigensolver free to return any basis of
    the shared eigenspace, which would twist symmetric models by an arbitrary
    angle from run to run.  Each such group is therefore realigned toward the
    coordinate axes: project the best-covered axes into the eigenspace and
    re-orthonormalize.
    """
    centered = vertices - vertices.mean(axis=0)
    cov = centered.T @ centered / max(len(vertices), 1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    axes = evecs[:, order].T
    scale = max(float(evals[0]), 1e-300)
    bounds = [0]
    for i in range(1, 3):
        if evals[bounds[-1]] - evals[i] > 1e-7 * scale:
            bounds.append(i)
    bounds.append(3)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi - lo < 2:
            continue
        block = axes[lo:hi]
        proj = block.T @ block  # projector onto the degenerate eigenspace
        coverage = np.diag(proj)
        picked: list[np.ndarray] = []
        for ci in np.argsort(-coverage, kind="stable"):
            vec = proj[:, ci].copy()
            for prev in picked:
                vec -= (vec @ prev) * prev
            norm = float(np.linalg.norm(vec))
            if norm > 1e-9:
                picked.append(vec / norm)
            if len(picked) == hi - lo:
                break
        if len(picked) == hi - lo:
            axes[lo:hi] = np.asarray(picked)
    for i in range(3):
        # Fix the sign so results do not flip between numerically equal runs.
        j = int(np.argmax(np.abs(axes[i])))
        if axes[i][j] < 0:
            axes[i] = -axes[i]
    return axes


def find_best_symmetry_plane(mesh: TriangleMesh) -> SymmetryPlane:
    """Best mirror among 3 principal axes x 5 offsets (+-10% of the extent)."""
    v = mesh.vertices
    centroid = v.mean(axis=0)
    axes = _principal_axes(v)
    tree = cKDTree(v)
    diag = max(aabb_of(mesh).diagonal, 1e-300)
    best: SymmetryPlane | None = None
    for axis in axes:
        along = v @ axis
        extent = float(along.max() - along.min())
        center_offset = float(centroid @ axis)
        for frac in OFFSET_SWEEP:
            offset = center_offset + float(frac) * extent
            reflected = v - 2.0 * (along - offset)[:, None] * axis
            dist, _ = tree.query(reflected)
            score = float(dist.mean()) / diag
            if best is None or score < best.error_score:
                best = SymmetryPlane(axis.copy(), offset, score)
    assert best is not None
    return best


def _proper_axis_rotations() -> list[np.ndarray]:
    """All 24 rotation matrices that permute and flip coordinate axes."""
    mats = []
    for perm in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        for signs in ((1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1),
                      (-1, 1, 1), (-1, 1, -1), (-1, -1, 1), (-1, -1, -1)):
            m = np.zeros((3, 3))
            for row, (col, s) in enumerate(zip(perm, signs)):
                m[row, col] = s
            if np.linalg.det(m) > 0:
                mats.append(m)
    return mats


_AXIS_ROTATIONS = _proper_axis_rotations()


def overhang_area_for_up_z(normals: np.ndarray, areas: np.ndarray,
                           tolerance_deg: float) -> float:
    """Total area of faces tilted below horizontal past the tolerance (up = +z)."""
    sin_tol = np.sin(np.radians(tolerance_deg))
    return float(areas[normals[:, 2] < -sin_tol].sum())


def optimize_orientation(mesh: TriangleMesh, symmetry: SymmetryPlane | None = None,
                         overhang_tolerance_deg: float = 1.0) -> tuple[TriangleMesh, Pose]:
    """Center the mesh, align principal axes, and pick the least-overhang
    orientation out of the 24 axis-aligned proper rotations.

    Ties fall back to aligning the symmetry normal with +x, then to the
    lowest bounding-box height, then to the candidate index.
    """
    v = mesh.vertices
    centroid = v.mean(axis=0)
    base = _principal_axes(v)  # rows: principal axes
    if np.linalg.det(base) < 0:
        base[2] = -base[2]
    normals0 = triangle_normals(mesh)
    areas = triangle_areas(mesh)
    total_area = float(areas.sum())
    eps = 1e-9 * (1.0 + total_area)
    sym_normal = None if symmetry is None else symmetry.normal

    best = None  # (overhang, -alignment, height, index, rotation)
    for idx, q in enumerate(_AXIS_ROTATIONS):
        rot = q @ base
        normals = normals0 @ rot.T
        overhang = overhang_area_for_up_z(normals, areas, overhang_tolerance_deg)
        align = 0.0 if sym_normal is None else abs(float((rot @ sym_normal)[0]))
        rotated_z = (v - centroid) @ rot.T[:, 2]
        height = float(rotated_z.max() - rotated_z.min())
        if best is None:
            best = (overhang, align, height, idx, rot)
            continue
        b_over, b_align, b_height, _, _ = best
        if overhang < b_over - eps:
            better = True
        elif overhang > b_over + eps:
            better = False
        elif align > b_align + 1e-9:
            better = True
        elif align < b_align - 1e-9:
            better = False
        else:
            better = height < b_height - 1e-9
        if better:
            best = (overhang, align, height, idx, rot)
    assert best is not None
    rotation = best[4]
    translation = -rotation @ centroid
    pose = Pose(rotation, translation)
    return pose.apply(mesh), pose
