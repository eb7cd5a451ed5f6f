"""Symmetry planes, the optional cut, and build orientation."""
import numpy as np
import pytest

from parallelobox.fixtures import (asymmetric_blob, box_mesh, dumbbell,
                                   icosphere, unit_cube, wedge)
from parallelobox.mesh import TriangleMesh, aabb_of, measure, triangle_areas, triangle_normals
from parallelobox.meta import PrinterProfile, RunPlan, prepare_model
from parallelobox.preprocess import (OFFSET_SWEEP, SYMMETRY_THRESHOLD,
                                     _principal_axes, find_best_symmetry_plane,
                                     optimize_orientation,
                                     overhang_area_for_up_z)


def _brute_symmetry_error(mesh, normal, offset):
    """O(n^2) restatement of the score for cross-checking."""
    n = np.asarray(normal, dtype=float)
    v = mesh.vertices
    reflected = v - 2.0 * ((v @ n) - offset)[:, None] * n
    d = np.sqrt(((reflected[:, None, :] - v[None, :, :]) ** 2).sum(axis=2)).min(axis=1)
    return float(d.mean()) / aabb_of(mesh).diagonal


def test_symmetry_error_matches_brute_force():
    """On each fixture, the best plane's error is its brute-force score, and
    no candidate plane (principal axis x offset sweep) scores lower by
    brute force."""
    for mesh in (box_mesh(size=(2.0, 1.0, 3.0)), unit_cube(), dumbbell(),
                 wedge(), asymmetric_blob(),
                 icosphere(radius=5.0, subdivisions=2)):
        plane = find_best_symmetry_plane(mesh)
        assert plane.error_score == pytest.approx(
            _brute_symmetry_error(mesh, plane.normal, plane.offset),
            rel=1e-9, abs=1e-15), mesh.name
        v = mesh.vertices
        for axis in _principal_axes(v):
            along = v @ axis
            extent = float(along.max() - along.min())
            for frac in OFFSET_SWEEP:
                offset = float(v.mean(axis=0) @ axis) + float(frac) * extent
                assert _brute_symmetry_error(mesh, axis, offset) >= (
                    plane.error_score - 1e-12), mesh.name


def test_perfect_mirror_scores_zero():
    assert find_best_symmetry_plane(unit_cube()).error_score < 1e-9
    assert find_best_symmetry_plane(dumbbell()).error_score < 1e-9


def test_displaced_corner_keeps_plane_but_gains_error():
    cube = unit_cube()
    v = cube.vertices.copy()
    v[0] += 0.1 * aabb_of(cube).diagonal * np.array([1.0, 0.0, 0.0])
    bent = TriangleMesh(v, cube.triangles)
    plane = find_best_symmetry_plane(bent)
    assert plane.error_score > 0.0


def test_asymmetric_cloud_above_threshold():
    plane = find_best_symmetry_plane(asymmetric_blob())
    assert plane.error_score > SYMMETRY_THRESHOLD


def test_principal_axes_snap_for_degenerate_shapes():
    # A bar with a square cross-section has two equal eigenvalues; the
    # returned basis must still be the coordinate axes, not an arbitrary
    # in-plane rotation of them.
    bar = box_mesh(size=(30.0, 10.0, 10.0))
    axes = _principal_axes(bar.vertices)
    assert np.allclose(np.abs(axes), np.eye(3), atol=1e-9)

    tray = box_mesh(size=(36.0, 36.0, 18.0))
    axes = _principal_axes(tray.vertices)
    assert np.allclose(np.sort(np.abs(axes).argmax(axis=1)), [0, 1, 2])
    assert np.allclose(np.abs(axes @ axes.T), np.eye(3), atol=1e-12)
    for row in axes:
        assert np.abs(row).max() == pytest.approx(1.0, abs=1e-9)


def test_principal_axes_recover_true_frame():
    # Distinct variances along a rotated frame: the detector should find it.
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(4000, 3)) * np.array([5.0, 2.0, 1.0])
    theta = 0.6
    rot = np.array([[np.cos(theta), -np.sin(theta), 0.0],
                    [np.sin(theta), np.cos(theta), 0.0],
                    [0.0, 0.0, 1.0]])
    axes = _principal_axes(pts @ rot.T)
    want_first = rot @ np.array([1.0, 0.0, 0.0])
    assert abs(float(axes[0] @ want_first)) > 0.999


def maybe_symmetry_cut(mesh, threshold):
    """The pieces prepare_model cuts a mesh into at a symmetry threshold."""
    plan = RunPlan(printers_available=2, granularity="coarse",
                   symmetry_threshold=threshold)
    return [piece.mesh for piece in prepare_model(mesh, plan, PrinterProfile()).pieces]


def test_maybe_symmetry_cut_behaviour():
    halves = maybe_symmetry_cut(unit_cube(), 0.01)
    assert len(halves) == 2
    va, vb = (measure(h).volume for h in halves)
    assert va == pytest.approx(vb, rel=1e-6)
    assert va + vb == pytest.approx(1.0, rel=1e-9)

    kept = maybe_symmetry_cut(asymmetric_blob(), 0.01)
    assert len(kept) == 1

    halves = maybe_symmetry_cut(icosphere(radius=10.0, subdivisions=3), 0.01)
    assert len(halves) == 2
    analytic_half = 0.5 * 4.0 / 3.0 * np.pi * 1000.0
    for h in halves:
        assert measure(h).volume == pytest.approx(analytic_half, rel=0.02)


def test_orientation_centers_and_preserves_measure():
    rng = np.random.default_rng(12)
    for make in (unit_cube, dumbbell, wedge):
        mesh = make().translated(rng.uniform(-40.0, 40.0, size=3))
        before = measure(mesh)
        oriented, pose = optimize_orientation(mesh)
        after = measure(oriented)
        assert np.abs(oriented.vertices.mean(axis=0)).max() < 1e-9
        assert after.volume == pytest.approx(before.volume, rel=1e-9)
        assert after.surface_area == pytest.approx(before.surface_area, rel=1e-9)
        assert np.linalg.det(pose.rotation) == pytest.approx(1.0, abs=1e-9)
        # pose.apply reproduces the returned mesh
        replay = pose.apply(mesh)
        assert np.allclose(replay.vertices, oriented.vertices, atol=1e-9)


def test_orientation_minimizes_overhang_among_24():
    mesh = wedge()
    oriented, pose = optimize_orientation(mesh, overhang_tolerance_deg=1.0)
    areas = triangle_areas(mesh)
    normals0 = triangle_normals(mesh)
    chosen = overhang_area_for_up_z(normals0 @ pose.rotation.T, areas, 1.0)
    # Exhaustive check across every axis-aligned proper rotation of the
    # wedge's principal frame: none may beat the chosen orientation.
    from parallelobox.preprocess import _AXIS_ROTATIONS, _principal_axes
    base = _principal_axes(mesh.vertices)
    if np.linalg.det(base) < 0:
        base[2] = -base[2]
    best = min(overhang_area_for_up_z(normals0 @ (q @ base).T, areas, 1.0)
               for q in _AXIS_ROTATIONS)
    assert chosen == pytest.approx(best, rel=1e-9, abs=1e-9)


def test_translated_cube_identity_rotation_family():
    mesh = unit_cube().translated((10.0, 0.0, 0.0))
    oriented, pose = optimize_orientation(mesh)
    # Any rotation in the cube's symmetry group is fine; the result must be
    # the same axis-aligned cube centered at the origin.
    bb = aabb_of(oriented)
    assert np.allclose(bb.extent, [1.0, 1.0, 1.0], atol=1e-9)
    assert np.allclose(bb.min, [-0.5, -0.5, -0.5], atol=1e-9)


def test_symmetry_error_rigid_invariance():
    mesh = dumbbell()
    plane = find_best_symmetry_plane(mesh)
    rng = np.random.default_rng(21)
    theta = rng.uniform(0.0, np.pi)
    rot = np.array([[np.cos(theta), -np.sin(theta), 0.0],
                    [np.sin(theta), np.cos(theta), 0.0],
                    [0.0, 0.0, 1.0]])
    shift = rng.uniform(-30.0, 30.0, size=3)
    moved = mesh.transformed(rot, shift)
    moved_plane = find_best_symmetry_plane(moved)
    assert moved_plane.error_score == pytest.approx(plane.error_score, abs=1e-6)
