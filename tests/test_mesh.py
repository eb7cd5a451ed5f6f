"""Mesh container, measurement, cleanup, and STL/OBJ round-trips."""
import struct

import numpy as np
import pytest

from parallelobox.cli import main
from parallelobox.errors import EmptyMesh, ParseError
from parallelobox import fixtures
from parallelobox.fixtures import box_mesh, icosphere, unit_cube
from parallelobox.mesh import (TriangleMesh, aabb_of, clean_mesh, cross,
                               drop_degenerate_triangles, load_mesh, measure,
                               save_stl, triangle_areas, triangle_normals,
                               validate_watertight, weld_vertices)


@pytest.mark.parametrize("shape_a, shape_b", [
    ((3,), (3,)), ((50, 3), (50, 3)), ((50, 3), (3,)), ((3,), (7, 3)),
    ((4, 1, 3), (1, 6, 3)), ((2, 5, 9, 3), (5, 9, 3))])
def test_cross_matches_numpy(shape_a, shape_b):
    """The written-out cross product equals np.cross bit for bit, with the
    same broadcast shape, on random, huge, tiny and mixed-sign values."""
    rng = np.random.default_rng(sum(shape_a) + 7 * sum(shape_b))
    for scale in (1.0, 1e-150, 1e150):
        a = rng.normal(size=shape_a) * scale
        b = rng.normal(size=shape_b) * rng.choice([1e-8, 1.0, 1e8], size=shape_b)
        got, want = cross(a, b), np.cross(a, b)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def test_measure_box_analytic():
    mm = measure(box_mesh(size=(2.0, 3.0, 5.0)))
    assert mm.volume == pytest.approx(30.0, rel=1e-12)
    assert mm.surface_area == pytest.approx(62.0, rel=1e-12)


def test_measure_translation_invariant():
    rng = np.random.default_rng(7)
    base = icosphere(radius=5.0, subdivisions=2)
    v0 = measure(base).volume
    for _ in range(5):
        moved = base.transformed(np.eye(3), rng.uniform(-100.0, 100.0, size=3))
        assert measure(moved).volume == pytest.approx(v0, rel=1e-9)


def test_triangle_normals_unit_length():
    mesh = icosphere(radius=3.0, subdivisions=1)
    n = triangle_normals(mesh)
    assert np.allclose(np.linalg.norm(n, axis=1), 1.0, atol=1e-12)
    # Outward: every normal should point away from the center.
    centers = mesh.vertices[mesh.triangles].mean(axis=1)
    assert np.all((n * centers).sum(axis=1) > 0)


def test_aabb_of_box():
    box = aabb_of(box_mesh(size=(1.0, 2.0, 3.0), origin=(5.0, 6.0, 7.0)))
    assert np.allclose(box.min, [5.0, 6.0, 7.0])
    assert np.allclose(box.max, [6.0, 8.0, 10.0])


def test_weld_merges_duplicate_vertices():
    cube = unit_cube()
    # Explode into a triangle soup: 3 unique vertices per triangle.
    soup_verts = cube.vertices[cube.triangles].reshape(-1, 3)
    soup_tris = np.arange(len(soup_verts), dtype=np.int32).reshape(-1, 3)
    soup = TriangleMesh(soup_verts, soup_tris)
    assert not validate_watertight(soup).is_watertight
    welded = weld_vertices(soup)
    assert len(welded.vertices) == 8
    assert validate_watertight(welded).is_watertight
    assert measure(welded).volume == pytest.approx(1.0, rel=1e-12)


def _weld_by_unique(mesh, tolerance=1e-6):
    """weld_vertices by a row-wise np.unique of the quantized keys."""
    keys = np.round(mesh.vertices / tolerance).astype(np.int64)
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    return (mesh.vertices[first],
            inverse.reshape(-1)[mesh.triangles.astype(np.int64)].astype(np.int32))


def _soup(mesh):
    verts = mesh.vertices[mesh.triangles].reshape(-1, 3)
    return TriangleMesh(verts, np.arange(len(verts)).reshape(-1, 3), mesh.name)


@pytest.mark.parametrize("name", ["unit_cube", "icosphere", "dumbbell", "l_bracket",
                                  "hollow_box", "asymmetric_blob", "thin_plate",
                                  "wedge"])
def test_weld_matches_row_unique_on_fixture_soups(name):
    """The weld equals the np.unique(axis=0) weld bit for bit on each
    fixture's triangle soup, and gives back the fixture's vertex count."""
    mesh = getattr(fixtures, name)()
    soup = _soup(mesh)
    welded = weld_vertices(soup)
    verts, tris = _weld_by_unique(soup)
    assert welded.vertices.tobytes() == verts.tobytes()
    assert welded.triangles.tobytes() == tris.tobytes()
    assert len(welded.vertices) == len(np.unique(mesh.vertices, axis=0))


def test_weld_matches_row_unique_across_the_quantum():
    """Random points within and across the 1e-6 weld quantum, with
    negative, zero and -0.0 coordinates, weld as np.unique(axis=0) does."""
    rng = np.random.default_rng(61)
    centres = rng.integers(-3, 4, size=(40, 3)) * 1e-6
    centres[:5] = -0.0
    points = (np.repeat(centres, 12, axis=0)
              + rng.choice([0.0, 2e-7, -2e-7, 4.9e-7, -5.1e-7, 1e-6],
                           size=(480, 3)))
    points[rng.random(points.shape) < 0.05] = -0.0
    points = points[rng.permutation(len(points))]
    mesh = TriangleMesh(points, rng.integers(0, len(points), size=(300, 3)))
    welded = weld_vertices(mesh)
    verts, tris = _weld_by_unique(mesh)
    assert len(verts) < len(points)
    assert welded.vertices.tobytes() == verts.tobytes()
    assert welded.triangles.tobytes() == tris.tobytes()


def test_drop_degenerate_triangles():
    cube = unit_cube()
    v = np.vstack([cube.vertices, cube.vertices[0]])
    sliver = np.array([[0, 0, len(v) - 1]], dtype=np.int32)
    dirty = TriangleMesh(v, np.vstack([cube.triangles, sliver]))
    cleaned = drop_degenerate_triangles(dirty)
    assert len(cleaned.triangles) == len(cube.triangles)


def test_validate_watertight_flags_holes():
    cube = unit_cube()
    holed = TriangleMesh(cube.vertices, cube.triangles[:-1])
    report = validate_watertight(holed)
    assert not report.is_watertight
    assert report.open_edge_count == 3


def test_stl_binary_round_trip(tmp_path):
    mesh = icosphere(radius=4.0, subdivisions=2)
    path = tmp_path / "ball.stl"
    save_stl(mesh, path)
    loaded = load_mesh(path)
    assert len(loaded.triangles) == len(mesh.triangles)
    # binary STL stores float32, so the round trip is only single-precision
    assert measure(loaded).volume == pytest.approx(measure(mesh).volume, rel=1e-6)
    assert validate_watertight(loaded).is_watertight


def test_stl_ascii_parse(tmp_path):
    # One unit-right-triangle tetrahedron written by hand.
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    faces = [(0, 2, 1), (0, 1, 3), (1, 2, 3), (0, 3, 2)]
    lines = ["solid tetra"]
    for a, b, c in faces:
        lines.append(" facet normal 0 0 0")
        lines.append("  outer loop")
        for i in (a, b, c):
            lines.append("   vertex {} {} {}".format(*verts[i]))
        lines.append("  endloop")
        lines.append(" endfacet")
    lines.append("endsolid tetra")
    path = tmp_path / "tetra.stl"
    path.write_text("\n".join(lines))
    mesh = load_mesh(path)
    assert len(mesh.triangles) == 4
    assert measure(mesh).volume == pytest.approx(1.0 / 6.0, rel=1e-9)


def test_obj_parse(tmp_path):
    cube = unit_cube()
    lines = [f"v {x} {y} {z}" for x, y, z in cube.vertices]
    lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in cube.triangles]
    path = tmp_path / "cube.obj"
    path.write_text("\n".join(lines) + "\n")
    mesh = load_mesh(path)
    assert measure(mesh).volume == pytest.approx(1.0, rel=1e-12)
    # Faces may name vertices listed after them.
    path.write_text("\n".join(lines[len(cube.vertices):]
                              + lines[:len(cube.vertices)]) + "\n")
    assert measure(load_mesh(path)).volume == pytest.approx(1.0, rel=1e-12)


def test_load_mesh_errors(tmp_path):
    missing = tmp_path / "nope.stl"
    with pytest.raises(ParseError):
        load_mesh(missing)

    bad_vertex = tmp_path / "bad.stl"
    bad_vertex.write_bytes(b"solid x\nfacet normal 0 0 0\nvertex 1 2\nendsolid")
    with pytest.raises(ParseError):
        load_mesh(bad_vertex)

    non_numeric = tmp_path / "nan.stl"
    non_numeric.write_bytes(b"solid x\nfacet\nvertex a b c\nendsolid")
    with pytest.raises(ParseError):
        load_mesh(non_numeric)

    unknown = tmp_path / "mesh.xyz"
    unknown.write_bytes(b"whatever")
    with pytest.raises(ParseError):
        load_mesh(unknown)

    # facet lines without any vertices parse to nothing and die in cleanup
    hollow = tmp_path / "hollow.stl"
    hollow.write_bytes(b"solid x\nfacet broken")
    with pytest.raises(EmptyMesh):
        load_mesh(hollow)

    # a binary STL with zero triangles also survives parsing but not cleanup
    empty = tmp_path / "empty.stl"
    empty.write_bytes(b"\x00" * 80 + struct.pack("<I", 0))
    with pytest.raises(EmptyMesh):
        load_mesh(empty)

    # Binary STLs shorter than their preamble or than the triangles their
    # header promises, an ASCII STL with a triangle of two vertices, and OBJ
    # files with a short or non-numeric vertex, a non-integer face index
    # and a face of two vertices.
    for name, body, message in [
            ("short.stl", b"\x00" * 83, "shorter than its 84-byte preamble"),
            ("cut.stl", b"\x00" * 80 + struct.pack("<I", 2) + b"\x00" * 50,
             "promises 2 triangles"),
            ("two.stl", b"solid x\nfacet\nvertex 0 0 0\nvertex 1 0 0\n"
             b"endsolid", "not a multiple of three"),
            ("v.obj", b"v 0 0\n", r"v\.obj:1: short vertex line"),
            ("v.obj", b"v 0 0 a\n", r"v\.obj:1: non-numeric vertex"),
            ("f.obj", b"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 x\n",
             r"f\.obj:4: bad face index 'x'"),
            ("f.obj", b"v 0 0 0\nv 1 0 0\nf 1 2\n",
             r"f\.obj:3: face with fewer than 3 vertices")]:
        (tmp_path / name).write_bytes(body)
        with pytest.raises(ParseError, match=message):
            load_mesh(tmp_path / name)

    # OBJ face indices naming no vertex: past the count, 0, and a negative
    # index reaching before the first vertex; the error gives the line.
    for face in ("f 1 2 5", "f 0 1 2", "f -9 1 2"):
        bad = tmp_path / "bad.obj"
        bad.write_text(f"v 0 0 0\nv 1 0 0\nv 0 1 0\n{face}\n")
        with pytest.raises(ParseError, match=r"bad\.obj:4: face index"):
            load_mesh(bad)
        assert main(["decompose", str(bad), "--printers", "2",
                     "--granularity", "coarse", "--sample-tries", "1",
                     "--out", str(tmp_path / "out")]) == 2


def test_clean_mesh_random_soups():
    rng = np.random.default_rng(2024)
    for trial in range(10):
        size = rng.uniform(0.5, 5.0, size=3)
        cube = box_mesh(size=size)
        soup_verts = cube.vertices[cube.triangles].reshape(-1, 3)
        # Perturb duplicates by far less than the weld tolerance.
        soup_verts = soup_verts + rng.uniform(-1e-9, 1e-9, soup_verts.shape)
        soup = TriangleMesh(soup_verts,
                            np.arange(len(soup_verts), dtype=np.int32).reshape(-1, 3))
        cleaned = clean_mesh(soup)
        assert validate_watertight(cleaned).is_watertight
        assert measure(cleaned).volume == pytest.approx(float(np.prod(size)), rel=1e-6)


def test_triangle_areas_sum_matches_measure():
    mesh = icosphere(radius=2.0, subdivisions=2)
    assert float(triangle_areas(mesh).sum()) == pytest.approx(
        measure(mesh).surface_area, rel=1e-12)
