"""Sanity checks for the built-in test models."""
import numpy as np
import pytest

from parallelobox.fixtures import (asymmetric_blob, box_mesh, dumbbell,
                                   hollow_box, icosphere, l_bracket,
                                   random_solid, thin_plate, unit_cube,
                                   voxel_mesh, wedge)
from parallelobox.mesh import (TriangleMesh, clean_mesh, measure,
                               validate_watertight)

ALL_FIXTURES = [unit_cube, icosphere, dumbbell, l_bracket, hollow_box,
                asymmetric_blob, thin_plate, wedge]


@pytest.mark.parametrize("make", ALL_FIXTURES)
def test_fixtures_are_watertight(make):
    report = validate_watertight(make())
    assert report.is_watertight, f"{make.__name__}: {report.open_edge_count} open edges"


@pytest.mark.parametrize("make,volume,area", [
    (unit_cube, 1.0, 6.0),
    (dumbbell, 16320.0, 5088.0),       # 255 voxels at 4 mm
    (l_bracket, 9792.0, 3552.0),
    (hollow_box, 38656.0, 10176.0),    # 9^3 - 5^3 voxels at 4 mm
    (asymmetric_blob, 5440.0, 2432.0),
    (thin_plate, 200.0, 840.0),
])
def test_fixture_measures(make, volume, area):
    mm = measure(make())
    assert mm.volume == pytest.approx(volume, rel=1e-12)
    assert mm.surface_area == pytest.approx(area, rel=1e-12)


def test_icosphere_close_to_analytic_sphere():
    mm = measure(icosphere(radius=10.0, subdivisions=3))
    assert mm.volume == pytest.approx(4.0 / 3.0 * np.pi * 1000.0, rel=0.02)
    assert mm.surface_area == pytest.approx(4.0 * np.pi * 100.0, rel=0.02)


def test_wedge_has_slanted_face():
    mm = measure(wedge())
    # Half a 10x10x10 box plus the sqrt(2) hypotenuse wall.
    assert mm.volume == pytest.approx(500.0, rel=1e-12)
    assert mm.surface_area == pytest.approx(300.0 + 100.0 * np.sqrt(2.0), rel=1e-12)


def test_box_mesh_parametrized():
    rng = np.random.default_rng(42)
    for _ in range(20):
        size = rng.uniform(0.5, 30.0, size=3)
        origin = rng.uniform(-10.0, 10.0, size=3)
        mm = measure(box_mesh(size=size, origin=origin))
        want_v = float(np.prod(size))
        want_a = 2.0 * float(size[0] * size[1] + size[1] * size[2] + size[0] * size[2])
        assert mm.volume == pytest.approx(want_v, rel=1e-12)
        assert mm.surface_area == pytest.approx(want_a, rel=1e-12)


def test_random_solids_are_closed_polycubes():
    """Seeded: the same seed gives the same solid, and every solid is
    closed, in a cube of 6, 8 or 12 voxels of 10 mm, whole voxels only."""
    assert random_solid(3).vertices.tobytes() == random_solid(3).vertices.tobytes()
    for seed in range(40):
        mesh = random_solid(seed)
        assert validate_watertight(mesh).is_watertight, seed
        assert mesh.vertices.min() >= 0.0 and mesh.vertices.max() <= 120.0, seed
        assert np.all(mesh.vertices % 10.0 == 0.0), seed
        volume = measure(mesh).volume
        assert volume > 0.0 and volume % 1000.0 == pytest.approx(0.0, abs=1e-6), seed


def _reference_voxel_mesh(occ, voxel_size, origin):
    """One quad per solid/empty face pair, face by face, its corners
    numbered as met and then welded by clean_mesh."""
    padded = np.pad(occ, 1, constant_values=False)
    ids, verts, tris = {}, [], []

    def vid(p):
        if p not in ids:
            ids[p] = len(verts)
            verts.append(p)
        return ids[p]

    for axis in range(3):
        shifted = np.roll(padded, -1, axis=axis)
        du, dw = np.zeros(3, dtype=int), np.zeros(3, dtype=int)
        du[(axis + 1) % 3] = dw[(axis + 2) % 3] = 1
        for mask, outward in ((padded & ~shifted, 1), (~padded & shifted, -1)):
            for cell in np.argwhere(mask) - 1:
                base = cell.copy()
                base[axis] += 1
                c00, c10 = vid(tuple(base)), vid(tuple(base + du))
                c11, c01 = vid(tuple(base + du + dw)), vid(tuple(base + dw))
                if outward > 0:
                    tris += [(c00, c10, c11), (c00, c11, c01)]
                else:
                    tris += [(c00, c11, c10), (c00, c01, c11)]
    positions = (np.asarray(verts, dtype=np.float64) * voxel_size
                 + np.asarray(origin, dtype=np.float64))
    return clean_mesh(TriangleMesh(positions, np.asarray(tris, dtype=np.int32)))


def test_voxel_mesh_matches_the_welded_face_loop():
    """voxel_mesh numbers its corners once in the order of the weld, so it
    gives the bytes of the face-by-face loop welded at 1e-6 mm."""
    rng = np.random.default_rng(11)
    for case in range(30):
        occ = rng.random(rng.integers(1, 7, size=3)) < 0.6
        size = float(rng.choice([0.5, 4.0, 10.0]))
        origin = rng.uniform(-20.0, 20.0, size=3)
        got = voxel_mesh(occ, size, origin)
        want = _reference_voxel_mesh(occ, size, origin)
        assert got.vertices.tobytes() == want.vertices.tobytes(), case
        assert got.triangles.tobytes() == want.triangles.tobytes(), case
