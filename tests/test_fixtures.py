"""Sanity checks for the built-in test models."""
import numpy as np
import pytest

from parallelobox.fixtures import (asymmetric_blob, box_mesh, dumbbell,
                                   hollow_box, icosphere, l_bracket,
                                   random_solid, thin_plate, unit_cube, wedge)
from parallelobox.mesh import measure, validate_watertight

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
