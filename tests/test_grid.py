"""Grid construction, cell classification, and per-cell measures."""
import numpy as np
import pytest

from parallelobox import fixtures
from parallelobox.clip import points_in_mesh
from parallelobox.fixtures import box_mesh, icosphere, unit_cube
from parallelobox.grid import (AREA, BBOX_SCALE, BOUNDARY, EXACT_BITS,
                               GRANULARITY_CELLS, N_CHANNELS, OVERHANG,
                               SECTION, SOLID, VOLUME, CellClass, Grid,
                               build_grid, measure_cells)
from parallelobox.mesh import aabb_of, measure
from test_clip import _reference_points_in_mesh


def test_preset_cell_counts():
    assert GRANULARITY_CELLS == {"coarse": 8, "medium": 10, "fine": 12,
                                 "very_fine": 15}
    g = build_grid(unit_cube(), "very_fine")
    assert g.dims == (15, 15, 15)
    g = build_grid(box_mesh(size=(30.0, 10.0, 10.0)), "very_fine")
    assert g.dims == (15, 5, 5)
    g = build_grid(box_mesh(size=(30.0, 10.0, 10.0)), "coarse")
    assert g.dims == (8, 3, 3)


def test_unknown_granularity_rejected():
    with pytest.raises(ValueError):
        build_grid(unit_cube(), "ultra")


def test_grid_covers_scaled_bbox():
    mesh = icosphere(radius=7.0, subdivisions=1).transformed(np.eye(3), (3.0, -2.0, 9.0))
    g = build_grid(mesh, "medium")
    bb = aabb_of(mesh)
    hi = g.origin + np.array(g.dims) * g.cell_size
    assert np.all(g.origin <= bb.min + 1e-12)
    assert np.all(hi >= bb.max - 1e-12)
    # and not wildly larger than the 1.001-scaled box
    assert np.all(hi - g.origin <= bb.extent * BBOX_SCALE + g.cell_size + 1e-9)


def test_sphere_classification_counts():
    mesh = icosphere()  # radius 10, 1280 faces
    g = build_grid(mesh, "medium")
    measure_cells(g, mesh)
    counts = [int((g.classification == c).sum()) for c in
              (CellClass.EXTERNAL, CellClass.BOUNDARY, CellClass.INTERNAL)]
    assert counts == [280, 416, 304]


def test_cube_classification_counts():
    mesh = unit_cube()
    g = build_grid(mesh, "very_fine")
    measure_cells(g, mesh)
    counts = [int((g.classification == c).sum()) for c in
              (CellClass.EXTERNAL, CellClass.BOUNDARY, CellClass.INTERNAL)]
    # The grid hugs the cube, so no cell is fully outside; the inner
    # 13^3 block never touches the surface.
    assert counts == [0, 15 ** 3 - 13 ** 3, 13 ** 3]


def test_measures_conserve_volume_and_area():
    for mesh in (unit_cube(), icosphere(radius=6.0, subdivisions=2)):
        g = build_grid(mesh, "medium")
        meas = measure_cells(g, mesh)
        mm = measure(mesh)
        assert float(meas.volume.sum()) == pytest.approx(mm.volume, rel=1e-9)
        assert float(meas.area.sum()) == pytest.approx(mm.surface_area, rel=1e-9)
        assert meas.overhang.shape == (6,) + g.dims
        # each oriented overhang total is bounded by the total area
        for d in range(6):
            assert float(meas.overhang[d].sum()) <= mm.surface_area + 1e-9


def test_external_cells_carry_no_volume():
    mesh = icosphere(radius=6.0, subdivisions=2)
    g = build_grid(mesh, "medium")
    meas = measure_cells(g, mesh)
    ext = g.classification == CellClass.EXTERNAL
    assert float(np.abs(meas.volume[ext]).max(initial=0.0)) < 1e-12
    assert float(np.abs(meas.area[ext]).max(initial=0.0)) < 1e-12


def test_classification_against_containment_samples():
    mesh = icosphere(radius=6.0, subdivisions=2)
    g = build_grid(mesh, "coarse")
    measure_cells(g, mesh)
    rng = np.random.default_rng(14)
    nx, ny, nz = g.dims
    for _ in range(40):
        i, j, k = (int(rng.integers(0, n)) for n in (nx, ny, nz))
        c = CellClass(int(g.classification[i, j, k]))
        center = g.origin + (np.array([i, j, k]) + 0.5) * g.cell_size
        if c == CellClass.INTERNAL:
            assert points_in_mesh(mesh, [center])[0]
        elif c == CellClass.EXTERNAL:
            assert not points_in_mesh(mesh, [center])[0]



@pytest.mark.parametrize("name", ["unit_cube", "icosphere", "dumbbell",
                                  "l_bracket", "hollow_box", "asymmetric_blob"])
@pytest.mark.parametrize("granularity", ["coarse", "fine"])
def test_flux_labels_match_ray_parity(name, granularity):
    """Cells without surface are labelled from their flux volume; that
    agrees with a ray-parity test at every such cell center."""
    mesh = getattr(fixtures, name)()
    g = build_grid(mesh, granularity)
    measure_cells(g, mesh)
    free = g.classification != CellClass.BOUNDARY
    centers = g.origin + (np.argwhere(free) + 0.5) * g.cell_size
    want = np.where(_reference_points_in_mesh(mesh, centers), CellClass.INTERNAL,
                    CellClass.EXTERNAL)
    assert np.array_equal(g.classification[free], want)

def test_box_of_range_round_trip():
    g = Grid(origin=(1.0, 2.0, 3.0), cell_size=0.5, dims=(4, 4, 4))
    box = g.box_of_range((1, 0, 2), (2, 3, 3))
    assert np.allclose(box.min, [1.5, 2.0, 4.0])
    assert np.allclose(box.max, [2.5, 4.0, 5.0])
    single = g.box_of_range((0, 0, 0), (0, 0, 0))
    assert np.allclose(single.min, g.origin)
    assert np.allclose(single.extent, 0.5)


def _slice_channels(meas):
    """The table's channels as (N_CHANNELS, nx, ny, nz) per-cell arrays."""
    channels = np.zeros((N_CHANNELS,) + meas.volume.shape)
    channels[VOLUME] = meas.volume
    channels[AREA] = meas.area
    channels[OVERHANG] = meas.overhang
    channels[SECTION] = meas.section
    channels[SOLID] = meas.classification != CellClass.EXTERNAL
    channels[BOUNDARY] = meas.classification == CellClass.BOUNDARY
    return channels


@pytest.mark.parametrize("name", ["unit_cube", "icosphere", "dumbbell",
                                  "l_bracket", "hollow_box", "asymmetric_blob"])
@pytest.mark.parametrize("granularity", ["coarse", "fine"])
def test_table_sums_equal_slice_sums(name, granularity):
    """Every channel's table sum over a random box equals its slice sum bit
    for bit, and so does the capped area of CellMeasures.box; the boxes
    read stacked in one CellMeasures.boxes call equal those read alone."""
    mesh = getattr(fixtures, name)()
    g = build_grid(mesh, granularity)
    meas = measure_cells(g, mesh)
    channels = _slice_channels(meas)
    for values in (meas.volume, meas.area, meas.overhang, meas.section):
        # Multiples of a power of two q with sum(|values|) < 2**EXACT_BITS * q
        # before rounding; rounding may carry the sum one bit higher.
        total = float(np.abs(values).sum())
        q = 2.0 ** (np.frexp(total)[1] - EXACT_BITS - 1)
        assert total < 2.0 ** (EXACT_BITS + 1) * q
        assert np.array_equal(values / q, np.rint(values / q))
    rng = np.random.default_rng(len(name))
    dims = np.array(g.dims)
    ranges, alone = [], []
    for _ in range(60):
        a, b = rng.integers(0, dims), rng.integers(0, dims)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        ranges.append((lo, hi))
        volume, area = meas.boxes([lo], [hi])
        alone.append((float(volume[0]), float(area[0])))
        sl = (slice(None),) + tuple(slice(x, y + 1) for x, y in zip(lo, hi))
        want = channels[sl].reshape(N_CHANNELS, -1).sum(axis=1)
        got = meas.sums(lo, hi)
        # Adding 0.0 only turns a -0.0 into 0.0.
        assert (got + 0.0).tobytes() == (want + 0.0).tobytes(), (lo, hi)
        area = float(want[AREA])
        for axis in range(3):
            for layer in (hi[axis], lo[axis] - 1):
                if layer >= 0:
                    face = list(sl[1:])
                    face[axis] = layer
                    area += float(meas.section[axis][tuple(face)].sum())
        assert alone[-1] == (float(want[VOLUME]), area), (lo, hi)
    volumes, areas = meas.boxes(*np.array(ranges).transpose(1, 0, 2))
    assert list(zip(volumes.tolist(), areas.tolist())) == alone
    # Ranges reaching past the grid are clipped to it.
    assert meas.sums(-dims, 2 * dims).tolist() == meas.table[-1].tolist()
    assert not meas.sums(dims, 2 * dims).any()

