import struct

import numpy as np
import pytest

from contactshape import (
    Cell,
    FieldVector,
    Grid,
    InvalidArgumentError,
    build_regular_grid,
    grid_from_taxel_layout,
    load_grid,
    node_delta,
    read_field,
    save_grid,
    write_field,
)


def test_cell_rejects_nonpositive_extents():
    with pytest.raises(InvalidArgumentError):
        Cell(0.0, 0.0, 0.0, 1e-3)
    with pytest.raises(InvalidArgumentError):
        Cell(0.0, 0.0, 1e-3, -1e-3)


def test_cell_area():
    assert Cell(0.0, 0.0, 1e-3, 2e-3).area == pytest.approx(8e-6)


def test_regular_grid_row_major_centers():
    g = build_regular_grid((0.0, 0.0), 3, 2, 2e-3, 1e-3)
    assert len(g) == 6
    assert g.regular and g.spacing == (2e-3, 1e-3)
    # x varies fastest
    c = g.centers()
    np.testing.assert_allclose(c[0], [1e-3, 0.5e-3])
    np.testing.assert_allclose(c[1], [3e-3, 0.5e-3])
    np.testing.assert_allclose(c[3], [1e-3, 1.5e-3])
    assert g.cells[0].a == 1e-3 and g.cells[0].b == 0.5e-3


def test_regular_grid_validation():
    with pytest.raises(InvalidArgumentError):
        build_regular_grid((0, 0), 0, 2, 1e-3, 1e-3)
    with pytest.raises(InvalidArgumentError):
        build_regular_grid((0, 0), 2, 2, 0.0, 1e-3)
    with pytest.raises(InvalidArgumentError):
        Grid((), "traction")
    with pytest.raises(InvalidArgumentError):
        build_regular_grid((0, 0), 2, 2, 1e-3, 1e-3, kind="bogus")


def test_node_delta():
    gt = build_regular_grid((0.0, 0.0), 2, 2, 2e-3, 2e-3)
    gd = build_regular_grid((1e-3, 0.0), 2, 2, 2e-3, 2e-3, "displacement")
    dx, dy = node_delta(gd, 0, gt, 3)
    assert dx == pytest.approx(2e-3 - 3e-3)
    assert dy == pytest.approx(1e-3 - 3e-3)


def test_taxel_layout_duplicate_centers_rejected():
    pts = [(0.0, 0.0), (5e-3, 0.0), (5e-3 + 0.5e-9, 0.0)]
    with pytest.raises(InvalidArgumentError):
        grid_from_taxel_layout(pts, 1e-6)


def test_taxel_layout_module(module_grid):
    assert len(module_grid) == 12
    assert module_grid.kind == "displacement"
    # staggered rows do not form a product lattice
    assert not module_grid.regular
    areas = module_grid.areas()
    np.testing.assert_allclose(areas, 1.6e-5)


def test_taxel_layout_detects_lattice():
    pts = [(i * 2e-3, j * 3e-3) for j in range(3) for i in range(4)]
    g = grid_from_taxel_layout(pts, 4e-6)
    assert g.regular
    assert g.spacing == pytest.approx((2e-3, 3e-3))


def test_grid_roundtrip_bit_exact(tmp_path, module_grid):
    """Serialization must preserve every float bit."""
    grids = [
        build_regular_grid((0.1e-3, -0.2e-3), 7, 5, 1.7e-3, 0.9e-3),
        module_grid.retag("traction"),
    ]
    for g in grids:
        path = tmp_path / "g.csv"
        save_grid(g, path)
        g2 = load_grid(path)
        assert len(g2) == len(g)
        for c, c2 in zip(g.cells, g2.cells):
            for v, v2 in zip((c.x, c.y, c.a, c.b), (c2.x, c2.y, c2.a, c2.b)):
                assert struct.pack("<d", v) == struct.pack("<d", v2)
        assert g2.regular == g.regular


def test_grid_file_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("nonsense\n")
    with pytest.raises(InvalidArgumentError):
        load_grid(p)
    p.write_text("index,center_x_m,center_y_m,half_extent_a_m,half_extent_b_m\n0,0.0,0.0\n")
    with pytest.raises(InvalidArgumentError):
        load_grid(p)
    p.write_text("index,center_x_m,center_y_m,half_extent_a_m,half_extent_b_m\n1,0.0,0.0,1e-3,1e-3\n")
    with pytest.raises(InvalidArgumentError):
        load_grid(p)


def test_field_vector_length_check():
    g = build_regular_grid((0, 0), 2, 2, 1e-3, 1e-3)
    FieldVector(np.zeros(4), g)
    for bad in (np.zeros(5), np.zeros(12), np.zeros((4, 1)), np.float64(0.0)):
        with pytest.raises(InvalidArgumentError):
            FieldVector(bad, g)


def test_field_file_roundtrip(tmp_path):
    g = build_regular_grid((0, 0), 4, 3, 2e-3, 2e-3)
    rng = np.random.default_rng(3)
    fv = FieldVector(rng.normal(size=len(g)), g)
    path = tmp_path / "f.dat"
    write_field(fv, path)
    back = read_field(path, g)
    np.testing.assert_array_equal(back.values, fv.values)
    # blank-line separated rows for a regular grid: one gap per row change
    text = path.read_text()
    assert text.count("\n\n") == 2


def test_field_file_count_mismatch(tmp_path):
    g = build_regular_grid((0, 0), 2, 2, 1e-3, 1e-3)
    path = tmp_path / "f.dat"
    write_field(FieldVector(np.zeros(4), g), path)
    bigger = build_regular_grid((0, 0), 3, 2, 1e-3, 1e-3)
    with pytest.raises(InvalidArgumentError):
        read_field(path, bigger)
