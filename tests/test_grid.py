import struct
import tracemalloc

import numpy as np
import pytest

from contactshape import (
    FieldVector,
    Grid,
    InvalidArgumentError,
    InvalidReadingError,
    build_regular_grid,
    grid_from_taxel_layout,
    load_grid,
    load_readings,
    read_field,
    save_grid,
    write_field,
)
from contactshape import grid as grid_mod
from contactshape.grid import read_records

HEADER = "index,center_x_m,center_y_m,half_extent_a_m,half_extent_b_m\n"


def test_cell_rejects_nonpositive_extents():
    with pytest.raises(InvalidArgumentError):
        Grid(np.array([[0.0, 0.0, 0.0, 1e-3]]))
    with pytest.raises(InvalidArgumentError):
        Grid(np.array([[0.0, 0.0, 1e-3, 1e-3], [0.0, 0.0, 1e-3, -1e-3]]))


def test_cell_area():
    assert Grid(np.array([[0.0, 0.0, 1e-3, 2e-3]])).areas()[0] == pytest.approx(8e-6)


@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_grid_rejects_non_finite_cells(k, bad):
    row = [0.0, 0.0, 1e-3, 1e-3]
    row[k] = bad
    with pytest.raises(InvalidArgumentError):
        Grid(np.array([[1e-3, 1e-3, 1e-3, 1e-3], row]))


@pytest.mark.parametrize("shape", [(0, 4), (4,), (3, 3), (2, 4, 1)])
def test_grid_rejects_malformed_arrays(shape):
    with pytest.raises(InvalidArgumentError):
        Grid(np.ones(shape))


def test_grid_cells_are_a_read_only_copy():
    """A cache key hashes the cell bytes, so they must not change under it."""
    src = np.array([[0.0, 0.0, 1e-3, 1e-3], [2e-3, 0.0, 1e-3, 1e-3]])
    g = Grid(src)
    src[0, 0] = 5.0
    assert g.cells[0, 0] == 0.0 and g.cells.dtype == np.float64
    with pytest.raises(ValueError):
        g.cells[0, 0] = 1.0
    with pytest.raises(ValueError):
        g.centers()[0, 1] = 1.0
    with pytest.raises(ValueError):
        g.retag("displacement").cells[1, 2] = 1.0
    np.testing.assert_array_equal(g.cells, [[0.0, 0.0, 1e-3, 1e-3], [2e-3, 0.0, 1e-3, 1e-3]])


@pytest.mark.parametrize(
    "record", ["0,nan,0.0,1e-3,1e-3", "0,0.0,inf,1e-3,1e-3", "0,0.0,0.0,inf,1e-3",
               "0,0.0,0.0,1e-3,-Infinity", "0,0.0,0.0,1e-3,NaN"],
)
def test_load_grid_rejects_non_finite_geometry(tmp_path, record):
    p = tmp_path / "g.csv"
    p.write_text(HEADER + record + "\n")
    with pytest.raises(InvalidArgumentError, match="grid file"):
        load_grid(p)


def test_regular_grid_row_major_centers():
    g = build_regular_grid((0.0, 0.0), 3, 2, 2e-3, 1e-3)
    assert len(g) == 6
    # x varies fastest
    c = g.centers()
    np.testing.assert_allclose(c[0], [1e-3, 0.5e-3])
    np.testing.assert_allclose(c[1], [3e-3, 0.5e-3])
    np.testing.assert_allclose(c[3], [1e-3, 1.5e-3])
    assert g.cells[0, 2] == 1e-3 and g.cells[0, 3] == 0.5e-3


def test_regular_grid_validation():
    with pytest.raises(InvalidArgumentError):
        build_regular_grid((0, 0), 0, 2, 1e-3, 1e-3)
    with pytest.raises(InvalidArgumentError):
        build_regular_grid((0, 0), 2, 2, 0.0, 1e-3)
    with pytest.raises(InvalidArgumentError):
        Grid((), "traction")
    with pytest.raises(InvalidArgumentError):
        build_regular_grid((0, 0), 2, 2, 1e-3, 1e-3, kind="bogus")


def test_taxel_layout_duplicate_centers_rejected():
    pts = [(0.0, 0.0), (5e-3, 0.0), (5e-3 + 0.5e-9, 0.0)]
    with pytest.raises(InvalidArgumentError):
        grid_from_taxel_layout(pts, 1e-6)


def _jittered_layout(side, seed=0):
    """side * side taxel centers, 4 mm apart, each moved up to 1 mm."""
    rng = np.random.default_rng(seed)
    pts = np.array([(i * 4e-3, j * 4e-3) for j in range(side) for i in range(side)])
    return pts + rng.uniform(-1e-3, 1e-3, pts.shape)


def test_taxel_layout_larger_than_one_block_is_accepted():
    pts = _jittered_layout(30)
    assert len(pts) > grid_mod.DUPLICATE_CHECK_PAIRS // len(pts)  # rows per block
    g = grid_from_taxel_layout(pts, 1e-6)
    np.testing.assert_array_equal(g.centers(), pts)


@pytest.mark.parametrize("where", ["last block", "first and last block", "block boundary"])
def test_taxel_layout_duplicate_is_named_in_any_block(where):
    pts = _jittered_layout(30)
    n = len(pts)
    rows = grid_mod.DUPLICATE_CHECK_PAIRS // n
    k, l = {"last block": (n - 2, n - 1), "first and last block": (0, n - 1),
            "block boundary": (rows - 1, rows)}[where]
    pts[l] = pts[k] + (0.0, 0.5e-9)
    with pytest.raises(InvalidArgumentError, match=r"^taxel centers %d and %d coincide" % (k, l)):
        grid_from_taxel_layout(pts, 1e-6)


def test_taxel_layout_check_memory_does_not_grow_with_the_square():
    """3,000 taxels once took an (n, n, 2) array, about 200 MiB."""
    pts = _jittered_layout(55)[:3000]
    tracemalloc.start()
    try:
        grid_from_taxel_layout(pts, 1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_taxel_layout_module(module_grid):
    assert len(module_grid) == 12
    assert module_grid.kind == "displacement"
    areas = module_grid.areas()
    np.testing.assert_allclose(areas, 1.6e-5)


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
            for v, v2 in zip(c, c2):
                assert struct.pack("<d", v) == struct.pack("<d", v2)


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


def _field_grid(name, module_grid):
    lattice = build_regular_grid((0, 0), 4, 3, 2e-3, 2e-3)
    if name == "row-major":
        return lattice
    if name == "column-major":
        return Grid(lattice.cells.reshape(3, 4, 4).transpose(1, 0, 2).reshape(12, 4))
    if name == "staggered-module":
        return module_grid
    jitter = np.random.default_rng(5).uniform(-0.2e-3, 0.2e-3, (len(lattice), 2))
    return Grid(lattice.cells + np.column_stack((jitter, np.zeros((len(lattice), 2)))))


# changes of y between consecutive records of each grid above
FIELD_GRID_GAPS = {"row-major": 2, "column-major": 11, "staggered-module": 2, "jittered": 11}


@pytest.mark.parametrize("name", FIELD_GRID_GAPS)
def test_field_file_roundtrip(tmp_path, module_grid, name):
    """Values come back bitwise, and a blank line marks each change of y."""
    g, gaps = _field_grid(name, module_grid), FIELD_GRID_GAPS[name]
    rng = np.random.default_rng(3)
    fv = FieldVector(rng.normal(size=len(g)), g)
    path = tmp_path / "f.dat"
    write_field(fv, path)
    back = read_field(path, g)
    np.testing.assert_array_equal(back.values, fv.values)
    y = g.cells[:, 1]
    assert int(np.count_nonzero(y[1:] != y[:-1])) == gaps
    assert path.read_text().count("\n\n") == gaps


def test_field_file_text_of_a_lattice_is_pinned(tmp_path):
    g = build_regular_grid((0, 0), 2, 3, 0.5, 0.5)
    path = tmp_path / "f.dat"
    write_field(FieldVector(np.arange(6.0) - 2.5, g), path)
    assert path.read_text() == (
        "0.25 0.25 -2.5\n0.75 0.25 -1.5\n\n"
        "0.25 0.75 -0.5\n0.75 0.75 0.5\n\n"
        "0.25 1.25 1.5\n0.75 1.25 2.5\n"
    )


def test_field_file_count_mismatch(tmp_path):
    g = build_regular_grid((0, 0), 2, 2, 1e-3, 1e-3)
    path = tmp_path / "f.dat"
    write_field(FieldVector(np.zeros(4), g), path)
    bigger = build_regular_grid((0, 0), 3, 2, 1e-3, 1e-3)
    with pytest.raises(InvalidArgumentError):
        read_field(path, bigger)


def test_read_records_splits_the_records_after_the_header(tmp_path):
    p = tmp_path / "f.txt"
    p.write_text("\n h \n 1;2 \n\n3; 4\n")
    assert read_records(p, "test", "h", ";", (2,), lambda f: [int(v) for v in f]) == [[1, 2], [3, 4]]
    assert read_records(p, "test", None, None, (1, 2), list) == [["h"], ["1;2"], ["3;", "4"]]


def test_read_records_error_policy(tmp_path):
    p = tmp_path / "f.txt"
    p.write_text("h\n1;2\n")
    with pytest.raises(InvalidArgumentError, match=r"^test file .*f\.txt: missing header 'x'$"):
        read_records(p, "test", "x", ";", (2,), list)
    with pytest.raises(InvalidArgumentError, match=r"^test file .*: bad record '1;2'$"):
        read_records(p, "test", "h", ";", (3,), list)
    with pytest.raises(InvalidArgumentError, match=r"^test file .*: bad record '1;2'$"):
        read_records(p, "test", "h", ";", (2,), lambda f: float(f[0] + "x"))

    def refuse(fields):
        raise InvalidReadingError("refused")

    with pytest.raises(InvalidReadingError, match=r"^test file .*f\.txt: record '1;2': refused$"):
        read_records(p, "test", "h", ";", (2,), refuse)
    p.write_bytes(b"\xff\xfeh\x00\n\x00")
    with pytest.raises(InvalidArgumentError, match=r"^test file .*f\.txt: not text"):
        read_records(p, "test", "h", ";", (2,), list)
    with pytest.raises(FileNotFoundError):
        read_records(tmp_path / "absent.txt", "test", "h", ";", (2,), list)


def test_readers_refuse_a_file_that_is_not_text(tmp_path):
    p = tmp_path / "utf16.txt"
    p.write_bytes(b"\xff\xfe" + HEADER.encode("utf-16-le"))
    g = build_regular_grid((0, 0), 2, 2, 1e-3, 1e-3)
    for read, what in ((load_grid, "grid"), (lambda q: read_field(q, g), "field"),
                       (load_readings, "readings")):
        with pytest.raises(InvalidArgumentError, match="^%s file .*: not text" % what):
            read(p)


def test_read_field_refuses_a_value_that_is_not_a_number(tmp_path):
    p = tmp_path / "f.dat"
    p.write_text("0 0 1.0\n0 0 abc\n")
    with pytest.raises(InvalidArgumentError, match=r"^field file .*: bad record '0 0 abc'$"):
        read_field(p, build_regular_grid((0, 0), 2, 1, 1e-3, 1e-3))


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
def test_read_field_refuses_a_value_that_is_not_finite(tmp_path, value):
    p = tmp_path / "f.dat"
    p.write_text("0 0 1.0\n0 0 %s\n" % value)
    with pytest.raises(InvalidArgumentError, match=r"^field file .*f\.dat: bad record '0 0 %s'$" % value):
        read_field(p, build_regular_grid((0, 0), 2, 1, 1e-3, 1e-3))
