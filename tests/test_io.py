import struct

import numpy as np
import pytest

from vlinetomo import (FileFormatError, ScalarField, Sinogram, StarGeometry,
                       VectorField, VLineGeometry)
from vlinetomo.io import (read_star_geometry, read_vline_geometry, read_vls1,
                          read_vlt1, write_pgm, write_ppm_direction,
                          write_star_geometry, write_vline_geometry,
                          write_vls1, write_vlt1)


@pytest.fixture
def scalar(small_grid):
    rng = np.random.default_rng(3)
    return ScalarField(small_grid,
                       rng.standard_normal((small_grid.nx, small_grid.ny)))


def test_vlt1_scalar_round_trip(tmp_path, scalar):
    path = tmp_path / "f.vlt"
    write_vlt1(path, scalar)
    back = read_vlt1(path)
    assert isinstance(back, ScalarField)
    assert back.grid.nx == scalar.grid.nx and back.grid.ny == scalar.grid.ny
    assert back.grid.h == scalar.grid.h
    assert back.grid.origin == scalar.grid.origin
    assert back.grid.r1 == scalar.grid.r1 and back.grid.r2 == scalar.grid.r2
    assert np.array_equal(back.values, scalar.values)


def test_vlt1_vector_round_trip(tmp_path, small_grid):
    rng = np.random.default_rng(4)
    f = VectorField(small_grid, rng.standard_normal((64, 64)),
                    rng.standard_normal((64, 64)))
    path = tmp_path / "f.vlt"
    write_vlt1(path, f)
    back = read_vlt1(path)
    assert isinstance(back, VectorField)
    assert np.array_equal(back.f1, f.f1) and np.array_equal(back.f2, f.f2)


def test_vlt1_header_layout(tmp_path, scalar):
    path = tmp_path / "f.vlt"
    write_vlt1(path, scalar)
    data = path.read_bytes()
    assert data[:4] == b"VLT1"
    nx, ny = struct.unpack_from("<II", data, 4)
    h, ox, oy, r1, r2 = struct.unpack_from("<5d", data, 12)
    (ncomp,) = struct.unpack_from("<I", data, 52)
    g = scalar.grid
    assert (nx, ny, ncomp) == (g.nx, g.ny, 1)
    assert (h, ox, oy, r1, r2) == (g.h, g.origin[0], g.origin[1], g.r1, g.r2)
    assert len(data) == 56 + nx * ny * 8


def test_vlt1_write_is_byte_stable(tmp_path, scalar):
    a, b = tmp_path / "a.vlt", tmp_path / "b.vlt"
    write_vlt1(a, scalar)
    write_vlt1(b, scalar)
    assert a.read_bytes() == b.read_bytes()


def test_vlt1_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.vlt"
    path.write_bytes(b"NOPE" + b"\0" * 100)
    with pytest.raises(FileFormatError):
        read_vlt1(path)


def test_vlt1_rejects_truncation(tmp_path, scalar):
    path = tmp_path / "f.vlt"
    write_vlt1(path, scalar)
    data = path.read_bytes()
    for cut in (2, 30, len(data) - 8):
        path.write_bytes(data[:cut])
        with pytest.raises(FileFormatError):
            read_vlt1(path)
    path.write_bytes(data + b"\0" * 8)
    with pytest.raises(FileFormatError):
        read_vlt1(path)


def test_vlt1_rejects_bad_ncomp(tmp_path, scalar):
    path = tmp_path / "f.vlt"
    write_vlt1(path, scalar)
    data = bytearray(path.read_bytes())
    struct.pack_into("<I", data, 52, 3)
    path.write_bytes(bytes(data))
    with pytest.raises(FileFormatError):
        read_vlt1(path)


def test_vlt1_missing_file(tmp_path):
    with pytest.raises(FileFormatError):
        read_vlt1(tmp_path / "nope.vlt")


def test_vlt1_rejects_unserializable(tmp_path):
    with pytest.raises(FileFormatError):
        write_vlt1(tmp_path / "x.vlt", object())


def test_vls1_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    sg = Sinogram(rng.standard_normal((2, 12, 17)), 0.1, np.pi / 12, 0.25)
    path = tmp_path / "s.vls"
    write_vls1(path, sg)
    back = read_vls1(path)
    assert back.ncomp == 2 and back.n_angles == 12 and back.n_offsets == 17
    assert back.ds == sg.ds and back.angle0 == sg.angle0
    assert back.dangle == sg.dangle
    assert np.array_equal(back.values, sg.values)


def test_vls1_rejects_bad_magic_and_truncation(tmp_path):
    sg = Sinogram(np.zeros((1, 8, 9)), 0.0, np.pi / 8, 0.25)
    path = tmp_path / "s.vls"
    write_vls1(path, sg)
    data = path.read_bytes()
    path.write_bytes(b"XXXX" + data[4:])
    with pytest.raises(FileFormatError):
        read_vls1(path)
    path.write_bytes(data[:20])
    with pytest.raises(FileFormatError):
        read_vls1(path)


def test_vline_geometry_round_trip(tmp_path):
    geom = VLineGeometry(np.array([np.cos(0.3), np.sin(0.3)]),
                         np.array([np.cos(2.0), np.sin(2.0)]))
    path = tmp_path / "geom.txt"
    write_vline_geometry(path, geom)
    back = read_vline_geometry(path)
    assert np.array_equal(back.u, geom.u) and np.array_equal(back.v, geom.v)


def test_vline_geometry_bad_file(tmp_path):
    path = tmp_path / "geom.txt"
    path.write_text("u=1,0\n")  # missing v
    with pytest.raises(FileFormatError):
        read_vline_geometry(path)
    path.write_text("u=1,0\nv=not,numbers\n")
    with pytest.raises(FileFormatError):
        read_vline_geometry(path)
    path.write_text("u=nan,0\nv=0,1\n")
    with pytest.raises(FileFormatError, match="geom.txt"):
        read_vline_geometry(path)


def test_star_geometry_round_trip(tmp_path):
    sg = StarGeometry((np.array([1.0, 0.0]), np.array([0.0, 1.0])), (1.0, -2.0))
    path = tmp_path / "star.txt"
    write_star_geometry(path, sg)
    back = read_star_geometry(path)
    assert back.m == 2
    assert np.array_equal(back.gammas[0], sg.gammas[0])
    assert back.weights == sg.weights


def test_star_geometry_normalizes_with_warning(tmp_path):
    path = tmp_path / "star.txt"
    path.write_text("ray = 2.0,0.0,1.0\nray = 0.0,1.0,1.0\n")
    with pytest.warns(UserWarning):
        back = read_star_geometry(path)
    assert np.allclose(back.gammas[0], [1.0, 0.0])


def test_star_geometry_bad_lines(tmp_path):
    path = tmp_path / "star.txt"
    path.write_text("blob = 1,0,1\n")
    with pytest.raises(FileFormatError):
        read_star_geometry(path)
    path.write_text("ray = 0.0,0.0,1.0\nray = 0.0,1.0,1.0\n")
    with pytest.raises(FileFormatError):
        read_star_geometry(path)
    path.write_text("ray = 1.0,0.0,1.0\n")  # only one ray
    with pytest.raises(FileFormatError):
        read_star_geometry(path)
    for ray in ("nan,0.0,1.0", "1.0,0.0,nan"):
        path.write_text(f"ray = {ray}\nray = 0.0,1.0,1.0\n")
        with pytest.raises(FileFormatError, match="star.txt"):
            read_star_geometry(path)


def test_pgm_zero_is_mid_gray(tmp_path):
    path = tmp_path / "z.pgm"
    write_pgm(path, np.zeros((20, 30)))
    data = path.read_bytes()
    header, _, body = data.partition(b"255\n")
    assert header.startswith(b"P5\n20 30\n") or header.startswith(b"P5\n30 20\n")
    assert set(body) == {127}


def test_pgm_byte_stable(tmp_path, scalar):
    a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
    write_pgm(a, scalar.values)
    write_pgm(b, scalar.values)
    assert a.read_bytes() == b.read_bytes()


def test_ppm_direction_layout(tmp_path):
    f1 = np.ones((16, 24))
    f2 = np.zeros((16, 24))
    path = tmp_path / "d.ppm"
    write_ppm_direction(path, f1, f2)
    data = path.read_bytes()
    assert data.startswith(b"P6\n16 24\n255\n")
    body = data.split(b"255\n", 1)[1]
    assert len(body) == 16 * 24 * 3


@pytest.mark.parametrize("write,read,geom", [
    (write_vline_geometry, read_vline_geometry,
     VLineGeometry(np.array([np.cos(0.3), np.sin(0.3)]),
                   np.array([np.cos(2.0), np.sin(2.0)]))),
    (write_star_geometry, read_star_geometry,
     StarGeometry((np.array([1.0, 0.0]), np.array([0.0, 1.0])), (1.0, -2.0)))])
def test_geometry_files_skip_blank_and_comment_lines(tmp_path, write, read,
                                                     geom):
    plain, noisy = tmp_path / "plain.txt", tmp_path / "noisy.txt"
    write(plain, geom)
    lines = plain.read_text().splitlines()
    noisy.write_text("# geometry\n\n" + "\n  \n# next ray\n".join(lines)
                     + "\n\n")
    a, b = read(plain), read(noisy)
    assert all(np.array_equal(x, y) for x, y in zip(a.rays, b.rays))
    assert len(a.rays) == len(b.rays) == len(geom.rays)
    assert getattr(a, "weights", None) == getattr(b, "weights", None)


def test_vls1_rejects_non_finite_angle0(tmp_path):
    path = tmp_path / "s.vls"
    write_vls1(path, Sinogram(np.zeros((1, 8, 9)), 0.0, np.pi / 8, 0.25))
    data = bytearray(path.read_bytes())
    struct.pack_into("<d", data, 24, np.nan)  # magic, 3 x u32, ds, angle0
    path.write_bytes(bytes(data))
    with pytest.raises(FileFormatError, match="angle0"):
        read_vls1(path)


@pytest.mark.parametrize("ncomp", [1, 2])
def test_vlt1_read_holds_one_copy_of_the_samples(tmp_path, ncomp):
    # the samples are read straight into one array whose rows the field
    # adopts: the read peaks at their bytes plus the header, not at a copy
    import tracemalloc
    from vlinetomo import Grid2D
    grid = Grid2D.centered(256, 1.0, 1.5)
    rng = np.random.default_rng(6)
    comps = rng.standard_normal((ncomp, grid.nx, grid.ny))
    field = ScalarField(grid, comps[0]) if ncomp == 1 else VectorField(grid, *comps)
    path = tmp_path / "f.vlt"
    write_vlt1(path, field)
    tracemalloc.start()
    try:
        back = read_vlt1(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * comps.nbytes
    for a, b in zip(comps, [back.values] if ncomp == 1 else [back.f1, back.f2]):
        assert np.array_equal(a, b) and not b.flags.writeable


@pytest.mark.parametrize("ncomp", [1, 2])
def test_vls1_read_holds_one_copy_of_the_samples(tmp_path, ncomp):
    # the sinogram adopts the one array the samples are read into; its
    # finiteness check adds an eighth of their bytes in flags
    import tracemalloc
    rng = np.random.default_rng(7)
    values = rng.standard_normal((ncomp, 360, 301))
    path = tmp_path / "s.vls"
    write_vls1(path, Sinogram(values, 0.0, np.pi / 360, 0.01))
    tracemalloc.start()
    try:
        back = read_vls1(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * values.nbytes
    assert np.array_equal(back.values, values) and not back.values.flags.writeable


def test_vlt1_read_rejects_non_finite_samples(tmp_path, scalar):
    path = tmp_path / "f.vlt"
    write_vlt1(path, scalar)
    data = bytearray(path.read_bytes())
    struct.pack_into("<d", data, 56 + 8 * 100, float("nan"))
    path.write_bytes(bytes(data))
    with pytest.raises(FileFormatError, match="non-finite"):
        read_vlt1(path)
