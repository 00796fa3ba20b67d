"""File formats.

VLT1 (fields): magic ``VLT1``, little-endian u32 nx, u32 ny, f64 h,
f64 origin_x, f64 origin_y, f64 r1, f64 r2, u32 ncomp in {1, 2}, then
ncomp x nx x ny f64 values, row-major, component-major.

VLS1 (sinograms): magic ``VLS1``, u32 n_angles, u32 n_offsets, u32 ncomp,
f64 ds, f64 angle0, f64 dangle, then values row-major per component.

Plus key=value text files of the ``fields`` geometries, and PGM/PPM
renderers.
"""

from __future__ import annotations

import os
import struct
import warnings

import numpy as np

from .errors import ConfigError, FileFormatError
from .fields import (Grid2D, ScalarField, StarGeometry, VectorField,
                     VLineGeometry)
from .radon import Sinogram

VLT1_MAGIC = b"VLT1"
VLS1_MAGIC = b"VLS1"


def _components(obj):
    if isinstance(obj, ScalarField):
        return [obj.values]
    if isinstance(obj, VectorField):
        return [obj.f1, obj.f2]
    raise FileFormatError(f"cannot serialize object of type {type(obj).__name__}")


def _field(grid, comps):
    """The ScalarField (one component) or VectorField (two) of ``comps``."""
    return ScalarField(grid, comps[0]) if len(comps) == 1 else VectorField(grid, *comps)


def write_vlt1(path, obj):
    """Write a scalar or vector field in VLT1 format."""
    comps = _components(obj)
    grid = obj.grid
    with open(path, "wb") as fh:
        fh.write(VLT1_MAGIC)
        fh.write(struct.pack("<II", grid.nx, grid.ny))
        fh.write(struct.pack("<5d", grid.h, grid.origin[0], grid.origin[1],
                             grid.r1, grid.r2))
        fh.write(struct.pack("<I", len(comps)))
        for c in comps:
            fh.write(np.ascontiguousarray(c, dtype="<f8").data)


def _read_binary(path, magic, fmt, shape):
    """Read a VLT1 or VLS1 file whose header is struct ``fmt``: return the
    header fields after the magic, and the f64 samples shaped
    ``shape(fields)`` = (ncomp, rows, cols) as one new array, read
    straight from the file.  An unreadable file, a wrong magic, a short
    header and a size other than the header announces raise
    FileFormatError."""
    name, head = magic.decode(), struct.calcsize(fmt)
    try:
        with open(path, "rb") as fh:
            header = fh.read(head)
            if header[:4] != magic:
                raise FileFormatError(f"{path}: not a {name} file")
            if len(header) < head:
                raise FileFormatError(f"{path}: truncated {name} header")
            fields = struct.unpack(fmt, header)[1:]
            ncomp, *dims = shape(fields)
            size = os.fstat(fh.fileno()).st_size
            need = head + 8 * ncomp * dims[0] * dims[1]
            if size != need:
                raise FileFormatError(f"{path}: expected {need} bytes, got {size}")
            samples = np.empty((ncomp, *dims), dtype="<f8")
            if fh.readinto(samples.data) != samples.nbytes:
                raise FileFormatError(f"{path}: truncated {name} samples")
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    return fields, samples


def read_vlt1(path):
    """Read a VLT1 file as a ScalarField (ncomp 1) or VectorField (ncomp 2)."""
    def shape(fields):
        nx, ny, *_, ncomp = fields
        if ncomp not in (1, 2):
            raise FileFormatError(f"{path}: ncomp must be 1 or 2, got {ncomp}")
        return ncomp, nx, ny

    (nx, ny, h, ox, oy, r1, r2, ncomp), samples = _read_binary(
        path, VLT1_MAGIC, "<4sII5dI", shape)
    samples.flags.writeable = False  # the fields adopt its rows
    try:
        grid = Grid2D(nx=nx, ny=ny, h=h, origin=(ox, oy), r1=r1, r2=r2)
    except Exception as exc:
        raise FileFormatError(f"{path}: bad grid header: {exc}") from exc
    try:
        return (ScalarField if ncomp == 1 else VectorField)._adopt(grid, *samples)
    except ConfigError as exc:  # a NaN or an infinity among the samples
        raise FileFormatError(f"{path}: {exc}") from exc


def write_vls1(path, sg: Sinogram):
    with open(path, "wb") as fh:
        fh.write(VLS1_MAGIC)
        fh.write(struct.pack("<III", sg.n_angles, sg.n_offsets, sg.ncomp))
        fh.write(struct.pack("<3d", sg.ds, sg.angle0, sg.dangle))
        fh.write(np.ascontiguousarray(sg.values, dtype="<f8").data)


def read_vls1(path) -> Sinogram:
    (n_angles, n_offsets, ncomp, ds, angle0, dangle), samples = _read_binary(
        path, VLS1_MAGIC, "<4sIII3d", lambda f: (f[2], f[0], f[1]))
    try:
        return Sinogram._adopt(samples, angle0, dangle, ds)
    except Exception as exc:
        raise FileFormatError(f"{path}: bad sinogram header: {exc}") from exc


def write_vline_geometry(path, geom: VLineGeometry):
    with open(path, "w") as fh:
        fh.write(f"u={float(geom.u[0])!r},{float(geom.u[1])!r}\n")
        fh.write(f"v={float(geom.v[0])!r},{float(geom.v[1])!r}\n")


def _key_values(path, error, what=""):
    """(line, key, value) of each line of a key=value text file, all three
    stripped; blank and ``#`` lines are skipped, and a line without ``=``
    has the value "".  A file that cannot be read raises ``error``."""
    try:
        with open(path) as fh:
            lines = [line.strip() for line in fh]
    except OSError as exc:
        raise error(f"cannot read {what}{path}: {exc}") from exc
    out = []
    for line in lines:
        if line and not line.startswith("#"):
            key, _, val = line.partition("=")
            out.append((line, key.strip(), val.strip()))
    return out


def read_vline_geometry(path) -> VLineGeometry:
    pairs = {key: val for _, key, val in _key_values(path, FileFormatError)}
    try:
        u = np.array([float(t) for t in pairs["u"].split(",")])
        v = np.array([float(t) for t in pairs["v"].split(",")])
    except (KeyError, ValueError) as exc:
        raise FileFormatError(f"{path}: bad V-line geometry file") from exc
    if not np.all(np.isfinite(np.concatenate([u, v]))):
        raise FileFormatError(f"{path}: non-finite V-line geometry value")
    return VLineGeometry(u, v)


def write_star_geometry(path, sg: StarGeometry):
    with open(path, "w") as fh:
        for g, c in zip(sg.gammas, sg.weights):
            fh.write(f"ray = {float(g[0])!r},{float(g[1])!r},{float(c)!r}\n")


def read_star_geometry(path) -> StarGeometry:
    gammas, weights = [], []
    for line, key, val in _key_values(path, FileFormatError):
        if key != "ray":
            raise FileFormatError(f"{path}: unexpected line {line!r}")
        try:
            gx, gy, c = (float(t) for t in val.split(","))
        except ValueError as exc:
            raise FileFormatError(f"{path}: bad ray line {line!r}") from exc
        n = float(np.hypot(gx, gy))
        if n == 0.0:
            raise FileFormatError(f"{path}: zero ray direction")
        if abs(n - 1.0) > 1e-6:
            warnings.warn(f"{path}: ray ({gx}, {gy}) off unit length by "
                          f"{abs(n - 1.0):.2e}; normalizing")
        gammas.append(np.array([gx, gy]) / n)
        weights.append(c)
    try:
        return StarGeometry(tuple(gammas), tuple(weights))
    except Exception as exc:
        raise FileFormatError(f"{path}: invalid star geometry: {exc}") from exc


def _to_bytes_symmetric(values):
    """Map values to 0..255 with zero at mid-gray (symmetric range)."""
    m = float(np.max(np.abs(values)))
    if m == 0.0:
        return np.full(values.shape, 127, dtype=np.uint8)
    scaled = np.clip((values / m + 1.0) * 127.5, 0.0, 255.0)
    return scaled.astype(np.uint8)


def _write_pnm(path, img):
    """Binary PGM of uint8 samples [ix, iy], or PPM of [ix, iy, rgb], as
    image rows top-to-bottom with y increasing upward."""
    magic = "P5" if img.ndim == 2 else "P6"
    img = img.swapaxes(0, 1)[::-1]
    with open(path, "wb") as fh:
        fh.write(f"{magic}\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        fh.write(img.tobytes())


def write_pgm(path, values):
    """8-bit binary PGM of a 2-D array, zero rendered as mid-gray."""
    _write_pnm(path, _to_bytes_symmetric(values))


def write_ppm_direction(path, f1, f2):
    """Direction-as-hue, magnitude-as-value color image of a vector field."""
    mag = np.hypot(f1, f2)
    mmax = float(mag.max())
    vchan = mag / mmax if mmax > 0 else mag
    hue = (np.arctan2(f2, f1) % (2.0 * np.pi)) / (2.0 * np.pi)
    hp = hue * 6.0
    i = np.floor(hp).astype(int) % 6
    frac = hp - np.floor(hp)
    p = np.zeros_like(vchan)
    q = vchan * (1.0 - frac)
    t = vchan * frac
    rgb = np.zeros(f1.shape + (3,))
    lut = [(vchan, t, p), (q, vchan, p), (p, vchan, t),
           (p, q, vchan), (t, p, vchan), (vchan, p, q)]
    for k, (r, g, b) in enumerate(lut):
        m = i == k
        rgb[m, 0], rgb[m, 1], rgb[m, 2] = r[m], g[m], b[m]
    _write_pnm(path, np.clip(rgb * 255.0, 0, 255).astype(np.uint8))
