"""File formats.

VLT1 (fields): magic ``VLT1``, little-endian u32 nx, u32 ny, f64 h,
f64 origin_x, f64 origin_y, f64 r1, f64 r2, u32 ncomp in {1, 2}, then
ncomp x nx x ny f64 values, row-major, component-major.

VLS1 (sinograms): magic ``VLS1``, u32 n_angles, u32 n_offsets, u32 ncomp,
f64 ds, f64 angle0, f64 dangle, then values row-major per component.

Plus CSV export, key=value geometry text files, and PGM/PPM renderers.
"""

from __future__ import annotations

import struct
import warnings

import numpy as np

from .errors import FileFormatError
from .fields import (Grid2D, ScalarField, TransformField, VectorField,
                     VLineGeometry)
from .radon import Sinogram
from .star import StarGeometry

VLT1_MAGIC = b"VLT1"
VLS1_MAGIC = b"VLS1"


def _components(obj):
    if isinstance(obj, ScalarField):
        return [obj.values]
    if isinstance(obj, VectorField):
        return [obj.f1, obj.f2]
    if isinstance(obj, TransformField):
        return [obj.component(k) for k in range(obj.ncomp)]
    raise FileFormatError(f"cannot serialize object of type {type(obj).__name__}")


def write_vlt1(path, obj):
    """Write a scalar, vector, or transform field in VLT1 format."""
    comps = _components(obj)
    grid = obj.grid
    with open(path, "wb") as fh:
        fh.write(VLT1_MAGIC)
        fh.write(struct.pack("<II", grid.nx, grid.ny))
        fh.write(struct.pack("<5d", grid.h, grid.origin[0], grid.origin[1],
                             grid.r1, grid.r2))
        fh.write(struct.pack("<I", len(comps)))
        for c in comps:
            fh.write(np.ascontiguousarray(c, dtype="<f8").tobytes())


def _read_binary(path, magic, fmt, shape):
    """Read a VLT1 or VLS1 file whose header is struct ``fmt``: return the
    header fields after the magic, and the f64 samples shaped
    ``shape(fields)`` as a read-only view of the file's bytes.  An
    unreadable file, a wrong magic, a short header and a size other than
    the header announces raise FileFormatError."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    name = magic.decode()
    if data[:4] != magic:
        raise FileFormatError(f"{path}: not a {name} file")
    header = struct.calcsize(fmt)
    if len(data) < header:
        raise FileFormatError(f"{path}: truncated {name} header")
    fields = struct.unpack_from(fmt, data)[1:]
    dims = shape(fields)
    need = header + 8 * dims[0] * dims[1] * dims[2]
    if len(data) != need:
        raise FileFormatError(f"{path}: expected {need} bytes, got {len(data)}")
    return fields, np.frombuffer(data, "<f8", offset=header).reshape(dims)


def read_vlt1(path, kind=None):
    """Read a VLT1 file.

    Returns a ScalarField (ncomp 1) or VectorField (ncomp 2) by default;
    pass a transform ``kind`` to get a TransformField instead.
    """
    def shape(fields):
        nx, ny, *_, ncomp = fields
        if ncomp not in (1, 2):
            raise FileFormatError(f"{path}: ncomp must be 1 or 2, got {ncomp}")
        return ncomp, nx, ny

    (nx, ny, h, ox, oy, r1, r2, ncomp), raw = _read_binary(
        path, VLT1_MAGIC, "<4sII5dI", shape)
    # copied while the file's bytes are held, like the hash in cli._save,
    # so the heap does not shrink between the commands of a CLI chain
    comps = raw.astype(float)
    try:
        grid = Grid2D(nx=nx, ny=ny, h=h, origin=(ox, oy), r1=r1, r2=r2)
    except Exception as exc:
        raise FileFormatError(f"{path}: bad grid header: {exc}") from exc
    if kind is not None:
        want = 2 if kind == "S" else 1
        if ncomp != want:
            raise FileFormatError(f"{path}: {kind} data needs {want} "
                                  f"component(s), file has {ncomp}")
        values = comps[0] if ncomp == 1 else comps
        return TransformField(grid, values, kind)
    if ncomp == 1:
        return ScalarField(grid, comps[0])
    return VectorField(grid, comps[0], comps[1])


def write_vls1(path, sg: Sinogram):
    with open(path, "wb") as fh:
        fh.write(VLS1_MAGIC)
        fh.write(struct.pack("<III", sg.n_angles, sg.n_offsets, sg.ncomp))
        fh.write(struct.pack("<3d", sg.ds, sg.angle0, sg.dangle))
        fh.write(np.ascontiguousarray(sg.values, dtype="<f8").tobytes())


def read_vls1(path) -> Sinogram:
    (n_angles, n_offsets, ncomp, ds, angle0, dangle), values = _read_binary(
        path, VLS1_MAGIC, "<4sIII3d", lambda f: (f[2], f[0], f[1]))
    try:
        return Sinogram(values, angle0, dangle, ds)
    except Exception as exc:
        raise FileFormatError(f"{path}: bad sinogram header: {exc}") from exc


def write_csv(path, obj):
    """Export samples as ``x,y,v1[,v2]`` rows."""
    comps = _components(obj)
    grid = obj.grid
    xx, yy = grid.mesh()
    cols = [xx.ravel(), yy.ravel()] + [c.ravel() for c in comps]
    header = "x,y," + ",".join(f"v{k + 1}" for k in range(len(comps)))
    np.savetxt(path, np.column_stack(cols), delimiter=",", header=header,
               comments="")


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
        return VLineGeometry(u, v)
    except (KeyError, ValueError) as exc:
        raise FileFormatError(f"{path}: bad V-line geometry file") from exc


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


def _image_layout(values):
    """Array [ix, iy] -> image rows top-to-bottom with y increasing upward."""
    return values.T[::-1]


def write_pgm(path, values):
    """8-bit binary PGM of a 2-D array, zero rendered as mid-gray."""
    img = _image_layout(_to_bytes_symmetric(values))
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        fh.write(img.tobytes())


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
    img = np.clip(rgb * 255.0, 0, 255).astype(np.uint8)
    img = img.transpose(1, 0, 2)[::-1]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        fh.write(img.tobytes())
