"""Radon transform machinery: forward projector, offset derivative, and
filtered backprojection.

Convention: the angle parameter is the direction of the line NORMAL
psi = (cos a, sin a); R h(psi, s) integrates h over the line
{x : x . psi = s}.  Transform fields (which are constant along ray
directions inside semi-infinite strips outside the r2 disc) are projected
as a grid-sampled chord part plus the closed-form strip tails of
``beam.strip_tails``, the integral the signed V-line inversion also uses.
The chords are sampled by their own bilinear kernel, which works in grid
units in buffers reused across blocks.  A full circle of even count
integrates its half circle and mirrors it, and FBP folds it back onto the
half circle; a 2-component field is sampled and backprojected in one
complex pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beam import check_strip_ring, strip_ring_radius, strip_tails
from .errors import ConfigError, GeometryError
from .fields import Grid2D, ScalarField, TransformField

FULL_TURN = 2.0 * np.pi
# samples per block of chord integrals (rows x samples per row): sizes the
# work buffers of ``_chord_integrals``, about 130 KB each for complex data
CHORD_BLOCK = 8192


@dataclass(frozen=True)
class Sinogram:
    """Radon-domain samples on a uniform (angle, offset) lattice.

    values is a read-only copy shaped (ncomp, n_angles, n_offsets); the
    offset lattice is s_j = (j - (n_offsets - 1)/2) * ds, symmetric about 0.
    """

    values: np.ndarray
    angle0: float
    dangle: float
    ds: float

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.ndim == 2:
            values = values[None]
        if values.ndim != 3 or values.shape[0] not in (1, 2):
            raise ConfigError(f"sinogram values have bad shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ConfigError("sinogram contains non-finite samples")
        if not (0 < self.ds < np.inf and 0 < self.dangle < np.inf):
            raise ConfigError("sinogram spacings must be finite and positive")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def ncomp(self):
        return self.values.shape[0]

    @property
    def n_angles(self):
        return self.values.shape[1]

    @property
    def n_offsets(self):
        return self.values.shape[2]

    def angles(self):
        return self.angle0 + self.dangle * np.arange(self.n_angles)

    def offsets(self):
        n = self.n_offsets
        return (np.arange(n) - (n - 1) / 2.0) * self.ds

    @property
    def full_range(self):
        """True when the angle lattice covers the full circle."""
        return self.n_angles * self.dangle > np.pi * 1.5


def _lattice(grid, n_angles, n_offsets, full):
    """Spacings, offsets and the normals of the rows to integrate: all n,
    or the half circle k < n/2 for a full circle of even n, whose row
    k + n/2 is row k reversed (R h(-psi, -s) = R h(psi, s), symmetric s)."""
    if n_angles < 1 or n_offsets < 2:
        raise ConfigError("need at least 1 angle and 2 offsets")
    dangle = (FULL_TURN if full else np.pi) / n_angles
    ds = 2.0 * grid.r2 / (n_offsets - 1)
    offsets = (np.arange(n_offsets) - (n_offsets - 1) / 2.0) * ds
    n_lines = n_angles // 2 if full and n_angles % 2 == 0 else n_angles
    a = dangle * np.arange(n_lines)
    return dangle, ds, offsets, np.stack([np.cos(a), np.sin(a)], axis=1)


def _chord_integrals(grid, values, psi, s, rmax):
    """Midpoint-rule integrals over the chords |x| <= rmax, a row per normal
    psi[k], with n = ceil(4 rmax / h) samples on every chord (step <= h/2,
    finer on short chords); complex values give both parts in one pass.

    Bilinear interpolation of the grid samples in lerp form.  Chord sample
    coordinates are kept in grid units; offsets go in blocks of at most
    CHORD_BLOCK samples through one set of work buffers allocated per call,
    so a block allocates nothing.  Every sample lies inside the rmax disc,
    so the interpolation cell needs no clipping; grids whose square does
    not hold that disc clear of its edges raise GeometryError.  Lines that
    miss the disc (|s| >= rmax) integrate to 0."""
    # a sample's grid coordinates are rounded by ~1e-13 cells at most
    if not grid.holds_disc(rmax + 1e-9 * grid.h):
        raise GeometryError("chord disc reaches the edge of the grid square")
    out = np.zeros((len(psi), len(s)), dtype=values.dtype)
    live = np.flatnonzero(np.abs(s) < rmax)
    s = s[live]
    half = np.sqrt(rmax * rmax - s * s)
    n = max(1, int(np.ceil(4.0 * rmax / grid.h)))
    mid = (np.arange(n) + 0.5) / n  # fractions of the chord length
    dt = 2.0 * half / n
    th = (-half[:, None] + (2.0 * half)[:, None] * mid[None, :]) / grid.h
    sh = s / grid.h
    ox, oy = grid.origin[0] / grid.h, grid.origin[1] / grid.h
    ny, flat = values.shape[1], values.reshape(-1)
    # corners (i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1) of flat cell k
    corners = (flat, flat[ny:], flat[1:], flat[ny + 1:])
    rows = max(1, CHORD_BLOCK // n)
    shape = (min(rows, len(s)), n)
    gx, gy, fi, fj = (np.empty(shape) for _ in range(4))
    k = np.empty(shape, dtype=np.intp)
    v = [np.empty(shape, dtype=values.dtype) for _ in corners]
    for row, (cos, sin) in zip(out, psi):
        for a in range(0, len(s), rows):
            b = min(a + rows, len(s))
            x, y, i, j, kb, *corner = (w[:b - a] for w in (gx, gy, fi, fj, k, *v))
            np.multiply(th[a:b], -sin, out=x)
            x += (sh[a:b] * cos - ox)[:, None]
            np.multiply(th[a:b], cos, out=y)
            y += (sh[a:b] * sin - oy)[:, None]
            np.floor(x, out=i)
            np.floor(y, out=j)
            x -= i
            y -= j
            i *= ny
            i += j
            kb[...] = i
            # mode "clip": the default "raise" writes out through a buffer
            v00, v10, v01, v11 = (np.take(c, kb, out=w, mode="clip")
                                  for c, w in zip(corners, corner))
            _lerp_into(v01, v00, y)
            _lerp_into(v11, v10, y)
            _lerp_into(v11, v01, x)
            row[live[a:b]] = v11.sum(axis=1) * dt[a:b]
    return out


def _lerp_into(hi, lo, frac):
    """hi <- lo + frac (hi - lo), in place."""
    hi -= lo
    hi *= frac
    hi += lo


def radon_forward(h: ScalarField, n_angles, n_offsets, full=False) -> Sinogram:
    """Radon transform of a scalar field compactly supported in the r1 disc."""
    grid = h.grid
    dangle, ds, offsets, psi = _lattice(grid, n_angles, n_offsets, full)
    out = np.empty((1, n_angles, n_offsets))
    out[0, :len(psi)] = _chord_integrals(grid, h.values, psi, offsets, grid.r1)
    out[:, len(psi):] = out[:, :n_angles - len(psi), ::-1]
    return Sinogram(out, 0.0, dangle, ds)


def radon_transform_field(tf: TransformField, dirs, n_angles, n_offsets,
                          full=True) -> Sinogram:
    """Radon transform of strip-extended transform data.

    The line s psi + t psi_perp meets the strip ring |x| = r2 + 2h at
    t = +-half, half = sqrt(ring^2 - s^2) (0 for lines that miss it).  The
    chord |t| < half integrates the grid samples, both components in one
    pass over f1 + i f2; the tails beyond come in closed form from
    ``beam.strip_tails``, one call per component.  Both are taken on the
    lines ``_lattice`` integrates and mirrored to the rest.  Lines within
    1e-9 of parallel to a strip get no tail from it; those angles are
    singular downstream and discarded there.  Grids whose square does not
    hold the strip ring plus one cell raise GeometryError
    (``beam.check_strip_ring``)."""
    grid = tf.grid
    check_strip_ring(grid)
    dangle, ds, offsets, psi = _lattice(grid, n_angles, n_offsets, full)
    ring = strip_ring_radius(grid)
    packed = tf.values[0] + 1j * tf.values[1] if tf.ncomp == 2 else tf.values
    chords = _chord_integrals(grid, packed, psi, offsets, ring)
    n = len(psi)
    px, py = psi[:, 0, None] * offsets, psi[:, 1, None] * offsets
    psi_perp = np.stack([-psi[:, 1], psi[:, 0]], axis=1)[:, None, :]
    half = np.sqrt(np.maximum(ring * ring - offsets * offsets, 0.0))
    out = np.empty((tf.ncomp, n_angles, n_offsets))
    for c, part in enumerate((chords.real, chords.imag)[:tf.ncomp]):
        out[c, :n] = part
        strip_tails(grid, tf.component(c), dirs, px, py, psi_perp,
                    ((-np.inf, -half), (half, np.inf)), out[c, :n])
    out[:, n:] = out[:, :n_angles - n, ::-1]
    return Sinogram(out, 0.0, dangle, ds)


def sinogram_dds(sg: Sinogram) -> Sinogram:
    """Central-difference d/ds per angle."""
    vals = np.gradient(sg.values, sg.ds, axis=2)
    return Sinogram(vals, sg.angle0, sg.dangle, sg.ds)


def _ramp_filter(rows, ds, window):
    n = rows.shape[-1]
    npad = 1 << (2 * n - 1).bit_length()  # the power of two >= 2n
    freqs = np.fft.rfftfreq(npad, d=ds)
    filt = np.abs(freqs)
    if window == "hann":
        filt = filt * (0.5 + 0.5 * np.cos(np.pi * freqs / freqs[-1]))
    elif window is not None:
        raise ConfigError(f"unknown FBP window {window!r}")
    spec = np.fft.rfft(rows, n=npad, axis=-1) * filt
    return np.fft.irfft(spec, n=npad, axis=-1)[..., :n]


def _backproject(sg: Sinogram, grid: Grid2D, window=None) -> np.ndarray:
    """Filtered backprojection of every component of ``sg``, shaped
    (ncomp, nx, ny).

    Ramp (Ram-Lak) filter in the frequency domain with zero-padding to the
    next power of two, all rows at once; backprojection by linear
    interpolation in offset, s = x . psi once per angle and one
    interpolation of f1 + i f2 for two components.  A full circle of even
    count is folded first: row k + n/2, at angle a + pi, is read at -s, so
    it adds to row k reversed (the offset lattice is symmetric and the
    ramp filter commutes with the reversal), and only the half circle is
    filtered and backprojected.
    """
    if sg.n_angles < 16:
        raise ConfigError("filtered backprojection needs at least 16 angles")
    values, angles = sg.values, sg.angles()
    if sg.full_range and sg.n_angles % 2 == 0:
        m = sg.n_angles // 2
        values, angles = values[:, :m] + values[:, m:, ::-1], angles[:m]
    rows = _ramp_filter(values, sg.ds, window)
    packed = rows[0] + 1j * rows[1] if sg.ncomp == 2 else rows[0]
    offsets = sg.offsets()
    xx, yy = grid.mesh()
    acc = np.zeros((grid.nx, grid.ny), dtype=packed.dtype)
    for k, a in enumerate(angles):
        s = xx * np.cos(a) + yy * np.sin(a)
        acc += np.interp(s, offsets, packed[k], left=0.0, right=0.0)
    acc *= sg.dangle * (0.5 if sg.full_range else 1.0)
    return np.stack([acc.real, acc.imag]) if sg.ncomp == 2 else acc[None]


def fbp_inverse(sg: Sinogram, grid: Grid2D, window=None) -> ScalarField:
    """Filtered backprojection of a single-component sinogram onto a grid
    (``_backproject``)."""
    if sg.ncomp != 1:
        raise ConfigError("fbp_inverse needs a single-component sinogram")
    return ScalarField(grid, _backproject(sg, grid, window)[0])
