"""Radon transform machinery: forward projector, offset derivative, and
filtered backprojection.

Convention: the angle parameter is the direction of the line NORMAL
psi = (cos a, sin a); R h(psi, s) integrates h over the line
{x : x . psi = s}.  One builder (``_sinogram``) projects both data on
the r1 disc and transform data (constant along ray directions inside
semi-infinite strips outside the r2 disc), the latter as chords inside
the strip ring plus closed-form strip tails beyond it; the strip model
(``strip_ring_radius``, ``strip_ring_point``, ``strip_tails``) is here.
Strip data need r2 >= ``fields.strip_bound`` of their directions, and
each ring profile is read at 16 points per grid column.
The chords are sampled by their own bilinear kernel, which works in grid
units in buffers reused across blocks.  A full circle of even count
integrates its half circle and mirrors it, and FBP folds it back onto the
half circle; a 2-component field goes through chords, tails and
backprojection as one complex array f1 + i f2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GeometryError
from .fields import Grid2D, ScalarField, VectorField, check_strip_bound
from .operators import bilinear

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
        self._seal(np.array(self.values, dtype=float))

    @classmethod
    def _adopt(cls, values, angle0, dangle, ds):
        """The constructor without its copy, for a float array the caller
        built and writes no more: the same checks, and ``values`` itself
        becomes read-only."""
        sg = object.__new__(cls)
        for name, v in (("angle0", angle0), ("dangle", dangle), ("ds", ds)):
            object.__setattr__(sg, name, v)
        sg._seal(np.asarray(values, dtype=float))
        return sg

    def _seal(self, values):
        if values.ndim == 2:
            values = values[None]
        if values.ndim != 3 or values.shape[0] not in (1, 2):
            raise ConfigError(f"sinogram values have bad shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ConfigError("sinogram contains non-finite samples")
        if not (0 < self.ds < np.inf and 0 < self.dangle < np.inf):
            raise ConfigError("sinogram spacings must be finite and positive")
        if not np.isfinite(self.angle0):
            raise ConfigError("sinogram angle0 must be finite")
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
        """True when n_angles * dangle is 2 pi to a relative 1e-9."""
        return abs(self.n_angles * self.dangle - FULL_TURN) <= 1e-9 * FULL_TURN


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


def _chord_integrals(grid, values, psi, s, rmax, out=None):
    """Midpoint-rule integrals over the chords |x| <= rmax, a row per normal
    psi[k], with n = ceil(4 rmax / h) samples on every chord (step <= h/2,
    finer on short chords); complex values give both parts in one pass.
    The rows are written into ``out`` (len(psi), len(s)) of the values'
    dtype when given, else into a new array, and returned.

    Bilinear interpolation of the grid samples in lerp form.  Chord sample
    coordinates are kept in grid units; offsets go in blocks of at most
    CHORD_BLOCK samples, the outer loop, through one set of work buffers
    allocated per call, so a block allocates nothing and memory beyond the
    output does not grow with the offset count.  Every sample lies inside
    the rmax disc, so the interpolation cell needs no clipping; grids whose
    square does not hold that disc clear of its edges raise GeometryError.
    Lines that miss the disc (|s| >= rmax) integrate to 0."""
    # a sample's grid coordinates are rounded by ~1e-13 cells at most
    if not grid.holds_disc(rmax + 1e-9 * grid.h):
        raise GeometryError(f"grid square does not hold the chord disc of "
                            f"radius {rmax:.6g} clear of its edges")
    if out is None:
        out = np.empty((len(psi), len(s)), dtype=values.dtype)
    out[...] = 0.0
    live = np.flatnonzero(np.abs(s) < rmax)
    s = s[live]
    half = np.sqrt(rmax * rmax - s * s)
    n = max(1, int(np.ceil(4.0 * rmax / grid.h)))
    mid = (np.arange(n) + 0.5) / n  # fractions of the chord length
    dt = 2.0 * half / n
    sh = s / grid.h
    ox, oy = grid.origin[0] / grid.h, grid.origin[1] / grid.h
    ny, flat = values.shape[1], values.reshape(-1)
    # corners (i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1) of flat cell k
    corners = (flat, flat[ny:], flat[1:], flat[ny + 1:])
    rows = max(1, CHORD_BLOCK // n)
    shape = (min(rows, len(s)), n)
    tb, gx, gy, fi, fj = (np.empty(shape) for _ in range(5))
    k = np.empty(shape, dtype=np.intp)
    v = [np.empty(shape, dtype=values.dtype) for _ in corners]
    for a in range(0, len(s), rows):
        b = min(a + rows, len(s))
        th, x, y, i, j, kb, *corner = (w[:b - a]
                                       for w in (tb, gx, gy, fi, fj, k, *v))
        # the block's chord coordinates, in grid units, for every angle
        np.multiply((2.0 * half[a:b])[:, None], mid, out=th)
        th -= half[a:b, None]
        th /= grid.h
        for row, (cos, sin) in zip(out, psi):
            np.multiply(th, -sin, out=x)
            x += (sh[a:b] * cos - ox)[:, None]
            np.multiply(th, cos, out=y)
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


def _sinogram(grid, values, n_angles, n_offsets, full, rmax, dirs=()):
    """The sinogram of grid samples (complex f1 + i f2: two components):
    chords over |x| <= rmax plus the tails of the strips along ``dirs``,
    on the lines ``_lattice`` integrates, mirrored to the rest; real rows
    go straight into the output, which the Sinogram adopts."""
    dangle, ds, offsets, psi = _lattice(grid, n_angles, n_offsets, full)
    n, ncomp = len(psi), 2 if np.iscomplexobj(values) else 1
    out = np.empty((ncomp, n_angles, n_offsets))
    lines = _chord_integrals(grid, values, psi, offsets, rmax,
                             None if ncomp == 2 else out[0, :n])
    strip_tails(grid, values, dirs, psi, offsets, lines)
    if ncomp == 2:
        out[0, :n], out[1, :n] = lines.real, lines.imag
    out[:, n:] = out[:, :n_angles - n, ::-1]
    return Sinogram._adopt(out, 0.0, dangle, ds)


def radon_forward(h: ScalarField, n_angles, n_offsets, full=False) -> Sinogram:
    """Radon transform of a scalar field compactly supported in the r1 disc."""
    return _sinogram(h.grid, h.values, n_angles, n_offsets, full, h.grid.r1)


def strip_ring_radius(grid):
    """Radius just outside the r2 disc where strip-constant values are read."""
    return grid.r2 + 2.0 * grid.h


def strip_ring_point(grid, sigma, d):
    """Where the strip along direction d reads its constant value.

    Returns (qx, qy): q = sigma * perp(d) - back * d is the point of the
    strip ring on the far (vertex) side of the strip, at transverse
    coordinate sigma, with back = sqrt(ring^2 - sigma^2).
    """
    ring = strip_ring_radius(grid)
    back = np.sqrt(np.maximum(ring * ring - sigma * sigma, 0.0))
    return -sigma * d[1] - back * d[0], sigma * d[0] - back * d[1]


def strip_tails(grid, values, dirs, psi, s, out):
    """Add to ``out`` (len(psi), len(s)) the integrals of strip data over
    |t| > sqrt(ring^2 - s^2) along the lines x = s psi + t perp(psi).

    Where x . d < 0 beyond the r2 disc, strip d holds its ring profile
    g_d(sigma), sigma = x . perp(d), read (``strip_ring_point``) at the
    midpoints of equal cells of width dsig across the strip's width 2 r1.
    On a line sigma = c t - e s and x . d = c s + e t (c = psi . d,
    e = perp(psi) . d), so a t-span where x . d < 0 adds
    (G_d(sigma(b)) - G_d(sigma(a))) / c, G_d the cumulative integral of
    g_d: exact for the cellwise-constant profile, and flat beyond
    |sigma| = r1, so no span is clipped to the strip's edges.  The strips
    are disjoint outside the r2 disc; a line within 1e-9 of parallel to a
    strip gets nothing from it.  Complex values give both parts at once.
    The normals go in blocks of at most CHORD_BLOCK samples.
    """
    # 16 cells per grid column across the strip suffice: on the 3-ray star
    # at nx = 512, 4x as many (nx * nx/8) changed invert_star's errors by
    # about 1e-5 percentage points and raised the Radon stage's tracemalloc
    # peak from 3.6x to 5.5x the sinogram
    n_sigma = 16 * grid.nx
    sigma = -grid.r1 + 2.0 * grid.r1 * ((np.arange(n_sigma) + 0.5) / n_sigma)
    dsig = 2.0 * grid.r1 / n_sigma
    edges = -grid.r1 + dsig * np.arange(n_sigma + 1)
    half = np.sqrt(np.maximum(strip_ring_radius(grid) ** 2 - s * s, 0.0))
    rows = max(1, CHORD_BLOCK // len(s))
    for d in dirs:
        prof = bilinear(grid, values, *strip_ring_point(grid, sigma, d))
        cum = np.concatenate([[0.0], np.cumsum(prof) * dsig])
        c_all = psi[:, 0] * d[0] + psi[:, 1] * d[1]     # psi . d
        e_all = psi[:, 0] * d[1] - psi[:, 1] * d[0]     # perp(psi) . d
        for k in range(0, len(psi), rows):
            c, e = c_all[k:k + rows, None], e_all[k:k + rows, None]
            crossing = np.abs(c) >= 1e-9
            c = np.where(crossing, c, 1.0)
            # x . d < 0 for t < cut when e > 0, t > cut when e < 0, and
            # for every t (cut = inf) or none (cut = -inf) when e = 0
            cut = np.where(c * s < 0.0, np.inf, -np.inf)
            np.divide(-c * s, e, out=cut, where=e != 0.0)
            lower = np.where(e < 0.0, cut, -np.inf)
            upper = np.where(e < 0.0, np.inf, cut)
            for a, b in ((lower, np.minimum(upper, -half)),
                         (np.maximum(lower, half), upper)):
                tail = (np.interp(c * b - e * s, edges, cum)
                        - np.interp(c * a - e * s, edges, cum)) / c
                out[k:k + rows] += np.where(crossing & (b > a), tail, 0.0)


def radon_transform_field(tf: ScalarField | VectorField, dirs, n_angles,
                          n_offsets, full=True) -> Sinogram:
    """Radon transform of strip-extended transform data (a ScalarField, or
    a VectorField for star data), one sinogram component per component.

    Each line integrates the grid samples over its chord inside the strip
    ring |x| = r2 + 2h and takes its tails beyond in closed form
    (``strip_tails``), in one pass over f1 + i f2 for two components
    (``_sinogram``).  Lines within 1e-9 of parallel to a strip get no tail
    from it; those angles are singular downstream and discarded there.
    An r2 below ``strip_bound(dirs, r1)``, where the strips beyond r2
    overlap, and a square that does not hold the strip ring clear of its
    edges (``_chord_integrals``) raise GeometryError before any chord work."""
    check_strip_bound(tf.grid, dirs, "strip")
    packed = tf.f1 + 1j * tf.f2 if isinstance(tf, VectorField) else tf.values
    return _sinogram(tf.grid, packed, n_angles, n_offsets, full,
                     strip_ring_radius(tf.grid), dirs)


def sinogram_dds(sg: Sinogram) -> Sinogram:
    """Central-difference d/ds per angle."""
    vals = np.gradient(sg.values, sg.ds, axis=2)
    return Sinogram._adopt(vals, sg.angle0, sg.dangle, sg.ds)


def _ramp_filter(rows, ds):
    n = rows.shape[-1]
    npad = 1 << (2 * n - 1).bit_length()  # the power of two >= 2n
    filt = np.abs(np.fft.rfftfreq(npad, d=ds))
    spec = np.fft.rfft(rows, n=npad, axis=-1) * filt
    return np.fft.irfft(spec, n=npad, axis=-1)[..., :n]


def fbp_inverse(sg: Sinogram, grid: Grid2D) -> ScalarField | VectorField:
    """Filtered backprojection of ``sg`` onto a grid: a ScalarField for one
    component, a VectorField for two.

    Ramp (Ram-Lak) filter in the frequency domain with zero-padding to the
    next power of two, all rows at once; backprojection by linear
    interpolation in offset, s = x . psi once per angle and one
    interpolation of f1 + i f2 for two components.  A full circle of even
    count is folded first: row k + n/2, at angle a + pi, is read at -s, so
    it adds to row k reversed (the offset lattice is symmetric and the
    ramp filter commutes with the reversal), and only the half circle is
    filtered and backprojected.  Lattices short of 2 pi must span <= pi.
    Only the disc samples of ``Grid2D.disc_box`` are backprojected; the
    output is 0 beyond them.
    """
    if sg.n_angles < 16:
        raise ConfigError("filtered backprojection needs at least 16 angles")
    if not sg.full_range and sg.n_angles * sg.dangle > np.pi * (1 + 1e-9):
        raise ConfigError("angle lattice spans more than pi, less than 2 pi")
    values, angles = sg.values, sg.angles()
    if sg.full_range and sg.n_angles % 2 == 0:
        m = sg.n_angles // 2
        values, angles = values[:, :m] + values[:, m:, ::-1], angles[:m]
    filtered = _ramp_filter(values, sg.ds)
    packed = filtered[0] + 1j * filtered[1] if sg.ncomp == 2 else filtered[0]
    offsets = sg.offsets()
    rows, cols, rr = grid.disc_box()
    disc = rr <= grid.r1
    xx, yy = (np.broadcast_to(c, rr.shape)[disc]
              for c in (grid.xs()[rows, None], grid.ys()[None, cols]))
    vals = sum(np.interp(xx * np.cos(a) + yy * np.sin(a), offsets, row,
                         left=0.0, right=0.0)
               for a, row in zip(angles, packed)) * (
        sg.dangle * (0.5 if sg.full_range else 1.0))
    out = np.zeros((grid.nx, grid.ny), dtype=packed.dtype)
    out[rows, cols][disc] = vals
    return (VectorField(grid, out.real, out.imag) if sg.ncomp == 2
            else ScalarField(grid, out))
