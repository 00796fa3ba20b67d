"""Radon transform machinery: forward projector, offset derivative, and
filtered backprojection.

Convention: the angle parameter is the direction of the line NORMAL
psi = (cos a, sin a); R h(psi, s) integrates h over the line
{x : x . psi = s}.  Transform data (which are constant along ray
directions inside semi-infinite strips outside the r2 disc) are projected
as a grid-sampled chord part inside the strip ring plus closed-form strip
tails beyond it; the strip model (``strip_ring_radius``,
``strip_ring_point``, ``strip_tails``) lives here, next to its one caller.
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
from .fields import Grid2D, ScalarField, VectorField
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


def radon_forward(h: ScalarField, n_angles, n_offsets, full=False) -> Sinogram:
    """Radon transform of a scalar field compactly supported in the r1 disc."""
    grid = h.grid
    dangle, ds, offsets, psi = _lattice(grid, n_angles, n_offsets, full)
    out = np.empty((1, n_angles, n_offsets))
    _chord_integrals(grid, h.values, psi, offsets, grid.r1, out[0, :len(psi)])
    out[:, len(psi):] = out[:, :n_angles - len(psi), ::-1]
    return Sinogram._adopt(out, 0.0, dangle, ds)


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


def strip_tails(grid, values, dirs, px, py, d, spans, out):
    """Add the integrals of strip data along the rays x + t d over t-spans.

    Beyond the r2 disc the data along strip s is its ring profile
    g_s(sigma), sigma = x . perp(s), read (``strip_ring_point``) at the
    midpoints of equal cells of width dsig across the strip's width 2 r1.
    Over the t where a ray is in the strip the integral is
    (G_s(sigma(b)) - G_s(sigma(a))) / c with c = d . perp(s) and G_s the
    cumulative integral of g_s, exact for the cellwise-constant profile.
    The strips are disjoint outside the r2 disc, so for spans (t_a, t_b)
    outside it their integrals add.  A ray within 1e-9 of parallel to a
    strip gets nothing from it.  Complex values give both parts at once.

    px, py, d[..., 0], d[..., 1] and the span ends broadcast to the shape
    of ``out``, which receives the integrals strip by strip, span by span.
    """
    # G_s leaves an error of O(dsig^2) that repeats every cell; the one
    # caller, the star Radon transform, is then differentiated twice in s
    # (d/ds, then the ramp filter of the FBP), which divides it by h^2, so
    # dsig shrinks like h^2: nx * max(16, nx/8) cells across the strip
    n_sigma = grid.nx * max(16, grid.nx // 8)
    sigma = -grid.r1 + 2.0 * grid.r1 * ((np.arange(n_sigma) + 0.5) / n_sigma)
    dsig = 2.0 * grid.r1 / n_sigma
    edges = -grid.r1 + dsig * np.arange(n_sigma + 1)
    dx, dy = d[..., 0], d[..., 1]
    for s in dirs:
        prof = bilinear(grid, values, *strip_ring_point(grid, sigma, s))
        cum = np.concatenate([[0.0], np.cumsum(prof) * dsig])
        c = -dx * s[1] + dy * s[0]              # d . perp(s)
        e = dx * s[0] + dy * s[1]               # d . s
        crossing = np.abs(c) >= 1e-9
        c = np.where(crossing, c, 1.0)
        sigma0 = -px * s[1] + py * s[0]         # x . perp(s)
        along0 = px * s[0] + py * s[1]          # x . s
        # in the strip: |sigma0 + t c| < r1 and along0 + t e < 0
        lo = np.minimum((-grid.r1 - sigma0) / c, (grid.r1 - sigma0) / c)
        hi = np.maximum((-grid.r1 - sigma0) / c, (grid.r1 - sigma0) / c)
        cut = np.divide(-along0, e, out=np.zeros(np.broadcast(along0, e).shape),
                        where=e != 0.0)
        hi = np.where(e > 0.0, np.minimum(hi, cut), hi)
        lo = np.where(e < 0.0, np.maximum(lo, cut), lo)
        hi = np.where((e == 0.0) & (along0 >= 0.0), lo, hi)
        for t_a, t_b in spans:
            a, b = np.maximum(lo, t_a), np.minimum(hi, t_b)
            tail = (np.interp(sigma0 + c * b, edges, cum)
                    - np.interp(sigma0 + c * a, edges, cum)) / c
            out += np.where(crossing & (b > a), tail, 0.0)


def radon_transform_field(tf: ScalarField | VectorField, dirs, n_angles,
                          n_offsets, full=True) -> Sinogram:
    """Radon transform of strip-extended transform data (a ScalarField, or
    a VectorField for star data), one sinogram component per component.

    The line s psi + t psi_perp meets the strip ring |x| = r2 + 2h at
    t = +-half, half = sqrt(ring^2 - s^2) (0 for lines that miss it).  The
    chord |t| < half integrates the grid samples and the tails beyond come
    in closed form from ``strip_tails``, both in one pass over f1 + i f2
    for two components.  Both are taken on the lines ``_lattice``
    integrates and mirrored to the rest.  Lines within 1e-9 of parallel to
    a strip get no tail from it; those angles are singular downstream and
    discarded there.  Grids whose square does not hold the strip ring
    clear of its edges raise GeometryError before any chord work
    (``_chord_integrals``)."""
    grid = tf.grid
    dangle, ds, offsets, psi = _lattice(grid, n_angles, n_offsets, full)
    ring = strip_ring_radius(grid)
    ncomp = 2 if isinstance(tf, VectorField) else 1
    packed = tf.f1 + 1j * tf.f2 if ncomp == 2 else tf.values
    lines = _chord_integrals(grid, packed, psi, offsets, ring)
    px, py = psi[:, 0, None] * offsets, psi[:, 1, None] * offsets
    psi_perp = np.stack([-psi[:, 1], psi[:, 0]], axis=1)[:, None, :]
    half = np.sqrt(np.maximum(ring * ring - offsets * offsets, 0.0))
    strip_tails(grid, packed, dirs, px, py, psi_perp,
                ((-np.inf, -half), (half, np.inf)), lines)
    n = len(psi)
    out = np.empty((ncomp, n_angles, n_offsets))
    out[:, :n] = (lines.real, lines.imag)[:ncomp]
    out[:, n:] = out[:, :n_angles - n, ::-1]
    return Sinogram._adopt(out, 0.0, dangle, ds)


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


def _backproject(sg: Sinogram, grid: Grid2D) -> np.ndarray:
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
    rows = _ramp_filter(values, sg.ds)
    packed = rows[0] + 1j * rows[1] if sg.ncomp == 2 else rows[0]
    offsets = sg.offsets()
    xx, yy = grid.mesh()
    acc = np.zeros((grid.nx, grid.ny), dtype=packed.dtype)
    for k, a in enumerate(angles):
        s = xx * np.cos(a) + yy * np.sin(a)
        acc += np.interp(s, offsets, packed[k], left=0.0, right=0.0)
    acc *= sg.dangle * (0.5 if sg.full_range else 1.0)
    return np.stack([acc.real, acc.imag]) if sg.ncomp == 2 else acc[None]


def fbp_inverse(sg: Sinogram, grid: Grid2D) -> ScalarField:
    """Filtered backprojection of a single-component sinogram onto a grid
    (``_backproject``)."""
    if sg.ncomp != 1:
        raise ConfigError("fbp_inverse needs a single-component sinogram")
    return ScalarField(grid, _backproject(sg, grid)[0])
