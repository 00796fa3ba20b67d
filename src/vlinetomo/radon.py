"""Radon transform machinery: forward projector, offset derivative, and
filtered backprojection.

Convention: the angle parameter is the direction of the line NORMAL
psi = (cos a, sin a); R h(psi, s) integrates h over the line
{x : x . psi = s}.  Transform fields (which are constant along ray
directions inside semi-infinite strips outside the r2 disc) are projected
as a grid-sampled chord part plus closed-form strip-tail integrals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beam import strip_ring_point, strip_ring_radius
from .errors import ConfigError
from .fields import Grid2D, ScalarField, TransformField
from .operators import bilinear

FULL_TURN = 2.0 * np.pi
# samples per block of chord integrals (rows x samples per row)
CHORD_BLOCK = 8192


@dataclass(frozen=True)
class Sinogram:
    """Radon-domain samples on a uniform (angle, offset) lattice.

    values has shape (ncomp, n_angles, n_offsets); the offset lattice is
    s_j = (j - (n_offsets - 1)/2) * ds, symmetric about 0.
    """

    values: np.ndarray
    angle0: float
    dangle: float
    ds: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 2:
            values = values[None]
        if values.ndim != 3 or values.shape[0] not in (1, 2):
            raise ConfigError(f"sinogram values have bad shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ConfigError("sinogram contains non-finite samples")
        if self.ds <= 0 or self.dangle <= 0:
            raise ConfigError("sinogram lattice spacings must be positive")
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

    def component(self, k):
        return self.values[k]


def _lattice(grid, n_angles, n_offsets, full):
    if n_angles < 1 or n_offsets < 2:
        raise ConfigError("need at least 1 angle and 2 offsets")
    dangle = (FULL_TURN if full else np.pi) / n_angles
    ds = 2.0 * grid.r2 / (n_offsets - 1)
    offsets = (np.arange(n_offsets) - (n_offsets - 1) / 2.0) * ds
    return dangle, ds, offsets


def _chord_integrals(grid, values, psi, offsets, rmax):
    """Line integrals over the chords |x| <= rmax for one angle, sampled at
    arc-length step h/2.

    Rows of offsets are evaluated in blocks of at most CHORD_BLOCK samples,
    which keeps every temporary small enough to be reused from the heap
    rather than mapped afresh on each call; each row's sum is unchanged.
    """
    s = offsets
    step = grid.h / 2.0
    half = np.sqrt(np.maximum(rmax * rmax - s * s, 0.0))
    n = max(1, int(np.ceil(2.0 * rmax / step)))
    mid = (np.arange(n) + 0.5) / n  # fractions of the chord length
    dt = 2.0 * half / n
    rows = max(1, CHORD_BLOCK // n)
    out = np.empty(len(s))
    for a in range(0, len(s), rows):
        b = min(a + rows, len(s))
        t = -half[a:b, None] + (2.0 * half[a:b])[:, None] * mid[None, :]
        px = s[a:b, None] * psi[0] - t * psi[1]
        py = s[a:b, None] * psi[1] + t * psi[0]
        out[a:b] = bilinear(grid, values, px, py).sum(axis=1) * dt[a:b]
    return out


def radon_forward(h: ScalarField, n_angles, n_offsets, full=False) -> Sinogram:
    """Radon transform of a scalar field compactly supported in the r1 disc."""
    grid = h.grid
    dangle, ds, offsets = _lattice(grid, n_angles, n_offsets, full)
    out = np.zeros((1, n_angles, n_offsets))
    for k in range(n_angles):
        a = dangle * k
        psi = np.array([np.cos(a), np.sin(a)])
        out[0, k] = _chord_integrals(grid, h.values, psi, offsets, grid.r1)
    return Sinogram(out, 0.0, dangle, ds)


def _strip_profiles(grid, values, dirs):
    """Sample the constant strip values on the strip ring, at 4 nx points
    across each strip's width 2 r1; per direction (back, profile)."""
    n_sigma = 4 * grid.nx
    sig = (np.arange(n_sigma) + 0.5) / n_sigma  # (0, 1)
    sigma = -grid.r1 + 2.0 * grid.r1 * sig
    dsig = 2.0 * grid.r1 / n_sigma
    profiles = []
    for d in dirs:
        qx, qy, back = strip_ring_point(grid, sigma, d)
        profiles.append((back, bilinear(grid, values, qx, qy)))
    return sigma, dsig, profiles


def _ramp_sums(phi, prof, offsets, ds):
    """sum_i clip((phi_i - s)/ds + 1/2, 0, 1) * prof_i for every offset s.

    The weight is 1 for phi_i >= s + ds/2, 0 for phi_i <= s - ds/2 and
    linear in between, so after sorting by phi each sum is a suffix sum
    plus the ramp part, both read from cumulative sums of prof and
    phi * prof: O((n + m) log n) instead of an (m, n) weight matrix.
    """
    order = np.argsort(phi, kind="stable")
    phi, prof = phi[order], prof[order]
    c0 = np.concatenate([[0.0], np.cumsum(prof)])
    c1 = np.concatenate([[0.0], np.cumsum(phi * prof)])
    lo = np.searchsorted(phi, offsets - 0.5 * ds, side="right")
    hi = np.searchsorted(phi, offsets + 0.5 * ds, side="left")
    ramp = (c1[hi] - c1[lo]) / ds + (0.5 - offsets / ds) * (c0[hi] - c0[lo])
    return (c0[-1] - c0[hi]) + ramp


def radon_transform_field(tf: TransformField, dirs, n_angles, n_offsets,
                          full=True) -> Sinogram:
    """Radon transform of strip-extended transform data.

    The chord part integrates the grid samples over the strip-ring disc
    |x| <= r2 + 2h; the strip tails beyond that ring are constant along
    their ray direction, so each tail reduces to a 1-D integral of the ring
    profile against a (smoothed) indicator of the half-plane cut by the
    line.  Lines nearly parallel to a strip direction (|psi . d| < 1e-9)
    get no tail; those angles are singular for the downstream inversion
    and are discarded there anyway.
    """
    grid = tf.grid
    dangle, ds, offsets = _lattice(grid, n_angles, n_offsets, full)
    ring = strip_ring_radius(grid)
    out = np.zeros((tf.ncomp, n_angles, n_offsets))
    for c in range(tf.ncomp):
        values = tf.component(c)
        sigma, dsig, profiles = _strip_profiles(grid, values, dirs)
        for k in range(n_angles):
            a = dangle * k
            psi = np.array([np.cos(a), np.sin(a)])
            row = _chord_integrals(grid, values, psi, offsets, ring)
            for d, (back, prof) in zip(dirs, profiles):
                alpha = psi[0] * d[0] + psi[1] * d[1]
                if abs(alpha) < 1e-9:
                    continue
                alphap = -psi[0] * d[1] + psi[1] * d[0]  # psi . perp(d)
                # offset at which the line meets the ring at this sigma
                phi = alphap * sigma - alpha * back
                # alpha < 0 mirrors the ramp: negate phi and the offsets
                sign = 1.0 if alpha > 0 else -1.0
                row = row + _ramp_sums(sign * phi, prof, sign * offsets, ds) \
                    * (dsig / abs(alpha))
            out[c, k] = row
    return Sinogram(out, 0.0, dangle, ds)


def sinogram_dds(sg: Sinogram) -> Sinogram:
    """Central-difference d/ds per angle."""
    vals = np.gradient(sg.values, sg.ds, axis=2)
    return Sinogram(vals, sg.angle0, sg.dangle, sg.ds)


def _ramp_filter(rows, ds, window):
    n = rows.shape[-1]
    npad = 1
    while npad < 2 * n:
        npad *= 2
    freqs = np.fft.rfftfreq(npad, d=ds)
    filt = np.abs(freqs)
    if window == "hann":
        filt = filt * (0.5 + 0.5 * np.cos(np.pi * freqs / freqs[-1]))
    elif window is not None:
        raise ConfigError(f"unknown FBP window {window!r}")
    spec = np.fft.rfft(rows, n=npad, axis=-1) * filt
    return np.fft.irfft(spec, n=npad, axis=-1)[..., :n]


def fbp_inverse(sg: Sinogram, grid: Grid2D, window=None) -> ScalarField:
    """Filtered backprojection of a single-component sinogram onto a grid.

    Ramp (Ram-Lak) filter in the frequency domain with zero-padding to the
    next power of two; backprojection by linear interpolation in offset.
    """
    if sg.ncomp != 1:
        raise ConfigError("fbp_inverse needs a single-component sinogram")
    if sg.n_angles < 16:
        raise ConfigError("fbp_inverse needs at least 16 angles")
    rows = _ramp_filter(sg.values[0], sg.ds, window)
    offsets = sg.offsets()
    xx, yy = grid.mesh()
    acc = np.zeros((grid.nx, grid.ny))
    for k, a in enumerate(sg.angles()):
        s = xx * np.cos(a) + yy * np.sin(a)
        acc += np.interp(s, offsets, rows[k], left=0.0, right=0.0)
    scale = sg.dangle * (0.5 if sg.full_range else 1.0)
    return ScalarField(grid, acc * scale)
