"""Elliptic solvers: Dirichlet problem on the r1 disc (one fast-Poisson
solve on a box around the disc, by real-FFT sine transforms, minus the
harmonic function with the same trace on the r1 circle) and free-space
recovery of a compactly supported function from its Laplacian (FFT
convolution over the rhs support).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fields import ScalarField
from .operators import bilinear, correlate, fast_len


@dataclass(frozen=True)
class PoissonResult:
    """Solution with its solver report.  Both solvers are direct, so
    ``iterations`` is 0; ``residual`` is the share ||g_k, k > K|| / ||g||
    of the Dirichlet solve's boundary trace that its harmonic correction
    drops (0 for the free-space convolution)."""

    field: ScalarField
    iterations: int
    residual: float


def _dst_box(ix, iy):
    """Corner and shape of the box the Dirichlet solve inverts the 5-point
    Laplacian on, centred on the sample indices (ix, iy): per axis their
    span plus one zero row at each end, n, grown to the least m >= n with
    m + 1 5-smooth (the DST-I runs an FFT of length 2 (m + 1)) and m - n
    even, half of the growth at each end.  The box may pass the grid's
    edge."""
    lo, shape = [], []
    for i in (ix, iy):
        n = int(i.max() - i.min()) + 3
        m = fast_len(n + 1) - 1
        while (m - n) % 2:
            m = fast_len(m + 2) - 1
        lo.append(int(i.min()) - 1 - (m - n) // 2)
        shape.append(m)
    return tuple(lo), tuple(shape)


def _half_sine(x, pad, spec):
    """Half-scaled DST-I along rows, negated: -sum_j x_j sin(pi j k / (n + 1))
    for k = 1..n, as Im rfft([0, x, 0, ..., 0]) of length 2 (n + 1) in the
    buffers ``pad`` (zero beyond x) and ``spec``; returns a view of spec."""
    n = x.shape[1]
    pad[:, 1:n + 1] = x
    np.fft.rfft(pad, axis=1, out=spec)
    return spec.imag[:, 1:n + 1]


def _box_solve(r):
    """The exact inverse of h^2 (-Lap), the 5-point stencil on the box of
    r's shape with zeros beyond it, applied to r: four ``_half_sine`` passes
    over rows of the box or of its transpose (the signs cancel) with the
    scaled inverse eigenvalues in between."""
    shape = r.shape
    n0, n1 = shape
    lam = [2.0 - 2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1)) for n in shape]
    # in the transposed layout of the coefficients after two passes
    inv_lam_t = 4.0 / ((n0 + 1) * (n1 + 1) * (lam[1][:, None] + lam[0][None, :]))
    bufs = {mn: (np.zeros((mn[0], 2 * mn[1] + 2)),
                 np.empty((mn[0], mn[1] + 2), dtype=complex))
            for mn in (shape, shape[::-1])}  # one set for a square box
    box, box_t = bufs[shape], bufs[shape[::-1]]
    coef_t = _half_sine(_half_sine(r, *box).T, *box_t) * inv_lam_t
    return _half_sine(_half_sine(coef_t, *box_t).T, *box)


def solve_dirichlet_disc(rhs: ScalarField) -> PoissonResult:
    """Lap V = rhs on the interior of the r1 disc, V = 0 on and outside it.

    James's method for isolated sources with the disc's Poisson integral:
    V_box, the exact inverse of the 5-point Laplacian on a box around the
    disc samples (rr < r1, zero beyond the box) applied once to the rhs
    there, is sampled bilinearly at M points on the r1 circle, M the least
    power of two >= 4 pi r1 / h.  With g_k = rfft(trace)_k / M, the
    harmonic H = Re sum_{k <= K} c_k (z / r1)^k, c_0 = g_0 and c_k = 2 g_k,
    K = M / 32, matches that trace, and V = V_box - H on the disc samples.
    """
    grid = rhs.grid
    ix, iy = np.nonzero(grid.rr() < grid.r1)
    if ix.size == 0:
        raise ConfigError("no grid samples inside the Dirichlet disc")
    out = np.zeros((grid.nx, grid.ny))
    b = -rhs.values[ix, iy] * grid.h * grid.h
    if not b.any():
        return PoissonResult(ScalarField(grid, out), 0, 0.0)
    lo, shape = _dst_box(ix, iy)
    at = (ix - lo[0], iy - lo[1])
    r = np.zeros(shape)
    r[at] = b
    v_box = _box_solve(r)

    # the grid-shaped window of V_box holds every corner of a cell the
    # circle crosses
    window = np.zeros((grid.nx, grid.ny))
    win = tuple(slice(max(l, 0), min(l + m, n))
                for l, m, n in zip(lo, shape, window.shape))
    window[win] = v_box[tuple(slice(w.start - l, w.stop - l) for w, l in zip(win, lo))]
    m = 1 << max(0, int(np.ceil(np.log2(4.0 * np.pi * grid.r1 / grid.h))))
    theta = 2.0 * np.pi * np.arange(m) / m
    ghat = np.fft.rfft(bilinear(grid, window, grid.r1 * np.cos(theta),
                                grid.r1 * np.sin(theta))) / m
    k = m // 32
    c = ghat[:k + 1] * 2.0
    c[0] = ghat[0]
    z = (grid.xs()[ix] + 1j * grid.ys()[iy]) / grid.r1
    harm = np.full(ix.size, c[-1])
    for ck in c[-2::-1]:  # Horner's rule
        harm *= z
        harm += ck
    out[ix, iy] = v_box[at] - harm.real
    res = float(np.linalg.norm(ghat[k + 1:]) / np.linalg.norm(ghat))
    return PoissonResult(ScalarField(grid, out), 0, res)


def log_kernel(h, dx, dy):
    """Cell-integrated logarithmic kernel at the integer offsets dx (rows)
    by dy (columns), in cells.

    Off-center cells use the midpoint value (1/2pi) log|x| * h^2; the
    singular self-cell uses the exact integral of (1/2pi) log|x| over an
    h-by-h square centered at the origin.  The kernel depends on |dx| and
    |dy| only, so it is evaluated once per pair of absolute offsets.
    """
    ax, ay = np.abs(np.asarray(dx, dtype=np.int64)), np.abs(np.asarray(dy, dtype=np.int64))
    rr = np.hypot(h * np.arange(ax.max() + 1.0)[:, None],
                  h * np.arange(ay.max() + 1.0)[None, :])
    with np.errstate(divide="ignore"):
        k = np.log(rr) * h * h / (2.0 * np.pi)
    a = h / 2.0
    # int over [-a,a]^2 of log|x| dx = 2 a^2 (log(2 a^2) + pi/2 - 3)
    k[0, 0] = 2.0 * a * a * (np.log(2.0 * a * a) + np.pi / 2.0 - 3.0) / (2.0 * np.pi)
    return k[np.ix_(ax, ay)]


def solve_free_space(rhs: ScalarField) -> PoissonResult:
    """Convolve the rhs with the free-space Green function G = (1/2pi) log|x|.

    The quadrature is the midpoint rule per source cell with the exact
    log integral on the singular self-cell; the discrete sum is a
    (non-circular) linear convolution, with the kernel built only at the
    offsets from the grid to the bounding box of the rhs's nonzero
    samples, the only ones the sum reaches.  The rhs must be compact in
    the r1 disc.
    """
    if not rhs.is_compact():
        raise ConfigError("free-space recovery needs an rhs compact in the r1 disc")
    grid = rhs.grid
    v = rhs.values
    rows, cols = np.flatnonzero(v.any(axis=1)), np.flatnonzero(v.any(axis=0))
    if rows.size == 0:
        return PoissonResult(ScalarField(grid, np.zeros_like(v)), 0, 0.0)
    # offsets from every grid sample to the support's bounding box
    k = log_kernel(grid.h, np.arange(rows[0] - (grid.nx - 1), rows[-1] + 1),
                   np.arange(cols[0] - (grid.ny - 1), cols[-1] + 1))
    out = correlate(v, k, (grid.nx - 1 - rows[0], grid.ny - 1 - cols[0]))
    return PoissonResult(ScalarField(grid, out), 0, 0.0)
