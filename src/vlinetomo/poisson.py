"""Elliptic solvers: Dirichlet problem on the r1 disc (one fast-Poisson
solve on a box around the disc, by real-FFT sine transforms, minus the
harmonic function with the same trace on the r1 circle) and free-space
recovery of a compactly supported function from its Laplacian (the
beams' FFT correlation, ``operators.correlate``, over the rhs support).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fields import ScalarField, VectorField, lines
from .operators import _bilinear, correlate, fast_len


@dataclass(frozen=True)
class PoissonResult:
    """Solution with its solver report.  Both solvers are direct, so
    ``iterations`` is 0; ``residual`` is the share ||g_k, k > K|| / ||g||
    of the Dirichlet solve's boundary trace that its harmonic correction
    drops, the larger one of a two-component rhs (0 for the free-space
    convolution)."""

    field: ScalarField | VectorField
    iterations: int
    residual: float


def _dst_box(tight):
    """Corner and shape of the box the Dirichlet solve inverts the 5-point
    Laplacian on, centred on the grid box ``tight`` (slices of rows and
    columns): per axis its span plus one zero row at each end, n, grown to
    the least m >= n with m + 1 7-smooth (the DST-I runs an FFT of length
    2 (m + 1)) and m - n even, half of the growth at each end, so that a
    centred disc stays centred.  The box may pass the grid's edge."""
    lo, shape = [], []
    for s in tight:
        n = s.stop - s.start + 2
        m = fast_len(n + 1, (2, 3, 5, 7)) - 1
        while (m - n) % 2:
            m = fast_len(m + 2, (2, 3, 5, 7)) - 1
        lo.append(s.start - 1 - (m - n) // 2)
        shape.append(m)
    return tuple(lo), tuple(shape)


def _half_sine(x, pad, spec):
    """Half-scaled DST-I along the last axis, negated:
    -sum_j x_j sin(pi j k / (n + 1)) for k = 1..n, as Im rfft([0, x, 0, ...,
    0]) of length 2 (n + 1) in the buffers ``pad`` (zero beyond x) and
    ``spec``; returns a view of spec."""
    n = x.shape[-1]
    pad[..., 1:n + 1] = x
    np.fft.rfft(pad, axis=-1, out=spec)
    return spec.imag[..., 1:n + 1]


def _box_solve(r):
    """The exact inverse of h^2 (-Lap), the 5-point stencil on the box of
    the last two axes of r with zeros beyond it, applied to each box of r:
    four ``_half_sine`` passes over rows of the box or of its transpose
    (the signs cancel) with the scaled inverse eigenvalues in between."""
    *batch, n0, n1 = r.shape
    shape = (n0, n1)
    lam = [2.0 - 2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1)) for n in shape]
    # in the transposed layout of the coefficients after two passes
    inv_lam_t = 4.0 / ((n0 + 1) * (n1 + 1) * (lam[1][:, None] + lam[0][None, :]))
    bufs = {mn: (np.zeros((*batch, mn[0], 2 * mn[1] + 2)),
                 np.empty((*batch, mn[0], mn[1] + 2), dtype=complex))
            for mn in {shape, shape[::-1]}}  # one set for a square box
    box, box_t = bufs[shape], bufs[shape[::-1]]
    coef_t = _half_sine(_half_sine(r, *box).swapaxes(-1, -2), *box_t)
    coef_t *= inv_lam_t
    return _half_sine(_half_sine(coef_t, *box_t).swapaxes(-1, -2), *box)


def _circle_trace(grid, v_box, lo, m):
    """The boxes of v_box, with corner lo on the grid and zero beyond them,
    sampled bilinearly at the m points r1 (cos, sin)(2 pi k / m) of the r1
    circle: one row per box.  The circle may cross cells past a box."""

    def corners(ic, jc):
        for di, dj in ((0, 0), (1, 0), (0, 1), (1, 1)):
            i, j = ic + di - lo[0], jc + dj - lo[1]
            ok = (i >= 0) & (i < v_box.shape[1]) & (j >= 0) & (j < v_box.shape[2])
            yield np.where(ok, v_box[:, np.clip(i, 0, v_box.shape[1] - 1),
                                     np.clip(j, 0, v_box.shape[2] - 1)], 0.0)

    theta = 2.0 * np.pi * np.arange(m) / m
    return _bilinear(grid, grid.r1 * np.cos(theta), grid.r1 * np.sin(theta), corners)


def solve_dirichlet_disc(rhs: ScalarField | VectorField) -> PoissonResult:
    """Lap V = rhs on the interior of the r1 disc, V = 0 on and outside it;
    a VectorField rhs solves each component, in one batched pass.

    James's method for isolated sources with the disc's Poisson integral:
    V_box, the exact inverse of the 5-point Laplacian on a box around the
    disc samples (rr < r1, zero beyond the box) applied once to the rhs
    there, is sampled bilinearly at M points on the r1 circle, M the least
    power of two >= 4 pi r1 / h.  With g_k = rfft(trace)_k / M, the
    harmonic H = Re sum_{k <= K} c_k (z / r1)^k, c_0 = g_0 and c_k = 2 g_k,
    matches that trace, and V = V_box - H on the disc samples.  K is M / 32,
    capped at 32 for each component whose terms past 32 change V by at
    most 1e-7 of max |V_box| on the disc (the sum of their |c_k|, as
    |z| <= r1 there): on the mixed phantom they read at most 1.8e-8 of
    max |V| for the axis pair at nx = 256 and 512, whose LT, potential and
    stream errors stay equal to 7 digits, and up to 1.3e-3 for the
    u@0.35/v@2.1 pair on ``grid_for_vline``, which keeps K = M / 32.  Only
    the samples of ``Grid2D.disc_box`` are read and written.
    """
    grid = rhs.grid
    comps = [rhs.values] if isinstance(rhs, ScalarField) else [rhs.f1, rhs.f2]
    rows, cols, rr = grid.disc_box()
    inside = rr < grid.r1
    sub = lines(inside.any(axis=1)), lines(inside.any(axis=0))
    if sub[0].start == sub[0].stop:
        raise ConfigError("no grid samples inside the Dirichlet disc")
    # the disc samples' bounding box, on the grid (tight) and in the DST box
    # (at), and the disc samples in it (mask)
    tight = tuple(slice(b.start + s.start, b.start + s.stop) for b, s in zip((rows, cols), sub))
    mask = inside[sub]
    lo, shape = _dst_box(tight)
    at = tuple(slice(t.start - l, t.stop - l) for t, l in zip(tight, lo))
    r = np.zeros((len(comps),) + shape)
    for box, c in zip(r, comps):
        box[at][mask] = -c[tight][mask] * grid.h * grid.h
    if not r.any():
        return PoissonResult(type(rhs)._adopt(
            grid, *(np.zeros((grid.nx, grid.ny)) for _ in comps)), 0, 0.0)
    v_box = _box_solve(r)

    m = 1 << max(0, int(np.ceil(np.log2(4.0 * np.pi * grid.r1 / grid.h))))
    trace = _circle_trace(grid, v_box, lo, m)
    vd = v_box[(slice(None),) + at][:, mask]  # V_box on the disc samples
    # the box arrays, and below the harmonic's, go as soon as they are used,
    # so the grid-sized outputs are allocated beside none of them
    del r, v_box
    ghat = np.fft.rfft(trace, axis=-1) / m
    k = m // 32
    c = ghat[:, :k + 1] * 2.0
    c[:, 0] = ghat[:, 0]
    # each component keeps its own K: the zeros past it add nothing to the
    # batched Horner sum, which is bit for bit the scalar solve's
    ks = [min(k, 32) if np.abs(ck[33:]).sum() <= 1e-7 * np.abs(v).max() else k
          for ck, v in zip(c, vd)]
    for ck, kc in zip(c, ks):
        ck[kc + 1:] = 0.0
    c = c[:, :max(ks) + 1]
    z = (grid.xs()[tight[0]][:, None] + 1j * grid.ys()[tight[1]][None, :])[mask] / grid.r1
    harm = np.repeat(c[:, -1:], z.size, axis=1)
    for ck in c[:, -2::-1].T:  # Horner's rule
        harm *= z
        harm += ck[:, None]
    vd -= harm.real
    del z, harm
    outs = [np.zeros((grid.nx, grid.ny)) for _ in comps]
    for out, v in zip(outs, vd):
        out[tight][mask] = v
    res = max(float(np.linalg.norm(g[kc + 1:]) / np.linalg.norm(g)) if g.any() else 0.0
              for g, kc in zip(ghat, ks))
    return PoissonResult(type(rhs)._adopt(grid, *outs), 0, res)


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
    (non-circular) linear convolution, taken by ``correlate`` over the
    bounding box of the rhs's nonzero samples, with the kernel built only
    at the offsets from the grid to that box, the only ones the sum
    reaches.  The rhs must be compact in the r1 disc.
    """
    if not rhs.is_compact():
        raise ConfigError("free-space recovery needs an rhs compact in the r1 disc")
    grid = rhs.grid
    v = rhs.values
    rows, cols = lines(v.any(axis=1)), lines(v.any(axis=0))
    if rows.start == rows.stop:
        return PoissonResult(ScalarField(grid, np.zeros_like(v)), 0, 0.0)
    # offsets from every grid sample to the support's bounding box
    k = log_kernel(grid.h, np.arange(rows.start - (grid.nx - 1), rows.stop),
                   np.arange(cols.start - (grid.ny - 1), cols.stop))
    out = correlate(v[rows, cols], (rows.start, cols.start), v.shape, k,
                    (grid.nx - 1 - rows.start, grid.ny - 1 - cols.start))
    return PoissonResult(ScalarField._adopt(grid, out), 0, 0.0)
