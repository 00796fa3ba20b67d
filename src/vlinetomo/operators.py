"""Grid derivatives (the D_u D_v stencil and the Laplacians from div and
curl), bilinear field sampling and FFT correlation with a shift-invariant
kernel (``correlate``: the free-space solve and every beam off a grid axis).

Derivatives use 2nd-order central differences in the interior and
1st-order one-sided differences at array edges (np.gradient's default).
"""

from __future__ import annotations

import numpy as np
from numpy.fft import fft, ifft, irfft, rfft

from .errors import ConfigError
from .fields import Grid2D, ScalarField


def bilinear(grid: Grid2D, values: np.ndarray, px, py):
    """Bilinear interpolation of grid samples; zero outside the grid square."""
    ny, flat = values.shape[1], values.reshape(-1)

    def corners(ic, jc):
        k = ic * ny + jc  # flat index of corner (i, j)
        return (flat.take(k + o) for o in (0, ny, 1, ny + 1))

    return _bilinear(grid, px, py, corners)


def _bilinear(grid, px, py, corners):
    """``bilinear`` with the samples read by ``corners(ic, jc)``: the values
    at the cell corners (ic, jc), (ic + 1, jc), (ic, jc + 1) and
    (ic + 1, jc + 1), each shaped (..., len(px))."""
    gx = (np.asarray(px, dtype=float) - grid.origin[0]) / grid.h
    gy = (np.asarray(py, dtype=float) - grid.origin[1]) / grid.h
    inside = (gx >= 0) & (gx <= grid.nx - 1) & (gy >= 0) & (gy <= grid.ny - 1)
    ic = np.clip(np.floor(gx).astype(np.int64), 0, grid.nx - 2)
    jc = np.clip(np.floor(gy).astype(np.int64), 0, grid.ny - 2)
    fx = gx - ic
    fy = gy - jc
    v00, v10, v01, v11 = corners(ic, jc)
    out = (
        (1.0 - fx) * (1.0 - fy) * v00
        + fx * (1.0 - fy) * v10
        + (1.0 - fx) * fy * v01
        + fx * fy * v11
    )
    return np.where(inside, out, 0.0)


def fast_len(n, primes=(2, 3, 5)):
    """The least integer >= n with no prime factor but ``primes`` (by
    default 5-smooth, a length numpy's FFT runs fast)."""
    while True:
        k = n
        for p in primes:
            while k % p == 0:
                k //= p
        if k == 1:
            return n
        n += 1


def _rfft2(x, shape, axes):
    """rfftn(x, shape, axes) over two axes, as an rfft along the last axis
    and an fft along the first (numpy's rfftn takes longer)."""
    return fft(rfft(x, shape[1], axes[1]), shape[0], axes[0])


def correlate(part, corner, shape, kernel, center):
    """out[i, j] = sum_{a, b} kernel[a, b] * values[i + a - ca, j + b - cb]
    at every sample of an array ``values`` of ``shape`` that is zero but for
    the box ``part`` (inside it), whose first sample is values[corner];
    ``center`` = (ca, cb) is the kernel index of the zero offset and must
    lie inside the kernel.

    Evaluated as one zero-padded FFT product of the box with the mirrored
    kernel, O(N^2 log N).  Only the output rows and columns the kernel
    reaches from the box are computed (the rest are 0), and per axis the
    period is the least ``fast_len`` that keeps the wrap-around off them.
    The inverse runs its second pass on the kept rows only.
    """
    if not all(0 <= c < k for c, k in zip(center, kernel.shape)):
        raise ValueError(f"kernel center {center} outside kernel of shape {kernel.shape}")
    # per axis, the output rows (columns) start..stop that the kernel
    # reaches from the box, and where they sit in conv(part, mirrored
    # kernel): out[i] = conv[i - corner + top], top the farthest offset
    top = [k - 1 - c for k, c in zip(kernel.shape, center)]
    start = [max(0, a - t) for a, t in zip(corner, top)]
    stop = [min(n, a + m + c) for n, a, m, c in zip(shape, corner, part.shape, center)]
    keep = [slice(s - a + t, e - a + t) for s, e, a, t in zip(start, stop, corner, top)]
    fft_shape = [fast_len(max(keep[a].stop, part.shape[a] + kernel.shape[a] - 1 - keep[a].start))
                 for a in (0, 1)]
    # correlating with the kernel is convolving with its mirror image
    spec = _rfft2(part, fft_shape, (0, 1)) * _rfft2(kernel[::-1, ::-1], fft_shape, (0, 1))
    spec = ifft(spec, fft_shape[0], 0)[keep[0]]
    out = np.zeros(shape)
    out[start[0]:stop[0], start[1]:stop[1]] = irfft(spec, fft_shape[1], 1)[:, keep[1]]
    return out


def disc_window(grid: Grid2D, reach):
    """``grid.disc_box()``'s slices grown by ``reach`` samples, clipped at the
    grid's edge (numpy clips a stop): a stencil of that reach reads these only."""
    rows, cols, _ = grid.disc_box()
    return tuple(slice(max(s.start - reach, 0), s.stop + reach) for s in (rows, cols))


def partial_x(values, h):
    return np.gradient(values, h, axis=0)


def partial_y(values, h):
    return np.gradient(values, h, axis=1)


def mixed_partial(values, u, v, h):
    """D_u D_v = sum_ij u_i v_j d_i d_j of grid samples, as an (nx, ny) array.

    The chain rule on the grid: each d_i is ``partial_x`` / ``partial_y``,
    so the composed stencil reaches two cells, is second-order accurate
    for every pair of directions and exact on quadratics.
    """
    dv = v[0] * partial_x(values, h) + v[1] * partial_y(values, h)
    return u[0] * partial_x(dv, h) + u[1] * partial_y(dv, h)


def laplacians_from_div_curl(d: ScalarField, c: ScalarField):
    """(Lap f1, Lap f2) = (d1 div - d2 curl, d2 div + d1 curl).

    Inputs are the divergence and curl of the field whose componentwise
    Laplacians are wanted.
    """
    if not d.grid.same_layout(c.grid):
        raise ConfigError("div and curl fields must share a grid")
    g = d.grid
    laps = _laplacians(d.values, c.values, g.h)
    return tuple(ScalarField._adopt(g, lap) for lap in laps)


def _laplacians(d, c, h):
    """``laplacians_from_div_curl`` of the div and curl samples d and c."""
    return partial_x(d, h) - partial_y(c, h), partial_y(d, h) + partial_x(c, h)
