"""Grid derivatives (the D_u D_v stencil and the Laplacians from div and
curl), bilinear field sampling and FFT correlation with a shift-invariant
kernel.

Derivatives use 2nd-order central differences in the interior and
2nd-order one-sided stencils at grid edges (the np.gradient stencils).
"""

from __future__ import annotations

import numpy as np
from numpy.fft import irfftn, rfftn

from .errors import ConfigError
from .fields import Grid2D, ScalarField


def bilinear(grid: Grid2D, values: np.ndarray, px, py):
    """Bilinear interpolation of grid samples; zero outside the grid square."""
    gx = (np.asarray(px, dtype=float) - grid.origin[0]) / grid.h
    gy = (np.asarray(py, dtype=float) - grid.origin[1]) / grid.h
    inside = (gx >= 0) & (gx <= grid.nx - 1) & (gy >= 0) & (gy <= grid.ny - 1)
    ic = np.clip(np.floor(gx).astype(np.int64), 0, grid.nx - 2)
    jc = np.clip(np.floor(gy).astype(np.int64), 0, grid.ny - 2)
    fx = gx - ic
    fy = gy - jc
    ny, flat = values.shape[1], values.reshape(-1)
    k = ic * ny + jc  # flat index of corner (i, j)
    v00, v10, v01, v11 = (flat.take(k + o) for o in (0, ny, 1, ny + 1))
    out = (
        (1.0 - fx) * (1.0 - fy) * v00
        + fx * (1.0 - fy) * v10
        + (1.0 - fx) * fy * v01
        + fx * fy * v11
    )
    return np.where(inside, out, 0.0)


def fast_len(n):
    """The least 5-smooth integer >= n (a length numpy's FFT runs fast)."""
    while True:
        k = n
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return n
        n += 1


def correlate(values, kernel, center):
    """out[i, j] = sum_{a, b} kernel[a, b] * values[i + a - ca, j + b - cb]
    at every sample of ``values``, which counts as zero beyond the array;
    ``center`` = (ca, cb) is the kernel index of the zero offset and must
    lie inside the kernel.

    Evaluated as one zero-padded real FFT product, O(N^2 log N).  Per axis
    it wraps with period fast_len(n + max(c, k - 1 - c)), which keeps the
    wrap-around off every output sample, so a centred kernel pads less
    than a one-sided one; a longer kernel is cut to that period, which
    drops only taps that reach no sample.
    """
    if not all(0 <= c < k for c, k in zip(center, kernel.shape)):
        raise ValueError(f"kernel center {center} outside kernel of shape {kernel.shape}")
    shape = [fast_len(n + max(c, k - 1 - c))
             for n, k, c in zip(values.shape, kernel.shape, center)]
    # correlating with the kernel is convolving with its mirror image
    spec = rfftn(values, shape, (0, 1)) * rfftn(kernel[::-1, ::-1], shape, (0, 1))
    full = irfftn(spec, shape, (0, 1))
    i0, j0 = (k - 1 - c for k, c in zip(kernel.shape, center))
    return full[i0:i0 + values.shape[0], j0:j0 + values.shape[1]]


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
    lap1 = partial_x(d.values, g.h) - partial_y(c.values, g.h)
    lap2 = partial_y(d.values, g.h) + partial_x(c.values, g.h)
    return ScalarField(g, lap1), ScalarField(g, lap2)
