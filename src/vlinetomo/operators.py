"""Discrete vector-calculus operators, bilinear field sampling and
FFT correlation with a shift-invariant kernel.

Derivatives use 2nd-order central differences in the interior and
2nd-order one-sided stencils at grid edges (the np.gradient stencils).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import irfft2, next_fast_len, rfft2

from .errors import ConfigError
from .fields import Grid2D, ScalarField, VectorField, unit_vector


def bilinear(grid: Grid2D, values: np.ndarray, px, py):
    """Bilinear interpolation of grid samples; zero outside the grid square."""
    gx = (np.asarray(px, dtype=float) - grid.origin[0]) / grid.h
    gy = (np.asarray(py, dtype=float) - grid.origin[1]) / grid.h
    i = np.floor(gx).astype(np.int64)
    j = np.floor(gy).astype(np.int64)
    inside = (gx >= 0) & (gx <= grid.nx - 1) & (gy >= 0) & (gy <= grid.ny - 1)
    ic = np.clip(i, 0, grid.nx - 2)
    jc = np.clip(j, 0, grid.ny - 2)
    fx = gx - ic
    fy = gy - jc
    v00 = values[ic, jc]
    v10 = values[ic + 1, jc]
    v01 = values[ic, jc + 1]
    v11 = values[ic + 1, jc + 1]
    out = (
        (1.0 - fx) * (1.0 - fy) * v00
        + fx * (1.0 - fy) * v10
        + (1.0 - fx) * fy * v01
        + fx * fy * v11
    )
    return np.where(inside, out, 0.0)


def correlate(values, kernel, center):
    """out[i, j] = sum_{a, b} kernel[a, b] * values[i + a - ca, j + b - cb]
    at every sample of ``values``, which counts as zero beyond the array;
    ``center`` = (ca, cb) is the kernel index of the zero offset and must
    lie inside the kernel.

    Evaluated as one zero-padded real FFT product (linear, not circular),
    O(N^2 log N) for any kernel no larger than the padded array.
    """
    nx, ny = values.shape
    kx, ky = kernel.shape
    if not (0 <= center[0] < kx and 0 <= center[1] < ky):
        raise ValueError(f"kernel center {center} outside kernel of shape {kernel.shape}")
    shape = (next_fast_len(nx + kx - 1, real=True),
             next_fast_len(ny + ky - 1, real=True))
    # correlating with the kernel is convolving with its mirror image
    spec = rfft2(values, shape) * rfft2(kernel[::-1, ::-1], shape)
    full = irfft2(spec, shape)
    i0, j0 = kx - 1 - center[0], ky - 1 - center[1]
    return full[i0:i0 + nx, j0:j0 + ny]


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


def directional_derivative(hfield: ScalarField, d) -> ScalarField:
    """D_d h = d . grad h."""
    d = unit_vector(d)
    g = hfield.grid
    vals = d[0] * partial_x(hfield.values, g.h) + d[1] * partial_y(hfield.values, g.h)
    return ScalarField(g, vals)


def divergence(f: VectorField) -> ScalarField:
    g = f.grid
    return ScalarField(g, partial_x(f.f1, g.h) + partial_y(f.f2, g.h))


def curl(f: VectorField) -> ScalarField:
    """Planar curl: d(f2)/dx1 - d(f1)/dx2."""
    g = f.grid
    return ScalarField(g, partial_x(f.f2, g.h) - partial_y(f.f1, g.h))


def gradient(hfield: ScalarField) -> VectorField:
    g = hfield.grid
    return VectorField(g, partial_x(hfield.values, g.h), partial_y(hfield.values, g.h))


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


@dataclass(frozen=True)
class HelmholtzParts:
    """Unique split f = solenoidal + grad(potential_V), V = 0 on the r1 circle."""

    solenoidal: VectorField
    potential_V: ScalarField


def helmholtz_decompose(f: VectorField) -> HelmholtzParts:
    """Solve Lap V = div f with V = 0 on the r1 disc boundary; f_s = f - grad V."""
    from .poisson import PoissonProblem, solve_dirichlet_disc

    d = divergence(f)
    res = solve_dirichlet_disc(PoissonProblem(rhs=d, mode="dirichlet_disc", radius=f.grid.r1))
    gv = gradient(res.field)
    fs = VectorField(f.grid, f.f1 - gv.f1, f.f2 - gv.f2)
    return HelmholtzParts(solenoidal=fs, potential_V=res.field)
