"""Discrete vector-calculus operators and bilinear field sampling.

Derivatives use 2nd-order central differences in the interior and
2nd-order one-sided stencils at grid edges (the np.gradient stencils).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fields import Grid2D, ScalarField, VectorField, unit_vector


def bilinear(grid: Grid2D, values: np.ndarray, px, py):
    """Bilinear interpolation of grid samples; zero outside the grid square."""
    gx = (np.asarray(px, dtype=float) - grid.origin[0]) / grid.h
    gy = (np.asarray(py, dtype=float) - grid.origin[1]) / grid.h
    i = np.floor(gx).astype(np.int64)
    j = np.floor(gy).astype(np.int64)
    inside = (i >= 0) & (i <= grid.nx - 2) & (j >= 0) & (j <= grid.ny - 2)
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


def rhombus_stencil(sample, points, geom, h):
    """D_u D_v S at (n, 2) points by the centered rhombus stencil.

    With delta = 2h, a = (delta/2)(u+v) and b = (delta/2)(u-v):
        [S(x+a) - S(x+b) - S(x-b) + S(x-a)] / delta^2 -> D_u D_v S,
    second-order accurate.  ``sample`` maps a (4n, 2) array of points to
    the values of S there and is called once with all four corner sets.
    """
    delta = 2.0 * h
    a = 0.5 * delta * (geom.u + geom.v)
    b = 0.5 * delta * (geom.u - geom.v)
    s = sample(np.concatenate([points + a, points + b, points - b, points - a]))
    n = len(points)
    return (s[:n] - s[n:2 * n] - s[2 * n:3 * n] + s[3 * n:]) / delta**2


def partial_x(values, h):
    return np.gradient(values, h, axis=0)


def partial_y(values, h):
    return np.gradient(values, h, axis=1)


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
