"""Uniform Cartesian grids and sampled scalar / vector fields.

The computational domain is a square that contains the closed disc of
radius ``r2``; the unknown fields live in the smaller open disc of radius
``r1``.  Sample ``(i, j)`` of a field sits at
``(origin_x + i*h, origin_y + j*h)``, so arrays are indexed ``[ix, iy]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GeometryError

# "vanishes" for compact-support checks: |value| <= SUPPORT_RTOL * max|field|
SUPPORT_RTOL = 1e-12

# minimum |det2(v, u)| for a usable direction pair
MIN_DET = 1e-8


def perp(x):
    """Rotate a 2-vector by +90 degrees: (x1, x2) -> (-x2, x1)."""
    x = np.asarray(x, dtype=float)
    return np.array([-x[1], x[0]])


def det2(v, u):
    """det(v, u) = v1*u2 - u1*v2 = u . perp(v)."""
    return v[0] * u[1] - u[0] * v[1]


def unit_vector(d):
    """Validate and return ``d`` as a unit 2-vector."""
    d = np.asarray(d, dtype=float)
    if d.shape != (2,):
        raise GeometryError(f"direction must be a 2-vector, got shape {d.shape}")
    n = float(np.hypot(d[0], d[1]))
    if abs(n - 1.0) > 1e-12:
        raise GeometryError(f"direction must be unit length, |d| = {n!r}")
    return d


def direction(angle):
    """Unit vector at the given angle (radians)."""
    return np.array([np.cos(angle), np.sin(angle)])


@dataclass(frozen=True)
class Grid2D:
    """Uniform square-cell grid covering the closed disc of radius r2."""

    nx: int
    ny: int
    h: float
    origin: tuple
    r1: float
    r2: float

    def __post_init__(self):
        if self.h <= 0:
            raise ConfigError("grid spacing must be positive")
        if self.nx < 16 or self.ny < 16:
            raise ConfigError("grids need at least 16 samples per axis")
        if not 0 < self.r1 < self.r2:
            raise ConfigError("need 0 < r1 < r2")
        x0, y0 = self.origin
        x1 = x0 + (self.nx - 1) * self.h
        y1 = y0 + (self.ny - 1) * self.h
        if x0 > -self.r2 or y0 > -self.r2 or x1 < self.r2 or y1 < self.r2:
            raise ConfigError("grid square does not contain the disc of radius r2")

    @classmethod
    def centered(cls, nx, r1, r2):
        """Origin-centered nx-by-nx grid whose square exceeds the r2 disc by
        ~4 cells.

        The margin leaves room for the strip-constancy sampling ring used
        when transform data is extended beyond the r2 disc.
        """
        if nx < 16:
            raise ConfigError("grids need at least 16 samples per axis")
        h = 2.0 * r2 / (nx - 9)
        origin = (-(nx - 1) * h / 2.0, -(nx - 1) * h / 2.0)
        return cls(nx=nx, ny=nx, h=h, origin=origin, r1=r1, r2=r2)

    def xs(self):
        return self.origin[0] + self.h * np.arange(self.nx)

    def ys(self):
        return self.origin[1] + self.h * np.arange(self.ny)

    def mesh(self):
        return np.meshgrid(self.xs(), self.ys(), indexing="ij")

    def rr(self):
        """Distance of every sample from the origin."""
        return np.hypot(self.xs()[:, None], self.ys()[None, :])

    def disc_mask(self, radius):
        return self.rr() <= radius

    def same_layout(self, other):
        return (
            self.nx == other.nx
            and self.ny == other.ny
            and np.isclose(self.h, other.h)
            and np.allclose(self.origin, other.origin)
        )


def _check_values(grid, values, ncomp=None):
    """Validated read-only copy of samples shaped (nx, ny), or (ncomp, nx, ny)."""
    values = np.array(values, dtype=float)
    shape = (grid.nx, grid.ny) if ncomp is None else (ncomp, grid.nx, grid.ny)
    if values.shape != shape:
        raise ConfigError(f"field shape {values.shape} does not match {shape}")
    if not np.all(np.isfinite(values)):
        raise ConfigError("field contains non-finite samples")
    values.flags.writeable = False
    return values


@dataclass(frozen=True)
class ScalarField:
    grid: Grid2D
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _check_values(self.grid, self.values))

    def max_norm(self):
        return float(np.max(np.abs(self.values)))

    def is_compact(self):
        """True if the field vanishes (relative to its max-norm) outside r1."""
        outside = ~self.grid.disc_mask(self.grid.r1)
        scale = self.max_norm()
        if scale == 0.0:
            return True
        return float(np.max(np.abs(self.values[outside]), initial=0.0)) <= SUPPORT_RTOL * scale


@dataclass(frozen=True)
class VectorField:
    grid: Grid2D
    f1: np.ndarray
    f2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "f1", _check_values(self.grid, self.f1))
        object.__setattr__(self, "f2", _check_values(self.grid, self.f2))

    def perp(self):
        """Samplewise (f1, f2) -> (-f2, f1)."""
        return VectorField(self.grid, -self.f2, self.f1)

    def dot(self, d):
        """Inner product with a constant 2-vector, as a ScalarField."""
        return ScalarField(self.grid, d[0] * self.f1 + d[1] * self.f2)

    def max_norm(self):
        return float(np.max(np.hypot(self.f1, self.f2)))

    def is_compact(self):
        return (
            ScalarField(self.grid, self.f1).is_compact()
            and ScalarField(self.grid, self.f2).is_compact()
        )


TRANSFORM_KINDS = ("L", "T", "I", "J", "Ts", "S")


@dataclass(frozen=True)
class TransformField:
    """Sampled transform data over the grid square (covers the r2 disc).

    ``values`` is (nx, ny) for scalar-valued transforms and (2, nx, ny)
    for the vector-valued star transform.
    """

    grid: Grid2D
    values: np.ndarray
    kind: str

    def __post_init__(self):
        if self.kind not in TRANSFORM_KINDS:
            raise ConfigError(f"unknown transform kind {self.kind!r}")
        shape = np.shape(self.values)
        if len(shape) not in (2, 3) or len(shape) == 3 and shape[0] != 2:
            raise ConfigError(f"transform values have bad shape {shape}")
        ncomp = shape[0] if len(shape) == 3 else None
        object.__setattr__(self, "values",
                           _check_values(self.grid, self.values, ncomp))

    @property
    def ncomp(self):
        return 1 if self.values.ndim == 2 else self.values.shape[0]

    def component(self, k):
        return self.values if self.values.ndim == 2 else self.values[k]


class RayGeometry:
    """Support analysis shared by every fan of unit ray directions shot
    from each vertex (the V-line pair, the star); subclasses expose the
    directions as the tuple ``rays``."""

    def required_r2(self, r1):
        """Smallest r2 so a vertex outside the r2 disc shoots at most one
        ray through the r1 disc: r1 / min over ray pairs of sin(theta/2)."""
        smin = 1.0
        for i in range(len(self.rays)):
            for j in range(i + 1, len(self.rays)):
                c = float(np.clip(np.dot(self.rays[i], self.rays[j]),
                                  -1.0, 1.0))
                smin = min(smin, np.sqrt((1.0 - c) / 2.0))
        return r1 / smin

    def check_grid(self, grid):
        if grid.r2 < self.required_r2(grid.r1) - 1e-9:
            raise GeometryError(
                f"grid r2 = {grid.r2:.6g} is below the "
                f"{type(self).__name__} requirement "
                f"{self.required_r2(grid.r1):.6g}"
            )


@dataclass(frozen=True)
class VLineGeometry(RayGeometry):
    """The fixed ray-direction pair (u, v) shared by all V-lines."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "u", unit_vector(self.u))
        object.__setattr__(self, "v", unit_vector(self.v))
        if abs(det2(self.v, self.u)) < MIN_DET:
            raise GeometryError("u and v must be linearly independent")

    @property
    def det(self):
        return det2(self.v, self.u)

    @property
    def w(self):
        """Unit vector along v - u (inversion ray direction)."""
        d = self.v - self.u
        n = float(np.hypot(d[0], d[1]))
        if n < MIN_DET:
            raise GeometryError("u = v: degenerate V-line geometry")
        return d / n

    @property
    def norm_vu(self):
        d = self.v - self.u
        return float(np.hypot(d[0], d[1]))

    @property
    def rays(self):
        return (self.u, self.v)


def grid_for_vline(nx, r1, geom):
    """Centered grid sized so the support analysis of ``geom`` holds; serves
    any RayGeometry (``grid_for_star`` is the same function)."""
    return Grid2D.centered(nx, r1, geom.required_r2(r1))
