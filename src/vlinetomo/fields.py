"""Uniform Cartesian grids, sampled scalar / vector fields, and the one ray
geometry, ``StarGeometry``, whose two-ray case is ``VLineGeometry``.

The computational domain is a square that contains the closed disc of
radius ``r2``; the unknown fields live in the smaller open disc of radius
``r1``, whose rows and columns ``Grid2D.disc_box`` gives.  Sample ``(i, j)``
sits at ``(origin_x + i*h, origin_y + j*h)``; arrays are indexed ``[ix, iy]``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, GeometryError

# "vanishes" for compact-support checks: |value| <= SUPPORT_RTOL * max|field|
SUPPORT_RTOL = 1e-12

# minimum |det2(v, u)| for a usable direction pair
MIN_DET = 1e-8
# rays closer than this coincide; also star.classify's pairing tolerance
PAIR_TOL = 1e-10


def perp(x):
    """Rotate a 2-vector by +90 degrees: (x1, x2) -> (-x2, x1)."""
    x = np.asarray(x, dtype=float)
    return np.array([-x[1], x[0]])


def det2(v, u):
    """det(v, u) = v1*u2 - u1*v2 = u . perp(v)."""
    return v[0] * u[1] - u[0] * v[1]


def unit_vector(d):
    """Validate ``d`` and return it as a read-only unit 2-vector copy."""
    d = np.array(d, dtype=float)
    if d.shape != (2,):
        raise GeometryError(f"direction must be a 2-vector, got shape {d.shape}")
    n = float(np.hypot(d[0], d[1]))
    if not abs(n - 1.0) <= 1e-12:  # also rejects non-finite components
        raise GeometryError(f"non-unit or non-finite direction, |d| = {n!r}")
    d.flags.writeable = False
    return d


def direction(angle):
    """Unit vector at the given angle (radians)."""
    return np.array([np.cos(angle), np.sin(angle)])


def lines(mask):
    """The slice from the first to the last True of a 1-D mask (empty for none)."""
    i = np.flatnonzero(mask)
    return slice(int(i[0]), int(i[-1]) + 1) if i.size else slice(0, 0)


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
        object.__setattr__(self, "origin", tuple(float(c) for c in self.origin))
        if self.h <= 0:
            raise ConfigError("grid spacing must be positive")
        if self.nx < 16 or self.ny < 16:
            raise ConfigError("grids need at least 16 samples per axis")
        far = (self.origin[0] + (self.nx - 1) * self.h,
               self.origin[1] + (self.ny - 1) * self.h)
        if not np.all(np.isfinite((self.h, self.r1, self.r2) + self.origin + far)):
            raise ConfigError("grid spacing, corners and radii must be finite")
        if not 0 < self.r1 < self.r2:
            raise ConfigError("need 0 < r1 < r2")
        if not self.holds_disc(self.r2):
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

    def holds_disc(self, radius):
        """True if the grid square contains the closed disc of this radius
        about the origin."""
        x0, y0 = self.origin
        x1 = x0 + (self.nx - 1) * self.h
        y1 = y0 + (self.ny - 1) * self.h
        return x0 <= -radius and y0 <= -radius and x1 >= radius and y1 >= radius

    def xs(self):
        return self.origin[0] + self.h * np.arange(self.nx)

    def ys(self):
        return self.origin[1] + self.h * np.arange(self.ny)

    def mesh(self):
        return np.meshgrid(self.xs(), self.ys(), indexing="ij")

    def rr(self):
        """Distance of every sample from the origin, as one read-only array
        computed on the first call."""
        rr = self.__dict__.get("_rr")
        if rr is None:
            rr = np.hypot(self.xs()[:, None], self.ys()[None, :])
            rr.flags.writeable = False
            object.__setattr__(self, "_rr", rr)
        return rr

    def disc_box(self):
        """(rows, cols, rr): the slices of the rows and columns that hold a
        sample of the r1 disc, and ``rr()`` on that box only, as one
        read-only array computed on the first call.  Every output path finds
        the disc here; a grid with no sample in the disc has an empty box."""
        box = self.__dict__.get("_disc_box")
        if box is None:
            xs, ys = self.xs(), self.ys()
            rows = lines(np.hypot(xs, np.abs(ys).min()) <= self.r1)
            cols = lines(np.hypot(ys, np.abs(xs).min()) <= self.r1)
            rr = np.hypot(xs[rows][:, None], ys[cols][None, :])
            rr.flags.writeable = False
            box = (rows, cols, rr)
            object.__setattr__(self, "_disc_box", box)
        return box

    def disc_mask(self, radius):
        return self.rr() <= radius

    def same_layout(self, other):
        """Same sample counts, and spacing, origin and radii equal to a
        relative 1e-9 (none is 0: the square holds the r2 disc about 0)."""
        mine = (self.h, self.r1, self.r2) + self.origin
        theirs = (other.h, other.r1, other.r2) + other.origin
        return (self.nx == other.nx and self.ny == other.ny
                and np.allclose(mine, theirs, rtol=1e-9, atol=0.0))


def _check_values(grid, values):
    """``values`` as read-only float samples shaped (nx, ny): the array
    itself when it is one already, else a converted copy."""
    values = np.asarray(values, dtype=float)
    shape = (grid.nx, grid.ny)
    if values.shape != shape:
        raise ConfigError(f"field shape {values.shape} does not match {shape}")
    # min and max are NaN if any sample is, and need no array of flags
    if not (np.isfinite(values.min()) and np.isfinite(values.max())):
        raise ConfigError("field contains non-finite samples")
    values.flags.writeable = False
    return values


class _Samples:
    """The checks shared by ScalarField and VectorField, whose fields after
    ``grid`` are (nx, ny) sample arrays: the constructor keeps validated
    read-only copies of them."""

    def __post_init__(self):
        for f in fields(self)[1:]:
            object.__setattr__(self, f.name, _check_values(
                self.grid, np.array(getattr(self, f.name), dtype=float)))

    @classmethod
    def _adopt(cls, grid, *arrays):
        """The constructor without its copies, for float arrays the library
        has just built and writes no more (never views of a writable base):
        the same checks, and the arrays themselves become read-only."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "grid", grid)
        for f, values in zip(fields(cls)[1:], arrays, strict=True):
            object.__setattr__(obj, f.name, _check_values(grid, values))
        return obj


@dataclass(frozen=True)
class ScalarField(_Samples):
    grid: Grid2D
    values: np.ndarray

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
class VectorField(_Samples):
    grid: Grid2D
    f1: np.ndarray
    f2: np.ndarray

    def perp(self):
        """Samplewise (f1, f2) -> (-f2, f1)."""
        return VectorField(self.grid, -self.f2, self.f1)

    def rotated(self):
        """R f = (f2, -f1) = -perp(f), so that (R f).d = f.perp(d)."""
        return VectorField(self.grid, self.f2, -self.f1)

    def dot(self, d):
        """Inner product with a constant 2-vector, as a ScalarField."""
        return ScalarField(self.grid, d[0] * self.f1 + d[1] * self.f2)

    def max_norm(self):
        return float(np.max(np.hypot(self.f1, self.f2)))

    def is_compact(self):
        return all(ScalarField(self.grid, c).is_compact() for c in (self.f1, self.f2))


def strip_bound(dirs, r1):
    """Smallest r2 so a vertex outside the r2 disc shoots at most one of
    the rays ``dirs`` through the r1 disc: r1 / min over ray pairs of
    sin(theta/2), and r1 for fewer than two rays."""
    c = max([-1.0] + [float(np.dot(a, b))
                      for i, a in enumerate(dirs) for b in dirs[i + 1:]])
    smin = np.sqrt((1.0 - min(c, 1.0)) / 2.0)
    return r1 / smin if smin > 0.0 else np.inf


def check_strip_bound(grid, dirs, what):
    """Raise GeometryError, naming ``what``, when grid.r2 is below
    ``strip_bound(dirs, grid.r1)``: beyond r2 the strips would overlap."""
    bound = strip_bound(dirs, grid.r1)
    if grid.r2 < bound - 1e-9:
        raise GeometryError(f"grid r2 = {grid.r2:.6g} is below the {what} "
                            f"requirement {bound:.6g}")


@dataclass(frozen=True, eq=False)
class StarGeometry:
    """Ray directions gamma_1..gamma_m and nonzero weights c_1..c_m.

    Two geometries of the same class are equal when their directions and
    weights are equal as floats, and hash by those floats, so either class
    can key a dict."""

    gammas: tuple
    weights: tuple

    def __post_init__(self):
        gammas = tuple(unit_vector(g) for g in self.gammas)
        weights = tuple(float(c) for c in self.weights)
        if len(gammas) != len(weights):
            raise ConfigError("need one weight per ray direction")
        if len(gammas) < 2:
            raise ConfigError("a star needs at least 2 rays")
        if not all(np.isfinite(c) and c != 0.0 for c in weights):
            raise ConfigError("star weights must be finite and nonzero")
        for i in range(len(gammas)):
            for j in range(i + 1, len(gammas)):
                if np.hypot(*(gammas[i] - gammas[j])) < PAIR_TOL:
                    raise ConfigError(f"ray directions {i} and {j} coincide")
        object.__setattr__(self, "gammas", gammas)
        object.__setattr__(self, "weights", weights)

    def _key(self):
        return tuple(map(tuple, self.gammas)), self.weights

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def m(self):
        return len(self.gammas)

    @property
    def rays(self):
        return self.gammas

    def terms(self, f):
        """The ``ray_sum`` terms (f.g_i, g_i, c_i) of sum_i c_i X_{g_i}(f.g_i)."""
        return [(f.dot(g), g, c) for g, c in zip(self.gammas, self.weights)]

    def required_r2(self, r1):
        """``strip_bound`` of the rays."""
        return strip_bound(self.gammas, r1)

    def check_grid(self, grid):
        check_strip_bound(grid, self.gammas, type(self).__name__)


class VLineGeometry(StarGeometry):
    """The ray pair (u, v) of every V-line: the star (u, v; -1, +1)."""

    def __init__(self, u, v):
        u, v = unit_vector(u), unit_vector(v)
        if abs(det2(v, u)) < MIN_DET:
            raise GeometryError("u and v must be linearly independent")
        super().__init__((u, v), (-1.0, 1.0))

    @property
    def u(self):
        return self.gammas[0]

    @property
    def v(self):
        return self.gammas[1]

    @property
    def det(self):
        return det2(self.v, self.u)

    @property
    def w(self):
        """Unit vector along v - u (inversion ray direction); never 0/0:
        construction rejects |det(v, u)| < MIN_DET, and |det(v, u)| <= |v - u|."""
        return (self.v - self.u) / self.norm_vu

    @property
    def norm_vu(self):
        d = self.v - self.u
        return float(np.hypot(d[0], d[1]))


def grid_for_vline(nx, r1, geom):
    """Centered grid sized so the support analysis of ``geom`` holds; serves
    any StarGeometry (``grid_for_star`` is the same function)."""
    return Grid2D.centered(nx, r1, geom.required_r2(r1))
