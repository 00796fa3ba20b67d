"""Ray-integral primitives.

Divergent beam transform and its first moment (composite-midpoint
quadrature with bilinear field sampling, truncated where the ray leaves
the support disc), the signed V-line transform of a scalar function and
its closed-form inversion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._blocks import map_blocks
from .errors import ConfigError
from .fields import ScalarField, TransformField, VLineGeometry, unit_vector
from .operators import bilinear, rhombus_stencil


@dataclass(frozen=True)
class RayQuadrature:
    """Arc-length sampling of ray integrals; step defaults to h/2."""

    step: float
    interpolation: str = "bilinear"

    def __post_init__(self):
        if self.step <= 0:
            raise ConfigError("quadrature step must be positive")
        if self.interpolation != "bilinear":
            raise ConfigError("only bilinear interpolation is supported")


def _step(grid, quad):
    return grid.h / 2.0 if quad is None else quad.step


def beam_values(h: ScalarField, points, d, quad=None, moment=False, workers=1):
    """Beam integrals of a compactly supported scalar field at many vertices.

    Integrates t -> h(x + t d) (times t for the first moment) over the
    forward intersection of the ray with the r1 support disc; rays missing
    the disc give 0.
    """
    grid = h.grid
    d = unit_vector(d)
    step = _step(grid, quad)
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    out = np.zeros(len(pts))

    b = pts @ d
    disc = b * b - (pts[:, 0] ** 2 + pts[:, 1] ** 2 - grid.r1 * grid.r1)
    idx = np.nonzero(disc > 0.0)[0]
    if idx.size == 0:
        return out
    sq = np.sqrt(disc[idx])
    t0 = np.maximum(-b[idx] - sq, 0.0)
    t1 = -b[idx] + sq
    keep = t1 > t0
    idx, t0, t1 = idx[keep], t0[keep], t1[keep]
    if idx.size == 0:
        return out
    length = t1 - t0
    n = max(1, int(np.ceil(float(length.max()) / step)))
    mid = np.arange(n) + 0.5

    def block(s, e):
        dt = (length[s:e] / n)[:, None]
        t = t0[s:e, None] + mid[None, :] * dt
        px = pts[idx[s:e], 0, None] + t * d[0]
        py = pts[idx[s:e], 1, None] + t * d[1]
        vals = bilinear(grid, h.values, px, py)
        if moment:
            vals = vals * t
        return (vals.sum(axis=1)) * dt[:, 0]

    parts = map_blocks(block, idx.size, workers=workers)
    out[idx] = np.concatenate(parts) if parts else 0.0
    return out


def divergent_beam(h: ScalarField, x, d, quad=None) -> float:
    """X_d h(x) = integral of h(x + t d) over t >= 0."""
    return float(beam_values(h, np.asarray(x, dtype=float)[None, :], d, quad)[0])


def moment_beam(h: ScalarField, x, d, quad=None) -> float:
    """First moment X^1_d h(x): integrand weighted by arc length t."""
    return float(beam_values(h, np.asarray(x, dtype=float)[None, :], d, quad,
                             moment=True)[0])


def beam_field(h: ScalarField, d, quad=None, moment=False, workers=1) -> np.ndarray:
    """Beam integrals at every grid vertex, as an (nx, ny) array."""
    grid = h.grid
    xx, yy = grid.mesh()
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    vals = beam_values(h, pts, d, quad, moment=moment, workers=workers)
    return vals.reshape(grid.nx, grid.ny)


def ray_sum(terms, quad=None, moment=False, workers=1) -> np.ndarray:
    """sum_i c_i X_{d_i} h_i at every grid vertex, for (h_i, d_i, c_i) terms.

    Every V-line and star transform is such a weighted sum of beam fields
    (first moments with ``moment``).  The sum starts from the first term,
    not from zeros, and adds the terms in order, so with weights +-1 it is
    bit-identical to the written-out expression such as X_u h - X_v h.
    """
    (h, d, c), *rest = terms
    out = c * beam_field(h, d, quad, moment=moment, workers=workers)
    for h, d, c in rest:
        out += c * beam_field(h, d, quad, moment=moment, workers=workers)
    return out


def signed_vline(h: ScalarField, geom: VLineGeometry, quad=None,
                 workers=1) -> TransformField:
    """T_s h = X_u h - X_v h sampled at every grid vertex."""
    geom.check_grid(h.grid)
    vals = ray_sum(((h, geom.u, 1.0), (h, geom.v, -1.0)), quad,
                   workers=workers)
    return TransformField(h.grid, vals, "Ts")


def strip_ring_radius(grid):
    """Radius just outside the r2 disc where strip-constant values are read."""
    return grid.r2 + 2.0 * grid.h


def strip_ring_point(grid, sigma, d):
    """Where the strip along direction d reads its constant value.

    Returns (qx, qy, back): q = sigma * perp(d) - back * d is the point of
    the strip ring on the far (vertex) side of the strip, at transverse
    coordinate sigma, with back = sqrt(ring^2 - sigma^2).
    """
    ring = strip_ring_radius(grid)
    back = np.sqrt(np.maximum(ring * ring - sigma * sigma, 0.0))
    return -sigma * d[1] - back * d[0], sigma * d[0] - back * d[1], back


def sample_with_strips(grid, values, dirs, px, py):
    """Sample strip-constant transform data at arbitrary points.

    Inside the r2 disc: bilinear interpolation of the grid samples.
    Outside: the point is mapped along its (unique) active strip direction
    onto a ring just outside the r2 disc; points in no strip give 0.
    """
    px = np.asarray(px, dtype=float)
    py = np.asarray(py, dtype=float)
    r = np.hypot(px, py)
    inside = r <= grid.r2
    out = np.zeros(px.shape)
    if inside.any():
        out[inside] = bilinear(grid, values, px[inside], py[inside])
    outside = ~inside
    if not outside.any():
        return out
    ox, oy = px[outside], py[outside]
    acc = np.zeros(ox.shape)
    taken = np.zeros(ox.shape, dtype=bool)
    for d in dirs:
        sigma = -ox * d[1] + oy * d[0]          # p . perp(d)
        along = ox * d[0] + oy * d[1]           # p . d
        cond = (~taken) & (along < 0.0) & (np.abs(sigma) < grid.r1)
        if not cond.any():
            continue
        qx, qy, _ = strip_ring_point(grid, sigma[cond], d)
        acc[cond] = bilinear(grid, values, qx, qy)
        taken |= cond
    out[outside] = acc
    return out


def transform_beam_values(tf: TransformField, dirs, points, d, workers=1):
    """Beam integrals of strip-extended transform data along direction d.

    The t-integral runs until the ray has left both the r2 disc and every
    strip for good, beyond which the data is identically zero.
    """
    grid = tf.grid
    d = unit_vector(d)
    step = _step(grid, None)
    values = tf.component(0)
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    npts = len(pts)

    b = pts @ d
    rr2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
    disc = b * b - (rr2 - grid.r2 * grid.r2)
    t_max = np.where(disc > 0.0, -b + np.sqrt(np.maximum(disc, 0.0)), 0.0)
    t_max = np.maximum(t_max, 0.0)
    for sd in dirs:
        cross = -d[0] * sd[1] + d[1] * sd[0]    # d . perp(sd)
        if abs(cross) < 1e-12:
            continue  # ray parallel to this strip: no finite crossing bound
        sigma0 = -pts[:, 0] * sd[1] + pts[:, 1] * sd[0]
        t_max = np.maximum(t_max, (grid.r1 + np.abs(sigma0)) / abs(cross))

    out = np.zeros(npts)
    pos = float(t_max.max(initial=0.0))
    if pos <= 0.0:
        return out
    n = max(1, int(np.ceil(pos / step)))
    # one shared t-lattice for every vertex: quadrature errors then cancel
    # in the finite differences the inversion takes between nearby vertices
    dt = pos / n
    t = (np.arange(n) + 0.5) * dt

    def block(s, e):
        px = pts[s:e, 0, None] + t[None, :] * d[0]
        py = pts[s:e, 1, None] + t[None, :] * d[1]
        vals = sample_with_strips(grid, values, dirs, px, py)
        return vals.sum(axis=1) * dt

    parts = map_blocks(block, npts, workers=workers)
    return np.concatenate(parts)


def invert_signed(ts: TransformField, geom: VLineGeometry,
                  workers=1) -> ScalarField:
    """Invert the signed V-line transform.

    h(x) = (1/|v - u|) D_u D_v  int_0^inf (T_s h)(x + t w) dt, with
    w = (v - u)/|v - u|.  The t-integral uses strip-constant extension of
    the data beyond the r2 disc; D_u D_v is the centered rhombus stencil
    with side 2h.  Output is supported in the closed r1 disc.
    """
    grid = ts.grid
    w = geom.w  # raises on degenerate geometry
    xx, yy = grid.mesh()
    mask = (np.hypot(xx, yy) <= grid.r1).ravel()
    base = np.column_stack([xx.ravel()[mask], yy.ravel()[mask]])
    if base.size == 0:
        return ScalarField(grid, np.zeros((grid.nx, grid.ny)))
    # all four stencil corners in one call: they share one t-lattice
    duv = rhombus_stencil(
        lambda pts: transform_beam_values(ts, geom.rays, pts, w,
                                          workers=workers),
        base, geom, grid.h)
    out = np.zeros(grid.nx * grid.ny)
    out[mask] = duv / geom.norm_vu
    return ScalarField(grid, out.reshape(grid.nx, grid.ny))
