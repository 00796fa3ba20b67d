"""Ray-integral primitives.

Divergent beam transform and its first moment, the signed V-line
transform of a scalar function and its closed-form inversion.

Every beam integral uses one quadrature: the midpoint rule on the arc-length
lattice t_k = (k + 1/2) step, k = 0, 1, ..., started at the vertex and shared
by all vertices, with the field sampled bilinearly.  Because the lattice is
shared, the beam over the whole grid is a correlation of the field with a
fixed sparse kernel, which ``beam_field`` evaluates with one FFT;
``beam_values`` sums the same samples directly at arbitrary points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._blocks import map_blocks
from .errors import ConfigError
from .fields import ScalarField, TransformField, VLineGeometry, unit_vector
from .operators import bilinear, correlate, mixed_partial


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


def _ray_lattice(grid, quad, reach):
    """The arc-length lattice t_k = (k + 1/2) step shared by every vertex.

    Returns (step, t) with enough samples to pass ``reach``; step is h/2
    unless ``quad`` sets it.
    """
    step = _step(grid, quad)
    n = max(1, int(np.ceil(reach / step)))
    return step, (np.arange(n) + 0.5) * step


def _supported(h: ScalarField):
    """The samples of h with those outside the r1 disc set to zero.

    The transforms act on fields supported in the r1 disc, so samples
    beyond it never enter a beam.  Every grid edge vertex lies outside the
    r2 disc, hence outside r1, so the result vanishes on the grid edge.
    """
    return np.where(h.grid.disc_mask(h.grid.r1), h.values, 0.0)


def beam_values(h: ScalarField, points, d, quad=None, moment=False):
    """Beam integrals of a scalar field at many points.

    Midpoint rule on the shared lattice: sum_k step * h(x + t_k d) (times
    t_k for the first moment), with h sampled bilinearly from its samples
    in the r1 disc (``_supported``) and zero off the grid square.  The
    lattice runs from the point until every ray has left the grid, so rays
    missing the support give 0.  This is the reference that ``beam_field``
    evaluates at all vertices at once.
    """
    grid = h.grid
    d = unit_vector(d)
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    x0, y0 = grid.origin
    cx = np.array([x0, x0 + (grid.nx - 1) * grid.h])
    cy = np.array([y0, y0 + (grid.ny - 1) * grid.h])
    # farthest grid corner from any point: no sample beyond it is inside
    reach = np.sqrt(np.max(np.abs(pts[:, 0, None] - cx) ** 2, axis=1)
                    + np.max(np.abs(pts[:, 1, None] - cy) ** 2, axis=1))
    step, t = _ray_lattice(grid, quad, float(reach.max(initial=0.0)))
    px = pts[:, 0, None] + t * d[0]
    py = pts[:, 1, None] + t * d[1]
    vals = bilinear(grid, _supported(h), px, py)
    if moment:
        vals = vals * t
    return vals.sum(axis=1) * step


def divergent_beam(h: ScalarField, x, d, quad=None) -> float:
    """X_d h(x) = integral of h(x + t d) over t >= 0."""
    return float(beam_values(h, np.asarray(x, dtype=float)[None, :], d, quad)[0])


def moment_beam(h: ScalarField, x, d, quad=None) -> float:
    """First moment X^1_d h(x): integrand weighted by arc length t."""
    return float(beam_values(h, np.asarray(x, dtype=float)[None, :], d, quad,
                             moment=True)[0])


def _beam_kernel(grid, d, quad, moment):
    """Correlation kernel of X_d (X^1_d with ``moment``) on the shared lattice.

    From vertex (i, j) the sample x_ij + t_k d sits at grid coordinates
    (i + t_k d1/h, j + t_k d2/h), so its cell offset and bilinear weights
    depend on k alone: 4 taps per sample, each weighted by step (step t_k
    for the moment).  Returns (kernel, center) for ``correlate``; the
    kernel always spans offset 0, where ``center`` points, even when a
    coarse step puts the first sample a cell or more from the vertex.
    """
    step, t = _ray_lattice(grid, quad, grid.h * np.hypot(grid.nx - 1, grid.ny - 1))
    gx = t * d[0] / grid.h
    gy = t * d[1] / grid.h
    a = np.floor(gx).astype(np.int64)
    b = np.floor(gy).astype(np.int64)
    fx, fy = gx - a, gy - b
    wt = step * t if moment else np.full(t.shape, step)
    da = np.concatenate([a, a + 1, a, a + 1])
    db = np.concatenate([b, b, b + 1, b + 1])
    w = np.concatenate([(1.0 - fx) * (1.0 - fy), fx * (1.0 - fy),
                        (1.0 - fx) * fy, fx * fy]) * np.tile(wt, 4)
    # taps at offsets of a grid width or more never reach a sample
    keep = (np.abs(da) < grid.nx) & (np.abs(db) < grid.ny)
    if not keep.any():
        return np.zeros((1, 1)), (0, 0)
    da, db, w = da[keep], db[keep], w[keep]
    amin, bmin = min(0, int(da.min())), min(0, int(db.min()))
    amax, bmax = max(0, int(da.max())), max(0, int(db.max()))
    kernel = np.zeros((amax - amin + 1, bmax - bmin + 1))
    np.add.at(kernel, (da - amin, db - bmin), w)
    return kernel, (-amin, -bmin)


def beam_field(h: ScalarField, d, quad=None, moment=False, workers=1) -> np.ndarray:
    """Beam integrals at every grid vertex, as an (nx, ny) array.

    The same quadrature as ``beam_values`` (equal to rounding), evaluated
    as one FFT correlation of h's samples in the r1 disc with the kernel of
    ``_beam_kernel`` in O(N^2 log N).  ``workers`` is kept for callers of
    the public function and has no effect.
    """
    kernel, center = _beam_kernel(h.grid, unit_vector(d), quad, moment)
    return correlate(_supported(h), kernel, center)


def ray_sum(terms, quad=None, moment=False) -> np.ndarray:
    """sum_i c_i X_{d_i} h_i at every grid vertex, for (h_i, d_i, c_i) terms.

    Every V-line and star transform is such a weighted sum of beam fields
    (first moments with ``moment``).  The sum starts from the first term,
    not from zeros, and adds the terms in order, so with weights +-1 it is
    bit-identical to the written-out expression such as X_u h - X_v h.
    """
    (h, d, c), *rest = terms
    out = c * beam_field(h, d, quad, moment=moment)
    for h, d, c in rest:
        out += c * beam_field(h, d, quad, moment=moment)
    return out


def signed_vline(h: ScalarField, geom: VLineGeometry, quad=None,
                 workers=1) -> TransformField:
    """T_s h = X_u h - X_v h sampled at every grid vertex."""
    geom.check_grid(h.grid)
    vals = ray_sum(((h, geom.u, 1.0), (h, geom.v, -1.0)), quad)
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
    w = (v - u)/|v - u|.  The t-integral, with strip-constant extension of
    the data beyond the r2 disc, is evaluated once at every vertex within
    r1 + 3h; D_u D_v is the grid chain rule ``mixed_partial``, whose
    stencil reaches two cells, so every vertex of the r1 disc sees only
    evaluated values.  Output is supported in the closed r1 disc.
    """
    grid = ts.grid
    w = geom.w  # raises on degenerate geometry
    reach = grid.disc_mask(grid.r1 + 3.0 * grid.h)
    xx, yy = grid.mesh()
    phi = np.zeros((grid.nx, grid.ny))
    phi[reach] = transform_beam_values(
        ts, geom.rays, np.column_stack([xx[reach], yy[reach]]), w,
        workers=workers)
    duv = mixed_partial(phi, geom.u, geom.v, grid.h) / geom.norm_vu
    return ScalarField(grid, np.where(grid.disc_mask(grid.r1), duv, 0.0))
