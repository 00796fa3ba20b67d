"""Ray-integral primitives.

Divergent beam transform and its first moment, the signed V-line
transform of a scalar function and its closed-form inversion.

Every beam integral uses one quadrature: the midpoint rule on the arc-length
lattice t_k = (k + 1/2) step, k = 0, 1, ..., started at the vertex and shared
by all vertices, with the field sampled bilinearly.  Because the lattice is
shared, the beam over the whole grid is a correlation of the field with a
fixed sparse kernel, which ``beam_field`` evaluates with one FFT;
``beam_values`` sums the same samples directly at arbitrary points.

The inversion applies the paper's formula with D_u D_v moved inside the
integral: the differentiated data D_u D_v T_s h = D_{u-v} h is supported
in the r1 disc, so it is one ``mixed_partial`` and one ``beam_field`` FFT
along u - v (``integrate_w``), with no strip extension.

``strip_tails`` is the one strip-tail integral: beyond the r2 disc each
strip's data is its ring profile, and the integral over any span of a ray
is read in closed form from the profile's cumulative integral.  The Radon
transform of star data (``radon.radon_transform_field``) takes its tails
from it; ``transform_beam_values`` sums strip-extended data directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._blocks import map_blocks
from .errors import ConfigError, GeometryError
from .fields import ScalarField, TransformField, VLineGeometry, unit_vector
from .operators import bilinear, correlate, mixed_partial


@dataclass(frozen=True)
class RayQuadrature:
    """Arc-length sampling of ray integrals; step defaults to h/2."""

    step: float

    def __post_init__(self):
        if self.step <= 0:
            raise ConfigError("quadrature step must be positive")


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


def check_strip_ring(grid):
    """Raise GeometryError unless the grid square holds the strip ring plus
    one cell, so every strip-constant value is read from grid samples
    (``bilinear`` reads 0 beyond the square)."""
    if not grid.holds_disc(strip_ring_radius(grid) + grid.h):
        raise GeometryError("grid square does not hold the strip ring "
                            "r2 + 2h plus one cell")


def strip_ring_point(grid, sigma, d):
    """Where the strip along direction d reads its constant value.

    Returns (qx, qy): q = sigma * perp(d) - back * d is the point of the
    strip ring on the far (vertex) side of the strip, at transverse
    coordinate sigma, with back = sqrt(ring^2 - sigma^2).
    """
    ring = strip_ring_radius(grid)
    back = np.sqrt(np.maximum(ring * ring - sigma * sigma, 0.0))
    return -sigma * d[1] - back * d[0], sigma * d[0] - back * d[1]


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
        qx, qy = strip_ring_point(grid, sigma[cond], d)
        acc[cond] = bilinear(grid, values, qx, qy)
        taken |= cond
    out[outside] = acc
    return out


def strip_tails(grid, values, dirs, px, py, d, spans, out):
    """Add the integrals of strip data along the rays x + t d over t-spans.

    Beyond the r2 disc the data along strip s is its ring profile
    g_s(sigma), sigma = x . perp(s), read (``strip_ring_point``) at the
    midpoints of equal cells of width dsig across the strip's width 2 r1.
    Over the t where a ray is in the strip the integral is
    (G_s(sigma(b)) - G_s(sigma(a))) / c with c = d . perp(s) and G_s the
    cumulative integral of g_s, exact for the cellwise-constant profile.
    The strips are disjoint outside the r2 disc, so for spans (t_a, t_b)
    outside it their integrals add.  A ray within 1e-9 of parallel to a
    strip gets nothing from it.

    px, py, d[..., 0], d[..., 1] and the span ends broadcast to the shape
    of ``out``, which receives the integrals strip by strip, span by span.
    """
    # G_s leaves an error of O(dsig^2) that repeats every cell; the one
    # caller, the star Radon transform, is then differentiated twice in s
    # (d/ds, then the ramp filter of the FBP), which divides it by h^2, so
    # dsig shrinks like h^2: nx * max(16, nx/8) cells across the strip
    n_sigma = grid.nx * max(16, grid.nx // 8)
    sigma = -grid.r1 + 2.0 * grid.r1 * ((np.arange(n_sigma) + 0.5) / n_sigma)
    dsig = 2.0 * grid.r1 / n_sigma
    edges = -grid.r1 + dsig * np.arange(n_sigma + 1)
    dx, dy = d[..., 0], d[..., 1]
    for s in dirs:
        prof = bilinear(grid, values, *strip_ring_point(grid, sigma, s))
        cum = np.concatenate([[0.0], np.cumsum(prof) * dsig])
        c = -dx * s[1] + dy * s[0]              # d . perp(s)
        e = dx * s[0] + dy * s[1]               # d . s
        crossing = np.abs(c) >= 1e-9
        c = np.where(crossing, c, 1.0)
        sigma0 = -px * s[1] + py * s[0]         # x . perp(s)
        along0 = px * s[0] + py * s[1]          # x . s
        # in the strip: |sigma0 + t c| < r1 and along0 + t e < 0
        lo = np.minimum((-grid.r1 - sigma0) / c, (grid.r1 - sigma0) / c)
        hi = np.maximum((-grid.r1 - sigma0) / c, (grid.r1 - sigma0) / c)
        cut = np.divide(-along0, e, out=np.zeros(np.broadcast(along0, e).shape),
                        where=e != 0.0)
        hi = np.where(e > 0.0, np.minimum(hi, cut), hi)
        lo = np.where(e < 0.0, np.maximum(lo, cut), lo)
        hi = np.where((e == 0.0) & (along0 >= 0.0), lo, hi)
        for t_a, t_b in spans:
            a, b = np.maximum(lo, t_a), np.minimum(hi, t_b)
            tail = (np.interp(sigma0 + c * b, edges, cum)
                    - np.interp(sigma0 + c * a, edges, cum)) / c
            out += np.where(crossing & (b > a), tail, 0.0)


def _chord(px, py, d, radius):
    """Entry and exit t of the rays x + t d through the disc of ``radius``;
    both 0 for a ray that misses it (for ``transform_beam_values`` only)."""
    b = px * d[0] + py * d[1]
    disc = b * b - (px * px + py * py - radius * radius)
    root = np.sqrt(np.maximum(disc, 0.0))
    hit = disc > 0.0
    return np.where(hit, -b - root, 0.0), np.where(hit, -b + root, 0.0)


def transform_beam_values(tf: TransformField, dirs, points, d, workers=1):
    """Beam integrals of strip-extended transform data along direction d.

    Direct midpoint-rule sum: the t-integral runs until the ray has left
    both the r2 disc and every strip for good, beyond which the data is
    identically zero, so its cost grows like 1/|d . perp(s)| as d turns
    toward a strip direction s.

    On no output path and in no test: kept only because
    ``perfbench/tracer.py`` wraps it.  At u@0/v@3.14, nx=128, one block
    asks for 9.28 GiB.
    """
    grid = tf.grid
    d = unit_vector(d)
    step = _step(grid, None)
    values = tf.component(0)
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    npts = len(pts)

    t_max = np.maximum(_chord(pts[:, 0], pts[:, 1], d, grid.r2)[1], 0.0)
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
    # in finite differences taken between nearby vertices
    dt = pos / n
    t = (np.arange(n) + 0.5) * dt

    def block(s, e):
        px = pts[s:e, 0, None] + t[None, :] * d[0]
        py = pts[s:e, 1, None] + t[None, :] * d[1]
        vals = sample_with_strips(grid, values, dirs, px, py)
        return vals.sum(axis=1) * dt

    parts = map_blocks(block, npts, workers=workers)
    return np.concatenate(parts)


def integrate_w(g: ScalarField, geom: VLineGeometry) -> ScalarField:
    """h = -(1/|v - u|) X_e g with e = (u - v)/|u - v|, masked to the r1
    disc, for g = D_u D_v T_s h = D_{u-v} h (supported in the r1 disc).

    One ``beam_field`` FFT, which reads g inside the r1 disc only.
    """
    grid = g.grid
    vals = beam_field(g, -geom.w) / -geom.norm_vu
    return ScalarField(grid, np.where(grid.disc_mask(grid.r1), vals, 0.0))


def invert_signed(ts: TransformField, geom: VLineGeometry,
                  workers=1) -> ScalarField:
    """Invert the signed V-line transform.

    The paper's formula h(x) = (1/|v - u|) D_u D_v int_0^inf (T_s h)(x + t w)
    dt, w = (v - u)/|v - u|, with D_u D_v moved inside the integral: since
    D_u D_v T_s h = D_{u-v} h is supported in the r1 disc, h is the beam
    integral of g = D_u D_v T_s h (``mixed_partial``) along u - v
    (``integrate_w``), and no data beyond the r1 disc, strip extension
    included, is ever read.  Output is supported in the closed r1 disc.
    ``workers`` is kept for callers of the public function and has no
    effect.  Degenerate geometries raise GeometryError, and so do grids
    whose square does not hold the strip ring plus one cell
    (``check_strip_ring``): the documented exit 3 of the V-line inversions
    is kept, though this route reads no strip.
    """
    grid = ts.grid
    geom.w  # raises on degenerate geometry
    check_strip_ring(grid)
    g = mixed_partial(ts.component(0), geom.u, geom.v, grid.h)
    return integrate_w(ScalarField(grid, g), geom)
