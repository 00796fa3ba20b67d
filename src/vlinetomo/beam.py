"""Ray-integral primitives.

Divergent beam transform and its first moment, the signed V-line
transform of a scalar function and its closed-form inversion.

Every beam integral uses one quadrature: the midpoint rule on the arc-length
lattice t_k = (k + 1/2) h/2, k = 0, 1, ..., started at the vertex and shared
by all vertices, with the field sampled bilinearly.  The lattice is shared,
so the beam over the whole grid is a correlation of the field's samples on
``Grid2D.disc_box`` with a fixed sparse kernel: suffix sums on a grid axis,
else one FFT (``operators.correlate``).  ``_ray_lattice`` alone sets h/2.

The inversion applies the paper's formula with D_u D_v moved inside the
integral: the differentiated data D_u D_v T_s h = D_{u-v} h is supported
in the r1 disc, so it is one ``mixed_partial`` on ``operators.disc_window``
of reach 2 and one ``beam_field`` FFT along u - v (``integrate_w``).

``sample_with_strips`` samples strip-extended data on the strip model of
``radon`` (a test reference) and ``transform_beam_values`` sums it
directly; no output path calls either.
"""

from __future__ import annotations

import numpy as np

from ._blocks import map_blocks
from .fields import ScalarField, VLineGeometry, unit_vector
from .operators import bilinear, correlate, disc_window, mixed_partial
from .radon import strip_ring_point


def _ray_lattice(grid, reach):
    """The arc-length lattice t_k = (k + 1/2) h/2 shared by every vertex, as
    (step, t) with enough samples to pass ``reach``."""
    step = grid.h / 2.0
    n = max(1, int(np.ceil(reach / step)))
    return step, (np.arange(n) + 0.5) * step


def _beam_taps(grid, d, moment, rows, cols):
    """Cell offsets (da, db) and weights w of X_d (X^1_d with ``moment``):
    out[i, j] = sum w * values[i + da, j + db], for values zero outside the
    box of slices (rows, cols).  The sample x_ij + t_k d sits at grid
    coordinates (i + t_k d1/h, j + t_k d2/h), so its offset and bilinear
    weights depend on k alone: 4 taps per sample, each weighted by step
    (step t_k for the moment)."""
    step, t = _ray_lattice(grid, grid.h * np.hypot(grid.nx - 1, grid.ny - 1))
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
    # only the nonzero taps that reach the box from some vertex are kept
    keep = w != 0.0
    for off, n, box in zip((da, db), (grid.nx, grid.ny), (rows, cols)):
        keep &= (off > box.start - n) & (off < box.stop)
    return (da[keep], db[keep]), w[keep]


def beam_field(h: ScalarField, d, moment=False, workers=1) -> np.ndarray:
    """Beam integrals at every grid vertex, as an (nx, ny) array.

    The midpoint rule on the ``_ray_lattice`` samples x + t_k d of h's
    samples in the r1 disc, read on ``Grid2D.disc_box`` only: suffix sums
    when d lies on a grid axis (``_axis_beam``), else one FFT correlation
    (``operators.correlate``) with the taps of ``_beam_taps`` that reach that
    box.  A grid with no sample in the disc gives zeros.  ``workers`` is
    kept for callers of the public function and has no effect.
    """
    grid = h.grid
    rows, cols, rr = grid.disc_box()
    if rr.size == 0:
        return np.zeros((grid.nx, grid.ny))
    d = unit_vector(d)
    part = np.where(rr <= grid.r1, h.values[rows, cols], 0.0)
    if d[0] == 0.0 or d[1] == 0.0:
        return _axis_beam(grid, part, rows, cols, d, moment)
    offsets, w = _beam_taps(grid, d, moment, rows, cols)
    center = [-o.min() for o in offsets]
    kernel = np.zeros([o.max() + c + 1 for o, c in zip(offsets, center)])
    np.add.at(kernel, tuple(o + c for o, c in zip(offsets, center)), w)
    return correlate(part, (rows.start, cols.start), (grid.nx, grid.ny), kernel, center)


def _axis_beam(grid, part, rows, cols, d, moment):
    """``beam_field`` along d = +-e_x or +-e_y of the masked box ``part``.

    Sample k lies (2k + 1)/4 cells down the vertex's grid line, so the taps
    are h/2 at the vertex and h at every later cell (3h^2/16, then j h^2 for
    the moment).  With S[i] = sum_{m >= i} part[m] down the ray (the views
    run it down axis 0), the beam is h S - (h/2) part in the box, h S[start]
    before it and 0 past it.  The moment's sum_{m > i} (m - i) part[m] is
    T[i + 1], T[i] = sum_{l >= i} S[l], which does not cancel; at dist cells
    before the box it is T[start] + (dist - 1) S[start].
    """
    out = np.zeros((grid.nx, grid.ny))
    o, p, line, other = (out, part, rows, cols) if d[1] == 0.0 else (out.T, part.T, cols, rows)
    if d[0] + d[1] < 0.0:  # -e_x or -e_y: the same sums on flipped views
        o, p, line = o[::-1], p[::-1], slice(len(o) - line.stop, len(o) - line.start)
    before, box = o[:line.start, other], o[line, other]
    s = np.cumsum(p[::-1], axis=0)[::-1]
    if moment:
        t = np.cumsum(s[::-1], axis=0)[::-1]
        box[:-1] = t[1:]
        box += (3.0 / 16.0) * p
        before[...] = t[0] + np.arange(line.start - 1, -1, -1)[:, None] * s[0]
    else:
        np.subtract(s, 0.5 * p, out=box)
        before[...] = s[0]
    o[:line.stop, other] *= grid.h ** 2 if moment else grid.h
    return out


def ray_sum(terms, moment=False) -> np.ndarray:
    """sum_i c_i X_{d_i} h_i at every grid vertex, for (h_i, d_i, c_i) terms.

    Every V-line and star transform is such a weighted sum of beam fields
    (first moments with ``moment``).  The sum starts from the first term,
    not from zeros, and adds the terms in order, so with weights +-1 it is
    bit-identical to the written-out expression such as X_u h - X_v h.
    """
    (h, d, c), *rest = terms
    out = c * beam_field(h, d, moment=moment)
    for h, d, c in rest:
        out += c * beam_field(h, d, moment=moment)
    return out


def signed_vline(h: ScalarField, geom: VLineGeometry,
                 workers=1) -> ScalarField:
    """T_s h = X_u h - X_v h sampled at every grid vertex."""
    vals = ray_sum(((h, geom.u, 1.0), (h, geom.v, -1.0)))
    return ScalarField(h.grid, vals)


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


def transform_beam_values(tf: ScalarField, dirs, points, d, workers=1):
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
    step, _ = _ray_lattice(grid, 0.0)
    values = tf.values
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    npts = len(pts)

    # each ray's exit t from the r2 disc, 0 for a ray that misses it
    b = pts[:, 0] * d[0] + pts[:, 1] * d[1]
    disc = b * b - (pts[:, 0] * pts[:, 0] + pts[:, 1] * pts[:, 1] - grid.r2 * grid.r2)
    t_max = np.where(disc > 0.0, np.maximum(np.sqrt(np.maximum(disc, 0.0)) - b, 0.0), 0.0)
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

    One ``beam_field`` FFT, which reads g inside the r1 disc only; its
    output is scaled and masked on ``Grid2D.disc_box`` and zeroed beyond.
    """
    grid = g.grid
    rows, cols, rr = grid.disc_box()
    vals = beam_field(g, -geom.w)
    box = np.where(rr <= grid.r1, vals[rows, cols] / -geom.norm_vu, 0.0)
    vals[...] = 0.0
    vals[rows, cols] = box
    return ScalarField._adopt(grid, vals)


def invert_signed(ts: ScalarField, geom: VLineGeometry,
                  workers=1) -> ScalarField:
    """Invert the signed V-line transform.

    The paper's formula h(x) = (1/|v - u|) D_u D_v int_0^inf (T_s h)(x + t w)
    dt, w = (v - u)/|v - u|, with D_u D_v moved inside the integral: since
    D_u D_v T_s h = D_{u-v} h is supported in the r1 disc, h is the beam
    integral of g = D_u D_v T_s h (``mixed_partial`` on the disc box grown
    by its reach 2) along u - v (``integrate_w``): no strip extension is
    read.  Output is supported in the closed r1 disc.  ``workers`` is kept
    for callers of the public function and has no effect.  Every grid whose
    square holds the r2 disc is accepted.
    """
    grid = ts.grid
    win = disc_window(grid, 2)
    g = np.zeros((grid.nx, grid.ny))
    g[win] = mixed_partial(ts.values[win], geom.u, geom.v, grid.h)
    return integrate_w(ScalarField._adopt(grid, g), geom)
