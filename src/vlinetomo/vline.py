"""V-line transforms of planar vector fields and their inversions.

Forward operators (vertex-sampled over the grid covering the r2 disc):

    L f = -X_u(f.u)      + X_v(f.v)        (longitudinal)
    T f = -X_u(f.perp u) + X_v(f.perp v)   (transverse)
    I f, J f: the same with t-weighted first-moment beam integrals.

The V-line is the two-ray star (u, v; -1, +1): each forward is one
``ray_sum(geom.terms(.))``, the transverse twins of the rotated field
R f = (f2, -f1) = -perp(f) (``VectorField.rotated``), as (R f).d = f.perp(d):

    T f = L(R f),    J f = I(R f),    div f = -curl(R f).

Reconstructions: curl f = D_u D_v L f / det(v, u) and div f from T f in
the same way, where D_u D_v is ``operators.mixed_partial``, the chain rule
sum_ij u_i v_j d_i d_j on the grid samples; the full field through either
the Dirichlet disc solve of both components (LT), or the first-moment
pipeline (LI).  LI applies the paper's signed inversion to each component with
D_u D_v moved inside the integral: D_u D_v of the component's signed
V-line data is built from D_u D_v I f and the plain beams of the recovered
curl, is supported in the r1 disc, and is integrated along u - v
(``beam.integrate_w``), after a one-cell Gaussian mollifier
(``_mollify``).  TJ is LI applied to R f.  Each pipeline reads its data on
the r1 disc's box grown by its stencils' reach (``operators.disc_window``:
2 for curl, div and LT, 7 for LI and TJ) only; grids holding the r2 disc work.
"""

from __future__ import annotations

import numpy as np

from .beam import beam_field, integrate_w, ray_sum
from .errors import ConfigError, GeometryError
from .fields import ScalarField, VectorField, VLineGeometry
from .operators import (_laplacians, bilinear, disc_window, mixed_partial,
                        partial_x, partial_y)
from .poisson import solve_dirichlet_disc


def forward_L(f, geom, workers=1):
    """Longitudinal transform: -X_u(f.u) + X_v(f.v)."""
    return ScalarField(f.grid, ray_sum(geom.terms(f)))


def forward_T(f, geom, workers=1):
    """Transverse transform: -X_u(f.u^perp) + X_v(f.v^perp) = L(R f)."""
    return ScalarField(f.grid, ray_sum(geom.terms(f.rotated())))


def forward_I(f, geom, workers=1):
    """First-moment longitudinal transform."""
    return ScalarField(f.grid, ray_sum(geom.terms(f), moment=True))


def forward_J(f, geom, workers=1):
    """First-moment transverse transform: I(R f)."""
    return ScalarField(f.grid, ray_sum(geom.terms(f.rotated()), moment=True))


def mixed_derivative(tf: ScalarField, geom: VLineGeometry) -> np.ndarray:
    """D_u D_v of transform data at every grid vertex (``mixed_partial``)."""
    return mixed_partial(tf.values, geom.u, geom.v, tf.grid.h)


def _duv_box(data: ScalarField, geom: VLineGeometry, sign) -> np.ndarray:
    """sign * D_u D_v data / det(v, u) on ``Grid2D.disc_box``, 0 off the r1
    disc, from the data on ``disc_window`` of the stencil's reach 2, so the
    disc samples are the whole grid's."""
    grid = data.grid
    rows, cols, rr = grid.disc_box()
    win = disc_window(grid, 2)
    vals = sign * mixed_partial(data.values[win], geom.u, geom.v, grid.h) / geom.det
    box = tuple(slice(s.start - w.start, s.stop - w.start) for s, w in zip((rows, cols), win))
    return np.where(rr <= grid.r1, vals[box], 0.0)


def _duv_disc(data: ScalarField, geom: VLineGeometry, sign) -> ScalarField:
    """``_duv_box`` written into a grid of zeros."""
    grid = data.grid
    rows, cols, _ = grid.disc_box()
    out = np.zeros((grid.nx, grid.ny))
    out[rows, cols] = _duv_box(data, geom, sign)
    return ScalarField._adopt(grid, out)


def recover_curl(lf: ScalarField, geom: VLineGeometry) -> ScalarField:
    """curl f = (1/det(v,u)) D_u D_v L f, masked to the r1 disc."""
    return _duv_disc(lf, geom, 1.0)


def recover_div(tf: ScalarField, geom: VLineGeometry) -> ScalarField:
    """div f = -curl(R f) = -(1/det(v,u)) D_u D_v T f, masked to the r1 disc."""
    return _duv_disc(tf, geom, -1.0)


def recover_field_LT(lf: ScalarField, tf: ScalarField,
                     geom: VLineGeometry) -> VectorField:
    """Reconstruct f from (L f, T f).

    div f and curl f give the componentwise Laplacians
    (Lap f1, Lap f2) = (d1 div - d2 curl, d2 div + d1 curl).  f is
    supported in the r1 disc, so each component vanishes on the r1 circle
    and is the solution of that Dirichlet problem on the disc (one
    ``solve_dirichlet_disc`` of both); the output is 0 wherever rr >= r1.
    """
    if not lf.grid.same_layout(tf.grid):
        raise ConfigError("L f and T f must share a grid")
    grid = lf.grid
    rows, cols, _ = grid.disc_box()
    # the Laplacians on the disc's box, padded by one zero sample for their
    # one-cell reach (no disc sample lies on the grid's edge)
    laps = [np.zeros((grid.nx, grid.ny)) for _ in range(2)]
    pads = (np.pad(_duv_box(data, geom, sign), 1) for data, sign in ((tf, -1.0), (lf, 1.0)))
    for lap, box in zip(laps, _laplacians(*pads, grid.h)):
        lap[rows, cols] = box[1:-1, 1:-1]
    del box  # so that the solve's arrays are not allocated beside it
    return solve_dirichlet_disc(VectorField._adopt(grid, *laps)).field


def recover_potential(tf: ScalarField, geom: VLineGeometry) -> ScalarField:
    """Solve Lap V = div f (from T f) with V = 0 on the r1 circle."""
    return solve_dirichlet_disc(recover_div(tf, geom)).field


def recover_stream(lf: ScalarField, geom: VLineGeometry) -> ScalarField:
    """Solve Lap W = curl f (from L f) with W = 0 on the r1 circle."""
    return solve_dirichlet_disc(recover_curl(lf, geom)).field


# one-cell Gaussian over offsets -4..4, normalised to sum 1
_GAUSS = np.exp(-0.5 * np.arange(-4, 5) ** 2.0)
_GAUSS /= _GAUSS.sum()


def _mollify(x):
    """Separable one-cell Gaussian of grid samples, mirrored at the edges
    (the samples repeat in reverse order beyond them)."""
    nx, ny = x.shape
    p = np.pad(x, 4, "symmetric")
    p = sum(w * p[k:k + nx] for k, w in enumerate(_GAUSS))
    return sum(w * p[:, k:k + ny] for k, w in enumerate(_GAUSS))


def _moment_pipeline(i_f: ScalarField, c: ScalarField,
                     geom: VLineGeometry) -> VectorField:
    """Core of the LI reconstruction from I f and the recovered curl c.

    The signed V-line transform of each field component is
        X_u f1 - X_v f1 = d1(I f) + u2 X1_u c - v2 X1_v c
        X_u f2 - X_v f2 = d2(I f) - u1 X1_u c + v1 X1_v c,
    and the signed inversion (``beam.invert_signed``) integrates its
    D_u D_v along u - v.  With D_u D_v X1_u c = -D_v X_u c and
    D_u D_v X1_v c = -D_u X_v c that derivative is
        g1 = d1 D_u D_v I f - u2 D_v X_u c + v2 D_u X_v c
        g2 = d2 D_u D_v I f + u1 D_v X_u c - v1 D_u X_v c,
    supported in the r1 disc, so each component is one ``integrate_w``
    and the only beams are the plain X_u c and X_v c.

    The differences that form g_k amplify the grid-scale quadrature noise
    of the data, so g_k is mollified with a one-cell Gaussian before the
    integral; the mollifier bias is O(h^2), the same order as the stencils
    themselves.
    """
    grid = i_f.grid
    h = grid.h
    u, v = geom.u, geom.v
    # D_u D_v, d_k and the mollifier reach 2 + 1 + 4 samples
    win = disc_window(grid, 7)
    duv = mixed_partial(i_f.values[win], u, v, h)
    xu = beam_field(c, u)[win]
    xv = beam_field(c, v)[win]
    dv_xu = v[0] * partial_x(xu, h) + v[1] * partial_y(xu, h)
    du_xv = u[0] * partial_x(xv, h) + u[1] * partial_y(xv, h)
    del xu, xv  # views that hold the whole-grid beams
    fields = []
    for deriv, cu, cv in ((partial_x(duv, h), -u[1], v[1]),
                          (partial_y(duv, h), u[0], -v[0])):
        g = np.zeros((grid.nx, grid.ny))
        g[win] = _mollify(deriv + cu * dv_xu + cv * du_xv)
        fields.append(integrate_w(ScalarField._adopt(grid, g), geom).values)
    return VectorField._adopt(grid, *fields)


def recover_field_LI(lf: ScalarField, i_f: ScalarField,
                     geom: VLineGeometry, workers=1) -> VectorField:
    """Reconstruct f from (L f, I f) with curl f recovered from L f."""
    if not lf.grid.same_layout(i_f.grid):
        raise ConfigError("L f and I f must share a grid")
    return _moment_pipeline(i_f, recover_curl(lf, geom), geom)


def recover_field_TJ(tf: ScalarField, jf: ScalarField,
                     geom: VLineGeometry, workers=1) -> VectorField:
    """Reconstruct f from (T f, J f) = (L g, I g), g = R f.

    g is the LI reconstruction from (T f, J f), rotated back:
    f1 = -g2, f2 = g1 (as 0.0 - g2, so zeros outside the disc stay +0.0).
    """
    if not tf.grid.same_layout(jf.grid):
        raise ConfigError("T f and J f must share a grid")
    g = recover_field_LI(tf, jf, geom, workers)
    return VectorField(g.grid, 0.0 - g.f2, g.f1)


def rhombus_check(hfield: ScalarField, x, delta, geom: VLineGeometry) -> float:
    """Contour finite difference C/delta^2 at the rhombus with side delta.

    C = h(x) - h(x + delta u) - h(x + delta v) + h(x + delta u + delta v);
    C/delta^2 converges to D_u D_v h as delta -> 0.
    """
    if not delta > 0:  # NaN too
        raise ConfigError("rhombus side must be positive")
    grid = hfield.grid
    corners = np.asarray(x, dtype=float) + delta * np.array(
        [(0.0, 0.0), geom.u, geom.v, geom.u + geom.v])
    far = np.array(grid.origin) + (np.array([grid.nx, grid.ny]) - 1) * grid.h
    if not np.all((corners >= grid.origin) & (corners <= far)):
        raise GeometryError("rhombus vertex falls outside the grid")
    h = bilinear(grid, hfield.values, corners[:, 0], corners[:, 1])
    return float(h[0] - h[1] - h[2] + h[3]) / delta**2
