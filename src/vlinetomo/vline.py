"""V-line transforms of planar vector fields and their inversions.

Forward operators (vertex-sampled over the grid covering the r2 disc):

    L f = -X_u(f.u)      + X_v(f.v)        (longitudinal)
    T f = -X_u(f.perp u) + X_v(f.perp v)   (transverse)
    I f, J f: the same with t-weighted first-moment beam integrals.

Reconstructions: curl f from L f and div f from T f via the mixed
directional derivative D_u D_v, the full field through either Poisson
recovery of both components (LT), or the first-moment pipelines (LI, TJ)
that assemble the signed V-line transform of each component and invert it
in closed form.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import gaussian_filter

from .beam import beam_field, invert_signed, ray_sum
from .errors import ConfigError, GeometryError
from .fields import (ScalarField, TransformField, VectorField, VLineGeometry,
                     perp)
from .operators import (bilinear, laplacians_from_div_curl, partial_x,
                        partial_y, rhombus_stencil)
from .poisson import PoissonProblem, solve_dirichlet_disc, solve_free_space


def _forward(f: VectorField, geom: VLineGeometry, kind, moment, perped,
             quad=None, workers=1) -> TransformField:
    geom.check_grid(f.grid)
    du, dv = geom.u, geom.v
    pu, pv = (perp(du), perp(dv)) if perped else (du, dv)
    vals = ray_sum(((f.dot(pu), du, -1.0), (f.dot(pv), dv, 1.0)), quad,
                   moment=moment, workers=workers)
    return TransformField(f.grid, vals, kind)


def forward_L(f, geom, quad=None, workers=1):
    """Longitudinal transform: -X_u(f.u) + X_v(f.v)."""
    return _forward(f, geom, "L", moment=False, perped=False,
                    quad=quad, workers=workers)


def forward_T(f, geom, quad=None, workers=1):
    """Transverse transform: -X_u(f.u^perp) + X_v(f.v^perp)."""
    return _forward(f, geom, "T", moment=False, perped=True,
                    quad=quad, workers=workers)


def forward_I(f, geom, quad=None, workers=1):
    """First-moment longitudinal transform."""
    return _forward(f, geom, "I", moment=True, perped=False,
                    quad=quad, workers=workers)


def forward_J(f, geom, quad=None, workers=1):
    """First-moment transverse transform."""
    return _forward(f, geom, "J", moment=True, perped=True,
                    quad=quad, workers=workers)


def mixed_derivative(tf: TransformField, geom: VLineGeometry) -> np.ndarray:
    """D_u D_v of transform data via the centered rhombus stencil on the
    bilinearly interpolated grid samples, at every grid vertex.

    Points falling off the grid sample as zero, which is harmless because
    callers mask the result to the r1 disc.
    """
    grid = tf.grid
    xx, yy = grid.mesh()
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    s = rhombus_stencil(
        lambda p: bilinear(grid, tf.component(0), p[:, 0], p[:, 1]),
        pts, geom, grid.h)
    return s.reshape(grid.nx, grid.ny)


def recover_curl(lf: TransformField, geom: VLineGeometry) -> ScalarField:
    """curl f = (1/det(v,u)) D_u D_v L f, masked to the r1 disc."""
    grid = lf.grid
    vals = mixed_derivative(lf, geom) / geom.det
    vals = np.where(grid.disc_mask(grid.r1), vals, 0.0)
    return ScalarField(grid, vals)


def recover_div(tf: TransformField, geom: VLineGeometry) -> ScalarField:
    """div f = -(1/det(v,u)) D_u D_v T f, masked to the r1 disc."""
    grid = tf.grid
    vals = -mixed_derivative(tf, geom) / geom.det
    vals = np.where(grid.disc_mask(grid.r1), vals, 0.0)
    return ScalarField(grid, vals)


def recover_field_LT(lf: TransformField, tf: TransformField,
                     geom: VLineGeometry) -> VectorField:
    """Reconstruct f from (L f, T f).

    div f and curl f give the componentwise Laplacians
    (Lap f1, Lap f2) = (d1 div - d2 curl, d2 div + d1 curl), and each
    component is recovered by convolution with the free-space Green
    function of the Laplacian.
    """
    if not lf.grid.same_layout(tf.grid):
        raise ConfigError("L f and T f must share a grid")
    c = recover_curl(lf, geom)
    d = recover_div(tf, geom)
    lap1, lap2 = laplacians_from_div_curl(d, c)
    grid = lf.grid
    mask = grid.disc_mask(grid.r1)
    comps = []
    for lap in (lap1, lap2):
        rhs = ScalarField(grid, np.where(mask, lap.values, 0.0))
        res = solve_free_space(PoissonProblem(rhs=rhs, mode="free_space"))
        comps.append(res.field.values)
    return VectorField(grid, comps[0], comps[1])


def recover_potential(tf: TransformField, geom: VLineGeometry) -> ScalarField:
    """Solve Lap V = div f (from T f) with V = 0 on the r1 circle."""
    rhs = recover_div(tf, geom)
    res = solve_dirichlet_disc(
        PoissonProblem(rhs=rhs, mode="dirichlet_disc", radius=tf.grid.r1))
    return res.field


def recover_stream(lf: TransformField, geom: VLineGeometry) -> ScalarField:
    """Solve Lap W = curl f (from L f) with W = 0 on the r1 circle."""
    rhs = recover_curl(lf, geom)
    res = solve_dirichlet_disc(
        PoissonProblem(rhs=rhs, mode="dirichlet_disc", radius=lf.grid.r1))
    return res.field


def _moment_pipeline(data: TransformField, source: ScalarField,
                     geom: VLineGeometry, signs, workers) -> VectorField:
    """Shared core of the LI / TJ reconstructions.

    Assembles the signed V-line transform of each field component from a
    derivative of the first-moment data plus moment beam fields of the
    recovered curl (LI) or div (TJ), then applies the closed-form signed
    inversion per component.

    The assembled data carries grid-scale quadrature and stencil noise
    that the inversion's second difference would amplify by 1/h^2, so it
    is mollified with a one-cell Gaussian first; the mollifier bias is
    O(h^2), the same order as the stencils themselves.
    """
    grid = data.grid
    h = grid.h
    mu = beam_field(source, geom.u, moment=True, workers=workers)
    mv = beam_field(source, geom.v, moment=True, workers=workers)
    fields = []
    for (sd, axis), su, sv in signs:
        deriv = partial_x(data.component(0), h) if axis == "x" \
            else partial_y(data.component(0), h)
        ts = gaussian_filter(sd * deriv + su * mu + sv * mv, 1.0)
        rec = invert_signed(TransformField(grid, ts, "Ts"), geom, workers)
        fields.append(rec.values)
    return VectorField(grid, fields[0], fields[1])


def recover_field_LI(lf: TransformField, i_f: TransformField,
                     geom: VLineGeometry, workers=1) -> VectorField:
    """Reconstruct f from (L f, I f).

    Uses curl f recovered from L f and the identities
        X_u f1 - X_v f1 = d1(I f) + u2 X1_u(curl f) - v2 X1_v(curl f)
        X_u f2 - X_v f2 = d2(I f) - u1 X1_u(curl f) + v1 X1_v(curl f)
    whose left sides are the signed V-line transforms of f1 and f2.
    """
    if not lf.grid.same_layout(i_f.grid):
        raise ConfigError("L f and I f must share a grid")
    c = recover_curl(lf, geom)
    u, v = geom.u, geom.v
    signs = (((1.0, "x"), u[1], -v[1]),
             ((1.0, "y"), -u[0], v[0]))
    return _moment_pipeline(i_f, c, geom, signs, workers)


def recover_field_TJ(tf: TransformField, jf: TransformField,
                     geom: VLineGeometry, workers=1) -> VectorField:
    """Reconstruct f from (T f, J f).

    Uses div f recovered from T f and the identities
        X_u f2 - X_v f2 =  d1(J f) - u2 X1_u(div f) + v2 X1_v(div f)
        X_u f1 - X_v f1 = -d2(J f) - u1 X1_u(div f) + v1 X1_v(div f)
    """
    if not tf.grid.same_layout(jf.grid):
        raise ConfigError("T f and J f must share a grid")
    d = recover_div(tf, geom)
    u, v = geom.u, geom.v
    # ordering: first tuple builds T_s f1, second builds T_s f2
    signs = (((-1.0, "y"), -u[0], v[0]),
             ((1.0, "x"), -u[1], v[1]))
    return _moment_pipeline(jf, d, geom, signs, workers)


def rhombus_check(hfield: TransformField, x, delta, geom: VLineGeometry) -> float:
    """Contour finite difference C/delta^2 at the rhombus with side delta.

    C = h(x) - h(x + delta u) - h(x + delta v) + h(x + delta u + delta v);
    C/delta^2 converges to D_u D_v h as delta -> 0.
    """
    if delta <= 0:
        raise ConfigError("rhombus side must be positive")
    grid = hfield.grid
    x = np.asarray(x, dtype=float)
    corners = [x, x + delta * geom.u, x + delta * geom.v,
               x + delta * (geom.u + geom.v)]
    x0, y0 = grid.origin
    x1 = x0 + (grid.nx - 1) * grid.h
    y1 = y0 + (grid.ny - 1) * grid.h
    for c in corners:
        if not (x0 <= c[0] <= x1 and y0 <= c[1] <= y1):
            raise GeometryError("rhombus vertex falls outside the grid")
    values = hfield.component(0)

    def at(p):
        return float(bilinear(grid, values, np.array([p[0]]), np.array([p[1]]))[0])

    c_sum = at(corners[0]) - at(corners[1]) - at(corners[2]) + at(corners[3])
    return c_sum / delta**2
