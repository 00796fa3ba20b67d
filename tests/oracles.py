"""Reference implementations the tests compare the library against.

None of these is called by library code, the CLI or the benchmark:

- ``beam_values`` (with ``divergent_beam`` and ``moment_beam``) sums beam
  integrals directly, sample by sample, at arbitrary points and at any
  ``RayQuadrature`` step; ``beam.beam_field`` evaluates the same
  quadrature at every vertex, by suffix sums along a grid axis and by one
  FFT along every other direction.
- ``directional_derivative``, ``divergence``, ``curl``, ``gradient`` and
  ``helmholtz_decompose`` are the plain finite-difference calculus the
  phantoms and pipelines are checked with.
- ``symmetric_by_coefficients`` is a second symmetry test for stars,
  checked against ``star.classify``.
- ``full_grid_phantom`` and ``full_grid_bump`` evaluate the phantom
  formulas at every grid sample; ``phantoms`` evaluates them on each
  bump's support box only, with the same arithmetic.
- ``full_grid_moment_pipeline`` and ``full_grid_invert_signed`` apply
  D_u D_v, the derivatives and the mollifier to the whole grid; the
  library applies them to the disc box grown by their reach only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from vlinetomo.beam import _ray_lattice, beam_field, integrate_w
from vlinetomo.errors import ConfigError
from vlinetomo.fields import ScalarField, VectorField, unit_vector
from vlinetomo.operators import bilinear, partial_x, partial_y
from vlinetomo.phantoms import Phantom
from vlinetomo.poisson import solve_dirichlet_disc
from vlinetomo.star import StarGeometry, _p_of_w
from vlinetomo.vline import _mollify, mixed_derivative


@dataclass(frozen=True)
class RayQuadrature:
    """Arc-length step of the direct-sum oracle ``beam_values``."""

    step: float

    def __post_init__(self):
        if self.step <= 0:
            raise ConfigError("quadrature step must be positive")


def _step(grid, quad):
    """The arc-length step: the library's (``_ray_lattice``) unless ``quad``
    sets one."""
    return _ray_lattice(grid, 0.0)[0] if quad is None else quad.step


def beam_values(h: ScalarField, points, d, quad=None, moment=False):
    """Beam integrals of a scalar field at many points.

    Midpoint rule on the shared lattice: sum_k step * h(x + t_k d) (times
    t_k for the first moment), with h sampled bilinearly from its samples
    in the r1 disc (the rest set to zero) and zero off the grid square.  The
    lattice runs from the point until every ray has left the grid, so rays
    missing the support give 0.  At the default step this is the
    quadrature that ``beam_field`` evaluates at all vertices at once.
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
    step = _step(grid, quad)
    n = max(1, int(np.ceil(float(reach.max(initial=0.0)) / step)))
    t = (np.arange(n) + 0.5) * step
    px = pts[:, 0, None] + t * d[0]
    py = pts[:, 1, None] + t * d[1]
    supported = np.where(grid.disc_mask(grid.r1), h.values, 0.0)
    vals = bilinear(grid, supported, px, py)
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


@dataclass(frozen=True)
class HelmholtzParts:
    """Unique split f = solenoidal + grad(potential_V), V = 0 on the r1 circle."""

    solenoidal: VectorField
    potential_V: ScalarField


def helmholtz_decompose(f: VectorField) -> HelmholtzParts:
    """Solve Lap V = div f with V = 0 on the r1 disc boundary; f_s = f - grad V."""
    res = solve_dirichlet_disc(divergence(f))
    gv = gradient(res.field)
    fs = VectorField(f.grid, f.f1 - gv.f1, f.f2 - gv.f2)
    return HelmholtzParts(solenoidal=fs, potential_V=res.field)


def symmetric_by_coefficients(sg: StarGeometry):
    """True when P(psi) is the zero polynomial (coefficient-norm test)."""
    scale = max(abs(c) for c in sg.weights) * sg.m
    return float(np.max(np.abs(_p_of_w(sg)))) <= 1e-10 * scale


def _full_grid_profile(q):
    return np.where(q < 1.0, (1.0 - np.minimum(q, 1.0)) ** 3, 0.0)


def full_grid_bump(grid, center=(0.0, 0.0), scale=1.0, amplitude=1.0):
    """``phantoms.bump_scalar``'s values, evaluated at every sample."""
    xx, yy = grid.mesh()
    q = ((xx - center[0]) ** 2 + (yy - center[1]) ** 2) / scale**2
    return amplitude * _full_grid_profile(q)


def _full_grid_gradient_phantom(grid, center, scale, amplitude, perp):
    xx, yy = grid.mesh()
    y1 = (xx - center[0]) / scale
    y2 = (yy - center[1]) / scale
    q = y1**2 + y2**2
    inside = q < 1.0
    omq = np.where(inside, 1.0 - q, 0.0)
    g1 = -6.0 * amplitude * omq**2 * y1 / scale
    g2 = -6.0 * amplitude * omq**2 * y2 / scale
    lap = 12.0 * amplitude * omq * (3.0 * q - 1.0) / scale**2
    lap = np.where(inside, lap, 0.0)
    pot = ScalarField(grid, amplitude * _full_grid_profile(q))
    zero = ScalarField(grid, np.zeros_like(lap))
    if perp:
        f = VectorField(grid, -g2, g1)
        return Phantom(field=f, div=zero, curl=ScalarField(grid, lap),
                       potential=None, stream=pot, kind="solenoidal")
    f = VectorField(grid, g1, g2)
    return Phantom(field=f, div=ScalarField(grid, lap), curl=zero,
                   potential=pot, stream=None, kind="potential")


def full_grid_phantom(kind, grid, center=None, scale=None, amplitude=1.0,
                      center2=None, scale2=None, amplitude2=None):
    """``phantoms.make_phantom`` with every bump evaluated at every sample
    and the mixed field summed from its two parts (no support check)."""
    r1 = grid.r1
    if kind in ("potential", "solenoidal"):
        center = (0.0, 0.0) if center is None else center
        scale = r1 if scale is None else scale
        return _full_grid_gradient_phantom(grid, center, scale, amplitude,
                                           perp=(kind == "solenoidal"))
    center = (-0.25 * r1, -0.15 * r1) if center is None else center
    scale = 0.55 * r1 if scale is None else scale
    center2 = (0.2 * r1, 0.25 * r1) if center2 is None else center2
    scale2 = 0.5 * r1 if scale2 is None else scale2
    amplitude2 = amplitude if amplitude2 is None else amplitude2
    a = _full_grid_gradient_phantom(grid, center, scale, amplitude, perp=False)
    b = _full_grid_gradient_phantom(grid, center2, scale2, amplitude2, perp=True)
    f = VectorField(grid, a.field.f1 + b.field.f1, a.field.f2 + b.field.f2)
    return Phantom(field=f, div=a.div, curl=b.curl, potential=a.potential,
                   stream=b.stream, kind="mixed")


def full_grid_moment_pipeline(i_f: ScalarField, c: ScalarField, geom):
    """``vline._moment_pipeline``'s two components, every stencil over the
    whole grid."""
    grid, h, u, v = i_f.grid, i_f.grid.h, geom.u, geom.v
    duv = mixed_derivative(i_f, geom)
    xu, xv = beam_field(c, u), beam_field(c, v)
    dv_xu = v[0] * partial_x(xu, h) + v[1] * partial_y(xu, h)
    du_xv = u[0] * partial_x(xv, h) + u[1] * partial_y(xv, h)
    return [integrate_w(ScalarField(grid, _mollify(deriv + cu * dv_xu + cv * du_xv)),
                        geom).values
            for deriv, cu, cv in ((partial_x(duv, h), -u[1], v[1]),
                                  (partial_y(duv, h), u[0], -v[0]))]


def full_grid_invert_signed(ts: ScalarField, geom):
    """``beam.invert_signed`` with D_u D_v over the whole grid."""
    return integrate_w(ScalarField(ts.grid, mixed_derivative(ts, geom)), geom).values
