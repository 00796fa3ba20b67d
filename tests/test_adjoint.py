"""The beam's transpose is the opposite beam: for h and g zero outside the
r1 disc, <X_d h, g> = <h, X_{-d} g> (sums over grid samples), for plain and
moment beams.  Mirrored, the bilinear taps of the sample at t_k d / h are
those of -t_k d / h with the same weights and the same t_k, so the identity
holds to rounding; a wrong tap, or a wrong output window in
``operators.correlate``, breaks it.  The transposes of L, T, I, J and the
star forward follow: sum_i c_i gamma_i X_{-gamma_i}, composed with R^T
(R^T (a, b) = (-b, a)) for the transverse parts.
"""

import numpy as np
import pytest

from vlinetomo import (Grid2D, ScalarField, StarGeometry, VectorField,
                       VLineGeometry, beam_field, direction, forward_I,
                       forward_J, forward_L, forward_T, forward_star)
from vlinetomo.beam import ray_sum

ANGLES = (0.0, 0.35, 1.0, np.pi / 2, 2.1, 3.14159,
          1e-3, np.pi / 2 - 1e-3, np.pi + 1e-3, -np.pi / 2 + 1e-3)
# direction(np.pi / 2) is (6.1e-17, 1), off the grid axis: the exact e_y
# enters as a vector, so (0, 1) and (0, -1) reach the axis suffix sums
E_Y = pytest.param(np.array([0.0, 1.0]), id="e_y")
TOL = 1e-13


def _disc_random(grid, rng):
    return np.where(grid.disc_mask(grid.r1),
                    rng.standard_normal((grid.nx, grid.ny)), 0.0)


def _gap(ax, x, y, aty):
    """|<A x, y> - <x, A^T y>| / (||A x|| ||y||), each argument a tuple of
    arrays (one per component)."""
    dot = lambda p, q: sum(float(np.vdot(a, b)) for a, b in zip(p, q, strict=True))
    return abs(dot(ax, y) - dot(x, aty)) / np.sqrt(dot(ax, ax) * dot(y, y))


@pytest.fixture(params=[64, 97], ids=["nx64", "nx97"])
def grid(request):
    return Grid2D.centered(request.param, 1.0, 1.5)


@pytest.mark.parametrize("moment", [False, True], ids=["plain", "moment"])
@pytest.mark.parametrize("angle", [*ANGLES, E_Y])
def test_beam_transpose_is_the_opposite_beam(grid, angle, moment):
    rng = np.random.default_rng(22)
    h, g = (ScalarField(grid, _disc_random(grid, rng)) for _ in range(2))
    d = direction(angle) if np.ndim(angle) == 0 else angle
    xh = beam_field(h, d, moment=moment)
    assert np.abs(xh).max() > 0.0
    assert _gap((xh,), (h.values,), (g.values,), (beam_field(g, -d, moment=moment),)) <= TOL


def test_ray_sum_transpose(grid):
    rng = np.random.default_rng(23)
    hs = [ScalarField(grid, _disc_random(grid, rng)) for _ in range(3)]
    g = ScalarField(grid, _disc_random(grid, rng))
    terms = [(h, direction(a), c) for h, a, c in zip(hs, (0.2, 1.9, 3.14159),
                                                     (1.0, -2.0, 0.5))]
    for moment in (False, True):
        at_g = tuple(c * beam_field(g, -d, moment=moment) for _, d, c in terms)
        gap = _gap((ray_sum(terms, moment=moment),), tuple(h.values for h in hs),
                   (g.values,), at_g)
        assert gap <= TOL


def _star_transpose(gammas, weights, g, moment):
    """(sum_i c_i gamma_i X_{-gamma_i} g) as the two components of a field."""
    beams = [c * beam_field(g, -gam, moment=moment) for gam, c in zip(gammas, weights)]
    return (sum(gam[0] * b for gam, b in zip(gammas, beams)),
            sum(gam[1] * b for gam, b in zip(gammas, beams)))


def _rotated_transpose(comps):
    """R^T (a, b) = (-b, a), the transpose of R f = (f2, -f1)."""
    return (-comps[1], comps[0])


@pytest.mark.parametrize("angles", [(0.0, np.pi / 2), (0.35, 2.1)],
                         ids=["axis", "oblique"])
def test_vline_forwards_transposes(grid, angles):
    rng = np.random.default_rng(24)
    geom = VLineGeometry(*(direction(a) for a in angles))
    f = VectorField(grid, _disc_random(grid, rng), _disc_random(grid, rng))
    g = ScalarField(grid, _disc_random(grid, rng))
    for forward, moment, rotated in ((forward_L, False, False), (forward_T, False, True),
                                     (forward_I, True, False), (forward_J, True, True)):
        at_g = _star_transpose(geom.gammas, geom.weights, g, moment)
        if rotated:
            at_g = _rotated_transpose(at_g)
        gap = _gap((forward(f, geom).values,), (f.f1, f.f2), (g.values,), at_g)
        assert gap <= TOL, forward.__name__


def test_star_forward_transpose(grid):
    rng = np.random.default_rng(25)
    sg = StarGeometry(tuple(direction(a) for a in (0.0, 2.1, 4.2)), (1.0, -2.0, 0.5))
    f = VectorField(grid, _disc_random(grid, rng), _disc_random(grid, rng))
    g = [ScalarField(grid, _disc_random(grid, rng)) for _ in range(2)]
    sf = forward_star(f, sg)
    longitudinal = _star_transpose(sg.gammas, sg.weights, g[0], False)
    transverse = _rotated_transpose(_star_transpose(sg.gammas, sg.weights, g[1], False))
    at_g = tuple(a + b for a, b in zip(longitudinal, transverse))
    assert _gap((sf.f1, sf.f2), (f.f1, f.f2), (g[0].values, g[1].values), at_g) <= TOL
