"""The forward transforms commute with the symmetries of the centred
square grid: the 90-degree rotation R and the mirror x -> -x.

A symmetry acts on sample arrays (np.rot90(a, 1), or a[::-1, :]), on
vectors (R d = (-d2, d1), or (-d1, d2)) and so on vector fields and ray
directions.  Moving the field and the directions together moves every
transform's output array the same way; under the mirror, which reverses
orientation, perp(M d) = -M perp(d), so T, J and the star's transverse
part change sign.
"""

import numpy as np
import pytest

from vlinetomo import (ScalarField, StarGeometry, VectorField, VLineGeometry,
                       direction, forward_I, forward_J, forward_L, forward_T,
                       forward_star, grid_for_star, grid_for_vline,
                       make_phantom, signed_vline)

# name: (map on sample arrays, map on vector components, sign of the
# transverse parts)
ACTIONS = {
    "rot90": (lambda a: np.rot90(a, 1), lambda x, y: (-y, x), 1.0),
    "mirror_x": (lambda a: a[::-1, :], lambda x, y: (-x, y), -1.0),
}


def _assert_moved(got, ref):
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def _moved_field(f, action):
    arr, vec, _ = ACTIONS[action]
    return VectorField(f.grid, *(arr(c) for c in vec(f.f1, f.f2)))


def _moved_direction(d, action):
    return np.array(ACTIONS[action][1](*d))


@pytest.mark.parametrize("action", ACTIONS)
@pytest.mark.parametrize("nx, u, v", [
    (64, np.array([1.0, 0.0]), np.array([0.0, 1.0])),
    (64, direction(0.35), direction(2.1)),
    (64, direction(0.0), direction(3.14)),
    (96, direction(1.0), direction(1.9)),
], ids=["axis", "0.35-2.1", "0-3.14", "1.0-1.9"])
def test_vline_transforms_commute_with_grid_symmetries(nx, u, v, action):
    # on the axis pair the rotation swaps the kernels' one-tap axes, so the
    # correlation's axis-0 and axis-1 transforms are checked against each
    # other
    arr, _, sign = ACTIONS[action]
    geom = VLineGeometry(u, v)
    moved = VLineGeometry(_moved_direction(u, action), _moved_direction(v, action))
    grid = grid_for_vline(nx, 1.0, geom)
    f = make_phantom("mixed", grid).field
    g = _moved_field(f, action)
    for forward, s in ((forward_L, 1.0), (forward_T, sign),
                       (forward_I, 1.0), (forward_J, sign)):
        _assert_moved(forward(g, moved).values, s * arr(forward(f, geom).values))
    _assert_moved(signed_vline(ScalarField(grid, arr(f.f1)), moved).values,
                  arr(signed_vline(ScalarField(grid, f.f1), geom).values))


@pytest.mark.parametrize("action", ACTIONS)
def test_forward_star_commutes_with_grid_symmetries(action):
    arr, _, sign = ACTIONS[action]
    sg = StarGeometry(tuple(direction(a) for a in (0.3, 1.9, 3.5, 5.0)),
                      (1.0, -0.7, 1.3, 0.6))
    moved = StarGeometry(tuple(_moved_direction(g, action) for g in sg.gammas),
                         sg.weights)
    grid = grid_for_star(64, 1.0, sg)
    f = make_phantom("mixed", grid).field
    sf, sg_moved = forward_star(f, sg), forward_star(_moved_field(f, action), moved)
    _assert_moved(sg_moved.f1, arr(sf.f1))
    _assert_moved(sg_moved.f2, sign * arr(sf.f2))
