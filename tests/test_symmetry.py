"""The transforms and their inversions commute with the symmetries of the
centred square grid: the 90-degree rotation R, the mirror M: x -> -x, and
their product R M, which generate the grid's dihedral group.

A symmetry acts on sample arrays (np.rot90(a, 1), or a[::-1, :]), on
vectors (R d = (-d2, d1), or (-d1, d2)) and so on vector fields and ray
directions.  Moving the field and the directions together moves every
transform's output array the same way; under a mirror, which reverses
orientation, perp(M d) = -M perp(d), so T, J and the star's transverse
part change sign, and so do the curl and the stream function.  Each
inversion is given the moved data, so it is checked on its own.
"""

import numpy as np
import pytest

from vlinetomo import (Grid2D, ScalarField, StarGeometry, VectorField,
                       VLineGeometry, direction, fbp_inverse, forward_I,
                       forward_J, forward_L, forward_T, forward_star,
                       grid_for_star, grid_for_vline, invert_signed,
                       invert_star, make_phantom, radon_forward, recover_curl,
                       recover_div, recover_field_LI, recover_field_LT,
                       recover_field_TJ, recover_potential, recover_stream,
                       signed_vline, singular_directions)
from vlinetomo.star import _angular_distance

# name: (map on sample arrays, map on vector components, sign of the
# transverse parts)
ACTIONS = {
    "rot90": (lambda a: np.rot90(a, 1), lambda x, y: (-y, x), 1.0),
    "mirror_x": (lambda a: a[::-1, :], lambda x, y: (-x, y), -1.0),
    # the mirror, then the rotation: the mirror across the line y = -x
    "rot90_mirror_x": (lambda a: np.rot90(a[::-1, :], 1),
                       lambda x, y: (-y, -x), -1.0),
}

# V-line inversions: 1/|det(v, u)| and the stencils amplify rounding
VLINE_RTOL = 1e-10


def _assert_moved(got, ref, rtol=1e-13):
    assert np.abs(got - ref).max() <= rtol * np.abs(ref).max()


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


PAIRS = [(64, np.array([1.0, 0.0]), np.array([0.0, 1.0])),
         (64, direction(0.35), direction(2.1)),
         (64, direction(0.0), direction(3.14)),
         (96, direction(1.0), direction(1.9))]
PAIR_IDS = ["axis", "0.35-2.1", "0-3.14", "1.0-1.9"]

# ray angles and weights; the last star has type-2 singular directions
STARS = {"3-ray": ((0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0), (1.0, 1.0, 1.0)),
         "4-ray": ((0.3, 1.9, 3.5, 5.0), (1.0, -0.7, 1.3, 0.6)),
         "3-ray-z2": ((0.1, 1.2, 2.0), (1.0, -2.0, 1.0))}

# The 3-ray star's type-1 singular directions lie on whole degrees, so
# some of the 360 angles lie exactly guard_deg = 2 degrees from one;
# star._unguarded keeps such ties on both sides of a band (GUARD_TIE_TOL),
# so a mirror maps the band onto itself.
STAR_CASES = [pytest.param(star, action, id=f"{star}-{action}")
              for star in STARS for action in ACTIONS]


def _stars(name, action):
    angles, weights = STARS[name]
    sg = StarGeometry(tuple(direction(a) for a in angles), weights)
    return sg, StarGeometry(tuple(_moved_direction(g, action)
                                  for g in sg.gammas), weights)


@pytest.mark.parametrize("action", ACTIONS)
@pytest.mark.parametrize("nx, u, v", PAIRS, ids=PAIR_IDS)
def test_vline_inversions_commute_with_grid_symmetries(nx, u, v, action):
    arr, _, sign = ACTIONS[action]
    geom = VLineGeometry(u, v)
    moved = VLineGeometry(_moved_direction(u, action), _moved_direction(v, action))
    grid = grid_for_vline(nx, 1.0, geom)
    f = make_phantom("mixed", grid).field
    data = {"L": (forward_L(f, geom), 1.0), "T": (forward_T(f, geom), sign),
            "I": (forward_I(f, geom), 1.0), "J": (forward_J(f, geom), sign),
            "S": (signed_vline(ScalarField(grid, f.f1), geom), 1.0)}
    d = {k: x for k, (x, _) in data.items()}
    dm = {k: ScalarField(grid, s * arr(x.values)) for k, (x, s) in data.items()}
    # scalar outputs: the curl and the stream function are pseudoscalars
    for inverse, key, s in ((invert_signed, "S", 1.0), (recover_curl, "L", sign),
                            (recover_div, "T", 1.0),
                            (recover_potential, "T", 1.0),
                            (recover_stream, "L", sign)):
        _assert_moved(inverse(dm[key], moved).values,
                      s * arr(inverse(d[key], geom).values), VLINE_RTOL)
    for inverse, keys in ((recover_field_LT, "LT"), (recover_field_LI, "LI"),
                          (recover_field_TJ, "TJ")):
        got = inverse(*(dm[k] for k in keys), moved)
        ref = _moved_field(inverse(*(d[k] for k in keys), geom), action)
        _assert_moved(got.f1, ref.f1, VLINE_RTOL)
        _assert_moved(got.f2, ref.f2, VLINE_RTOL)


@pytest.mark.parametrize("star, action", STAR_CASES)
def test_invert_star_commutes_with_grid_symmetries(star, action):
    # 360 angles, a multiple of 4: every moved sinogram angle is a grid angle
    arr, _, sign = ACTIONS[action]
    sg, moved = _stars(star, action)
    grid = grid_for_star(64, 1.0, sg)
    sf = forward_star(make_phantom("mixed", grid).field, sg)
    got = invert_star(VectorField(grid, arr(sf.f1), sign * arr(sf.f2)), moved,
                      n_angles=360)
    ref = _moved_field(invert_star(sf, sg, n_angles=360), action)
    _assert_moved(got.f1, ref.f1)
    _assert_moved(got.f2, ref.f2)


@pytest.mark.parametrize("action", ACTIONS)
def test_radon_and_fbp_commute_with_grid_symmetries(action):
    arr = ACTIONS[action][0]
    grid = Grid2D.centered(64, 1.0, 1.5)
    h = make_phantom("mixed", grid).field.f1

    def fbp(values):
        sino = radon_forward(ScalarField(grid, values), 360, grid.nx, full=True)
        return fbp_inverse(sino, grid).values

    _assert_moved(fbp(arr(h)), arr(fbp(h)))


@pytest.mark.parametrize("action", ACTIONS)
@pytest.mark.parametrize("star", STARS)
def test_singular_directions_move_with_the_rays(star, action):
    # the angle of the moved normal: +pi/2 under the rotation
    vec = ACTIONS[action][1]
    sg, moved = _stars(star, action)
    sing, sing_moved = singular_directions(sg), singular_directions(moved)
    for ref, got in ((sing.z1, sing_moved.z1), (sing.z2, sing_moved.z2)):
        want = np.arctan2(*vec(np.cos(ref), np.sin(ref))[::-1])
        dist = _angular_distance(got[:, None], want[None, :])
        assert len(got) == len(want)
        if len(got):
            assert max(dist.min(axis=0).max(), dist.min(axis=1).max()) <= 1e-12
