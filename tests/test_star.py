import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from vlinetomo import (ConfigError, GeometryError, Sinogram, StarGeometry,
                       classify, direction, forward_L, forward_star, forward_T,
                       gamma_of_psi, grid_for_star, invert_star, make_phantom,
                       perp, q_of_psi, singular_directions)
from vlinetomo.star import (GUARD_TIE_TOL, Z1_TOL, _angular_distance, _p_of_w,
                            apply_q)

from conftest import rel_l2
from oracles import symmetric_by_coefficients

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def _star(angles_deg, weights):
    gammas = tuple(direction(np.deg2rad(a)) for a in angles_deg)
    return StarGeometry(gammas, tuple(weights))


@pytest.fixture
def corner_star():
    return StarGeometry((E1, E2), (1.0, 1.0))


@pytest.fixture
def symmetric_star():
    return StarGeometry((E1, -E1), (2.0, -2.0))


def test_star_geometry_validation():
    with pytest.raises(ConfigError):
        StarGeometry((E1, E2), (1.0,))
    with pytest.raises(ConfigError):
        StarGeometry((E1,), (1.0,))
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(ConfigError):
            StarGeometry((E1, E2), (1.0, bad))
    with pytest.raises(ConfigError):
        StarGeometry((E1, E1), (1.0, 1.0))
    with pytest.raises(GeometryError):
        StarGeometry((np.array([np.nan, 0.0]), E2), (1.0, 1.0))


def test_required_r2(corner_star):
    # rays 90 degrees apart: r2 = r1 / sin(45 deg)
    assert corner_star.required_r2(1.0) == pytest.approx(np.sqrt(2.0))
    tight = _star((0.0, 30.0), (1.0, 1.0))
    assert tight.required_r2(1.0) == pytest.approx(1.0 / np.sin(np.deg2rad(15)))


def test_check_grid_rejects_small_domain(corner_star):
    from vlinetomo import Grid2D
    with pytest.raises(GeometryError):
        corner_star.check_grid(Grid2D.centered(64, 1.0, 1.2))


def test_gamma_of_psi_oracle(corner_star):
    psi = np.array([1.0, 1.0]) / np.sqrt(2.0)
    g = gamma_of_psi(corner_star, psi)
    assert np.allclose(g, [-np.sqrt(2.0), -np.sqrt(2.0)])


def test_gamma_of_psi_singular_direction(corner_star):
    with pytest.raises(GeometryError):
        gamma_of_psi(corner_star, E2)  # orthogonal to the first ray


def test_gamma_vanishes_for_symmetric(symmetric_star):
    g = gamma_of_psi(symmetric_star, direction(0.3))
    assert np.hypot(*g) <= 1e-14
    with pytest.raises(GeometryError):
        q_of_psi(symmetric_star, direction(0.3))


def test_q_of_psi_is_matrix_inverse(corner_star):
    for a in (0.3, 1.0, 2.4, 4.0):
        psi = direction(a)
        g = gamma_of_psi(corner_star, psi)
        m = np.array([g, perp(g)])
        q = q_of_psi(corner_star, psi)
        assert np.allclose(q @ m, np.eye(2), atol=1e-12)


def test_gamma_and_q_of_psi_on_arrays():
    # the array forms equal the stacked one-normal calls bit for bit
    sg = _star((10.0, 95.0, 200.0, 290.0), (1.0, -0.5, 2.0, 0.7))
    psi = np.stack([direction(a) for a in (0.3, 1.0, 2.4, 4.0, 5.5)])
    for fn in (gamma_of_psi, q_of_psi):
        got = fn(sg, psi.reshape(5, 1, 2))
        ref = np.stack([fn(sg, p) for p in psi])
        assert np.array_equal(got.reshape(ref.shape), ref)
    for fn in (gamma_of_psi, q_of_psi):
        with pytest.raises(GeometryError, match="unit"):
            fn(sg, np.vstack([psi, [1.0, 1.0]]))
        # direction(185 deg) is orthogonal to ray 1 at 95 degrees
        with pytest.raises(GeometryError, match="ray 1"):
            fn(sg, np.vstack([psi, direction(np.deg2rad(185.0))]))


def test_p_of_w_identity():
    # C(e^{2 i theta}) = e^{i(m-1)theta} (P1 + i P2)(psi) with P from its
    # definition sum_i c_i gamma_i prod_{j!=i} (psi . gamma_j)
    sg = _star((10.0, 95.0, 200.0, 290.0), (1.0, -0.5, 2.0, 0.7))
    coef = _p_of_w(sg)
    assert coef.shape == (sg.m,)
    for theta in np.random.default_rng(4).uniform(0.0, 2 * np.pi, 8):
        psi = direction(theta)
        p = sum(c * g * np.prod([psi @ h for j, h in enumerate(sg.gammas)
                                 if j != i])
                for i, (g, c) in enumerate(zip(sg.gammas, sg.weights)))
        ref = np.exp(1j * (sg.m - 1) * theta) * complex(*p)
        got = np.polynomial.polynomial.polyval(np.exp(2j * theta), coef)
        assert abs(got - ref) <= 1e-14 * np.abs(coef).sum()


def test_classify_examples(corner_star, symmetric_star):
    assert classify(corner_star) == "invertible"
    assert classify(symmetric_star) == "symmetric"
    # opposite rays but non-opposite weights: invertible
    assert classify(StarGeometry((E1, -E1), (1.0, 1.0))) == "invertible"
    # odd ray count is always invertible
    assert classify(_star((0.0, 120.0, 240.0), (1.0, -1.0, 1.0))) == "invertible"
    # two symmetric pairs
    four = _star((0.0, 90.0, 180.0, 270.0), (1.0, 0.5, -1.0, -0.5))
    assert classify(four) == "symmetric"


def test_classify_invariances(symmetric_star):
    reordered = StarGeometry((-E1, E1), (-2.0, 2.0))
    assert classify(reordered) == "symmetric"
    scaled = StarGeometry((E1, -E1), (0.25, -0.25))
    assert classify(scaled) == "symmetric"


def test_symmetric_by_coefficients_agrees(corner_star, symmetric_star):
    cases = [corner_star, symmetric_star,
             StarGeometry((E1, -E1), (1.0, 1.0)),
             _star((0.0, 90.0, 180.0, 270.0), (1.0, 0.5, -1.0, -0.5)),
             _star((0.0, 120.0, 240.0), (1.0, 1.0, 1.0))]
    for sg in cases:
        assert symmetric_by_coefficients(sg) == (classify(sg) == "symmetric")


def test_singular_directions_z1(corner_star):
    sd = singular_directions(corner_star)
    assert np.allclose(np.sort(sd.z1),
                       [0.0, np.pi / 2, np.pi, 3 * np.pi / 2], atol=1e-12)
    assert sd.z2.size == 0
    assert not sd.degenerate


def test_singular_directions_skips_roots_in_z1():
    # an opposite, non-symmetric pair makes P vanish where psi is orthogonal
    # to both rays; that direction is type 1 and stays out of Z2
    sg = _star((0.0, 180.0, 57.0), (1.0, 2.0, -0.5))
    sd = singular_directions(sg)
    assert np.sum(np.abs(sd.z1 - np.pi / 2) <= 1e-12) == 2
    assert sd.z2.size == 0


def test_singular_directions_degenerate(symmetric_star):
    sd = singular_directions(symmetric_star)
    assert sd.degenerate
    assert sd.z2.size == 0


def _star_with_z2_root(theta0):
    # rays 10/130/250 degrees with weights chosen so gamma(psi) vanishes at
    # psi = direction(theta0): the null space of the 2x3 system
    # sum_i c_i gamma_i prod_{j!=i}(psi.gamma_j) = 0
    gam = [direction(np.deg2rad(a)) for a in (10.0, 130.0, 250.0)]
    psi = direction(theta0)
    prods = [np.prod([float(psi @ gam[j]) for j in range(3) if j != i])
             for i in range(3)]
    m = np.column_stack([gam[i] * prods[i] for i in range(3)])
    c = np.linalg.svd(m)[2][-1]
    return StarGeometry(tuple(gam), tuple(c / np.max(np.abs(c))))


# 0.0 lies on any angular lattice; the others lie between lattice points
@pytest.mark.parametrize("theta0", [0.0, 0.3156, 0.9651,
                                    2 * np.pi * 20 / 360],
                         ids=["0.0", "0.3156", "0.9651", "20deg"])
def test_singular_directions_finds_z2_roots(theta0):
    sg = _star_with_z2_root(theta0)
    sd = singular_directions(sg)
    assert sd.z2.size == 2  # psi and -psi
    assert np.all(np.diff(sd.z2) > 0)
    assert np.all((sd.z2 >= 0.0) & (sd.z2 < 2 * np.pi))
    for root in (theta0, theta0 + np.pi):
        assert np.min(_angular_distance(sd.z2, root)) <= 1e-9
    for a in sd.z2:
        assert np.hypot(*gamma_of_psi(sg, direction(a))) <= 1e-9


def test_singular_directions_merges_even_order_root():
    # weights make P and dP/dtheta vanish together at theta0 (the same as
    # C(w0) = C'(w0) = 0 for the w-polynomial), so theta0 is a double root
    # that eigenvalues return as two nearby copies
    theta0 = 0.37
    gam = [direction(np.deg2rad(a)) for a in (5.0, 80.0, 150.0, 220.0, 300.0)]
    psi, dpsi = direction(theta0), perp(direction(theta0))
    cols = []
    for i, g in enumerate(gam):
        others = [gam[j] for j in range(5) if j != i]
        val = np.prod([psi @ h for h in others])
        der = sum(dpsi @ others[k]
                  * np.prod([psi @ h for j, h in enumerate(others) if j != k])
                  for k in range(4))
        cols.append(np.concatenate([g * val, g * der]))
    c = np.linalg.svd(np.column_stack(cols))[2][-1]
    sg = StarGeometry(tuple(gam), tuple(c / np.max(np.abs(c))))
    sd = singular_directions(sg)
    for root in (theta0, theta0 + np.pi):
        assert np.sum(_angular_distance(sd.z2, root) <= 1e-7) == 1
        # the mean of the two copies, not either copy (about 4e-9 off)
        assert np.min(_angular_distance(sd.z2, root)) <= 1e-12
    for a in sd.z2:
        assert np.hypot(*gamma_of_psi(sg, direction(a))) <= 1e-9


def test_singular_directions_keeps_roots_next_to_z1():
    # 6-ray stars with a planted Z2 root: the weights are a random
    # combination of the null space of the 2x6 system P(psi0) = 0.  Some
    # roots land within 0.1 degree of Z1, where |gamma| is ill-conditioned
    def p_of_psi(sg, a):
        psi, g = direction(a), np.array(sg.gammas)
        return np.hypot(*sum(c * g[i] * np.prod(np.delete(g @ psi, i))
                             for i, c in enumerate(sg.weights)))

    rng = np.random.default_rng(2026)
    for _ in range(200):
        gam = [direction(a) for a in rng.uniform(0.0, 2.0 * np.pi, 6)]
        psi0 = direction(rng.uniform(0.0, np.pi))
        m = np.column_stack([g * np.prod([psi0 @ h for h in gam[:i] + gam[i + 1:]])
                             for i, g in enumerate(gam)])
        c = np.linalg.svd(m)[2][2:].T @ rng.standard_normal(4)
        sg = StarGeometry(tuple(gam), tuple(c / np.max(np.abs(c))))
        sd = singular_directions(sg)
        coef = _p_of_w(sg)
        w = npoly.polyroots(coef)
        w = w[w != 0.0] / np.abs(w[w != 0.0])
        a = np.angle(w) / 2.0
        on_circle = np.abs(npoly.polyval(w, coef)) <= 1e-12 * np.abs(coef).sum()
        off_z1 = np.abs(direction(a).T @ np.array(gam).T).min(axis=1) >= Z1_TOL
        for root in a[on_circle & off_z1]:
            for r in (root, root + np.pi):
                assert np.min(_angular_distance(sd.z2, r), initial=np.inf) <= 1e-7
        for z in sd.z2:
            assert p_of_psi(sg, z) <= 1e-12 * np.sum(np.abs(sg.weights))


@pytest.mark.parametrize("root_deg", [20.0, 18.003])
def test_invert_star_through_z2_root(root_deg):
    # a root on the 1-degree angle lattice, and one just off it
    sg = _star_with_z2_root(np.deg2rad(root_deg))
    grid = grid_for_star(64, 1.0, sg)
    ph = make_phantom("mixed", grid)
    rec = invert_star(forward_star(ph.field, sg), sg, n_angles=360)
    mask = grid.disc_mask(grid.r1)
    assert rel_l2(rec.f1, ph.field.f1, mask) <= 0.10
    assert rel_l2(rec.f2, ph.field.f2, mask) <= 0.10


def test_forward_star_matches_L_and_T(geom):
    # rays (gamma_1, gamma_2) = (v, u) with weights (1, -1) reproduce the
    # longitudinal/transverse pair for the V-line geometry (u, v)
    sg = StarGeometry((geom.v, geom.u), (1.0, -1.0))
    grid = grid_for_star(96, 1.0, sg)
    ph = make_phantom("mixed", grid)
    sf = forward_star(ph.field, sg)
    lf = forward_L(ph.field, geom)
    tf = forward_T(ph.field, geom)
    scale = max(np.abs(lf.values).max(), np.abs(tf.values).max())
    assert np.abs(sf.f1 - lf.values).max() <= 1e-12 * scale
    assert np.abs(sf.f2 - tf.values).max() <= 1e-12 * scale


VLINE_PAIRS = {"axis": (0.0, np.pi / 2), "0.35-2.1": (0.35, 2.1)}


def _vline(pair):
    from vlinetomo import VLineGeometry
    return VLineGeometry(*(direction(a) for a in VLINE_PAIRS[pair]))


def test_vline_geometry_is_the_two_ray_star():
    geom = _vline("0.35-2.1")
    assert isinstance(geom, StarGeometry)
    assert geom.weights == (-1.0, 1.0)
    assert geom.gammas == geom.rays == (geom.u, geom.v) and geom.m == 2
    assert classify(geom) == "invertible"


@pytest.mark.parametrize("pair", VLINE_PAIRS)
def test_forward_star_of_a_vline_geometry_is_L_and_T(pair):
    geom = _vline(pair)
    ph = make_phantom("mixed", grid_for_star(64, 1.0, geom))
    sf = forward_star(ph.field, geom)
    assert np.array_equal(sf.f1, forward_L(ph.field, geom).values)
    assert np.array_equal(sf.f2, forward_T(ph.field, geom).values)


@pytest.mark.parametrize("pair", VLINE_PAIRS)
def test_invert_star_of_a_vline_geometry_converges(pair):
    # the star inversion of (L f, T f); measured 6.20 -> 1.57% (axis) and
    # 6.43 -> 1.61% (0.35-2.1), the larger component, from nx = 64 to 128
    geom, err = _vline(pair), []
    for nx in (64, 128):
        grid = grid_for_star(nx, 1.0, geom)
        ph = make_phantom("mixed", grid)
        rec = invert_star(forward_star(ph.field, geom), geom)
        mask = grid.disc_mask(grid.r1)
        err.append(max(rel_l2(rec.f1, ph.field.f1, mask),
                       rel_l2(rec.f2, ph.field.f2, mask)))
    assert err[1] < 0.02 and err[0] >= 3.5 * err[1]


def test_forward_star_zero_field():
    sg = _star((0.0, 120.0, 240.0), (1.0, 1.0, 1.0))
    grid = grid_for_star(64, 1.0, sg)
    from vlinetomo import VectorField
    z = np.zeros((grid.nx, grid.ny))
    sf = forward_star(VectorField(grid, z, z), sg)
    assert np.all(sf.f1 == 0.0) and np.all(sf.f2 == 0.0)


def test_invert_star_round_trip():
    sg = _star((0.0, 120.0, 240.0), (1.0, 1.0, 1.0))
    grid = grid_for_star(128, 1.0, sg)
    ph = make_phantom("mixed", grid)
    rec = invert_star(forward_star(ph.field, sg), sg, n_angles=360)
    mask = grid.disc_mask(grid.r1)
    assert rel_l2(rec.f1, ph.field.f1, mask) <= 0.08
    assert rel_l2(rec.f2, ph.field.f2, mask) <= 0.08


def test_invert_star_rejects_symmetric(symmetric_star):
    from vlinetomo import Grid2D
    grid = Grid2D.centered(64, 1.0, 2.0)
    vals = np.zeros((2, grid.nx, grid.ny))
    from vlinetomo import VectorField
    with pytest.raises(GeometryError):
        invert_star(VectorField(grid, *vals), symmetric_star)


def test_invert_star_rejects_grid_without_strip_ring(corner_star):
    # the grid square reaches half a cell beyond r2, short of the strip
    # ring r2 + 2h that the chords read
    from vlinetomo import Grid2D, VectorField
    h = 2.0 / 23.0
    grid = Grid2D(48, 48, h, (-23.5 * h, -23.5 * h), 1.0, 2.0)
    sf = VectorField(grid, *np.zeros((2, grid.nx, grid.ny)))
    with pytest.raises(GeometryError):
        invert_star(sf, corner_star)


def test_apply_q_validation(corner_star):
    one_comp = Sinogram(np.zeros((1, 64, 32)), 0.0, 2 * np.pi / 64, 0.1)
    with pytest.raises(ConfigError):
        apply_q(one_comp, corner_star)
    few = Sinogram(np.zeros((2, 8, 32)), 0.0, 2 * np.pi / 8, 0.1)
    with pytest.raises(ConfigError):
        apply_q(few, corner_star)


def test_apply_q_rejects_half_range():
    # a periodic refill over a half circle would join row n - 1 to row 0,
    # which continues row n - 1 reversed in s; rays at 90/200/330 degrees
    # put guarded rows at both ends of the half circle
    sg = _star((90.0, 200.0, 330.0), (1.0, 1.0, 1.0))
    half = Sinogram(np.ones((2, 180, 32)), 0.0, np.pi / 180, 0.1)
    with pytest.raises(ConfigError):
        apply_q(half, sg)


def test_apply_q_rejects_a_partial_circle(corner_star):
    # 300 of 360 rows span 5.24 rad: not the circle the refill wraps around
    part = Sinogram(np.ones((2, 300, 32)), 0.0, 2 * np.pi / 360, 0.1)
    with pytest.raises(ConfigError):
        apply_q(part, corner_star)


@pytest.mark.parametrize("sg,wraps", [
    (_star((0.0, 120.0, 240.0), (1.0, 1.0, 1.0)), False),
    (_star((10.0, 95.0, 200.0, 290.0), (1.0, -0.5, 2.0, 0.7)), False),
    (_star((90.0, 200.0, 330.0), (1.0, 0.6, -1.3)), True)],
    ids=["sg0", "sg1", "sg2"])
def test_apply_q_matches_matrix_form(sg, wraps):
    # unguarded rows are Q(psi) [d1; d2]; guarded rows interpolate linearly,
    # periodically in angle, between the nearest unguarded rows; a ray at 90
    # degrees guards rows 0 and n - 1, so their refill crosses the wrap
    rng = np.random.default_rng(3)
    n = 360
    d = rng.standard_normal((2, n, 40))
    got = apply_q(Sinogram(d, 0.0, 2 * np.pi / n, 0.1), sg).values
    sing = singular_directions(sg)
    angles = 2 * np.pi / n * np.arange(n)
    dist = _angular_distance(angles[:, None],
                             np.concatenate([sing.z1, sing.z2])[None, :])
    valid = np.flatnonzero(dist.min(axis=1) >= np.deg2rad(2.0) - GUARD_TIE_TOL)
    assert 0 < len(valid) < n
    assert wraps == (0 not in valid and n - 1 not in valid)
    for k in range(n):
        if k in valid:
            ref = q_of_psi(sg, direction(angles[k])) @ d[:, k]
        else:
            k0 = valid[valid < k][-1] if np.any(valid < k) else valid[-1] - n
            k1 = valid[valid > k][0] if np.any(valid > k) else valid[0] + n
            t = (k - k0) / (k1 - k0)
            ref = (1.0 - t) * got[:, k0 % n] + t * got[:, k1 % n]
        assert np.abs(got[:, k] - ref).max() <= 1e-14 * np.abs(ref).max()


def test_apply_q_rejects_nonpositive_guard():
    # the 360-angle lattice hits the type-1 direction pi/2 of this star, so
    # without the check q_of_psi would raise GeometryError there
    sg = _star((0.0, 120.0, 240.0), (1.0, 1.0, 1.0))
    sino = Sinogram(np.zeros((2, 360, 32)), 0.0, 2 * np.pi / 360, 0.1)
    for guard in (0.0, -1.0, float("nan")):
        with pytest.raises(ConfigError):
            apply_q(sino, sg, guard_deg=guard)


def test_invert_star_rejects_nonpositive_guard_before_radon(monkeypatch):
    import vlinetomo.star as star_module

    def no_radon(*args, **kwargs):
        raise AssertionError("the Radon transform ran before the guard check")

    monkeypatch.setattr(star_module, "radon_transform_field", no_radon)
    sg = _star((0.0, 120.0, 240.0), (1.0, 1.0, 1.0))
    grid = grid_for_star(64, 1.0, sg)
    from vlinetomo import VectorField
    sf = VectorField(grid, *np.zeros((2, grid.nx, grid.ny)))
    with pytest.raises(ConfigError):
        invert_star(sf, sg, guard_deg=0.0)


def test_invert_star_rejects_r2_below_the_strip_bound_before_radon(monkeypatch):
    # rays 0 and 0.9 rad apart need r2 >= 1 / sin(0.45) = 2.30 for disjoint
    # strips; the forward reads no strip and accepts the r2 = 1.5 grid, but
    # the inversion, whose strip model needs them disjoint, raises first
    import vlinetomo.star as star_module
    from vlinetomo import Grid2D

    def no_radon(*args, **kwargs):
        raise AssertionError("the Radon transform ran before the bound check")

    sg = StarGeometry(tuple(direction(a) for a in (0.0, 0.9, 3.5)),
                      (1.0, 1.0, 1.0))
    grid = Grid2D.centered(64, 1.0, 1.5)
    sf = forward_star(make_phantom("mixed", grid).field, sg)
    assert sf.max_norm() > 0.0
    monkeypatch.setattr(star_module, "radon_transform_field", no_radon)
    with pytest.raises(GeometryError, match="requirement 2.29903"):
        invert_star(sf, sg)


@pytest.mark.parametrize("kwargs", [{"n_angles": 8}, {"guard_deg": 60.0}])
def test_invert_star_rejects_too_few_unguarded_angles_before_radon(
        monkeypatch, kwargs):
    # 8 angles are fewer than 16; a 60 degree guard about the six Z1
    # directions of this star, 60 degrees apart, leaves no angle
    import vlinetomo.star as star_module

    def no_radon(*args, **kwargs):
        raise AssertionError("the Radon transform ran before the guard check")

    monkeypatch.setattr(star_module, "radon_transform_field", no_radon)
    sg = _star((0.0, 120.0, 240.0), (1.0, 1.0, 1.0))
    grid = grid_for_star(64, 1.0, sg)
    from vlinetomo import VectorField
    sf = VectorField(grid, *np.zeros((2, grid.nx, grid.ny)))
    with pytest.raises(ConfigError, match="fewer than 16"):
        invert_star(sf, sg, **kwargs)
