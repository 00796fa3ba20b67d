import numpy as np
import pytest

from vlinetomo import (ConfigError, GeometryError, Grid2D, ScalarField,
                       StarGeometry, VectorField,
                       VLineGeometry, det2, direction, grid_for_vline, perp,
                       unit_vector)


def test_perp_paper_examples():
    assert np.allclose(perp((1, 0)), (0, 1))
    assert np.allclose(perp((0, 1)), (-1, 0))


def test_perp_double_application_is_negation():
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.normal(size=2)
        assert np.allclose(perp(perp(x)), -x)


def test_det2_hand_value():
    assert det2((0.0, 1.0), (1.0, 0.0)) == -1.0


def test_det2_identical_vectors():
    d = direction(0.7)
    assert det2(d, d) == 0.0


def test_det2_trig_identity():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a, b = rng.uniform(0, 2 * np.pi, 2)
        u, v = direction(a), direction(b)
        assert det2(v, u) == pytest.approx(np.sin(a - b), abs=1e-12)


def test_det2_equals_dot_u_perp_v():
    rng = np.random.default_rng(2)
    for _ in range(20):
        u, v = direction(rng.uniform(0, 7)), direction(rng.uniform(0, 7))
        assert det2(v, u) == pytest.approx(float(np.dot(u, perp(v))), abs=1e-15)


def test_unit_vector_rejects_non_unit():
    for d in ((1.0, 1.0), (np.nan, 0.0), (1.0, np.nan), (np.inf, 0.0)):
        with pytest.raises(GeometryError):
            unit_vector(d)


def test_grid_requires_disc_coverage():
    with pytest.raises(ConfigError):
        Grid2D(nx=32, ny=32, h=0.01, origin=(-0.15, -0.15), r1=0.1, r2=0.2)


def test_grid_rejects_small_counts():
    with pytest.raises(ConfigError):
        Grid2D.centered(8, 1.0, 2.0)


def test_centered_grid_contains_r2_disc():
    g = Grid2D.centered(64, 1.0, 2.0)
    assert g.xs()[0] <= -g.r2 and g.xs()[-1] >= g.r2
    assert g.ys()[0] <= -g.r2 and g.ys()[-1] >= g.r2


def test_scalar_field_shape_check(small_grid):
    with pytest.raises(ConfigError):
        ScalarField(small_grid, np.zeros((3, 3)))


def test_scalar_field_rejects_nan(small_grid):
    vals = np.zeros((small_grid.nx, small_grid.ny))
    vals[0, 0] = np.nan
    with pytest.raises(ConfigError):
        ScalarField(small_grid, vals)


def test_compactness_flag(small_grid):
    vals = np.where(small_grid.disc_mask(0.9 * small_grid.r1), 1.0, 0.0)
    assert ScalarField(small_grid, vals).is_compact()
    assert not ScalarField(small_grid, np.ones_like(vals)).is_compact()


def test_vector_field_perp(small_grid):
    rng = np.random.default_rng(3)
    f1 = rng.normal(size=(small_grid.nx, small_grid.ny))
    f2 = rng.normal(size=(small_grid.nx, small_grid.ny))
    fp = VectorField(small_grid, f1, f2).perp()
    assert np.array_equal(fp.f1, -f2) and np.array_equal(fp.f2, f1)


def test_fields_own_read_only_samples(small_grid):
    src = np.zeros((small_grid.nx, small_grid.ny))
    stacked = np.zeros((2, small_grid.nx, small_grid.ny))
    vf = VectorField(small_grid, src, src)
    sf = VectorField(small_grid, *stacked)
    arrays = [ScalarField(small_grid, src).values, vf.f1, vf.f2, sf.f1, sf.f2]
    src[0, 0] = 1.0
    stacked[:, 0, 0] = 1.0
    for arr in arrays:
        assert np.all(arr == 0.0)
        with pytest.raises(ValueError):
            arr[0, 0] = 2.0


def test_geometries_own_read_only_directions():
    u, v = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    geom = VLineGeometry(u, v)
    star = StarGeometry((u, v), (1.0, 1.0))
    u[:] = (0.6, 0.8)  # would leave det(v, u) below MIN_DET if aliased
    v[:] = (0.6, 0.8)
    for d, want in ((geom.u, (1.0, 0.0)), (geom.v, (0.0, 1.0)),
                    (star.gammas[0], (1.0, 0.0)), (star.gammas[1], (0.0, 1.0))):
        assert np.array_equal(d, want)
        with pytest.raises(ValueError):
            d[0] = 2.0
    assert not unit_vector(u).flags.writeable


def test_grid_rr_is_read_only_and_computed_once():
    grid = Grid2D(40, 48, 0.1, (-1.95, -2.3), 1.0, 1.9)
    rr = grid.rr()
    assert np.array_equal(rr, np.hypot(grid.xs()[:, None], grid.ys()[None, :]))
    assert grid.rr() is rr
    with pytest.raises(ValueError):
        rr[0, 0] = 0.0


def test_grid_origin_is_a_tuple_of_floats():
    origin = [-2.0, np.float32(-2.0)]
    grid = Grid2D(64, 64, 4.0 / 63, origin, 1.0, 1.9)
    origin[0] = 5.0
    assert grid.origin == (-2.0, -2.0)
    assert all(type(c) is float for c in grid.origin)


def test_vline_geometry_rejects_parallel():
    with pytest.raises(GeometryError):
        VLineGeometry(np.array([1.0, 0.0]), np.array([1.0, 0.0]))


def test_vline_required_r2():
    geom = VLineGeometry(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    # angle pi/2 between rays: r2 = r1 / sin(pi/4)
    assert geom.required_r2(1.0) == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_grid_for_vline_meets_requirement(oblique_geom):
    g = grid_for_vline(64, 1.0, oblique_geom)
    oblique_geom.check_grid(g)


def test_check_grid_raises_on_small_r2():
    geom = VLineGeometry(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    g = Grid2D.centered(64, 1.0, 1.2)
    with pytest.raises(GeometryError):
        geom.check_grid(g)


@pytest.mark.parametrize("h", [np.inf, np.nan, 1e308])
def test_grid_rejects_non_finite_spacing_and_far_corner(h):
    # h = 1e308 is finite, but the far corner origin + 15 h overflows
    with pytest.raises(ConfigError):
        Grid2D(nx=16, ny=16, h=h, origin=(-1.0, -1.0), r1=0.5, r2=0.9)


def test_same_layout_compares_radii_and_relative_spacing():
    g = Grid2D.centered(32, 1.0, 1.5)
    assert g.same_layout(Grid2D.centered(32, 1.0, 1.5))
    assert not g.same_layout(Grid2D(32, 32, g.h, g.origin, 0.8, 1.5))
    assert not g.same_layout(Grid2D(32, 32, g.h, g.origin, 1.0, 1.4))
    # spacings 1e-10 and 2e-10 are within any absolute tolerance, not equal
    tiny = Grid2D(16, 16, 1e-10, (-8e-10, -8e-10), 1e-10, 2e-10)
    assert not tiny.same_layout(Grid2D(16, 16, 2e-10, (-8e-10, -8e-10),
                                       1e-10, 2e-10))


def test_geometries_compare_and_hash_by_value():
    u, v = direction(0.35), direction(2.1)
    geom = VLineGeometry(u, v)
    same = VLineGeometry(u.tolist(), tuple(v))
    star = StarGeometry((u, v, direction(4.0)), (1.0, -2.0, 0.5))
    same_star = StarGeometry((u.copy(), v.copy(), direction(4.0)), (1, -2, 0.5))
    assert geom == same and hash(geom) == hash(same)
    assert star == same_star and hash(star) == hash(same_star)
    assert geom != VLineGeometry(v, u)
    assert geom != VLineGeometry(u, direction(2.1 + 1e-15))
    assert star != StarGeometry((u, v, direction(4.0)), (1.0, -2.0, 0.25))
    # a V-line is the star (u, v; -1, +1), but the classes stay distinct
    assert geom != StarGeometry((u, v), (-1.0, 1.0))
    table = {geom: "vline", star: "star"}
    assert table[same] == "vline" and table[same_star] == "star"
    assert len({geom, same, star, same_star}) == 2


def test_grid_disc_box_is_rr_on_the_rows_and_columns_of_the_disc():
    for grid in (Grid2D(40, 48, 0.1, (-1.95, -2.3), 1.0, 1.9),
                 Grid2D(64, 64, 2.002 / 63, (-1.001, -1.001), 1.0, 1.001)):
        rows, cols, rr = grid.disc_box()
        assert grid.disc_box()[2] is rr and not rr.flags.writeable
        assert np.array_equal(rr, grid.rr()[rows, cols])
        ix, iy = np.nonzero(grid.disc_mask(grid.r1))
        assert (rows.start, rows.stop) == (ix.min(), ix.max() + 1)
        assert (cols.start, cols.stop) == (iy.min(), iy.max() + 1)


def test_grid_without_disc_samples_has_an_empty_disc_box():
    # no sample lies within r1 = 0.5 of the centre, which sits between
    # four samples a unit apart: the beams, every forward, the signed
    # inversion, curl, div, LI and TJ are zero, and the Dirichlet solves
    # name the empty disc
    import vlinetomo as vt
    from vlinetomo import recover_curl, recover_div, recover_field_LT, solve_dirichlet_disc
    grid = Grid2D(16, 16, 1.0, (-7.5, -7.5), 0.5, 1.0)
    rows, cols, rr = grid.disc_box()
    assert rr.shape == (0, 0) and rows.start == rows.stop and cols.start == cols.stop
    data = ScalarField(grid, np.ones((16, 16)))
    field = VectorField(grid, np.ones((16, 16)), np.ones((16, 16)))
    geom = VLineGeometry(direction(0.0), direction(np.pi / 2))
    star = StarGeometry(tuple(direction(a) for a in (0.0, 2.1, 4.2)), (1.0, 1.0, 1.0))
    assert not recover_curl(data, geom).values.any()
    assert not recover_div(data, geom).values.any()
    for moment in (False, True):
        beam = vt.beam_field(data, direction(0.35), moment=moment)
        assert beam.shape == (16, 16) and not beam.any()
    for forward in (vt.forward_L, vt.forward_T, vt.forward_I, vt.forward_J):
        assert not forward(field, geom).values.any()
    assert not vt.forward_star(field, star).f1.any()
    assert not vt.signed_vline(data, geom).values.any()
    assert not vt.invert_signed(data, geom).values.any()
    for recover in (vt.recover_field_LI, vt.recover_field_TJ):
        rec = recover(data, data, geom)
        assert not rec.f1.any() and not rec.f2.any()
    for solve in (lambda: solve_dirichlet_disc(data),
                  lambda: recover_field_LT(data, data, geom)):
        with pytest.raises(ConfigError, match="no grid samples inside"):
            solve()


def test_adopted_fields_keep_the_checks_without_a_copy(small_grid):
    a, b = (np.zeros((small_grid.nx, small_grid.ny)) for _ in range(2))
    sf, vf = ScalarField._adopt(small_grid, a), VectorField._adopt(small_grid, a, b)
    assert sf.values is a and vf.f1 is a and vf.f2 is b
    assert not a.flags.writeable and not b.flags.writeable
    with pytest.raises(ConfigError, match="non-finite"):
        ScalarField._adopt(small_grid, np.full((small_grid.nx, small_grid.ny), np.inf))
    with pytest.raises(ConfigError, match="shape"):
        VectorField._adopt(small_grid, a, np.zeros((3, 3)))
