import numpy as np
import pytest

from vlinetomo import (GeometryError, RayQuadrature, TransformField,
                       VectorField, divergent_beam, forward_I, forward_J,
                       forward_L, forward_T, grid_for_vline, make_phantom,
                       moment_beam, recover_curl, recover_div,
                       recover_field_LI, recover_field_LT, recover_field_TJ,
                       recover_potential, recover_stream, rhombus_check)
from vlinetomo.operators import bilinear
from vlinetomo.vline import mixed_derivative

from conftest import rel_l2


def _zero_field(grid):
    z = np.zeros((grid.nx, grid.ny))
    return VectorField(grid, z, z)


def test_forward_L_kills_potential_fields(grid, geom):
    ph = make_phantom("potential", grid, scale=0.8)
    lf = forward_L(ph.field, geom)
    assert np.abs(lf.values).max() <= 1e-3 * ph.field.max_norm()


def test_forward_T_kills_solenoidal_fields(grid, geom):
    ph = make_phantom("solenoidal", grid, scale=0.8)
    tf = forward_T(ph.field, geom)
    assert np.abs(tf.values).max() <= 1e-3 * ph.field.max_norm()


def test_forward_zero_fields(grid, geom):
    z = _zero_field(grid)
    for op in (forward_L, forward_T, forward_I, forward_J):
        assert np.all(op(z, geom).values == 0.0)


def test_forward_L_matches_fine_quadrature(grid, geom):
    ph = make_phantom("solenoidal", grid, scale=0.7)
    lf = forward_L(ph.field, geom)
    fine = RayQuadrature(grid.h / 20)
    fu = ph.field.dot(geom.u)
    fv = ph.field.dot(geom.v)
    for x in ((-0.4, 0.1), (0.3, -0.2), (0.0, 0.55)):
        ref = (-divergent_beam(fu, x, geom.u, fine)
               + divergent_beam(fv, x, geom.v, fine))
        ix = int(np.argmin(np.abs(grid.xs() - x[0])))
        iy = int(np.argmin(np.abs(grid.ys() - x[1])))
        xg = (grid.xs()[ix], grid.ys()[iy])
        ref = (-divergent_beam(fu, xg, geom.u, fine)
               + divergent_beam(fv, xg, geom.v, fine))
        scale = np.abs(lf.values).max()
        assert abs(lf.values[ix, iy] - ref) <= 0.005 * scale


def test_forward_I_matches_fine_quadrature(grid, geom):
    ph = make_phantom("mixed", grid)
    i_f = forward_I(ph.field, geom)
    fine = RayQuadrature(grid.h / 20)
    fu = ph.field.dot(geom.u)
    fv = ph.field.dot(geom.v)
    ix = int(np.argmin(np.abs(grid.xs() + 0.3)))
    iy = int(np.argmin(np.abs(grid.ys() - 0.2)))
    xg = (grid.xs()[ix], grid.ys()[iy])
    ref = (-moment_beam(fu, xg, geom.u, fine)
           + moment_beam(fv, xg, geom.v, fine))
    assert abs(i_f.values[ix, iy] - ref) <= 0.005 * np.abs(i_f.values).max()


def test_perp_intertwiner_T(grid, oblique_geom):
    ph = make_phantom("mixed", grid)
    tf = forward_T(ph.field, oblique_geom)
    lfp = forward_L(ph.field.perp(), oblique_geom)
    scale = np.abs(tf.values).max()
    assert np.abs(tf.values + lfp.values).max() <= 1e-12 * scale


def test_perp_intertwiner_J(grid, oblique_geom):
    ph = make_phantom("mixed", grid)
    jf = forward_J(ph.field, oblique_geom)
    ifp = forward_I(ph.field.perp(), oblique_geom)
    scale = np.abs(jf.values).max()
    assert np.abs(jf.values + ifp.values).max() <= 1e-12 * scale


def test_recover_curl_origin_value(geom):
    g = grid_for_vline(256, 1.0, geom)
    ph = make_phantom("solenoidal", g)
    c = recover_curl(forward_L(ph.field, geom), geom)
    ix = int(np.argmin(np.abs(g.xs())))
    # curl f(0) = Laplacian of the stream bump = -12 at the center
    expected = ph.curl.values[ix, ix]
    assert c.values[ix, ix] == pytest.approx(expected, rel=0.02)


def test_recover_curl_of_potential_is_zero(grid, geom):
    ph = make_phantom("potential", grid, scale=0.8)
    c = recover_curl(forward_L(ph.field, geom), geom)
    assert np.abs(c.values).max() <= 0.02 * 12.0  # vs the bump Laplacian scale


def test_recover_div_origin_value(geom):
    g = grid_for_vline(256, 1.0, geom)
    ph = make_phantom("potential", g)
    d = recover_div(forward_T(ph.field, geom), geom)
    ix = int(np.argmin(np.abs(g.xs())))
    assert d.values[ix, ix] == pytest.approx(ph.div.values[ix, ix], rel=0.02)


def test_recover_div_of_solenoidal_is_zero(grid, geom):
    ph = make_phantom("solenoidal", grid, scale=0.8)
    d = recover_div(forward_T(ph.field, geom), geom)
    assert np.abs(d.values).max() <= 0.02 * 12.0


def test_recover_linearity(grid, geom):
    ph = make_phantom("solenoidal", grid, scale=0.8)
    lf = forward_L(ph.field, geom)
    one = recover_curl(lf, geom).values
    two = recover_curl(TransformField(grid, 2.5 * lf.values, "L"), geom).values
    assert np.allclose(two, 2.5 * one)


def test_recover_field_LT_round_trip(geom):
    g = grid_for_vline(128, 1.0, geom)
    ph = make_phantom("mixed", g)
    rec = recover_field_LT(forward_L(ph.field, geom),
                           forward_T(ph.field, geom), geom)
    mask = g.disc_mask(g.r1)
    assert rel_l2(rec.f1, ph.field.f1, mask) <= 0.05
    assert rel_l2(rec.f2, ph.field.f2, mask) <= 0.05


def test_recover_field_LT_zero(grid, geom):
    z = _zero_field(grid)
    rec = recover_field_LT(forward_L(z, geom), forward_T(z, geom), geom)
    assert np.all(rec.f1 == 0.0) and np.all(rec.f2 == 0.0)


def test_recover_field_LT_potential_input(geom):
    g = grid_for_vline(128, 1.0, geom)
    ph = make_phantom("potential", g, scale=0.8)
    rec = recover_field_LT(forward_L(ph.field, geom),
                           forward_T(ph.field, geom), geom)
    from vlinetomo import helmholtz_decompose
    parts = helmholtz_decompose(rec)
    assert parts.solenoidal.max_norm() <= 0.05 * ph.field.max_norm()


def test_recover_potential_round_trip(geom):
    g = grid_for_vline(128, 1.0, geom)
    ph = make_phantom("potential", g, scale=0.8)
    v = recover_potential(forward_T(ph.field, geom), geom)
    mask = g.disc_mask(g.r1)
    assert rel_l2(v.values, ph.potential.values + 1e-300, mask) <= 0.05


def test_recover_stream_round_trip(geom):
    g = grid_for_vline(128, 1.0, geom)
    ph = make_phantom("solenoidal", g, scale=0.8)
    w = recover_stream(forward_L(ph.field, geom), geom)
    mask = g.disc_mask(g.r1)
    assert rel_l2(w.values, ph.stream.values + 1e-300, mask) <= 0.05


def test_recover_field_LI_round_trip(geom):
    g = grid_for_vline(128, 1.0, geom)
    ph = make_phantom("mixed", g)
    rec = recover_field_LI(forward_L(ph.field, geom),
                           forward_I(ph.field, geom), geom)
    mask = g.disc_mask(g.r1)
    assert rel_l2(rec.f1, ph.field.f1, mask) <= 0.10
    assert rel_l2(rec.f2, ph.field.f2, mask) <= 0.10


def test_recover_field_TJ_round_trip(geom):
    g = grid_for_vline(128, 1.0, geom)
    ph = make_phantom("mixed", g)
    rec = recover_field_TJ(forward_T(ph.field, geom),
                           forward_J(ph.field, geom), geom)
    mask = g.disc_mask(g.r1)
    assert rel_l2(rec.f1, ph.field.f1, mask) <= 0.10
    assert rel_l2(rec.f2, ph.field.f2, mask) <= 0.10


def test_moment_pipelines_zero(grid, geom):
    z = _zero_field(grid)
    rli = recover_field_LI(forward_L(z, geom), forward_I(z, geom), geom)
    rtj = recover_field_TJ(forward_T(z, geom), forward_J(z, geom), geom)
    for rec in (rli, rtj):
        assert np.all(rec.f1 == 0.0) and np.all(rec.f2 == 0.0)


def test_mixed_derivative_exact_on_quadratics(oblique_geom):
    u, v = oblique_geom.u, oblique_geom.v
    for nx in (64, 128):
        g = grid_for_vline(nx, 1.0, oblique_geom)
        xx, yy = g.mesh()
        tf = TransformField(g, xx**2 + 0.5 * yy**2, "L")
        err = mixed_derivative(tf, oblique_geom) - (2.0 * u[0] * v[0] + u[1] * v[1])
        assert np.abs(err[g.disc_mask(g.r1)]).max() <= 1e-9


def test_rhombus_matches_curl(geom):
    g = grid_for_vline(256, 1.0, geom)
    ph = make_phantom("solenoidal", g)
    lf = forward_L(ph.field, geom)
    delta = 4 * g.h
    got = rhombus_check(lf, (0.0, 0.0), delta, geom)
    cx = delta * (geom.u + geom.v) / 2.0
    ref = geom.det * bilinear(g, ph.curl.values,
                              np.array([cx[0]]), np.array([cx[1]]))[0]
    assert got == pytest.approx(ref, rel=0.05)


def test_rhombus_constant_field(grid, geom):
    tf = TransformField(grid, np.full((grid.nx, grid.ny), 3.7), "L")
    assert rhombus_check(tf, (0.1, -0.2), 4 * grid.h, geom) == 0.0


def test_rhombus_agrees_with_composed_derivatives(geom):
    g = grid_for_vline(256, 1.0, geom)
    ph = make_phantom("mixed", g)
    lf = forward_L(ph.field, geom)
    from vlinetomo import ScalarField, directional_derivative
    duv = directional_derivative(
        directional_derivative(ScalarField(g, lf.values), geom.v), geom.u)
    delta = 4 * g.h
    x = (0.15, -0.1)
    got = rhombus_check(lf, x, delta, geom)
    cx = np.asarray(x) + delta * (geom.u + geom.v) / 2.0
    ref = bilinear(g, duv.values, np.array([cx[0]]), np.array([cx[1]]))[0]
    assert got == pytest.approx(ref, abs=0.05 * np.abs(duv.values).max())


def test_rhombus_outside_grid(grid, geom):
    with pytest.raises(GeometryError):
        rhombus_check(TransformField(grid, np.zeros((grid.nx, grid.ny)), "L"),
                      (grid.r2 + 10, 0.0), 4 * grid.h, geom)
