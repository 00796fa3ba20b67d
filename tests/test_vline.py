import numpy as np
import pytest

from vlinetomo import (ConfigError, GeometryError, Grid2D, ScalarField,
                       VectorField, VLineGeometry, direction,
                       forward_I, forward_J, forward_L, forward_T,
                       grid_for_vline, invert_signed, laplacians_from_div_curl,
                       make_phantom, recover_curl, recover_div,
                       recover_field_LI, recover_field_LT, recover_field_TJ,
                       recover_potential, recover_stream, rhombus_check,
                       signed_vline, solve_dirichlet_disc, solve_free_space)
from vlinetomo.operators import bilinear
from vlinetomo.phantoms import bump_scalar
from vlinetomo.vline import _mollify, mixed_derivative

from conftest import finer_grid, rel_l2
from oracles import (RayQuadrature, divergent_beam, full_grid_invert_signed,
                     full_grid_moment_pipeline, moment_beam)


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
    two = recover_curl(ScalarField(grid, 2.5 * lf.values), geom).values
    assert np.allclose(two, 2.5 * one)


def test_recover_field_LT_round_trip(geom):
    g = grid_for_vline(128, 1.0, geom)
    ph = make_phantom("mixed", g)
    rec = recover_field_LT(forward_L(ph.field, geom),
                           forward_T(ph.field, geom), geom)
    mask = g.disc_mask(g.r1)
    assert rel_l2(rec.f1, ph.field.f1, mask) <= 0.05
    assert rel_l2(rec.f2, ph.field.f2, mask) <= 0.05


def _free_space_LT(lf, tf, geom):
    """The LT reconstruction by free-space convolution of each component's
    Laplacian, masked to the r1 disc: the route the disc solve replaced."""
    g = lf.grid
    mask = g.disc_mask(g.r1)
    laps = laplacians_from_div_curl(recover_div(tf, geom), recover_curl(lf, geom))
    return [solve_free_space(ScalarField(g, np.where(mask, lap.values, 0.0)))
            .field.values for lap in laps]


@pytest.mark.parametrize("nx", [128, 256])
@pytest.mark.parametrize("angles, r2", [((0.0, np.pi / 2), 1.5), ((0.35, 2.1), None)],
                         ids=["axis-r2-1.5", "oblique"])
def test_recover_field_LT_beats_free_space_route(nx, angles, r2):
    # the Dirichlet disc solve of each component against free-space
    # convolution of the same Laplacians; measured ratios 0.72-0.86
    geom = VLineGeometry(*(direction(a) for a in angles))
    g = grid_for_vline(nx, 1.0, geom) if r2 is None else Grid2D.centered(nx, 1.0, r2)
    f = make_phantom("mixed", g).field
    lf, tf = forward_L(f, geom), forward_T(f, geom)
    rec = recover_field_LT(lf, tf, geom)
    mask = g.disc_mask(g.r1)
    for got, ref, exact in zip((rec.f1, rec.f2), _free_space_LT(lf, tf, geom),
                               (f.f1, f.f2)):
        assert rel_l2(got, exact, mask) <= 0.9 * rel_l2(ref, exact, mask)


def test_recover_field_LT_is_zero_outside_r1(oblique_geom):
    g = grid_for_vline(96, 1.0, oblique_geom)
    f = make_phantom("mixed", g).field
    rec = recover_field_LT(forward_L(f, oblique_geom), forward_T(f, oblique_geom),
                           oblique_geom)
    outside = g.rr() >= g.r1
    assert outside.any() and rec.f1[~outside].any()
    assert np.all(rec.f1[outside] == 0.0) and np.all(rec.f2[outside] == 0.0)


def test_recover_field_LT_zero(grid, geom):
    z = _zero_field(grid)
    rec = recover_field_LT(forward_L(z, geom), forward_T(z, geom), geom)
    assert np.all(rec.f1 == 0.0) and np.all(rec.f2 == 0.0)


def test_recover_field_LT_potential_input(geom):
    g = grid_for_vline(128, 1.0, geom)
    ph = make_phantom("potential", g, scale=0.8)
    rec = recover_field_LT(forward_L(ph.field, geom),
                           forward_T(ph.field, geom), geom)
    from oracles import helmholtz_decompose
    parts = helmholtz_decompose(rec)
    assert parts.solenoidal.max_norm() <= 0.05 * ph.field.max_norm()


@pytest.mark.parametrize("recover", [recover_field_LT, recover_field_LI,
                                     recover_field_TJ])
def test_recover_field_rejects_inputs_on_other_radii(geom, recover):
    # same samples and spacing, another r1: the inputs disagree on the disc
    g = Grid2D.centered(48, 1.0, 1.5)
    other = Grid2D(g.nx, g.ny, g.h, g.origin, 0.8, g.r2)
    zeros = np.zeros((g.nx, g.ny))
    with pytest.raises(ConfigError, match="share a grid"):
        recover(ScalarField(g, zeros), ScalarField(other, zeros), geom)


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


def _max_component_error(rec, field, mask):
    return max(rel_l2(rec.f1, field.f1, mask), rel_l2(rec.f2, field.f2, mask))


def test_oblique_LI_TJ_converge_at_second_order(oblique_geom):
    # u@0.35 / v@2.1, measured LI 1.57 / 0.49% and TJ 1.25 / 0.35% at
    # nx = 256 / 512
    errs = {"LI": [], "TJ": []}
    for nx in (256, 512):
        g = grid_for_vline(nx, 1.0, oblique_geom)
        ph = make_phantom("mixed", g)
        mask = g.disc_mask(g.r1)
        li = recover_field_LI(forward_L(ph.field, oblique_geom),
                              forward_I(ph.field, oblique_geom), oblique_geom)
        tj = recover_field_TJ(forward_T(ph.field, oblique_geom),
                              forward_J(ph.field, oblique_geom), oblique_geom)
        errs["LI"].append(_max_component_error(li, ph.field, mask))
        errs["TJ"].append(_max_component_error(tj, ph.field, mask))
    for e256, e512 in errs.values():
        assert e256 <= 0.02 and e256 / e512 >= 2.5


def test_recover_field_LI_converges_on_finer_forward_data(oblique_geom):
    # L f and I f from a 4x finer grid, subsampled: not the inverting
    # grid's quadrature; measured 5.26 / 1.49% at nx = 128 / 256
    errs = []
    for nx in (128, 256):
        g = grid_for_vline(nx, 1.0, oblique_geom)
        fine = make_phantom("mixed", finer_grid(g)).field
        lf, i_f = (ScalarField(g, op(fine, oblique_geom).values[::4, ::4])
                   for op in (forward_L, forward_I))
        rec = recover_field_LI(lf, i_f, oblique_geom)
        errs.append(_max_component_error(rec, make_phantom("mixed", g).field,
                                         g.disc_mask(g.r1)))
    assert errs[1] <= 0.03 and errs[0] / errs[1] >= 2.5


def _vline_errors(g, geom):
    """rel L2 of the signed round trip and worst-component rel L2 of LI and
    TJ on grid g, for the mixed phantom and a bump."""
    mask = g.disc_mask(g.r1)
    f = make_phantom("mixed", g).field
    h = bump_scalar(g, scale=0.8)
    li = recover_field_LI(forward_L(f, geom), forward_I(f, geom), geom)
    tj = recover_field_TJ(forward_T(f, geom), forward_J(f, geom), geom)
    signed = invert_signed(signed_vline(h, geom), geom)
    return (rel_l2(signed.values, h.values + 1e-300, mask),
            _max_component_error(li, f, mask),
            _max_component_error(tj, f, mask))


def test_vline_inversions_accept_grid_without_strip_ring(oblique_geom):
    # the centred grid's h on a square reaching r2 + h/2, short of the
    # strip ring r2 + 2h: the signed, LI and TJ inversions read nothing
    # beyond the r1 disc, so their errors match the centred grid's, up to
    # the half-cell shift of the samples (LI 1.572 -> 1.565%, TJ 1.246 ->
    # 1.238% at nx = 256)
    wide = grid_for_vline(256, 1.0, oblique_geom)
    nx, h = wide.nx - 7, wide.h
    tight = Grid2D(nx, nx, h, (-(nx - 1) * h / 2.0,) * 2, 1.0, wide.r2)
    assert not tight.holds_disc(wide.r2 + h)
    for e_tight, e_wide in zip(_vline_errors(tight, oblique_geom),
                               _vline_errors(wide, oblique_geom)):
        assert abs(e_tight / e_wide - 1.0) <= 0.01


def test_moment_pipelines_zero(grid, geom):
    z = _zero_field(grid)
    rli = recover_field_LI(forward_L(z, geom), forward_I(z, geom), geom)
    rtj = recover_field_TJ(forward_T(z, geom), forward_J(z, geom), geom)
    for rec in (rli, rtj):
        assert np.all(rec.f1 == 0.0) and np.all(rec.f2 == 0.0)


@pytest.mark.parametrize("shape", [(40, 33), (16, 16)])
def test_mollifier_matches_scipy_gaussian(shape):
    # scipy's reflect mode is numpy's "symmetric" pad; sigma 1, radius 4
    from scipy.ndimage import gaussian_filter
    x = np.random.default_rng(5).standard_normal(shape)
    ref = gaussian_filter(x, 1.0)
    assert np.abs(_mollify(x) - ref).max() <= 1e-14 * np.abs(ref).max()


def test_mixed_derivative_exact_on_quadratics(oblique_geom):
    u, v = oblique_geom.u, oblique_geom.v
    for nx in (64, 128):
        g = grid_for_vline(nx, 1.0, oblique_geom)
        xx, yy = g.mesh()
        tf = ScalarField(g, xx**2 + 0.5 * yy**2)
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
    tf = ScalarField(grid, np.full((grid.nx, grid.ny), 3.7))
    assert rhombus_check(tf, (0.1, -0.2), 4 * grid.h, geom) == 0.0


def test_rhombus_agrees_with_composed_derivatives(geom):
    g = grid_for_vline(256, 1.0, geom)
    ph = make_phantom("mixed", g)
    lf = forward_L(ph.field, geom)
    from oracles import directional_derivative
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
        rhombus_check(ScalarField(grid, np.zeros((grid.nx, grid.ny))),
                      (grid.r2 + 10, 0.0), 4 * grid.h, geom)


def test_rhombus_nan_side_is_a_config_error(grid, geom):
    # NaN fails delta <= 0 as it fails delta > 0, so the check is not (delta > 0)
    with pytest.raises(ConfigError, match="rhombus side"):
        rhombus_check(ScalarField(grid, np.zeros((grid.nx, grid.ny))),
                      (0.0, 0.0), float("nan"), geom)


WINDOW_CASES = {
    # the disc box grown by 7 passes this grid's edge and is clipped there
    "axis-r2-1.0001": ((0.0, np.pi / 2), lambda geom: Grid2D.centered(64, 1.0, 1.0001)),
    "oblique": ((0.35, 2.1), lambda geom: grid_for_vline(64, 1.0, geom)),
    "u1.0-v1.9": ((1.0, 1.9), lambda geom: grid_for_vline(64, 1.0, geom)),
}


@pytest.mark.parametrize("angles,make_grid", WINDOW_CASES.values(), ids=WINDOW_CASES)
def test_stencil_window_matches_the_full_grid(angles, make_grid):
    # LI, TJ and the signed inversion apply their stencils (reach 7, 7 and 2)
    # to the disc box grown by that reach only, bit for bit the whole grid's
    geom = VLineGeometry(*(direction(a) for a in angles))
    g = make_grid(geom)
    f = make_phantom("mixed", g).field
    lf, tf, i_f, jf = (fn(f, geom) for fn in (forward_L, forward_T, forward_I, forward_J))
    li = recover_field_LI(lf, i_f, geom)
    assert all(np.array_equal(a, b) for a, b in zip(
        (li.f1, li.f2), full_grid_moment_pipeline(i_f, recover_curl(lf, geom), geom)))
    tj = recover_field_TJ(tf, jf, geom)
    g1, g2 = full_grid_moment_pipeline(jf, recover_curl(tf, geom), geom)
    assert np.array_equal(tj.f1, 0.0 - g2) and np.array_equal(tj.f2, g1)
    ts = signed_vline(bump_scalar(g, (0.1, -0.2), 0.6), geom)
    assert np.array_equal(invert_signed(ts, geom).values, full_grid_invert_signed(ts, geom))


def test_vline_pipelines_accept_a_grid_below_the_strip_bound(geom):
    # no V-line pipeline reads strip data, so r2 = 1.2 below the axis
    # pair's bound sqrt(2) is accepted; the tight square has the finer
    # step, so every error is below the r2 = 1.5 grid's (LT 3.3 / 3.9%,
    # potential 0.94% and stream 1.1%, against 5.0 / 6.0%, 1.5% and 1.7%)
    errors = []
    for r2 in (1.2, 1.5):
        grid = Grid2D.centered(64, 1.0, r2)
        ph = make_phantom("mixed", grid)
        mask = grid.disc_mask(grid.r1)
        lf, tf = forward_L(ph.field, geom), forward_T(ph.field, geom)
        rec = recover_field_LT(lf, tf, geom)
        pot = recover_potential(tf, geom).values
        stream = recover_stream(lf, geom).values
        errors.append(np.array([rel_l2(rec.f1, ph.field.f1, mask),
                                rel_l2(rec.f2, ph.field.f2, mask),
                                rel_l2(pot, ph.potential.values, mask),
                                rel_l2(stream, ph.stream.values, mask)]))
    assert geom.required_r2(1.0) > 1.2
    assert np.all(errors[0] < errors[1]), errors


@pytest.mark.parametrize("make_grid", [
    lambda geom: grid_for_vline(96, 1.0, geom),
    lambda geom: Grid2D(64, 64, 2.002 / 63, (-1.001, -1.001), 1.0, 1.001),
], ids=["nx96", "tight"])
@pytest.mark.parametrize("angles", [(0.0, np.pi / 2), (0.35, 2.1)],
                         ids=["axis", "oblique"])
def test_disc_box_pipelines_match_the_full_grid(make_grid, angles):
    # curl and div run the stencil on Grid2D.disc_box only, and LT takes
    # its Laplacians there: bit for bit the full-grid route, also where
    # the box meets the grid's edge
    geom = VLineGeometry(*(direction(a) for a in angles))
    g = make_grid(geom)
    f = make_phantom("mixed", g).field
    lf, tf = forward_L(f, geom), forward_T(f, geom)
    mask = g.disc_mask(g.r1)
    curl = np.where(mask, mixed_derivative(lf, geom) / geom.det, 0.0)
    div = np.where(mask, -mixed_derivative(tf, geom) / geom.det, 0.0)
    assert np.array_equal(recover_curl(lf, geom).values, curl)
    assert np.array_equal(recover_div(tf, geom).values, div)
    laps = laplacians_from_div_curl(ScalarField(g, div), ScalarField(g, curl))
    rec = recover_field_LT(lf, tf, geom)
    for got, lap in zip((rec.f1, rec.f2), laps):
        assert np.array_equal(got, solve_dirichlet_disc(lap).field.values)


def test_recover_field_LT_peak_memory(geom):
    # one batched disc solve on the 174-sample box, with no grid-sized
    # window; the two solves on a 224 box before it peaked at 6.99 MB
    # (tracemalloc), 13.3 grid arrays
    import tracemalloc
    g = Grid2D.centered(256, 1.0, 1.5)
    f = make_phantom("mixed", g).field
    lf, tf = forward_L(f, geom), forward_T(f, geom)
    tracemalloc.start()
    try:
        recover_field_LT(lf, tf, geom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 11.5 * 8 * g.nx * g.ny


def test_recover_field_LI_peak_memory(oblique_geom):
    # the stencils run on the disc box grown by their reach 7 and the
    # whole-grid beams go before the integrals (11.92 grid arrays); over the
    # whole grid the second call peaked at 16.74 (tracemalloc)
    import tracemalloc
    g = grid_for_vline(256, 1.0, oblique_geom)
    f = make_phantom("mixed", g).field
    lf, i_f = forward_L(f, oblique_geom), forward_I(f, oblique_geom)
    recover_field_LI(lf, i_f, oblique_geom)
    tracemalloc.start()
    try:
        recover_field_LI(lf, i_f, oblique_geom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 15.0 * 8 * g.nx * g.ny


def test_forward_L_peak_memory(geom):
    # each beam reads its input on the disc box, with no full-grid mask or
    # masked copy of it; with them the forward peaked at 7.19 grid arrays
    import tracemalloc
    g = Grid2D.centered(256, 1.0, 1.5)
    f = make_phantom("mixed", g).field
    forward_L(f, geom)
    tracemalloc.start()
    try:
        forward_L(f, geom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.8 * 8 * g.nx * g.ny
