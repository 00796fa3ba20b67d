import threading

import numpy as np
import pytest

from vlinetomo import (ConfigError, Grid2D, ScalarField, VLineGeometry,
                       direction, invert_signed, signed_vline)
from vlinetomo._blocks import BLOCK, map_blocks
from vlinetomo.beam import beam_field, sample_with_strips
from vlinetomo.radon import strip_ring_radius
from vlinetomo.phantoms import bump_scalar

from conftest import finer_grid, rel_l2
from oracles import (RayQuadrature, beam_values, directional_derivative,
                     divergent_beam, moment_beam)

D = np.array([1.0, 0.0])


def test_quadrature_validation():
    with pytest.raises(ConfigError):
        RayQuadrature(step=0.0)


def test_divergent_beam_closed_form(small_grid):
    # int_0^1 (1 - t^2)^3 dt = 16/35
    h = bump_scalar(small_grid)
    val = divergent_beam(h, (0.0, 0.0), D)
    assert val == pytest.approx(16.0 / 35.0, abs=5e-3)


def test_divergent_beam_misses_support(small_grid):
    h = bump_scalar(small_grid)
    assert divergent_beam(h, (1.5, 1.5), D) == 0.0


def test_moment_beam_closed_form(small_grid):
    # int_0^1 t (1 - t^2)^3 dt = 1/8
    h = bump_scalar(small_grid)
    assert moment_beam(h, (0.0, 0.0), D) == pytest.approx(0.125, abs=5e-3)


def test_moment_beam_miss_and_zero(small_grid):
    h = bump_scalar(small_grid)
    assert moment_beam(h, (1.5, 1.5), D) == 0.0
    z = ScalarField(small_grid, np.zeros((small_grid.nx, small_grid.ny)))
    assert moment_beam(z, (0.0, 0.0), D) == 0.0


def test_quadrature_second_order(grid):
    # compare against a very fine step of the same interpolant so the
    # bilinear floor cancels and only the midpoint-rule error remains
    h = bump_scalar(grid)
    ref = divergent_beam(h, (0.0, 0.0), D, RayQuadrature(grid.h / 20))
    errs = [abs(divergent_beam(h, (0.0, 0.0), D, RayQuadrature(s)) - ref)
            for s in (8 * grid.h, 4 * grid.h)]
    assert errs[0] / errs[1] >= 3.5


@pytest.mark.parametrize("oblique", [False, True])
@pytest.mark.parametrize("moment", [False, True])
@pytest.mark.parametrize("step", [None])
def test_beam_field_matches_direct_sum(geom, oblique_geom, oblique, moment,
                                       step):
    # the FFT evaluation and the direct sum at its default step share one
    # lattice per vertex, of step h/2; -u adds a ray with two negative
    # components in the oblique case
    from vlinetomo import grid_for_vline
    g = oblique_geom if oblique else geom
    grid = grid_for_vline(48, 1.0, g)
    h = bump_scalar(grid, center=(0.1, -0.15), scale=0.6)
    xx, yy = grid.mesh()
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    for d in (*g.rays, -g.u):
        ref = beam_values(h, pts, d, step, moment=moment)
        vals = beam_field(h, d, moment=moment).ravel()
        assert np.abs(vals - ref).max() <= 1e-12 * np.abs(ref).max()


def test_beam_ignores_samples_outside_r1(oblique_geom):
    # the transforms act on fields supported in the r1 disc: samples beyond
    # it, up to the grid edge, change neither the FFT nor the direct sum
    from vlinetomo import grid_for_vline
    grid = grid_for_vline(48, 1.0, oblique_geom)
    h = bump_scalar(grid, center=(0.1, -0.15), scale=0.6)
    noisy = ScalarField(grid, np.where(grid.disc_mask(grid.r1), h.values, 1.0))
    xx, yy = grid.mesh()
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    for d in oblique_geom.rays:
        for moment in (False, True):
            clean = beam_field(h, d, moment=moment)
            np.testing.assert_array_equal(beam_field(noisy, d, moment=moment),
                                          clean)
            np.testing.assert_array_equal(
                beam_values(noisy, pts, d, moment=moment),
                beam_values(h, pts, d, moment=moment))


def test_intertwining_relation(grid):
    # X_d(D_d h) = -h away from the support edge
    h = bump_scalar(grid, scale=0.8)
    dh = directional_derivative(h, D)
    vals = beam_field(dh, D)
    interior = grid.disc_mask(0.6 * grid.r1)
    err = np.abs(vals + h.values)[interior].max()
    assert err <= 0.02 * h.max_norm()


def test_signed_vline_zero_at_origin_for_radial(grid, geom):
    h = bump_scalar(grid, scale=0.8)
    ts = signed_vline(h, geom)
    ix = int(np.argmin(np.abs(grid.xs())))
    assert abs(ts.values[ix, ix]) <= 1e-3 * np.abs(ts.values).max()


def test_signed_vline_zero_field(grid, geom):
    z = ScalarField(grid, np.zeros((grid.nx, grid.ny)))
    assert np.all(signed_vline(z, geom).values == 0.0)


def test_signed_vline_vs_fine_quadrature(grid, geom):
    h = bump_scalar(grid, center=(0.1, -0.15), scale=0.6)
    coarse = signed_vline(h, geom)
    ix = int(np.argmin(np.abs(grid.xs() + 0.5)))
    iy = int(np.argmin(np.abs(grid.ys())))
    x = (grid.xs()[ix], grid.ys()[iy])
    fine = (divergent_beam(h, x, geom.u, RayQuadrature(grid.h / 20))
            - divergent_beam(h, x, geom.v, RayQuadrature(grid.h / 20)))
    assert coarse.values[ix, iy] == pytest.approx(fine, abs=5e-3)


def test_strip_constancy_of_signed_transform(grid, geom):
    h = bump_scalar(grid, scale=0.7)
    ts = signed_vline(h, geom)
    # inside the u-strip beyond the r2 disc the data is constant along u
    ring = strip_ring_radius(grid)
    q0 = np.array([-ring, 0.2])
    vals = sample_with_strips(grid, ts.values, (geom.u, geom.v),
                              np.array([q0[0], q0[0] - 0.5, q0[0] - 2.0]),
                              np.array([q0[1], q0[1], q0[1]]))
    assert np.abs(vals - vals[0]).max() <= 1e-12 * abs(vals[0])


def test_strip_sampler_zero_outside_strips(grid, geom):
    h = bump_scalar(grid)
    ts = signed_vline(h, geom)
    vals = sample_with_strips(grid, ts.values, (geom.u, geom.v),
                              np.array([3.0]), np.array([3.0]))
    assert vals[0] == 0.0


def test_invert_signed_round_trip(geom):
    from vlinetomo import grid_for_vline
    g = grid_for_vline(128, 1.0, geom)
    h = bump_scalar(g, scale=0.8)
    rec = invert_signed(signed_vline(h, geom), geom)
    mask = g.disc_mask(g.r1)
    assert rel_l2(rec.values, h.values + 1e-300, mask) <= 0.05


def test_invert_signed_zero_and_linearity(grid, geom):
    z = ScalarField(grid, np.zeros((grid.nx, grid.ny)))
    assert np.all(invert_signed(z, geom).values == 0.0)
    h = bump_scalar(grid, scale=0.7)
    ts = signed_vline(h, geom)
    one = invert_signed(ts, geom).values
    scaled = invert_signed(
        ScalarField(grid, 3.0 * ts.values), geom).values
    assert np.abs(scaled - 3.0 * one).max() <= 1e-10 * np.abs(one).max()


def _mixed_f1_signed(nx, geom):
    from vlinetomo import grid_for_vline, make_phantom
    grid = grid_for_vline(nx, 1.0, geom)
    f1 = ScalarField(grid, make_phantom("mixed", grid).field.f1)
    return grid, f1, signed_vline(f1, geom)


def test_invert_signed_converges_at_wide_opening():
    # measured 3.45 / 0.78 / 0.19% at nx = 64 / 128 / 256
    geom = VLineGeometry(direction(0.0), direction(2.8))
    errs = []
    for nx in (64, 128, 256):
        grid, f1, ts = _mixed_f1_signed(nx, geom)
        rec = invert_signed(ts, geom)
        errs.append(rel_l2(rec.values, f1.values, grid.disc_mask(grid.r1)))
    assert errs[2] <= 0.005
    assert errs[0] / errs[1] >= 3.5 and errs[1] / errs[2] >= 3.5


def test_invert_signed_second_order_near_straight():
    # at 3.14 rad, measured 0.130 / 0.032% at nx = 256 / 512
    geom = VLineGeometry(direction(0.0), direction(3.14))
    errs = []
    for nx in (256, 512):
        grid, f1, ts = _mixed_f1_signed(nx, geom)
        rec = invert_signed(ts, geom)
        errs.append(rel_l2(rec.values, f1.values, grid.disc_mask(grid.r1)))
    assert errs[0] / errs[1] >= 3.0


def test_invert_signed_converges_on_finer_forward_data():
    # T_s h from a 4x finer grid, subsampled: not the inverting grid's
    # quadrature; measured 0.463 / 0.110% at nx = 128 / 256, 3.14 rad
    from vlinetomo import grid_for_vline, make_phantom
    geom = VLineGeometry(direction(0.0), direction(3.14))
    errs = []
    for nx in (128, 256):
        grid = grid_for_vline(nx, 1.0, geom)
        fine = finer_grid(grid)
        f1 = ScalarField(fine, make_phantom("mixed", fine).field.f1)
        ts = ScalarField(grid, signed_vline(f1, geom).values[::4, ::4])
        rec = invert_signed(ts, geom)
        errs.append(rel_l2(rec.values, f1.values[::4, ::4],
                           grid.disc_mask(grid.r1)))
    assert errs[0] / errs[1] >= 3.0


def test_invert_signed_cost_bounded_near_straight(monkeypatch):
    # one beam FFT along u - v whatever the opening: its padded shape stays
    # within (2 nx)^2 and does not grow as the opening nears pi
    from vlinetomo import beam, grid_for_vline, operators
    nx = 48
    beam_field, rfft2 = beam.beam_field, operators._rfft2
    shapes = {}
    for angle in (np.pi / 2, 3.1, 3.14):
        geom = VLineGeometry(direction(0.0), direction(angle))
        grid = grid_for_vline(nx, 1.0, geom)
        ts = signed_vline(bump_scalar(grid, scale=0.8), geom)
        calls, ffts = [], set()

        def counting(*args, **kwargs):
            calls.append(args[1])
            return beam_field(*args, **kwargs)

        def recording(x, shape, axes):
            ffts.add(tuple(shape))
            return rfft2(x, shape, axes)

        monkeypatch.setattr(beam, "beam_field", counting)
        monkeypatch.setattr(operators, "_rfft2", recording)
        rec = invert_signed(ts, geom)
        monkeypatch.undo()
        assert np.all(np.isfinite(rec.values))
        assert len(calls) == 1
        (shapes[angle],) = ffts
    assert all(max(shape) <= 2 * nx for shape in shapes.values())
    assert shapes[3.14] == shapes[3.1]


def test_beam_fft_periods_on_the_oblique_pair(monkeypatch):
    # the periods the README quotes at nx = 128, u@0.35/v@2.1, for the
    # 92 x 92 box of the r1 disc and each cut kernel: a change to the box,
    # the tap cut or the period rule that moves them fails here rather
    # than showing only as a timing
    from vlinetomo import grid_for_vline, make_phantom, operators
    geom = VLineGeometry(direction(0.35), direction(2.1))
    grid = grid_for_vline(128, 1.0, geom)
    h = ScalarField(grid, make_phantom("mixed", grid).field.f1)
    rfft2 = operators._rfft2
    for d, kernel, period in ((geom.u, (110, 42), (216, 135)),
                              (geom.v, (66, 110), (160, 216))):
        calls = []

        def recording(x, shape, axes):
            calls.append((x.shape, tuple(shape)))
            return rfft2(x, shape, axes)

        monkeypatch.setattr(operators, "_rfft2", recording)
        beam_field(h, d)
        monkeypatch.undo()
        assert calls == [((92, 92), period), (kernel, period)]


@pytest.mark.parametrize("r2", [1.05, 1.5, 3.0])
def test_beam_field_of_a_full_disc_matches_direct_sum(r2):
    # random samples fill the r1 disc, so a wrap-around of the cut FFT
    # periods, or an output row or column left out, would show: near-axis,
    # axis and oblique rays, plain and moment, on grids of small and large
    # margin
    from vlinetomo import Grid2D
    grid = Grid2D.centered(33, 1.0, r2)
    rng = np.random.default_rng(5)
    h = ScalarField(grid, np.where(grid.disc_mask(grid.r1),
                                   rng.standard_normal((33, 33)), 0.0))
    xx, yy = grid.mesh()
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    for angle in (0.0, 1e-3, 0.35, np.pi / 2, 2.1, np.pi - 1e-3, 4.0, 5.5):
        for moment in (False, True):
            ref = beam_values(h, pts, direction(angle), moment=moment)
            vals = beam_field(h, direction(angle), moment=moment).ravel()
            assert np.abs(vals - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("grid", [
    Grid2D.centered(64, 1.0, 1.5), Grid2D.centered(97, 1.0, 1.5),
    Grid2D(64, 64, 2.002 / 63, (-1.001, -1.001), 1.0, 1.001)],
    ids=["nx64", "nx97", "tight"])
def test_axis_beams_match_direct_sum(grid):
    # the suffix sums along +-e_x and +-e_y, plain and moment, on random
    # samples filling the r1 disc: a wrong tap at the vertex, a wrong sum
    # before or past the box, or a wrong flip shows; on the tight grid the
    # box reaches the grid's edge
    rng = np.random.default_rng(9)
    h = ScalarField(grid, np.where(grid.disc_mask(grid.r1),
                                   rng.standard_normal((grid.nx, grid.ny)), 0.0))
    xx, yy = grid.mesh()
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    for d in ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)):
        for moment in (False, True):
            ref = beam_values(h, pts, d, moment=moment)
            vals = beam_field(h, d, moment=moment).ravel()
            assert np.abs(vals - ref).max() <= 1e-12 * np.abs(ref).max(), (d, moment)


def test_map_blocks_runs_in_order_in_the_calling_thread():
    # workers is accepted and ignored: every block runs here, in order
    seen = []

    def block(s, e):
        seen.append((s, threading.get_ident()))
        return (s, e)

    n = 3 * BLOCK + 5
    spans = [(s, min(s + BLOCK, n)) for s in range(0, n, BLOCK)]
    assert map_blocks(block, n, workers=4) == spans
    assert seen == [(s, threading.get_ident()) for s, _ in spans]
