import numpy as np
import pytest

from vlinetomo import (ConfigError, Grid2D, ScalarField, Sinogram,
                       fbp_inverse, radon_forward, sinogram_dds)
from vlinetomo.phantoms import bump_scalar
from vlinetomo.radon import _ramp_sums

from conftest import rel_l2


def test_sinogram_validation():
    with pytest.raises(ConfigError):
        Sinogram(np.zeros((3, 8, 8)), 0.0, 0.1, 0.1)
    with pytest.raises(ConfigError):
        Sinogram(np.full((1, 8, 8), np.nan), 0.0, 0.1, 0.1)
    with pytest.raises(ConfigError):
        Sinogram(np.zeros((1, 8, 8)), 0.0, -0.1, 0.1)


def test_sinogram_lattice():
    sg = Sinogram(np.zeros((1, 8, 9)), 0.0, np.pi / 8, 0.25)
    assert sg.ncomp == 1 and sg.n_angles == 8 and sg.n_offsets == 9
    assert sg.offsets()[4] == 0.0
    assert sg.offsets()[0] == -1.0
    assert not sg.full_range
    assert Sinogram(np.zeros((1, 8, 9)), 0.0, 2 * np.pi / 8, 0.25).full_range


def test_radon_center_line_value(grid):
    # central line through (1 - rho^2)^3: 2 * int_0^1 (1 - t^2)^3 dt = 32/35
    h = bump_scalar(grid)
    sg = radon_forward(h, 24, 257)
    mid = (sg.n_offsets - 1) // 2
    assert np.allclose(sg.values[0, :, mid], 32.0 / 35.0, atol=3e-3)


def test_radon_vanishes_beyond_support(grid):
    h = bump_scalar(grid)
    sg = radon_forward(h, 12, 129)
    outside = np.abs(sg.offsets()) > grid.r1 + grid.h
    assert np.abs(sg.values[0][:, outside]).max() <= 1e-12


def test_radon_mass_consistency(grid):
    # per-angle integral over offsets equals the 2-D mass of the field
    h = bump_scalar(grid, center=(0.2, -0.1), scale=0.5)
    sg = radon_forward(h, 16, 257)
    mass = float(h.values.sum()) * grid.h**2
    per_angle = sg.values[0].sum(axis=1) * sg.ds
    assert np.abs(per_angle - mass).max() <= 2e-3 * abs(mass)


def test_radon_evenness(grid):
    # R h(psi, s) = R h(-psi, -s): opposite angle row is the reversed row
    h = bump_scalar(grid, center=(0.15, 0.25), scale=0.4)
    sg = radon_forward(h, 20, 129, full=True)
    vals = sg.values[0]
    half = sg.n_angles // 2
    scale = np.abs(vals).max()
    assert np.abs(vals[:half] - vals[half:, ::-1]).max() <= 1e-6 * scale


def test_radon_zero_and_linearity(grid):
    z = ScalarField(grid, np.zeros((grid.nx, grid.ny)))
    assert np.all(radon_forward(z, 8, 65).values == 0.0)
    a = bump_scalar(grid, center=(-0.2, 0.0), scale=0.4)
    b = bump_scalar(grid, center=(0.3, 0.1), scale=0.35)
    combo = ScalarField(grid, 2.0 * a.values - 0.5 * b.values)
    sa = radon_forward(a, 8, 65).values
    sb = radon_forward(b, 8, 65).values
    sc = radon_forward(combo, 8, 65).values
    assert np.allclose(sc, 2.0 * sa - 0.5 * sb)


def test_strip_tail_sums_match_dense_oracle():
    rng = np.random.default_rng(7)
    ds = 0.05
    offsets = (np.arange(64) - 31.5) * ds
    # random ring offsets, some exactly on a ramp end, and repeated values
    phi = np.concatenate([rng.uniform(-2.0, 2.0, 500),
                          offsets[::7] + 0.5 * ds, offsets[::9] - 0.5 * ds,
                          np.full(5, 0.3)])
    prof = rng.normal(size=phi.size)
    for sign in (1.0, -1.0):
        dense = np.clip((sign * phi[None, :] - sign * offsets[:, None]) / ds
                        + 0.5, 0.0, 1.0) @ prof
        fast = _ramp_sums(sign * phi, prof, sign * offsets, ds)
        assert np.abs(fast - dense).max() <= 1e-12 * np.abs(prof).sum()


def test_dds_of_constant_rows_is_zero():
    sg = Sinogram(np.full((1, 8, 16), 2.5), 0.0, np.pi / 8, 0.1)
    assert np.all(sinogram_dds(sg).values == 0.0)


def test_dds_odd_symmetry_at_center(grid):
    # the bump sinogram is even in s, so its derivative vanishes at s = 0
    h = bump_scalar(grid)
    dsg = sinogram_dds(radon_forward(h, 8, 257))
    mid = (dsg.n_offsets - 1) // 2
    scale = np.abs(dsg.values).max()
    assert np.abs(dsg.values[0, :, mid]).max() <= 1e-6 * scale


def test_dds_matches_known_slope():
    # rows linear in s differentiate exactly under central differences
    ds = 0.2
    offsets = (np.arange(32) - 15.5) * ds
    rows = np.tile(3.0 * offsets, (1, 10, 1))
    dsg = sinogram_dds(Sinogram(rows, 0.0, np.pi / 10, ds))
    assert np.allclose(dsg.values, 3.0)


def test_fbp_round_trip():
    g = Grid2D.centered(256, 1.0, 3.0)
    h = bump_scalar(g, center=(0.1, -0.2), scale=0.5)
    rec = fbp_inverse(radon_forward(h, 360, 256, full=True), g)
    mask = g.disc_mask(g.r1)
    assert rel_l2(rec.values, h.values + 1e-300, mask) <= 0.05


def test_fbp_half_range_matches_full_range():
    g = Grid2D.centered(128, 1.0, 3.0)
    h = bump_scalar(g, scale=0.5)
    full = fbp_inverse(radon_forward(h, 180, 128, full=True), g).values
    half = fbp_inverse(radon_forward(h, 90, 128, full=False), g).values
    mask = g.disc_mask(g.r1)
    assert np.abs(full - half)[mask].max() <= 0.02 * np.abs(full).max()


def test_fbp_zero_sinogram(grid):
    sg = Sinogram(np.zeros((1, 32, 64)), 0.0, np.pi / 32, 0.1)
    assert np.all(fbp_inverse(sg, grid).values == 0.0)


def test_fbp_rejects_few_angles(grid):
    sg = Sinogram(np.zeros((1, 8, 64)), 0.0, np.pi / 8, 0.1)
    with pytest.raises(ConfigError):
        fbp_inverse(sg, grid)


def test_fbp_rejects_two_components(grid):
    sg = Sinogram(np.zeros((2, 32, 64)), 0.0, np.pi / 32, 0.1)
    with pytest.raises(ConfigError):
        fbp_inverse(sg, grid)


def test_fbp_windows(grid):
    h = bump_scalar(grid, scale=0.5)
    sg = radon_forward(h, 64, 96)
    hann = fbp_inverse(sg, grid, window="hann")
    mask = grid.disc_mask(grid.r1)
    assert rel_l2(hann.values, h.values + 1e-300, mask) <= 0.15
    with pytest.raises(ConfigError):
        fbp_inverse(sg, grid, window="bogus")
