import numpy as np
import pytest

from vlinetomo import (ConfigError, ScalarField, make_phantom,
                       solve_dirichlet_disc, solve_free_space)
from vlinetomo.phantoms import bump_scalar

from conftest import rel_l2


def test_dirichlet_recovers_bump_potential(grid):
    ph = make_phantom("potential", grid)
    res = solve_dirichlet_disc(ph.div)
    mask = grid.disc_mask(grid.r1)
    assert rel_l2(res.field.values, ph.potential.values, mask) <= 0.01
    ix = int(np.argmin(np.abs(grid.xs())))
    assert res.field.values[ix, ix] == pytest.approx(
        ph.potential.values[ix, ix], abs=5 * grid.h**2)


def test_dirichlet_zero_rhs(grid):
    z = ScalarField(grid, np.zeros((grid.nx, grid.ny)))
    res = solve_dirichlet_disc(z)
    assert np.all(res.field.values == 0.0)
    assert res.iterations == 0


def test_dirichlet_radial_symmetry(grid):
    ph = make_phantom("potential", grid)  # radially symmetric rhs
    res = solve_dirichlet_disc(ph.div)
    v = res.field.values
    # x <-> y mirror symmetry of the solution
    assert np.abs(v - v.T).max() <= 1e-8 * np.abs(v).max()
    assert np.abs(v - v[::-1, :][:, ::-1]).max() <= 1e-8 * np.abs(v).max()


def test_dirichlet_residual_identity(grid):
    ph = make_phantom("mixed", grid)
    res = solve_dirichlet_disc(ph.div)
    v = res.field.values
    h2 = grid.h**2
    lap = np.zeros_like(v)
    lap[1:-1, 1:-1] = (v[2:, 1:-1] + v[:-2, 1:-1] + v[1:-1, 2:]
                       + v[1:-1, :-2] - 4 * v[1:-1, 1:-1]) / h2
    interior = grid.disc_mask(grid.r1 - 2 * grid.h)
    # interior rows whose whole stencil is inside the disc obey the PDE
    err = np.abs((lap - ph.div.values)[interior]).max()
    assert err <= 1e-6 * np.abs(ph.div.values).max()


def test_free_space_recovers_component(grid):
    ph = make_phantom("potential", grid, scale=0.8)
    from vlinetomo.operators import laplacians_from_div_curl
    l1, _ = laplacians_from_div_curl(ph.div, ph.curl)
    rhs = ScalarField(grid, np.where(grid.disc_mask(grid.r1), l1.values, 0.0))
    res = solve_free_space(rhs)
    mask = grid.disc_mask(grid.r1)
    assert rel_l2(res.field.values, ph.field.f1 + 1e-300, mask) <= 0.05


def test_free_space_zero(grid):
    z = ScalarField(grid, np.zeros((grid.nx, grid.ny)))
    res = solve_free_space(z)
    assert np.all(res.field.values == 0.0)


def test_free_space_translation_equivariance(grid):
    ph = make_phantom("potential", grid, center=(0.0, 0.0), scale=0.5)
    out0 = solve_free_space(ph.div).field.values
    shifted = ScalarField(grid, np.roll(ph.div.values, 1, axis=0))
    out1 = solve_free_space(shifted).field.values
    interior = grid.disc_mask(grid.r2 - 2 * grid.h)
    diff = np.abs(np.roll(out0, 1, axis=0) - out1)[interior].max()
    assert diff <= 1e-10 * np.abs(out0).max()


def test_free_space_boundary_decay(grid):
    # a radial bump with nonzero mass: outside its support the potential is
    # exactly (M / 2 pi) log r, so samples near |x| = r2 follow the log law
    h = bump_scalar(grid, scale=0.6)
    res = solve_free_space(h)
    mass = float(h.values.sum()) * grid.h**2
    rr = grid.rr()
    ring = (rr >= 0.97 * grid.r2) & (rr <= grid.r2)
    expected = mass * np.log(rr[ring]) / (2.0 * np.pi)
    assert np.abs(res.field.values[ring] - expected).max() <= \
        0.1 * np.abs(expected).max()


def test_free_space_requires_compact_rhs(grid):
    with pytest.raises(ConfigError):
        solve_free_space(ScalarField(grid, np.ones((grid.nx, grid.ny))))


def test_solvers_are_linear(grid):
    pha = make_phantom("potential", grid, center=(-0.2, 0.0), scale=0.5)
    phb = make_phantom("potential", grid, center=(0.2, 0.1), scale=0.4)
    combo = ScalarField(grid, 2.0 * pha.div.values - 3.0 * phb.div.values)
    for solver in (solve_dirichlet_disc, solve_free_space):
        va = solver(pha.div).field.values
        vb = solver(phb.div).field.values
        vc = solver(combo).field.values
        scale = np.abs(vc).max()
        assert np.abs(vc - (2.0 * va - 3.0 * vb)).max() <= 1e-7 * scale
