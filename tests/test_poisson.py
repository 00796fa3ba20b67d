import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from vlinetomo import (ConfigError, Grid2D, ScalarField, VectorField,
                       grid_for_vline, make_phantom, poisson,
                       solve_dirichlet_disc, solve_free_space)
from vlinetomo.fields import lines
from vlinetomo.operators import bilinear, correlate, laplacians_from_div_curl
from vlinetomo.phantoms import bump_scalar

from conftest import rel_l2


def _second_difference(n):
    """(n, n) matrix of -d^2/dx^2 times h^2, zero beyond both ends."""
    return sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))


def dirichlet_lu(rhs):
    """Oracle: the 5-point system on the samples with rr < r1, assembled
    as a sparse matrix and solved by sparse LU."""
    grid = rhs.grid
    mask = grid.rr() < grid.r1
    inside = np.flatnonzero(mask)
    neg_lap = sp.kronsum(_second_difference(grid.ny),
                         _second_difference(grid.nx), format="csr")
    a = (neg_lap[inside][:, inside] / (grid.h * grid.h)).tocsc()
    out = np.zeros((grid.nx, grid.ny))
    out[mask] = spsolve(a, -rhs.values[mask], permc_spec="MMD_AT_PLUS_A")
    return out


# r2 just above r1 on a square that barely holds it: the DST box, one
# cell beyond the disc and grown to a 5-smooth size, passes the grid's edge
TIGHT_GRID = Grid2D(nx=64, ny=64, h=2.002 / 63, origin=(-1.001, -1.001),
                    r1=1.0, r2=1.001)


# the r1 circle crosses cells whose corners lie past the DST box: at
# theta = 0 on a grid line x = r1 with no sample inside the disc, and a box
# with no growth (n = m = 97); and a grid whose first disc row is preceded
# by a row within the disc's x-range that holds no disc sample
EDGE_GRIDS = [Grid2D(257, 257, 1.0 / 64, (-2.0, -2.0), 0.75, 1.5),
              Grid2D(40, 40, 1.0 / 16, (-1.234375, -1.21875), 0.36, 0.41)]


@pytest.mark.parametrize("make_grid", [
    lambda geom: grid_for_vline(96, 1.0, geom),
    lambda geom: grid_for_vline(97, 1.0, geom),
    lambda geom: TIGHT_GRID,
], ids=["nx96", "nx97", "tight"])
def test_dirichlet_matches_sparse_lu(make_grid, geom):
    # V is zero on the r1 circle itself, not on the staircase of samples
    # rr >= r1 that the exact 5-point solve pins, and is no less accurate
    grid = make_grid(geom)
    ph = make_phantom("mixed", grid)
    res = solve_dirichlet_disc(ph.div)
    mask = grid.disc_mask(grid.r1)
    assert rel_l2(res.field.values, ph.potential.values, mask) <= \
        rel_l2(dirichlet_lu(ph.div), ph.potential.values, mask)
    assert np.array_equal(solve_dirichlet_disc(ph.div).field.values, res.field.values)
    if grid is TIGHT_GRID:
        lo, shape = poisson._dst_box([lines((grid.rr() < grid.r1).any(axis=a)) for a in (1, 0)])
        assert min(lo) < 0 or lo[0] + shape[0] > grid.nx or lo[1] + shape[1] > grid.ny


@pytest.mark.parametrize("shape", [(7, 7), (8, 8), (9, 14), (15, 4), (31, 24)])
def test_box_inverse_matches_scipy_dst(shape):
    # square, non-square, odd and even sides
    from scipy.fft import dstn, idstn
    r = np.random.default_rng(3).standard_normal(shape)
    lam = [2.0 - 2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1)) for n in shape]
    inv_lam = 1.0 / (lam[0][:, None] + lam[1][None, :])
    ref = idstn(dstn(r, type=1) * inv_lam, type=1)
    out = poisson._box_solve(r)
    assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("make_grid", [
    lambda geom: grid_for_vline(96, 1.0, geom),
    lambda geom: grid_for_vline(97, 1.0, geom),
    lambda geom: TIGHT_GRID,
], ids=["nx96", "nx97", "tight"])
def test_dirichlet_quadratic_is_second_order(make_grid, geom):
    # Lap V = 4 in the disc with V = 0 on its circle: V = |x|^2 - r1^2,
    # which the 5-point stencil differentiates exactly, so the error is the
    # boundary's alone; a staircase boundary is first order (4.5e-2 here)
    def max_error(grid):
        inside = grid.rr() < grid.r1
        res = solve_dirichlet_disc(ScalarField(grid, np.where(inside, 4.0, 0.0)))
        return np.abs(res.field.values - (grid.rr()**2 - grid.r1**2))[inside].max()

    grid = make_grid(geom)
    assert max_error(grid) <= 2e-3
    if grid.nx == 96:
        assert max_error(grid_for_vline(192, 1.0, geom)) <= max_error(grid) / 3.0


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


@pytest.mark.parametrize("kind", ["masked", "unmasked", "off-centre"])
def test_free_space_matches_full_grid_correlation(grid, kind):
    ph = make_phantom("mixed", grid)
    lap = laplacians_from_div_curl(ph.div, ph.curl)[0].values
    rhs = {"masked": lambda: ScalarField(grid, np.where(grid.disc_mask(grid.r1), lap, 0.0)),
           "unmasked": lambda: ScalarField(grid, lap),
           "off-centre": lambda: bump_scalar(grid, center=(0.45, -0.3), scale=0.35)}[kind]()
    assert rhs.is_compact()
    nx, ny = grid.nx, grid.ny
    k = poisson.log_kernel(grid.h, np.arange(-(nx - 1), nx), np.arange(-(ny - 1), ny))
    ref = correlate(rhs.values, (0, 0), (nx, ny), k, (nx - 1, ny - 1))
    out = solve_free_space(rhs).field.values
    assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()


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


@pytest.mark.parametrize("make_grid", [
    lambda geom: grid_for_vline(96, 1.0, geom),
    lambda geom: grid_for_vline(97, 1.0, geom),
    lambda geom: TIGHT_GRID,
    lambda geom: EDGE_GRIDS[0],
    lambda geom: EDGE_GRIDS[1],
], ids=["nx96", "nx97", "tight", "box-high", "box-low"])
def test_dirichlet_vector_rhs_is_two_scalar_solves(make_grid, geom):
    # one batched solve of both components, bit for bit the scalar solves,
    # reporting the larger residual; a zero component stays exactly zero
    grid = make_grid(geom)
    ph = make_phantom("mixed", grid)
    both = solve_dirichlet_disc(VectorField(grid, ph.div.values, ph.curl.values))
    one, two = solve_dirichlet_disc(ph.div), solve_dirichlet_disc(ph.curl)
    assert np.array_equal(both.field.f1, one.field.values)
    assert np.array_equal(both.field.f2, two.field.values)
    assert both.residual == max(one.residual, two.residual)
    half = solve_dirichlet_disc(VectorField(grid, np.zeros((grid.nx, grid.ny)),
                                            ph.curl.values))
    assert np.all(half.field.f1 == 0.0)
    assert np.array_equal(half.field.f2, two.field.values)
    assert half.residual == two.residual


def _seven_smooth(k):
    for p in (2, 3, 5, 7):
        while k % p == 0:
            k //= p
    return k == 1


def test_dst_box_is_least_seven_smooth_with_even_growth():
    # per axis n = span + 3; m is the least m >= n with m + 1 7-smooth and
    # m - n even, grown by (m - n) / 2 at each end
    for n in range(16, 601):
        lo, shape = poisson._dst_box((slice(5, n + 3), slice(0, n - 2)))
        m = shape[0]
        assert m >= n and (m - n) % 2 == 0 and _seven_smooth(m + 1)
        assert not any(_seven_smooth(k + 1) for k in range(n, m, 2))
        assert shape == (m, m) and lo == (4 - (m - n) // 2, -1 - (m - n) // 2)


@pytest.mark.parametrize("grid", EDGE_GRIDS, ids=["box-high", "box-low"])
def test_circle_trace_reads_zero_past_the_box(grid):
    # the trace is bilinear interpolation on the grid of the boxes written
    # into zeros, bit for bit
    lo, shape = poisson._dst_box([lines((grid.rr() < grid.r1).any(axis=a)) for a in (1, 0)])
    v_box = np.random.default_rng(8).standard_normal((2, *shape))
    theta = 2.0 * np.pi * np.arange(1024) / 1024
    trace = poisson._circle_trace(grid, v_box, lo, 1024)
    for t, v in zip(trace, v_box):
        window = np.zeros((grid.nx, grid.ny))
        win = tuple(slice(max(l, 0), min(l + n, size))
                    for l, n, size in zip(lo, shape, window.shape))
        window[win] = v[tuple(slice(w.start - l, w.stop - l) for w, l in zip(win, lo))]
        assert np.array_equal(t, bilinear(grid, window, grid.r1 * np.cos(theta),
                                          grid.r1 * np.sin(theta)))
