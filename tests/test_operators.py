import numpy as np
import pytest

from vlinetomo import (Grid2D, ScalarField, VectorField,
                       laplacians_from_div_curl, make_phantom)
from vlinetomo.operators import bilinear, correlate, fast_len

from conftest import rel_l2
from oracles import (curl, directional_derivative, divergence, gradient,
                     helmholtz_decompose)


# the whole array, a box strictly inside it, one on its first row and last
# column, and one row: the random samples outside a box must not reach
# the output
BOXES = (None, ((2, 3), (4, 6)), ((0, 4), (3, 8)), ((5, 1), (5, 7)))


def _check_correlate(values, kernel, center):
    for box in BOXES:
        (r0, c0), (r1, c1) = box or ((0, 0), (values.shape[0] - 1, values.shape[1] - 1))
        ref = np.zeros_like(values)
        for i in range(values.shape[0]):
            for j in range(values.shape[1]):
                for a in range(kernel.shape[0]):
                    for b in range(kernel.shape[1]):
                        p, q = i + a - center[0], j + b - center[1]
                        if r0 <= p <= r1 and c0 <= q <= c1:
                            ref[i, j] += kernel[a, b] * values[p, q]
        out = correlate(values[r0:r1 + 1, c0:c1 + 1], (r0, c0), values.shape,
                        kernel, center)
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("kshape, center", [
    ((5, 13), (0, 0)), ((5, 13), (4, 12)), ((5, 13), (2, 6)),
    ((5, 13), (1, 10)), ((17, 3), (3, 1)), ((30, 30), (2, 25)),
    ((30, 30), (14, 15)),
])
def test_correlate_matches_direct_sum(kshape, center):
    # centred, one-sided and off-centre kernels, one longer than twice the
    # array: each pads its FFT differently
    rng = np.random.default_rng(7)
    values, kernel = rng.standard_normal((7, 9)), rng.standard_normal(kshape)
    _check_correlate(values, kernel, center)


@pytest.mark.parametrize("kshape, center", [
    ((6, 1), (2, 0)), ((1, 6), (0, 5)), ((11, 1), (0, 0)), ((1, 1), (0, 0)),
])
def test_correlate_one_axis_kernels_match_direct_sum(kshape, center):
    # a kernel with one tap along an axis, or one tap in all
    rng = np.random.default_rng(8)
    values, kernel = rng.standard_normal((7, 9)), rng.standard_normal(kshape)
    _check_correlate(values, kernel, center)


def test_fast_len_matches_scipy():
    from scipy.fft import next_fast_len
    assert [fast_len(n) for n in range(1, 4097)] == \
        [next_fast_len(n, real=True) for n in range(1, 4097)]


def _coords(grid):
    return grid.mesh()


def test_directional_derivative_linear(small_grid):
    xx, _ = _coords(small_grid)
    h = ScalarField(small_grid, xx)
    d = directional_derivative(h, np.array([1.0, 0.0]))
    assert np.allclose(d.values, 1.0)


def test_directional_derivative_quadratic(small_grid):
    xx, yy = _coords(small_grid)
    h = ScalarField(small_grid, xx**2 + yy**2)
    d = directional_derivative(h, np.array([0.0, 1.0]))
    iy = int(np.argmin(np.abs(small_grid.ys() - 2.0)))
    ix = int(np.argmin(np.abs(small_grid.xs())))
    y0 = small_grid.ys()[iy]
    assert d.values[ix, iy] == pytest.approx(2.0 * y0, abs=1e-10)


def test_directional_derivative_constant(small_grid):
    h = ScalarField(small_grid, np.ones((small_grid.nx, small_grid.ny)))
    d = directional_derivative(h, np.array([0.6, 0.8]))
    assert np.allclose(d.values, 0.0)


def _bump_window(grid):
    q = grid.rr() ** 2 / grid.r1**2
    return np.where(q < 1, (1 - np.minimum(q, 1)) ** 3, 0.0)


def test_div_curl_symbolic_oracles(small_grid):
    xx, yy = _coords(small_grid)
    w = _bump_window(small_grid)
    mid = small_grid.nx // 2  # sample nearest the origin
    f = VectorField(small_grid, xx * w, yy * w)
    assert divergence(f).values[mid, mid] == pytest.approx(2.0, abs=0.1)
    assert curl(f).values[mid, mid] == pytest.approx(0.0, abs=0.1)
    g = VectorField(small_grid, -yy * w, xx * w)
    assert divergence(g).values[mid, mid] == pytest.approx(0.0, abs=0.1)
    assert curl(g).values[mid, mid] == pytest.approx(2.0, abs=0.1)


def test_curl_of_gradient_vanishes(small_grid):
    # away from the support edge (where f'' jumps), the discrete curl of a
    # gradient field cancels to rounding
    ph = make_phantom("potential", small_grid)
    c = curl(ph.field)
    interior = small_grid.disc_mask(0.8 * small_grid.r1)
    assert np.abs(c.values[interior]).max() <= 1e-10 * ph.field.max_norm()


def test_div_of_perp_gradient_vanishes(small_grid):
    ph = make_phantom("solenoidal", small_grid)
    d = divergence(ph.field)
    interior = small_grid.disc_mask(0.8 * small_grid.r1)
    assert np.abs(d.values[interior]).max() <= 1e-10 * ph.field.max_norm()


def test_stencil_second_order():
    # central differences of a smooth function converge at O(h^2)
    from vlinetomo import Grid2D
    d = np.array([0.6, 0.8])
    errs = []
    for nx in (64, 128):
        g = Grid2D.centered(nx, 1.0, 2.0)
        xx, yy = g.mesh()
        h = ScalarField(g, np.sin(2.0 * xx) * np.cos(yy))
        exact = (2.0 * d[0] * np.cos(2.0 * xx) * np.cos(yy)
                 - d[1] * np.sin(2.0 * xx) * np.sin(yy))
        got = directional_derivative(h, d).values
        interior = g.disc_mask(g.r1)
        errs.append(np.abs((got - exact)[interior]).max())
    assert errs[0] / errs[1] >= 3.5


def test_laplacians_from_div_curl_zero(small_grid):
    z = ScalarField(small_grid, np.zeros((small_grid.nx, small_grid.ny)))
    l1, l2 = laplacians_from_div_curl(z, z)
    assert np.all(l1.values == 0) and np.all(l2.values == 0)


@pytest.mark.parametrize("kind", ["potential", "solenoidal"])
def test_laplacians_match_direct_discrete_laplacian(small_grid, kind):
    ph = make_phantom(kind, small_grid, scale=0.8)
    l1, l2 = laplacians_from_div_curl(ph.div, ph.curl)
    # direct componentwise Laplacian via gradient of gradient (interior)
    for lap, comp in ((l1, ph.field.f1), (l2, ph.field.f2)):
        g = gradient(ScalarField(small_grid, comp))
        ref = divergence(g)
        interior = small_grid.disc_mask(0.7 * small_grid.r1)
        scale = np.abs(ref.values[interior]).max()
        err = np.abs((lap.values - ref.values)[interior]).max()
        assert err <= 0.1 * scale


def test_bilinear_reproduces_linear_function(small_grid):
    xx, yy = _coords(small_grid)
    vals = 2.0 * xx - 3.0 * yy + 0.5
    rng = np.random.default_rng(5)
    px = rng.uniform(-1.5, 1.5, 50)
    py = rng.uniform(-1.5, 1.5, 50)
    out = bilinear(small_grid, vals, px, py)
    assert np.allclose(out, 2.0 * px - 3.0 * py + 0.5, atol=1e-12)


def test_bilinear_zero_outside_grid(small_grid):
    vals = np.ones((small_grid.nx, small_grid.ny))
    out = bilinear(small_grid, vals, np.array([100.0]), np.array([0.0]))
    assert out[0] == 0.0


def test_bilinear_reads_last_row_and_column():
    g = Grid2D.centered(32, 1.0, 2.0)
    xs, ys = g.xs(), g.ys()
    vals = np.ones((g.nx, g.ny))
    px = np.array([xs[-1], 0.01, xs[-1], xs[-1] + g.h / 2, 0.01])
    py = np.array([0.01, ys[-1], ys[-1], 0.01, ys[-1] + g.h / 2])
    out = bilinear(g, vals, px, py)
    assert np.array_equal(out, [1.0, 1.0, 1.0, 0.0, 0.0])


def _bilinear_reference(grid, values, px, py):
    # four 2-D fancy-index gathers, the formula the flat gathers replace
    gx = (np.asarray(px, dtype=float) - grid.origin[0]) / grid.h
    gy = (np.asarray(py, dtype=float) - grid.origin[1]) / grid.h
    i = np.floor(gx).astype(np.int64)
    j = np.floor(gy).astype(np.int64)
    inside = (gx >= 0) & (gx <= grid.nx - 1) & (gy >= 0) & (gy <= grid.ny - 1)
    ic = np.clip(i, 0, grid.nx - 2)
    jc = np.clip(j, 0, grid.ny - 2)
    fx = gx - ic
    fy = gy - jc
    out = (
        (1.0 - fx) * (1.0 - fy) * values[ic, jc]
        + fx * (1.0 - fy) * values[ic + 1, jc]
        + (1.0 - fx) * fy * values[ic, jc + 1]
        + fx * fy * values[ic + 1, jc + 1]
    )
    return np.where(inside, out, 0.0)


def test_bilinear_matches_reference_bit_for_bit():
    g = Grid2D(37, 29, 0.07, (-1.3, -0.9), 0.5, 0.8)
    xs, ys = g.xs(), g.ys()
    rng = np.random.default_rng(11)
    vals = rng.standard_normal((g.nx, g.ny))
    inner_x = rng.uniform(xs[0], xs[-1], 400)
    inner_y = rng.uniform(ys[0], ys[-1], 400)
    px = np.concatenate([inner_x, rng.uniform(-3.0, 3.0, 400),
                         np.full(50, xs[-1]), rng.uniform(xs[0], xs[-1], 50),
                         [xs[0], xs[-1], xs[-1], xs[0]]]).reshape(2, -1)
    py = np.concatenate([inner_y, rng.uniform(-3.0, 3.0, 400),
                         rng.uniform(ys[0], ys[-1], 50), np.full(50, ys[-1]),
                         [ys[0], ys[-1], ys[0], ys[-1]]]).reshape(2, -1)
    got = bilinear(g, vals, px, py)
    assert got.shape == px.shape
    assert np.array_equal(got, _bilinear_reference(g, vals, px, py))
    assert np.count_nonzero(got) > px.size // 2
    cplx = vals + 1j * rng.standard_normal(vals.shape)
    assert np.array_equal(bilinear(g, cplx, px, py),
                          bilinear(g, cplx.real, px, py)
                          + 1j * bilinear(g, cplx.imag, px, py))


def test_helmholtz_pure_potential(grid):
    ph = make_phantom("potential", grid, scale=0.8)
    parts = helmholtz_decompose(ph.field)
    assert parts.solenoidal.max_norm() <= 0.05 * ph.field.max_norm()


def test_helmholtz_pure_solenoidal(grid):
    ph = make_phantom("solenoidal", grid, scale=0.8)
    parts = helmholtz_decompose(ph.field)
    gv = gradient(parts.potential_V)
    assert gv.max_norm() <= 0.05 * ph.field.max_norm()


def test_helmholtz_reproduces_input(grid):
    ph = make_phantom("mixed", grid)
    parts = helmholtz_decompose(ph.field)
    gv = gradient(parts.potential_V)
    mask = grid.disc_mask(grid.r1)
    assert rel_l2(parts.solenoidal.f1 + gv.f1, ph.field.f1, mask) <= 0.05
    assert rel_l2(parts.solenoidal.f2 + gv.f2, ph.field.f2, mask) <= 0.05


def test_helmholtz_is_projection(grid):
    ph = make_phantom("mixed", grid)
    parts = helmholtz_decompose(ph.field)
    again = helmholtz_decompose(parts.solenoidal)
    gv = gradient(again.potential_V)
    assert gv.max_norm() <= 0.05 * ph.field.max_norm()
