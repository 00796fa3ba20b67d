import numpy as np
import pytest

from vlinetomo import ConfigError, make_phantom, random_phantom
from vlinetomo.phantoms import bump_scalar

from conftest import rel_l2
from oracles import curl, divergence, gradient


def _origin_index(grid):
    ix = int(np.argmin(np.abs(grid.xs())))
    iy = int(np.argmin(np.abs(grid.ys())))
    return ix, iy


def test_potential_div_at_origin(small_grid):
    # Laplacian of (1 - rho^2)^3 at the center is -12 for unit scale
    ph = make_phantom("potential", small_grid, center=(0.0, 0.0), scale=1.0)
    ix, iy = _origin_index(small_grid)
    x0, y0 = small_grid.xs()[ix], small_grid.ys()[iy]
    q = x0 * x0 + y0 * y0
    expected = 12.0 * (1 - q) * (3 * q - 1)
    assert ph.div.values[ix, iy] == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(-12.0, abs=0.2)


def test_potential_curl_oracle_zero(small_grid):
    ph = make_phantom("potential", small_grid)
    assert np.all(ph.curl.values == 0.0)


def test_solenoidal_div_oracle_zero(small_grid):
    ph = make_phantom("solenoidal", small_grid)
    assert np.all(ph.div.values == 0.0)


def test_support_rejection(small_grid):
    with pytest.raises(ConfigError):
        make_phantom("potential", small_grid, center=(0.8, 0.0), scale=0.5)


def test_unknown_kind(small_grid):
    with pytest.raises(ConfigError):
        make_phantom("vortex", small_grid)


def test_oracle_consistency_with_discrete_operators(grid):
    # pointwise errors concentrate at the bump edges where f'' jumps, so
    # compare in the L2 sense
    ph = make_phantom("mixed", grid)
    mask = grid.disc_mask(0.95 * grid.r1)
    d = divergence(ph.field)
    c = curl(ph.field)
    assert rel_l2(d.values, ph.div.values, mask) <= 0.05
    assert rel_l2(c.values, ph.curl.values, mask) <= 0.05


def test_potential_field_is_gradient_of_oracle(grid):
    ph = make_phantom("potential", grid, scale=0.8)
    gv = gradient(ph.potential)
    mask = grid.disc_mask(grid.r1)
    assert rel_l2(gv.f1, ph.field.f1 + 1e-300, mask) <= 0.02
    assert rel_l2(gv.f2, ph.field.f2 + 1e-300, mask) <= 0.02


def test_mixed_is_sum_of_parts(grid):
    center, scale = (-0.2, -0.1), 0.5
    center2, scale2 = (0.2, 0.2), 0.45
    mixed = make_phantom("mixed", grid, center=center, scale=scale,
                         center2=center2, scale2=scale2)
    a = make_phantom("potential", grid, center=center, scale=scale)
    b = make_phantom("solenoidal", grid, center=center2, scale=scale2)
    assert np.allclose(mixed.field.f1, a.field.f1 + b.field.f1)
    assert np.allclose(mixed.field.f2, a.field.f2 + b.field.f2)


def test_phantom_fields_are_compact(grid):
    for kind in ("potential", "solenoidal", "mixed"):
        ph = make_phantom(kind, grid)
        assert ph.field.is_compact()
        assert ph.div.is_compact() and ph.curl.is_compact()


def test_random_phantom_compact(grid):
    rng = np.random.default_rng(11)
    for kind in ("potential", "solenoidal", "mixed"):
        ph = random_phantom(kind, grid, rng)
        assert ph.field.is_compact()


def test_bump_scalar_value_at_center(small_grid):
    h = bump_scalar(small_grid, amplitude=2.0)
    ix, iy = _origin_index(small_grid)
    x0, y0 = small_grid.xs()[ix], small_grid.ys()[iy]
    q = (x0 * x0 + y0 * y0) / small_grid.r1**2
    assert h.values[ix, iy] == pytest.approx(2.0 * (1 - q) ** 3, rel=1e-12)
