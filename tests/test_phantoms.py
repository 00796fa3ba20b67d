import numpy as np
import pytest

from vlinetomo import ConfigError, Grid2D, make_phantom, random_phantom
from vlinetomo.phantoms import bump_scalar

from conftest import rel_l2
from oracles import (curl, divergence, full_grid_bump, full_grid_phantom,
                     gradient)

KINDS = ("potential", "solenoidal", "mixed")


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


@pytest.mark.parametrize("kind,kwargs", [
    ("potential", {"scale": np.nan}), ("potential", {"center": (np.nan, 0.0)}),
    ("mixed", {"scale2": np.nan}), ("mixed", {"center2": (0.0, np.nan)})],
    ids=["scale", "center", "scale2", "center2"])
def test_non_finite_support_rejection(small_grid, kind, kwargs):
    # NaN fails scale <= 0 and |center| + scale > r1 alike: without a
    # ConfigError the bump's box is empty and the phantom is all zeros
    with pytest.raises(ConfigError):
        make_phantom(kind, small_grid, **kwargs)


@pytest.mark.parametrize("kind,name,value", [
    ("mixed", "amplitude", np.inf), ("potential", "amplitude", np.nan),
    ("mixed", "amplitude2", -np.inf), ("mixed", "amplitude2", np.nan)])
def test_non_finite_amplitude_rejection(small_grid, kind, name, value):
    # rejected by name before any array work, so no RuntimeWarning either
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        make_phantom(kind, small_grid, **{name: value})
    with pytest.raises(ConfigError, match="amplitude must be finite"):
        bump_scalar(small_grid, amplitude=value)


@pytest.mark.parametrize("center,scale", [((0.0, 0.0), np.nan), ((np.nan, 0.0), 0.5)],
                         ids=["scale", "center"])
def test_bump_scalar_non_finite_support_rejection(small_grid, center, scale):
    with pytest.raises(ConfigError):
        bump_scalar(small_grid, center, scale)


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


def _outputs(ph):
    return [ph.field.f1, ph.field.f2] + [
        None if o is None else o.values
        for o in (ph.div, ph.curl, ph.potential, ph.stream)]


def _assert_full_grid_values(kind, grid, **params):
    """Every output, and bump_scalar at the first bump, equal the full-grid
    formulas' values; zeros are +0.0 (the full-grid field writes -0.0 where
    -6 a y < 0 off the support)."""
    ph = make_phantom(kind, grid, **params)
    full = full_grid_phantom(kind, grid, **params)
    assert ph.kind == full.kind
    for got, want in zip(_outputs(ph), _outputs(full), strict=True):
        assert (got is None) == (want is None)
        if got is not None:
            assert np.array_equal(got, want)
            assert not np.any(np.signbit(got[got == 0.0]))
    bump = dict(center=params.get("center", (0.0, 0.0)),
                scale=params.get("scale", grid.r1),
                amplitude=params.get("amplitude", 1.0))
    assert np.array_equal(bump_scalar(grid, **bump).values, full_grid_bump(grid, **bump))


def _random_params(kind, r1, rng):
    """A bump (two for the mixed kind) of random centre, scale and amplitude
    inside the r1 disc."""
    def bump(lo, hi):
        scale = r1 * rng.uniform(lo, hi)
        rad, ang = rng.uniform(0.0, r1 - scale), rng.uniform(0.0, 2.0 * np.pi)
        return (rad * np.cos(ang), rad * np.sin(ang)), scale

    (center, scale), amplitude = bump(0.2, 0.7), rng.uniform(-2.0, 2.0)
    params = dict(center=center, scale=scale, amplitude=amplitude)
    if kind == "mixed":
        center2, scale2 = bump(0.2, 0.6)
        params.update(center2=center2, scale2=scale2,
                      amplitude2=rng.uniform(-2.0, 2.0))
    return params


@pytest.mark.parametrize("nx", [48, 97, 128])
@pytest.mark.parametrize("kind", KINDS)
def test_box_phantoms_equal_the_full_grid_formulas(kind, nx):
    # each bump is evaluated on its support's bounding box only, with the
    # full-grid arithmetic, so every output is the same to the bit
    grid = Grid2D.centered(nx, 1.0, 1.5)
    rng = np.random.default_rng(nx)
    _assert_full_grid_values(kind, grid)
    for _ in range(4):
        _assert_full_grid_values(kind, grid, **_random_params(kind, grid.r1, rng))


@pytest.mark.parametrize("kind", KINDS)
def test_box_phantoms_tangent_to_r1_and_on_an_off_centre_grid(kind):
    # supports touching the r1 circle, whose boxes reach its edge, and a
    # rectangular grid whose square is off the origin
    grid = Grid2D.centered(97, 1.0, 1.5)
    params = dict(center=(0.6 * np.cos(0.7), 0.6 * np.sin(0.7)), scale=0.4)
    if kind == "mixed":
        params.update(center2=(-0.55, 0.0), scale2=0.45, amplitude2=-1.5)
    _assert_full_grid_values(kind, grid, **params)
    rect = Grid2D(85, 100, 0.04, (-1.6, -1.9), 0.9, 1.3)
    rng = np.random.default_rng(5)
    _assert_full_grid_values(kind, rect)
    for _ in range(4):
        _assert_full_grid_values(kind, rect, **_random_params(kind, rect.r1, rng))


def test_mixed_phantom_peak_memory():
    # six output arrays, adopted without copies, and the bumps' box
    # temporaries: 6.9 grid arrays here, 19 when every bump was evaluated
    # over the whole grid
    import tracemalloc
    grid = Grid2D.centered(256, 1.0, 1.5)
    tracemalloc.start()
    try:
        ph = make_phantom("mixed", grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7.5 * ph.div.values.nbytes
