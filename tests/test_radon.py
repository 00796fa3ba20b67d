import numpy as np
import pytest

from vlinetomo import (ConfigError, GeometryError, Grid2D, ScalarField,
                       Sinogram, StarGeometry, VectorField, direction,
                       fbp_inverse, forward_star, grid_for_star, make_phantom,
                       radon_forward, radon_transform_field, sinogram_dds)
from vlinetomo.beam import beam_field, sample_with_strips
from vlinetomo.operators import bilinear
from vlinetomo.phantoms import bump_scalar
from vlinetomo.radon import (CHORD_BLOCK, _chord_integrals, _lattice,
                             _ramp_filter, strip_ring_radius, strip_tails)

from conftest import rel_l2


def test_sinogram_owns_read_only_values():
    src = np.zeros((2, 8, 8))
    flat = np.zeros((8, 8))
    sinos = [Sinogram(src, 0.0, 0.1, 0.1), Sinogram(flat, 0.0, 0.1, 0.1)]
    src[:] = 1.0
    flat[:] = 1.0
    for sg in sinos:
        assert np.all(sg.values == 0.0)
        with pytest.raises(ValueError):
            sg.values[0, 0, 0] = 2.0


def test_sinogram_adopt_keeps_checks_and_seals_the_array():
    # the library's private path: no copy, the same checks, read-only
    own = np.zeros((1, 8, 8))
    sg = Sinogram._adopt(own, 0.0, 0.1, 0.1)
    assert sg.values is own and not own.flags.writeable
    for values, dangle in ((np.full((1, 8, 8), np.nan), 0.1),
                           (np.zeros((3, 8, 8)), 0.1), (np.zeros((1, 8, 8)), 0.0)):
        with pytest.raises(ConfigError):
            Sinogram._adopt(values, 0.0, dangle, 0.1)
    assert not radon_forward(bump_scalar(Grid2D.centered(32, 1.0, 1.5)), 8,
                             17).values.flags.writeable


def test_sinogram_validation():
    with pytest.raises(ConfigError):
        Sinogram(np.zeros((3, 8, 8)), 0.0, 0.1, 0.1)
    with pytest.raises(ConfigError):
        Sinogram(np.full((1, 8, 8), np.nan), 0.0, 0.1, 0.1)
    with pytest.raises(ConfigError):
        Sinogram(np.zeros((1, 8, 8)), 0.0, -0.1, 0.1)
    for dangle, ds in ((np.nan, 0.1), (0.1, np.nan), (np.inf, 0.1),
                       (0.1, np.inf), (0.0, np.nan), (np.nan, np.inf)):
        with pytest.raises(ConfigError):
            Sinogram(np.zeros((1, 8, 8)), 0.0, dangle, ds)


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


def test_radon_rows_match_closed_form(grid):
    # R of A (1 - |x - c|^2 / a^2)^3 is A (32/35) a (1 - (s - c . psi)^2 /
    # a^2)^(7/2); every row, the mirrored half circle included
    c, a = np.array([0.15, 0.25]), 0.4
    sg = radon_forward(bump_scalar(grid, center=c, scale=a), 20, 129,
                       full=True)
    ang = sg.angles()
    shift = sg.offsets()[None, :] - (c[0] * np.cos(ang) + c[1] * np.sin(ang))[:, None]
    q = np.maximum(1.0 - shift**2 / a**2, 0.0)
    exact = (32.0 / 35.0) * a * q**3.5
    assert np.abs(sg.values[0] - exact).max() <= 3e-3


def _star_data(nx):
    sg = StarGeometry(tuple(direction(a) for a in (0.3, 2.4, 4.3)),
                      (1.0, -0.7, 1.3))
    grid = grid_for_star(nx, 1.0, sg)
    return forward_star(make_phantom("mixed", grid).field, sg), sg.gammas


def test_full_circle_integrates_the_half_circle_and_mirrors_it(grid):
    # the first half of an even full circle is the half-range sinogram of
    # n/2 angles, bit for bit; the second half is the first reversed in s
    sf, dirs = _star_data(48)
    h = bump_scalar(grid, center=(0.15, 0.25), scale=0.4)
    for full, half in ((radon_transform_field(sf, dirs, 24, 40),
                        radon_transform_field(sf, dirs, 12, 40, full=False)),
                       (radon_forward(h, 20, 65, full=True),
                        radon_forward(h, 10, 65))):
        n = half.n_angles
        assert full.ncomp == half.ncomp and full.n_angles == 2 * n
        assert np.array_equal(full.values[:, :n], half.values)
        assert np.array_equal(full.values[:, n:], half.values[:, :, ::-1])


def test_odd_full_circle_integrates_every_row(grid):
    h = bump_scalar(grid, center=(0.15, 0.25), scale=0.4)
    sg = radon_forward(h, 21, 65, full=True)
    a = sg.angles()
    psi = np.stack([np.cos(a), np.sin(a)], axis=1)
    for k in range(sg.n_angles):
        row = _chord_integrals(grid, h.values, psi[k:k + 1], sg.offsets(),
                               grid.r1)
        assert np.array_equal(sg.values[0, k], row[0])


def chord_reference(grid, values, psi, s, rmax):
    """The midpoint chord sums as ``_chord_integrals`` once took them: the
    same n = ceil(4 rmax / h) samples per chord through one ``bilinear``
    call per normal."""
    half = np.sqrt(np.maximum(rmax * rmax - s * s, 0.0))
    n = max(1, int(np.ceil(4.0 * rmax / grid.h)))
    mid = (np.arange(n) + 0.5) / n
    t = -half[:, None] + (2.0 * half)[:, None] * mid[None, :]
    out = np.empty((len(psi), len(s)), dtype=values.dtype)
    for k, (cos, sin) in enumerate(psi):
        px = s[:, None] * cos - t * sin
        py = s[:, None] * sin + t * cos
        out[k] = bilinear(grid, values, px, py).sum(axis=1) * (2.0 * half / n)
    return out


def _star_radon_case(n_angles, full):
    # the star-radon benchmark geometry: three equiangular rays, unit weights
    sg = StarGeometry(tuple(direction(a) for a in (0.0, 2 * np.pi / 3, 4 * np.pi / 3)),
                      (1.0, 1.0, 1.0))
    grid = grid_for_star(96, 1.0, sg)
    sf = forward_star(make_phantom("mixed", grid).field, sg)
    psi = _lattice(grid, n_angles, grid.nx, full)[3]
    offsets = (np.arange(grid.nx) - (grid.nx - 1) / 2.0) * (2.0 * grid.r2 / (grid.nx - 1))
    return grid, sf.f1 + 1j * sf.f2, psi, offsets, strip_ring_radius(grid)


def _off_centre_case(n_angles, full):
    # a rectangular grid whose square is not centred on the origin
    h = 0.05
    grid = Grid2D(70, 90, h, (-1.6, -2.3), 0.9, 1.5)
    field = bump_scalar(grid, center=(0.2, -0.3), scale=0.5).values
    psi = _lattice(grid, n_angles, 301, full)[3]
    offsets = (np.arange(301) - 150.0) * (2.0 * grid.r2 / 300)
    return grid, field, psi, offsets, grid.r1


@pytest.mark.parametrize("case", [_star_radon_case, _off_centre_case])
@pytest.mark.parametrize("n_angles, full", [(24, True), (13, False), (15, True)])
def test_chord_integrals_match_bilinear_reference(case, n_angles, full):
    grid, values, psi, offsets, rmax = case(n_angles, full)
    n = int(np.ceil(4.0 * rmax / grid.h))
    rows = CHORD_BLOCK // n
    live = int(np.sum(np.abs(offsets) < rmax))
    assert live > rows and live % rows != 0  # a short last block
    got = _chord_integrals(grid, values, psi, offsets, rmax)
    ref = chord_reference(grid, values, psi, offsets, rmax)
    assert got.dtype == values.dtype and got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_chord_disc_reaching_the_grid_edge_is_rejected():
    grid = Grid2D.centered(32, 1.0, 2.0)
    edge = (grid.nx - 1) * grid.h / 2.0  # the first and last grid columns
    values = np.ones((grid.nx, grid.ny))
    psi = np.array([[1.0, 0.0], [0.6, 0.8]])
    s = np.linspace(-1.0, 1.0, 9)
    assert np.all(np.isfinite(_chord_integrals(grid, values, psi, s, edge - grid.h)))
    for rmax in (edge, edge + grid.h):
        with pytest.raises(GeometryError):
            _chord_integrals(grid, values, psi, s, rmax)


def test_radon_forward_memory_is_bounded_by_its_output():
    # chord coordinates are built per block of offsets, so the work beyond
    # the output is bounded by CHORD_BLOCK, not by offsets x chord samples;
    # the rows are written into the output, which the Sinogram adopts
    # without a copy (measured 1.47x; 2.47x with the copy and a row array)
    import tracemalloc
    h = bump_scalar(Grid2D.centered(128, 1.0, 1.5))
    tracemalloc.start()
    try:
        sg = radon_forward(h, 16, 32000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * sg.values.nbytes


def test_packed_components_match_separate_transforms():
    # both star components in one complex pass against one pass each
    sf, dirs = _star_data(48)
    packed = radon_transform_field(sf, dirs, 24, 40).values
    for c in range(2):
        alone = ScalarField(sf.grid, (sf.f1, sf.f2)[c])
        ref = radon_transform_field(alone, dirs, 24, 40).values[0]
        assert np.abs(packed[c] - ref).max() <= 1e-15 * np.abs(ref).max()


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


def test_radon_strip_tails_match_dense_sum():
    # tails of the lines s psi + t psi_perp beyond the strip ring, as
    # radon_transform_field takes them, against a midpoint sum at step h/16
    # of sample_with_strips; the reference lines are 240 long, so the spans
    # stop at t = +-120, past where every line has left every strip (the
    # line at 0.4 + pi/2 + 0.05 stays in the strip for about 40 units)
    grid = Grid2D.centered(64, 1.0, 2.0)
    d = direction(0.4)
    values = beam_field(bump_scalar(grid), d)
    ring = strip_ring_radius(grid)
    angles = np.array([0.4 + np.pi / 2 + 0.05, 1.9, 2.8, 4.0])
    offsets = np.array([-2.5, -1.3, -0.6, -0.1, 0.3, 0.9, 1.6, 2.35])
    assert np.abs(offsets).max() > ring
    psi = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    px, py = psi[:, 0, None] * offsets, psi[:, 1, None] * offsets
    psi_perp = np.stack([-psi[:, 1], psi[:, 0]], axis=1)
    half = np.sqrt(np.maximum(ring * ring - offsets * offsets, 0.0))
    got = np.zeros(px.shape)
    strip_tails(grid, values, (d,), psi, offsets, got)
    ref = np.zeros(px.shape)
    for k in range(len(angles)):
        for j in range(len(offsets)):
            n = int(np.ceil((120.0 - half[j]) * 16 / grid.h))
            dt = (120.0 - half[j]) / n
            for sign in (-1.0, 1.0):
                t = sign * (half[j] + (np.arange(n) + 0.5) * dt)
                vals = sample_with_strips(grid, values, (d,),
                                          px[k, j] + t * psi_perp[k, 0],
                                          py[k, j] + t * psi_perp[k, 1])
                ref[k, j] += vals.sum() * dt
    assert np.abs(got - ref).max() <= 1e-5 * np.abs(ref).max()


def test_radon_strip_tails_at_a_right_angle_crossing():
    # lines at right angles to the strip, where e = perp(psi) . d is 0
    # (psi at angle 0) or about 1e-16 (at pi): x . d does not change along
    # them, so a line lies on the strip side for every t or for none; the
    # 3-ray star's angle-0 row is the exact case.  The two rows hold the
    # same lines (R h(-psi, -s) = R h(psi, s)), and both match a midpoint
    # sum at step h/16 of sample_with_strips over the tails
    grid = Grid2D.centered(64, 1.0, 2.0)
    d = direction(0.0)
    values = beam_field(bump_scalar(grid, center=(0.0, 0.5), scale=0.45), d)
    ring = strip_ring_radius(grid)
    psi = np.array([direction(0.0), direction(np.pi)])
    assert psi[0, 0] * d[1] - psi[0, 1] * d[0] == 0.0
    assert 0.0 < abs(psi[1, 0] * d[1] - psi[1, 1] * d[0]) < 1e-15
    offsets = np.array([-2.5, -2.05, -2.0, -1.0, 1.0, 2.0, 2.05, 2.5])
    got = np.zeros((2, len(offsets)))
    strip_tails(grid, values, (d,), psi, offsets, got)
    assert np.abs(got[1] - got[0, ::-1]).max() <= 1e-12 * np.abs(got).max()
    half = np.sqrt(np.maximum(ring * ring - offsets * offsets, 0.0))
    ref = np.zeros(len(offsets))
    for j, s in enumerate(offsets):
        n = int(np.ceil((4.0 - half[j]) * 16 / grid.h))
        t = half[j] + (np.arange(n) + 0.5) * (4.0 - half[j]) / n
        for sign in (-1.0, 1.0):
            ref[j] += sample_with_strips(grid, values, (d,), np.full(n, s),
                                         sign * t).sum() * (4.0 - half[j]) / n
    assert np.all(ref[offsets > 0] == 0.0) and np.all(got[0, offsets > 0] == 0.0)
    assert np.abs(ref[:3]).min() > 0.01 * np.abs(ref).max()
    assert np.abs(got[0] - ref).max() <= 1e-5 * np.abs(ref).max()


def test_radon_transform_field_memory_is_bounded_by_its_output():
    # the chords write into the output (real data) or one complex row
    # array, and the strip tails run over blocks of at most CHORD_BLOCK
    # samples, so the work beyond the output does not grow with the angle
    # or the offset count (measured 2.10x scalar, 2.40x star; 7.22x and
    # 4.78x with full (angles x offsets) tail temporaries per strip)
    import tracemalloc
    sf, dirs = _star_data(128)
    for tf in (ScalarField(sf.grid, sf.f1), sf):
        tracemalloc.start()
        try:
            sg = radon_transform_field(tf, dirs, 360, 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.0 * sg.values.nbytes


def test_radon_transform_field_memory_does_not_outgrow_the_sinogram():
    # the strip profiles take 16 samples per grid column, so their
    # temporaries grow like nx, as the sinogram does (3.06x at nx = 256;
    # 3.73x with nx * nx/8 samples)
    import tracemalloc
    sg = StarGeometry(tuple(direction(a) for a in
                            (0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0)),
                      (1.0, 1.0, 1.0))
    grid = grid_for_star(256, 1.0, sg)
    sf = forward_star(make_phantom("mixed", grid).field, sg)
    tracemalloc.start()
    try:
        sino = radon_transform_field(sf, sg.gammas, 360, grid.nx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.3 * sino.values.nbytes


def test_radon_transform_field_rejects_r2_below_the_strip_bound():
    # rays 0 and 0.9 rad apart need r2 >= 1 / sin(0.45) = 2.30 for disjoint
    # strips beyond r2; one direction, or none, needs only r2 >= r1
    sg = StarGeometry(tuple(direction(a) for a in (0.0, 0.9, 3.5)),
                      (1.0, 1.0, 1.0))
    grid = Grid2D.centered(64, 1.0, 1.5)
    sf = forward_star(make_phantom("mixed", grid).field, sg)
    with pytest.raises(GeometryError, match="requirement 2.29903"):
        radon_transform_field(sf, sg.gammas, 32, 32)
    for dirs in (sg.gammas[:1], ()):
        assert radon_transform_field(sf, dirs, 32, 32).values.shape == (2, 32, 32)


def test_radon_transform_field_rejects_grid_without_strip_ring():
    # the grid square reaches half a cell beyond r2, short of the strip
    # ring r2 + 2h that the chords read
    h = 2.0 / 23.0
    grid = Grid2D(48, 48, h, (-23.5 * h, -23.5 * h), 1.0, 2.0)
    tf = VectorField(grid, *np.zeros((2, grid.nx, grid.ny)))
    with pytest.raises(GeometryError):
        radon_transform_field(tf, (direction(0.0),), 16, 32)


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


def unfolded_backprojection(sg, grid):
    """Every row of ``sg`` ramp-filtered and backprojected at its own angle."""
    rows = _ramp_filter(sg.values, sg.ds)
    xx, yy = grid.mesh()
    out = np.zeros((sg.ncomp, grid.nx, grid.ny))
    for c in range(sg.ncomp):
        for k, a in enumerate(sg.angles()):
            s = xx * np.cos(a) + yy * np.sin(a)
            out[c] += np.interp(s, sg.offsets(), rows[c, k], left=0.0, right=0.0)
    return out * sg.dangle * (0.5 if sg.full_range else 1.0)


@pytest.mark.parametrize("n_angles", [32, 33])
def test_backprojection_folds_the_full_circle(small_grid, n_angles):
    # random data, not mirror-symmetric: folding row k + n/2 onto row k is
    # exact for any sinogram on the symmetric offset lattice; only the r1
    # disc is backprojected, and the output is exactly 0 beyond it
    rng = np.random.default_rng(7)
    sg = Sinogram(rng.standard_normal((2, n_angles, 40)), 0.3,
                  2 * np.pi / n_angles, 0.11)
    assert sg.full_range
    rec = fbp_inverse(sg, small_grid)
    got = np.stack([rec.f1, rec.f2])
    ref = unfolded_backprojection(sg, small_grid)
    disc = small_grid.disc_mask(small_grid.r1)
    assert np.abs(got - ref)[:, disc].max() <= 1e-12 * np.abs(ref[:, disc]).max()
    assert np.all(got[:, ~disc] == 0.0)


def test_fbp_zero_sinogram(grid):
    sg = Sinogram(np.zeros((1, 32, 64)), 0.0, np.pi / 32, 0.1)
    assert np.all(fbp_inverse(sg, grid).values == 0.0)


def test_fbp_rejects_few_angles(grid):
    sg = Sinogram(np.zeros((1, 8, 64)), 0.0, np.pi / 8, 0.1)
    with pytest.raises(ConfigError):
        fbp_inverse(sg, grid)


@pytest.mark.parametrize("n_angles,span", [(32, np.pi), (64, 2 * np.pi),
                                           (33, 2 * np.pi)])
def test_fbp_of_two_components_matches_each_alone(grid, n_angles, span):
    # one interpolation of f1 + i f2 per angle rounds apart from two real
    # ones, so the match is to rounding, not bitwise
    rng = np.random.default_rng(3)
    values = rng.standard_normal((2, n_angles, 64))
    rec = fbp_inverse(Sinogram(values, 0.2, span / n_angles, 0.1), grid)
    assert isinstance(rec, VectorField)
    for got, rows in zip((rec.f1, rec.f2), values):
        one = fbp_inverse(Sinogram(rows, 0.2, span / n_angles, 0.1), grid)
        assert isinstance(one, ScalarField)
        assert np.abs(got - one.values).max() <= 1e-12 * np.abs(one.values).max()


@pytest.mark.parametrize("n_rows", [300, 250])
def test_fbp_rejects_a_lattice_between_half_and_full_circle(n_rows):
    # the first rows of a 360-angle full circle span 5.24 or 4.36 rad: the
    # fold and the 1/2 weight of the full circle would read them as 2 pi
    g = Grid2D.centered(128, 1.0, 3.0)
    sg = radon_forward(bump_scalar(g, scale=0.5), 360, 128, full=True)
    cut = Sinogram(sg.values[:, :n_rows], sg.angle0, sg.dangle, sg.ds)
    assert sg.full_range and not cut.full_range
    with pytest.raises(ConfigError, match="pi"):
        fbp_inverse(cut, g)


@pytest.mark.parametrize("angle0", [np.nan, np.inf, -np.inf])
def test_sinogram_rejects_non_finite_angle0(angle0):
    with pytest.raises(ConfigError, match="angle0"):
        Sinogram(np.zeros((1, 32, 64)), angle0, np.pi / 32, 0.1)
