"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

The forward transforms at each grid size are computed once and shared
between criteria; the whole suite targets desk-scale runtimes.
"""

import numpy as np

from vlinetomo import (ScalarField, StarGeometry, VLineGeometry,
                       classify, direction, forward_I, forward_J,
                       forward_L, forward_star, forward_T, grid_for_star,
                       grid_for_vline, invert_signed, invert_star,
                       make_phantom, radon_forward, radon_transform_field,
                       random_phantom, recover_curl, recover_div,
                       recover_field_LI, recover_field_LT, recover_field_TJ,
                       rhombus_check, signed_vline, singular_directions,
                       sinogram_dds)
from vlinetomo.beam import beam_field
from vlinetomo.operators import bilinear
from vlinetomo.phantoms import bump_scalar
from vlinetomo.star import _angular_distance, apply_q

from conftest import ACCEPTANCE_LINES, rel_l2
from oracles import symmetric_by_coefficients

GEOM = VLineGeometry(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
WORKERS = 8

_CACHE = {}


def _mixed(nx):
    """Mixed phantom and all four forward transforms at one grid size."""
    if nx not in _CACHE:
        grid = grid_for_vline(nx, 1.0, GEOM)
        ph = make_phantom("mixed", grid)
        _CACHE[nx] = {
            "grid": grid,
            "ph": ph,
            "L": forward_L(ph.field, GEOM, workers=WORKERS),
            "T": forward_T(ph.field, GEOM, workers=WORKERS),
            "I": forward_I(ph.field, GEOM, workers=WORKERS),
            "J": forward_J(ph.field, GEOM, workers=WORKERS),
        }
    return _CACHE[nx]


def _check(num, name, ok, detail):
    line = f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def test_criterion_1_kernel_theorems():
    worst256, worst_shrink = 0.0, np.inf
    for k in range(5):
        for kind, op in (("potential", forward_L), ("solenoidal", forward_T)):
            # identical analytic phantom at both grid sizes
            rng = np.random.default_rng(100 + k)
            scale = rng.uniform(0.35, 0.6)
            ang = rng.uniform(0.0, 2.0 * np.pi)
            rad = rng.uniform(0.0, 1.0 - scale - 0.05)
            amp = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
            center = (rad * np.cos(ang), rad * np.sin(ang))
            errs = {}
            for nx in (256, 512):
                grid = grid_for_vline(nx, 1.0, GEOM)
                ph = make_phantom(kind, grid, center=center, scale=scale,
                                  amplitude=amp)
                tf = op(ph.field, GEOM, workers=WORKERS)
                errs[nx] = np.abs(tf.values).max() / ph.field.max_norm()
            worst256 = max(worst256, errs[256])
            worst_shrink = min(worst_shrink, errs[256] / errs[512])
    ok = worst256 <= 1e-2 and worst_shrink >= 1.8
    _check(1, "kernel theorems", ok,
           f"max |L f|,|T f| on kernel = {worst256:.2e} <= 1e-2, "
           f"min shrink 256->512 = {worst_shrink:.2f} >= 1.8")


def test_criterion_2_curl_div_recovery():
    data = _mixed(512)
    grid, ph = data["grid"], data["ph"]
    mask = grid.disc_mask(grid.r1)
    curl_err = rel_l2(recover_curl(data["L"], GEOM).values,
                      ph.curl.values, mask)
    div_err = rel_l2(recover_div(data["T"], GEOM).values,
                     ph.div.values, mask)
    ix = int(np.argmin(np.abs(grid.xs())))
    pot = make_phantom("potential", grid)
    sol = make_phantom("solenoidal", grid)
    div0 = recover_div(forward_T(pot.field, GEOM, workers=WORKERS),
                       GEOM).values[ix, ix]
    curl0 = recover_curl(forward_L(sol.field, GEOM, workers=WORKERS),
                         GEOM).values[ix, ix]
    # the analytic origin values of the pure bump phantoms
    ref_div = pot.div.values[ix, ix]
    ref_curl = sol.curl.values[ix, ix]
    ok = (curl_err <= 0.05 and div_err <= 0.05
          and abs(ref_div + 12.0) <= 0.25 and abs(ref_curl + 12.0) <= 0.25
          and abs(div0 - ref_div) <= 0.02 * abs(ref_div)
          and abs(curl0 - ref_curl) <= 0.02 * abs(ref_curl))
    _check(2, "curl/div recovery", ok,
           f"rel L2 curl {curl_err:.2%}, div {div_err:.2%} <= 5%; origin "
           f"div {div0:.3f} / curl {curl0:.3f} vs -12 within 2%")


def test_criterion_3_full_field_pipelines():
    errors = {"LT": [], "LI": [], "TJ": []}
    for nx in (128, 256, 512):
        data = _mixed(nx)
        grid, ph = data["grid"], data["ph"]
        mask = grid.disc_mask(grid.r1)
        recs = {
            "LT": recover_field_LT(data["L"], data["T"], GEOM),
            "LI": recover_field_LI(data["L"], data["I"], GEOM,
                                   workers=WORKERS),
            "TJ": recover_field_TJ(data["T"], data["J"], GEOM,
                                   workers=WORKERS),
        }
        for name, rec in recs.items():
            errors[name].append((rel_l2(rec.f1, ph.field.f1, mask),
                                 rel_l2(rec.f2, ph.field.f2, mask)))
    ok = True
    details = []
    for name, errs in errors.items():
        at256 = max(errs[1])
        monotone = all(errs[k + 1][c] < errs[k][c]
                       for k in range(2) for c in range(2))
        ok = ok and at256 <= 0.10 and monotone
        details.append(f"{name} {at256:.2%} @256"
                       f"{' monotone' if monotone else ' NOT monotone'}")
    _check(3, "full-field pipelines", ok, "; ".join(details))


def test_criterion_4_signed_round_trip():
    grid = grid_for_vline(256, 1.0, GEOM)
    worst = 0.0
    mask = grid.disc_mask(grid.r1)
    for center, scale in (((0.0, 0.0), 0.9), ((0.15, -0.1), 0.6)):
        h = bump_scalar(grid, center=center, scale=scale)
        rec = invert_signed(signed_vline(h, GEOM, workers=WORKERS), GEOM,
                            workers=WORKERS)
        worst = max(worst, rel_l2(rec.values, h.values + 1e-300, mask))
    ok = worst <= 0.05
    _check(4, "signed V-line round trip", ok,
           f"max rel L2 = {worst:.2%} <= 5%")


def test_criterion_5_radon_identity():
    from vlinetomo import Grid2D
    grid = Grid2D.centered(128, 1.0, 2.0)
    h = bump_scalar(grid, center=(0.1, -0.05), scale=0.6)
    gamma = direction(0.4)
    tf = ScalarField(grid, beam_field(h, gamma, workers=WORKERS))
    dds = sinogram_dds(radon_transform_field(tf, (gamma,), 360, 256,
                                             full=True))
    rh = radon_forward(h, 360, 256, full=True)
    angles = dds.angles()
    dots = np.cos(angles) * gamma[0] + np.sin(angles) * gamma[1]
    sel = np.abs(dots) >= 0.2
    lhs = dds.values[0][sel]
    rhs = -rh.values[0][sel] / dots[sel, None]
    row_err = np.linalg.norm(lhs - rhs, axis=1) / np.linalg.norm(rhs, axis=1)
    ok = float(row_err.max()) <= 0.02
    _check(5, "Radon strip identity", ok,
           f"max per-angle rel error {row_err.max():.2%} <= 2% over "
           f"{int(sel.sum())} angles with |psi.gamma| >= 0.2")


def test_criterion_6_star_inversion():
    sg = StarGeometry(tuple(direction(a) for a in
                            (0.0, 2 * np.pi / 3, 4 * np.pi / 3)),
                      (1.0, 1.0, 1.0))
    errs = {}
    for nx in (128, 256):
        grid = grid_for_star(nx, 1.0, sg)
        ph = make_phantom("mixed", grid)
        sf = forward_star(ph.field, sg, workers=WORKERS)
        rec = invert_star(sf, sg, n_angles=360)
        mask = grid.disc_mask(grid.r1)
        errs[nx] = (rel_l2(rec.f1, ph.field.f1, mask),
                    rel_l2(rec.f2, ph.field.f2, mask))
    e1, e2 = errs[256]
    shrink = max(errs[128]) / max(errs[256])

    # intermediate identity Q d/ds R(S f) = R f away from the guard bands
    sino = radon_transform_field(sf, sg.gammas, 360, grid.nx, full=True)
    rf = apply_q(sinogram_dds(sino), sg, guard_deg=2.0)
    sing = singular_directions(sg)
    bad = np.concatenate([sing.z1, sing.z2])
    valid = np.array([float(np.min(_angular_distance(a, bad)))
                      >= np.deg2rad(2.0) for a in rf.angles()])
    id_errs = []
    for c, comp in enumerate((ph.field.f1, ph.field.f2)):
        from vlinetomo import ScalarField
        ref = radon_forward(ScalarField(grid, comp), 360, grid.nx,
                            full=True).values[0]
        id_errs.append(rel_l2(rf.values[c][valid], ref[valid]))
    ok = (e1 <= 0.10 and e2 <= 0.10 and shrink >= 3.0
          and max(id_errs) <= 0.02)
    _check(6, "star inversion", ok,
           f"rel L2 components {e1:.2%}/{e2:.2%} <= 10%; worse component "
           f"shrinks {shrink:.2f} >= 3 from nx=128; intermediate "
           f"identity {max(id_errs):.2%} <= 2% on non-guarded angles")


def _random_directions(rng, m):
    while True:
        angles = np.sort(rng.uniform(0.0, 2 * np.pi, m))
        gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * np.pi]]))
        if gaps.min() > 0.05:
            return [direction(a) for a in angles]


def _classifier_suite():
    """200 geometries with known invertibility labels, m in {2, 3, 4, 6}."""
    rng = np.random.default_rng(7)
    cases = []
    for m in (2, 3, 4, 6):
        for k in range(50):
            if m % 2 == 1:
                gam = _random_directions(rng, m)
                w = rng.uniform(0.5, 2.0, m) * rng.choice([-1.0, 1.0], m)
                cases.append((StarGeometry(tuple(gam), tuple(w)),
                              "invertible"))
                continue
            style = k % 3
            half = _random_directions(rng, m // 2)
            wh = rng.uniform(0.5, 2.0, m // 2)
            if style == 0:  # full symmetric pairing
                gam = half + [-g for g in half]
                w = list(wh) + list(-wh)
                label = "symmetric"
            elif style == 1:  # paired rays, one weight sign violated
                gam = half + [-g for g in half]
                w = list(wh) + list(-wh)
                w[-1] = -w[-1]
                label = "invertible"
            else:  # generic rays, no opposite pairs
                gam = _random_directions(rng, m)
                w = rng.uniform(0.5, 2.0, m)
                label = "invertible"
            order = rng.permutation(m)
            gam = [gam[i] for i in order]
            w = [w[i] for i in order]
            cases.append((StarGeometry(tuple(gam), tuple(w)), label))
    return cases


def test_criterion_7_invertibility_classifier():
    cases = _classifier_suite()
    pairing_hits = sum(classify(sg) == label for sg, label in cases)
    coef_hits = sum((classify(sg) == "symmetric")
                    == symmetric_by_coefficients(sg) for sg, _ in cases)
    ok = pairing_hits == len(cases) and coef_hits == len(cases)
    _check(7, "invertibility classifier", ok,
           f"{pairing_hits}/{len(cases)} match the pairing labels, "
           f"{coef_hits}/{len(cases)} agree with the coefficient test")


def test_criterion_8_perp_intertwiners():
    geom = VLineGeometry(direction(0.35), direction(2.1))
    grid = grid_for_vline(96, 1.0, geom)
    worst = 0.0
    for k in range(3):
        ph = random_phantom("mixed", grid, np.random.default_rng(200 + k))
        fp = ph.field.perp()
        tf = forward_T(ph.field, geom, workers=WORKERS)
        lfp = forward_L(fp, geom, workers=WORKERS)
        jf = forward_J(ph.field, geom, workers=WORKERS)
        ifp = forward_I(fp, geom, workers=WORKERS)
        worst = max(worst,
                    np.abs(tf.values + lfp.values).max()
                    / np.abs(tf.values).max(),
                    np.abs(jf.values + ifp.values).max()
                    / np.abs(jf.values).max())
    ok = worst <= 1e-12
    _check(8, "perp intertwiners", ok,
           f"max relative defect {worst:.2e} <= 1e-12")


def test_criterion_9_rhombus_oracle():
    data = _mixed(256)
    grid, ph, lf = data["grid"], data["ph"], data["L"]
    rng = np.random.default_rng(17)
    probes = rng.uniform(-0.4 * grid.r1, 0.4 * grid.r1, (20, 2))
    errs = {}
    for delta in (8 * grid.h, 4 * grid.h):
        e = []
        for x in probes:
            got = rhombus_check(lf, x, delta, GEOM)
            cx = x + 0.5 * delta * (GEOM.u + GEOM.v)
            ref = GEOM.det * bilinear(grid, ph.curl.values,
                                      np.array([cx[0]]), np.array([cx[1]]))[0]
            e.append(got - ref)
        errs[delta] = float(np.linalg.norm(e))
    shrink = errs[8 * grid.h] / errs[4 * grid.h]
    scale = float(np.abs(ph.curl.values).max())
    agree = errs[4 * grid.h] / np.sqrt(20.0) <= 0.05 * scale
    ok = shrink >= 1.8 and agree
    _check(9, "rhombus oracle", ok,
           f"error shrink {shrink:.2f} >= 1.8 when delta halves; "
           f"rms error {errs[4 * grid.h] / np.sqrt(20.0):.2e} at delta=4h")


def test_criterion_10_determinism():
    geom = GEOM
    grid = grid_for_vline(128, 1.0, geom)
    ph = make_phantom("mixed", grid)
    h = bump_scalar(grid, scale=0.7)
    sg = StarGeometry(tuple(direction(a) for a in
                            (0.0, 2 * np.pi / 3, 4 * np.pi / 3)),
                      (1.0, 1.0, 1.0))
    sgrid = grid_for_star(96, 1.0, sg)
    sph = make_phantom("mixed", sgrid)

    def run(workers):
        ts = signed_vline(h, geom, workers=workers)
        sf = forward_star(sph.field, sg, workers=workers)
        return (
            forward_L(ph.field, geom, workers=workers).values,
            forward_T(ph.field, geom, workers=workers).values,
            forward_I(ph.field, geom, workers=workers).values,
            forward_J(ph.field, geom, workers=workers).values,
            ts.values,
            invert_signed(ts, geom, workers=workers).values,
            sf.f1,
            sf.f2,
        )

    base = run(1)
    ok = all(np.array_equal(a, b)
             for w in (2, 8) for a, b in zip(base, run(w)))
    _check(10, "determinism across workers", ok,
           "forward/signed/star outputs bit-identical for 1, 2, 8 workers")


def test_criterion_11_non_axis_convergence():
    geoms = {"oblique": VLineGeometry(direction(0.35), direction(2.1)),
             "rotated": VLineGeometry(direction(0.35),
                                      direction(0.35 + np.pi / 2))}
    ok = True
    details = []
    for gname, geom in geoms.items():
        errors = {"curl": [], "div": [], "LT": []}
        for nx in (128, 256, 512):
            grid = grid_for_vline(nx, 1.0, geom)
            ph = make_phantom("mixed", grid)
            mask = grid.disc_mask(grid.r1)
            lf = forward_L(ph.field, geom)
            tf = forward_T(ph.field, geom)
            rec = recover_field_LT(lf, tf, geom)
            errors["curl"].append(rel_l2(recover_curl(lf, geom).values,
                                         ph.curl.values, mask))
            errors["div"].append(rel_l2(recover_div(tf, geom).values,
                                        ph.div.values, mask))
            errors["LT"].append(max(rel_l2(rec.f1, ph.field.f1, mask),
                                    rel_l2(rec.f2, ph.field.f2, mask)))
        for name, errs in errors.items():
            shrink = errs[1] / errs[2]
            ok = ok and errs[0] > errs[1] > errs[2] and shrink >= 1.8
            details.append(f"{gname} {name} shrink {shrink:.2f}")
    _check(11, "non-axis convergence", ok,
           "; ".join(details) + " >= 1.8, monotone over nx 128/256/512")
