"""Per-stage timings of the Poisson solvers and the star inversion, each
next to its reconstruction error.

Stages, on the mixed phantom (r1 = 1) at each requested nx:

  solve_dirichlet_disc   Lap V = div f on the r1 disc     error of V
  recover_potential      T f -> div f -> V                error of V
  solve_free_space       both components of f from their  error of f
                         masked analytic Laplacians by
                         free-space convolution
  recover_field_LT       (L f, T f) -> f, one row per     error of f
                         LT_GEOMETRIES entry              per component
  radon_transform_field  the Radon stage of invert_star   error of f
                         on the 3-ray equiangular star,   (invert_star's)
                         360 angles; also its tracemalloc
                         peak over one untimed call, as a
                         multiple of its output's bytes
  star_fbp               its FBP stage                    error of f
  invert_star            the whole star inversion         error of f

V-line stages use the axis-aligned pair u = (1, 0), v = (0, 1) on
grid_for_vline, except the recover_field_LT rows, whose "geometry" names
their LT_GEOMETRIES entry.  Each time
is the best of REPEATS calls on inputs built outside the timed region;
the error is the relative L2 error over the r1 disc against the phantom's
analytic field (the larger of the two components for f).  Dirichlet rows
also carry the solver's residual (the share of the boundary trace the
harmonic correction drops).

The library is imported from the Python path:

    PYTHONPATH=src python bench/poisson_sweep.py --label change \\
        --out BENCH_poisson.json

An existing --out file keeps its other labels; this run replaces only its
own.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
import tracemalloc

import numpy as np
import scipy

import vlinetomo as vt
from vlinetomo import radon, star

R1 = 1.0
STAR_ANGLES = (0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0)
N_ANGLES = 360
# name: (u angle, v angle, r2 of Grid2D.centered, or None for grid_for_vline)
LT_GEOMETRIES = {
    "axis": (0.0, np.pi / 2.0, None),
    "axis-r2-1.5": (0.0, np.pi / 2.0, 1.5),  # the grid of perfbench's lt-cli
    "oblique": (0.35, 2.1, None),
    "rotated": (0.35, 0.35 + np.pi / 2.0, None),
}
REPEATS = 3


def best_of(fn, *args):
    """(result of the last call, shortest wall time of REPEATS calls)."""
    best = np.inf
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return out, best


def peak_over_output(fn, *args):
    """tracemalloc's peak over one call of ``fn``, as a multiple of the
    bytes of the values of its result."""
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / out.values.nbytes


def rel_l2s(recon, oracle, mask):
    """Relative L2 error over the mask of each component."""
    return [float(np.linalg.norm((r - o)[mask]) / np.linalg.norm(o[mask]))
            for r, o in zip(recon, oracle)]


def rel_l2(recon, oracle, mask):
    """Largest relative L2 error over the mask among the components."""
    return max(rel_l2s(recon, oracle, mask))


def lt_rows(nx, row):
    """One recover_field_LT row per LT_GEOMETRIES entry, with the error of
    each component beside the larger one."""
    for name, (a, b, r2) in LT_GEOMETRIES.items():
        geom = vt.VLineGeometry(vt.direction(a), vt.direction(b))
        grid = (vt.grid_for_vline(nx, R1, geom) if r2 is None
                else vt.Grid2D.centered(nx, R1, r2))
        ph = vt.make_phantom("mixed", grid)
        f = [ph.field.f1, ph.field.f2]
        rec, t = best_of(vt.recover_field_LT, vt.forward_L(ph.field, geom),
                         vt.forward_T(ph.field, geom), geom)
        errs = rel_l2s([rec.f1, rec.f2], f, grid.disc_mask(grid.r1))
        row("recover_field_LT", t, max(errs), geometry=name, rel_l2_f1=errs[0],
            rel_l2_f2=errs[1])


def sweep_nx(nx):
    rows = []

    def row(stage, out_s, err, **extra):
        rows.append({"stage": stage, "nx": nx, "best_s": out_s, "rel_l2": err, **extra})

    geom = vt.VLineGeometry(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    grid = vt.grid_for_vline(nx, R1, geom)
    disc = grid.disc_mask(grid.r1)
    ph = vt.make_phantom("mixed", grid)
    f = [ph.field.f1, ph.field.f2]

    res, t = best_of(vt.solve_dirichlet_disc, ph.div)
    row("solve_dirichlet_disc", t, rel_l2([res.field.values], [ph.potential.values], disc),
        residual=res.residual)
    tf = vt.forward_T(ph.field, geom)
    pot, t = best_of(vt.recover_potential, tf, geom)
    row("recover_potential", t, rel_l2([pot.values], [ph.potential.values], disc))

    rhs = [vt.ScalarField(grid, np.where(disc, lap.values, 0.0))
           for lap in vt.laplacians_from_div_curl(ph.div, ph.curl)]
    comps, t = best_of(lambda: [vt.solve_free_space(r).field.values for r in rhs])
    row("solve_free_space", t, rel_l2(comps, f, disc))
    lt_rows(nx, row)

    sg = vt.StarGeometry(tuple(vt.direction(a) for a in STAR_ANGLES), (1.0, 1.0, 1.0))
    sgrid = vt.grid_for_star(nx, R1, sg)
    sph = vt.make_phantom("mixed", sgrid)
    sf = vt.forward_star(sph.field, sg)
    sf_oracle, sdisc = [sph.field.f1, sph.field.f2], sgrid.disc_mask(sgrid.r1)
    radon_args = (sf, sg.gammas, N_ANGLES, sgrid.nx, True)
    sino, t_radon = best_of(radon.radon_transform_field, *radon_args)
    peak = peak_over_output(radon.radon_transform_field, *radon_args)
    rf = star.apply_q(radon.sinogram_dds(sino), sg)
    out, t = best_of(radon._backproject, rf, sgrid)
    err = rel_l2(out, sf_oracle, sdisc)
    row("radon_transform_field", t_radon, err, n_angles=N_ANGLES,
        peak_over_output=peak)
    row("star_fbp", t, err, n_angles=N_ANGLES)
    rec, t = best_of(vt.invert_star, sf, sg, N_ANGLES)
    row("invert_star", t, rel_l2([rec.f1, rec.f2], sf_oracle, sdisc),
        n_angles=N_ANGLES)
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--nx", type=int, nargs="+", default=[128, 256, 512])
    ap.add_argument("--label", required=True, help="name of this run in --out")
    ap.add_argument("--out", required=True, help="JSON file to write or update")
    args = ap.parse_args(argv)
    if min(args.nx) < 16:
        ap.error("need every --nx >= 16")

    rows = []
    for nx in args.nx:
        done = sweep_nx(nx)
        rows += done
        for r in done:
            print(f"{r['stage']:22s} nx={nx:4d}  {r['best_s']:8.4f} s  "
                  f"rel_l2 {r['rel_l2']:.4e}  {r.get('geometry', '')}")

    doc = {"bench": "bench/poisson_sweep.py", "runs": {}}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc["runs"][args.label] = {
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version(), "numpy": np.__version__,
                 "scipy": scipy.__version__},
        "repeats": REPEATS,
        "stages": rows,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
