"""Per-stage timings of the Poisson solvers and the star inversion, each
next to its reconstruction error.

Stages, on the mixed phantom (r1 = 1) at each requested nx:

  make_phantom           the mixed phantom itself; also   none
                         its tracemalloc peak over one
                         untimed call, as a multiple of
                         its six outputs' bytes
  solve_dirichlet_disc   Lap V = div f on the r1 disc     error of V
  recover_potential      T f -> div f -> V                error of V
  solve_free_space       both components of f from their  error of f
                         masked analytic Laplacians by
                         free-space convolution
  recover_field_LT       (L f, T f) -> f, one row per     error of f
                         LT_GEOMETRIES entry, with its    per component
                         peak as a multiple of its
                         output's bytes
  radon_transform_field  the Radon stage of invert_star   error of f
                         on the 3-ray equiangular star,   (invert_star's)
                         360 angles; also its tracemalloc
                         peak over one untimed call, as a
                         multiple of its output's bytes
  star_fbp               its FBP stage                    error of f
  invert_star            the whole star inversion         error of f
  forward_vline          forward_L, _T, _I and _J at      LI's error of f
                         u@0.35/v@2.1; also forward_L's
                         tracemalloc peak over one
                         untimed call, as a multiple of
                         its output's bytes
  forward_star           the 3-ray star's forward_star    error of f
                                                          (invert_star's)
  recover_field_LI       (L f, I f) -> f, one row per     error of f
                         MOMENT_GEOMETRIES entry, with
                         its peak as a multiple of its
                         output's bytes
  recover_field_TJ       (T f, J f) -> f, the same        error of f
  beam_field             one beam of f1 along (1, 0)      none
                         (suffix sums) and at 0.35 rad
                         (one FFT), plain and moment, on
                         the axis pair's grid

V-line stages use the axis-aligned pair u = (1, 0), v = (0, 1) on
grid_for_vline, except the recover_field_LT, _LI and _TJ rows, whose
"geometry" names their LT_GEOMETRIES or MOMENT_GEOMETRIES entry, and the
beam_field rows, whose "geometry" names the beam's direction.  Each row
times REPEATS calls on inputs built outside the timed region and reports
the shortest (best_s) and the median (median_s) wall time and the median
CPU time (cpu_s, ``time.process_time``): on a shared host the best alone
moves with the host's load.  The error is the relative L2 error over the
r1 disc against the phantom's analytic field (the larger of the two
components for f), and null for the phantom and the beams.  Dirichlet
rows also carry the solver's residual (the share of the boundary trace
the harmonic correction drops).

The BLAS and OpenMP pools run one thread each.  The library is imported
from the Python path:

    PYTHONPATH=src python bench/poisson_sweep.py --label change \\
        --out BENCH_poisson.json

An existing --out file keeps its other labels; this run replaces only its
own.
"""

from __future__ import annotations

import os

# BLAS/OpenMP pools are pinned to one thread before numpy loads, as in
# perfbench: idle pool threads spinning after a BLAS call would otherwise
# count in the next stage's CPU time
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402

import vlinetomo as vt  # noqa: E402
from vlinetomo import radon, star  # noqa: E402

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
# name: (u angle, v angle), each on grid_for_vline
MOMENT_GEOMETRIES = {"oblique": (0.35, 2.1), "u1.0-v1.9": (1.0, 1.9)}
# name: the direction of a beam_field row
BEAM_DIRECTIONS = {"axis": np.array([1.0, 0.0]), "0.35": vt.direction(0.35)}
REPEATS = 5


def timed(fn, *args):
    """(result of the last call, {best_s, median_s, cpu_s}): the shortest
    and the median wall time of REPEATS calls, and their median CPU time."""
    wall, cpu = [], []
    for _ in range(REPEATS):
        t0, c0 = time.perf_counter(), time.process_time()
        out = fn(*args)
        wall.append(time.perf_counter() - t0)
        cpu.append(time.process_time() - c0)
    return out, {"best_s": min(wall), "median_s": float(np.median(wall)),
                 "cpu_s": float(np.median(cpu))}


def result_bytes(out):
    """Bytes of the sample arrays of a field, a sinogram or a phantom."""
    if isinstance(out, vt.Phantom):
        return sum(result_bytes(part) for part in (out.field, out.div, out.curl,
                                                   out.potential, out.stream)
                   if part is not None)
    if isinstance(out, vt.VectorField):
        return out.f1.nbytes + out.f2.nbytes
    return out.values.nbytes


def peak_over_output(fn, *args):
    """tracemalloc's peak over one call of ``fn``, as a multiple of
    ``result_bytes`` of its result."""
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / result_bytes(out)


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
        args = (vt.forward_L(ph.field, geom), vt.forward_T(ph.field, geom), geom)
        rec, t = timed(vt.recover_field_LT, *args)
        errs = rel_l2s([rec.f1, rec.f2], f, grid.disc_mask(grid.r1))
        row("recover_field_LT", t, max(errs), geometry=name, rel_l2_f1=errs[0],
            rel_l2_f2=errs[1], peak_over_output=peak_over_output(vt.recover_field_LT, *args))


def moment_rows(nx, row):
    """One recover_field_LI and one recover_field_TJ row per
    MOMENT_GEOMETRIES entry."""
    for name, (a, b) in MOMENT_GEOMETRIES.items():
        geom = vt.VLineGeometry(vt.direction(a), vt.direction(b))
        grid = vt.grid_for_vline(nx, R1, geom)
        ph = vt.make_phantom("mixed", grid)
        f = [ph.field.f1, ph.field.f2]
        for fn, fwds in ((vt.recover_field_LI, (vt.forward_L, vt.forward_I)),
                         (vt.recover_field_TJ, (vt.forward_T, vt.forward_J))):
            args = tuple(fwd(ph.field, geom) for fwd in fwds) + (geom,)
            rec, t = timed(fn, *args)
            row(fn.__name__, t, rel_l2([rec.f1, rec.f2], f, grid.disc_mask(grid.r1)),
                geometry=name, peak_over_output=peak_over_output(fn, *args))


def sweep_nx(nx):
    rows = []

    def row(stage, times, err, **extra):
        rows.append({"stage": stage, "nx": nx, **times, "rel_l2": err, **extra})

    geom = vt.VLineGeometry(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    grid = vt.grid_for_vline(nx, R1, geom)
    disc = grid.disc_mask(grid.r1)
    ph, t = timed(vt.make_phantom, "mixed", grid)
    row("make_phantom", t, None,
        peak_over_output=peak_over_output(vt.make_phantom, "mixed", grid))
    f = [ph.field.f1, ph.field.f2]

    res, t = timed(vt.solve_dirichlet_disc, ph.div)
    row("solve_dirichlet_disc", t, rel_l2([res.field.values], [ph.potential.values], disc),
        residual=res.residual)
    tf = vt.forward_T(ph.field, geom)
    pot, t = timed(vt.recover_potential, tf, geom)
    row("recover_potential", t, rel_l2([pot.values], [ph.potential.values], disc))

    rhs = [vt.ScalarField(grid, np.where(disc, lap.values, 0.0))
           for lap in vt.laplacians_from_div_curl(ph.div, ph.curl)]
    comps, t = timed(lambda: [vt.solve_free_space(r).field.values for r in rhs])
    row("solve_free_space", t, rel_l2(comps, f, disc))
    lt_rows(nx, row)

    sg = vt.StarGeometry(tuple(vt.direction(a) for a in STAR_ANGLES), (1.0, 1.0, 1.0))
    sgrid = vt.grid_for_star(nx, R1, sg)
    sph = vt.make_phantom("mixed", sgrid)
    sf = vt.forward_star(sph.field, sg)
    sf_oracle, sdisc = [sph.field.f1, sph.field.f2], sgrid.disc_mask(sgrid.r1)
    radon_args = (sf, sg.gammas, N_ANGLES, sgrid.nx, True)
    sino, t_radon = timed(radon.radon_transform_field, *radon_args)
    peak = peak_over_output(radon.radon_transform_field, *radon_args)
    rf = star.apply_q(radon.sinogram_dds(sino), sg)
    out, t = timed(radon.fbp_inverse, rf, sgrid)
    err = rel_l2([out.f1, out.f2], sf_oracle, sdisc)
    row("radon_transform_field", t_radon, err, n_angles=N_ANGLES,
        peak_over_output=peak)
    row("star_fbp", t, err, n_angles=N_ANGLES)
    rec, t = timed(vt.invert_star, sf, sg, N_ANGLES)
    err = rel_l2([rec.f1, rec.f2], sf_oracle, sdisc)
    row("invert_star", t, err, n_angles=N_ANGLES)
    _, t = timed(vt.forward_star, sph.field, sg)
    row("forward_star", t, err)
    forward_rows(nx, row)
    moment_rows(nx, row)
    beam_rows(ph, row)
    return rows


def beam_rows(ph, row):
    """One beam_field row per BEAM_DIRECTIONS entry, plain and moment, of the
    phantom's f1 component."""
    h = vt.ScalarField(ph.field.grid, ph.field.f1)
    for name, d in BEAM_DIRECTIONS.items():
        for moment in (False, True):
            _, t = timed(vt.beam_field, h, d, moment)
            row("beam_field", t, None, geometry=name, moment=moment)


def forward_rows(nx, row):
    """The forward_vline row: L, T, I and J at u@0.35/v@2.1, with the LI
    error and forward_L's peak beside them."""
    a, b, _ = LT_GEOMETRIES["oblique"]
    geom = vt.VLineGeometry(vt.direction(a), vt.direction(b))
    grid = vt.grid_for_vline(nx, R1, geom)
    ph = vt.make_phantom("mixed", grid)
    fns = (vt.forward_L, vt.forward_T, vt.forward_I, vt.forward_J)
    (lf, _, i_f, _), t = timed(lambda: [fn(ph.field, geom) for fn in fns])
    rec = vt.recover_field_LI(lf, i_f, geom)
    row("forward_vline", t, rel_l2([rec.f1, rec.f2], [ph.field.f1, ph.field.f2],
                                   grid.disc_mask(grid.r1)),
        geometry="oblique", peak_over_output=peak_over_output(vt.forward_L, ph.field, geom))


def _scipy_version():
    """scipy's version when it imports, else None: neither the library nor
    this sweep needs scipy."""
    try:
        import scipy
    except ImportError:
        return None
    return scipy.__version__


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
            err = "-" if r["rel_l2"] is None else f"{r['rel_l2']:.4e}"
            ms = {k: 1e3 * r[k + "_s"] for k in ("best", "median", "cpu")}
            print(f"{r['stage']:22s} nx={nx:4d}  best {ms['best']:9.3f} ms  "
                  f"median {ms['median']:9.3f} ms  cpu {ms['cpu']:9.3f} ms  "
                  f"rel_l2 {err}  {r.get('geometry', '')}"
                  f"{' moment' if r.get('moment') else ''}")

    doc = {"bench": "bench/poisson_sweep.py", "runs": {}}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc["runs"][args.label] = {
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version(), "numpy": np.__version__,
                 "scipy": _scipy_version()},
        "repeats": REPEATS,
        "stages": rows,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
