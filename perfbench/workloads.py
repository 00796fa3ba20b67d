"""The benchmark's three reconstruction workloads.

Each workload is a closed loop: one process runs one case after another.
The workload seed draws every case's phantom parameters (centres, scales,
amplitudes, see ``_mixed_params``); set-up builds the inputs, and the
library receives only those generated inputs.

A case returns its stage timings and, per reconstruction pipeline, the
output components next to their analytic oracle.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _io
import os
import shutil
import struct
import time
from dataclasses import dataclass, field

import numpy as np

import vlinetomo as vt
from vlinetomo import cli

R1 = 1.0
WARMUP_NX = 32
# acceptance-suite gates on the relative L2 error: criteria 3 and 6 for
# the full-field pipelines, criterion 2 for the Dirichlet potentials
TOLERANCE = {"lt": 0.10, "li": 0.10, "tj": 0.10, "star": 0.10,
             "potential": 0.05, "stream": 0.05}


@dataclass
class Output:
    """One pipeline's reconstruction next to its oracle (or its error)."""

    pipeline: str
    recon: list = field(default_factory=list)
    oracle: list = field(default_factory=list)
    mask: np.ndarray | None = None
    error: str | None = None


@dataclass
class CaseRun:
    """perf_counter stamps of one case: start, forward stage, end."""

    start: float
    forward_start: float
    forward_end: float
    end: float
    outputs: list
    fingerprint: dict

    @property
    def case_s(self):
        return self.end - self.start

    @property
    def forward_s(self):
        return self.forward_end - self.forward_start

    @property
    def invert_s(self):
        return self.end - self.forward_end


def _attempt(fn, *args, **kwargs):
    """Call fn; a raised error is returned as text and counted, not fatal."""
    try:
        return fn(*args, **kwargs), None
    except (Exception, SystemExit) as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _check_warmup(run):
    errors = [o.error for o in run.outputs if o.error]
    if errors:
        raise RuntimeError(f"warm-up failed: {errors[0]}")


def _disc_mask(nx, ny, h, origin, r1):
    xs = origin[0] + h * np.arange(nx)
    ys = origin[1] + h * np.arange(ny)
    return np.hypot(xs[:, None], ys[None, :]) <= r1


def _sha(arrays):
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return digest.hexdigest()


# Each case jitters make_phantom's default mixed phantom: centres move by
# up to JITTER * r1, scales and amplitudes by up to a share JITTER, and
# both amplitudes stay positive.  Over random_phantom's wider ranges the
# oblique LI error alone runs from 54% to 100%, and flipping the sign of
# one bump moves it between 83% and 98%: too much for the median over a
# run's few cases to be steady from seed to seed.
BUMPS = (((-0.25, -0.15), 0.55), ((0.2, 0.25), 0.5))
JITTER = 0.02


def _mixed_params(rng):
    """Centres, scales and amplitudes of the two bumps of one case."""
    out = []
    for (cx, cy), scale in BUMPS:
        ang = rng.uniform(0.0, 2.0 * np.pi)
        rad = JITTER * R1 * np.sqrt(rng.uniform())
        out.append(((float(cx * R1 + rad * np.cos(ang)),
                     float(cy * R1 + rad * np.sin(ang))),
                    float(scale * R1 * rng.uniform(1.0 - JITTER, 1.0 + JITTER)),
                    float(rng.uniform(1.0 - JITTER, 1.0 + JITTER))))
    (c1, s1, a1), (c2, s2, a2) = out
    return {"center": c1, "scale": s1, "amplitude": a1,
            "center2": c2, "scale2": s2, "amplitude2": a2}


class Workload:
    name: str
    nominal_case_s: float  # one case on a 2-core Xeon, sizes the run
    pipelines: tuple

    def n_cases(self, seconds):
        return max(3, round(seconds / self.nominal_case_s))


class LibraryWorkload(Workload):
    """Library-API workload at workers=1 with phantoms built in set-up."""

    nx = 128

    def grid_and_geometry(self, nx):
        raise NotImplementedError

    def setup(self, seed, n_cases, workdir):
        grid, geom = self.grid_and_geometry(self.nx)
        rng = np.random.default_rng(seed)
        cases = []
        for _ in range(n_cases):
            params = _mixed_params(rng)
            ph = vt.make_phantom("mixed", grid, **params)
            cases.append({"params": params, "phantom": ph})
        # warm-up on a small grid: lazy imports, caches and allocator
        small, small_geom = self.grid_and_geometry(WARMUP_NX)
        _check_warmup(self.run_case({"grid": small, "geom": small_geom,
                                     "phantom": vt.make_phantom("mixed", small)}))
        return {"grid": grid, "geom": geom, "cases": cases}

    def case(self, state, i):
        return {"grid": state["grid"], "geom": state["geom"],
                "phantom": state["cases"][i]["phantom"]}

    def describe(self, state, i):
        grid = state["grid"]
        return {"nx": grid.nx, "h": grid.h, "r2": grid.r2,
                **self.geometry_angles(), **state["cases"][i]["params"]}

    def _outputs(self, recs, grid, ph):
        mask = _disc_mask(grid.nx, grid.ny, grid.h, grid.origin, grid.r1)
        outputs, arrays = [], []
        for name in self.pipelines:
            rec, err = recs.get(name, (None, "forward stage failed"))
            if err is not None:
                outputs.append(Output(name, error=err))
                continue
            comps = [rec.f1, rec.f2]
            arrays.extend(comps)
            outputs.append(Output(name, comps, [ph.field.f1, ph.field.f2], mask))
        return outputs, {"outputs": _sha(arrays)}


class MomentOblique(LibraryWorkload):
    name = "moment-oblique"
    nominal_case_s = 6.5
    pipelines = ("lt", "li", "tj")
    # the oblique pair of tests/conftest.py
    U_ANGLE, V_ANGLE = 0.35, 2.1

    def geometry_angles(self):
        return {"u_angle": self.U_ANGLE, "v_angle": self.V_ANGLE}

    def grid_and_geometry(self, nx):
        geom = vt.VLineGeometry(vt.direction(self.U_ANGLE),
                                vt.direction(self.V_ANGLE))
        return vt.grid_for_vline(nx, R1, geom), geom

    def run_case(self, case):
        f, geom = case["phantom"].field, case["geom"]
        t0 = time.perf_counter()
        data, err = _attempt(lambda: {
            "L": vt.forward_L(f, geom, workers=1),
            "T": vt.forward_T(f, geom, workers=1),
            "I": vt.forward_I(f, geom, workers=1),
            "J": vt.forward_J(f, geom, workers=1)})
        t1 = time.perf_counter()
        recs = {}
        if err is None:
            recs["lt"] = _attempt(vt.recover_field_LT, data["L"], data["T"], geom)
            recs["li"] = _attempt(vt.recover_field_LI, data["L"], data["I"],
                                  geom, workers=1)
            recs["tj"] = _attempt(vt.recover_field_TJ, data["T"], data["J"],
                                  geom, workers=1)
        t2 = time.perf_counter()
        outputs, fp = self._outputs(recs, case["grid"], case["phantom"])
        return CaseRun(t0, t0, t1, t2, outputs, fp)


class StarRadon(LibraryWorkload):
    name = "star-radon"
    nominal_case_s = 4.0
    pipelines = ("star",)
    # three equiangular rays with equal weights (acceptance criterion 6)
    RAY_ANGLES = (0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0)
    WEIGHTS = (1.0, 1.0, 1.0)
    N_ANGLES = 360

    def geometry_angles(self):
        return {"ray_angles": list(self.RAY_ANGLES), "weights": list(self.WEIGHTS),
                "n_angles": self.N_ANGLES}

    def grid_and_geometry(self, nx):
        sg = vt.StarGeometry(tuple(vt.direction(a) for a in self.RAY_ANGLES),
                             self.WEIGHTS)
        return vt.grid_for_star(nx, R1, sg), sg

    def run_case(self, case):
        f, sg = case["phantom"].field, case["geom"]
        t0 = time.perf_counter()
        sf, err = _attempt(vt.forward_star, f, sg, workers=1)
        t1 = time.perf_counter()
        recs = {}
        if err is None:
            recs["star"] = _attempt(vt.invert_star, sf, sg,
                                    n_angles=self.N_ANGLES)
        t2 = time.perf_counter()
        outputs, fp = self._outputs(recs, case["grid"], case["phantom"])
        return CaseRun(t0, t0, t1, t2, outputs, fp)


def _read_vlt1(path):
    """Components and r1-disc mask of a VLT1 file (format in vlinetomo.io).

    Read here rather than through vlinetomo.io, so the output check does
    not rest on the layer it checks.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    nx, ny = struct.unpack_from("<II", data, 4)
    h, ox, oy, r1, _ = struct.unpack_from("<5d", data, 12)
    (ncomp,) = struct.unpack_from("<I", data, 52)
    values = np.frombuffer(data, "<f8", offset=56).reshape(ncomp, nx, ny)
    return list(values), _disc_mask(nx, ny, h, (ox, oy), r1)


def _cli(argv):
    """Run one CLI command in process; its report lines are discarded."""
    with contextlib.redirect_stdout(_io.StringIO()):
        rc = cli.main(list(argv))
    if rc != 0:
        raise RuntimeError(f"exit code {rc}: vlinetomo {' '.join(argv)}")


class LtCli(Workload):
    """The README's CLI chain, run in process through vlinetomo.cli.main."""

    name = "lt-cli"
    nominal_case_s = 3.0
    pipelines = ("lt", "potential", "stream")
    NX, R2, THREADS = 256, 1.5, 2
    GEOMETRY = "u=1.0,0.0\nv=0.0,1.0\n"
    # pipeline -> (transform inputs, oracle file written by `phantom`)
    INVERT = {"lt": (("lf", "L"), ("tf", "T")), "potential": (("tf", "T"),),
              "stream": (("lf", "L"),)}
    ORACLE = {"lt": "field.vlt", "potential": "oracle_potential.vlt",
              "stream": "oracle_stream.vlt"}

    def setup(self, seed, n_cases, workdir):
        # `phantom --nx NX --r2 R2` builds Grid2D.centered(NX, 1, R2)
        h = 2.0 * self.R2 / (self.NX - 9)
        rng = np.random.default_rng(seed)
        # the CLI sets the first bump only; the second keeps its defaults
        cases = [{k: p[k] for k in ("center", "scale", "amplitude")}
                 for p in (_mixed_params(rng) for _ in range(n_cases))]
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        geometry = os.path.join(workdir, "geometry.txt")
        with open(geometry, "w") as fh:
            fh.write(self.GEOMETRY)
        warm = os.path.join(workdir, "warmup")
        _check_warmup(self.run_case(self._commands(warm, geometry, WARMUP_NX)))
        shutil.rmtree(warm)
        return {"workdir": os.path.join(workdir, "case"), "geometry": geometry,
                "cases": cases, "h": h}

    def case(self, state, i):
        return self._commands(state["workdir"], state["geometry"], self.NX,
                              state["cases"][i])

    def describe(self, state, i):
        return {"nx": self.NX, "h": state["h"], "r2": self.R2,
                "u_angle": 0.0, "v_angle": np.pi / 2, "kind": "mixed",
                **state["cases"][i]}

    def _commands(self, d, geometry, nx, bump=None):
        """A case's CLI commands: phantom, forward L and T, three inverts."""
        ph = os.path.join(d, "ph")
        phantom = ["phantom", "--kind", "mixed", "--nx", str(nx),
                   "--r2", repr(self.R2), "--out-dir", ph]
        if bump is not None:
            # one token: argparse would take a leading "-0.1,..." for a flag
            phantom += ["--center=%r,%r" % bump["center"],
                        "--scale", repr(bump["scale"]),
                        "--amplitude", repr(bump["amplitude"])]
        forward = [["forward", "--transform", t, "--field",
                    os.path.join(ph, "field.vlt"), "--geometry", geometry,
                    "--threads", str(self.THREADS),
                    "--out-dir", os.path.join(d, "f" + t)] for t in "LT"]
        invert = {}
        for name, inputs in self.INVERT.items():
            argv = ["invert", "--pipeline", name, "--geometry", geometry,
                    "--oracle", os.path.join(ph, self.ORACLE[name]),
                    "--out-dir", os.path.join(d, "r" + name)]
            for flag, t in inputs:
                argv += ["--" + flag, os.path.join(d, "f" + t, "transform.vlt")]
            invert[name] = argv
        return {"dir": d, "phantom": phantom, "forward": forward,
                "invert": invert}

    def run_case(self, case):
        t0 = time.perf_counter()
        _, err = _attempt(_cli, case["phantom"])
        tf = time.perf_counter()
        for argv in case["forward"]:
            if err is None:
                _, err = _attempt(_cli, argv)
        t1 = time.perf_counter()
        errors = {name: err or _attempt(_cli, argv)[1]
                  for name, argv in case["invert"].items()}
        t2 = time.perf_counter()

        outputs = []
        ph = os.path.join(case["dir"], "ph")
        for name in self.pipelines:
            if errors[name]:
                outputs.append(Output(name, error=errors[name]))
                continue
            rec, mask = _read_vlt1(os.path.join(case["dir"], "r" + name,
                                                "reconstruction.vlt"))
            ora, _ = _read_vlt1(os.path.join(ph, self.ORACLE[name]))
            outputs.append(Output(name, rec, ora, mask))
        return CaseRun(t0, tf, t1, t2, outputs, _tree_hashes(case["dir"]))


def _tree_hashes(root):
    """SHA-256 of every file under root (manifests and outputs)."""
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out


WORKLOADS = {w.name: w for w in (LtCli(), MomentOblique(), StarRadon())}
