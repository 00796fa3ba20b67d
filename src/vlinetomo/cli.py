"""Batch command-line front-end.

Commands: phantom, forward, invert, radon, render, report.  Every run
writes a key=value manifest recording parameters, output file hashes, and
the library version.  Options may come from a key=value config file via
--config; explicit flags win.  Exit codes: 0 success, 2 configuration
error, 3 math/geometry error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

import numpy as np

from . import __version__
from .beam import RayQuadrature, invert_signed, signed_vline
from .errors import ConfigError, FileFormatError, GeometryError, VlineError
from .fields import Grid2D, ScalarField, TransformField, VectorField
from .io import (_components, read_star_geometry, read_vline_geometry,
                 read_vlt1, write_pgm, write_ppm_direction, write_vls1,
                 write_vlt1)
from .phantoms import make_phantom
from .radon import fbp_inverse, radon_forward, sinogram_dds
from .star import forward_star, invert_star
from .vline import (forward_I, forward_J, forward_L, forward_T, recover_curl,
                    recover_div, recover_field_LI, recover_field_LT,
                    recover_field_TJ, recover_potential, recover_stream)


def _parse_pair(text):
    try:
        a, b = (float(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'x,y', got {text!r}")
    return (a, b)


# flags whose value is an 'x,y' pair, which may start with a minus sign
PAIR_FLAGS = ("--center",)


def _join_pairs(argv):
    """Join each pair-valued flag with a following token that parses as a
    pair into one ``--flag=x,y`` token, as config lines are, so that a
    negative first coordinate is not read as a flag."""
    out = []
    for tok in argv:
        if out and out[-1] in PAIR_FLAGS:
            try:
                _parse_pair(tok)
            except argparse.ArgumentTypeError:
                pass
            else:
                out[-1] = f"{out[-1]}={tok}"
                continue
        out.append(tok)
    return out


def _load_config_tokens(path):
    """Turn key=value config lines into CLI tokens (flags override them).

    Each line becomes one ``--key=value`` token, so values that start with
    a minus sign are not read as flags.
    """
    tokens = []
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise ConfigError(f"config line {line!r} is not key=value")
        key, val = key.strip(), val.strip()
        flag = "--" + key.replace("_", "-")
        if val.lower() in ("true", "false"):
            if val.lower() == "true":
                tokens.append(flag)
        else:
            tokens.append(f"{flag}={val}")
    return tokens


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out_dir, command, args, outputs):
    path = os.path.join(out_dir, "manifest.txt")
    with open(path, "w") as fh:
        fh.write(f"command={command}\n")
        fh.write(f"version={__version__}\n")
        for key in sorted(vars(args)):
            if key in ("func", "command"):
                continue
            fh.write(f"param.{key}={getattr(args, key)}\n")
        for out in sorted(outputs):
            fh.write(f"sha256.{os.path.basename(out)}={_sha256(out)}\n")
    return path


def _add_noise(values, sigma, seed):
    if sigma <= 0:
        return values
    rng = np.random.default_rng(seed)
    scale = sigma * float(np.max(np.abs(values)))
    return values + scale * rng.standard_normal(values.shape)


def _quad(args):
    step = getattr(args, "step", None)
    return None if step is None else RayQuadrature(step=step)


def _ensure_out_dir(args):
    os.makedirs(args.out_dir, exist_ok=True)
    return args.out_dir


def _error_report(out_dir, field, oracle):
    """Write report.txt with the relative L1/L2/Linf errors of ``field``
    against ``oracle`` on the r1 disc, print its lines, return its path."""
    comps, ocomps = _components(field), _components(oracle)
    if len(comps) != len(ocomps):
        raise ConfigError("field and oracle component counts differ")
    mask = field.grid.disc_mask(field.grid.r1)
    lines = []
    for k, (rec, ora) in enumerate(zip(comps, ocomps)):
        diff = (rec - ora)[mask]
        ref = ora[mask]
        nref2 = float(np.linalg.norm(ref))
        nref1 = float(np.sum(np.abs(ref)))
        nrefi = float(np.max(np.abs(ref)))
        lines.append(f"component{k + 1}.rel_l1="
                     f"{np.sum(np.abs(diff)) / nref1 if nref1 else 0.0:.6e}")
        lines.append(f"component{k + 1}.rel_l2="
                     f"{np.linalg.norm(diff) / nref2 if nref2 else 0.0:.6e}")
        lines.append(f"component{k + 1}.rel_linf="
                     f"{np.max(np.abs(diff)) / nrefi if nrefi else 0.0:.6e}")
    path = os.path.join(out_dir, "report.txt")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return path


def cmd_phantom(args):
    out_dir = _ensure_out_dir(args)
    r2 = args.r2 if args.r2 is not None else 3.0 * args.r1
    grid = Grid2D.centered(args.nx, args.r1, r2)
    ph = make_phantom(args.kind, grid, center=args.center, scale=args.scale,
                      amplitude=args.amplitude)
    outputs = []

    def save(name, obj):
        path = os.path.join(out_dir, name)
        write_vlt1(path, obj)
        outputs.append(path)

    save("field.vlt", ph.field)
    save("oracle_div.vlt", ph.div)
    save("oracle_curl.vlt", ph.curl)
    if ph.potential is not None:
        save("oracle_potential.vlt", ph.potential)
    if ph.stream is not None:
        save("oracle_stream.vlt", ph.stream)
    _write_manifest(out_dir, "phantom", args, outputs)
    return 0


def _load_vline_geometry(args):
    if args.geometry is None:
        raise ConfigError("this transform needs --geometry")
    return read_vline_geometry(args.geometry)


def _load_star_geometry(args):
    if args.star_geometry is None:
        raise ConfigError("the star transform needs --star-geometry")
    return read_star_geometry(args.star_geometry)


def cmd_forward(args):
    out_dir = _ensure_out_dir(args)
    field = read_vlt1(args.field)
    quad = _quad(args)
    name = args.transform
    if name == "star":
        sg = _load_star_geometry(args)
        if not isinstance(field, VectorField):
            raise ConfigError("star transform needs a 2-component field")
        tf = forward_star(field, sg, quad)
    elif name == "signed":
        if not isinstance(field, ScalarField):
            raise ConfigError("signed transform needs a scalar field")
        tf = signed_vline(field, _load_vline_geometry(args), quad)
    else:
        if not isinstance(field, VectorField):
            raise ConfigError(f"transform {name} needs a 2-component field")
        op = {"L": forward_L, "T": forward_T,
              "I": forward_I, "J": forward_J}[name]
        tf = op(field, _load_vline_geometry(args), quad)
    values = _add_noise(tf.values, args.noise_sigma, args.seed)
    tf = TransformField(tf.grid, values, tf.kind)
    out = os.path.join(out_dir, args.out)
    write_vlt1(out, tf)
    _write_manifest(out_dir, "forward", args, [out])
    return 0


def cmd_invert(args):
    out_dir = _ensure_out_dir(args)
    pipeline = args.pipeline
    # pipeline -> (reconstruction, [(input argument, transform kind)]), looked
    # up per call so that rebinding a module-level name reaches the CLI too
    fn, inputs = {
        "lt": (recover_field_LT, [("lf", "L"), ("tf", "T")]),
        "li": (recover_field_LI, [("lf", "L"), ("i_f", "I")]),
        "tj": (recover_field_TJ, [("tf", "T"), ("jf", "J")]),
        "star": (invert_star, [("sf", "S")]),
        "curl": (recover_curl, [("lf", "L")]),
        "div": (recover_div, [("tf", "T")]),
        "stream": (recover_stream, [("lf", "L")]),
        "potential": (recover_potential, [("tf", "T")]),
        "signed": (invert_signed, [("ts", "Ts")]),
    }[pipeline]
    # every input must be named before any is read: a missing one is a
    # usage error (exit 2) even when another file is malformed
    paths = [getattr(args, name) for name, _ in inputs]
    if None in paths:
        raise ConfigError(f"pipeline {pipeline!r} is missing an input file")
    data = [read_vlt1(path, kind=kind) for path, (_, kind) in zip(paths, inputs)]
    if pipeline == "star":
        result = fn(*data, _load_star_geometry(args), n_angles=args.angles,
                    guard_deg=args.guard_deg)
    else:
        result = fn(*data, _load_vline_geometry(args))

    out = os.path.join(out_dir, args.out)
    write_vlt1(out, result)
    outputs = [out]
    if args.oracle is not None:
        outputs.append(_error_report(out_dir, result, read_vlt1(args.oracle)))
    _write_manifest(out_dir, "invert", args, outputs)
    return 0


def cmd_radon(args):
    out_dir = _ensure_out_dir(args)
    field = read_vlt1(args.field)
    if not isinstance(field, ScalarField):
        raise ConfigError("radon expects a scalar VLT1 field")
    sg = radon_forward(field, args.angles, args.offsets, full=args.full)
    if args.dds:
        sg = sinogram_dds(sg)
    out = os.path.join(out_dir, args.out)
    write_vls1(out, sg)
    outputs = [out]
    if args.fbp:
        rec = fbp_inverse(sg, field.grid)
        fbp_out = os.path.join(out_dir, "fbp.vlt")
        write_vlt1(fbp_out, rec)
        outputs.append(fbp_out)
    _write_manifest(out_dir, "radon", args, outputs)
    return 0


def cmd_render(args):
    out_dir = _ensure_out_dir(args)
    field = read_vlt1(args.field)
    outputs = []
    if isinstance(field, ScalarField):
        out = os.path.join(out_dir, args.prefix + ".pgm")
        write_pgm(out, field.values)
        outputs.append(out)
    else:
        mag = os.path.join(out_dir, args.prefix + "_magnitude.pgm")
        write_pgm(mag, np.hypot(field.f1, field.f2))
        hsv = os.path.join(out_dir, args.prefix + "_direction.ppm")
        write_ppm_direction(hsv, field.f1, field.f2)
        outputs.extend([mag, hsv])
    _write_manifest(out_dir, "render", args, outputs)
    return 0


def cmd_report(args):
    out_dir = _ensure_out_dir(args)
    rpt = _error_report(out_dir, read_vlt1(args.field), read_vlt1(args.oracle))
    _write_manifest(out_dir, "report", args, [rpt])
    return 0


def _common(p):
    p.add_argument("--config", help="key=value config file (flags win)")
    p.add_argument("--out-dir", default=".", help="output directory")
    p.add_argument("--threads", type=int, default=1,
                   help="recorded in the manifest; changes no output")


def build_parser():
    parser = argparse.ArgumentParser(prog="vlinetomo",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="generate an analytic phantom")
    _common(p)
    p.add_argument("--kind", required=True,
                   choices=["potential", "solenoidal", "mixed"])
    p.add_argument("--nx", type=int, default=256)
    p.add_argument("--r1", type=float, default=1.0)
    p.add_argument("--r2", type=float, default=None)
    p.add_argument("--center", type=_parse_pair, default=None,
                   help="bump centre x,y")
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--amplitude", type=float, default=1.0)
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("forward", help="apply a forward transform")
    _common(p)
    p.add_argument("--transform", required=True,
                   choices=["L", "T", "I", "J", "star", "signed"])
    p.add_argument("--field", required=True, help="input VLT1 field")
    p.add_argument("--geometry", help="V-line geometry text file")
    p.add_argument("--star-geometry", help="star geometry text file")
    p.add_argument("--step", type=float, default=None,
                   help="ray quadrature step (default h/2)")
    p.add_argument("--noise-sigma", type=float, default=0.0,
                   help="relative Gaussian noise level")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="transform.vlt")
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("invert", help="run a reconstruction pipeline")
    _common(p)
    p.add_argument("--pipeline", required=True,
                   choices=["lt", "li", "tj", "star", "potential", "stream",
                            "curl", "div", "signed"])
    p.add_argument("--geometry", help="V-line geometry text file")
    p.add_argument("--star-geometry", help="star geometry text file")
    p.add_argument("--lf", help="L-transform VLT1 file")
    p.add_argument("--tf", help="T-transform VLT1 file")
    p.add_argument("--if", dest="i_f", help="I-transform VLT1 file")
    p.add_argument("--jf", help="J-transform VLT1 file")
    p.add_argument("--sf", help="star-transform VLT1 file")
    p.add_argument("--ts", help="signed-transform VLT1 file")
    p.add_argument("--oracle", help="oracle VLT1 for the error report")
    p.add_argument("--angles", type=int, default=360)
    p.add_argument("--guard-deg", type=float, default=2.0)
    p.add_argument("--out", default="reconstruction.vlt")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("radon", help="Radon transform of a scalar field")
    _common(p)
    p.add_argument("--field", required=True)
    p.add_argument("--angles", type=int, default=180)
    p.add_argument("--offsets", type=int, default=256)
    p.add_argument("--full", action="store_true",
                   help="cover the full angular circle")
    p.add_argument("--dds", action="store_true",
                   help="write the offset derivative instead")
    p.add_argument("--fbp", action="store_true",
                   help="also write the FBP reconstruction")
    p.add_argument("--out", default="sinogram.vls")
    p.set_defaults(func=cmd_radon)

    p = sub.add_parser("render", help="export PGM/PPM images")
    _common(p)
    p.add_argument("--field", required=True)
    p.add_argument("--prefix", default="render")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("report", help="error metrics of a field vs an oracle")
    _common(p)
    p.add_argument("--field", required=True)
    p.add_argument("--oracle", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    argv = _join_pairs(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        if "--config" in argv:
            k = argv.index("--config")
            if k + 1 >= len(argv):
                raise ConfigError("--config needs a file argument")
            tokens = _load_config_tokens(argv[k + 1])
            # insert after the subcommand so explicit flags override
            argv = argv[:1] + tokens + argv[1:]
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except VlineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
