"""Batch command-line front-end.

Commands: phantom, forward, invert, radon, render, report.  ``main``
creates --out-dir, runs the command, which returns the path and hash of
each file it wrote, and writes a key=value manifest recording
parameters, those hashes, and the library version.  Options may come
from a key=value config file via --config FILE or --config=FILE;
explicit flags win.  Exit codes: 0 success, otherwise the ``exit_code``
of the error raised (2 configuration error, 3 math/geometry error, 4 I/O
error).
"""

from __future__ import annotations

import argparse
import hashlib
import os
import pathlib
import sys

import numpy as np

from . import __version__
from .beam import RayQuadrature, invert_signed, signed_vline
from .errors import ConfigError, VlineError
from .fields import Grid2D, ScalarField, TransformField, VectorField
from .io import (_components, _key_values, read_star_geometry,
                 read_vline_geometry, read_vlt1, write_pgm,
                 write_ppm_direction, write_vls1, write_vlt1)
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


def _config_tokens(argv):
    """CLI tokens from the config file named by ``--config FILE`` or
    ``--config=FILE``, none without one; explicit flags override them.
    Each line becomes one ``--key=value`` token, so a value that starts
    with a minus sign is not read as a flag."""
    path = None
    for k, tok in enumerate(argv):
        if tok.startswith("--config="):
            path = tok[len("--config="):]
            break
        if tok == "--config":
            if k + 1 == len(argv):
                raise ConfigError("--config needs a file argument")
            path = argv[k + 1]
            break
    if path is None:
        return []
    tokens = []
    for line, key, val in _key_values(path, ConfigError, "config "):
        if "=" not in line:
            raise ConfigError(f"config line {line!r} is not key=value")
        flag = "--" + key.replace("_", "-")
        if val.lower() == "true":
            tokens.append(flag)
        elif val.lower() != "false":
            tokens.append(f"{flag}={val}")
    return tokens


def _write_manifest(args, saved):
    with open(os.path.join(args.out_dir, "manifest.txt"), "w") as fh:
        fh.write(f"command={args.command}\n")
        fh.write(f"version={__version__}\n")
        for key in sorted(vars(args).keys() - {"func", "command"}):
            fh.write(f"param.{key}={getattr(args, key)}\n")
        for path, digest in sorted(saved):
            fh.write(f"sha256.{os.path.basename(path)}={digest}\n")


def _save(args, name, obj, writer=None):
    """Write ``obj`` to ``name`` in --out-dir with ``writer`` (default
    ``write_vlt1``, looked up per call so that rebinding it reaches the
    CLI too); return (path, SHA-256 of the file).  Hashing here, while the
    command's arrays are held, keeps the heap from shrinking between the
    commands of an in-process chain, which would page-fault it back."""
    path = os.path.join(args.out_dir, name)
    (writer or write_vlt1)(path, obj)
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return path, digest.hexdigest()


def _add_noise(values, sigma, seed):
    if sigma <= 0:
        return values
    rng = np.random.default_rng(seed)
    scale = sigma * float(np.max(np.abs(values)))
    return values + scale * rng.standard_normal(values.shape)


def _error_report(args, field, oracle):
    """Write report.txt with the relative L1/L2/Linf errors of ``field``
    against ``oracle`` on the r1 disc and print its lines."""
    comps, ocomps = _components(field), _components(oracle)
    if len(comps) != len(ocomps):
        raise ConfigError("field and oracle component counts differ")
    mask = field.grid.disc_mask(field.grid.r1)
    norms = (("l1", lambda a: np.sum(np.abs(a))), ("l2", np.linalg.norm),
             ("linf", lambda a: np.max(np.abs(a))))
    lines = []
    for k, (rec, ora) in enumerate(zip(comps, ocomps)):
        diff, ref = (rec - ora)[mask], ora[mask]
        for name, norm in norms:
            nref = float(norm(ref))
            lines.append(f"component{k + 1}.rel_{name}="
                         f"{norm(diff) / nref if nref else 0.0:.6e}")
    saved = _save(args, "report.txt", "\n".join(lines) + "\n",
                  lambda p, text: pathlib.Path(p).write_text(text))
    print(*lines, sep="\n")
    return saved


def cmd_phantom(args):
    r2 = args.r2 if args.r2 is not None else 3.0 * args.r1
    grid = Grid2D.centered(args.nx, args.r1, r2)
    ph = make_phantom(args.kind, grid, center=args.center, scale=args.scale,
                      amplitude=args.amplitude)
    files = {"field.vlt": ph.field, "oracle_div.vlt": ph.div,
             "oracle_curl.vlt": ph.curl, "oracle_potential.vlt": ph.potential,
             "oracle_stream.vlt": ph.stream}
    return [_save(args, name, obj) for name, obj in files.items()
            if obj is not None]


def _load_vline_geometry(args):
    if args.geometry is None:
        raise ConfigError("this transform needs --geometry")
    return read_vline_geometry(args.geometry)


def _load_star_geometry(args):
    if args.star_geometry is None:
        raise ConfigError("the star transform needs --star-geometry")
    return read_star_geometry(args.star_geometry)


def cmd_forward(args):
    field = read_vlt1(args.field)
    quad = None if args.step is None else RayQuadrature(step=args.step)
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
    return [_save(args, args.out, TransformField(tf.grid, values, tf.kind))]


def cmd_invert(args):
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
    outputs = [_save(args, args.out, result)]
    if args.oracle is not None:
        outputs.append(_error_report(args, result, read_vlt1(args.oracle)))
    return outputs


def cmd_radon(args):
    field = read_vlt1(args.field)
    if not isinstance(field, ScalarField):
        raise ConfigError("radon expects a scalar VLT1 field")
    sg = radon_forward(field, args.angles, args.offsets, full=args.full)
    if args.dds:
        sg = sinogram_dds(sg)
    outputs = [_save(args, args.out, sg, write_vls1)]
    if args.fbp:
        outputs.append(_save(args, "fbp.vlt", fbp_inverse(sg, field.grid)))
    return outputs


def cmd_render(args):
    field = read_vlt1(args.field)
    if isinstance(field, ScalarField):
        return [_save(args, args.prefix + ".pgm", field.values, write_pgm)]
    return [_save(args, args.prefix + "_magnitude.pgm",
                  np.hypot(field.f1, field.f2), write_pgm),
            _save(args, args.prefix + "_direction.ppm", field,
                  lambda path, f: write_ppm_direction(path, f.f1, f.f2))]


def cmd_report(args):
    return [_error_report(args, read_vlt1(args.field), read_vlt1(args.oracle))]


def build_parser():
    parser = argparse.ArgumentParser(prog="vlinetomo",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file (flags win)")
    common.add_argument("--out-dir", default=".", help="output directory")
    common.add_argument("--threads", type=int, default=1,
                        help="recorded in the manifest; changes no output")

    p = sub.add_parser("phantom", parents=[common],
                       help="generate an analytic phantom")
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

    p = sub.add_parser("forward", parents=[common],
                       help="apply a forward transform")
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

    p = sub.add_parser("invert", parents=[common],
                       help="run a reconstruction pipeline")
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

    p = sub.add_parser("radon", parents=[common],
                       help="Radon transform of a scalar field")
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

    p = sub.add_parser("render", parents=[common],
                       help="export PGM/PPM images")
    p.add_argument("--field", required=True)
    p.add_argument("--prefix", default="render")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("report", parents=[common],
                       help="error metrics of a field vs an oracle")
    p.add_argument("--field", required=True)
    p.add_argument("--oracle", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    argv = _join_pairs(sys.argv[1:] if argv is None else argv)
    try:
        # insert after the subcommand so explicit flags override
        argv = argv[:1] + _config_tokens(argv) + argv[1:]
        args = build_parser().parse_args(argv)
        os.makedirs(args.out_dir, exist_ok=True)
        _write_manifest(args, args.func(args))
    except VlineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
