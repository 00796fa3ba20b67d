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
import functools
import hashlib
import os
import pathlib
import sys

import numpy as np

from . import __version__
from .beam import invert_signed, signed_vline
from .errors import ConfigError, FileFormatError, VlineError
from .fields import Grid2D, ScalarField
from .io import (_components, _field, _key_values, read_star_geometry,
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
    digest, buf = hashlib.sha256(), memoryview(bytearray(1 << 16))
    with open(path, "rb") as fh:
        while n := fh.readinto(buf):
            digest.update(buf[:n])
    return path, digest.hexdigest()


def _add_noise(field, sigma, seed):
    """``field`` plus Gaussian noise of standard deviation sigma * max|field|,
    drawn once over its stacked components."""
    if sigma == 0:
        return field
    values = np.stack(_components(field))
    rng = np.random.default_rng(seed)
    scale = sigma * float(np.max(np.abs(values)))
    return _field(field.grid, values + scale * rng.standard_normal(values.shape))


def _read(path, ncomp, what):
    """The VLT1 field at ``path``; a component count other than ``ncomp``
    raises FileFormatError naming the file and ``what`` needs the count."""
    field = read_vlt1(path)
    have = len(_components(field))
    if have != ncomp:
        raise FileFormatError(f"{path}: {what} needs {ncomp} component(s), "
                              f"file has {have}")
    return field


def _geometry(args, flag, reader):
    """The geometry file that ``flag`` names, read by ``reader``."""
    path = getattr(args, flag[2:].replace("-", "_"))
    if path is None:
        raise ConfigError(f"{args.command} needs {flag}")
    return reader(path)


def _oracle(args, ncomp, grid):
    """The --oracle field; one with another component count than ``ncomp``
    or another grid than ``grid`` raises FileFormatError naming the file."""
    oracle = _read(args.oracle, ncomp, "the oracle")
    if not grid.same_layout(oracle.grid):
        raise FileFormatError(f"{args.oracle}: the oracle's grid is not the field's")
    return oracle


def _error_report(args, field, oracle):
    """Write report.txt with the relative L1/L2/Linf errors of ``field``
    against ``oracle`` (``_oracle``) on the r1 disc; print it."""
    rows, cols, rr = field.grid.disc_box()
    mask = rr <= field.grid.r1
    comps = [c[rows, cols] for c in _components(field)]
    ocomps = [c[rows, cols] for c in _components(oracle)]
    norms = (("l1", lambda a: np.sum(np.abs(a))), ("l2", np.linalg.norm),
             ("linf", lambda a: np.max(np.abs(a), initial=0.0)))
    lines = []
    for k, (rec, ora) in enumerate(zip(comps, ocomps)):
        diff, ref = (rec - ora)[mask], ora[mask]
        for name, norm in norms:
            nd, nr = float(norm(diff)), float(norm(ref))
            rel = nd / nr if nr else np.inf if nd else 0.0
            lines.append(f"component{k + 1}.rel_{name}={rel:.6e}")
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


def cmd_forward(args):
    if not 0.0 <= args.noise_sigma < np.inf:
        raise ConfigError(f"--noise-sigma must be finite and >= 0, "
                          f"got {args.noise_sigma!r}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    vline = ("--geometry", read_vline_geometry)
    # transform -> (operator, component count of its field, geometry)
    op, ncomp, geometry = {
        "L": (forward_L, 2, vline), "T": (forward_T, 2, vline),
        "I": (forward_I, 2, vline), "J": (forward_J, 2, vline),
        "signed": (signed_vline, 1, vline),
        "star": (forward_star, 2, ("--star-geometry", read_star_geometry)),
    }[args.transform]
    field = _read(args.field, ncomp, f"transform {args.transform}")
    tf = op(field, _geometry(args, *geometry))
    return [_save(args, args.out, _add_noise(tf, args.noise_sigma, args.seed))]


def cmd_invert(args):
    pipeline = args.pipeline
    # pipeline -> (reconstruction, [(input argument, component count)],
    # output component count), looked up per call so that rebinding a
    # module-level name reaches the CLI too
    fn, inputs, n_out = {
        "lt": (recover_field_LT, [("lf", 1), ("tf", 1)], 2),
        "li": (recover_field_LI, [("lf", 1), ("i_f", 1)], 2),
        "tj": (recover_field_TJ, [("tf", 1), ("jf", 1)], 2),
        "star": (invert_star, [("sf", 2)], 2),
        "curl": (recover_curl, [("lf", 1)], 1),
        "div": (recover_div, [("tf", 1)], 1),
        "stream": (recover_stream, [("lf", 1)], 1),
        "potential": (recover_potential, [("tf", 1)], 1),
        "signed": (invert_signed, [("ts", 1)], 1),
    }[pipeline]
    # every input must be named before any is read: a missing one is a
    # usage error (exit 2) even when another file is malformed
    paths = [getattr(args, name) for name, _ in inputs]
    if None in paths:
        raise ConfigError(f"pipeline {pipeline!r} is missing an input file")
    data = [_read(path, ncomp, f"pipeline {pipeline!r}")
            for path, (_, ncomp) in zip(paths, inputs)]
    # inputs on the first one's layout move onto its grid, samples uncopied,
    # so they share its cached disc box; the pipeline rejects any other
    grid = data[0].grid
    data = [type(d)._adopt(grid, *_components(d))
            if d.grid is not grid and grid.same_layout(d.grid) else d
            for d in data]
    # checked before the reconstruction (on the inputs' grid) and any write
    oracle = None if args.oracle is None else _oracle(args, n_out, grid)
    if pipeline == "star":
        result = fn(*data, _geometry(args, "--star-geometry", read_star_geometry),
                    n_angles=args.angles, guard_deg=args.guard_deg)
    else:
        result = fn(*data, _geometry(args, "--geometry", read_vline_geometry))
    outputs = [_save(args, args.out, result)]
    if oracle is not None:
        outputs.append(_error_report(args, result, oracle))
    return outputs


def cmd_radon(args):
    field = _read(args.field, 1, "radon")
    sg = radon_forward(field, args.angles, args.offsets, full=args.full)
    if args.dds:
        sg = sinogram_dds(sg)
    # the FBP runs before the first file is written, so its failure leaves none
    fbp = fbp_inverse(sg, field.grid) if args.fbp else None
    outputs = [_save(args, args.out, sg, write_vls1)]
    if fbp is not None:
        outputs.append(_save(args, "fbp.vlt", fbp))
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
    field = read_vlt1(args.field)
    oracle = _oracle(args, len(_components(field)), field.grid)
    return [_error_report(args, field, oracle)]


@functools.cache
def build_parser():
    """The argument parser, built (and each ``cmd_*`` bound) once per process."""
    # no abbreviated flags: ``_config_tokens`` finds --config by its full name
    parser = argparse.ArgumentParser(prog="vlinetomo", allow_abbrev=False,
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file (flags win)")
    common.add_argument("--out-dir", default=".", help="output directory")
    common.add_argument("--threads", type=int, default=1,
                        help="recorded in the manifest; changes no output")
    command = functools.partial(sub.add_parser, parents=[common], allow_abbrev=False)

    p = command("phantom", help="generate an analytic phantom")
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

    p = command("forward", help="apply a forward transform")
    p.add_argument("--transform", required=True,
                   choices=["L", "T", "I", "J", "star", "signed"])
    p.add_argument("--field", required=True, help="input VLT1 field")
    p.add_argument("--geometry", help="V-line geometry text file")
    p.add_argument("--star-geometry", help="star geometry text file")
    p.add_argument("--noise-sigma", type=float, default=0.0,
                   help="relative Gaussian noise level")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="transform.vlt")
    p.set_defaults(func=cmd_forward)

    p = command("invert", help="run a reconstruction pipeline")
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

    p = command("radon", help="Radon transform of a scalar field")
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

    p = command("render", help="export PGM/PPM images")
    p.add_argument("--field", required=True)
    p.add_argument("--prefix", default="render")
    p.set_defaults(func=cmd_render)

    p = command("report", help="error metrics of a field vs an oracle")
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
