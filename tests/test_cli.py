import numpy as np
import pytest

from vlinetomo.cli import main
from vlinetomo.io import read_vlt1, write_star_geometry, write_vline_geometry
from vlinetomo.fields import VLineGeometry, direction
from vlinetomo.star import StarGeometry


@pytest.fixture
def geom_file(tmp_path):
    path = tmp_path / "geom.txt"
    write_vline_geometry(path, VLineGeometry(np.array([1.0, 0.0]),
                                             np.array([0.0, 1.0])))
    return str(path)


def _phantom(tmp_path, nx=64, kind="solenoidal"):
    out = tmp_path / "phantom"
    rc = main(["phantom", "--kind", kind, "--nx", str(nx),
               "--r1", "1.0", "--r2", "1.4142135623730951",
               "--out-dir", str(out)])
    assert rc == 0
    return out


def test_phantom_outputs_and_manifest(tmp_path):
    out = _phantom(tmp_path)
    assert (out / "field.vlt").exists()
    assert (out / "oracle_div.vlt").exists()
    assert (out / "oracle_curl.vlt").exists()
    assert (out / "oracle_stream.vlt").exists()
    manifest = (out / "manifest.txt").read_text()
    assert "command=phantom" in manifest
    assert "version=" in manifest
    assert "sha256.field.vlt=" in manifest
    field = read_vlt1(out / "field.vlt")
    assert field.grid.nx == 64


def test_forward_and_invert_curl(tmp_path, geom_file):
    ph = _phantom(tmp_path, nx=96)
    fwd = tmp_path / "fwd"
    rc = main(["forward", "--transform", "L", "--field",
               str(ph / "field.vlt"), "--geometry", geom_file,
               "--out-dir", str(fwd)])
    assert rc == 0
    inv = tmp_path / "inv"
    rc = main(["invert", "--pipeline", "curl", "--lf",
               str(fwd / "transform.vlt"), "--geometry", geom_file,
               "--oracle", str(ph / "oracle_curl.vlt"),
               "--out-dir", str(inv)])
    assert rc == 0
    report = (inv / "report.txt").read_text()
    rel = float(report.split("component1.rel_l2=")[1].splitlines()[0])
    assert rel <= 0.10


def test_forward_seeded_noise_reproducible(tmp_path, geom_file):
    ph = _phantom(tmp_path)
    outs = []
    for name in ("a", "b"):
        d = tmp_path / name
        rc = main(["forward", "--transform", "L", "--field",
                   str(ph / "field.vlt"), "--geometry", geom_file,
                   "--noise-sigma", "0.05", "--seed", "7",
                   "--out-dir", str(d)])
        assert rc == 0
        outs.append((d / "transform.vlt").read_bytes())
    assert outs[0] == outs[1]


def test_forward_noise_statistics(tmp_path, geom_file):
    ph = _phantom(tmp_path, nx=96)
    clean_dir, noisy_dir = tmp_path / "clean", tmp_path / "noisy"
    for d, sigma in ((clean_dir, "0"), (noisy_dir, "0.1")):
        rc = main(["forward", "--transform", "L", "--field",
                   str(ph / "field.vlt"), "--geometry", geom_file,
                   "--noise-sigma", sigma, "--seed", "11",
                   "--out-dir", str(d)])
        assert rc == 0
    clean = read_vlt1(clean_dir / "transform.vlt", kind="L").values
    noisy = read_vlt1(noisy_dir / "transform.vlt", kind="L").values
    expected = 0.1 * np.abs(clean).max()
    assert np.std(noisy - clean) == pytest.approx(expected, rel=0.05)


def test_threads_do_not_change_output(tmp_path, geom_file):
    ph = _phantom(tmp_path)
    outs = []
    for name, threads in (("t1", "1"), ("t4", "4")):
        d = tmp_path / name
        rc = main(["forward", "--transform", "T", "--field",
                   str(ph / "field.vlt"), "--geometry", geom_file,
                   "--threads", threads, "--out-dir", str(d)])
        assert rc == 0
        outs.append((d / "transform.vlt").read_bytes())
    assert outs[0] == outs[1]


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind=solenoidal\nnx=32\nr1=1.0\nr2=2.0\n")
    out1 = tmp_path / "from-config"
    rc = main(["phantom", "--config", str(cfg), "--out-dir", str(out1)])
    assert rc == 0
    assert read_vlt1(out1 / "field.vlt").grid.nx == 32
    out2 = tmp_path / "flag-wins"
    rc = main(["phantom", "--config", str(cfg), "--nx", "48",
               "--out-dir", str(out2)])
    assert rc == 0
    assert read_vlt1(out2 / "field.vlt").grid.nx == 48


def test_config_file_negative_pair(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind=solenoidal\nnx=32\nr2=2.0\nscale=0.5\n"
                   "center=-0.1,0.2\n")
    from_config = tmp_path / "from-config"
    rc = main(["phantom", "--config", str(cfg), "--out-dir", str(from_config)])
    assert rc == 0
    from_flags = tmp_path / "from-flags"
    rc = main(["phantom", "--kind", "solenoidal", "--nx", "32", "--r2", "2.0",
               "--scale", "0.5", "--center=-0.1,0.2",
               "--out-dir", str(from_flags)])
    assert rc == 0
    assert ((from_config / "field.vlt").read_bytes()
            == (from_flags / "field.vlt").read_bytes())


def test_negative_center_pair_as_own_token(tmp_path):
    # "--center -0.1,0.2" reads as "--center=-0.1,0.2", not as two flags
    outs = []
    for center in (["--center", "-0.1,0.2"], ["--center=-0.1,0.2"]):
        out = tmp_path / f"run{len(outs)}"
        rc = main(["phantom", "--kind", "mixed", "--nx", "32", *center,
                   "--out-dir", str(out)])
        assert rc == 0
        outs.append((out / "field.vlt").read_bytes())
    assert outs[0] == outs[1]


def _star_file(tmp_path, sg):
    path = tmp_path / "star.txt"
    write_star_geometry(path, sg)
    return str(path)


def test_invert_symmetric_star_exit_code(tmp_path):
    ph = _phantom(tmp_path, nx=48)
    symmetric = StarGeometry((direction(0.0), direction(np.pi)), (2.0, -2.0))
    rc = main(["invert", "--pipeline", "star",
               "--sf", str(ph / "field.vlt"),
               "--star-geometry", _star_file(tmp_path, symmetric),
               "--out-dir", str(tmp_path / "x")])
    assert rc == 3


def test_invert_star_nonpositive_guard_exit_code(tmp_path):
    ph = _phantom(tmp_path, nx=48)
    star = StarGeometry(tuple(direction(a) for a in (0.0, 2.1, 4.2)),
                        (1.0, 1.0, 1.0))
    rc = main(["invert", "--pipeline", "star", "--guard-deg", "0",
               "--sf", str(ph / "field.vlt"),
               "--star-geometry", _star_file(tmp_path, star),
               "--out-dir", str(tmp_path / "x")])
    assert rc == 2


INVERT_INPUTS = {"lt": ("--lf", "--tf"), "li": ("--lf", "--if"),
                 "tj": ("--tf", "--jf"), "star": ("--sf",),
                 "curl": ("--lf",), "div": ("--tf",), "stream": ("--lf",),
                 "potential": ("--tf",), "signed": ("--ts",)}


@pytest.mark.parametrize("pipeline,missing", [
    (p, flag) for p, flags in INVERT_INPUTS.items() for flag in flags])
def test_invert_missing_input_exit_code(tmp_path, geom_file, capsys,
                                        pipeline, missing):
    ph = _phantom(tmp_path, nx=48)
    star = StarGeometry(tuple(direction(a) for a in (0.0, 2.1, 4.2)),
                        (1.0, 1.0, 1.0))
    argv = ["invert", "--pipeline", pipeline, "--geometry", geom_file,
            "--star-geometry", _star_file(tmp_path, star),
            "--out-dir", str(tmp_path / "x")]
    for flag in INVERT_INPUTS[pipeline]:
        if flag != missing:
            argv += [flag, str(ph / "field.vlt")]
    assert main(argv) == 2
    assert "missing an input file" in capsys.readouterr().err


@pytest.mark.parametrize("pipeline,flag,name", [
    ("curl", "--lf", "field.vlt"), ("signed", "--ts", "field.vlt"),
    ("star", "--sf", "oracle_div.vlt")])
def test_invert_wrong_component_count_exit_code(tmp_path, geom_file, pipeline,
                                                flag, name):
    # L/T/I/J/Ts data has one component and star data two
    ph = _phantom(tmp_path, nx=48)
    star = StarGeometry(tuple(direction(a) for a in (0.0, 2.1, 4.2)),
                        (1.0, 1.0, 1.0))
    rc = main(["invert", "--pipeline", pipeline, flag, str(ph / name),
               "--geometry", geom_file,
               "--star-geometry", _star_file(tmp_path, star),
               "--out-dir", str(tmp_path / "x")])
    assert rc == 4


def test_radon_command_with_fbp(tmp_path):
    ph = _phantom(tmp_path, nx=96, kind="potential")
    out = tmp_path / "radon"
    rc = main(["radon", "--field", str(ph / "oracle_potential.vlt"),
               "--angles", "90", "--offsets", "96", "--fbp",
               "--out-dir", str(out)])
    assert rc == 0
    assert (out / "sinogram.vls").exists()
    rec = read_vlt1(out / "fbp.vlt")
    oracle = read_vlt1(ph / "oracle_potential.vlt")
    mask = rec.grid.disc_mask(rec.grid.r1)
    err = np.linalg.norm((rec.values - oracle.values)[mask])
    assert err <= 0.05 * np.linalg.norm(oracle.values[mask])


def test_render_scalar_and_vector(tmp_path):
    ph = _phantom(tmp_path, nx=48, kind="potential")
    out = tmp_path / "render"
    rc = main(["render", "--field", str(ph / "field.vlt"),
               "--prefix", "f", "--out-dir", str(out)])
    assert rc == 0
    assert (out / "f_magnitude.pgm").exists()
    assert (out / "f_direction.ppm").exists()
    rc = main(["render", "--field", str(ph / "oracle_potential.vlt"),
               "--prefix", "p", "--out-dir", str(out)])
    assert rc == 0
    assert (out / "p.pgm").exists()


def test_report_command(tmp_path, capsys):
    ph = _phantom(tmp_path, nx=48)
    out = tmp_path / "report"
    rc = main(["report", "--field", str(ph / "field.vlt"),
               "--oracle", str(ph / "field.vlt"), "--out-dir", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "component1.rel_l2=0.000000e+00" in text
    assert "component2.rel_l2=0.000000e+00" in text


def test_exit_code_config_error(tmp_path):
    ph = _phantom(tmp_path, nx=48)
    rc = main(["forward", "--transform", "L", "--field",
               str(ph / "field.vlt"), "--out-dir", str(tmp_path / "x")])
    assert rc == 2  # missing --geometry


def test_exit_code_geometry_error(tmp_path):
    ph = _phantom(tmp_path, nx=48)
    bad = tmp_path / "bad_geom.txt"
    bad.write_text("u=1,0\nv=1,0\n")  # parallel directions
    rc = main(["forward", "--transform", "L", "--field",
               str(ph / "field.vlt"), "--geometry", str(bad),
               "--out-dir", str(tmp_path / "x")])
    assert rc == 3


def test_exit_code_file_error(tmp_path, geom_file):
    garbage = tmp_path / "garbage.vlt"
    garbage.write_bytes(b"not a field")
    rc = main(["forward", "--transform", "L", "--field", str(garbage),
               "--geometry", geom_file, "--out-dir", str(tmp_path / "x")])
    assert rc == 4


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    from vlinetomo import __version__
    assert __version__ in capsys.readouterr().out


def test_invert_signed_tight_grid_exit_code(tmp_path, geom_file):
    # a VLT1 header whose grid edge lies half a cell beyond r2: the grid
    # is valid, but the strip ring r2 + 2h falls outside its square
    import struct
    nx, r1, r2 = 48, 1.0, 1.4142135623730951
    h = r2 / 23.0
    path = tmp_path / "tight.vlt"
    path.write_bytes(b"VLT1" + struct.pack("<II", nx, nx)
                     + struct.pack("<5d", h, -23.5 * h, -23.5 * h, r1, r2)
                     + struct.pack("<I", 1) + bytes(8 * nx * nx))
    rc = main(["invert", "--pipeline", "signed", "--ts", str(path),
               "--geometry", geom_file, "--out-dir", str(tmp_path / "x")])
    assert rc == 3


def test_config_equals_spelling(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind=solenoidal\nnx=32\nr2=2.0\n")
    outs = []
    for spelling in (["--config", str(cfg)], [f"--config={cfg}"]):
        out = tmp_path / f"run{len(outs)}"
        assert main(["phantom", *spelling, "--out-dir", str(out)]) == 0
        outs.append((out / "field.vlt").read_bytes())
    assert outs[0] == outs[1]
    assert read_vlt1(tmp_path / "run1" / "field.vlt").grid.nx == 32


def test_config_skips_blank_and_comment_lines(tmp_path):
    plain, noisy = tmp_path / "plain.cfg", tmp_path / "noisy.cfg"
    plain.write_text("kind=solenoidal\nnx=32\nr2=2.0\n")
    noisy.write_text("# phantom\n\nkind=solenoidal\n   \n# grid\nnx=32\n"
                     "r2=2.0\n\n")
    outs = []
    for cfg in (plain, noisy):
        out = tmp_path / cfg.stem
        assert main(["phantom", "--config", str(cfg),
                     "--out-dir", str(out)]) == 0
        outs.append((out / "field.vlt").read_bytes())
    assert outs[0] == outs[1]


def test_unreadable_config_and_geometry_exit_codes(tmp_path, capsys):
    missing = str(tmp_path / "missing.txt")
    rc = main(["phantom", "--kind", "mixed", "--config", missing,
               "--out-dir", str(tmp_path / "a")])
    assert rc == 2
    assert "cannot read config" in capsys.readouterr().err
    ph = _phantom(tmp_path, nx=48)
    for flag, transform in (("--geometry", "L"), ("--star-geometry", "star")):
        rc = main(["forward", "--transform", transform,
                   "--field", str(ph / "field.vlt"), flag, missing,
                   "--out-dir", str(tmp_path / "b")])
        assert rc == 4


def _manifest_hashes(out):
    """name -> hash of every sha256.* line of out/manifest.txt."""
    lines = (out / "manifest.txt").read_text().splitlines()
    return dict(line[len("sha256."):].split("=", 1) for line in lines
                if line.startswith("sha256."))


def test_manifest_names_every_output(tmp_path, geom_file):
    # every subcommand: the manifest hashes exactly the files it wrote
    import hashlib
    ph = _phantom(tmp_path, nx=48, kind="mixed")
    d = str(tmp_path)
    commands = {
        "forward": ["forward", "--transform", "L", "--field",
                    f"{ph}/field.vlt", "--geometry", geom_file],
        "invert": ["invert", "--pipeline", "curl", "--lf",
                   f"{d}/forward/transform.vlt", "--geometry", geom_file,
                   "--oracle", f"{ph}/oracle_curl.vlt"],
        "radon": ["radon", "--field", f"{ph}/oracle_div.vlt", "--angles",
                  "32", "--offsets", "48", "--fbp"],
        "render": ["render", "--field", f"{ph}/field.vlt"],
        "report": ["report", "--field", f"{ph}/field.vlt",
                   "--oracle", f"{ph}/field.vlt"],
    }
    for name, argv in commands.items():
        assert main(argv + ["--out-dir", f"{d}/{name}"]) == 0, name
    for out in [ph] + [tmp_path / name for name in commands]:
        written = {p.name for p in out.iterdir()} - {"manifest.txt"}
        hashes = _manifest_hashes(out)
        assert set(hashes) == written, out.name
        for name, digest in hashes.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_module_exit_status(tmp_path, geom_file):
    # `python -m vlinetomo.cli` turns main's return value into the process
    # exit status
    import os
    import subprocess
    import sys
    import vlinetomo
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(vlinetomo.__file__)))
    cases = [
        (0, ["phantom", "--kind", "potential", "--nx", "32"]),
        (2, ["phantom", "--kind", "potential", "--config",
             str(tmp_path / "missing.cfg")]),
        (4, ["forward", "--transform", "L", "--geometry", geom_file,
             "--field", str(tmp_path / "missing.vlt")]),
    ]
    for code, argv in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "vlinetomo.cli", *argv,
             "--out-dir", str(tmp_path / "out")],
            env=env, capture_output=True, text=True)
        assert proc.returncode == code, proc.stderr
