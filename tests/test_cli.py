import struct

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


@pytest.mark.parametrize("flag", [["--scale", "nan"], ["--center=nan,0"]],
                         ids=["scale", "center"])
def test_phantom_non_finite_support_exits_2(tmp_path, flag):
    # a NaN scale or center once wrote all-zero fields and oracles, exit 0
    out = tmp_path / "phantom"
    assert main(["phantom", "--kind", "potential", "--nx", "32", *flag,
                 "--out-dir", str(out)]) == 2
    assert not (out / "field.vlt").exists()


@pytest.mark.parametrize("amplitude", ["inf", "nan"])
def test_phantom_non_finite_amplitude_exits_2(tmp_path, capsys, amplitude):
    # inf once warned from the bump arithmetic and both failed late, on the
    # finished field's non-finite samples
    out = tmp_path / "phantom"
    assert main(["phantom", "--kind", "mixed", "--nx", "32", "--amplitude", amplitude,
                 "--out-dir", str(out)]) == 2
    assert "amplitude must be finite" in capsys.readouterr().err
    assert not (out / "field.vlt").exists()


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
    clean = read_vlt1(clean_dir / "transform.vlt").values
    noisy = read_vlt1(noisy_dir / "transform.vlt").values
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


def test_forward_star_noise_is_one_joint_draw(tmp_path):
    # one standard-normal draw over both stacked components, scaled by the
    # largest |sample| of either component
    ph = _phantom(tmp_path)
    star = StarGeometry(tuple(direction(a) for a in (0.0, 2.1, 4.2)),
                        (1.0, 1.0, 1.0))
    data = {}
    for name, sigma in (("clean", "0"), ("noisy", "0.01")):
        rc = main(["forward", "--transform", "star",
                   "--field", str(ph / "field.vlt"),
                   "--star-geometry", _star_file(tmp_path, star),
                   "--noise-sigma", sigma, "--seed", "5",
                   "--out-dir", str(tmp_path / name)])
        assert rc == 0
        sf = read_vlt1(tmp_path / name / "transform.vlt")
        data[name] = np.stack([sf.f1, sf.f2])
    clean = data["clean"]
    noise = np.random.default_rng(5).standard_normal(clean.shape)
    assert np.array_equal(data["noisy"],
                          clean + 0.01 * np.abs(clean).max() * noise)


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


def test_invert_wrong_component_count_names_the_file(tmp_path, capsys):
    ph = _phantom(tmp_path, nx=48)
    star = StarGeometry(tuple(direction(a) for a in (0.0, 2.1, 4.2)),
                        (1.0, 1.0, 1.0))
    one = str(ph / "oracle_div.vlt")
    rc = main(["invert", "--pipeline", "star", "--sf", one,
               "--star-geometry", _star_file(tmp_path, star),
               "--out-dir", str(tmp_path / "x")])
    assert rc == 4
    assert one in capsys.readouterr().err


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


def test_report_against_a_zero_oracle(tmp_path, geom_file):
    # a solenoidal field has div 0: the reconstruction's error against that
    # oracle is infinite unless the reconstruction is 0 too
    ph = _phantom(tmp_path, nx=64)
    fwd, inv = tmp_path / "fwd", tmp_path / "inv"
    assert main(["forward", "--transform", "T", "--field",
                 str(ph / "field.vlt"), "--geometry", geom_file,
                 "--out-dir", str(fwd)]) == 0
    assert main(["invert", "--pipeline", "div", "--tf",
                 str(fwd / "transform.vlt"), "--geometry", geom_file,
                 "--oracle", str(ph / "oracle_div.vlt"),
                 "--out-dir", str(inv)]) == 0
    assert np.abs(read_vlt1(ph / "oracle_div.vlt").values).max() == 0.0
    assert np.abs(read_vlt1(inv / "reconstruction.vlt").values).max() > 0.0
    report = (inv / "report.txt").read_text()
    for name in ("l1", "l2", "linf"):
        assert f"component1.rel_{name}=inf\n" in report
    out = tmp_path / "zero"
    assert main(["report", "--field", str(ph / "oracle_div.vlt"), "--oracle",
                 str(ph / "oracle_div.vlt"), "--out-dir", str(out)]) == 0
    assert "component1.rel_l2=0.000000e+00" in (out / "report.txt").read_text()


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


@pytest.mark.parametrize("flag,text", [
    ("--geometry", "u=nan,0\nv=0,1\n"),
    ("--star-geometry", "ray=nan,0,1\nray=0,1,1\n"),
    ("--star-geometry", "ray=1,0,nan\nray=0,1,1\n")],
    ids=["vline-u", "star-ray", "star-weight"])
def test_non_finite_geometry_exit_code(tmp_path, capsys, flag, text):
    # a malformed geometry file, not the field, is named
    ph = _phantom(tmp_path, nx=48)
    bad = tmp_path / "bad_geom.txt"
    bad.write_text(text)
    rc = main(["forward", "--transform", "L" if flag == "--geometry" else
               "star", "--field", str(ph / "field.vlt"), flag, str(bad),
               "--out-dir", str(tmp_path / "x")])
    assert rc == 4
    assert str(bad) in capsys.readouterr().err


@pytest.mark.parametrize("sigma", ["-1", "nan", "inf"])
def test_invalid_noise_sigma_exits_2_before_reading_input(
        tmp_path, geom_file, capsys, monkeypatch, sigma):
    import vlinetomo.cli as cli
    ph = _phantom(tmp_path, nx=48)
    monkeypatch.setattr(cli, "read_vlt1",
                        lambda *a, **k: pytest.fail("an input was read"))
    out = tmp_path / "fwd"
    rc = main(["forward", "--transform", "L", "--field", str(ph / "field.vlt"),
               "--geometry", geom_file, "--noise-sigma", sigma,
               "--out-dir", str(out)])
    assert rc == 2
    assert "--noise-sigma" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_negative_seed_exits_2_before_reading_input(tmp_path, geom_file, capsys,
                                                    monkeypatch):
    # numpy's default_rng raised a bare ValueError for it: exit 1, traceback
    import vlinetomo.cli as cli
    ph = _phantom(tmp_path, nx=48)
    monkeypatch.setattr(cli, "read_vlt1",
                        lambda *a, **k: pytest.fail("an input was read"))
    out = tmp_path / "fwd"
    rc = main(["forward", "--transform", "L", "--field", str(ph / "field.vlt"),
               "--geometry", geom_file, "--noise-sigma", "0.1", "--seed", "-1",
               "--out-dir", str(out)])
    assert rc == 2
    assert "--seed" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    from vlinetomo import __version__
    assert __version__ in capsys.readouterr().out


def _tight_field(tmp_path, ncomp):
    # a VLT1 header whose grid edge lies half a cell beyond r2: the grid
    # is valid, but the strip ring r2 + 2h falls outside its square
    import struct
    nx, r1, r2 = 48, 1.0, 1.4142135623730951
    h = r2 / 23.0
    path = tmp_path / "tight.vlt"
    path.write_bytes(b"VLT1" + struct.pack("<II", nx, nx)
                     + struct.pack("<5d", h, -23.5 * h, -23.5 * h, r1, r2)
                     + struct.pack("<I", ncomp) + bytes(8 * ncomp * nx * nx))
    return str(path)


def test_invert_signed_tight_grid_exit_code(tmp_path, geom_file):
    # the signed inversion reads nothing beyond the r1 disc
    rc = main(["invert", "--pipeline", "signed",
               "--ts", _tight_field(tmp_path, 1), "--geometry", geom_file,
               "--out-dir", str(tmp_path / "x")])
    assert rc == 0


def test_invert_star_tight_grid_exit_code(tmp_path, capsys):
    # the star inversion reads the strip ring, which the square misses
    star = StarGeometry((direction(0.0), direction(np.pi / 2)), (1.0, 1.0))
    rc = main(["invert", "--pipeline", "star",
               "--sf", _tight_field(tmp_path, 2),
               "--star-geometry", _star_file(tmp_path, star),
               "--out-dir", str(tmp_path / "x")])
    assert rc == 3
    assert "chord disc" in capsys.readouterr().err


def test_star_forward_accepts_and_inversion_rejects_r2_below_bound(tmp_path):
    # rays 0 and 0.9 rad apart need r2 >= 2.30; the phantom's r2 is sqrt(2)
    ph = _phantom(tmp_path, nx=48)
    star = _star_file(tmp_path, StarGeometry(
        tuple(direction(a) for a in (0.0, 0.9, 3.5)), (1.0, 1.0, 1.0)))
    fs = tmp_path / "fs"
    assert main(["forward", "--transform", "star", "--field",
                 str(ph / "field.vlt"), "--star-geometry", star,
                 "--out-dir", str(fs)]) == 0
    bad = tmp_path / "bad"
    assert main(["invert", "--pipeline", "star", "--sf",
                 str(fs / "transform.vlt"), "--star-geometry", star,
                 "--out-dir", str(bad)]) == 3
    assert not any(bad.iterdir())


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


def test_abbreviated_config_flag_is_rejected(tmp_path):
    # argparse would take --conf for --config, but the file would go unread
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nx=32\n")
    out = tmp_path / "ab"
    with pytest.raises(SystemExit) as exc:
        main(["phantom", "--conf", str(cfg), "--kind", "mixed",
              "--out-dir", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_step_flag_exits_2_before_reading_input(tmp_path, geom_file,
                                                monkeypatch):
    # the beam step is h/2, fixed by the grid: a caller-set step, however
    # small, is a usage error and allocates nothing
    import vlinetomo.cli as cli
    ph = _phantom(tmp_path, nx=64)
    monkeypatch.setattr(cli, "read_vlt1",
                        lambda *a, **k: pytest.fail("an input was read"))
    out = tmp_path / "fwd"
    with pytest.raises(SystemExit) as exc:
        main(["forward", "--transform", "L", "--field", str(ph / "field.vlt"),
              "--geometry", geom_file, "--step", "1e-9", "--out-dir", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_parser_is_built_once():
    from vlinetomo.cli import build_parser
    assert build_parser() is build_parser()


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


def test_import_loads_no_scipy():
    # the library and its CLI run on numpy alone; only the tests use scipy
    import os
    import subprocess
    import sys
    import vlinetomo
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(vlinetomo.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", "import vlinetomo, vlinetomo.cli, sys; "
         "assert 'scipy' not in sys.modules, 'scipy imported'"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


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


@pytest.mark.parametrize("command,flag,name", [
    (["forward", "--transform", "L"], "--field", "oracle_div.vlt"),
    (["forward", "--transform", "signed"], "--field", "field.vlt"),
    (["forward", "--transform", "star"], "--field", "oracle_div.vlt"),
    (["radon"], "--field", "field.vlt"),
    (["report", "--field", "FIELD"], "--oracle", "oracle_div.vlt"),
    (["invert", "--pipeline", "curl", "--lf", "DIV"], "--oracle", "field.vlt")],
    ids=["forward-L", "forward-signed", "forward-star", "radon", "report",
         "invert-oracle"])
def test_wrong_component_count_exits_4_naming_the_file(
        tmp_path, geom_file, capsys, command, flag, name):
    # every command reads its fields through one rule: a field with another
    # component count than the command needs is a malformed input file
    ph = _phantom(tmp_path, nx=48)
    star = StarGeometry(tuple(direction(a) for a in (0.0, 2.1, 4.2)),
                        (1.0, 1.0, 1.0))
    subst = {"FIELD": str(ph / "field.vlt"), "DIV": str(ph / "oracle_div.vlt")}
    bad = str(ph / name)
    argv = [subst.get(tok, tok) for tok in command] + [flag, bad]
    if command[0] == "forward":
        argv += ["--geometry", geom_file,
                 "--star-geometry", _star_file(tmp_path, star)]
    elif command[0] == "invert":
        argv += ["--geometry", geom_file]
    out = tmp_path / "x"
    assert main(argv + ["--out-dir", str(out)]) == 4
    assert bad in capsys.readouterr().err
    assert not (out / "manifest.txt").exists()


@pytest.mark.parametrize("command", [
    ["invert", "--pipeline", "curl", "--lf"], ["render", "--field"]],
    ids=["invert", "render"])
def test_non_finite_grid_header_exits_4_naming_the_file(
        tmp_path, geom_file, capsys, command):
    # h = inf, nx = ny = 32, origin (-1, -1), r1 0.5, r2 0.9, zero samples
    path = tmp_path / "inf.vlt"
    header = struct.pack("<4sII5dI", b"VLT1", 32, 32, np.inf, -1.0, -1.0,
                         0.5, 0.9, 1)
    path.write_bytes(header + bytes(8 * 32 * 32))
    argv = command + [str(path), "--out-dir", str(tmp_path / "x")]
    if command[0] == "invert":
        argv += ["--geometry", geom_file]
    assert main(argv) == 4
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_samples_exit_4_naming_the_file(tmp_path, geom_file, capsys,
                                                   bad):
    # a NaN or an infinity among the samples makes the file malformed
    path = tmp_path / "bad.vlt"
    samples = np.zeros(32 * 32)
    samples[100] = bad
    path.write_bytes(struct.pack("<4sII5dI", b"VLT1", 32, 32, 1 / 16, -1.0,
                                 -1.0, 0.5, 0.9, 1) + samples.tobytes())
    out = tmp_path / "x"
    assert main(["invert", "--pipeline", "curl", "--lf", str(path),
                 "--geometry", geom_file, "--out-dir", str(out)]) == 4
    err = capsys.readouterr().err
    assert str(path) in err and "non-finite" in err
    assert list(out.iterdir()) == []


def test_invert_inputs_share_the_first_inputs_grid(tmp_path, geom_file,
                                                   monkeypatch):
    # the L and T files are read onto one grid, whose disc box is built
    # once; the reconstruction and its report are those of inputs read
    # onto a grid each
    import vlinetomo.cli as cli
    from vlinetomo.io import read_vline_geometry, write_vlt1
    from vlinetomo.vline import recover_field_LT
    ph = _phantom(tmp_path, nx=48, kind="mixed")
    inputs = {}
    for t in "LT":
        assert main(["forward", "--transform", t, "--field", str(ph / "field.vlt"),
                     "--geometry", geom_file, "--out-dir", str(tmp_path / t)]) == 0
        inputs[t] = str(tmp_path / t / "transform.vlt")
    grids = []

    def spy(lf, tf, geom):
        grids.append((lf.grid, tf.grid))
        return recover_field_LT(lf, tf, geom)

    monkeypatch.setattr(cli, "recover_field_LT", spy)
    rec = tmp_path / "rec"
    assert main(["invert", "--pipeline", "lt", "--lf", inputs["L"], "--tf",
                 inputs["T"], "--geometry", geom_file, "--oracle",
                 str(ph / "field.vlt"), "--out-dir", str(rec)]) == 0
    [(lf_grid, tf_grid)] = grids
    assert lf_grid is tf_grid
    lf, tf = read_vlt1(inputs["L"]), read_vlt1(inputs["T"])
    assert lf.grid is not tf.grid
    write_vlt1(tmp_path / "own.vlt", recover_field_LT(
        lf, tf, read_vline_geometry(geom_file)))
    assert ((rec / "reconstruction.vlt").read_bytes()
            == (tmp_path / "own.vlt").read_bytes())
    assert main(["report", "--field", str(tmp_path / "own.vlt"), "--oracle",
                 str(ph / "field.vlt"), "--out-dir", str(tmp_path / "rep")]) == 0
    assert ((rec / "report.txt").read_bytes()
            == (tmp_path / "rep" / "report.txt").read_bytes())


REPORT = ["report", "--field", "FIELD"]
INVERT = ["invert", "--pipeline", "curl", "--lf", "DIV", "--geometry", "GEOM"]


# the other grid has another nx, or only another r1
@pytest.mark.parametrize("command,nx,r1", [
    (REPORT, "40", "1.0"), (INVERT, "40", "1.0"),
    (REPORT, "48", "0.8"), (INVERT, "48", "0.8")],
    ids=["report", "invert", "report-r1", "invert-r1"])
def test_oracle_on_another_grid_exits_4_naming_the_file(
        tmp_path, geom_file, capsys, command, nx, r1):
    ph = _phantom(tmp_path, nx=48)
    other = tmp_path / "other"
    assert main(["phantom", "--kind", "solenoidal", "--nx", nx, "--r1",
                 r1, "--r2", "1.4142135623730951", "--out-dir",
                 str(other)]) == 0
    subst = {"FIELD": str(ph / "oracle_curl.vlt"),
             "DIV": str(ph / "oracle_div.vlt"), "GEOM": geom_file}
    bad = str(other / "oracle_curl.vlt")
    argv = [subst.get(tok, tok) for tok in command]
    assert main(argv + ["--oracle", bad, "--out-dir", str(tmp_path / "x")]) == 4
    assert bad in capsys.readouterr().err


@pytest.mark.parametrize("argv,code", [
    (["radon", "--field", "DIV", "--angles", "8", "--fbp"], 2),
    (["invert", "--pipeline", "curl", "--lf", "DIV", "--geometry", "GEOM",
      "--oracle", "MISSING"], 4),
    (["invert", "--pipeline", "curl", "--lf", "DIV", "--geometry", "GEOM",
      "--oracle", "FIELD"], 4)],
    ids=["radon-fbp", "invert-missing-oracle", "invert-2-component-oracle"])
def test_failing_command_writes_no_file(tmp_path, geom_file, argv, code):
    # a command checks and computes everything before its first write, so
    # a failure leaves no output without a manifest
    ph = _phantom(tmp_path, nx=32)
    subst = {"DIV": str(ph / "oracle_div.vlt"), "FIELD": str(ph / "field.vlt"),
             "GEOM": geom_file, "MISSING": str(tmp_path / "missing.vlt")}
    out = tmp_path / "out"
    assert main([subst.get(tok, tok) for tok in argv]
                + ["--out-dir", str(out)]) == code
    assert list(out.iterdir()) == []


# pipeline -> (its reconstruction in the CLI, input flag, input file, an
# oracle file with the wrong component count, one with the right count)
ORACLE_CASES = {
    "curl": ("recover_curl", "--lf", "oracle_div.vlt", "field.vlt",
             "oracle_curl.vlt"),
    "star": ("invert_star", "--sf", "field.vlt", "oracle_curl.vlt",
             "field.vlt"),
}


@pytest.mark.parametrize("pipeline", sorted(ORACLE_CASES))
@pytest.mark.parametrize("oracle", ["missing", "components", "grid"])
def test_invert_checks_the_oracle_before_the_reconstruction(
        tmp_path, geom_file, capsys, monkeypatch, pipeline, oracle):
    # a missing oracle, or one on which the reconstruction could not be
    # scored, exits 4 before the reconstruction runs
    import vlinetomo.cli as cli
    name, flag, data, wrong, right = ORACLE_CASES[pipeline]
    monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("it ran"))
    ph = _phantom(tmp_path, nx=32)
    other = tmp_path / "other"
    assert main(["phantom", "--kind", "solenoidal", "--nx", "40", "--r1",
                 "1.0", "--r2", "1.4142135623730951", "--out-dir",
                 str(other)]) == 0
    star = StarGeometry(tuple(direction(a) for a in (0.0, 2.1, 4.2)),
                        (1.0, 1.0, 1.0))
    bad = {"missing": str(tmp_path / "missing.vlt"),
           "components": str(ph / wrong), "grid": str(other / right)}[oracle]
    out = tmp_path / "out"
    assert main(["invert", "--pipeline", pipeline, flag, str(ph / data),
                 "--geometry", geom_file,
                 "--star-geometry", _star_file(tmp_path, star),
                 "--oracle", bad, "--out-dir", str(out)]) == 4
    assert bad in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_grid_without_disc_samples_runs_every_command(tmp_path, geom_file):
    # no sample lies within r1 = 0.5 of the centre: the forward, the curl
    # inversion and both error reports exit 0, and every output is zero
    from vlinetomo.fields import Grid2D, ScalarField, VectorField
    from vlinetomo.io import write_vlt1
    grid = Grid2D(16, 16, 1.0, (-7.5, -7.5), 0.5, 1.0)
    ones = np.ones((16, 16))
    field, scalar = tmp_path / "field.vlt", tmp_path / "scalar.vlt"
    write_vlt1(field, VectorField(grid, ones, ones))
    write_vlt1(scalar, ScalarField(grid, ones))
    fwd, inv, rep = tmp_path / "fwd", tmp_path / "inv", tmp_path / "rep"
    assert main(["forward", "--transform", "L", "--field", str(field),
                 "--geometry", geom_file, "--out-dir", str(fwd)]) == 0
    assert not read_vlt1(fwd / "transform.vlt").values.any()
    assert main(["report", "--field", str(field), "--oracle", str(field),
                 "--out-dir", str(rep)]) == 0
    assert main(["invert", "--pipeline", "curl", "--lf",
                 str(fwd / "transform.vlt"), "--geometry", geom_file,
                 "--oracle", str(scalar), "--out-dir", str(inv)]) == 0
    assert not read_vlt1(inv / "reconstruction.vlt").values.any()
    for out in (rep, inv):
        lines = (out / "report.txt").read_text().splitlines()
        assert lines and all(line.endswith("=0.000000e+00") for line in lines)


def test_phantom_command_peak_memory(tmp_path):
    # a 256 mixed phantom writes five 0.52 MB files; hashing each through
    # one 64 KiB buffer keeps the command's peak at its arrays (1 MB reads
    # peaked at 5.25 MB)
    import tracemalloc
    main(["phantom", "--kind", "mixed", "--nx", "32", "--out-dir", str(tmp_path / "warm")])
    tracemalloc.start()
    try:
        assert main(["phantom", "--kind", "mixed", "--nx", "256", "--r2", "1.5",
                     "--out-dir", str(tmp_path / "out")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.2e6
