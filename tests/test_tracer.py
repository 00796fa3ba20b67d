"""The layer tracer of perfbench wraps library functions by name; a name it
wraps that moves or is renamed fails here, not only in a traced run."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import vlinetomo.star
from vlinetomo import (Sinogram, StarGeometry, direction, forward_star,
                       grid_for_star, make_phantom)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    # registered while it runs: its dataclasses look their module up there
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_tracer_installs_on_the_library():
    tracer = _load_tracer()
    plain = vlinetomo.star.apply_q
    tr = tracer.Tracer()
    try:
        tr.install()
        # the guarded-angle counter reads apply_q's arguments by name
        sg = StarGeometry(tuple(direction(a) for a in (0.0, 2.1, 4.2)),
                          (1.0, 1.0, 1.0))
        sino = Sinogram(np.zeros((2, 360, 16)), 0.0, 2 * np.pi / 360, 0.1)
        vlinetomo.star.apply_q(sino, sg)
        counts = [s.counts for s in tr.spans.values() if s.name == "star.apply_q"]
        assert counts[0]["guarded"] > 0
    finally:
        tr.uninstall()
    assert vlinetomo.star.apply_q is plain


def test_tracer_times_the_star_backprojection():
    # invert_star ends in fbp_inverse, so the tracer's radon.fbp_s sees it
    tracer = _load_tracer()
    sg = StarGeometry(tuple(direction(a) for a in (0.0, 2.1, 4.2)),
                      (1.0, 1.0, 1.0))
    grid = grid_for_star(48, 1.0, sg)
    sf = forward_star(make_phantom("mixed", grid).field, sg)
    tr = tracer.Tracer()
    try:
        tr.install()
        vlinetomo.star.invert_star(sf, sg, n_angles=64)
    finally:
        tr.uninstall()
    names = [s.name for s in tr.spans.values()]
    assert "star.invert_star" in names and "radon.fbp_inverse" in names
