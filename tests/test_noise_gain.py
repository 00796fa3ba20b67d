"""Noise gain of the curl, LT, LI and star inversions, pinned.

Every pipeline is linear in its data, so the error that data noise causes
is the pipeline applied to the noise alone.  The gain is the rel L2 error
over the r1 disc (components pooled) of the pipeline applied to i.i.d.
Gaussian noise of standard deviation sigma * max|data| on each data array,
over sigma, with sigma = 1e-3 and one draw of ``default_rng(0)``.  The
curl is scored against the mixed phantom's curl, the fields against its
field.  A gain more than 10% above its pin fails; a change that raises
one states the trade-off and moves the pin.
"""

import numpy as np
import pytest

from vlinetomo import (ScalarField, StarGeometry, VectorField, VLineGeometry,
                       direction, forward_I, forward_L, forward_star,
                       forward_T, grid_for_star, grid_for_vline, invert_star,
                       make_phantom, recover_curl, recover_field_LI,
                       recover_field_LT)

SIGMA = 1e-3

PAIRS = {"axis": (np.array([1.0, 0.0]), np.array([0.0, 1.0])),
         "0.35-2.1": (direction(0.35), direction(2.1))}

# (pipeline, geometry, nx) -> gain measured when pinned, 3 digits
PINNED = {
    ("curl", "axis", 64): 63.9, ("curl", "axis", 128): 293.,
    ("curl", "0.35-2.1", 64): 53.9, ("curl", "0.35-2.1", 128): 258.,
    ("lt", "axis", 64): 10.6, ("lt", "axis", 128): 22.3,
    ("lt", "0.35-2.1", 64): 8.20, ("lt", "0.35-2.1", 128): 18.4,
    ("li", "axis", 64): 311., ("li", "axis", 128): 2040.,
    ("li", "0.35-2.1", 64): 213., ("li", "0.35-2.1", 128): 1570.,
    ("star", "3-ray", 64): 10.5, ("star", "3-ray", 128): 20.5,
}


def _noise(rng, data):
    return rng.standard_normal(data.shape) * SIGMA * np.abs(data).max()


def _rel(parts, refs, mask):
    num = sum(np.sum(p[mask] ** 2) for p in parts)
    return float(np.sqrt(num / sum(np.sum(r[mask] ** 2) for r in refs)))


def gain(pipeline, geometry, nx):
    rng = np.random.default_rng(0)
    if pipeline == "star":
        sg = StarGeometry(tuple(direction(a) for a in
                                (0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0)),
                          (1.0, 1.0, 1.0))
        grid = grid_for_star(nx, 1.0, sg)
        f = make_phantom("mixed", grid).field
        sf = forward_star(f, sg)
        noise = VectorField(grid, _noise(rng, sf.f1), _noise(rng, sf.f2))
        rec = invert_star(noise, sg, n_angles=360)
        return _rel((rec.f1, rec.f2), (f.f1, f.f2),
                    grid.disc_mask(grid.r1)) / SIGMA
    geom = VLineGeometry(*PAIRS[geometry])
    grid = grid_for_vline(nx, 1.0, geom)
    ph = make_phantom("mixed", grid)
    f, mask = ph.field, grid.disc_mask(grid.r1)
    second = {"curl": None, "lt": forward_T, "li": forward_I}[pipeline]
    data = [forward_L(f, geom)] + ([] if second is None else [second(f, geom)])
    noise = [ScalarField(grid, _noise(rng, d.values)) for d in data]
    if pipeline == "curl":
        return _rel((recover_curl(noise[0], geom).values,),
                    (ph.curl.values,), mask) / SIGMA
    rec = {"lt": recover_field_LT, "li": recover_field_LI}[pipeline](*noise, geom)
    return _rel((rec.f1, rec.f2), (f.f1, f.f2), mask) / SIGMA


@pytest.mark.parametrize("pipeline, geometry, nx", list(PINNED),
                         ids=["-".join(map(str, k)) for k in PINNED])
def test_noise_gain_stays_within_10_percent_of_its_pin(pipeline, geometry, nx):
    got = gain(pipeline, geometry, nx)
    assert 0.0 < got <= 1.10 * PINNED[pipeline, geometry, nx], got
