"""Analytic test fields with closed-form derivatives.

The bump profile (1 - rho^2)^3 is C^2 at its support boundary, so the
potential and the stream function are C^2 with compact support, the field
components (their gradients) are C^1, and div and curl are only C^0 at
the support edge; all of them have closed forms usable as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fields import Grid2D, ScalarField, VectorField, lines


@dataclass(frozen=True)
class Phantom:
    """A phantom field together with its analytic oracle fields."""

    field: VectorField
    div: ScalarField
    curl: ScalarField
    potential: ScalarField | None  # V with grad V = potential part
    stream: ScalarField | None     # W with perp(grad W) = solenoidal part
    kind: str


def bump_scalar(grid: Grid2D, center=(0.0, 0.0), scale=1.0, amplitude=1.0) -> ScalarField:
    """Scalar bump amplitude * (1 - rho^2)^3, rho = |x - center| / scale."""
    _check_support(grid, center, scale, amplitude)
    d1 = (grid.xs() - center[0]) ** 2
    d2 = (grid.ys() - center[1]) ** 2
    rows, cols = lines(d1 / scale**2 < 1.0), lines(d2 / scale**2 < 1.0)
    out = np.zeros((grid.nx, grid.ny))
    out[rows, cols] += amplitude * _omq((d1[rows, None] + d2[None, cols]) / scale**2) ** 3
    return ScalarField._adopt(grid, out)


def make_phantom(kind, grid: Grid2D, center=None, scale=None, amplitude=1.0,
                 center2=None, scale2=None, amplitude2=None) -> Phantom:
    """Build a potential, solenoidal or mixed phantom with oracle fields.

    potential:  f = grad V,        V = amplitude * (1 - rho^2)^3
    solenoidal: f = perp(grad W),  W same profile
    mixed:      sum of both, the second bump at (center2, scale2)

    Defaults: a centered full-size bump for the pure kinds, two offset
    bumps for the mixed kind, all sized from grid.r1.  Each bump is
    evaluated on its support's bounding box only and added into the
    outputs, which hold +0.0 elsewhere.  The outputs are the rows of one
    array, which stays allocated while any of them is referenced.
    """
    r1 = grid.r1
    if kind in ("potential", "solenoidal"):
        center = (0.0, 0.0) if center is None else center
        scale = r1 if scale is None else scale
        bumps = [(center, scale, amplitude, kind == "solenoidal")]
    elif kind == "mixed":
        center = (-0.25 * r1, -0.15 * r1) if center is None else center
        scale = 0.55 * r1 if scale is None else scale
        center2 = (0.2 * r1, 0.25 * r1) if center2 is None else center2
        scale2 = 0.5 * r1 if scale2 is None else scale2
        amplitude2 = amplitude if amplitude2 is None else amplitude2
        bumps = [(center, scale, amplitude, False),
                 (center2, scale2, amplitude2, True)]
    else:
        raise ConfigError(f"unknown phantom kind {kind!r}")
    for (c, s, a, _), name in zip(bumps, ("amplitude", "amplitude2")):
        _check_support(grid, c, s, a, name)
    # one zeroed block: f1, f2, div, curl and each bump's profile V or W
    out = np.zeros((4 + len(bumps), grid.nx, grid.ny))
    f1, f2, div, curl, *profiles = out
    for (c, s, a, perp), profile in zip(bumps, profiles):
        _add_bump(grid, c, s, a, perp, f1, f2, curl if perp else div, profile)
    out.flags.writeable = False  # the fields adopt its rows
    # the potential V is the gradient bump's profile, the stream W the perp one's
    by_perp = {perp: profile for (*_, perp), profile in zip(bumps, profiles)}
    scalar = lambda v: None if v is None else ScalarField._adopt(grid, v)
    return Phantom(field=VectorField._adopt(grid, f1, f2), div=scalar(div),
                   curl=scalar(curl), potential=scalar(by_perp.get(False)),
                   stream=scalar(by_perp.get(True)), kind=kind)


def random_phantom(kind, grid: Grid2D, rng) -> Phantom:
    """Random bump placement/size/amplitude with support inside the r1 disc."""
    r1 = grid.r1
    scale = r1 * rng.uniform(0.35, 0.6)
    ang = rng.uniform(0.0, 2.0 * np.pi)
    rad = rng.uniform(0.0, r1 - scale - 2 * grid.h)
    center = (rad * np.cos(ang), rad * np.sin(ang))
    amp = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
    if kind == "mixed":
        scale2 = r1 * rng.uniform(0.3, 0.5)
        ang2 = rng.uniform(0.0, 2.0 * np.pi)
        rad2 = rng.uniform(0.0, r1 - scale2 - 2 * grid.h)
        return make_phantom("mixed", grid, center, scale, amp,
                            center2=(rad2 * np.cos(ang2), rad2 * np.sin(ang2)),
                            scale2=scale2, amplitude2=rng.uniform(0.5, 2.0))
    return make_phantom(kind, grid, center, scale, amp)


def _omq(q):
    """1 - q on the support q < 1, and 0 off it."""
    return np.where(q < 1.0, 1.0 - q, 0.0)


def _check_support(grid, center, scale, amplitude, name="amplitude"):
    if not scale > 0:  # each check is "not ok", so a NaN fails it too
        raise ConfigError("phantom scale must be positive")
    if not abs(amplitude) < np.inf:
        raise ConfigError(f"phantom {name} must be finite, got {amplitude!r}")
    if not np.hypot(*center) + scale <= grid.r1 + 1e-12:
        raise ConfigError("phantom support leaks outside the r1 disc")


def _add_bump(grid, center, scale, amplitude, perp, f1, f2, lap, profile):
    """Add the bump V = amplitude * (1 - q)^3 on its support's bounding box:
    grad V (perp(grad V) if ``perp``) into (f1, f2), Lap V into ``lap`` and
    V into ``profile``."""
    t1 = (grid.xs() - center[0]) / scale
    t2 = (grid.ys() - center[1]) / scale
    # q is at least each share t^2, so the support (q < 1) lies on these lines
    box = lines(t1**2 < 1.0), lines(t2**2 < 1.0)
    y1, y2 = t1[box[0], None], t2[None, box[1]]
    q = y1**2 + y2**2
    omq = _omq(q)
    # grad of (1 - q)^3: -6 (1 - q)^2 y / scale
    w = -6.0 * amplitude * omq**2
    g1, g2 = w * y1 / scale, w * y2 / scale
    if perp:
        g1, g2 = -g2, g1
    f1[box] += g1
    f2[box] += g2
    # Laplacian: 12 (1 - q)(3 q - 1) / scale^2
    lap[box] += 12.0 * amplitude * omq * (3.0 * q - 1.0) / scale**2
    profile[box] += amplitude * omq**3
