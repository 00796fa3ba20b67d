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
from .fields import Grid2D, ScalarField, VectorField


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
    _check_support(grid, center, scale)
    q = _q(grid, center, scale)
    return ScalarField(grid, amplitude * _profile(q))


def make_phantom(kind, grid: Grid2D, center=None, scale=None, amplitude=1.0,
                 center2=None, scale2=None, amplitude2=None) -> Phantom:
    """Build a potential, solenoidal or mixed phantom with oracle fields.

    potential:  f = grad V,        V = amplitude * (1 - rho^2)^3
    solenoidal: f = perp(grad W),  W same profile
    mixed:      sum of both, the second bump at (center2, scale2)

    Defaults: a centered full-size bump for the pure kinds, two offset
    bumps for the mixed kind, all sized from grid.r1.
    """
    r1 = grid.r1
    if kind in ("potential", "solenoidal"):
        center = (0.0, 0.0) if center is None else center
        scale = r1 if scale is None else scale
        return _gradient_phantom(grid, center, scale, amplitude,
                                 perp=(kind == "solenoidal"))
    if kind == "mixed":
        center = (-0.25 * r1, -0.15 * r1) if center is None else center
        scale = 0.55 * r1 if scale is None else scale
        center2 = (0.2 * r1, 0.25 * r1) if center2 is None else center2
        scale2 = 0.5 * r1 if scale2 is None else scale2
        amplitude2 = amplitude if amplitude2 is None else amplitude2
        a = _gradient_phantom(grid, center, scale, amplitude, perp=False)
        b = _gradient_phantom(grid, center2, scale2, amplitude2, perp=True)
        f = VectorField(grid, a.field.f1 + b.field.f1, a.field.f2 + b.field.f2)
        return Phantom(field=f, div=a.div, curl=b.curl,
                       potential=a.potential, stream=b.stream, kind="mixed")
    raise ConfigError(f"unknown phantom kind {kind!r}")


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


def _profile(q):
    return np.where(q < 1.0, (1.0 - np.minimum(q, 1.0)) ** 3, 0.0)


def _q(grid, center, scale):
    xx, yy = grid.mesh()
    return ((xx - center[0]) ** 2 + (yy - center[1]) ** 2) / scale**2


def _check_support(grid, center, scale):
    if scale <= 0:
        raise ConfigError("phantom scale must be positive")
    if np.hypot(*center) + scale > grid.r1 + 1e-12:
        raise ConfigError("phantom support leaks outside the r1 disc")


def _gradient_phantom(grid, center, scale, amplitude, perp):
    _check_support(grid, center, scale)
    xx, yy = grid.mesh()
    y1 = (xx - center[0]) / scale
    y2 = (yy - center[1]) / scale
    q = y1**2 + y2**2
    inside = q < 1.0
    omq = np.where(inside, 1.0 - q, 0.0)
    # grad of (1 - q)^3: -6 (1 - q)^2 y / scale
    g1 = -6.0 * amplitude * omq**2 * y1 / scale
    g2 = -6.0 * amplitude * omq**2 * y2 / scale
    # Laplacian: 12 (1 - q)(3 q - 1) / scale^2
    lap = 12.0 * amplitude * omq * (3.0 * q - 1.0) / scale**2
    lap = np.where(inside, lap, 0.0)
    pot = ScalarField(grid, amplitude * _profile(q))
    zero = ScalarField(grid, np.zeros_like(lap))
    if perp:
        f = VectorField(grid, -g2, g1)
        return Phantom(field=f, div=zero, curl=ScalarField(grid, lap),
                       potential=None, stream=pot, kind="solenoidal")
    f = VectorField(grid, g1, g2)
    return Phantom(field=f, div=ScalarField(grid, lap), curl=zero,
                   potential=pot, stream=None, kind="potential")
