"""Weighted star transform of planar vector fields.

The star transform sends a vector field f to the 2-vector-valued datum

    S f(x) = sum_i c_i X_{gamma_i} [ f . gamma_i ; f . gamma_i^perp ](x)

over m fixed unit ray directions gamma_i with nonzero weights c_i: one
``ray_sum(sg.terms(.))`` of f and one of R f = (f2, -f1), as
f . gamma^perp = (R f) . gamma; the V-line is the star (u, v; -1, +1),
so every function here takes a ``VLineGeometry`` too.
The inversion rests on the Radon-domain identity Q(psi) d/ds R(S f) = R f,
where gamma(psi) = -sum_i c_i gamma_i / (psi . gamma_i) and
Q(psi) = [gamma(psi); gamma(psi)^perp]^{-1}.  A star transform is
invertible exactly when it is not symmetric (rays pairing as
gamma_i = -gamma_j with c_i = -c_j); the matrix Q blows up only at the
singular directions Z1 (some psi . gamma_i = 0) and Z2 (gamma(psi) = 0),
which are removable and are bridged by angular interpolation over
symmetric guard bands here.  Both sets come in closed form: Z1 from the
ray angles, Z2 as the unit-circle roots of P written as one polynomial
of degree m-1 in w = e^{2 i theta} (``_p_of_w``), found as
companion-matrix eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
from numpy.polynomial import polynomial as npoly

from .beam import ray_sum
from .errors import ConfigError, GeometryError
from .fields import (PAIR_TOL, StarGeometry, VectorField, direction,
                     grid_for_vline)
from .radon import (FULL_TURN, Sinogram, fbp_inverse, radon_transform_field,
                    sinogram_dds)

# |psi . gamma_i| below this is a type-1 singular direction
Z1_TOL = 1e-9
# |gamma(psi)| below this is a type-2 singular direction for q_of_psi
Z2_TOL = 1e-9
# a root w of C(w) is type 2 when |C(w/|w|)| / sum_k |C_k| is below this
Z2_BACKWARD_TOL = 1e-12
# slack on the guard band's edge, so an angle exactly guard_deg from a
# singular direction survives whatever its rounding, on either side
GUARD_TIE_TOL = 1e-9
# roots of the Z2 polynomial in w closer than this are one multiple root,
# which eigenvalues split by about eps^(1/k) for multiplicity k
Z2_MERGE_TOL = 1e-4


# Centered grid sized so the star support analysis holds.
grid_for_star = grid_for_vline


def forward_star(f: VectorField, sg: StarGeometry, workers=1) -> VectorField:
    """S f sampled at every grid vertex: its longitudinal part as f1 and
    its transverse part, the same sum of R f (f.perp(g) = (R f).g), as f2."""
    return VectorField(f.grid, ray_sum(sg.terms(f)),
                       ray_sum(sg.terms(f.rotated())))


def gamma_of_psi(sg: StarGeometry, psi):
    """gamma(psi) = -sum_i c_i gamma_i / (psi . gamma_i), for one unit
    normal psi or an array of them shaped (..., 2)."""
    psi = np.asarray(psi, dtype=float)
    if psi.shape[-1:] != (2,):
        raise GeometryError(f"psi must have shape (..., 2), got {psi.shape}")
    if not np.all(np.abs(np.hypot(psi[..., 0], psi[..., 1]) - 1.0) <= 1e-12):
        raise GeometryError("psi must be unit length")
    out = np.zeros(psi.shape)
    for i, (g, c) in enumerate(zip(sg.gammas, sg.weights)):
        dot = psi[..., 0] * g[0] + psi[..., 1] * g[1]
        if np.any(np.abs(dot) < Z1_TOL):
            raise GeometryError(
                f"psi is orthogonal to ray {i}: type-1 singular direction")
        out -= c * g / dot[..., None]
    return out


def q_of_psi(sg: StarGeometry, psi):
    """Q(psi) = [gamma(psi); gamma(psi)^perp]^{-1}, in closed form: a 2x2
    matrix for one unit normal, shape (..., 2, 2) for an array of them.

    The pre-inverse has determinant |gamma(psi)|^2, so invertibility is
    exactly gamma(psi) != 0.
    """
    g = gamma_of_psi(sg, psi)
    g0, g1 = g[..., 0], g[..., 1]
    det = g0 * g0 + g1 * g1
    if np.any(det < Z2_TOL * Z2_TOL):
        raise GeometryError("gamma(psi) vanishes: type-2 singular direction")
    rows = (np.stack([g0, -g1], axis=-1), np.stack([g1, g0], axis=-1))
    return np.stack(rows, axis=-2) / det[..., None, None]


def _p_of_w(sg: StarGeometry):
    """Coefficients, lowest degree first, of C(w) = e^{i(m-1)theta}(P1 + i P2)
    at w = e^{2 i theta}, where P(psi) = sum_i c_i gamma_i prod_{j!=i}
    (psi . gamma_j).

    With g_j = gamma_j1 + i gamma_j2, e^{i theta} (psi . gamma_j) is the
    linear factor (g_j + w conj(g_j)) / 2, so C(w) = sum_i c_i g_i
    prod_{j!=i} (g_j + w conj(g_j)) / 2, of degree m-1.
    """
    g = [complex(*gj) for gj in sg.gammas]
    lin = [np.array([gj, gj.conjugate()]) / 2.0 for gj in g]
    return sum(c * gi * reduce(npoly.polymul, lin[:i] + lin[i + 1:])
               for i, (gi, c) in enumerate(zip(g, sg.weights)))


def classify(sg: StarGeometry):
    """'symmetric' (non-invertible) or 'invertible'.

    Symmetric means the rays split into pairs gamma_i = -gamma_j with
    weights c_i = -c_j; this is exactly the non-invertible case.  Rays
    never coincide, so each has at most one opposite: the test is that m
    is even and every ray has an opposite of opposite weight.
    """
    wscale = max(abs(c) for c in sg.weights)
    rays = tuple(zip(sg.gammas, sg.weights))
    paired = all(any(np.hypot(*(g + g2)) <= PAIR_TOL
                     and abs(c + c2) <= 1e-12 * wscale for g2, c2 in rays)
                 for g, c in rays)
    return "symmetric" if sg.m % 2 == 0 and paired else "invertible"


@dataclass(frozen=True)
class SingularDirections:
    """Angles in [0, 2pi) where the inversion formula degenerates."""

    z1: np.ndarray       # psi . gamma_i = 0 for some i; exactly 2m angles
    z2: np.ndarray       # gamma(psi) = 0 (roots of P on the circle)
    degenerate: bool     # symmetric geometry: gamma vanishes identically


def singular_directions(sg: StarGeometry) -> SingularDirections:
    """Locate the type-1 and type-2 singular directions in closed form.

    Z1 comes from exact orthogonality to each ray.  Z2 holds the common
    zeros of both components of P on the circle: the roots of the
    polynomial C(w) of ``_p_of_w``, from one companion-matrix eigenvalue
    call, where each root w gives the pair theta = arg(w)/2 and
    theta + pi.  A root is kept when its backward error on the circle,
    |C(w/|w|)| / sum_k |C_k|, is at most Z2_BACKWARD_TOL: unlike
    |gamma(psi)|, this stays bounded next to Z1, and it drops the roots off
    the circle.  Kept roots within Z2_MERGE_TOL of each other are the split
    copies of a multiple root and are merged into their mean.
    """
    gammas = np.array(sg.gammas)
    a = np.arctan2(gammas[:, 1], gammas[:, 0])
    z1 = _wrap(np.concatenate([a + np.pi / 2.0, a - np.pi / 2.0]))

    if classify(sg) == "symmetric":
        return SingularDirections(z1, np.array([]), True)

    coef = _p_of_w(sg)
    roots = npoly.polyroots(coef)
    roots = roots[roots != 0.0]  # w = 0 is no direction
    on_circle = (np.abs(npoly.polyval(roots / np.abs(roots), coef))
                 <= Z2_BACKWARD_TOL * np.abs(coef).sum())
    copies = []  # one list per root, of its split copies
    for w in roots[on_circle]:
        for c in copies:
            if abs(w - c[0]) <= Z2_MERGE_TOL:
                c.append(w)
                break
        else:
            copies.append([w])
    a = np.angle(np.array([np.mean(c) for c in copies], dtype=complex)) / 2.0
    off_z1 = np.abs(direction(a).T @ gammas.T).min(axis=1) >= Z1_TOL
    a = a[off_z1]  # Z1 holds the rest
    return SingularDirections(z1, _wrap(np.concatenate([a, a + np.pi])),
                              False)


def _wrap(angles):
    """Sorted angles reduced to [0, 2pi); a tiny negative angle, which the
    modulo rounds up to 2pi, becomes 0."""
    a = np.mod(angles, 2.0 * np.pi)
    return np.sort(np.where(a < 2.0 * np.pi, a, 0.0))


def _angular_distance(a, b):
    d = np.abs((a - b) % (2.0 * np.pi))
    return np.minimum(d, 2.0 * np.pi - d)


def _interpolate_guarded(rows, valid):
    """Refill the invalid angle rows in place, in one gather, by periodic
    linear interpolation between the nearest valid rows."""
    n = len(valid)
    idx = np.flatnonzero(valid)
    bad = np.flatnonzero(~valid)
    ring = np.concatenate([idx[-1:] - n, idx, idx[:1] + n])
    pos = np.searchsorted(ring, bad)
    k0, k1 = ring[pos - 1], ring[pos]
    t = ((bad - k0) / (k1 - k0))[:, None]
    rows[bad] = (1.0 - t) * rows[k0 % n] + t * rows[k1 % n]


def _unguarded(angles, sg, guard_deg):
    """Mask of the ``angles`` at least guard_deg (less GUARD_TIE_TOL) from
    every singular direction of ``sg``.  Raises ConfigError when guard_deg
    is not positive or fewer than 16 angles survive, GeometryError when sg
    is symmetric."""
    if not guard_deg > 0:
        raise ConfigError(f"guard_deg must be positive, got {guard_deg!r}")
    sing = singular_directions(sg)
    if sing.degenerate:
        raise GeometryError("symmetric star transform is not invertible")
    bad = np.concatenate([sing.z1, sing.z2])
    valid = (_angular_distance(angles[:, None], bad[None, :]).min(axis=1)
             >= np.deg2rad(guard_deg) - GUARD_TIE_TOL)
    if int(valid.sum()) < 16:
        raise ConfigError(f"{int(valid.sum())} of {len(angles)} angles survive "
                          f"the singular guard bands, fewer than 16")
    return valid


def apply_q(dsino: Sinogram, sg: StarGeometry, guard_deg=2.0):
    """Per-angle Q(psi) multiply of a 2-component (already d/ds) sinogram:
    Q(psi) = [[a, -b], [b, a]] (``q_of_psi``) multiplies d1 + i d2 by a + i b.

    Angles within the guard band of a singular direction are dropped and
    refilled by linear interpolation in angle (the singularities are
    removable, so the interpolated limit equals R f there); guard_deg must
    be positive.  The refill is periodic over the rows, so the sinogram
    must cover the full circle: on a half circle, row k + n continues as
    row k reversed in s, not as row k.  Returns a 2-component sinogram
    holding (R f1, R f2).
    """
    if dsino.ncomp != 2:
        raise ConfigError("star data sinograms must have 2 components")
    if not dsino.full_range:
        raise ConfigError("star data sinograms must cover the full circle")
    angles = dsino.angles()
    valid = _unguarded(angles, sg, guard_deg)
    q = q_of_psi(sg, direction(angles[valid]).T)
    factor = np.zeros(len(angles), dtype=complex)  # guarded rows refilled
    factor[valid] = q[:, 0, 0] + 1j * q[:, 1, 0]
    out = dsino.values[0] + 1j * dsino.values[1]
    # q before d: numpy's SIMD complex multiply may round q*d and d*q apart
    np.multiply(factor[:, None], out, out=out)
    _interpolate_guarded(out, valid)
    return Sinogram._adopt(np.stack([out.real, out.imag]), dsino.angle0,
                           dsino.dangle, dsino.ds)


def invert_star(sf: VectorField, sg: StarGeometry, n_angles=360,
                guard_deg=2.0) -> VectorField:
    """Reconstruct f from star data: Q(psi) d/ds R(S f) = R f, then FBP.

    The Radon transform of the star data uses the full angular circle, one
    offset per grid column, and includes the analytic strip-tail
    contributions; guard-banded singular angles are interpolated over
    before the Ram-Lak backprojection.  The strip model needs the strips
    beyond r2 disjoint: an r2 below ``sg.required_r2``, a symmetric star,
    and a guard_deg or n_angles that leaves fewer than 16 unguarded angles
    raise before any work; a square that does not hold the strip ring
    r2 + 2h clear of its edges raises GeometryError (the chord-disc check
    of ``radon_transform_field``) before any chord work.
    """
    sg.check_grid(sf.grid)
    # the angles 2 pi k / n_angles of the sinogram radon_transform_field makes
    _unguarded(np.arange(n_angles) * (FULL_TURN / max(n_angles, 1)), sg,
               guard_deg)
    if not isinstance(sf, VectorField):
        raise ConfigError("star data must have 2 components")
    sino = radon_transform_field(sf, sg.gammas, n_angles, sf.grid.nx)
    rf = apply_q(sinogram_dds(sino), sg, guard_deg=guard_deg)
    return fbp_inverse(rf, sf.grid)
