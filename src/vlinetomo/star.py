"""Weighted star transform of planar vector fields.

The star transform sends a vector field f to the 2-vector-valued datum

    S f(x) = sum_i c_i X_{gamma_i} [ f . gamma_i ; f . gamma_i^perp ](x)

over m fixed unit ray directions gamma_i with nonzero weights c_i.  The
inversion rests on the Radon-domain identity Q(psi) d/ds R(S f) = R f,
where gamma(psi) = -sum_i c_i gamma_i / (psi . gamma_i) and
Q(psi) = [gamma(psi); gamma(psi)^perp]^{-1}.  A star transform is
invertible exactly when it is not symmetric (rays pairing as
gamma_i = -gamma_j with c_i = -c_j); the matrix Q blows up only at the
singular directions Z1 (some psi . gamma_i = 0) and Z2 (gamma(psi) = 0),
which are removable and are bridged by angular interpolation here.  Both
sets come in closed form: Z1 from the ray angles, Z2 as the unit-circle
roots of one polynomial of degree m-1 in w = e^{2 i theta} built from P
(``p_coefficients``), found as companion-matrix eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .beam import ray_sum
from .errors import ConfigError, GeometryError
from .fields import (RayGeometry, VectorField, direction, grid_for_vline,
                     perp, unit_vector)
from .radon import Sinogram, _backproject, radon_transform_field, sinogram_dds

# |psi . gamma_i| below this is a type-1 singular direction
Z1_TOL = 1e-9
# |gamma(psi)| below this is a type-2 singular direction
Z2_TOL = 1e-9
# angular tolerance for the symmetric-pairing test
PAIR_TOL = 1e-10
# roots of the Z2 polynomial in w closer than this are one multiple root,
# which eigenvalues split by about eps^(1/k) for multiplicity k
Z2_MERGE_TOL = 1e-4


@dataclass(frozen=True)
class StarGeometry(RayGeometry):
    """Ray directions gamma_1..gamma_m and nonzero weights c_1..c_m."""

    gammas: tuple
    weights: tuple

    def __post_init__(self):
        gammas = tuple(unit_vector(g) for g in self.gammas)
        weights = tuple(float(c) for c in self.weights)
        if len(gammas) != len(weights):
            raise ConfigError("need one weight per ray direction")
        if len(gammas) < 2:
            raise ConfigError("a star needs at least 2 rays")
        for c in weights:
            if c == 0.0:
                raise ConfigError("star weights must be nonzero")
        for i in range(len(gammas)):
            for j in range(i + 1, len(gammas)):
                if np.hypot(*(gammas[i] - gammas[j])) < PAIR_TOL:
                    raise ConfigError(f"ray directions {i} and {j} coincide")
        object.__setattr__(self, "gammas", gammas)
        object.__setattr__(self, "weights", weights)

    @property
    def m(self):
        return len(self.gammas)

    @property
    def rays(self):
        return self.gammas


# Centered grid sized so the star support analysis holds.
grid_for_star = grid_for_vline


def forward_star(f: VectorField, sg: StarGeometry, workers=1) -> VectorField:
    """S f sampled at every grid vertex: its longitudinal part as f1 and
    its transverse part as f2."""
    sg.check_grid(f.grid)
    weighted = tuple(zip(sg.gammas, sg.weights))
    long_part = ray_sum([(f.dot(g), g, c) for g, c in weighted])
    trans_part = ray_sum([(f.dot(perp(g)), g, c) for g, c in weighted])
    return VectorField(f.grid, long_part, trans_part)


def gamma_of_psi(sg: StarGeometry, psi):
    """gamma(psi) = -sum_i c_i gamma_i / (psi . gamma_i)."""
    psi = unit_vector(psi)
    out = np.zeros(2)
    for i, (g, c) in enumerate(zip(sg.gammas, sg.weights)):
        dot = float(psi[0] * g[0] + psi[1] * g[1])
        if abs(dot) < Z1_TOL:
            raise GeometryError(
                f"psi is orthogonal to ray {i}: type-1 singular direction")
        out -= c * g / dot
    return out


def q_of_psi(sg: StarGeometry, psi):
    """Q(psi) = [gamma(psi); gamma(psi)^perp]^{-1}, in closed form.

    The pre-inverse has determinant |gamma(psi)|^2, so invertibility is
    exactly gamma(psi) != 0.
    """
    g = gamma_of_psi(sg, psi)
    det = float(g[0] * g[0] + g[1] * g[1])
    if det < Z2_TOL * Z2_TOL:
        raise GeometryError("gamma(psi) vanishes: type-2 singular direction")
    return np.array([[g[0], -g[1]], [g[1], g[0]]]) / det


def p_coefficients(sg: StarGeometry):
    """Coefficients of P(psi) = sum_i c_i gamma_i prod_{j!=i} (psi . gamma_j).

    Both components are homogeneous polynomials of degree m-1 in
    (psi_1, psi_2); returns two length-m coefficient arrays over the
    monomial basis psi_1^{m-1-k} psi_2^k.
    """
    m = sg.m
    c1 = np.zeros(m)
    c2 = np.zeros(m)
    for i, (g, c) in enumerate(zip(sg.gammas, sg.weights)):
        prod = np.array([1.0])
        for j, gj in enumerate(sg.gammas):
            if j != i:
                prod = np.convolve(prod, np.array([gj[0], gj[1]]))
        c1 += c * g[0] * prod
        c2 += c * g[1] * prod
    return c1, c2


def symmetric_by_coefficients(sg: StarGeometry):
    """True when P(psi) is the zero polynomial (coefficient-norm test)."""
    c1, c2 = p_coefficients(sg)
    scale = max(abs(c) for c in sg.weights) * sg.m
    return float(np.max(np.abs(np.concatenate([c1, c2])))) <= 1e-10 * scale


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
    zeros of both components of P on the circle.  With z = e^{i theta} and
    w = z^2, z^{m-1} (P1 + i P2) is a polynomial of degree m-1 in w, since
    psi_1 z = (w + 1)/2 and psi_2 z = (w - 1)/(2i); its roots come from one
    companion-matrix eigenvalue call, and each root w gives the pair
    theta = arg(w)/2 and theta + pi.  A root is kept only if
    |gamma(psi)| <= Z2_TOL there, which also drops the roots off the
    circle; roots within Z2_MERGE_TOL of a kept one are the split copies
    of a multiple root and are merged into it.
    """
    z1 = []
    for g in sg.gammas:
        a = np.arctan2(g[1], g[0])
        z1.append(a + np.pi / 2.0)
        z1.append(a - np.pi / 2.0)
    z1 = _wrap(np.array(z1))

    if classify(sg) == "symmetric":
        return SingularDirections(z1, np.array([]), True)

    c1, c2 = p_coefficients(sg)
    m1 = sg.m - 1
    coef = np.zeros(sg.m, dtype=complex)
    for k in range(sg.m):
        basis = npoly.polymul(npoly.polypow([1.0, 1.0], m1 - k),
                              npoly.polypow([-1.0, 1.0], k))
        coef += (c1[k] + 1j * c2[k]) * basis / (2.0 ** (m1 - k) * (2j) ** k)
    kept = []
    for w in npoly.polyroots(coef):
        psi = direction(np.angle(w) / 2.0)
        if min(abs(float(np.dot(psi, g))) for g in sg.gammas) < Z1_TOL:
            continue  # already in Z1
        if (float(np.hypot(*gamma_of_psi(sg, psi))) <= Z2_TOL
                and all(abs(w - v) > Z2_MERGE_TOL for v in kept)):
            kept.append(w)
    a = np.angle(np.array(kept, dtype=complex)) / 2.0
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
    """Refill invalid angle rows by periodic linear interpolation."""
    n = len(valid)
    idx = np.nonzero(valid)[0]
    out = rows.copy()
    for k in range(n):
        if valid[k]:
            continue
        before = idx[idx < k]
        after = idx[idx > k]
        k0 = before[-1] if before.size else idx[-1] - n
        k1 = after[0] if after.size else idx[0] + n
        t = (k - k0) / (k1 - k0)
        out[k] = (1.0 - t) * rows[k0 % n] + t * rows[k1 % n]
    return out


def _check_guard(guard_deg):
    if not guard_deg > 0:
        raise ConfigError(f"guard_deg must be positive, got {guard_deg!r}")


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
    _check_guard(guard_deg)
    sing = singular_directions(sg)
    if sing.degenerate:
        raise GeometryError("symmetric star transform is not invertible")
    bad = np.concatenate([sing.z1, sing.z2])
    angles = dsino.angles()
    valid = (_angular_distance(angles[:, None], bad[None, :]).min(axis=1)
             >= np.deg2rad(guard_deg))
    if int(valid.sum()) < 16:
        raise ConfigError("too few angles survive the singular guard bands")
    d = dsino.values[0] + 1j * dsino.values[1]
    out = np.zeros_like(d)
    for k in np.flatnonzero(valid):
        q = q_of_psi(sg, direction(angles[k]))
        out[k] = complex(q[0, 0], q[1, 0]) * d[k]
    out = _interpolate_guarded(out, valid)
    return Sinogram(np.stack([out.real, out.imag]), dsino.angle0, dsino.dangle,
                    dsino.ds)


def invert_star(sf: VectorField, sg: StarGeometry, n_angles=360,
                guard_deg=2.0) -> VectorField:
    """Reconstruct f from star data: Q(psi) d/ds R(S f) = R f, then FBP.

    The Radon transform of the star data uses the full angular circle, one
    offset per grid column, and includes the analytic strip-tail
    contributions; guard-banded singular angles are interpolated over
    before the Ram-Lak backprojection.  Grids whose square does not hold
    the strip ring r2 + 2h clear of its edges raise GeometryError (the
    chord-disc check of ``radon_transform_field``, before any chord work),
    and guard_deg <= 0 raises ConfigError before any work.
    """
    if classify(sg) == "symmetric":
        raise GeometryError("symmetric star transform is not invertible")
    if not isinstance(sf, VectorField):
        raise ConfigError("star data must have 2 components")
    _check_guard(guard_deg)
    grid = sf.grid
    sino = radon_transform_field(sf, sg.gammas, n_angles, grid.nx, full=True)
    rf = apply_q(sinogram_dds(sino), sg, guard_deg=guard_deg)
    return VectorField(grid, *_backproject(rf, grid))
