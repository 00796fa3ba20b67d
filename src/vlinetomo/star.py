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
which are removable and are bridged by angular interpolation here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beam import ray_sum
from .errors import ConfigError, GeometryError
from .fields import (RayGeometry, TransformField, VectorField, direction,
                     grid_for_vline, perp, unit_vector)
from .radon import Sinogram, fbp_inverse, radon_transform_field, sinogram_dds

# |psi . gamma_i| below this is a type-1 singular direction
Z1_TOL = 1e-9
# |gamma(psi)| below this is a type-2 singular direction
Z2_TOL = 1e-9
# angular tolerance for the symmetric-pairing test
PAIR_TOL = 1e-10
# angular lattice on which Z2 roots are bracketed before refinement
Z2_SEARCH_ANGLES = 4096


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


def forward_star(f: VectorField, sg: StarGeometry, quad=None,
                 workers=1) -> TransformField:
    """S f sampled at every grid vertex, a 2-component transform field."""
    sg.check_grid(f.grid)
    weighted = tuple(zip(sg.gammas, sg.weights))
    long_part = ray_sum([(f.dot(g), g, c) for g, c in weighted], quad)
    trans_part = ray_sum([(f.dot(perp(g)), g, c) for g, c in weighted], quad)
    return TransformField(f.grid, np.stack([long_part, trans_part]), "S")


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


def _eval_homogeneous(coef, angles):
    """Evaluate a homogeneous polynomial at psi = (cos a, sin a)."""
    m1 = len(coef) - 1
    ca, sa = np.cos(angles), np.sin(angles)
    out = np.zeros_like(np.asarray(angles, dtype=float))
    for k, c in enumerate(coef):
        out = out + c * ca ** (m1 - k) * sa**k
    return out


def symmetric_by_coefficients(sg: StarGeometry):
    """True when P(psi) is the zero polynomial (coefficient-norm test)."""
    c1, c2 = p_coefficients(sg)
    scale = max(abs(c) for c in sg.weights) * sg.m
    return float(np.max(np.abs(np.concatenate([c1, c2])))) <= 1e-10 * scale


def classify(sg: StarGeometry):
    """'symmetric' (non-invertible) or 'invertible'.

    Symmetric means the rays split into pairs gamma_i = -gamma_j with
    weights c_i = -c_j; this is exactly the non-invertible case.
    """
    m = sg.m
    if m % 2 == 1:
        return "invertible"
    used = [False] * m
    wscale = max(abs(c) for c in sg.weights)
    for i in range(m):
        if used[i]:
            continue
        mate = None
        for j in range(i + 1, m):
            if used[j]:
                continue
            if (np.hypot(*(sg.gammas[i] + sg.gammas[j])) <= PAIR_TOL
                    and abs(sg.weights[i] + sg.weights[j]) <= 1e-12 * wscale):
                mate = j
                break
        if mate is None:
            return "invertible"
        used[i] = used[mate] = True
    return "symmetric"


@dataclass(frozen=True)
class SingularDirections:
    """Angles in [0, 2pi) where the inversion formula degenerates."""

    z1: np.ndarray       # psi . gamma_i = 0 for some i; exactly 2m angles
    z2: np.ndarray       # gamma(psi) = 0 (roots of P on the circle)
    degenerate: bool     # symmetric geometry: gamma vanishes identically


def singular_directions(sg: StarGeometry) -> SingularDirections:
    """Locate the type-1 and type-2 singular directions.

    Z1 comes from exact orthogonality to each ray.  Z2 roots are shared
    zeros of both components of P; they are located as local minima of
    |P1| + |P2| on a dense angular grid (this also catches even-order
    roots, where neither component changes sign), refined by ternary
    search to 1e-12, and accepted only if |gamma(psi)| <= 1e-9 on
    re-evaluation.
    """
    z1 = []
    for g in sg.gammas:
        a = np.arctan2(g[1], g[0])
        z1.append((a + np.pi / 2.0) % (2.0 * np.pi))
        z1.append((a - np.pi / 2.0) % (2.0 * np.pi))
    z1 = np.sort(np.array(z1))

    if classify(sg) == "symmetric":
        return SingularDirections(z1, np.array([]), True)

    c1, c2 = p_coefficients(sg)
    scale = max(float(np.max(np.abs(c1))), float(np.max(np.abs(c2))))

    def objective(a):
        a = np.atleast_1d(np.asarray(a, dtype=float))
        return np.abs(_eval_homogeneous(c1, a)) + np.abs(_eval_homogeneous(c2, a))

    da = 2.0 * np.pi / Z2_SEARCH_ANGLES
    angles = da * np.arange(Z2_SEARCH_ANGLES)
    vals = objective(angles)
    z2 = []
    for k in range(Z2_SEARCH_ANGLES):
        v0 = vals[k - 1]
        vm = vals[k]
        v1 = vals[(k + 1) % Z2_SEARCH_ANGLES]
        # local minimum small enough to plausibly be a root of P
        if not (vm <= v0 and vm <= v1 and vm <= 1e-4 * scale):
            continue
        lo, hi = angles[k] - da, angles[k] + da
        while hi - lo > 1e-12:
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            if float(objective(m1)[0]) <= float(objective(m2)[0]):
                hi = m2
            else:
                lo = m1
        a = (0.5 * (lo + hi)) % (2.0 * np.pi)
        psi = direction(a)
        dots = [abs(float(np.dot(psi, g))) for g in sg.gammas]
        if min(dots) < Z1_TOL:
            continue  # already in Z1
        if float(np.hypot(*gamma_of_psi(sg, psi))) <= Z2_TOL:
            if not any(_angular_distance(a, b) < 1e-9 for b in z2):
                z2.append(a)
    return SingularDirections(z1, np.sort(np.array(z2)), False)


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


def apply_q(dsino: Sinogram, sg: StarGeometry, guard_deg=2.0):
    """Per-angle Q(psi) multiply of a 2-component (already d/ds) sinogram.

    Angles within the guard band of a singular direction are dropped and
    refilled by linear interpolation in angle (the singularities are
    removable, so the interpolated limit equals R f there).  Returns a
    2-component sinogram holding (R f1, R f2).
    """
    if dsino.ncomp != 2:
        raise ConfigError("star data sinograms must have 2 components")
    sing = singular_directions(sg)
    if sing.degenerate:
        raise GeometryError("symmetric star transform is not invertible")
    bad = np.concatenate([sing.z1, sing.z2])
    guard = np.deg2rad(guard_deg)
    angles = dsino.angles()
    valid = np.ones(dsino.n_angles, dtype=bool)
    for k, a in enumerate(angles):
        if bad.size and float(np.min(_angular_distance(a, bad))) < guard:
            valid[k] = False
    if int(valid.sum()) < 16:
        raise ConfigError("too few angles survive the singular guard bands")
    out = np.zeros((2, dsino.n_angles, dsino.n_offsets))
    for k, a in enumerate(angles):
        if not valid[k]:
            continue
        q = q_of_psi(sg, direction(a))
        out[0, k] = q[0, 0] * dsino.values[0, k] + q[0, 1] * dsino.values[1, k]
        out[1, k] = q[1, 0] * dsino.values[0, k] + q[1, 1] * dsino.values[1, k]
    out[0] = _interpolate_guarded(out[0], valid)
    out[1] = _interpolate_guarded(out[1], valid)
    return Sinogram(out, dsino.angle0, dsino.dangle, dsino.ds)


def invert_star(sf: TransformField, sg: StarGeometry, n_angles=360,
                guard_deg=2.0) -> VectorField:
    """Reconstruct f from star data: Q(psi) d/ds R(S f) = R f, then FBP.

    The Radon transform of the star data uses the full angular circle, one
    offset per grid column, and includes the analytic strip-tail
    contributions; guard-banded singular angles are interpolated over
    before the Ram-Lak backprojection.
    """
    if classify(sg) == "symmetric":
        raise GeometryError("symmetric star transform is not invertible")
    if sf.ncomp != 2:
        raise ConfigError("star data must have 2 components")
    grid = sf.grid
    sino = radon_transform_field(sf, sg.gammas, n_angles, grid.nx, full=True)
    rf = apply_q(sinogram_dds(sino), sg, guard_deg=guard_deg)
    f1, f2 = (fbp_inverse(Sinogram(rf.values[k], rf.angle0, rf.dangle, rf.ds),
                          grid) for k in (0, 1))
    return VectorField(grid, f1.values, f2.values)
