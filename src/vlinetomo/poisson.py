"""Elliptic solvers: Dirichlet problem on the r1 disc (conjugate gradients
on the 5-point Laplacian, preconditioned by the exact fast-Poisson inverse
on a box around the disc, by real-FFT sine transforms) and free-space
recovery of a compactly supported function from its Laplacian (FFT
convolution over the rhs support).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GeometryError
from .fields import ScalarField
from .operators import correlate, fast_len

# Dirichlet CG stops once ||r|| <= CG_RTOL * ||b|| and raises GeometryError
# if that takes more than CG_MAX_ITER iterations (about 30 at nx=256, 40
# at nx=512)
CG_RTOL = 1e-12
CG_MAX_ITER = 200


@dataclass(frozen=True)
class PoissonResult:
    """Solution with its solver report: CG iteration count and relative
    residual ||b - A x|| / ||b|| (both 0 for the free-space convolution)."""

    field: ScalarField
    iterations: int
    residual: float


def _dst_box(ix, iy):
    """Corner and shape of the box the preconditioner solves on: the
    bounding box of the sample indices (ix, iy) plus one cell on each side,
    each side n grown until n + 1 is 5-smooth (the DST-I runs an FFT of
    length 2 (n + 1)).  The box may pass the grid's edge; samples there
    are zero."""
    lo = (int(ix.min()) - 1, int(iy.min()) - 1)
    shape = tuple(fast_len(int(i.max() - i.min()) + 4) - 1 for i in (ix, iy))
    return lo, shape


def _neg_laplacian(x, inside, out):
    """h^2 (-Lap) x by the 5-point stencil for x zero off ``inside`` (1.0 on
    the disc samples, 0.0 elsewhere), written to ``out`` and zeroed off
    ``inside`` too.  Both are C-ordered, so the column neighbours are the
    flat neighbours; where a flat shift wraps from one row to the next it
    reads the box's border, which is zero."""
    n = x.shape[1]
    xf, of = x.reshape(-1), out.reshape(-1)
    np.multiply(xf, 4.0, out=of)
    for k in (1, n):
        of[k:] -= xf[:-k]
        of[:-k] -= xf[k:]
    out *= inside
    return out


def _half_sine(x, pad, spec):
    """Half-scaled DST-I along rows, negated: -sum_j x_j sin(pi j k / (n + 1))
    for k = 1..n, as Im rfft([0, x, 0, ..., 0]) of length 2 (n + 1) in the
    buffers ``pad`` (zero beyond x) and ``spec``; returns a view of spec."""
    n = x.shape[1]
    pad[:, 1:n + 1] = x
    np.fft.rfft(pad, axis=1, out=spec)
    return spec.imag[:, 1:n + 1]


def _box_inverse(shape):
    """The exact inverse of h^2 (-Lap), the 5-point stencil on a box of this
    shape with zeros beyond it, as a function of the rhs: four ``_half_sine``
    passes over rows of the box or of its transpose (the signs cancel) with
    the scaled inverse eigenvalues in between.  The function returns a view
    of a buffer that its next call overwrites."""
    n0, n1 = shape
    lam = [2.0 - 2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1)) for n in shape]
    # in the transposed layout of the coefficients after two passes
    inv_lam_t = 4.0 / ((n0 + 1) * (n1 + 1) * (lam[1][:, None] + lam[0][None, :]))
    bufs = {mn: (np.zeros((mn[0], 2 * mn[1] + 2)),
                 np.empty((mn[0], mn[1] + 2), dtype=complex))
            for mn in (shape, shape[::-1])}  # one set for a square box
    box, box_t = bufs[shape], bufs[shape[::-1]]
    coef_t = np.empty(shape[::-1])

    def solve(r):
        np.multiply(_half_sine(_half_sine(r, *box).T, *box_t), inv_lam_t, out=coef_t)
        return _half_sine(_half_sine(coef_t, *box_t).T, *box)

    return solve


def solve_dirichlet_disc(rhs: ScalarField) -> PoissonResult:
    """Lap V = rhs on the interior of the r1 disc, V = 0 on and outside it.

    The 5-point system on the samples with rr < r1 is solved by conjugate
    gradients.  The preconditioner applies the exact inverse of the
    5-point Laplacian on a box around the disc (zero beyond it) by DST-I
    and keeps the disc samples: the fast-Poisson embedding of the
    capacitance-matrix method.  CG stops at a relative residual of CG_RTOL
    and raises GeometryError after CG_MAX_ITER iterations short of it.
    ``residual`` is recomputed from the solution, so it includes the
    rounding of V to doubles: that floor grows like nx^2 and reads a few
    1e-12 at nx=512, above the recursive residual CG stops on.
    """
    grid = rhs.grid
    ix, iy = np.nonzero(grid.rr() < grid.r1)
    if ix.size == 0:
        raise ConfigError("no grid samples inside the Dirichlet disc")
    lo, shape = _dst_box(ix, iy)
    at = (ix - lo[0], iy - lo[1])
    inside = np.zeros(shape)
    inside[at] = 1.0
    # solve h^2 (-Lap) V = b = -h^2 rhs so the operator is SPD; r = b - A x
    b = -rhs.values[ix, iy] * grid.h * grid.h
    nrm_b = float(np.linalg.norm(b))
    if nrm_b == 0.0:
        return PoissonResult(ScalarField(grid, np.zeros_like(rhs.values)), 0, 0.0)

    # the preconditioner keeps the disc samples of the box inverse
    box_inverse = _box_inverse(shape)
    x = np.zeros(shape)
    r = np.zeros(shape)
    r[at] = b
    z = box_inverse(r) * inside
    p = z.copy()
    q = np.empty(shape)
    rz = float(np.vdot(r, z))
    iterations = 0
    while float(np.linalg.norm(r)) > CG_RTOL * nrm_b:
        if iterations == CG_MAX_ITER:
            raise GeometryError(
                f"Dirichlet CG stopped at {iterations} iterations with relative "
                f"residual {float(np.linalg.norm(r)) / nrm_b:.3e} > {CG_RTOL:g}")
        iterations += 1
        _neg_laplacian(p, inside, q)
        alpha = rz / float(np.vdot(p, q))
        x += alpha * p
        r -= alpha * q
        np.multiply(box_inverse(r), inside, out=z)
        rz, rz_old = float(np.vdot(r, z)), rz
        p *= rz / rz_old
        p += z
    res = float(np.linalg.norm(b - _neg_laplacian(x, inside, q)[at])) / nrm_b
    out = np.zeros((grid.nx, grid.ny))
    out[ix, iy] = x[at]
    return PoissonResult(ScalarField(grid, out), iterations, res)


def log_kernel(h, dx, dy):
    """Cell-integrated logarithmic kernel at the integer offsets dx (rows)
    by dy (columns), in cells.

    Off-center cells use the midpoint value (1/2pi) log|x| * h^2; the
    singular self-cell uses the exact integral of (1/2pi) log|x| over an
    h-by-h square centered at the origin.  The kernel depends on |dx| and
    |dy| only, so it is evaluated once per pair of absolute offsets.
    """
    ax, ay = np.abs(np.asarray(dx, dtype=np.int64)), np.abs(np.asarray(dy, dtype=np.int64))
    rr = np.hypot(h * np.arange(ax.max() + 1.0)[:, None],
                  h * np.arange(ay.max() + 1.0)[None, :])
    with np.errstate(divide="ignore"):
        k = np.log(rr) * h * h / (2.0 * np.pi)
    a = h / 2.0
    # int over [-a,a]^2 of log|x| dx = 2 a^2 (log(2 a^2) + pi/2 - 3)
    k[0, 0] = 2.0 * a * a * (np.log(2.0 * a * a) + np.pi / 2.0 - 3.0) / (2.0 * np.pi)
    return k[np.ix_(ax, ay)]


def solve_free_space(rhs: ScalarField) -> PoissonResult:
    """Convolve the rhs with the free-space Green function G = (1/2pi) log|x|.

    The quadrature is the midpoint rule per source cell with the exact
    log integral on the singular self-cell; the discrete sum is a
    (non-circular) linear convolution, with the kernel built only at the
    offsets from the grid to the bounding box of the rhs's nonzero
    samples, the only ones the sum reaches.  The rhs must be compact in
    the r1 disc.
    """
    if not rhs.is_compact():
        raise ConfigError("free-space recovery needs an rhs compact in the r1 disc")
    grid = rhs.grid
    v = rhs.values
    rows, cols = np.flatnonzero(v.any(axis=1)), np.flatnonzero(v.any(axis=0))
    if rows.size == 0:
        return PoissonResult(ScalarField(grid, np.zeros_like(v)), 0, 0.0)
    # offsets from every grid sample to the support's bounding box
    k = log_kernel(grid.h, np.arange(rows[0] - (grid.nx - 1), rows[-1] + 1),
                   np.arange(cols[0] - (grid.ny - 1), cols[-1] + 1))
    out = correlate(v, k, (grid.nx - 1 - rows[0], grid.ny - 1 - cols[0]))
    return PoissonResult(ScalarField(grid, out), 0, 0.0)
