"""Elliptic solvers: Dirichlet problem on the r1 disc (conjugate gradients
on the 5-point Laplacian, preconditioned by the exact fast-Poisson inverse
on a box around the disc) and free-space recovery of a compactly supported
function from its Laplacian (FFT convolution over the rhs support).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import dstn, idstn, next_fast_len

from .errors import ConfigError, GeometryError
from .fields import ScalarField
from .operators import correlate

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
    shape = tuple(next_fast_len(int(i.max() - i.min()) + 4, real=True) - 1
                  for i in (ix, iy))
    return lo, shape


def _neg_laplacian(x, outside):
    """h^2 (-Lap) x by the 5-point stencil for x zero on ``outside``, which
    covers the box's border; the result is zeroed there too."""
    y = 4.0 * x
    y[1:] -= x[:-1]
    y[:-1] -= x[1:]
    y[:, 1:] -= x[:, :-1]
    y[:, :-1] -= x[:, 1:]
    y[outside] = 0.0
    return y


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
    outside = np.ones(shape, dtype=bool)
    outside[at] = False
    # solve h^2 (-Lap) V = -h^2 rhs so the operator is SPD
    b = np.zeros(shape)
    b[at] = -rhs.values[ix, iy] * grid.h * grid.h
    nrm_b = float(np.linalg.norm(b))
    if nrm_b == 0.0:
        return PoissonResult(ScalarField(grid, np.zeros_like(rhs.values)), 0, 0.0)

    # eigenvalues of the box's h^2 (-Lap) on the DST-I basis
    lam = [2.0 - 2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1)) for n in shape]
    inv_lam = 1.0 / (lam[0][:, None] + lam[1][None, :])

    def precondition(r):
        z = idstn(dstn(r, type=1) * inv_lam, type=1, overwrite_x=True)
        z[outside] = 0.0
        return z

    x = np.zeros(shape)
    r = b.copy()
    p = precondition(r)
    rz = float(np.sum(r * p))
    iterations = 0
    while float(np.linalg.norm(r)) > CG_RTOL * nrm_b:
        if iterations == CG_MAX_ITER:
            raise GeometryError(
                f"Dirichlet CG stopped at {iterations} iterations with relative "
                f"residual {float(np.linalg.norm(r)) / nrm_b:.3e} > {CG_RTOL:g}")
        iterations += 1
        q = _neg_laplacian(p, outside)
        alpha = rz / float(np.sum(p * q))
        x += alpha * p
        r -= alpha * q
        z = precondition(r)
        rz, rz_old = float(np.sum(r * z)), rz
        p = z + (rz / rz_old) * p
    res = float(np.linalg.norm(b - _neg_laplacian(x, outside))) / nrm_b
    out = np.zeros((grid.nx, grid.ny))
    out[ix, iy] = x[at]
    return PoissonResult(ScalarField(grid, out), iterations, res)


def log_kernel(h, dx, dy):
    """Cell-integrated logarithmic kernel at the integer offsets dx (rows)
    by dy (columns), in cells.

    Off-center cells use the midpoint value (1/2pi) log|x| * h^2; the
    singular self-cell uses the exact integral of (1/2pi) log|x| over an
    h-by-h square centered at the origin.
    """
    rr = np.hypot(h * np.asarray(dx, dtype=float)[:, None],
                  h * np.asarray(dy, dtype=float)[None, :])
    with np.errstate(divide="ignore"):
        k = np.log(rr) * h * h / (2.0 * np.pi)
    a = h / 2.0
    # int over [-a,a]^2 of log|x| dx = 2 a^2 (log(2 a^2) + pi/2 - 3)
    k[rr == 0.0] = 2.0 * a * a * (np.log(2.0 * a * a) + np.pi / 2.0 - 3.0) / (2.0 * np.pi)
    return k


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
