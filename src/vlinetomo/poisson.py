"""Elliptic solvers: Dirichlet problem on the r1 disc (sparse direct
solve of the 5-point Laplacian) and free-space recovery of a compactly
supported function from its Laplacian (FFT convolution).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from .errors import ConfigError
from .fields import ScalarField
from .operators import correlate


@dataclass(frozen=True)
class PoissonResult:
    """Solution with its solver report: iteration count (0 for the direct
    solvers) and relative residual ||b - A x|| / ||b||."""

    field: ScalarField
    iterations: int
    residual: float


def _second_difference(n):
    """(n, n) matrix of -d^2/dx^2 times h^2, zero beyond both ends."""
    return sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))


def solve_dirichlet_disc(rhs: ScalarField) -> PoissonResult:
    """Lap V = rhs on the interior of the r1 disc, V = 0 on and outside it.

    The 5-point stencil on the disc-interior samples is assembled as a
    sparse matrix and solved directly (sparse LU), so ``iterations`` is 0
    and ``residual`` is the relative residual of the solve.
    """
    grid = rhs.grid
    mask = grid.rr() < grid.r1
    b = -rhs.values[mask]  # solve (-Lap) V = -rhs so the operator is SPD
    if b.size == 0:
        raise ConfigError("no grid samples inside the Dirichlet disc")
    nrm_b = float(np.linalg.norm(b))
    if nrm_b == 0.0:
        return PoissonResult(ScalarField(grid, np.zeros_like(rhs.values)), 0, 0.0)

    # rows and columns of the samples outside the disc drop out: V = 0 there
    inside = np.flatnonzero(mask)
    neg_lap = sp.kronsum(_second_difference(grid.ny),
                         _second_difference(grid.nx), format="csr")
    a = (neg_lap[inside][:, inside] / (grid.h * grid.h)).tocsc()
    # minimum degree on A^T + A suits the symmetric pattern
    x = spsolve(a, b, permc_spec="MMD_AT_PLUS_A")
    res = float(np.linalg.norm(b - a @ x) / nrm_b)
    out = np.zeros((grid.nx, grid.ny))
    out[mask] = x
    return PoissonResult(ScalarField(grid, out), 0, res)


def log_kernel(grid):
    """Cell-integrated logarithmic kernel on displacement offsets.

    Off-center cells use the midpoint value (1/2pi) log|x| * h^2; the
    singular self-cell uses the exact integral of (1/2pi) log|x| over an
    h-by-h square centered at the origin.
    """
    h = grid.h
    dx = h * np.arange(-(grid.nx - 1), grid.nx)
    dy = h * np.arange(-(grid.ny - 1), grid.ny)
    rr = np.hypot(dx[:, None], dy[None, :])
    with np.errstate(divide="ignore"):
        k = np.log(rr) * h * h / (2.0 * np.pi)
    a = h / 2.0
    # int over [-a,a]^2 of log|x| dx = 2 a^2 (log(2 a^2) + pi/2 - 3)
    k[grid.nx - 1, grid.ny - 1] = 2.0 * a * a * (np.log(2.0 * a * a) + np.pi / 2.0 - 3.0) / (2.0 * np.pi)
    return k


def solve_free_space(rhs: ScalarField) -> PoissonResult:
    """Convolve the rhs with the free-space Green function G = (1/2pi) log|x|.

    The quadrature is the midpoint rule per source cell with the exact
    log integral on the singular self-cell; the discrete sum is evaluated
    as a (non-circular) linear convolution, which for this kernel, even in
    both offsets, is the correlation about its center.  The rhs must be
    compact in the r1 disc.
    """
    if not rhs.is_compact():
        raise ConfigError("free-space recovery needs an rhs compact in the r1 disc")
    grid = rhs.grid
    k = log_kernel(grid)
    out = correlate(rhs.values, k, (grid.nx - 1, grid.ny - 1))
    return PoissonResult(ScalarField(grid, out), 0, 0.0)
