import numpy as np
import pytest

from vlinetomo import Grid2D, VLineGeometry, grid_for_vline


@pytest.fixture
def geom():
    return VLineGeometry(np.array([1.0, 0.0]), np.array([0.0, 1.0]))


@pytest.fixture
def oblique_geom():
    a, b = 0.35, 2.1
    return VLineGeometry(np.array([np.cos(a), np.sin(a)]),
                         np.array([np.cos(b), np.sin(b)]))


@pytest.fixture
def grid(geom):
    return grid_for_vline(96, 1.0, geom)


@pytest.fixture
def small_grid():
    return Grid2D.centered(64, 1.0, 2.0)


def rel_l2(a, b, mask=None):
    if mask is not None:
        a, b = a[mask], b[mask]
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def finer_grid(grid):
    """The same square at a 4x finer step: its samples [::4, ::4] are the
    samples of ``grid``, so forward data computed on it and subsampled
    does not share the quadrature of the grid it is inverted on."""
    return Grid2D(4 * grid.nx - 3, 4 * grid.ny - 3, grid.h / 4.0,
                  grid.origin, grid.r1, grid.r2)


# one PASS/FAIL line per acceptance criterion, echoed after the test run
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
