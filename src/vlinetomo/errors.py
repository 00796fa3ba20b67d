"""Exception hierarchy shared by the library and the CLI.

Exit-code mapping used by the CLI: ConfigError -> 2, GeometryError and
SolverError -> 3, FileFormatError -> 4.
"""


class VlineError(Exception):
    """Base class for all library errors."""


class ConfigError(VlineError):
    """Invalid parameters or inconsistent inputs."""


class GeometryError(VlineError):
    """Degenerate or non-invertible ray geometry."""


class SolverError(VlineError):
    """A numerical solver failed (maps to exit code 3).

    No solver in the library raises it today: the Dirichlet solve is a
    direct factorization and reports its residual instead of failing to
    converge.  ``residual`` and ``iterations`` describe the failed solve.
    """

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class FileFormatError(VlineError):
    """Malformed or unreadable data file."""
