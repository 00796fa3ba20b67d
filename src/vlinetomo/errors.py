"""Exception hierarchy shared by the library and the CLI.

Each class carries the exit code the CLI returns for it: ConfigError 2,
GeometryError (and any other VlineError) 3, FileFormatError 4.
"""


class VlineError(Exception):
    """Base class for all library errors."""

    exit_code = 3


class ConfigError(VlineError):
    """Invalid parameters or inconsistent inputs."""

    exit_code = 2


class GeometryError(VlineError):
    """Degenerate or non-invertible ray geometry, or a grid too small for
    the strip extension an inversion reads."""


class FileFormatError(VlineError):
    """Malformed or unreadable data file."""

    exit_code = 4
