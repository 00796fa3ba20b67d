"""Exception hierarchy shared by the library and the CLI.

Exit-code mapping used by the CLI: ConfigError -> 2, GeometryError -> 3,
FileFormatError -> 4.
"""


class VlineError(Exception):
    """Base class for all library errors."""


class ConfigError(VlineError):
    """Invalid parameters or inconsistent inputs."""


class GeometryError(VlineError):
    """Degenerate or non-invertible ray geometry, or a grid too small for
    the strip extension an inversion reads."""


class FileFormatError(VlineError):
    """Malformed or unreadable data file."""
