"""Exception types shared across the package.

Validation problems (bad arguments, bad coefficient data, malformed
configs) subclass ``ValueError`` so callers can catch them generically;
runtime solver failures subclass ``RuntimeError``.
"""


class RoughwaveError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgumentError(RoughwaveError, ValueError):
    """An argument violates a documented precondition."""


class InvalidCoefficientError(RoughwaveError, ValueError):
    """A coefficient field violates symmetry, bound, or positivity rules."""


class GridMismatchError(RoughwaveError, ValueError):
    """Two objects that must share a grid (or time axis) do not."""


class SolverError(RoughwaveError, RuntimeError):
    """A linear or time-stepping solve failed to meet its tolerance."""


class UnsupportedConfigurationError(RoughwaveError, ValueError):
    """A structurally valid request that the implementation does not cover."""


class ConfigError(RoughwaveError, ValueError):
    """A run configuration file failed schema validation.

    ``field`` names the offending entry so command-line users can fix it.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field
