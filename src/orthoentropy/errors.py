"""Exception types shared across the package."""


class NumericError(RuntimeError):
    """A numerical procedure failed to meet its accuracy contract."""


class ConvergenceError(NumericError):
    """An iterative or extrapolated computation did not stabilize."""


class ConfigError(ValueError):
    """Invalid run configuration."""
