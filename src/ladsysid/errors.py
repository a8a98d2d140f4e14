"""Exception types shared across the package."""

__all__ = ["LadSysIdError", "DimensionError", "SpecError", "SingularSystemError",
           "SupportSizeError", "ThresholdSearchError", "ConfigError"]


class LadSysIdError(Exception):
    """Base class for all package errors."""


class DimensionError(LadSysIdError, ValueError):
    """Inconsistent or invalid problem dimensions."""


class SpecError(LadSysIdError, ValueError):
    """Invalid sampler or scenario specification."""


class SingularSystemError(LadSysIdError, ValueError):
    """Regressor matrix is rank deficient."""


class SupportSizeError(LadSysIdError, ValueError):
    """Outlier support too large for the exact certifier's sign-pattern route."""


class ThresholdSearchError(LadSysIdError, RuntimeError):
    """Threshold search found no feasible point (misconfigured grid)."""


class ConfigError(LadSysIdError, ValueError):
    """Malformed experiment configuration."""
