"""Exception types shared across the library."""


class CrossmeshError(Exception):
    """Base class for all crossmesh errors."""


class DimensionError(CrossmeshError, ValueError):
    """Operands have incompatible or invalid shapes."""


class DomainError(CrossmeshError, ValueError):
    """A value lies outside the mathematical domain of an operation."""


class ConfigError(DomainError):
    """An experiment configuration is invalid: a flag or config problem, not a numerical one."""


class DegenerateDeviceError(DomainError):
    """A device has a fully extinguished column (some p_c = 0) and cannot be restored."""


class SweepError(CrossmeshError, RuntimeError):
    """A Monte-Carlo sweep point failed; the message carries the failing point."""
