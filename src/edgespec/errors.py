"""Exception types shared across the toolkit."""


class EdgespecError(Exception):
    """Base class for all toolkit errors."""


class DomainError(EdgespecError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class ConfigurationError(EdgespecError, ValueError):
    """A configuration parameter (grid size, term count, ...) is out of range."""


class OverflowModeError(EdgespecError, OverflowError):
    """An unscaled evaluation would overflow, or underflow below the normal
    doubles; the caller should use scaled mode."""


class WittViolationError(EdgespecError, ValueError):
    """An order parameter violates the spectral gap floor nu > 3/2."""


class PreconditionError(EdgespecError, ValueError):
    """A documented precondition (support, argument order, ...) is violated."""


class NumericalError(EdgespecError, RuntimeError):
    """An iterative numerical procedure failed to converge."""
