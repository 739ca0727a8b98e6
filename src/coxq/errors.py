"""Exception types shared across the package."""


class CoxqError(Exception):
    """Base class for all package errors."""


class DomainError(CoxqError):
    """Argument outside a transform's finiteness domain or a formula's precondition."""


class RangeError(CoxqError):
    """Time or index outside the valid range."""


class ConvergenceError(CoxqError):
    """An iterative procedure failed to reach its tolerance."""


class RegimeError(CoxqError):
    """Query routed to the wrong large-deviations branch."""


class ResourceError(CoxqError):
    """Configured work exceeds the simulation budget."""


class InsufficientData(CoxqError):
    """Not enough replications for the requested estimate."""


class ConfigError(CoxqError):
    """Invalid experiment configuration."""
