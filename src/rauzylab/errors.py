"""Exception types shared across the package."""


class RauzyLabError(Exception):
    """Base class for all package-specific errors."""


class InvalidRuleError(RauzyLabError, ValueError):
    """A substitution rule violates its structural constraints."""


class InvalidWordError(RauzyLabError, ValueError):
    """A word uses letters outside the active alphabet, or is empty."""


class ConfigurationError(RauzyLabError, ValueError):
    """An operation needs data (e.g. probability vectors) the rule lacks."""


class DomainError(RauzyLabError, ValueError):
    """Arguments are outside an operation's domain (bad window, illegal word)."""


class InvariantViolationError(RauzyLabError, RuntimeError):
    """An internal cross-check failed; signals a bug, not a recoverable state."""
