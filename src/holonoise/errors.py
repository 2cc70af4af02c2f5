"""Exception types shared across the package."""


class DomainError(ValueError):
    """A physically or numerically invalid argument or configuration."""


class UnreachableTargetError(DomainError):
    """A requested detection target cannot be met (e.g. zero signal in band)."""
