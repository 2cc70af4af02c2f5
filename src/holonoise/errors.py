"""Exception types shared across the package."""


class DomainError(ValueError):
    """A physically or numerically invalid argument or configuration."""
