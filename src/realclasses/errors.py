"""Exceptions shared across the package."""


class BudgetExceeded(Exception):
    """An enumeration would exceed the configured work budget or cap."""


class UsageError(ValueError):
    """An input outside the documented domain: family, kind, method, n, q,
    the order of Y, zeta-reality at even q, or command-line flags."""
