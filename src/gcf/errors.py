"""Exception types shared across the package."""


class GcfError(Exception):
    """Base class for all package errors."""


class NonPositiveArgument(GcfError):
    """A speed law or auxiliary function was evaluated at x <= 0."""


class InvalidSpeedLaw(GcfError):
    """Speed law parameters violate f'(x) > 0 on (0, inf)."""


class OriginOutside(GcfError):
    """Support values are not strictly positive (origin not interior)."""


class NonConvex(GcfError):
    """A curvature radius is non-positive; strict convexity lost."""


class NonPositiveTime(GcfError):
    """Time since flow start must be positive."""


class InsufficientTrace(GcfError):
    """A trace does not contain enough stored states for the requested check."""


class BadExponent(GcfError):
    """Closed-form round solution needs n*b < 1."""


class InvalidConfig(GcfError):
    """Flow or sweep configuration failed validation."""
