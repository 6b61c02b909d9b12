"""Exception types shared across the library, and the one check of a count argument."""

from numbers import Integral


class ValidationError(ValueError):
    """Raised when inputs violate a documented precondition."""


class NumericError(RuntimeError):
    """Raised when an iterative routine fails to meet its numerical contract."""


def check_count(name: str, value, least: int) -> int:
    """``value`` as an ``int``, or :class:`ValidationError` unless it is an integer ``>= least``.

    Python and numpy integers pass; a ``bool``, a float (even ``2.0``) or
    anything else does not.
    """
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValidationError(f"{name} must be at least {least}, got {value}")
    return int(value)
