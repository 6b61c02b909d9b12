"""Exception types shared across the library, and the checks of count and scale arguments."""

import math
from numbers import Integral, Real


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


def check_scale(name: str, value) -> float:
    """``value`` as a ``float``, or :class:`ValidationError` unless it is a real ``0 < value < inf``.

    A ``bool``, a string or anything else that is not a real number does not pass.
    """
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    # NaN fails both comparisons.
    if not 0.0 < value < math.inf:
        raise ValidationError(f"{name} must be positive and finite, got {value!r}")
    return float(value)
