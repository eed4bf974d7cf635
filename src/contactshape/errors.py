"""Exception types, and the argument checks that raise them, shared across the package.

Every error carries a stable machine-readable ``category`` string so the
command line tool can report failures in a scriptable way.
"""

import math
import numbers


class ContactShapeError(Exception):
    """Base class for all package errors."""

    category = "error"


class InvalidArgumentError(ContactShapeError):
    """Bad argument values, malformed files, or dimension mismatches."""

    category = "invalid-argument"


class InvalidReadingError(ContactShapeError):
    """A sensor reading violates its physical constraints."""

    category = "invalid-reading"


class SingularPointError(ContactShapeError):
    """A point-load solution was requested at its singular point."""

    category = "singular-point"


class UnsupportedModelError(ContactShapeError):
    """Model/parameter combination outside the implemented regime."""

    category = "unsupported-model"


class NumericalFailureError(ContactShapeError):
    """A numerical routine failed to produce a usable result."""

    category = "numerical-failure"


class ResourceLimitError(ContactShapeError):
    """A desk-scale guard tripped before an intractable computation."""

    category = "resource-limit"


class OracleFailureError(ContactShapeError):
    """A verification oracle could not reach the requested accuracy."""

    category = "oracle-failure"


def check_finite(what: str, *values) -> None:
    """Each value must be a real number, not a bool, and finite; errors name ``what``."""
    for v in values:
        if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
            raise InvalidArgumentError("%s must be a finite number, got %r" % (what, v))


def check_entries(what: str, values, n: int) -> None:
    """``values`` must hold ``n`` entries, each passing ``check_finite``."""
    if not hasattr(values, "__len__") or len(values) != n:
        raise InvalidArgumentError("%s needs %d entries, got %r" % (what, n, values))
    check_finite(what, *values)


def check_positive(what: str, value) -> None:
    """``value`` must pass ``check_finite`` and be > 0."""
    check_finite(what, value)
    if not value > 0:
        raise InvalidArgumentError("%s must be positive, got %r" % (what, value))


def check_count(what: str, value) -> None:
    """``value`` must be an integer, not a bool, and >= 0; errors name ``what``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise InvalidArgumentError("%s must be a non-negative integer, got %r" % (what, value))


def check_choice(what: str, value, choices) -> None:
    """``value`` must be an entry of ``choices``; errors name ``what``."""
    if value not in choices:
        raise InvalidArgumentError("%s must be one of %s, got %r" % (what, choices, value))
