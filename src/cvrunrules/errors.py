"""Semantic exception hierarchy.

Public functions raise these instead of bare ValueError/RuntimeError so
callers (and the CLI exit-code mapping) can distinguish bad inputs from
numerical breakdown from infeasible chart designs.

Every number the package is given passes one type test, ``is_number``:
any real (or integral) type but bool, so a string is refused, never
parsed.  ``as_real`` reads a real as the float its caller then keeps (a
numpy scalar would overflow with a RuntimeWarning), and an integer past
the double range as an infinity.
"""

import functools
import math
import numbers


class CvRunRulesError(Exception):
    """Base class for all package errors."""


class DomainError(CvRunRulesError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class GammaDomainError(DomainError):
    """Coefficient of variation outside the validity window of the
    distributional approximation (gamma must lie in [1e-150, 0.5))."""


class EvaluationError(CvRunRulesError, ArithmeticError):
    """A series or iterative evaluation failed to converge within its
    term cap.  Never silently truncated."""


class ChainSingularError(CvRunRulesError, ArithmeticError):
    """The run-length chain has no absorption (p = 1): the ARL is infinite.

    Reported as a distinct condition rather than a numeric overflow.
    """


class UnattainableDesignError(CvRunRulesError):
    """No chart constant inside the search bracket achieves the requested
    in-control ARL (e.g. a lower limit that would have to cross zero)."""


class ConfigError(CvRunRulesError, ValueError):
    """A configuration document violates the schema."""


@functools.lru_cache
def is_number(cls: type, integral: bool = False) -> bool:
    """Whether values of type ``cls`` are real numbers (integers if
    ``integral``); a bool never is."""
    return issubclass(cls, numbers.Integral if integral else numbers.Real) and not issubclass(cls, bool)


def as_integer(value: object, name: str, minimum: int) -> int:
    """``value`` as an int; any integral type but bool is accepted."""
    if not is_number(type(value), True) or value < minimum:
        raise DomainError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def as_real(value: object, name: str) -> float:
    """``value`` as a float; any real type but bool is accepted, and an
    integer or fraction past the double range is an infinity."""
    if type(value) is float:  # the common case, without the type test
        return value
    if not is_number(type(value)):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def store_reals(obj: object, *fields: str) -> None:
    """Set each named field of the frozen dataclass ``obj`` to its
    ``as_real`` float, named in errors with spaces for underscores."""
    for field in fields:
        object.__setattr__(obj, field, as_real(getattr(obj, field), field.replace("_", " ")))
