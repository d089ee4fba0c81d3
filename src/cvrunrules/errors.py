"""Semantic exception hierarchy.

Public functions raise these instead of bare ValueError/RuntimeError so
callers (and the CLI exit-code mapping) can distinguish bad inputs from
numerical breakdown from infeasible chart designs.
"""

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


def as_integer(value: object, name: str, minimum: int) -> int:
    """``value`` as an int; any integral type but bool is accepted."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise DomainError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def as_real(value: object, name: str) -> float:
    """``value`` as a float; any real type but bool is accepted, and an
    integer or fraction past the double range is an infinity."""
    if type(value) is float:  # the common case, without the abstract-class check
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf
