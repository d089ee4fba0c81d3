"""Linear covariate measurement-error model for CV monitoring.

Observed measurements follow X* = A + B X + eps with eps ~ N(0, sigma_M^2),
m repeated measurements per item being averaged.  In standardized form the
model is driven by theta = A/mu0 (accuracy error), eta = sigma_M/sigma0
(precision ratio), the slope B and the repetition count m.  The observed
per-item averages then have coefficient of variation

    gamma* = gamma0 * sqrt(B^2 b^2 + eta^2/m) / (theta + B b / tau),

where the process shift is parameterized either by a standardized mean
shift a and standard-deviation multiplier b, tied together through
tau = b / (1 + a gamma0).

``observed_cv_incontrol`` and ``observed_cv_shifted`` own every check of
the observed CV: gamma0 itself, that the shift was built for it, and a
finite square, denominator and CV, each a plain float comparison
(``_checked_cv``).  ``_observed_cv`` is the one unchecked expression, at
a float tau or over an array of them; EARL takes its nodes' CVs from it
once its two end nodes pass the checked path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cvdist import _check_gamma
from .errors import DomainError, as_integer

__all__ = [
    "MeasurementErrorModel",
    "ShiftSpec",
    "observed_cv_incontrol",
    "observed_cv_shifted",
    "shift_from_ab",
]

_AB_CONSISTENCY_TOL = 1e-9
_GAMMA0_MATCH_RTOL = 1e-12
_SQUARE_MAX = 2.0**511
# from_tau's smallest b/tau.  From 2^-21 up, 1 + a*gamma0 keeps b/tau to
# 3.3e-16 (b/tau - 1 is exact by Sterbenz from 1/2 up), so tau comes back
# within 3.3e-16 * 2^21 + 2.2e-16 ~ 7e-10, inside _AB_CONSISTENCY_TOL, for
# gamma0 below about 1e300; below 2^-21 the round trip fails at scattered tau.
_RATIO_FLOOR = 2.0**-21


@dataclass(frozen=True)
class MeasurementErrorModel:
    """Standardized linear covariate error model.

    theta: accuracy error A/mu0 (>= 0)
    eta:   precision ratio sigma_M/sigma0 (>= 0)
    slope: covariate slope B (> 0)
    reps:  measurements per item m (integer >= 1)
    """

    theta: float = 0.0
    eta: float = 0.0
    slope: float = 1.0
    reps: int = 1

    def __post_init__(self) -> None:
        for name in ("theta", "eta", "slope"):
            # numpy scalars would overflow the observed CV with a RuntimeWarning
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        if self.theta < 0:
            raise DomainError(f"theta must be >= 0, got {self.theta}")
        if self.eta < 0:
            raise DomainError(f"eta must be >= 0, got {self.eta}")
        if not self.slope > 0:
            raise DomainError(f"slope must be > 0, got {self.slope}")
        object.__setattr__(self, "reps", as_integer(self.reps, "reps", 1))

    @classmethod
    def identity(cls) -> "MeasurementErrorModel":
        """The error-free model (theta=0, eta=0, B=1, m=1)."""
        return cls()

    @property
    def is_identity(self) -> bool:
        return self.theta == 0.0 and self.eta == 0.0 and self.slope == 1.0 and self.reps == 1


@dataclass(frozen=True)
class ShiftSpec:
    """Multiplicative CV shift tau together with its (a, b) decomposition.

    a is the standardized mean shift, b the standard-deviation multiplier;
    tau, a and b must satisfy tau = b / (1 + a * gamma0) for the process
    gamma0 that governs the shift.  Use the constructors rather than
    assembling fields by hand.
    """

    tau: float
    a: float
    b: float
    gamma0: float

    def __post_init__(self) -> None:
        _check_gamma(self.gamma0, force=True)
        for name in ("tau", "b", "a"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.tau > 0:
            raise DomainError(f"tau must be positive, got {self.tau}")
        if not self.b > 0:
            raise DomainError(f"b must be positive, got {self.b}")
        denom = 1.0 + self.a * self.gamma0
        if not denom > 0:
            raise DomainError(f"1 + a*gamma0 must be positive, got {denom}")
        if not abs(self.tau - self.b / denom) <= _AB_CONSISTENCY_TOL * max(1.0, self.tau):
            raise DomainError(
                f"inconsistent shift: tau={self.tau} but b/(1+a*gamma0)={self.b / denom}"
            )

    @classmethod
    def from_tau(cls, tau: float, gamma0: float, b: float = 1.0) -> "ShiftSpec":
        """Shift of size tau realized with std multiplier b (default 1, i.e.
        the CV change comes from a mean shift), for a finite b/tau and tau <=
        2^21 b.  Its refusals and the observed CV's are all monotone in tau."""
        # numpy scalars would overflow b/tau or a with a RuntimeWarning
        tau, gamma0, b = float(tau), float(gamma0), float(b)
        if not tau > 0:
            raise DomainError(f"tau must be positive, got {tau}")
        ratio = b / tau
        if math.isfinite(b) and not math.isfinite(ratio):
            raise DomainError(f"tau={tau} is too small: b/tau overflows for b={b}")
        _check_gamma(gamma0, force=True)
        # an infinite tau and a b that is not positive and finite keep the field checks' messages
        if tau < math.inf and 0 < b < math.inf and not ratio >= _RATIO_FLOOR:
            raise DomainError(f"tau={tau} is too large: b/tau is below 2**-21 for b={b}")
        a = (ratio - 1.0) / gamma0
        return cls(tau=tau, a=a, b=b, gamma0=gamma0)

    @classmethod
    def from_ab(cls, a: float, b: float, gamma0: float) -> "ShiftSpec":
        a, b, gamma0 = float(a), float(b), float(gamma0)
        return cls(tau=shift_from_ab(a, b, gamma0), a=a, b=b, gamma0=gamma0)

    @classmethod
    def in_control(cls, gamma0: float) -> "ShiftSpec":
        return cls(tau=1.0, a=0.0, b=1.0, gamma0=gamma0)

    @property
    def is_in_control(self) -> bool:
        return self.tau == 1.0

    def check_gamma0(self, gamma0: float) -> None:
        """Refuse a process whose gamma0 is not the one the shift was built
        for: there its (a, b) decomposition realizes another tau."""
        if not abs(self.gamma0 - gamma0) <= _GAMMA0_MATCH_RTOL * abs(gamma0):
            raise DomainError(
                f"shift was built for gamma0={self.gamma0}, but the process has gamma0={gamma0}"
            )


def shift_from_ab(a: float, b: float, gamma0: float) -> float:
    """tau = b / (1 + a * gamma0), which must be positive and finite."""
    # numpy scalars would make a*gamma0 NaN or inf with a RuntimeWarning
    a, b, gamma0 = float(a), float(b), float(gamma0)
    if not 0 < b < math.inf:
        raise DomainError(f"b must be positive and finite, got {b}")
    if not math.isfinite(a):
        raise DomainError(f"a must be finite, got {a}")
    _check_gamma(gamma0, force=True)
    denom = 1.0 + a * gamma0
    if not denom > 0:
        raise DomainError(f"1 + a*gamma0 must be positive, got {denom}")
    tau = b / denom
    if not 0 < tau < math.inf:
        raise DomainError(f"tau = b/(1 + a*gamma0) = {b}/{denom} is not positive and finite")
    return tau


def observed_cv_incontrol(gamma0: float, me: MeasurementErrorModel) -> float:
    """In-control CV of the observed (averaged) measurements."""
    _check_gamma(gamma0, force=True)
    return _checked_cv(gamma0, 1.0, 1.0, me)


def observed_cv_shifted(gamma0: float, shift: ShiftSpec, me: MeasurementErrorModel) -> float:
    """Out-of-control CV of the observed measurements under a shift for gamma0."""
    _check_gamma(gamma0, force=True)
    shift.check_gamma0(gamma0)
    return _checked_cv(gamma0, shift.tau, shift.b, me)


def _checked_cv(gamma0: float, tau: float, b: float, me: MeasurementErrorModel) -> float:
    """``_observed_cv`` at one float tau, refused where a square, the
    denominator or the CV is not finite.  Every refusal is monotone in tau."""
    for name, value in (("slope", me.slope), ("eta", me.eta), ("b", b)):
        if not value < _SQUARE_MAX:  # from 2^512 on, ** overflows
            raise DomainError(f"{name} must be below 2**511 for its square to stay finite, got {value}")
    denom = me.theta + me.slope * b / tau
    if not 0 < denom < math.inf:
        raise DomainError(f"theta + B*b/tau must be positive and finite, got {denom}")
    cv = _observed_cv(gamma0, tau, b, me)
    if not cv < math.inf:
        raise DomainError(f"the observed CV must be finite, got {cv}")
    return cv


def _observed_cv(gamma0: float, tau: float | np.ndarray, b: float, me: MeasurementErrorModel) -> float | np.ndarray:
    """The observed CV at shift tau with std multiplier b, unchecked, at a float
    tau or elementwise over an array of them with the same float operations:
    where an ascending array's end taus pass ``_checked_cv``, every tau does."""
    return float(gamma0) * math.sqrt(me.slope**2 * b**2 + me.eta**2 / me.reps) / (me.theta + me.slope * b / tau)
