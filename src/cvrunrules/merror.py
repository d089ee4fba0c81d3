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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cvdist import _check_gamma, cv2_cdf
from .errors import DomainError, as_integer

__all__ = [
    "MeasurementErrorModel",
    "ShiftSpec",
    "observed_cv_incontrol",
    "observed_cv_shifted",
    "shift_from_ab",
    "observed_cv2_cdf",
]

_AB_CONSISTENCY_TOL = 1e-9
_GAMMA0_MATCH_RTOL = 1e-12


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
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
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
        """Shift of size tau realized with std multiplier b (default 1,
        i.e. the CV change comes from a mean shift)."""
        if not tau > 0:
            raise DomainError(f"tau must be positive, got {tau}")
        ratio = b / tau
        if math.isfinite(b) and not math.isfinite(ratio):
            raise DomainError(f"tau={tau} is too small: b/tau overflows for b={b}")
        _check_gamma(gamma0, force=True)
        a = (ratio - 1.0) / gamma0
        return cls(tau=tau, a=a, b=b, gamma0=gamma0)

    @classmethod
    def from_ab(cls, a: float, b: float, gamma0: float) -> "ShiftSpec":
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
    """tau = b / (1 + a * gamma0)."""
    if not b > 0:
        raise DomainError(f"b must be positive, got {b}")
    denom = 1.0 + a * gamma0
    if not denom > 0:
        raise DomainError(f"1 + a*gamma0 must be positive, got {denom}")
    return b / denom


def observed_cv_incontrol(gamma0: float, me: MeasurementErrorModel) -> float:
    """In-control CV of the observed (averaged) measurements."""
    denom = me.theta + me.slope
    if not denom > 0:
        raise DomainError(f"theta + B must be positive, got {denom}")
    return gamma0 * math.sqrt(me.slope**2 + me.eta**2 / me.reps) / denom


def observed_cv_shifted(gamma0: float, shift: ShiftSpec, me: MeasurementErrorModel) -> float:
    """Out-of-control CV of the observed measurements under the shift."""
    denom = me.theta + me.slope * shift.b / shift.tau
    if not denom > 0:
        raise DomainError(f"theta + B*b/tau must be positive, got {denom}")
    return gamma0 * math.sqrt(me.slope**2 * shift.b**2 + me.eta**2 / me.reps) / denom


def observed_cv2_cdf(
    x: float, n: int, gamma_star: float, *, force: bool = False, profile: str = "exact"
) -> float:
    """CDF of the squared observed sample CV: the error-free law with the
    observed CV in place of the true one."""
    return cv2_cdf(x, n, gamma_star, force=force, profile=profile)
