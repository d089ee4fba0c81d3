"""Sampling distribution of the squared sample coefficient of variation,
plus second-moment approximations for it.

For a normal sample of size n with true CV gamma, the squared sample CV
relates to a noncentral F variate:

    F_cv2(x)  = 1 - F_F(n/x | 1, n-1, n/gamma^2)
    f_cv2(x)  = (n/x^2) f_F(n/x | 1, n-1, n/gamma^2)
              = sum_j w_j (1/2 + j) T_j(n/x) / x

with the Poisson weights w_j and beta decrements T_j of ``specfun``.
These forms are only trustworthy for gamma < 0.5; larger values are
rejected unless explicitly forced (out-of-control evaluations can push
the effective CV past the window and callers opt in knowingly).
F_cv2(x^2) is P(|CV| <= x); every chart works through F_cv2 alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from . import specfun
from .errors import DomainError, GammaDomainError, as_integer, as_real, store_reals
from .specfun import NoncentralParams

__all__ = [
    "GAMMA_VALIDITY_LIMIT",
    "ProcessModel",
    "Cv2Moments",
    "cv2_cdf",
    "cv2_pdf",
    "cv2_moments",
]

GAMMA_VALIDITY_LIMIT = 0.5

# CDF evaluation profiles: "exact" is the tight-tolerance kernel;
# "cdflib" reproduces legacy library truncation (see specfun).
_PROFILES = ("exact", "cdflib")
# n / gamma^2 stays finite above this floor for every n under 1.8e8; below
# it gamma^2 nears underflow, and n / gamma^2 overflows or divides by zero.
_GAMMA_FLOOR = 1e-150
# gamma^2 stays finite below this ceiling, so no level overflows it.
_GAMMA_CEILING = 1e150


def _check_gamma(gamma: float, force: Optional[bool] = None) -> float:
    # ``gamma`` as a checked float.  ``force`` is the caller's own flag;
    # None where it has none, and then the refusal offers none.
    gamma = as_real(gamma, "gamma")
    if not _GAMMA_FLOOR <= gamma < math.inf:  # force opens the window, never to inf or NaN
        raise GammaDomainError(f"gamma must be finite and at least {_GAMMA_FLOOR}, got {gamma}")
    if not gamma < _GAMMA_CEILING:
        raise GammaDomainError(f"gamma must be below {_GAMMA_CEILING} for its square to stay finite, got {gamma}")
    if gamma >= GAMMA_VALIDITY_LIMIT and not force:
        hint = "; pass force=True to evaluate anyway" if force is not None else ""
        raise GammaDomainError(
            f"gamma = {gamma} is outside the validity window [{_GAMMA_FLOOR}, {GAMMA_VALIDITY_LIMIT}){hint}"
        )
    return gamma


def _check_levels(n: int, gammas: Sequence[float], force: bool, profile: str) -> list[float]:
    as_integer(n, "subgroup size n", 2)
    gammas = [_check_gamma(gamma, force) for gamma in gammas]
    if profile not in _PROFILES:
        raise DomainError(f"unknown profile {profile!r}, expected one of {_PROFILES}")
    return gammas


def _f_params(n: int, gamma: float) -> NoncentralParams:
    return NoncentralParams(1.0, float(n - 1), n / (gamma * gamma))


@dataclass(frozen=True)
class ProcessModel:
    """In-control CV gamma0 and subgroup size n of the monitored process."""

    gamma0: float
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", as_integer(self.n, "subgroup size n", 2))
        object.__setattr__(self, "gamma0", _check_gamma(self.gamma0))


@dataclass(frozen=True)
class Cv2Moments:
    """Approximate mean and standard deviation of the squared sample CV."""

    mean: float
    std: float

    def __post_init__(self) -> None:
        store_reals(self, "mean", "std")
        if not (0 < self.mean < math.inf and 0 < self.std < math.inf):
            raise DomainError(f"moments must be positive and finite, got mean={self.mean}, std={self.std}")


def cv2_cdf(x: float, n: int, gamma: float, *, force: bool = False, profile: str = "exact") -> float:
    """P(squared sample CV <= x); returns 0 for x <= 0 and 1 at +inf."""
    x = as_real(x, "x")
    (gamma,) = _check_levels(n, [gamma], force, profile)
    if x <= 0.0:
        return 0.0
    kernel = specfun.noncentral_f_cdf_cdflib if profile == "cdflib" else specfun.noncentral_f_cdf
    return 1.0 - kernel(n / x, _f_params(n, gamma))


def _cv2_cdf_levels(x: float, n: int, gammas: Sequence[float], *, profile: str = "exact") -> list[float]:
    """``cv2_cdf`` with ``force=True`` at one x for each CV level in
    ``gammas``, in order, from one call of the batched kernel
    ``specfun._f_cdf_levels``."""
    gammas = _check_levels(n, gammas, True, profile)
    if x <= 0.0:
        return [0.0] * len(gammas)
    lams = [n / (gamma * gamma) for gamma in gammas]
    return [1.0 - c for c in specfun._f_cdf_levels(n / x, 1.0, float(n - 1), lams, cdflib=profile == "cdflib")]


def _cv2_cdf_pdf(x: float, n: int, gamma: float) -> tuple[float, float]:
    """``cv2_cdf`` and ``cv2_pdf`` at x for a checked level, from one
    kernel pass (``specfun._f_cdf_pdf``); (0, 0) for x <= 0."""
    if x <= 0.0:
        return 0.0, 0.0
    cdf, yf = specfun._f_cdf_pdf(n / x, _f_params(n, gamma))
    return 1.0 - cdf, yf / x


def cv2_pdf(x: float, n: int, gamma: float, *, force: bool = False) -> float:
    """Density of the squared sample CV at x > 0.

    (n/x^2) f_F(n/x) with f_F(y) = sum_j w_j (1/2 + j) T_j(y) / y is that
    same Poisson mixture divided by x (``specfun._f_pdf_over``), so no
    n/x^2 factor overflows as x -> 0.  0.0 where n/x overflows or the
    density is below e^-700.
    """
    x = as_real(x, "x")
    (gamma,) = _check_levels(n, [gamma], force, "exact")
    if not x > 0.0:
        raise DomainError(f"x must be positive, got {x}")
    return specfun._f_pdf_over(n / x, _f_params(n, gamma), x)


def moments_for_gamma(gamma: float, n: int) -> Cv2Moments:
    """Second-moment approximation of the squared sample CV at a CV level
    in the validity window (bias-corrected mean, matched variance)."""
    as_integer(n, "subgroup size n", 2)
    gamma = _check_gamma(gamma)
    g2 = gamma * gamma
    mean = g2 * (1.0 - 3.0 * g2 / n)
    mse = g2 * g2 * (2.0 / (n - 1) + g2 * (4.0 / n + 20.0 / (n * (n - 1)) + 75.0 * g2 / (n * n)))
    radicand = mse - (mean - g2) ** 2
    if not radicand > 0.0:
        raise DomainError(f"variance radicand is non-positive ({radicand}) at gamma={gamma}, n={n}")
    return Cv2Moments(mean, math.sqrt(radicand))


def cv2_moments(pm: ProcessModel) -> Cv2Moments:
    """In-control mean and standard deviation of the squared sample CV."""
    return moments_for_gamma(pm.gamma0, pm.n)
