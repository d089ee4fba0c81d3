"""Chart design: solve the chart constant against a target in-control ARL,
evaluate run-length performance at shifts, and integrate expected ARL over
shift ranges.

The control limit sits at mean -/+ k * std of the in-control squared-CV
law (lower/upper chart), with the moments taken at the observed in-control
CV when a measurement-error model is present.  The chart constant k is the
root of ARL(k; tau=1) = ARL0, found by bisection sharpened with secant
steps inside a fixed bracket; evaluations where the chain loses absorption
(limit unreachable) count as +infinity, which keeps the search monotone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from . import merror, runrules
from .cvdist import Cv2Moments, ProcessModel, moments_for_gamma
from .errors import ChainSingularError, DomainError, GammaDomainError, UnattainableDesignError
from .merror import MeasurementErrorModel, ShiftSpec
from .runrules import Direction, RunLengthMetrics, RunRule

__all__ = [
    "ChartDesign",
    "ShiftRange",
    "DECREASING_SHIFTS",
    "INCREASING_SHIFTS",
    "DEFAULT_ARL0",
    "solve_design",
    "arl_at_shift",
    "earl",
    "sweep",
]

DEFAULT_ARL0 = 370.4
_BRACKET = (0.0, 20.0)
_REL_TOL = 1e-6     # |ARL(k) - ARL0| <= _REL_TOL * ARL0
_K_TOL = 1e-9       # or bracket narrower than this
_MAX_ITER = 200


@dataclass(frozen=True)
class ChartDesign:
    """A solved one-sided chart: constant k, control limit, and the
    in-control moments it was anchored to."""

    rule: RunRule
    k: float
    limit: float
    arl0_target: float
    moments: Cv2Moments

    def __post_init__(self) -> None:
        expected = _limit_for(self.k, self.rule.direction, self.moments)
        if abs(expected - self.limit) > 1e-9 * max(1.0, abs(self.limit)):
            raise DomainError(f"limit {self.limit} does not match k={self.k} and the moments")
        if self.rule.direction is Direction.LOWER and self.limit <= 0.0:
            raise DomainError(f"lower control limit must be positive, got {self.limit}")

    @classmethod
    def from_limit(cls, rule: RunRule, limit: float, moments: Cv2Moments, arl0: float) -> "ChartDesign":
        """A chart with a given control limit; k is recovered from the moments."""
        sign = -1.0 if rule.direction is Direction.LOWER else 1.0
        k = sign * (limit - moments.mean) / moments.std
        return cls(rule=rule, k=k, limit=limit, arl0_target=arl0, moments=moments)


@dataclass(frozen=True)
class ShiftRange:
    """Uniformly weighted interval of shift sizes."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (0.0 < self.lo < self.hi):
            raise DomainError(f"need 0 < lo < hi, got [{self.lo}, {self.hi}]")


DECREASING_SHIFTS = ShiftRange(0.5, 1.0)
INCREASING_SHIFTS = ShiftRange(1.0, 2.0)


def _limit_for(k: float, direction: Direction, moments: Cv2Moments) -> float:
    if direction is Direction.LOWER:
        return moments.mean - k * moments.std
    return moments.mean + k * moments.std


def _arl_at_limit(
    limit: float,
    rule: RunRule,
    n: int,
    gamma_eval: float,
    *,
    profile: str,
    force: bool,
) -> RunLengthMetrics:
    p = runrules.in_control_prob(rule.direction, limit, n, gamma_eval, force=force, profile=profile)
    p = min(max(p, 0.0), 1.0)
    return runrules.arl(runrules.build_chain(rule, p))


def _solve_k(objective: Callable[[float], float], lo: float, hi: float, arl0: float) -> float:
    """Root of objective(k) = 0 on [lo, hi]; objective is increasing with
    +inf allowed.  Bisection with a secant candidate each step."""
    g_lo = objective(lo)
    if not math.isfinite(g_lo):
        raise UnattainableDesignError("in-control ARL is infinite over the whole bracket")
    if g_lo > 0:
        raise UnattainableDesignError(
            f"in-control ARL at k={lo} is already {g_lo + arl0:.4g} > target {arl0}"
        )
    g_hi = objective(hi)
    if math.isfinite(g_hi) and g_hi < 0:
        raise UnattainableDesignError(
            f"target ARL {arl0} not reachable inside the bracket; "
            f"maximum achievable is {g_hi + arl0:.6g} at k={hi}"
        )
    k_lo, k_hi = lo, hi
    f_lo, f_hi = g_lo, g_hi
    best_k, best_g = k_lo, abs(g_lo)
    for _ in range(_MAX_ITER):
        mid = 0.5 * (k_lo + k_hi)
        # Secant candidate only when both bracket values are finite and usable.
        if math.isfinite(f_lo) and math.isfinite(f_hi) and f_hi != f_lo:
            sec = k_lo - f_lo * (k_hi - k_lo) / (f_hi - f_lo)
            if k_lo + 0.1 * (k_hi - k_lo) < sec < k_hi - 0.1 * (k_hi - k_lo):
                mid = sec
        g_mid = objective(mid)
        if math.isfinite(g_mid) and abs(g_mid) < best_g:
            best_k, best_g = mid, abs(g_mid)
        if math.isfinite(g_mid) and abs(g_mid) <= _REL_TOL * arl0:
            return mid
        if not math.isfinite(g_mid) or g_mid > 0:
            k_hi, f_hi = mid, g_mid
        else:
            k_lo, f_lo = mid, g_mid
        if k_hi - k_lo < _K_TOL:
            break
    if best_g <= _REL_TOL * arl0 or k_hi - k_lo < _K_TOL:
        return best_k
    raise UnattainableDesignError(f"chart-constant solve did not converge (residual {best_g:.3g})")


def solve_design(
    rule: RunRule,
    pm: ProcessModel,
    me: Optional[MeasurementErrorModel] = None,
    arl0: float = DEFAULT_ARL0,
    *,
    profile: str = "exact",
) -> ChartDesign:
    """Solve the chart constant so the in-control ARL equals arl0.

    With a measurement-error model the observed in-control CV replaces the
    true one in both the moments and the plotted-statistic law; the
    identity model reproduces the error-free design exactly.
    """
    if not arl0 > 1.0:
        raise DomainError(f"arl0 must exceed 1, got {arl0}")
    me = me if me is not None else MeasurementErrorModel.identity()
    gamma_in = merror.observed_cv_incontrol(pm.gamma0, me)
    if not 0.0 < gamma_in < 0.5:
        raise GammaDomainError(
            f"observed in-control CV {gamma_in:.6g} is outside the validity window"
        )
    moments = moments_for_gamma(gamma_in, pm.n)

    def objective(k: float) -> float:
        limit = _limit_for(k, rule.direction, moments)
        try:
            metrics = _arl_at_limit(limit, rule, pm.n, gamma_in, profile=profile, force=False)
        except ChainSingularError:
            return math.inf
        return metrics.arl - arl0

    k = _solve_k(objective, _BRACKET[0], _BRACKET[1], arl0)
    limit = _limit_for(k, rule.direction, moments)
    if rule.direction is Direction.LOWER and limit <= 0.0:
        raise UnattainableDesignError(
            f"solved lower limit {limit:.6g} is not positive; the chart cannot signal"
        )
    return ChartDesign(rule=rule, k=k, limit=limit, arl0_target=arl0, moments=moments)


def arl_at_shift(
    design: ChartDesign,
    pm: ProcessModel,
    me: Optional[MeasurementErrorModel] = None,
    shift: Optional[ShiftSpec] = None,
    *,
    profile: str = "exact",
) -> RunLengthMetrics:
    """Exact run-length metrics of an existing design at a shift.

    Shifted evaluations may push the observed CV past the approximation
    window; they are evaluated anyway (the design itself stays guarded).
    """
    me = me if me is not None else MeasurementErrorModel.identity()
    shift = shift if shift is not None else ShiftSpec.in_control(pm.gamma0)
    gamma_eval = merror.observed_cv_shifted(pm.gamma0, shift, me)
    return _arl_at_limit(design.limit, design.rule, pm.n, gamma_eval, profile=profile, force=True)


def earl(
    design: ChartDesign,
    pm: ProcessModel,
    me: Optional[MeasurementErrorModel],
    shift_range: ShiftRange,
    *,
    nodes: int = 64,
    profile: str = "exact",
    b: float = 1.0,
) -> float:
    """Expected ARL over a uniformly weighted shift range, by fixed-order
    Gauss-Legendre quadrature.

    Shifts are realized with the standard-deviation multiplier b held
    fixed (default 1) and the mean-shift component following tau.
    """
    if nodes < 8:
        raise DomainError(f"need at least 8 quadrature nodes, got {nodes}")
    me = me if me is not None else MeasurementErrorModel.identity()
    x, w = np.polynomial.legendre.leggauss(nodes)
    half_width = 0.5 * (shift_range.hi - shift_range.lo)
    mid = 0.5 * (shift_range.hi + shift_range.lo)
    total = 0.0
    for xi, wi in zip(x, w):
        tau = half_width * xi + mid
        metrics = arl_at_shift(design, pm, me, ShiftSpec.from_tau(tau, pm.gamma0, b=b), profile=profile)
        total += wi * metrics.arl
    # weights integrate to the interval length; uniform density divides it out
    return total * half_width / (shift_range.hi - shift_range.lo)


def sweep(
    rules: Sequence[RunRule],
    grid: Mapping[str, Sequence[float]],
    *,
    arl0: float = DEFAULT_ARL0,
    profile: str = "exact",
    nodes: int = 64,
) -> list[dict[str, object]]:
    """Cartesian-product evaluation over chart and model parameters.

    Recognized grid axes (each an iterable): gamma0, n, theta, eta, B, m,
    tau, and optionally shift ranges via omega = [(lo, hi), ...].  Exactly
    one of tau / omega drives the performance column: tau rows emit
    ARL/SDRL, omega rows emit EARL.  Per-cell failures are recorded in the
    row's ``error`` column and the sweep continues.
    """
    axes = dict(grid)
    gamma0s = list(axes.pop("gamma0", [0.05]))
    ns = list(axes.pop("n", [5]))
    thetas = list(axes.pop("theta", [0.0]))
    etas = list(axes.pop("eta", [0.0]))
    slopes = list(axes.pop("B", [1.0]))
    reps = list(axes.pop("m", [1]))
    taus = axes.pop("tau", None)
    omegas = axes.pop("omega", None)
    if axes:
        raise DomainError(f"unknown sweep axes: {sorted(axes)}")
    if (taus is None) == (omegas is None):
        raise DomainError("exactly one of 'tau' or 'omega' must be supplied")

    shift_cells = list(taus) if taus is not None else list(omegas)
    is_tau = taus is not None
    rows: list[dict[str, object]] = []
    design_cache: dict[tuple, ChartDesign] = {}
    for rule, n, gamma0, theta, eta, slope, m in itertools.product(
        rules, ns, gamma0s, thetas, etas, slopes, reps
    ):
        base = {
            "rule_r": rule.r,
            "rule_s": rule.s,
            "direction": rule.direction.value,
            "n": n,
            "gamma0": gamma0,
            "theta": theta,
            "eta": eta,
            "B": slope,
            "m": m,
        }
        key = (rule, n, gamma0, theta, eta, slope, m, arl0, profile)
        try:
            me = MeasurementErrorModel(theta=theta, eta=eta, slope=slope, reps=m)
            pm = ProcessModel(gamma0=gamma0, n=n)
            if key not in design_cache:
                design_cache[key] = solve_design(rule, pm, me, arl0, profile=profile)
            design = design_cache[key]
        except Exception as exc:  # per-cell capture by contract
            for cell in shift_cells:
                row = dict(base, k=None, limit=None)
                _fill_shift_columns(row, cell, is_tau)
                row.update(arl=None, sdrl=None, earl=None, error=str(exc))
                rows.append(row)
            continue
        for cell in shift_cells:
            row = dict(base, k=design.k, limit=design.limit)
            _fill_shift_columns(row, cell, is_tau)
            try:
                if is_tau:
                    metrics = arl_at_shift(
                        design, pm, me, ShiftSpec.from_tau(float(cell), gamma0), profile=profile
                    )
                    row.update(arl=metrics.arl, sdrl=metrics.sdrl, earl=None, error=None)
                else:
                    lo, hi = cell
                    value = earl(design, pm, me, ShiftRange(lo, hi), nodes=nodes, profile=profile)
                    row.update(arl=None, sdrl=None, earl=value, error=None)
            except Exception as exc:
                row.update(arl=None, sdrl=None, earl=None, error=str(exc))
            rows.append(row)
    return rows


def _fill_shift_columns(row: dict[str, object], cell: object, is_tau: bool) -> None:
    if is_tau:
        row["tau"] = float(cell)  # type: ignore[arg-type]
        row["omega_lo"] = row["omega_hi"] = None
    else:
        lo, hi = cell  # type: ignore[misc]
        row["tau"] = None
        row["omega_lo"] = lo
        row["omega_hi"] = hi


SWEEP_COLUMNS: tuple[str, ...] = (
    "rule_r",
    "rule_s",
    "direction",
    "n",
    "gamma0",
    "theta",
    "eta",
    "B",
    "m",
    "tau",
    "omega_lo",
    "omega_hi",
    "k",
    "limit",
    "arl",
    "sdrl",
    "earl",
    "error",
)
