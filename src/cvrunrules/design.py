"""Chart design: solve the chart constant against a target in-control ARL,
evaluate run-length performance at shifts, and integrate expected ARL over
shift ranges.

The control limit sits at mean -/+ k * std of the in-control squared-CV
law (lower/upper chart), with the moments taken at the observed in-control
CV when a measurement-error model is present.  The in-control ARL depends
on k only through the inside probability p, so the design takes two roots
of one root finder, ``_root``.  p* with ARL(p*) = ARL0 comes from the
run-rule chain alone by bracketed Illinois regula falsi, cached per
(r, s, ARL0).  Then k in [0, 20] with logit p(k) = logit p*: in the exact
profile by safeguarded Newton from the normal quantile of p*, where one
kernel pass (``cvdist._cv2_cdf_pdf``) gives p and its slope
dp/dk = std * f(limit), and a bracket end is evaluated only when a step
would leave the bracket there.  On the benchmark's ``design_grid`` that is
5.3 (seed 1) and 5.5 (seed 7919) kernel passes per exact design, against
9.8 and 10.0 CDF calls for regula falsi.  The ``cdflib`` profile keeps the
regula falsi from both bracket ends, whose limits are pinned to the last
bit (the example ``monitor`` run's CSV and JSON bytes).

Every evaluation (``arl_at_shift``, ``earl``) goes through one helper: one
batched CDF call (``specfun._f_cdf_levels``) gives the inside probability
p at every CV level, and ``runrules.run_length_metrics`` solves the
run-rule chain on its lumped matrix filled straight from p, so the full
history chain is never built.  The 64 EARL nodes share one limit, so they
share the kernel's beta column, and go to the chain as one stack.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from . import cvdist, merror, runrules
from .cvdist import Cv2Moments, ProcessModel, moments_for_gamma
from .errors import ChainSingularError, DomainError, GammaDomainError, UnattainableDesignError, as_integer
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
# Roots stop at |f| <= _TOL or a bracket narrower than _TOL * max(1, |x|);
# both objectives, log(ARL / ARL0) and a logit difference, are unitless.
_TOL = 1e-13
_MAX_ITER = 100
_P_TOP = 1.0 - 2.0**-53


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
        if not (math.isfinite(self.k) and math.isfinite(self.limit)):
            raise DomainError(f"k and limit must be finite, got k={self.k}, limit={self.limit}")
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
        if not (0.0 < self.lo < self.hi < math.inf):
            raise DomainError(f"need 0 < lo < hi < inf, got [{self.lo}, {self.hi}]")


DECREASING_SHIFTS = ShiftRange(0.5, 1.0)
INCREASING_SHIFTS = ShiftRange(1.0, 2.0)


def _limit_for(k: float, direction: Direction, moments: Cv2Moments) -> float:
    if direction is Direction.LOWER:
        return moments.mean - k * moments.std
    return moments.mean + k * moments.std


def _metrics_at_levels(
    limit: float,
    rule: RunRule,
    n: int,
    gammas: Sequence[float],
    *,
    profile: str,
) -> list[RunLengthMetrics]:
    """Exact run-length metrics of a chart at each observed CV level, which
    may lie past the gamma validity window: one batched CDF call for all
    levels, then one ``run_length_metrics`` call."""
    ps = runrules._in_control_probs(rule.direction, limit, n, gammas, force=True, profile=profile)
    return runrules.run_length_metrics(rule, ps)


def _root(
    f: Callable[[float], tuple[float, Optional[float]]],
    lo: float,
    hi: float,
    f_lo: Optional[float] = None,
    f_hi: Optional[float] = None,
    *,
    start: Optional[float] = None,
) -> float:
    """Root of f on [lo, hi], where f(lo) < 0 < f(hi); f(x) returns f's
    value at x and, from a ``start``, its slope there.

    Illinois regula falsi on the given f_lo, f_hi: the false-position point
    replaces the end of its own sign, and when the other end survives twice
    running its value is halved, so both ends close in.  The sign change
    stays bracketed, so a slightly non-monotone f (the ``cdflib`` CDF) still
    converges.

    From a ``start``, safeguarded Newton: each point moves the end of its
    own sign and steps by -f/f'.  A step that would leave the open bracket,
    or a slope that is not positive, bisects the bracket instead; only then
    are the ends still given as None evaluated.

    Stops at |f| <= _TOL, or at a step or bracket narrower than
    _TOL * max(1, |x|).
    """
    kept = 0  # +1 after a point that moved lo, -1 after one that moved hi
    x = start
    for _ in range(_MAX_ITER):
        if x is None:
            if f_lo is None:
                f_lo = f(lo)[0]
            if f_hi is None:
                f_hi = f(hi)[0]
            x = (lo * f_hi - hi * f_lo) / (f_hi - f_lo) if start is None else 0.5 * (lo + hi)
            if hi - lo <= _TOL * max(1.0, abs(x)):
                return x
        fx, slope = f(x)
        if abs(fx) <= _TOL:
            return x
        if fx < 0.0:
            lo, f_lo = x, fx
            if kept > 0 and f_hi is not None:
                f_hi *= 0.5
            kept = 1
        else:
            hi, f_hi = x, fx
            if kept < 0 and f_lo is not None:
                f_lo *= 0.5
            kept = -1
        step = fx / slope if start is not None and 0.0 < slope < math.inf else math.inf
        x = x - step if lo < x - step < hi else None
        if x is not None and abs(step) <= _TOL * max(1.0, abs(x)):
            return x
    raise UnattainableDesignError(f"root search did not converge on [{lo!r}, {hi!r}]")


def _normal_quantile(p: float) -> float:
    """The standard normal quantile, to 4.5e-4 (Abramowitz & Stegun 26.2.23)."""
    t = math.sqrt(-2.0 * math.log(min(p, 1.0 - p)))
    z = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308)))
    return z if p >= 0.5 else -z


@functools.lru_cache
def _p_star(r: int, s: int, arl0: float) -> float:
    """The inside probability at which the r-of-s chain's ARL equals arl0.

    Searched in u = -log(1 - p) on log(ARL / arl0), which is nearly linear
    in u.  At p = 0 every point signals and the ARL is r; from there u
    steps by log 2 (halving 1 - p) until the ARL passes arl0, so no chain
    solve sees an ARL much above 2^r * arl0.
    """
    if not arl0 > r:
        raise UnattainableDesignError(f"target ARL {arl0} is not above {r}, the ARL when every point violates")
    rule = RunRule(r, s, Direction.UPPER)

    def excess(u: float) -> tuple[float, None]:
        (metrics,) = runrules.run_length_metrics(rule, [-math.expm1(-u)])
        return math.log(metrics.arl / arl0), None

    step = math.log(2.0)
    lo, f_lo, hi, f_hi = 0.0, math.log(r / arl0), step, excess(step)[0]
    while f_hi < 0.0:
        lo, f_lo, hi = hi, f_hi, hi + step
        try:
            f_hi = excess(hi)[0]
        except ChainSingularError as exc:
            raise UnattainableDesignError(f"target ARL {arl0} is beyond what the chain resolves: {exc}") from exc
    return -math.expm1(-_root(excess, lo, hi, f_lo, f_hi))


def _incontrol_moments(pm: ProcessModel, me: Optional[MeasurementErrorModel]) -> tuple[float, Cv2Moments]:
    """The observed in-control CV and the squared-CV moments a chart's limit
    is anchored to."""
    me = me if me is not None else MeasurementErrorModel.identity()
    gamma_in = merror.observed_cv_incontrol(pm.gamma0, me)
    if not 0.0 < gamma_in < 0.5:
        raise GammaDomainError(
            f"observed in-control CV {gamma_in:.6g} is outside the validity window"
        )
    return gamma_in, moments_for_gamma(gamma_in, pm.n)


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
    if not 1.0 < arl0 < math.inf:
        raise DomainError(f"arl0 must be finite and exceed 1, got {arl0}")
    gamma_in, moments = _incontrol_moments(pm, me)
    p_star = _p_star(rule.r, rule.s, arl0)
    logit_star = math.log(p_star / (1.0 - p_star))
    lower = rule.direction is Direction.LOWER
    lo, hi = _BRACKET

    def excess(k: float, p: float) -> float:
        # The logit of p climbs about evenly with k where p itself flattens
        # toward 1; a p that rounds to 1 reads as the largest double below 1.
        p = min(p, _P_TOP)
        gap = math.log(p / (1.0 - p)) - logit_star
        if k == lo and gap > 0.0:
            raise UnattainableDesignError(f"in-control ARL at k={lo} is already above target {arl0}")
        if k == hi and gap < 0.0:
            raise UnattainableDesignError(f"target ARL {arl0} not reachable inside the bracket: k={hi} falls short")
        return gap

    def exact(k: float) -> tuple[float, float]:
        # dp/dk = std * pdf(limit) in both directions, from the CDF's own pass
        limit = _limit_for(k, rule.direction, moments)
        if lower and limit <= 0.0:
            return excess(k, 1.0), 0.0  # the statistic is nonnegative
        cdf, pdf = cvdist._cv2_cdf_pdf(limit, pm.n, gamma_in)
        p = min(1.0 - cdf if lower else cdf, _P_TOP)
        return excess(k, p), moments.std * pdf / (p * (1.0 - p))

    def by_profile(k: float) -> tuple[float, None]:
        limit = _limit_for(k, rule.direction, moments)
        return excess(k, runrules.in_control_prob(rule.direction, limit, pm.n, gamma_in, profile=profile)), None

    if profile == "exact":
        # Newton starts where a normal statistic's chart has its k, and
        # evaluates a bracket end only to step past it.
        k = _root(exact, lo, hi, start=min(max(_normal_quantile(p_star), lo), hi))
    else:
        # Regula falsi from both ends: the example monitor run's cdflib
        # limits are pinned to the last bit (tests/test_config_cli.py).
        k = _root(by_profile, lo, hi, by_profile(lo)[0], by_profile(hi)[0])
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
    shift.check_gamma0(pm.gamma0)
    gamma_eval = merror.observed_cv_shifted(pm.gamma0, shift, me)
    (metrics,) = _metrics_at_levels(design.limit, design.rule, pm.n, [gamma_eval], profile=profile)
    return metrics


# ``leggauss`` solves an n x n companion matrix: 8 MB at 1024 nodes, 7 GB
# at 30 000.  64 nodes already reach 5e-14 on the paper's charts.
_MAX_NODES = 1024


def _check_nodes(nodes: int) -> int:
    nodes = as_integer(nodes, "nodes", 8)
    if nodes > _MAX_NODES:
        raise DomainError(f"nodes must be <= {_MAX_NODES}, got {nodes}")
    return nodes


@functools.lru_cache
def _gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only: each
    ``leggauss`` call is an eigenvalue solve."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


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
    fixed (default 1) and the mean-shift component following tau.  The
    node count runs from 8 to ``_MAX_NODES``.
    """
    x, w = _gauss_legendre(_check_nodes(nodes))
    me = me if me is not None else MeasurementErrorModel.identity()
    half_width = 0.5 * (shift_range.hi - shift_range.lo)
    mid = 0.5 * (shift_range.hi + shift_range.lo)
    gammas = [
        merror.observed_cv_shifted(pm.gamma0, ShiftSpec.from_tau(half_width * xi + mid, pm.gamma0, b=b), me)
        for xi in x
    ]
    metrics = _metrics_at_levels(design.limit, design.rule, pm.n, gammas, profile=profile)
    total = 0.0
    for wi, m in zip(w, metrics):
        total += wi * m.arl
    # weights integrate to the interval length; uniform density divides it out
    return total * half_width / (shift_range.hi - shift_range.lo)


# The model axes of a sweep, in column and product order, with their defaults.
_SWEEP_AXES = (("n", 5), ("gamma0", 0.05), ("theta", 0.0), ("eta", 0.0), ("B", 1.0), ("m", 1))
SWEEP_COLUMNS: tuple[str, ...] = (
    "rule_r",
    "rule_s",
    "direction",
    *(axis for axis, _ in _SWEEP_AXES),
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
    ARL/SDRL, omega rows emit EARL.  Each row's keys are ``SWEEP_COLUMNS``
    in order.  Per-cell failures, of the design or of the shift, are
    recorded in the row's ``error`` column and the sweep continues; a bad
    ``nodes`` fails an omega sweep before any cell (a tau sweep ignores it).
    """
    axes = dict(grid)
    levels = [list(axes.pop(axis, [default])) for axis, default in _SWEEP_AXES]
    taus = axes.pop("tau", None)
    omegas = axes.pop("omega", None)
    if axes:
        raise DomainError(f"unknown sweep axes: {sorted(axes)}")
    if (taus is None) == (omegas is None):
        raise DomainError("exactly one of 'tau' or 'omega' must be supplied")

    # (tau, omega_lo, omega_hi) per shift cell
    if taus is not None:
        shift_cells = [(float(tau), None, None) for tau in taus]
    else:
        nodes = _check_nodes(nodes)
        shift_cells = [(None, lo, hi) for lo, hi in omegas]
    rows: list[dict[str, object]] = []
    for rule, *cell in itertools.product(rules, *levels):
        n, gamma0, theta, eta, slope, m = cell
        design, design_error = None, None
        try:
            me = MeasurementErrorModel(theta=theta, eta=eta, slope=slope, reps=m)
            pm = ProcessModel(gamma0=gamma0, n=n)
            design = solve_design(rule, pm, me, arl0, profile=profile)
        except Exception as exc:  # per-cell capture by contract
            design_error = str(exc)
        k, limit = (design.k, design.limit) if design is not None else (None, None)
        for tau, lo, hi in shift_cells:
            arl = sdrl = value = None
            error = design_error
            if design is not None:
                try:
                    if tau is not None:
                        metrics = arl_at_shift(design, pm, me, ShiftSpec.from_tau(tau, gamma0), profile=profile)
                        arl, sdrl = metrics.arl, metrics.sdrl
                    else:
                        value = earl(design, pm, me, ShiftRange(lo, hi), nodes=nodes, profile=profile)
                except Exception as exc:
                    error = str(exc)
            values = (rule.r, rule.s, rule.direction.value, *cell, tau, lo, hi, k, limit, arl, sdrl, value, error)
            rows.append(dict(zip(SWEEP_COLUMNS, values, strict=True)))
    return rows
