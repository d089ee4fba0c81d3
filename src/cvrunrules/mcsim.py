"""Independent Monte Carlo oracle for the chart mathematics.

Simulates observed subgroups under the linear covariate measurement-error
model, computes their squared sample CVs, tracks run-rule states and
estimates run-length metrics empirically.  Nothing here reuses the
analytic distribution code, so agreement between this module and the
exact Markov results cross-validates both; only the run-rule states come
from the integer tables of ``runrules.rule_automaton``.

Each subgroup is drawn through its two sufficient statistics.  An
averaged item A + B*X + mean(eps) is a linear combination of independent
normals, hence exactly normal with mean mu* and variance sigma*^2 written
below from the model's definition.  For n normal items the sample mean
and sample variance are independent, with
X-bar* ~ N(mu*, sigma*^2/n) and (n - 1) S*^2 / sigma*^2 ~ chi^2_{n-1},
so one normal and one chi-square variate give a subgroup's (S*/X-bar*)^2
with the exact law that n*(1 + m) item and error draws would give.  That
item-level pipeline is the tests' reference for this sampler
(``tests/pipeline.py``).

Replications are split into fixed-size chunks, each driven by its own
counter-based Philox stream keyed on (seed, chunk index).  Estimates are
therefore deterministic for a given seed and invariant to any parallel
execution schedule over chunks.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .cvdist import ProcessModel, _check_gamma
from .design import ChartDesign
from .errors import DomainError, as_integer
from .merror import MeasurementErrorModel, ShiftSpec
from .runrules import Direction, RunLengthMethod, RunLengthMetrics, rule_automaton

__all__ = ["SimConfig", "simulate_subgroup", "simulate_subgroups", "estimate_run_length"]

logger = logging.getLogger(__name__)

# WLOG normalization of the true process: the CV alone fixes the law of
# the sample CV, so mu0 = 1, sigma0 = gamma0.
_MU0 = 1.0

_CHUNK = 1 << 16


@dataclass(frozen=True)
class SimConfig:
    """Replication count, master seed, and the run-length truncation guard."""

    replications: int
    seed: int
    max_run_length: int = 10_000_000

    def __post_init__(self) -> None:
        object.__setattr__(self, "replications", as_integer(self.replications, "replications", 1))
        object.__setattr__(self, "seed", as_integer(self.seed, "seed", 0))
        if self.seed >= 2**64:
            raise DomainError("seed must be a 64-bit unsigned integer")
        object.__setattr__(self, "max_run_length", as_integer(self.max_run_length, "max_run_length", 1))


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    key = np.array([seed, chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def simulate_subgroups(
    size: int,
    n: int,
    gamma0: float,
    shift: ShiftSpec,
    me: MeasurementErrorModel,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw ``size`` observed squared sample CVs from their exact law.

    True items are N(mu0 + a*sigma0, (b*sigma0)^2); each item is measured
    m times as A + B*X + eps with eps ~ N(0, (eta*sigma0)^2) and the m
    measurements averaged.  The averages are normal with mean
    mu* = theta*mu0 + B*(mu0 + a*sigma0) and variance
    sigma*^2 = (B*b*sigma0)^2 + (eta*sigma0)^2/m, so each subgroup takes
    one normal draw for its mean and then one chi-square draw for its
    variance.  Returns (S*/mean*)^2 over the n averages.
    """
    size = as_integer(size, "size", 0)
    n = as_integer(n, "subgroup size n", 2)
    _check_gamma(gamma0, force=False)
    shift.check_gamma0(gamma0)
    sigma0 = gamma0 * _MU0
    mean_star = me.theta * _MU0 + me.slope * (_MU0 + shift.a * sigma0)
    var_star = (me.slope * shift.b * sigma0) ** 2 + (me.eta * sigma0) ** 2 / me.reps
    sd_mean = math.sqrt(var_star / n)
    var_scale = var_star / (n - 1)
    out = np.empty(size)
    todo = np.arange(size)
    redraws = 0
    while todo.size:
        xbar = rng.normal(mean_star, sd_mean, size=todo.size)
        s2 = rng.chisquare(n - 1, size=todo.size) * var_scale
        ok = xbar != 0.0
        out[todo[ok]] = s2[ok] / xbar[ok] ** 2
        redraws += int((~ok).sum())
        todo = todo[~ok]
    if redraws:
        logger.warning("re-drew %d subgroups with a zero observed mean", redraws)
    return out


def simulate_subgroup(
    n: int,
    gamma0: float,
    shift: ShiftSpec,
    me: MeasurementErrorModel,
    rng: np.random.Generator,
) -> float:
    """Single observed squared sample CV."""
    return float(simulate_subgroups(1, n, gamma0, shift, me, rng)[0])


def estimate_run_length(
    design: ChartDesign,
    pm: ProcessModel,
    me: MeasurementErrorModel | None = None,
    shift: ShiftSpec | None = None,
    cfg: SimConfig = SimConfig(replications=100_000, seed=20230517),
) -> RunLengthMetrics:
    """Empirical ARL/SDRL of a designed chart under the simulated pipeline.

    Runs that reach cfg.max_run_length are truncated at that length and
    counted in the ``truncated`` field of the result.
    """
    me = me if me is not None else MeasurementErrorModel.identity()
    shift = shift if shift is not None else ShiftSpec.in_control(pm.gamma0)
    automaton = rule_automaton(design.rule.r, design.rule.s)
    upper = design.rule.direction is Direction.UPPER

    total = 0.0
    total_sq = 0.0
    count = 0
    truncated = 0
    n_chunks = (cfg.replications + _CHUNK - 1) // _CHUNK
    for chunk_index in range(n_chunks):
        size = min(_CHUNK, cfg.replications - chunk_index * _CHUNK)
        rng = _chunk_rng(cfg.seed, chunk_index)
        state = np.full(size, automaton.initial_index, dtype=np.int64)
        alive = np.arange(size)
        lengths = np.zeros(size, dtype=np.int64)
        step = 0
        while alive.size:
            step += 1
            if step > cfg.max_run_length:
                lengths[alive] = cfg.max_run_length
                truncated += alive.size
                break
            g2 = simulate_subgroups(alive.size, pm.n, pm.gamma0, shift, me, rng)
            outside = g2 > design.limit if upper else g2 < design.limit
            current = state[alive]
            nxt = np.where(outside, automaton.t_out[current], automaton.t_in[current])
            absorbed = nxt < 0
            lengths[alive[absorbed]] = step
            keep = ~absorbed
            state[alive[keep]] = nxt[keep]
            alive = alive[keep]
        chunk_lengths = lengths.astype(float)
        total += chunk_lengths.sum()
        total_sq += (chunk_lengths * chunk_lengths).sum()
        count += size

    mean = total / count
    variance = max(total_sq / count - mean * mean, 0.0) * count / max(count - 1, 1)
    sd = math.sqrt(variance)
    return RunLengthMetrics(
        arl=mean,
        sdrl=sd,
        method=RunLengthMethod.MONTE_CARLO,
        stderr=sd / math.sqrt(count),
        truncated=truncated,
    )
