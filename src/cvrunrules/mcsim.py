"""Independent Monte Carlo oracle for the chart mathematics.

Simulates observed subgroups under the linear covariate measurement-error
model, computes their squared sample CVs and estimates run-length metrics
empirically.  Nothing here reuses the analytic distribution code or the
run-rule chain (a run signals at the first point whose trailing s points
hold r or more outside the limit), so agreement with the exact Markov
results cross-validates both.

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

Replications are split into fixed-size chunks, each with its own SFC64
stream seeded by ``SeedSequence([seed, chunk index])``.  Estimates are
therefore deterministic for a given seed and invariant to any parallel
execution schedule over chunks.  SFC64 rather than a counter-based
generator: with a stream per chunk the counter buys nothing, and numpy
draws the sampler's variates about 1.4 times faster from SFC64 than from
Philox.  Estimates for a seed differ, within their standard errors, from
releases that drew from Philox streams.  A chunk draws time-major blocks
of B points per live replication, B set only by what has been observed.
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
from .runrules import Direction, RunLengthMethod, RunLengthMetrics

__all__ = ["SimConfig", "simulate_subgroups", "estimate_run_length"]

logger = logging.getLogger(__name__)

# WLOG normalization of the true process: the CV alone fixes the law of
# the sample CV, so mu0 = 1, sigma0 = gamma0.
_MU0 = 1.0

# The observed mean and the two standard-deviation terms stay below 2^500:
# numpy's normal deviates stay below 14 in magnitude and chi2/(n - 1) below
# 2^8 (both are built from 53-bit uniforms), so no square or product in the
# draws reaches 2^1024.  The mean stays above 2^-500, where its square is
# nonzero; below, every draw of a near-constant mean squares to 0 and the
# zero-mean redraw never ends.
_MOMENT_MAX = 2.0**500
_MOMENT_MIN = 2.0**-500

_CHUNK = 1 << 16
_BLOCK = 1 << 14  # values per block draw, unless one row of live replications is more


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
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed, chunk_index])))


def simulate_subgroups(
    size: int, n: int, gamma0: float, shift: ShiftSpec, me: MeasurementErrorModel, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``size`` observed squared sample CVs from their exact law.

    True items are N(mu0 + a*sigma0, (b*sigma0)^2); each item is measured
    m times as A + B*X + eps with eps ~ N(0, (eta*sigma0)^2) and the m
    measurements averaged.  The averages are normal with mean
    mu* = theta*mu0 + B*(mu0 + a*sigma0) and variance
    sigma*^2 = (B*b*sigma0)^2 + (eta*sigma0)^2/m, so each subgroup takes
    one normal draw for its mean and then one chi-square draw for its
    variance.  Returns (S*/mean*)^2 over the n averages.  Refuses, before
    any draw, a mu* outside (2^-500, 2^500) and a B*b*sigma0 or
    eta*sigma0 of 2^500 or more.
    """
    size = as_integer(size, "size", 0)
    n = as_integer(n, "subgroup size n", 2)
    _check_gamma(gamma0, force=False)
    shift.check_gamma0(gamma0)
    sigma0 = gamma0 * _MU0
    mean_star = me.theta * _MU0 + me.slope * (_MU0 + shift.a * sigma0)
    sd_item, sd_error = me.slope * shift.b * sigma0, me.eta * sigma0
    if not _MOMENT_MIN < mean_star < _MOMENT_MAX:
        raise DomainError(f"the observed mean mu* must lie in (2**-500, 2**500), got {mean_star}")
    if not (sd_item < _MOMENT_MAX and sd_error < _MOMENT_MAX):
        raise DomainError(f"B*b*sigma0 and eta*sigma0 must be below 2**500, got {sd_item} and {sd_error}")
    var_star = sd_item**2 + sd_error**2 / me.reps
    sd_mean = math.sqrt(var_star / n)
    var_scale = var_star / (n - 1)
    xbar2 = rng.normal(mean_star, sd_mean, size=size)
    np.square(xbar2, out=xbar2)
    out = rng.chisquare(n - 1, size=size)
    out *= var_scale
    zero = np.flatnonzero(xbar2 == 0.0)
    redraws = zero.size
    while zero.size:
        xbar2[zero] = np.square(rng.normal(mean_star, sd_mean, size=zero.size))
        out[zero] = rng.chisquare(n - 1, size=zero.size) * var_scale
        zero = zero[xbar2[zero] == 0.0]
        redraws += zero.size
    out /= xbar2
    if redraws:
        logger.warning("re-drew %d subgroups with a zero observed mean", redraws)
    return out


def _block_signals(outside: np.ndarray, ring: np.ndarray, count: np.ndarray, done: int, r: int) -> np.ndarray:
    """Row of each column's first signal in a block of points, or B if none.

    ``outside`` flags steps done + 1 .. done + B, a row per step and a column
    per replication; ``ring`` holds the last s flags, step k in row k % s,
    and ``count`` their sum.  Each row adds its flag to the trailing count
    and drops the one s steps back; ring and count advance in place.
    """
    rows, s = outside.shape[0], ring.shape[0]
    m = min(rows, s)
    window = outside.astype(count.dtype)
    window[:m] -= ring[(done + 1 + np.arange(m)) % s]
    window[m:] -= outside[: rows - m]
    ring[(done + 1 + np.arange(rows - m, rows)) % s] = outside[rows - m :]
    window[0] += count
    for t in range(1, rows):  # row by row: numpy accumulates axis 0 a column at a time
        window[t] += window[t - 1]
    count[:] = window[-1]
    return np.where(window >= r, np.arange(rows)[:, None], rows).min(axis=0)


def estimate_run_length(
    design: ChartDesign, pm: ProcessModel, me: MeasurementErrorModel | None = None,
    shift: ShiftSpec | None = None, cfg: SimConfig = SimConfig(replications=100_000, seed=20230517),
) -> RunLengthMetrics:
    """Empirical ARL/SDRL of a designed chart under the simulated pipeline.

    Runs that reach cfg.max_run_length are truncated at that length and
    counted in the ``truncated`` field of the result.  Each block holds
    B = max(1, min(2^14 // live, mean / 2, steps left)) points per live
    replication, at most max(live, 2^14) values, where mean is that of
    the chunk's finished runs (steps done + 1 before any has finished).
    """
    me = me if me is not None else MeasurementErrorModel.identity()
    shift = shift if shift is not None else ShiftSpec.in_control(pm.gamma0)

    total, total_sq, truncated = 0.0, 0.0, 0
    for start in range(0, cfg.replications, _CHUNK):
        size = min(_CHUNK, cfg.replications - start)
        rng = _chunk_rng(cfg.seed, start // _CHUNK)
        ring = np.zeros((design.rule.s, size), dtype=bool)
        count = np.zeros(size, dtype=np.min_scalar_type(-design.rule.s - 1))
        done, ended_sum = 0, 0.0
        while count.size and done < cfg.max_run_length:
            mean = ended_sum / (size - count.size) if count.size < size else done + 1
            rows = max(1, min(_BLOCK // count.size, int(mean / 2), cfg.max_run_length - done))
            g2 = simulate_subgroups(rows * count.size, pm.n, pm.gamma0, shift, me, rng).reshape(rows, count.size)
            outside = g2 > design.limit if design.rule.direction is Direction.UPPER else g2 < design.limit
            first = _block_signals(outside, ring, count, done, design.rule.r)
            signalled = first < rows
            lengths = first[signalled] + (done + 1.0)
            ended_sum += float(lengths.sum())
            total_sq += float((lengths * lengths).sum())
            live = np.flatnonzero(~signalled)
            ring, count = ring.take(live, axis=1), count.take(live)
            done += rows
        truncated += count.size
        total += ended_sum + count.size * float(done)
        total_sq += count.size * float(done) ** 2

    reps = cfg.replications
    mean = total / reps
    sd = math.sqrt(max(total_sq / reps - mean * mean, 0.0) * reps / max(reps - 1, 1))
    return RunLengthMetrics(mean, sd, RunLengthMethod.MONTE_CARLO, stderr=sd / math.sqrt(reps), truncated=truncated)
