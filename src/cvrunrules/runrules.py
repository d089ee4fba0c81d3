"""r-of-s run-rule signaling as an absorbing Markov chain.

A chart signals the first time at least r of the last s plotted points
fall outside the control limit.  The transient states are the binary
histories of the last s-1 points that contain at most r-1 violations;
a new inside point (probability p) shifts the history, a new outside
point either absorbs (if the trailing s-window now holds r violations)
or shifts the history with a violation appended.  ``rule_automaton`` is
the one encoding of these histories; the chain, the Monte Carlo oracle
and phase-II monitoring all index its next-state tables.

States are ordered by descending history value (oldest point most
significant), which puts the all-inside history last; the initial
distribution is the unit mass on that state.

Many histories have the same future: 8-of-10 has 502 states but only
120 classes, 10-of-10 has 512 and 10.  ``rule_automaton`` also holds the
coarsest partition under which equivalent states absorb on the same input
and move to equivalent states (Moore refinement of the tables).  The
chain lumped onto those classes has the same run-length law (Kemeny &
Snell, *Finite Markov Chains*, 1960, sec. 6.3), so ``arl`` solves on the
k x k lumped matrix Q_k, q being the unit mass on the all-inside class:

    ARL  = q^T (I - Q_k)^{-1} 1
    SDRL = sqrt(2 q^T (I - Q_k)^{-2} Q_k 1 - ARL^2 + ARL)

The lumped matrix depends on p alone (p on the inside edges, 1 - p on
the outside edges that stay transient), so ``run_length_metrics`` fills
it straight from p and solves many p at once as stacked systems; ``arl``
and chart evaluation (``design``) both go through it, and neither builds
the full history chain that ``build_chain`` still returns.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .cvdist import cv2_cdf
from .errors import ChainSingularError, DomainError, as_integer

__all__ = [
    "Direction",
    "RunRule",
    "RuleAutomaton",
    "RuleChain",
    "RunLengthMethod",
    "RunLengthMetrics",
    "rule_automaton",
    "build_chain",
    "in_control_prob",
    "arl",
]

# p this close to 1 leaves no numerically meaningful absorption mass.
_P_SINGULAR = 1.0 - 1e-12
# Entries per stack of lumped matrices (0.5 MB): a whole 64-node EARL for
# short rules, 4 matrices at a time for 8-of-10 (k = 120).
_STACK_DOUBLES = 65536


class Direction(str, enum.Enum):
    UPPER = "upper"
    LOWER = "lower"


class RunLengthMethod(str, enum.Enum):
    EXACT_MARKOV = "exact_markov"
    MONTE_CARLO = "monte_carlo"


@dataclass(frozen=True)
class RunRule:
    """Signal when r of the last s points fall beyond the control limit."""

    r: int
    s: int
    direction: Direction

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", as_integer(self.r, "r", 1))
        object.__setattr__(self, "s", as_integer(self.s, "s", 1))
        if not (1 <= self.r <= self.s):
            raise DomainError(f"need 1 <= r <= s, got r={self.r}, s={self.s}")
        object.__setattr__(self, "direction", Direction(self.direction))

    @property
    def label(self) -> str:
        return f"{self.r}-of-{self.s} {self.direction.value}"


@dataclass(frozen=True)
class RuleAutomaton:
    """History states of an r-of-s rule, their read-only next-state tables
    and the coarsest partition of the states into interchangeable classes."""

    states: tuple[tuple[int, ...], ...]  # bit tuples, oldest first, 1 = violation
    t_in: np.ndarray  # next state after an inside point
    t_out: np.ndarray  # next state after an outside point; -1 absorbs
    initial_index: int  # the all-inside history
    block: np.ndarray  # class of each state
    representatives: np.ndarray  # one state per class, in class order


def _partition(t_in: np.ndarray, t_out: np.ndarray) -> np.ndarray:
    """Moore refinement: split states by their own class, their inside
    successor's class and their outside successor's class (-1 absorbs)
    until no class splits."""
    block = np.zeros(t_in.size, dtype=np.int64)
    while True:
        out_block = np.where(t_out >= 0, block[t_out], -1)
        signature = np.stack([block, block[t_in], out_block], axis=1)
        _, refined = np.unique(signature, axis=0, return_inverse=True)
        refined = refined.reshape(-1).astype(np.int64)
        if refined.max() == block.max():
            return refined
        block = refined


@functools.lru_cache
def rule_automaton(r: int, s: int) -> RuleAutomaton:
    """The automaton of the r-of-s rule, built once per (r, s)."""
    width = s - 1
    mask = (1 << width) - 1
    values = [v for v in range(mask, -1, -1) if bin(v).count("1") < r]
    index = {v: i for i, v in enumerate(values)}
    t_in = np.array([index[(v << 1) & mask] for v in values], dtype=np.int64)
    t_out = np.array(
        [-1 if bin(v).count("1") + 1 >= r else index[((v << 1) | 1) & mask] for v in values],
        dtype=np.int64,
    )
    block = _partition(t_in, t_out)
    representatives = np.unique(block, return_index=True)[1].astype(np.int64)
    for table in (t_in, t_out, block, representatives):
        table.flags.writeable = False
    states = tuple(tuple((v >> (width - 1 - i)) & 1 for i in range(width)) for v in values)
    return RuleAutomaton(
        states=states,
        t_in=t_in,
        t_out=t_out,
        initial_index=len(values) - 1,
        block=block,
        representatives=representatives,
    )


@dataclass(frozen=True)
class RuleChain:
    """Transient structure of a run-rule chart at a fixed inside-probability p."""

    rule: RunRule
    p: float
    states: tuple[tuple[int, ...], ...]
    transition: np.ndarray  # transient-to-transient probabilities
    initial_index: int

    @property
    def absorption(self) -> np.ndarray:
        """Per-state probability of signaling on the next point."""
        return 1.0 - self.transition.sum(axis=1)


def build_chain(rule: RunRule, p: float) -> RuleChain:
    """Construct the transient transition matrix for the rule at inside
    probability p."""
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"p must lie in [0, 1], got {p}")
    automaton = rule_automaton(rule.r, rule.s)
    rows = np.arange(len(automaton.states))
    q_matrix = np.zeros((rows.size, rows.size))
    q_matrix[rows, automaton.t_in] = p
    stays = automaton.t_out >= 0  # an outside point completing r violations absorbs
    q_matrix[rows[stays], automaton.t_out[stays]] = 1.0 - p
    return RuleChain(
        rule=rule,
        p=p,
        states=automaton.states,
        transition=q_matrix,
        initial_index=automaton.initial_index,
    )


def in_control_prob(
    direction: Direction,
    limit: float,
    n: int,
    gamma: float,
    *,
    force: bool = False,
    profile: str = "exact",
) -> float:
    """Probability that a plotted squared sample CV falls inside the
    control region of a one-sided chart with the given limit."""
    direction = Direction(direction)
    if direction is Direction.LOWER:
        if limit <= 0.0:
            return 1.0  # the statistic is nonnegative
        return 1.0 - cv2_cdf(limit, n, gamma, force=force, profile=profile)
    if math.isinf(limit) and limit > 0:
        return 1.0
    return cv2_cdf(limit, n, gamma, force=force, profile=profile)


@dataclass(frozen=True)
class RunLengthMetrics:
    arl: float
    sdrl: float
    method: RunLengthMethod
    stderr: Optional[float] = None
    truncated: int = 0

    def __post_init__(self) -> None:
        if self.method is RunLengthMethod.MONTE_CARLO and self.stderr is None:
            raise DomainError("Monte Carlo metrics require a standard error")
        if self.method is RunLengthMethod.EXACT_MARKOV and self.stderr is not None:
            raise DomainError("exact metrics carry no standard error")


@functools.lru_cache
def _lumping(r: int, s: int) -> tuple[np.ndarray, int, int]:
    """Flat positions of the lumped r-of-s chain on its automaton's classes.

    The lumped matrix is k x k: entry (c, d) is the mass the representative
    of class c sends into class d.  A state moves only to t_in and t_out,
    whose classes always differ (under an all-outside future the t_out
    history signals strictly sooner), so each edge of a representative
    fills its own flat entry ``dst[i]``, with no two ``dst`` alike.  The
    first k positions are the inside edges (mass p), one per class; the
    rest are the outside edges that stay transient (mass 1 - p).  Also
    returns k and the initial state's class.
    """
    automaton = rule_automaton(r, s)
    reps, block = automaton.representatives, automaton.block
    k = reps.size
    stays = automaton.t_out[reps] >= 0
    rows = np.concatenate([np.arange(k), np.flatnonzero(stays)])
    successors = np.concatenate([automaton.t_in[reps], automaton.t_out[reps[stays]]])
    dst = rows * k + block[successors]
    dst.flags.writeable = False
    return dst, k, int(block[automaton.initial_index])


def arl(chain: RuleChain) -> RunLengthMetrics:
    """Exact ARL and SDRL of the chain: ``run_length_metrics`` at its p.

    Raises ChainSingularError when p = 1 (no absorption, infinite run
    length).
    """
    return run_length_metrics(chain.rule, [chain.p])[0]


def run_length_metrics(rule: RunRule, ps: Sequence[float]) -> list[RunLengthMetrics]:
    """Exact ARL and SDRL of the rule's chart at each inside-probability p.

    The one evaluation entry point of the chain layer.  The lumped
    matrices are filled straight from p (the full chain is never built)
    and solved in stacks of at most ``_STACK_DOUBLES`` entries.  Raises
    ChainSingularError as ``arl`` does, at the first p that has no
    meaningful absorption or whose solve loses accuracy.
    """
    dst, k, initial = _lumping(rule.r, rule.s)
    ps = np.asarray(ps, dtype=float)
    group = max(1, _STACK_DOUBLES // (k * k))
    metrics: list[RunLengthMetrics] = []
    for start in range(0, ps.size, group):
        chunk = ps[start : start + group, None]
        q_matrix = np.zeros((chunk.size, k * k))
        q_matrix[:, dst[:k]] = chunk
        q_matrix[:, dst[k:]] = 1.0 - chunk
        metrics += _solve_lumped(q_matrix.reshape(-1, k, k), chunk[:, 0].tolist(), initial)
    return metrics


def _solve_lumped(q_matrix: np.ndarray, ps: list[float], initial: int) -> list[RunLengthMetrics]:
    """ARL and SDRL from a stack of lumped matrices, one per p in ps."""
    for p in ps:
        if p >= _P_SINGULAR:
            raise ChainSingularError(f"no absorption at p={p}; run length is infinite")
    a_matrix = np.eye(q_matrix.shape[1]) - q_matrix
    try:
        v = np.linalg.solve(a_matrix, np.ones(q_matrix.shape[:2] + (1,)))
        w = np.linalg.solve(a_matrix, q_matrix.sum(axis=2, keepdims=True))
        z = np.linalg.solve(a_matrix, w)
    except np.linalg.LinAlgError as exc:
        where = ps[0] if len(ps) == 1 else f"one of {ps}"
        raise ChainSingularError(f"chain solve failed at p={where}: {exc}") from exc
    metrics = []
    for p, mean_rl, second in zip(ps, v[:, initial, 0].tolist(), z[:, initial, 0].tolist()):
        if not math.isfinite(mean_rl) or mean_rl < 1.0:
            raise ChainSingularError(f"chain solve lost accuracy at p={p} (ARL={mean_rl})")
        variance = 2.0 * second - mean_rl * mean_rl + mean_rl
        sdrl = math.sqrt(max(variance, 0.0))
        metrics.append(RunLengthMetrics(arl=mean_rl, sdrl=sdrl, method=RunLengthMethod.EXACT_MARKOV))
    return metrics
