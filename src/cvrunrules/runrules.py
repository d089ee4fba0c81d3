"""r-of-s run-rule signaling as an absorbing Markov chain.

A chart signals the first time at least r of the last s plotted points
fall outside the control limit.  The transient states are the binary
histories of the last s-1 points that contain at most r-1 violations;
a new inside point (probability p) shifts the history, a new outside
point either absorbs (if the trailing s-window now holds r violations)
or shifts the history with a violation appended.  ``rule_automaton`` is
the one encoding of these histories; the chain indexes its next-state
tables, and phase-II monitoring maps recorded points onto its states
through ``history_path``.  The Monte Carlo oracle uses none of it: it
counts violations in the trailing window, so it checks the chain.

States are ordered by descending history value (oldest point most
significant), which puts the all-inside history last; the initial
distribution is the unit mass on that state.

A chart gives the chain one number, its inside probability p: the CV²
law's CDF at the chart's limit (upper chart), or 1 minus it (lower
chart).  The law (``cvdist``) owns the edges, 0 at a limit <= 0 and 1
at +inf, and checks n and gamma at every limit; ``_inside`` only maps
the side, for ``in_control_prob``, its batched form and the design's
Newton step.

Many histories have the same future: 8-of-10 has 502 states but only
120 classes, 10-of-10 has 512 and 10.  ``rule_automaton`` also holds the
coarsest partition under which equivalent states absorb on the same input
and move to equivalent states (Moore refinement of the tables).  The
chain lumped onto those classes has the same run-length law (Kemeny &
Snell, *Finite Markov Chains*, 1960, sec. 6.3), so ``run_length_metrics``
solves on the k x k lumped matrix Q_k.  With A = I - Q_k, v = A^{-1} 1 and
z = A^{-1} (v - 1) (note (I - Q_k)^{-1} Q_k 1 = v - 1), at the all-inside
class

    ARL  = v
    SDRL = sqrt(2 z - ARL^2 + ARL)

The lumped matrix depends on p alone (p on the inside edges, 1 - p on
the outside edges, which absorb or stay transient), so
``run_length_metrics`` fills it straight from p; chart evaluation
(``design``) goes through it and never builds the full history chain.
``build_chain``, which returns that chain as a dense matrix
(``RuleChain``), and ``arl`` are deprecated and no longer exported by the
package; they remain here only because the benchmark's tracer names them.

A is an M-matrix whose row sums are the absorption masses, 1 - p or 0.
``run_length_metrics`` eliminates it by the method of Grassmann, Taksar &
Heyman (*Oper. Res.* 33:1107, 1985): the absorption masses are carried
through the elimination and each pivot is formed as its row's absorption
mass plus its off-diagonal magnitudes, so no step subtracts and every
ARL and SDRL is accurate to a few units in the last place however large
(O'Cinneide, *Numer. Math.* 65:109, 1993).  The symbolic part (pivot
order, fill pattern and update lists over the sparse lumped matrix,
where a class has at most two successors) is built once per (r, s) on
first use; each p then runs one interpreted pass over it, on floats for
one p or elementwise on numpy arrays for a stack.

The solve has two stages.  The forward elimination (``_gth_forward``)
pivots the initial class last, so it alone gives the ARL, b/pivot of its
last row; the back substitution and the z pass (``_gth_z_over_arl``) are
needed only for the SDRL.  ``_arls`` runs the first stage only, for the
callers that read the ARL alone (``design``'s p* search and EARL), and
gives the ARLs of ``run_length_metrics`` bit for bit.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .cvdist import _cv2_cdf_levels, cv2_cdf
from .errors import ChainSingularError, DomainError, as_integer, as_real

__all__ = [
    "Direction",
    "RunRule",
    "RuleAutomaton",
    "RuleChain",
    "RunLengthMethod",
    "RunLengthMetrics",
    "rule_automaton",
    "history_path",
    "build_chain",
    "in_control_prob",
    "arl",
    "run_length_metrics",
]


class Direction(str, enum.Enum):
    UPPER = "upper"
    LOWER = "lower"

    @classmethod
    def _missing_(cls, value: object) -> Direction:
        raise DomainError(f"direction must be 'upper' or 'lower', got {value!r}")


class RunLengthMethod(str, enum.Enum):
    EXACT_MARKOV = "exact_markov"
    MONTE_CARLO = "monte_carlo"


_MAX_WINDOW = 64  # s - 1 history bits fit an int64
# transient states of the largest automaton built; the partition key of
# ``rule_automaton`` needs (cap + 2)^3 < 2^63
_MAX_HISTORIES = 2**14


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
        if self.s > _MAX_WINDOW:
            raise DomainError(f"need s <= {_MAX_WINDOW}, got s={self.s}")
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


@functools.lru_cache
def _history_values(r: int, s: int) -> np.ndarray:
    """History value of each state of the r-of-s rule, in state order
    (descending): the last s - 1 flags as bits, newest lowest, fewer than
    r of them set.

    Only those histories are enumerated, as the sets of their violations'
    bit positions.  A rule with more than ``_MAX_HISTORIES`` of them
    (8-of-16 has exactly that many) raises ``DomainError`` first.
    """
    width = s - 1
    count = sum(math.comb(width, k) for k in range(r))
    if s > _MAX_WINDOW or count > _MAX_HISTORIES:
        raise DomainError(
            f"the {r}-of-{s} rule has {count} histories of {width} bits; "
            f"at most {_MAX_HISTORIES} of at most {_MAX_WINDOW - 1} bits are supported"
        )
    subsets = itertools.chain.from_iterable(itertools.combinations(range(width), k) for k in range(r))
    values = np.array(sorted((sum(1 << bit for bit in bits) for bits in subsets), reverse=True), dtype=np.int64)
    values.flags.writeable = False
    return values


@functools.lru_cache
def rule_automaton(r: int, s: int) -> RuleAutomaton:
    """The automaton of the r-of-s rule, built once per (r, s) from arrays.

    One shift of the history values gives every state's bits, and
    ``searchsorted`` on the ascending values finds each next state.  The
    partition is the Moore refinement of the tables: states split by their
    own class, their inside successor's class and their outside
    successor's class (absorbing below every class) until no class splits.
    The three are packed into one int64 key in base c + 1 (c classes so
    far), which sorts as the triples do, so each round numbers the classes
    in the triples' lexicographic order.  The sort is numpy's stable one,
    which also gives each class's first state, its representative; with
    the default int64 quicksort, whose vectorized code nothing else in a
    chart evaluation touches, a benchmark pass peaked 0.38 MB higher.
    """
    width = s - 1
    values = _history_values(r, s)  # descending
    last = values.size - 1
    bits = (values[:, None] >> np.arange(width - 1, -1, -1)) & 1
    ascending = values[::-1]
    mask = (1 << width) - 1
    t_in = last - np.searchsorted(ascending, (values << 1) & mask)
    absorbs = bits.sum(axis=1) + 1 >= r  # the outside point completes r violations
    t_out = np.where(absorbs, -1, last - np.searchsorted(ascending, ((values << 1) | 1) & mask))
    block = np.zeros(values.size, dtype=np.int64)
    while True:
        base = int(block.max()) + 2
        key = (block * base + block[t_in]) * base + np.where(absorbs, 0, block[t_out] + 1)
        # return_index makes the sort a stable one: each class's first state
        _, first, refined = np.unique(key, return_index=True, return_inverse=True)
        refined = refined.astype(np.int64)
        if refined.max() == block.max():
            break
        block = refined
    representatives = first.astype(np.int64)
    for table in (t_in, t_out, refined, representatives):
        table.flags.writeable = False
    return RuleAutomaton(
        states=tuple(map(tuple, bits.tolist())),
        t_in=t_in,
        t_out=t_out,
        initial_index=last,
        block=refined,
        representatives=representatives,
    )


def history_path(r: int, s: int, outside: Sequence[bool]) -> np.ndarray:
    """Index into ``rule_automaton(r, s).states`` of the history after each
    point of ``outside`` (True = beyond the limit), starting from the
    all-inside history.  The points must not complete a signal."""
    flags = np.asarray(outside, dtype=np.int64)
    window = np.cumsum(flags)  # violations in the trailing s points
    window[s:] -= window[:-s].copy()
    if np.any(window >= r):
        raise DomainError(f"the points complete a {r}-of-{s} signal")
    value = np.zeros(flags.size, dtype=np.int64)
    for lag in range(min(s - 1, flags.size)):
        value[lag:] |= flags[: flags.size - lag] << lag
    values = _history_values(r, s)  # descending
    return values.size - 1 - np.searchsorted(values[::-1], value)


@dataclass(frozen=True)
class RuleChain:
    """Transient structure of a run-rule chart at a fixed inside-probability p.

    Deprecated with ``build_chain``, its only constructor.
    """

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
    probability p.

    Deprecated: nothing evaluates this matrix; ``run_length_metrics``
    solves the lumped chain straight from p.
    """
    warnings.warn(
        "cvrunrules.runrules.build_chain is deprecated; use run_length_metrics(rule, [p])",
        DeprecationWarning,
        stacklevel=2,
    )
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
    control region of a one-sided chart with the given limit.

    ``cv2_cdf`` at the limit, or 1 minus it for a lower chart; that law
    owns the edges (0 at a limit <= 0, 1 at +inf) and checks n and gamma
    at every limit."""
    (p,) = _inside(direction, [cv2_cdf(limit, n, gamma, force=force, profile=profile)])
    return p


def _in_control_probs(
    direction: Direction, limit: float, n: int, gammas: Sequence[float], *, profile: str = "exact"
) -> list[float]:
    """``in_control_prob`` with ``force=True`` at each CV level of
    ``gammas``, from one batched CDF call (``cvdist._cv2_cdf_levels``)."""
    return _inside(direction, _cv2_cdf_levels(limit, n, gammas, profile=profile))


def _inside(direction: Direction, cdfs: list[float]) -> list[float]:
    """The inside probabilities of a chart of the given direction, from
    the CDFs of the plotted statistic at its limit."""
    if Direction(direction) is Direction.LOWER:
        return [1.0 - c for c in cdfs]
    return cdfs


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


# (row i, slot of its entry in the pivot column, (destination, source) slot pairs)
_RowUpdate = tuple[int, int, tuple[tuple[int, int], ...]]
# (slots right of the diagonal, (slot, column) pairs outside column k, row updates)
_Pivot = tuple[tuple[int, ...], tuple[tuple[int, int], ...], tuple[_RowUpdate, ...]]


@functools.lru_cache
def _gth_plan(r: int, s: int) -> tuple[tuple[int, ...], tuple[_Pivot, ...]]:
    """Symbolic GTH elimination of A = I - Q_k for the r-of-s rule, built once.

    The lumped matrix is k x k: entry (c, d) is the mass the representative
    of class c sends into class d.  The classes are renumbered into pivot
    order, the initial class last (its ARL is then read off the forward
    elimination's last row), and column k stands for absorption.  In the
    automaton's own class order the fill stays small (8-of-10: 239 entries
    become 750, with 1035 updates; the reversed order needs 31 442).

    Returns (kinds, pivots).  Every stored entry, or slot, is an
    off-diagonal magnitude -A[i, c] or, in column k, an absorption mass;
    ``kinds`` gives its start value: 0 for fill, 1 for an inside edge (p),
    2 for an outside edge (1 - p).  ``pivots[j]`` holds, for pivot j:

    - the slots of row j right of the diagonal, whose sum is the pivot;
    - those of them not in column k, with their columns (back substitution);
    - per row i > j with an entry in column j: i, that entry's slot, and
      the (destination, source) slot pairs of row i += f * row j.
    """
    automaton = rule_automaton(r, s)
    reps, block = automaton.representatives.tolist(), automaton.block.tolist()
    t_in, t_out = automaton.t_in.tolist(), automaton.t_out.tolist()
    k = len(reps)
    initial = block[automaton.initial_index]
    order = [c for c in range(k) if c != initial] + [initial]
    position = {c: j for j, c in enumerate(order)}
    rows: list[dict[int, int]] = [{} for _ in range(k)]  # column -> slot
    column_rows: list[list[int]] = [[] for _ in range(k + 1)]
    kinds: list[int] = []

    def store(i: int, c: int, kind: int) -> None:
        rows[i][c] = len(kinds)
        kinds.append(kind)
        column_rows[c].append(i)

    for i, c in enumerate(order):
        rep = reps[c]
        outside = k if t_out[rep] < 0 else position[block[t_out[rep]]]
        for dst, kind in ((position[block[t_in[rep]]], 1), (outside, 2)):
            if dst != i:  # a self-loop sits on the diagonal, which GTH rebuilds from the row sum
                store(i, dst, kind)

    pivots = []
    for j in range(k):
        right = sorted((c, slot) for c, slot in rows[j].items() if c > j)
        updates = []
        for i in sorted(i for i in column_rows[j] if i > j):
            pairs = []
            for c, slot in right:
                if c != i:
                    if c not in rows[i]:
                        store(i, c, 0)
                    pairs.append((rows[i][c], slot))
            updates.append((i, rows[i][j], tuple(pairs)))
        back = tuple((slot, c) for c, slot in right if c < k)
        pivots.append((tuple(slot for _, slot in right), back, tuple(updates)))
    return tuple(kinds), tuple(pivots)


def _gth_forward(
    kinds: tuple[int, ...], pivots: tuple[_Pivot, ...], p: float | np.ndarray
) -> tuple[list, list, list]:
    """Forward GTH elimination of A v = 1 at p: the entries (multipliers in
    the slots they cleared), the eliminated right-hand side b and the
    pivots.  The initial class is pivoted last, so its ARL is
    b[-1] / pivot[-1].

    p is a float or a 1-D numpy array of inside probabilities: every step
    is elementwise, so a stack runs the same operations as one p and gives
    the same bits.  Every entry, pivot and multiplier is a sum or product
    of nonnegative terms.
    """
    start = (0.0, p, 1.0 - p)
    m = [start[kind] for kind in kinds]
    k = len(pivots)
    b = [1.0] * k
    pivot = [0.0] * k
    for j, (right, _, updates) in enumerate(pivots):
        a = 0.0
        for slot in right:
            a = a + m[slot]
        pivot[j] = a
        b_j = b[j]
        for i, slot_ij, pairs in updates:
            f = m[slot_ij] / a
            m[slot_ij] = f  # the multiplier replaces the entry it clears
            b[i] = b[i] + f * b_j
            for dst, src in pairs:
                m[dst] = m[dst] + f * m[src]
    return m, b, pivot


def _gth_z_over_arl(pivots: tuple[_Pivot, ...], m: list, b: list, pivot: list) -> float | np.ndarray:
    """z/ARL at the initial class, z = (A^-1 (A^-1 1 - 1))_initial, from the
    forward pass: back substitution for v, then the same elimination on
    v - 1, the one subtraction (v >= 1)."""
    k = len(pivots)
    v = [0.0] * k
    for j in range(k - 1, -1, -1):
        x = b[j]
        for slot, c in pivots[j][1]:
            x = x + m[slot] * v[c]
        v[j] = x / pivot[j]
    w = [x - 1.0 for x in v]
    for j, (_, _, updates) in enumerate(pivots):
        w_j = w[j]
        for i, slot_ij, _ in updates:
            w[i] = w[i] + m[slot_ij] * w_j
    # z = w[-1] / pivot[-1] and ARL = b[-1] / pivot[-1] share the last pivot
    return w[-1] / b[-1]


def arl(chain: RuleChain) -> RunLengthMetrics:
    """Exact ARL and SDRL of the chain: ``run_length_metrics`` at its p.

    Raises ChainSingularError when p = 1 (no absorption, infinite run
    length) or when the run length overflows the double range.
    Deprecated: call ``run_length_metrics(rule, [p])`` instead.
    """
    warnings.warn(
        "cvrunrules.runrules.arl is deprecated; use run_length_metrics(rule, [p])[0]",
        DeprecationWarning,
        stacklevel=2,
    )
    return run_length_metrics(chain.rule, [chain.p])[0]


def _solve(rule: RunRule, ps: Sequence[float], *, with_z: bool) -> tuple[list[float], list[float], list[float]]:
    """The checked ps, the ARL at each and, ``with_z``, z/ARL (else the ARL
    again): the forward elimination on one stack, then the ARL from its
    last row, then back substitution and the z pass only if asked for."""
    if not isinstance(ps, (list, tuple)) and np.ndim(ps) == 0:  # a bare p, or a 0-d array
        raise DomainError(f"ps must be a sequence or a 1-D array of probabilities, got {ps!r}")
    ps = [as_real(p, "p") for p in ps]
    for p in ps:
        if not 0.0 <= p <= 1.0:
            raise DomainError(f"p must lie in [0, 1], got {p}")
        if p == 1.0:  # below 1, q = 1 - p > 0, and exact for p >= 1/2 (Sterbenz)
            raise ChainSingularError(f"no absorption at p={p}; run length is infinite")
    if not ps:
        return [], [], []
    kinds, pivots = _gth_plan(rule.r, rule.s)
    try:
        with np.errstate(all="ignore"):
            m, b, pivot = _gth_forward(kinds, pivots, ps[0] if len(ps) == 1 else np.array(ps))
            mean_rls = b[-1] / pivot[-1]
            scaled = _gth_z_over_arl(pivots, m, b, pivot) if with_z else mean_rls
    except ZeroDivisionError:  # a float pivot underflowed: the run length overflows
        mean_rls = scaled = math.inf
    return ps, np.atleast_1d(mean_rls).tolist(), np.atleast_1d(scaled).tolist()


def _overflow(p: float, mean_rl: float) -> ChainSingularError:
    return ChainSingularError(f"run length at p={p} overflows the double range (ARL={mean_rl})")


def run_length_metrics(rule: RunRule, ps: Sequence[float]) -> list[RunLengthMetrics]:
    """Exact ARL and SDRL of the rule's chart at each inside-probability p.

    The one public evaluation entry point of the chain layer.  The lumped
    matrix A = I - Q_k is eliminated by the Grassmann-Taksar-Heyman method
    on a plan cached per (r, s): each pivot is the row's absorption mass
    plus its off-diagonal magnitudes, so nothing cancels and the results
    keep full relative accuracy at any ARL a double holds.  One p runs on
    floats, several as one stack of numpy arrays through the same steps,
    with the same results.  Raises DomainError for p outside [0, 1] and
    ChainSingularError as ``arl`` does.
    """
    ps, mean_rls, scaled = _solve(rule, ps, with_z=True)
    metrics = []
    for p, mean_rl, z_over_arl in zip(ps, mean_rls, scaled):
        # Var = 2z - ARL^2 + ARL, factored so SDRL is finite whenever ARL is
        sdrl = math.sqrt(mean_rl) * math.sqrt(max(2.0 * z_over_arl - mean_rl + 1.0, 0.0))
        if not (math.isfinite(mean_rl) and math.isfinite(sdrl)):
            raise _overflow(p, mean_rl)
        metrics.append(RunLengthMetrics(arl=mean_rl, sdrl=sdrl, method=RunLengthMethod.EXACT_MARKOV))
    return metrics


def _arls(rule: RunRule, ps: Sequence[float]) -> list[float]:
    """The ARLs of ``run_length_metrics(rule, ps)``, bit for bit, from the
    forward elimination alone, for the callers that read no SDRL (the p*
    search and EARL).  Raises DomainError and ChainSingularError as
    ``run_length_metrics`` does at p = 1 and where the ARL overflows."""
    ps, mean_rls, _ = _solve(rule, ps, with_z=False)
    for p, mean_rl in zip(ps, mean_rls):
        if not math.isfinite(mean_rl):
            raise _overflow(p, mean_rl)
    return mean_rls
