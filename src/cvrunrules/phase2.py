"""Phase-II monitoring: apply designed charts to recorded subgroup summaries.

Input records carry the subgroup index, observed sample mean and sample
standard deviation; the plotted statistic (squared sample CV) is always
recomputed from mean and std rather than trusted from the file.

A recorded series is held as columns (``PhaseIISeries``): one pass of the
CSV reader fills them, and the domain checks run on whole arrays.  A chart
flags every sample with one comparison against its limit and signals at
the first sample whose trailing window of s points holds at least r
violations, counted as differences of a cumulative sum; a NaN value is
rejected, never read as inside.  The report also carries the start of the
consecutive violation run active at the signal, which is how such alarms
are usually narrated, and the run-rule history after each sample, one of
the chain's own automaton states (``runrules.history_path``).
"""

from __future__ import annotations

import csv
import functools
import math
import operator
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .design import ChartDesign
from .errors import ConfigError, DomainError
from .merror import _SQUARE_MAX
from .runrules import Direction, RunRule, history_path, rule_automaton

__all__ = ["PhaseIIRecord", "PhaseIISeries", "MonitorTrace", "read_phase2_csv", "monitor_values", "monitor"]


@dataclass(frozen=True)
class PhaseIIRecord:
    index: int
    sample_mean: float
    sample_std: float

    def __post_init__(self) -> None:
        if self.sample_mean == 0.0 or not math.isfinite(self.sample_mean):
            raise DomainError(f"sample mean must be finite and nonzero (record {self.index})")
        if not 0.0 <= self.sample_std < math.inf:
            raise DomainError(f"sample std must be finite and >= 0 (record {self.index})")
        if not self.sample_std / _SQUARE_MAX < abs(self.sample_mean):  # std/|mean| < 2^511, without overflow
            raise DomainError(
                f"sample std/|mean| must be below 2**511 for the squared CV to stay finite (record {self.index})"
            )

    @property
    def cv(self) -> float:
        return self.sample_std / self.sample_mean

    @property
    def cv2(self) -> float:
        return self.cv**2


def _first_invalid(mean: np.ndarray, std: np.ndarray) -> Optional[int]:
    """Position of the first subgroup ``PhaseIIRecord`` refuses, if any."""
    bad = np.flatnonzero(
        (mean == 0.0) | ~np.isfinite(mean) | ~((std >= 0.0) & (std < np.inf)) | ~(std / _SQUARE_MAX < np.abs(mean))
    )
    return int(bad[0]) if bad.size else None


def _frozen(column: np.ndarray) -> np.ndarray:
    column.flags.writeable = False
    return column


class PhaseIISeries(SequenceABC):
    """Recorded subgroups as read-only columns.

    ``index``, ``mean`` and ``std`` hold the recorded values and ``cv2`` the
    plotted statistic, equal bit for bit to each record's ``cv2``.  As a
    sequence it behaves like a list of ``PhaseIIRecord``: item access builds
    the record on demand, and a slice gives a list.  (The ``index``
    attribute is the column, so the list method of that name is not
    offered.)
    """

    __slots__ = ("index", "mean", "std", "cv2")

    def __init__(self, index: Sequence[int], mean: Sequence[float], std: Sequence[float]) -> None:
        try:
            index = np.array(index, dtype=np.int64)
        except OverflowError:  # keep indices beyond int64 as Python ints
            index = np.array(index, dtype=object)
        self.index = _frozen(index)
        self.mean = _frozen(np.array(mean, dtype=float))
        self.std = _frozen(np.array(std, dtype=float))
        if not len(self.index) == len(self.mean) == len(self.std):
            raise DomainError("index, mean and std columns differ in length")
        bad = _first_invalid(self.mean, self.std)
        if bad is not None:
            self[bad]  # the record's own check raises its message
        # Python's ** (libm pow) and not np.square, whose x*x differs from
        # pow(x, 2) in the last bit on about one subgroup in 1400
        self.cv2 = _frozen(np.array([x**2 for x in (self.std / self.mean).tolist()], dtype=float))

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return [self[i] for i in range(*item.indices(len(self)))]
        i = operator.index(item)
        return PhaseIIRecord(int(self.index[i]), float(self.mean[i]), float(self.std[i]))

    def __iter__(self) -> Iterator[PhaseIIRecord]:
        for fields in zip(self.index.tolist(), self.mean.tolist(), self.std.tolist()):
            yield PhaseIIRecord(*fields)


def read_phase2_csv(path: str) -> PhaseIISeries:
    """Read records from a CSV with header ``index,mean,std``.

    Other columns and any column order are accepted.  Malformed rows are
    reported with their line number, counted as ``csv.DictReader`` counts
    rows: the header is line 1 and blank rows are skipped.
    """
    indices: list[int] = []
    means: list[float] = []
    stds: list[float] = []
    failure: Optional[Exception] = None
    bad_row: Optional[list[str]] = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        required = {"index", "mean", "std"}
        if header is None or not required.issubset(header):
            raise ConfigError(f"{path}: header must contain columns {sorted(required)}")
        # a repeated name reads its last column, as in DictReader
        position = {name: col for col, name in enumerate(header)}
        columns = (position["index"], position["mean"], position["std"])
        i_col, m_col, s_col = columns
        add_index, add_mean, add_std = indices.append, means.append, stds.append
        try:
            for row in reader:
                if row:
                    try:
                        index = int(row[i_col])
                        mean = float(row[m_col])
                        std = float(row[s_col])
                    except (IndexError, ValueError):
                        bad_row = row
                        break
                    add_index(index)
                    add_mean(mean)
                    add_std(std)
        except (csv.Error, UnicodeDecodeError) as exc:
            # raised after the domain check of the rows read before it, as
            # a row-by-row loop would
            failure = exc
    try:
        series = PhaseIISeries(indices, means, stds)
    except DomainError as exc:
        line = _first_invalid(np.array(means), np.array(stds)) + 2
        raise ConfigError(f"{path}:{line}: bad record ({exc})") from exc
    if failure is not None:
        raise failure
    if bad_row is not None:
        # redo the row as DictReader saw it, short rows padded with None
        fields = [bad_row[col] if col < len(bad_row) else None for col in columns]
        try:
            int(fields[0]), float(fields[1]), float(fields[2])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}:{len(stds) + 2}: bad record ({exc})") from exc
    return series


@dataclass(frozen=True)
class MonitorTrace:
    """Per-chart monitoring outcome over a recorded series.

    outside: per-sample violation flags (index-aligned with the input)
    states: run-rule history state after each sample, as bit tuples
        (oldest first, 1 = violation), frozen at the signal
    first_signal: 1-based sample index of the first signal, if any
    run_start: first sample of the consecutive violation run that was
        active when the signal fired
    """

    rule_r: int
    rule_s: int
    direction: Direction
    limit: float
    outside: tuple[bool, ...]
    states: tuple[tuple[int, ...], ...]
    first_signal: Optional[int]
    run_start: Optional[int]


@functools.lru_cache
def _state_table(r: int, s: int) -> np.ndarray:
    """The automaton's interned state tuples as an object array, for
    gathering them by state index."""
    states = rule_automaton(r, s).states
    table = np.empty(len(states), dtype=object)
    for i, state in enumerate(states):
        table[i] = state
    return _frozen(table)


def monitor_values(
    values: Sequence[float], r: int, s: int, direction: Direction, limit: float
) -> MonitorTrace:
    """Run the r-of-s rule over plotted values against one control limit.

    A NaN value or a limit that is NaN or infinite raises ``DomainError``.
    """
    rule = RunRule(r, s, direction)
    if not math.isfinite(limit):
        raise DomainError(f"control limit must be finite, got {limit}")
    x = np.asarray(values, dtype=float)
    nan = np.flatnonzero(np.isnan(x))
    if nan.size:
        raise DomainError(f"plotted value {nan[0] + 1} is NaN")
    outside = x > limit if rule.direction is Direction.UPPER else x < limit
    window = np.cumsum(outside)  # violations in the trailing s samples
    window[rule.s :] -= window[: -rule.s].copy()
    hits = np.flatnonzero(window >= rule.r)
    first_signal = run_start = None
    before = x.size  # samples before the signal
    if hits.size:
        before = int(hits[0])
        first_signal = before + 1
        inside = np.flatnonzero(~outside[:before])
        run_start = int(inside[-1]) + 2 if inside.size else 1
    # the history after each sample, frozen at the signal
    path = np.empty(x.size, dtype=np.int64)
    path[:before] = history_path(rule.r, rule.s, outside[:before])
    path[before:] = path[before - 1] if before else rule_automaton(rule.r, rule.s).initial_index
    return MonitorTrace(
        rule_r=rule.r,
        rule_s=rule.s,
        direction=rule.direction,
        limit=limit,
        outside=tuple(outside.tolist()),
        states=tuple(_state_table(rule.r, rule.s)[path].tolist()),
        first_signal=first_signal,
        run_start=run_start,
    )


def monitor(records: Iterable[PhaseIIRecord], designs: Sequence[ChartDesign]) -> list[MonitorTrace]:
    """Apply each designed chart to the recorded series."""
    values = records.cv2 if isinstance(records, PhaseIISeries) else [rec.cv2 for rec in records]
    return [
        monitor_values(values, d.rule.r, d.rule.s, d.rule.direction, d.limit) for d in designs
    ]
