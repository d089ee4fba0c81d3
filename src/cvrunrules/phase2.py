"""Phase-II monitoring: apply designed charts to recorded subgroup summaries.

Input records carry the subgroup index, observed sample mean and sample
standard deviation; the plotted statistic (squared sample CV) is always
recomputed from mean and std rather than trusted from the file.

A recorded series is held as columns (``PhaseIISeries``), and the domain
checks run on whole arrays.  ``read_phase2_csv`` fills them by one
``np.loadtxt`` call when ``csv`` would split the file plainly at commas
and line ends (it decodes, and holds no quote, no NUL, no lone carriage
return and no line past ``csv.field_size_limit()``) and every record
converts and passes the checks.  Any other file, and any error or warning
from numpy, goes to the ``csv`` row loop from the start of the file; the
loop alone decides which records and which error such a file gets.  A chart
flags every sample with one comparison against its limit and signals at
the first sample whose trailing window of s points holds at least r
violations, counted as differences of a cumulative sum; a NaN value is
rejected, never read as inside.  The report also carries the start of the
consecutive violation run active at the signal, which is how such alarms
are usually narrated.

``monitor`` and ``monitor_values`` return a full ``MonitorTrace``, which
adds the run-rule history after each sample, one of the chain's own
automaton states (``runrules.history_path``).  The ``monitor`` command
prints no states, so it reads only each chart's signal (``_chart_signal``:
the flags, the first signal and the run start) and builds no trace.
"""

from __future__ import annotations

import csv
import math
import operator
import warnings
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


_COLUMNS = ("index", "mean", "std")
_PLAIN_DTYPE = np.dtype([("index", np.int64), ("mean", float), ("std", float)])


def _positions(header: Sequence[str]) -> Optional[tuple[int, ...]]:
    """The header's positions of index, mean and std, None if one is missing.

    A repeated name reads its last column, as in ``csv.DictReader``.
    """
    position = {name: col for col, name in enumerate(header)}
    if not position.keys() >= set(_COLUMNS):
        return None
    return tuple(position[name] for name in _COLUMNS)


def read_phase2_csv(path: str) -> PhaseIISeries:
    """Read records from a CSV with header ``index,mean,std``.

    Other columns and any column order are accepted.  Malformed rows are
    reported with their line number, counted as ``csv.DictReader`` counts
    rows: the header is line 1 and blank rows are skipped.
    """
    series = _read_plain(path)
    return series if series is not None else _read_rows(path)


def _plain_columns(text: str) -> Optional[tuple[int, ...]]:
    """The positions of index, mean and std when ``csv`` would split
    ``text`` at every comma and line end and the header names all three,
    else None.

    That holds for a text with no quote (a quoted field may hold commas
    and line ends), no NUL (a ``csv.Error`` before Python 3.11), no
    carriage return outside a CRLF, and no line longer than
    ``csv.field_size_limit()`` (a field past it is a ``csv.Error``).
    """
    if '"' in text or "\0" in text or ("\r" in text and text.count("\r") != text.count("\r\n")):
        return None
    # UTF-8 takes at least one byte a character, so the byte gaps between
    # line feeds bound each line's length from above
    raw = np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    breaks = np.flatnonzero(raw == ord("\n"))
    if np.diff(breaks, prepend=-1, append=raw.size).max() - 1 > csv.field_size_limit():
        return None
    end = text.find("\n")
    return _positions((text if end < 0 else text[:end]).removesuffix("\r").split(","))


def _read_plain(path: str) -> Optional[PhaseIISeries]:
    """The series by ``np.loadtxt`` for a file that ``csv`` splits plainly
    and whose every record converts and passes the domain checks; None
    sends the file to the row loop, which alone words each error."""
    with open(path, newline="") as fh:
        try:
            columns = _plain_columns(fh.read())
        except UnicodeDecodeError:
            return None
        if columns is None:
            return None
        # loadtxt reads the lines from the file again, so the text and a
        # list of its lines are never held together
        fh.seek(0)
        try:
            # numpy's "input contained no data" is a UserWarning, and an
            # older numpy warns where it reads "1.0" as an integer
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                table = np.loadtxt(
                    fh, dtype=_PLAIN_DTYPE, delimiter=",", comments=None, skiprows=1, usecols=columns, ndmin=1
                )
        except (ValueError, Warning):
            return None
    try:
        return PhaseIISeries(table["index"], table["mean"], table["std"])
    except DomainError:
        return None


def _read_rows(path: str) -> PhaseIISeries:
    """``read_phase2_csv`` one ``csv`` row at a time: the reader of every
    file that ``_read_plain`` refuses, and the owner of the error texts."""
    indices: list[int] = []
    means: list[float] = []
    stds: list[float] = []
    failure: Optional[Exception] = None
    bad_row: Optional[list[str]] = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        columns = None if header is None else _positions(header)
        if columns is None:
            raise ConfigError(f"{path}: header must contain columns {sorted(_COLUMNS)}")
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


def _chart_signal(
    values: Sequence[float], rule: RunRule, limit: float
) -> tuple[np.ndarray, Optional[int], Optional[int]]:
    """One chart over plotted values: the per-sample violation flags, the
    1-based first signal and the start of the run active at it (both None
    without a signal).

    A limit that is NaN or infinite, or a NaN value, raises ``DomainError``.
    """
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
    if not hits.size:
        return outside, None, None
    before = int(hits[0])  # samples before the signal
    inside = np.flatnonzero(~outside[:before])
    return outside, before + 1, int(inside[-1]) + 2 if inside.size else 1


def monitor_values(
    values: Sequence[float], r: int, s: int, direction: Direction, limit: float
) -> MonitorTrace:
    """Run the r-of-s rule over plotted values against one control limit.

    A NaN value or a limit that is NaN or infinite raises ``DomainError``.
    """
    rule = RunRule(r, s, direction)
    outside, first_signal, run_start = _chart_signal(values, rule, limit)
    # the history after each sample, frozen at the signal
    before = outside.size if first_signal is None else first_signal - 1
    automaton = rule_automaton(rule.r, rule.s)
    path = np.empty(outside.size, dtype=np.int64)
    path[:before] = history_path(rule.r, rule.s, outside[:before])
    path[before:] = path[before - 1] if before else automaton.initial_index
    return MonitorTrace(
        rule_r=rule.r,
        rule_s=rule.s,
        direction=rule.direction,
        limit=limit,
        outside=tuple(outside.tolist()),
        states=tuple(automaton.states[i] for i in path.tolist()),
        first_signal=first_signal,
        run_start=run_start,
    )


def monitor(records: Iterable[PhaseIIRecord], designs: Sequence[ChartDesign]) -> list[MonitorTrace]:
    """Apply each designed chart to the recorded series."""
    values = records.cv2 if isinstance(records, PhaseIISeries) else [rec.cv2 for rec in records]
    return [
        monitor_values(values, d.rule.r, d.rule.s, d.rule.direction, d.limit) for d in designs
    ]
