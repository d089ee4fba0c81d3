"""Phase-II monitoring: apply designed charts to recorded subgroup summaries.

Input records carry the subgroup index, observed sample mean and sample
standard deviation; the plotted statistic (squared sample CV) is always
recomputed from mean and std rather than trusted from the file.

A recorded series is held as columns (``PhaseIISeries``), and the domain
checks run on whole arrays; an int64 or float array costs one dtype
check, and any other column is checked on the types of its values by
the one rule of ``errors.py``, as are a record's fields and a limit.
``read_phase2_csv`` fills them by one ``np.loadtxt`` call when ``csv``
would split the file plainly at commas and line ends (it decodes, and
holds no quote, no NUL, no lone carriage return and no line past
``csv.field_size_limit()``) and every record converts and passes the
checks.  Any other file, and any error or warning from numpy, is read
again from its start by ``csv.DictReader``, the format's own definition,
one ``PhaseIIRecord`` per row.  The first row that fails raises its error,
so that loop alone decides which records and which error such a file gets.

A chart flags every sample with one comparison against its limit and
signals at the first sample whose trailing window of s points holds at
least r violations, counted as differences of a cumulative sum; a NaN
value is rejected, never read as inside.  The report also carries the
start of the consecutive violation run active at the signal, which is how
such alarms are usually narrated.

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
from .errors import ConfigError, DomainError, as_real, is_number, store_reals
from .merror import _SQUARE_MAX
from .runrules import Direction, RunRule, history_path, rule_automaton

__all__ = ["PhaseIIRecord", "PhaseIISeries", "MonitorTrace", "read_phase2_csv", "monitor_values", "monitor"]


@dataclass(frozen=True)
class PhaseIIRecord:
    """One recorded subgroup.  The index is stored as an ``int`` (any
    integral type but bool is accepted) and the mean and std as floats
    (any real type but bool); another type raises ``DomainError``."""

    index: int
    sample_mean: float
    sample_std: float

    def __post_init__(self) -> None:
        # the reader's int skips the type check and conversion
        if type(self.index) is not int:
            if not is_number(type(self.index), True):
                raise DomainError(f"record index must be an integer, got {self.index!r}")
            object.__setattr__(self, "index", int(self.index))
        store_reals(self, "sample_mean", "sample_std")
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


def _column(values: Sequence, dtype: type, name: str) -> np.ndarray:
    """``values`` as a read-only one-dimensional array of ``dtype``.

    An array of that dtype costs one check.  Anything else is checked type
    by type: a value that is not an integer (int64) or real (float) number
    raises ``DomainError``,
    and so does a real past the double range.  An integer past int64 keeps
    the column as Python ints.
    """
    column = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
    if column.ndim != 1:
        raise DomainError(f"the {name} column must be one-dimensional, got shape {column.shape}")
    if column.dtype == dtype:
        return _frozen(column.copy())
    items, integral = column.tolist(), dtype is not float
    for cls in set(map(type, items)):
        if not is_number(cls, integral):
            row, value = next((row, value) for row, value in enumerate(items, start=1) if type(value) is cls)
            raise DomainError(
                f"the {name} column must hold {'integral' if integral else 'real'} numbers, got {value!r} in row {row}"
            )
    try:
        return _frozen(np.array(items, dtype=dtype))
    except OverflowError as exc:
        if dtype is float:
            raise DomainError(f"the {name} column holds a value past the double range") from exc
        return _frozen(np.array([int(value) for value in items], dtype=object))


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
        self.index = _column(index, np.int64, "index")
        self.mean = _column(mean, float, "mean")
        self.std = _column(std, float, "std")
        if not len(self.index) == len(self.mean) == len(self.std):
            raise DomainError("index, mean and std columns differ in length")
        mean, std = self.mean, self.std
        bad = np.flatnonzero(
            (mean == 0.0) | ~np.isfinite(mean) | ~((std >= 0.0) & (std < np.inf)) | ~(std / _SQUARE_MAX < np.abs(mean))
        )
        if bad.size:
            self[int(bad[0])]  # the record's own check raises its message
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
    """``read_phase2_csv`` by ``csv.DictReader``, one ``PhaseIIRecord`` per
    row: the reader of every file that ``_read_plain`` refuses, and the
    owner of the error texts, raised at the first row that fails."""
    fields = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not set(_COLUMNS).issubset(reader.fieldnames):
            raise ConfigError(f"{path}: header must contain columns {sorted(_COLUMNS)}")
        for line, row in enumerate(reader, start=2):
            try:
                record = PhaseIIRecord(int(row["index"]), float(row["mean"]), float(row["std"]))
            except (TypeError, ValueError) as exc:  # a DomainError is a ValueError
                raise ConfigError(f"{path}:{line}: bad record ({exc})") from exc
            fields.append((record.index, record.sample_mean, record.sample_std))
    index, mean, std = zip(*fields) if fields else ((), (), ())
    return PhaseIISeries(index, mean, std)


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

    A NaN value or a limit that is not a finite real raises ``DomainError``.
    """
    rule, limit = RunRule(r, s, direction), as_real(limit, "control limit")
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
