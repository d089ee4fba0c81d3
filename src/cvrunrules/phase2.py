"""Phase-II monitoring: apply designed charts to recorded subgroup summaries.

Input records carry the subgroup index, observed sample mean and sample
standard deviation; the plotted statistic (squared sample CV) is always
recomputed from mean and std rather than trusted from the file.

Each chart walks the chain's own automaton (``runrules.rule_automaton``),
so it signals at the first sample where the trailing window of s points
holds at least r violations; a NaN value is rejected, never read as inside.
The report also carries the start of the consecutive violation run active
at the signal, which is how such alarms are usually narrated.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .design import ChartDesign
from .errors import ConfigError, DomainError
from .runrules import Direction, RunRule, rule_automaton

__all__ = ["PhaseIIRecord", "MonitorTrace", "read_phase2_csv", "monitor_values", "monitor"]


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

    @property
    def cv(self) -> float:
        return self.sample_std / self.sample_mean

    @property
    def cv2(self) -> float:
        return self.cv**2


def read_phase2_csv(path: str) -> list[PhaseIIRecord]:
    """Read records from a CSV with header ``index,mean,std``.

    Malformed rows are reported with their line number.
    """
    records: list[PhaseIIRecord] = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"index", "mean", "std"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ConfigError(f"{path}: header must contain columns {sorted(required)}")
        for line_no, row in enumerate(reader, start=2):
            try:
                records.append(
                    PhaseIIRecord(
                        index=int(row["index"]),
                        sample_mean=float(row["mean"]),
                        sample_std=float(row["std"]),
                    )
                )
            except (TypeError, ValueError, DomainError) as exc:
                raise ConfigError(f"{path}:{line_no}: bad record ({exc})") from exc
    return records


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


def monitor_values(
    values: Sequence[float], r: int, s: int, direction: Direction, limit: float
) -> MonitorTrace:
    """Run the r-of-s rule over plotted values against one control limit."""
    rule = RunRule(r, s, direction)
    automaton = rule_automaton(rule.r, rule.s)
    t_in, t_out = automaton.t_in.tolist(), automaton.t_out.tolist()
    upper = rule.direction is Direction.UPPER
    outside: list[bool] = []
    visited: list[int] = []
    state = automaton.initial_index
    first_signal: Optional[int] = None
    run_start: Optional[int] = None
    for pos, value in enumerate(values, start=1):
        if math.isnan(value):
            raise DomainError(f"plotted value {pos} is NaN")
        out = value > limit if upper else value < limit
        outside.append(out)
        if first_signal is None:
            nxt = t_out[state] if out else t_in[state]
            if nxt < 0:
                first_signal = run_start = pos
                while run_start > 1 and outside[run_start - 2]:
                    run_start -= 1
            else:
                state = nxt
        visited.append(state)
    return MonitorTrace(
        rule_r=rule.r,
        rule_s=rule.s,
        direction=rule.direction,
        limit=limit,
        outside=tuple(outside),
        states=tuple(automaton.states[i] for i in visited),
        first_signal=first_signal,
        run_start=run_start,
    )


def monitor(records: Iterable[PhaseIIRecord], designs: Sequence[ChartDesign]) -> list[MonitorTrace]:
    """Apply each designed chart to the recorded series."""
    values = [rec.cv2 for rec in records]
    return [
        monitor_values(values, d.rule.r, d.rule.s, d.rule.direction, d.limit) for d in designs
    ]
