"""Phase-II monitoring tests against the worked-example dataset."""

import csv
import locale
import math
import os
from collections.abc import Sequence

import numpy as np
import pytest

from cvrunrules.cvdist import ProcessModel
from cvrunrules.design import solve_design
from cvrunrules.errors import ConfigError, DomainError
from cvrunrules.phase2 import PhaseIIRecord, PhaseIISeries, monitor, monitor_values, read_phase2_csv
from cvrunrules.runrules import Direction, RunRule

from tables import EXAMPLE_SHEWHART_UCL, EXAMPLE_UCL, PHASE2_DATA


def example_cv2():
    return [(std / mean) ** 2 for (_, mean, std, _, _) in PHASE2_DATA]


EXAMPLE_DATA = os.path.join(os.path.dirname(__file__), os.pardir, "data", "phase2_example.csv")


def row_by_row_reader(path):
    """Reference: the record-by-record ``DictReader`` reader that the
    column reader replaced, kept to pin its records and error texts."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"index", "mean", "std"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ConfigError(f"{path}: header must contain columns {sorted(required)}")
        for line_no, row in enumerate(reader, start=2):
            try:
                records.append(
                    PhaseIIRecord(int(row["index"]), float(row["mean"]), float(row["std"]))
                )
            except (TypeError, ValueError, DomainError) as exc:
                raise ConfigError(f"{path}:{line_no}: bad record ({exc})") from exc
    return records


def outcome(reader, path):
    try:
        return list(reader(path))
    except (ConfigError, csv.Error, UnicodeDecodeError) as exc:
        return type(exc), str(exc)


def brute_force_first_signal(values, r, s, limit, direction="upper"):
    """Independent oracle: scan every trailing window of length s."""
    out = [v > limit if direction == "upper" else v < limit for v in values]
    for i in range(len(values)):
        window = out[max(0, i - s + 1): i + 1]
        if out[i] and sum(window) >= r:
            return i + 1
    return None


class TestRecords:
    def test_derived_values_recomputed(self):
        rec = PhaseIIRecord(1, 906.4, 476.0)
        assert rec.cv == pytest.approx(0.525, abs=5e-4)
        assert rec.cv2 == pytest.approx(rec.cv**2)

    @pytest.mark.parametrize(
        "mean,std",
        [
            pytest.param(0.0, 1.0, id="zero-mean"),
            pytest.param(float("nan"), 1.0, id="nan-mean"),
            pytest.param(float("inf"), 1.0, id="inf-mean"),
            pytest.param(1.0, float("nan"), id="nan-std"),
            pytest.param(1.0, float("inf"), id="inf-std"),
        ],
    )
    def test_zero_mean_rejected(self, mean, std):
        # a NaN CV^2 would count as inside the limit and never signal
        with pytest.raises(DomainError):
            PhaseIIRecord(3, mean, std)

    @pytest.mark.parametrize(
        "mean,std",
        [(-1.0, 1e300), (1e-320, 0.5), (1.0, 2.0**511), (-(2.0**-600), 2.0**-89)],
        ids=["std-1e300", "mean-1e-320", "ratio-2^511", "ratio-2^511-tiny"],
    )
    def test_overflowing_cv2_rejected(self, mean, std, tmp_path):
        # the first raised OverflowError from cv2, the second gave cv2 = inf
        message = r"sample std/\|mean\| must be below 2\*\*511 for the squared CV to stay finite"
        with pytest.raises(DomainError, match=message):
            PhaseIIRecord(1, mean, std)
        with pytest.raises(DomainError, match=message):
            PhaseIISeries([1, 2], [906.4, mean], [476.0, std])
        path = tmp_path / "data.csv"
        path.write_text(f"index,mean,std\n1,906.4,476.0\n2,{mean!r},{std!r}\n")
        with pytest.raises(ConfigError, match=rf":3: bad record \({message}"):
            read_phase2_csv(str(path))

    def test_cv2_just_below_the_bound_accepted(self):
        std = math.nextafter(2.0**511, 0.0)
        assert PhaseIIRecord(1, -1.0, std).cv2 == std**2 < math.inf
        assert PhaseIISeries([1], [-1.0], [std]).cv2[0] == std**2

    def test_printed_cv_column_matches_recomputation(self):
        # input-pipeline check: 19 of 20 printed CVs equal std/mean within
        # one ulp of the printed 3-decimal column; record 7 is a known
        # transcription defect in the source (its mean/std pair implies
        # cv = 1.001, printed 1.058)
        mismatches = []
        for (idx, mean, std, cv_printed, _) in PHASE2_DATA:
            if abs(std / mean - cv_printed) > 1e-3:
                mismatches.append(idx)
        assert mismatches == [7]

    def test_printed_cv2_is_square_of_rounded_cv(self):
        for (_, _, _, cv_printed, cv2_printed) in PHASE2_DATA:
            assert cv_printed**2 == pytest.approx(cv2_printed, abs=5e-5)

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("index,mean,std\n1,906.4,476.0\n2,805.1,493.9\n")
        records = read_phase2_csv(str(path))
        assert [r.index for r in records] == [1, 2]

    def test_csv_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("index,mean,std\n1,906.4,476.0\n2,not-a-number,1.0\n")
        with pytest.raises(ConfigError, match=":3"):
            read_phase2_csv(str(path))

    def test_csv_missing_columns(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("idx,avg\n1,2\n")
        with pytest.raises(ConfigError):
            read_phase2_csv(str(path))


class TestColumnReader:
    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("index,mean,std\n1,0.0,1.0\n2,abc,1.0\n", id="domain-before-conversion"),
            pytest.param("index,mean,std\n1,2.0,1.0\n2,abc,1.0\n3,0.0,1.0\n", id="conversion-before-domain"),
            pytest.param("index,mean,std\n1,2.0,1.0\n2,3.0\n3,0.0,1.0\n", id="short-row"),
            pytest.param("std,mean,index\n1.0,2.0,1\n1.0,2.0\n", id="short-row-missing-index"),
            pytest.param("index,mean,std\n1,2.0,1.0\n\n2,3.0,-1.0\n", id="blank-line-then-bad"),
            pytest.param("index,mean,std\n\n1,2.0,1.0\n\n\n2,3.0,1.0\n\n", id="blank-lines"),
            pytest.param("index,mean,std\n1,nan,nan\n", id="mean-checked-first"),
            pytest.param("index,mean,std\n1,2.0,1.0\n7,2.0,inf\n", id="inf-std"),
            pytest.param("index,mean,std\n1,2.0,1.0\n7,-inf,1.0\n", id="inf-mean"),
            pytest.param("index,mean,std\n1.5,2.0,1.0\n", id="float-index"),
            pytest.param("std,index,mean\n1.0,1,2.0\n0.5,2,4.0\n", id="column-order"),
            pytest.param("note,index,mean,std,more\na,1,2.0,1.0,b\nc,2,4.0,0.5\n", id="extra-columns"),
            pytest.param("index,mean,std,mean\n1,0.0,1.0,2.0\n", id="repeated-column"),
            pytest.param("index,mean,std\n1_0, 1.5,1_0\n", id="float-syntax"),
            pytest.param("index,mean,std\n123456789012345678901234567890,2.0,1.0\n", id="huge-index"),
            pytest.param("index,mean,std\n-1,2.0,1.0\n9223372036854775809,2.0,1.0\n", id="index-past-int64"),
            pytest.param("index,mean,std\n", id="header-only"),
            pytest.param("", id="empty-file"),
            pytest.param("\nindex,mean,std\n1,2.0,1.0\n", id="blank-header"),
            pytest.param("idx,mean,std\n1,2.0,1.0\n", id="missing-column"),
        ],
    )
    def test_same_records_and_errors_as_row_by_row(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        assert outcome(read_phase2_csv, str(path)) == outcome(row_by_row_reader, str(path))

    @pytest.mark.parametrize("bad_mean_row", [None, 3])
    def test_reader_errors_as_row_by_row(self, tmp_path, bad_mean_row):
        # a field past csv's size limit fails in the reader itself; a bad
        # record before it is reported first
        rows = [f"{i},2.0,1.0" for i in range(1, 6)]
        if bad_mean_row is not None:
            rows[bad_mean_row - 2] = f"{bad_mean_row - 1},0.0,1.0"
        rows.insert(4, "5,2.0," + "1" * (csv.field_size_limit() + 1))
        path = tmp_path / "data.csv"
        path.write_text("index,mean,std\n" + "\n".join(rows) + "\n")
        expected = outcome(row_by_row_reader, str(path))
        assert expected[0] is (csv.Error if bad_mean_row is None else ConfigError)
        assert outcome(read_phase2_csv, str(path)) == expected

    @pytest.mark.parametrize("bad_mean_row", [None, 3])
    @pytest.mark.parametrize("rows", [5, 400])
    def test_undecodable_byte_as_row_by_row(self, tmp_path, rows, bad_mean_row):
        # a byte the locale encoding cannot decode, in an extra column, in
        # the first 8-KB chunk of text (5 rows) or past it (400 rows): the
        # decoder's error is raised, after any bad record read before it
        encoding = locale.getpreferredencoding(False)
        try:
            b"\xff".decode(encoding)
        except UnicodeDecodeError:
            pass
        else:
            pytest.skip(f"{encoding} decodes every byte")
        lines = [b"note,index,mean,std"]
        lines += [b"%s,%d,2.0,1.0" % (b"x" * 20, i) for i in range(1, rows + 1)]
        if bad_mean_row is not None:
            lines[bad_mean_row - 1] = b"x,%d,0.0,1.0" % (bad_mean_row - 1)
        lines[-2] = b"\xff" + lines[-2]
        path = tmp_path / "data.csv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        expected = outcome(row_by_row_reader, str(path))
        assert expected[0] is (ConfigError if rows == 400 and bad_mean_row else UnicodeDecodeError)
        assert outcome(read_phase2_csv, str(path)) == expected

    def test_index_column_keeps_integers(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("index,mean,std\n-1,2.0,1.0\n9223372036854775809,2.0,1.0\n")
        assert read_phase2_csv(str(path)).index.tolist() == [-1, 2**63 + 1]
        path.write_text("index,mean,std\n-1,2.0,1.0\n3,2.0,1.0\n")
        index = read_phase2_csv(str(path)).index
        assert index.dtype == np.int64 and index.tolist() == [-1, 3]

    def test_domain_error_before_conversion_error_reports_earlier_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("index,mean,std\n1,2.0,1.0\n2,0.0,1.0\n3,abc,1.0\n")
        with pytest.raises(ConfigError, match=r":3: bad record \(sample mean"):
            read_phase2_csv(str(path))

    def test_short_row_is_a_config_error(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("index,mean,std\n1,2.0,1.0\n\n2,3.0\n")
        with pytest.raises(ConfigError, match=r":3: bad record \(float\(\) argument"):
            read_phase2_csv(str(path))

    def test_sequence_behaviour(self):
        series = read_phase2_csv(EXAMPLE_DATA)
        old = row_by_row_reader(EXAMPLE_DATA)
        assert isinstance(series, PhaseIISeries) and isinstance(series, Sequence)
        assert len(series) == len(old) == 20
        assert list(series) == old
        assert [series[i] for i in range(-len(old), len(old))] == old + old
        assert series[3:17:2] == old[3:17:2] and series[::-1] == old[::-1] and series[5:2] == []
        with pytest.raises(IndexError):
            series[20]
        with pytest.raises(TypeError):
            series[1.0]
        assert series.index.tolist() == [r.index for r in old]
        assert series.mean.tolist() == [r.sample_mean for r in old]
        assert series.std.tolist() == [r.sample_std for r in old]
        with pytest.raises(ValueError):
            series.mean[0] = 1.0

    def test_cv2_column_bit_for_bit(self, tmp_path):
        # Python's x**2 (libm pow) and numpy's x*x disagree in the last bit
        # on a few rows in every ten thousand; the column must follow the
        # records
        rng = np.random.default_rng(15000)
        mean = rng.uniform(20.0, 80.0, 15000)
        std = mean * 0.1 * rng.chisquare(4, 15000) ** 0.5 / 2
        path = tmp_path / "long.csv"
        lines = ["index,mean,std"] + [f"{i},{m:.6f},{s:.6f}" for i, (m, s) in enumerate(zip(mean, std), 1)]
        path.write_text("\n".join(lines) + "\n")
        series = read_phase2_csv(str(path))
        assert series.cv2.tolist() == [r.cv2 for r in row_by_row_reader(str(path))]

    def test_monitor_reads_the_column(self):
        series = read_phase2_csv(EXAMPLE_DATA)
        pm = ProcessModel(0.1, 5)
        designs = [solve_design(RunRule(r, s, Direction.UPPER), pm, profile="cdflib") for r, s in ((2, 3), (1, 1))]
        traces = monitor(series, designs)
        assert traces == monitor(list(series), designs)
        values = series.cv2.tolist()
        assert [t.first_signal for t in traces] == [
            brute_force_first_signal(values, d.rule.r, d.rule.s, d.limit) for d in designs
        ]


class TestMonitorValues:
    def test_example_2of3(self):
        values = example_cv2()
        trace = monitor_values(values, 2, 3, Direction.UPPER, EXAMPLE_UCL[(2, 3)])
        assert trace.first_signal == 13
        assert trace.run_start == 12
        assert trace.first_signal == brute_force_first_signal(values, 2, 3, EXAMPLE_UCL[(2, 3)])

    def test_example_3of4_window_rule(self):
        # record 10 also violates this limit, so the trailing 4-window at
        # sample 13 holds violations {10, 12, 13}: the rule fires at 13
        # even though the consecutive run only starts at 12
        values = example_cv2()
        trace = monitor_values(values, 3, 4, Direction.UPPER, EXAMPLE_UCL[(3, 4)])
        assert trace.first_signal == brute_force_first_signal(values, 3, 4, EXAMPLE_UCL[(3, 4)])
        assert trace.first_signal == 13
        assert trace.run_start == 12

    def test_example_4of5_window_rule(self):
        values = example_cv2()
        trace = monitor_values(values, 4, 5, Direction.UPPER, EXAMPLE_UCL[(4, 5)])
        assert trace.first_signal == brute_force_first_signal(values, 4, 5, EXAMPLE_UCL[(4, 5)])
        assert trace.first_signal == 14
        assert trace.run_start == 12

    def test_example_shewhart_never_signals(self):
        values = example_cv2()
        trace = monitor_values(values, 1, 1, Direction.UPPER, EXAMPLE_SHEWHART_UCL)
        assert trace.first_signal is None
        assert not any(trace.outside)

    def test_lower_direction(self):
        trace = monitor_values([5.0, 1.0, 1.0, 5.0], 2, 3, Direction.LOWER, 2.0)
        assert trace.outside == (False, True, True, False)
        assert trace.first_signal == 3

    def test_trace_is_deterministic(self):
        values = example_cv2()
        t1 = monitor_values(values, 2, 3, Direction.UPPER, EXAMPLE_UCL[(2, 3)])
        t2 = monitor_values(values, 2, 3, Direction.UPPER, EXAMPLE_UCL[(2, 3)])
        assert t1 == t2

    def test_states_follow_history_semantics(self):
        trace = monitor_values([0.1, 5.0, 0.1, 5.0, 5.0], 3, 4, Direction.UPPER, 1.0)
        # after samples 1..4: histories over the last 3 points
        assert trace.states[0] == (0, 0, 0)
        assert trace.states[1] == (0, 0, 1)
        assert trace.states[2] == (0, 1, 0)
        assert trace.states[3] == (1, 0, 1)
        assert trace.first_signal == 5

    def test_no_signal_on_sparse_violations(self):
        values = [5.0 if i % 4 == 0 else 0.1 for i in range(20)]
        trace = monitor_values(values, 2, 3, Direction.UPPER, 1.0)
        assert trace.first_signal is None
        # a NaN compares as neither side of the limit: it must not pass as inside
        with pytest.raises(DomainError):
            monitor_values(values + [float("nan")], 2, 3, Direction.UPPER, 1.0)

    @pytest.mark.parametrize("r,s", [(r, s) for s in range(1, 11) for r in range(1, s + 1)])
    def test_automaton_matches_trailing_window(self, r, s):
        rng = np.random.default_rng(1000 * s + r)
        for rate in (0.05, 0.2, 0.5, 0.8):
            for _ in range(5):
                values = (rng.random(200) < rate).astype(float).tolist()
                trace = monitor_values(values, r, s, Direction.UPPER, 0.5)
                flags = [v > 0.5 for v in values]
                assert trace.outside == tuple(flags)
                assert trace.first_signal == brute_force_first_signal(values, r, s, 0.5)
                # the run start walks back over the violations before the signal
                start = trace.first_signal
                while start is not None and start > 1 and flags[start - 2]:
                    start -= 1
                assert trace.run_start == start
                # before the signal the state is the last s-1 violation flags,
                # and from the signal on it stays where it was
                stop = trace.first_signal - 1 if trace.first_signal else len(values)
                padded = [0] * (s - 1) + [int(v) for v in values]
                for t in range(stop):
                    assert trace.states[t] == tuple(padded[t + 1: t + s])
                frozen = tuple(padded[stop: stop + s - 1])
                assert trace.states[stop:] == (frozen,) * (len(values) - stop)
        empty = monitor_values([], r, s, Direction.UPPER, 0.5)
        assert (empty.outside, empty.states, empty.first_signal, empty.run_start) == ((), (), None, None)

    @pytest.mark.parametrize(
        "direction,limit",
        [
            (Direction.UPPER, float("nan")),
            (Direction.LOWER, float("nan")),
            (Direction.UPPER, float("inf")),
            (Direction.LOWER, float("inf")),
            (Direction.UPPER, float("-inf")),
            (Direction.LOWER, float("-inf")),
        ],
    )
    def test_non_finite_limit_rejected(self, direction, limit):
        # a NaN limit leaves every point inside and an infinite one puts
        # every point on one side: plausible traces of no chart at all
        with pytest.raises(DomainError, match="limit"):
            monitor_values([5.0, 5.0, 5.0], 2, 3, direction, limit)
