"""Phase-II monitoring tests against the worked-example dataset."""

import numpy as np
import pytest

from cvrunrules.errors import ConfigError, DomainError
from cvrunrules.phase2 import PhaseIIRecord, monitor_values, read_phase2_csv
from cvrunrules.runrules import Direction

from tables import EXAMPLE_SHEWHART_UCL, EXAMPLE_UCL, PHASE2_DATA


def example_cv2():
    return [(std / mean) ** 2 for (_, mean, std, _, _) in PHASE2_DATA]


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
                assert trace.first_signal == brute_force_first_signal(values, r, s, 0.5)
                # before the signal the state is the last s-1 violation flags
                stop = trace.first_signal - 1 if trace.first_signal else len(values)
                padded = [0] * (s - 1) + [int(v) for v in values]
                for t in range(stop):
                    assert trace.states[t] == tuple(padded[t + 1: t + s])
