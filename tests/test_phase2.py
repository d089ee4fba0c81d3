"""Phase-II monitoring tests against the worked-example dataset."""

import csv
import locale
import math
import os
import warnings
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from cvrunrules import phase2
from cvrunrules.cvdist import ProcessModel, moments_for_gamma
from cvrunrules.design import solve_design
from cvrunrules.design import ChartDesign
from cvrunrules.errors import ConfigError, CvRunRulesError, DomainError
from cvrunrules.phase2 import PhaseIIRecord, PhaseIISeries, monitor, monitor_values, read_phase2_csv
from cvrunrules.runrules import Direction, RunRule

from conftest import EDGE_FLOATS
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


# Fields the fast reader must read as ``int``/``float`` do, or leave to the
# row loop.  Each column draws from its own plain fields (signs, exponents,
# padding, form feed); a tricky file also draws from ``_TRICKY_FIELDS``:
# NaN and infinities, zero means, floats as indices, underscores, a Unicode
# digit, indices past int64, quotes (one field may open a quote that a
# later line closes), NUL, an undecodable byte and a field past csv's size
# limit.
_PLAIN_FIELDS = {
    "index": ("1", "+3", "007", " 4", "4 ", "\x0c5", "-2", "12"),
    "mean": ("1", "+3", "1.5", ".5", "5.", "1e3", "2E-2", " 4", "4 ", "\x0c5", "-0.25", "-2"),
    "std": ("0", "1", "1.5", ".5", "5.", "1e3", "2E-2", " 4", "\x0c5", "-0"),
    "note": ("a", "", " ", "1", "\u00b5"),
}
_TRICKY_FIELDS = (
    "0", "-0", "nan", "-inf", "Infinity", "1e400", "1.0", "1_0", "\u0663", "9223372036854775807",
    "9223372036854775808", "-9223372036854775809", "123456789012345678901234567890", '"7"', '"1,5"', '"a', 'b"',
    "a\0", "\0", "", "abc", "1e", "\x0c", "\udcff", "x" * (csv.field_size_limit() + 1),
)


@hs.composite
def phase2_files(draw):
    """CSV bytes around the ``index,mean,std`` layout: reordered, extra,
    repeated and missing columns; ragged, blank and whitespace-only rows;
    LF, CRLF and lone-CR line ends; header-only and empty files."""
    names = draw(hs.permutations(["index", "mean", "std"]))
    for name in draw(hs.lists(hs.sampled_from(["note", "mean", "index", ""]), max_size=2)):
        names.insert(draw(hs.integers(0, len(names))), name)
    if draw(hs.integers(0, 9)) == 0:
        del names[draw(hs.integers(0, len(names) - 1))]
    lines = [",".join(names)] if draw(hs.integers(0, 19)) else []
    tricky = draw(hs.integers(0, 2)) == 0
    for _ in range(draw(hs.integers(0, 6))):
        kind = draw(hs.integers(0, 19))
        if kind == 0:
            lines.append(draw(hs.sampled_from(["", " ", "\t", "\x0c"])))
            continue
        fields = []
        for name in names:
            pool = _TRICKY_FIELDS if tricky and draw(hs.integers(0, 5)) == 0 else _PLAIN_FIELDS.get(name or "note")
            fields.append(draw(hs.sampled_from(pool)))
        if kind == 1:
            fields = fields[:-1] if draw(hs.booleans()) else fields + ["1"]
        lines.append(",".join(fields))
    ends = [draw(hs.sampled_from(["\n", "\r\n", "\n", "\r\n", "\r"])) for _ in lines]
    if ends and draw(hs.booleans()):
        ends = [ends[0]] * len(lines)  # one line end throughout
    if ends and draw(hs.booleans()):
        ends[-1] = ""
    text = "".join(line + end for line, end in zip(lines, ends))
    return text.encode("utf-8", "surrogateescape")


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

    @pytest.mark.parametrize(
        "index", [1.5, True, np.True_, "1", None], ids=["float", "bool", "numpy-bool", "str", "none"]
    )
    def test_record_refuses_a_non_integer_index(self, index):
        with pytest.raises(DomainError, match="record index must be an integer"):
            PhaseIIRecord(index, 1.0, 0.1)

    @pytest.mark.parametrize("value", ["1.5", None, True, 1j], ids=["str", "none", "bool", "complex"])
    @pytest.mark.parametrize("field", ["mean", "std"])
    def test_record_refuses_a_non_real_mean_or_std(self, field, value):
        fields = {"mean": 1.0, "std": 0.1} | {field: value}
        with pytest.raises(DomainError, match=f"sample {field} must be a real number"):
            PhaseIIRecord(1, fields["mean"], fields["std"])

    def test_record_stores_plain_numbers(self):
        rec = PhaseIIRecord(np.int32(3), np.float32(0.5), 2**-1074)
        assert (type(rec.index), type(rec.sample_mean), type(rec.sample_std)) == (int, float, float)
        assert rec == PhaseIIRecord(3, 0.5, 5e-324)
        with pytest.raises(DomainError, match="sample mean must be finite"):
            PhaseIIRecord(1, -(10**400), 0.1)

    @pytest.mark.parametrize(
        "index",
        [
            [1.5, 2.9],
            [True, False],
            ["a", "b"],
            [None, None],
            [math.nan, 1],
            np.array([1.5, 2.5]),
            np.array([True, False]),
        ],
        ids=["floats", "bools", "strs", "nones", "nan", "float-array", "bool-array"],
    )
    def test_series_refuses_a_non_integer_index(self, index):
        # the float column was truncated to [1, 2]; the others raised a raw
        # ValueError or TypeError, or kept the bools as 1 and 0
        with pytest.raises(DomainError, match="the index column must hold integral numbers"):
            PhaseIISeries(index, [1.0, 1.0], [0.1, 0.1])

    @pytest.mark.parametrize("value", ["1.5", None, True, 1j], ids=["str", "none", "bool", "complex"])
    @pytest.mark.parametrize("field", ["mean", "std"])
    def test_series_refuses_a_non_real_mean_or_std(self, field, value):
        # the string was parsed as a float; the others raised raw errors
        columns = {"mean": [1.0, 2.0], "std": [0.1, 0.2]}
        columns[field] = [columns[field][0], value]
        with pytest.raises(DomainError, match=f"the {field} column must hold real numbers, got .* in row 2"):
            PhaseIISeries([1, 2], columns["mean"], columns["std"])

    @pytest.mark.parametrize("field", ["index", "mean", "std"])
    @pytest.mark.parametrize("shape", [(1, 1), ()])
    def test_series_refuses_a_column_that_is_not_one_dimensional(self, field, shape):
        columns = {"index": np.ones(shape, dtype=np.int64), "mean": np.ones(shape), "std": np.ones(shape)}
        columns = {name: column if name == field else column.reshape(-1) for name, column in columns.items()}
        with pytest.raises(DomainError, match=f"the {field} column must be one-dimensional"):
            PhaseIISeries(columns["index"], columns["mean"], columns["std"])
        with pytest.raises(DomainError, match=f"the {field} column must be one-dimensional"):
            PhaseIISeries(*(column.tolist() for column in columns.values()))

    def test_series_refuses_columns_of_different_lengths(self):
        with pytest.raises(DomainError, match="index, mean and std columns differ in length"):
            PhaseIISeries([1, 2], [1.0], [0.1, 0.1])

    def test_series_takes_any_integral_and_real_types(self):
        series = PhaseIISeries(
            [np.int32(3), 2**70, -1], [np.float32(0.5), 2, np.float64(-4.0)], [0, np.int64(1), 0.25]
        )
        assert series.index.tolist() == [3, 2**70, -1] and series.index.dtype == object
        assert series.mean.tolist() == [0.5, 2.0, -4.0] and series.std.tolist() == [0.0, 1.0, 0.25]
        assert list(series) == [
            PhaseIIRecord(3, 0.5, 0.0), PhaseIIRecord(2**70, 2.0, 1.0), PhaseIIRecord(-1, -4.0, 0.25)
        ]
        index = PhaseIISeries(np.array([2**63 + 1], dtype=np.uint64), [1.0], [0.0]).index
        assert index.tolist() == [2**63 + 1]
        with pytest.raises(DomainError, match="the mean column holds a value past the double range"):
            PhaseIISeries([1], [10**400], [0.1])


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

    @settings(max_examples=400)
    @given(content=phase2_files())
    @example(content=b"note,index,mean,std\n" + b"x" * (csv.field_size_limit() + 1) + b",1,2.0,1.0\n")
    @example(content=b"index,mean,std\r\n1,2.0,1.0\r\n\r\n2,3.0,0.5\r\n")
    @example(content=b"note,index,mean,std\n\xff,1,2.0,1.0\n")
    @example(content=b'index,mean,std,note\n1,2.0,1.0,"a\n2,3.0,0.5,b"\n')
    def test_property_same_outcome_as_row_by_row(self, tmp_path_factory, content):
        path = tmp_path_factory.getbasetemp() / "phase2_files.csv"
        path.write_bytes(content)
        assert outcome(read_phase2_csv, str(path)) == outcome(row_by_row_reader, str(path))

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_plain_file_skips_the_row_loop(self, tmp_path, monkeypatch, newline):
        # reordered and extra columns, padding, a blank line and CRLF are
        # all plain; only what numpy or the guards refuse takes the loop
        rows = ["note,std,index,mean"]
        rows += [f" a,{r.sample_std},{r.index},{r.sample_mean}" for r in row_by_row_reader(EXAMPLE_DATA)]
        path = tmp_path / "data.csv"
        path.write_bytes((newline.join(rows) + newline * 2).encode())
        expected = row_by_row_reader(str(path))
        assert len(expected) == 20

        def refuse(_path):
            raise AssertionError("the row loop ran on a plain file")

        monkeypatch.setattr(phase2, "_read_rows", refuse)
        assert list(read_phase2_csv(str(path))) == expected
        assert list(read_phase2_csv(EXAMPLE_DATA)) == row_by_row_reader(EXAMPLE_DATA)

    @pytest.mark.parametrize("text", ["index,mean,std\n", "index,mean,std\n\n\r\n"])
    def test_header_only_file_warns_nothing(self, tmp_path, text):
        # np.loadtxt warns "input contained no data" here; the warning
        # sends the file to the row loop and is not shown
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert len(read_phase2_csv(str(path))) == 0
        assert caught == []

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


# Indices a record or a series may be given: integers of several sizes and
# types, and values that are not integers.
_EDGE_INDICES = [
    0, -1, 3, 2**63, -(2**70), np.int64(7), np.uint8(3), True, np.True_, 1.5, math.nan, np.float64(2.0), "1", None
]


@hs.composite
def _rules(draw):
    s = draw(hs.integers(1, 5))
    return draw(hs.integers(1, s)), s, draw(hs.sampled_from(["upper", "lower"]))


class TestTypedFailures:
    """Every value from ``EDGE_FLOATS`` (or a plausible one), as a float or
    a numpy scalar, and every index from ``_EDGE_INDICES`` either gives a
    result in range or raises a ``CvRunRulesError``: never another
    exception, and never a ``RuntimeWarning``."""

    @staticmethod
    def _floats(draw, as_numpy, count):
        """``count`` values, each from ``EDGE_FLOATS`` or a plausible one."""
        wrap = np.float64 if as_numpy else float
        values = hs.one_of(hs.sampled_from(EDGE_FLOATS), hs.floats(0.05, 2.0))
        return [wrap(draw(values)) for _ in range(count)]

    @settings(max_examples=300)
    @given(index=hs.sampled_from(_EDGE_INDICES), data=hs.data(), as_numpy=hs.booleans())
    def test_record(self, index, data, as_numpy):
        mean, std = self._floats(data.draw, as_numpy, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                record = PhaseIIRecord(index, mean, std)
            except CvRunRulesError:
                return
            cv2 = record.cv2
        assert type(record.index) is int and 0.0 <= cv2 < math.inf

    @settings(max_examples=300)
    @given(data=hs.data(), size=hs.integers(0, 4), as_numpy=hs.booleans(), as_arrays=hs.booleans())
    def test_series(self, data, size, as_numpy, as_arrays):
        index = [data.draw(hs.one_of(hs.sampled_from(_EDGE_INDICES), hs.integers())) for _ in range(size)]
        mean, std = self._floats(data.draw, as_numpy, size), self._floats(data.draw, as_numpy, size)
        if as_arrays:
            mean, std = np.array(mean), np.array(std)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                series = PhaseIISeries(index, mean, std)
            except CvRunRulesError:
                return
            records = list(series)
        assert len(series) == size
        assert all(0.0 <= x < math.inf for x in series.cv2.tolist())
        assert series.cv2.tolist() == [record.cv2 for record in records]

    @settings(max_examples=300)
    @given(data=hs.data(), rule=_rules(), size=hs.integers(0, 8), as_numpy=hs.booleans())
    def test_monitor_values(self, data, rule, size, as_numpy):
        r, s, direction = rule
        values = self._floats(data.draw, as_numpy, size)
        (limit,) = self._floats(data.draw, as_numpy, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                trace = monitor_values(values, r, s, Direction(direction), limit)
            except CvRunRulesError:
                return
        assert trace.first_signal is None or 1 <= trace.run_start <= trace.first_signal <= size
        assert trace.first_signal == brute_force_first_signal(values, r, s, limit, direction)
        assert len(trace.outside) == len(trace.states) == size

    @settings(max_examples=200)
    @given(
        data=hs.data(),
        rules=hs.lists(_rules(), max_size=2),
        size=hs.integers(0, 6),
        as_numpy=hs.booleans(),
        as_series=hs.booleans(),
    )
    def test_monitor(self, data, rules, size, as_numpy, as_series):
        mean, std = self._floats(data.draw, as_numpy, size), self._floats(data.draw, as_numpy, size)
        columns = list(range(1, size + 1)), mean, std
        limits = self._floats(data.draw, as_numpy, len(rules))
        moments = moments_for_gamma(0.1, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                records = PhaseIISeries(*columns) if as_series else [PhaseIIRecord(*row) for row in zip(*columns)]
                designs = [
                    ChartDesign.from_limit(RunRule(r, s, direction), limit, moments, 370.4)
                    for (r, s, direction), limit in zip(rules, limits)
                ]
                traces = monitor(records, designs)
            except CvRunRulesError:
                return
        values = [record.cv2 for record in records]
        assert all(0.0 <= x < math.inf for x in values)
        assert [t.first_signal for t in traces] == [
            brute_force_first_signal(values, d.rule.r, d.rule.s, d.limit, d.rule.direction.value) for d in designs
        ]

