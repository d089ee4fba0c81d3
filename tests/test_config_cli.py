"""Configuration schema and command-line surface tests."""

import contextlib
import csv
import hashlib
import io
import json
import locale
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import cvrunrules
from cvrunrules import cli, phase2
from cvrunrules.cli import main
from cvrunrules.config import load_config, parse_config
from cvrunrules.design import SWEEP_COLUMNS, solve_design
from cvrunrules.errors import ConfigError
from cvrunrules.phase2 import monitor_values, read_phase2_csv
from cvrunrules.runrules import Direction, RunRule

from conftest import EDGE_FLOATS

DATA_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "data")
EXAMPLE_CONFIG = os.path.join(DATA_DIR, "example_config.json")
EXAMPLE_DATA = os.path.join(DATA_DIR, "phase2_example.csv")


def base_config():
    return {
        "process": {"gamma0": 0.1, "n": 5},
        "measurement_error": {"theta": 0.05, "eta": 0.28, "B": 1.0, "m": 1},
        "rules": [{"r": 2, "s": 3, "direction": "upper"}],
        "arl0": 370.4,
    }


def _skip_if_locale_decodes_every_byte():
    encoding = locale.getpreferredencoding(False)
    try:
        b"\xff".decode(encoding)
    except UnicodeDecodeError:
        return
    pytest.skip(f"{encoding} decodes every byte")


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestConfigSchema:
    def test_valid_document(self):
        cfg = parse_config(base_config())
        assert cfg.process.gamma0 == 0.1
        assert cfg.rules[0].r == 2
        assert cfg.arl0 == 370.4

    def test_undecodable_config_is_a_config_error(self, tmp_path):
        _skip_if_locale_decodes_every_byte()
        path = tmp_path / "cfg.json"
        path.write_bytes(b'{"process": "\xff"}')
        with pytest.raises(ConfigError, match=re.escape(f"{path}: invalid JSON")):
            load_config(str(path))
        assert main(["design", "--config", str(path)]) == 2

    def test_unknown_top_level_key(self):
        doc = base_config()
        doc["unknown"] = 1
        with pytest.raises(ConfigError, match="unknown"):
            parse_config(doc)

    def test_unknown_nested_key(self):
        doc = base_config()
        doc["process"]["extra"] = 1
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_non_finite_rejected(self):
        doc = base_config()
        doc["process"]["gamma0"] = float("nan")
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_missing_rules(self):
        doc = base_config()
        del doc["rules"]
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_gamma_window_enforced(self):
        doc = base_config()
        doc["process"]["gamma0"] = 0.6
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_limits_must_match_a_rule(self):
        doc = base_config()
        doc["limits"] = {"9of9-upper": 1.0}
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_limits_accepted(self):
        doc = base_config()
        doc["limits"] = {"2of3-upper": 0.05}
        cfg = parse_config(doc)
        assert cfg.limits["2of3-upper"] == 0.05

    def test_defaults(self):
        doc = {"process": {"gamma0": 0.1, "n": 5}, "rules": [{"r": 2, "s": 3, "direction": "lower"}]}
        cfg = parse_config(doc)
        assert cfg.measurement_error.is_identity
        assert cfg.arl0 == 370.4

    @pytest.mark.parametrize(
        "keys,value",
        [
            (("process", "gamma0"), "0.1"),
            (("measurement_error", "B"), "2"),
            (("arl0",), "500"),
            (("limits", "2of3-upper"), "0.05"),
            (("measurement_error", "theta"), True),
            (("limits", "2of3-upper"), True),
        ],
        ids=["gamma0-string", "B-string", "arl0-string", "limit-string", "theta-true", "limit-true"],
    )
    def test_numbers_refuse_strings_and_booleans(self, keys, value):
        # float() read "0.1" as 0.1 and true as 1.0, while n, m, r and s refused both
        doc = base_config()
        *sections, key = keys
        target = doc
        for section in sections:
            target = target.setdefault(section, {})
        target[key] = value
        with pytest.raises(ConfigError, match=re.escape(f"{'.'.join(keys)}: expected a number, got {value!r}")):
            parse_config(doc)

    def test_integer_past_the_double_range_refused(self, tmp_path):
        # float() raised a bare OverflowError
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config()).replace("370.4", "1" + "0" * 400))
        with pytest.raises(ConfigError, match="arl0: value must be finite, got inf"):
            load_config(str(path))

    def test_json_integers_accepted(self):
        doc = base_config()
        doc["arl0"] = 500
        doc["measurement_error"]["B"] = 2
        cfg = parse_config(doc)
        assert (cfg.arl0, cfg.measurement_error.slope) == (500.0, 2.0)

    @pytest.mark.parametrize(
        "edit,message",
        [
            pytest.param(lambda doc: doc.update(process=[0.1, 5]), "process: expected an object", id="section-not-object"),
            pytest.param(lambda doc: doc["process"].pop("n"), "process: needs keys ['gamma0', 'n']", id="process-without-n"),
            pytest.param(
                lambda doc: doc["measurement_error"].update(theta=-1),
                "measurement_error: theta must be >= 0, got -1.0",
                id="negative-theta",
            ),
            pytest.param(lambda doc: doc.update(rules=[]), "rules: expected a non-empty list", id="no-rules"),
            pytest.param(
                lambda doc: doc["rules"][0].pop("direction"),
                "rules[0]: needs keys ['direction', 'r', 's']",
                id="rule-without-direction",
            ),
            pytest.param(
                lambda doc: doc["rules"][0].update(direction="sideways"),
                "rules[0]: direction must be 'upper' or 'lower', got 'sideways'",
                id="unknown-direction",
            ),
            pytest.param(
                lambda doc: doc["rules"][0].update(r=4), "rules[0]: need 1 <= r <= s, got r=4, s=3", id="r-above-s"
            ),
            pytest.param(lambda doc: doc.update(arl0=1), "arl0: must exceed 1, got 1.0", id="arl0-one"),
            pytest.param(
                lambda doc: doc.update(limits=[0.05]),
                "limits: expected an object of rule-label -> limit",
                id="limits-list",
            ),
        ],
    )
    def test_schema_refusals(self, edit, message):
        doc = base_config()
        edit(doc)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(doc)


class TestCli:
    def test_design_table_output(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        assert main(["design", "--config", path, "--cdf", "cdflib"]) == 0
        out = capsys.readouterr().out
        assert "2-of-3" in out and "upper" in out

    def test_design_example_matches_reference(self, tmp_path, capsys):
        assert main(["design", "--config", EXAMPLE_CONFIG, "--cdf", "cdflib"]) == 0
        out = capsys.readouterr().out
        assert "0.5567" in out      # 2-of-3 upper control limit
        assert "0.3821" in out or "0.3822" in out
        assert "0.2972" in out or "0.2973" in out

    def test_design_csv_and_json(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out_csv = tmp_path / "out.csv"
        assert main(["design", "--config", path, "--format", "csv", "--output", str(out_csv)]) == 0
        rows = list(csv.DictReader(out_csv.open()))
        assert rows[0]["rule"] == "2-of-3"
        out_json = tmp_path / "out.json"
        assert main(["design", "--config", path, "--format", "json", "--output", str(out_json)]) == 0
        data = json.loads(out_json.read_text())
        assert data[0]["direction"] == "upper"

    def test_evaluate(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        assert main(["evaluate", "--config", path, "--tau", "1.5", "--format", "json", "--cdf", "cdflib"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["tau"] == 1.5
        assert rows[0]["arl"] > 1.0

    def test_earl(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        assert main(["earl", "--config", path, "--omega", "1.0", "2.0", "--nodes", "16",
                     "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["earl"] > 1.0

    def test_sweep_csv_columns_and_rows(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--config", path, "--gamma0", "0.05", "0.1", "--tau", "1.5", "2.0",
            "--format", "csv", "--output", str(out), "--cdf", "cdflib",
        ]) == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 4
        assert rows[0]["rule_r"] == "2"
        # fixed, documented column order
        assert list(rows[0].keys())[:5] == ["rule_r", "rule_s", "direction", "n", "gamma0"]

    def test_sweep_empty_grid_header_only(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", path, "--tau", "--format", "csv", "--output", str(out)]) == 0
        content = out.read_text().strip().splitlines()
        assert len(content) == 1 and content[0].startswith("rule_r,")

    def test_monitor_example(self, capsys):
        assert main(["monitor", "--config", EXAMPLE_CONFIG, EXAMPLE_DATA,
                     "--shewhart", "--cdf", "cdflib"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.strip()]
        # summary row per chart: 3 configured + shewhart reference
        assert len(lines) == 1 + 4
        assert "13" in out  # first signal of the 2-of-3 chart

    def test_monitor_deterministic_bytes(self, tmp_path):
        out1 = tmp_path / "r1.csv"
        out2 = tmp_path / "r2.csv"
        for out in (out1, out2):
            assert main(["monitor", "--config", EXAMPLE_CONFIG, EXAMPLE_DATA,
                         "--format", "csv", "--output", str(out), "--cdf", "cdflib"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    # Output of the record-by-record reader and automaton walk that the
    # column pipeline replaced; the charts must reproduce it byte for byte.
    MONITOR_TABLE = (
        "rule    direction  limit     first_signal  run_start\n"
        "2-of-3  upper      0.556749  13            12       \n"
        "3-of-4  upper      0.38217   13            12       \n"
        "4-of-5  upper      0.297252  14            12       \n"
        "1-of-1  upper      1.1913                           \n"
    )
    MONITOR_SHA256 = {
        "table": "3e409abec08a5a2e3b4046d498824f73c62fd3db5457554936672b6947ec387f",
        "csv": "c2b835ce90f422972fe4ef83589405fe25f1d2040e21bbe8afc8224315c30414",
        "json": "bcb19507995c1074e06ced45a268bdbe057ca6f89894d152166aaede205200ab",
    }

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_monitor_pinned_bytes(self, fmt, capsys):
        assert main(["monitor", "--config", EXAMPLE_CONFIG, EXAMPLE_DATA,
                     "--shewhart", "--cdf", "cdflib", "--format", fmt]) == 0
        out = capsys.readouterr().out
        if fmt == "table":
            assert out == self.MONITOR_TABLE
        assert hashlib.sha256(out.encode()).hexdigest() == self.MONITOR_SHA256[fmt]

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_monitor_builds_no_states(self, fmt, capsys, monkeypatch):
        # no output prints the automaton's states, so the command must not
        # walk the history
        def refuse(*args, **kwargs):
            raise AssertionError("monitor built run-rule states")

        monkeypatch.setattr(phase2, "history_path", refuse)
        assert main(["monitor", "--config", EXAMPLE_CONFIG, EXAMPLE_DATA,
                     "--shewhart", "--cdf", "cdflib", "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == self.MONITOR_SHA256[fmt]

    def test_monitor_long_series(self, tmp_path, capsys):
        # 15 000 subgroups whose CV rises by 40% at record 5 000 and falls to
        # 70% of its in-control value at record 10 000; every chart's summary
        # and flags against monitor_values and a brute-force trailing-window
        # count
        rng = np.random.default_rng(20240611)
        records, mu, gamma = 15000, 50.0, 0.1
        record = np.arange(1, records + 1)
        sd = np.select([record > 10000, record > 5000], [0.7, 1.4], 1.0) * gamma * mu
        xs = rng.normal(mu, sd[:, None], size=(records, 5))
        data = tmp_path / "long.csv"
        data.write_text("index,mean,std\n" + "".join(
            f"{i},{m:.6f},{s:.6f}\n"
            for i, (m, s) in enumerate(zip(xs.mean(axis=1).tolist(), xs.std(axis=1, ddof=1).tolist()), start=1)
        ))
        doc = base_config()
        doc["rules"] = [
            {"r": 2, "s": 3, "direction": "upper"},
            {"r": 4, "s": 5, "direction": "lower"},
            {"r": 3, "s": 4, "direction": "upper"},
        ]
        doc["arl0"] = 20000.0
        path = write_config(tmp_path, doc)
        cfg = parse_config(doc)
        cv2 = read_phase2_csv(str(data)).cv2
        values = cv2.tolist()
        expected = {}
        for rule in [*cfg.rules, RunRule(1, 1, Direction.UPPER), RunRule(1, 1, Direction.LOWER)]:
            limit = solve_design(rule, cfg.process, cfg.measurement_error, cfg.arl0).limit
            upper = rule.direction is Direction.UPPER
            outside = [int(v > limit if upper else v < limit) for v in values]
            first = start = None
            for t in range(1, records + 1):
                if sum(outside[max(0, t - rule.s) : t]) >= rule.r:
                    first = start = t
                    while start > 1 and outside[start - 2]:
                        start -= 1
                    break
            trace = monitor_values(cv2, rule.r, rule.s, rule.direction, limit)
            assert (trace.first_signal, trace.run_start) == (first, start)
            assert list(map(int, trace.outside)) == outside
            expected[f"{rule.r}-of-{rule.s}", rule.direction.value] = (limit, outside, first, start)
        assert {v[2] for v in expected.values()} != {None}  # some chart signals

        outputs = {}
        for fmt in ("table", "csv", "json"):
            assert main(["monitor", "--config", path, str(data), "--shewhart", "--format", fmt]) == 0
            outputs[fmt] = capsys.readouterr().out
        lines = outputs["table"].splitlines()
        assert lines[0].split() == list(cli._MONITOR_SUMMARY_COLUMNS)
        starts = [lines[0].index(name) for name in cli._MONITOR_SUMMARY_COLUMNS] + [None]
        table = {}
        for line in lines[1:]:
            rule, direction, limit, first, start = (line[a:b].strip() for a, b in zip(starts, starts[1:]))
            table[rule, direction] = (limit, first, start)
        assert table == {
            chart: (f"{limit:.6g}", "" if first is None else str(first), "" if start is None else str(start))
            for chart, (limit, _, first, start) in expected.items()
        }
        per_sample = {
            "csv": list(csv.DictReader(io.StringIO(outputs["csv"]))),
            "json": json.loads(outputs["json"]),
        }
        for fmt, rows in per_sample.items():
            assert len(rows) == records * len(expected)
            for chart, (limit, outside, _, _) in expected.items():
                chart_rows = [row for row in rows if (row["rule"], row["direction"]) == chart]
                assert [int(row["outside"]) for row in chart_rows] == outside, (fmt, chart)
                assert {float(row["limit"]) for row in chart_rows} == {limit}

    def test_monitor_shewhart_order_independent_of_hash_seed(self, tmp_path):
        # Under a set of directions, hash seeds 0 and 2 put the two 1-of-1
        # rows in opposite orders; they must follow the rules' order.
        doc = base_config()
        doc["rules"] = [
            {"r": 2, "s": 3, "direction": "lower"},
            {"r": 2, "s": 3, "direction": "upper"},
        ]
        path = write_config(tmp_path, doc)
        src = os.path.dirname(os.path.dirname(os.path.abspath(cvrunrules.__file__)))
        outputs = []
        for seed in ("0", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-m", "cvrunrules.cli", "monitor", "--config", path,
                 EXAMPLE_DATA, "--shewhart", "--cdf", "cdflib"],
                env=env, capture_output=True, check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        shewhart = [line.split()[1] for line in outputs[0].decode().splitlines() if line.startswith("1-of-1")]
        assert shewhart == ["lower", "upper"]

    @pytest.mark.parametrize(
        "row",
        ["1,0.0,1.0", "1,nan,1.0", "1,inf,1.0", "1,1.0,nan", "1,1.0,inf"],
        ids=["zero-mean", "nan-mean", "inf-mean", "nan-std", "inf-std"],
    )
    def test_monitor_rejects_zero_mean(self, tmp_path, capsys, row):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"index,mean,std\n{row}\n")
        assert main(["monitor", "--config", EXAMPLE_CONFIG, str(bad)]) == 2
        assert ":2: bad record" in capsys.readouterr().err

    def test_simulate_seed_repeatable(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        args = ["simulate", "--config", path, "--rule", "2,3,upper", "--tau", "1.5",
                "--replications", "5000", "--seed", "42", "--format", "json"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        row = json.loads(first)[0]
        assert row["truncated"] == 0
        assert row["mc_arl"] > 1.0

    def test_simulate_designs_only_the_wanted_rule(self, tmp_path, capsys, monkeypatch):
        calls = []
        real_solve_design = cli.solve_design

        def counting_solve_design(rule, *args, **kwargs):
            calls.append(rule)
            return real_solve_design(rule, *args, **kwargs)

        monkeypatch.setattr(cli, "solve_design", counting_solve_design)
        args = ["simulate", "--config", EXAMPLE_CONFIG, "--rule", "3,4,upper", "--tau", "1.5",
                "--replications", "200", "--format", "json", "--cdf", "cdflib"]
        assert main(args) == 0
        assert [(rule.r, rule.s) for rule in calls] == [(3, 4)]
        row = json.loads(capsys.readouterr().out)[0]
        assert (row["rule"], row["direction"]) == ("3-of-4", "upper")
        # a preset limit is still honoured, with no solve at all
        with open(EXAMPLE_CONFIG) as fh:
            doc = json.load(fh)
        doc["limits"] = {"3of4-upper": 0.3821}
        calls.clear()
        assert main(["simulate", "--config", write_config(tmp_path, doc), "--rule", "3,4,upper",
                     "--replications", "200"]) == 0
        assert calls == []

    def test_simulate_zero_replications_usage_error(self, tmp_path):
        path = write_config(tmp_path, base_config())
        assert main(["simulate", "--config", path, "--rule", "2,3,upper",
                     "--replications", "0"]) == 2

    def test_simulate_rule_needs_three_fields(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        assert main(["simulate", "--config", path, "--rule", "2,3", "--replications", "10"]) == 2
        assert "error [usage]: --rule: expected r,s,direction, got '2,3'" in capsys.readouterr().err

    def test_simulate_unknown_rule(self, tmp_path):
        path = write_config(tmp_path, base_config())
        assert main(["simulate", "--config", path, "--rule", "4,5,lower",
                     "--replications", "10"]) == 2

    def test_simulate_fails_before_monte_carlo(self, tmp_path, capsys, monkeypatch):
        # at tau = 0.01 the 2-of-3 upper chart never signals: the exact ARL
        # refuses p = 1, so no replication may run max_run_length steps first
        def no_monte_carlo(*args, **kwargs):
            raise AssertionError("estimate_run_length was called")

        monkeypatch.setattr(cli, "estimate_run_length", no_monte_carlo)
        path = write_config(tmp_path, base_config())
        assert main(["simulate", "--config", path, "--rule", "2,3,upper", "--tau", "0.01",
                     "--replications", "10", "--max-run-length", "1000000"]) == 3
        assert "error [numeric]" in capsys.readouterr().err

    def test_evaluate_non_finite_b_usage_error(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        assert main(["evaluate", "--config", path, "--tau", "1.5", "--b", "inf"]) == 2
        assert "error [usage]: b must be finite" in capsys.readouterr().err

    def test_earl_node_cap_usage_error(self, tmp_path, capsys, monkeypatch):
        import cvrunrules.design as design_mod

        def no_leggauss(nodes):
            raise AssertionError("leggauss was reached")

        monkeypatch.setattr(design_mod, "_gauss_legendre", no_leggauss)
        path = write_config(tmp_path, base_config())
        assert main(["earl", "--config", path, "--omega", "1", "2", "--nodes", "100000000"]) == 2
        assert "error [usage]: nodes must be <= 1024" in capsys.readouterr().err

    def test_sweep_node_cap_usage_error(self, capsys):
        assert main(["sweep", "--config", EXAMPLE_CONFIG, "--omega", "1", "2", "--nodes", "100000000"]) == 2
        captured = capsys.readouterr()
        assert "error [usage]: nodes must be <= 1024" in captured.err
        assert captured.out == ""

    def test_evaluate_tiny_tau_usage_error(self, tmp_path, capsys):
        # b/tau overflows to inf; the message names what the caller passed
        path = write_config(tmp_path, base_config())
        assert main(["evaluate", "--config", path, "--tau", "1e-320"]) == 2
        err = capsys.readouterr().err
        assert "error [usage]: tau=1e-320 is too small" in err and "b=1.0" in err

    def test_density_grid(self, tmp_path):
        out = tmp_path / "density.csv"
        assert main(["density", "--gamma0", "0.05", "0.1", "0.2", "--n", "5",
                     "--points", "50", "--format", "csv", "--output", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 150
        assert all(float(r["pdf"]) >= 0.0 for r in rows)

    @pytest.mark.parametrize("profile", ["exact", "cdflib"])
    def test_density_takes_no_cdf_profile(self, profile, capsys):
        # cv2_pdf has no profile: the flag was accepted and changed nothing
        with pytest.raises(SystemExit) as exc:
            main(["density", "--gamma0", "0.1", "--points", "2", "--cdf", profile])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --cdf {profile}" in capsys.readouterr().err

    @pytest.mark.parametrize("gamma0", ["0.7", "0.5", "0", "-1", "1e-200", "nan"])
    def test_density_gamma0_outside_the_window_usage_error(self, gamma0, capsys):
        # a bad option, as a bad --n is: it exited 3 as a numeric failure
        assert main(["density", "--gamma0", "0.1", gamma0, "--points", "2"]) == 2
        err = capsys.readouterr().err
        assert f"error [usage]: --gamma0 must lie in [1e-150, 0.5), got {float(gamma0)}" in err
        assert "force" not in err

    @pytest.mark.parametrize("gamma0", [0.7, 0.5])
    def test_config_gamma0_outside_the_window_usage_error(self, tmp_path, gamma0, capsys):
        # ProcessModel has no force flag, so the refusal offers none
        doc = base_config()
        doc["process"]["gamma0"] = gamma0
        assert main(["design", "--config", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert f"error [usage]: process: gamma = {gamma0} is outside the validity window [1e-150, 0.5)" in err
        assert "force" not in err

    def test_infeasible_design_exit_code(self, tmp_path):
        doc = base_config()
        doc["rules"] = [{"r": 2, "s": 3, "direction": "lower"}]
        doc["arl0"] = 1.001
        path = write_config(tmp_path, doc)
        assert main(["design", "--config", path]) in (3, 4)

    def test_bad_config_exit_code(self, tmp_path):
        doc = base_config()
        doc["bogus"] = True
        path = write_config(tmp_path, doc)
        assert main(["design", "--config", path]) == 2

    def test_missing_file_exit_code(self):
        assert main(["design", "--config", "/nonexistent/cfg.json"]) == 2

    @pytest.mark.parametrize("points", ["0", "-1"])
    def test_density_nonpositive_points_usage_error(self, points, capsys):
        assert main(["density", "--gamma0", "0.1", "--points", points]) == 2
        assert "error [usage]: --points must be >= 1" in capsys.readouterr().err

    def test_density_points_capped_before_allocating(self, capsys, monkeypatch):
        # 10**11 points died in numpy's allocation of 745 GiB (a MemoryError
        # traceback); one point past the cap is refused before any grid
        def no_grid(*args, **kwargs):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(np, "linspace", no_grid)
        assert main(["density", "--gamma0", "0.1", "--points", str(cli._MAX_POINTS + 1)]) == 2
        assert f"error [usage]: --points must be >= 1 and <= {cli._MAX_POINTS}, got" in capsys.readouterr().err

    @pytest.mark.parametrize("x_max", ["inf", "-inf", "nan", "0", "-1", "-0.0"])
    def test_density_x_max_must_be_positive_and_finite(self, x_max, capsys):
        assert main(["density", "--gamma0", "0.1", f"--x-max={x_max}", "--points", "3"]) == 2
        assert "error [usage]: --x-max must be positive and finite" in capsys.readouterr().err

    def test_directory_paths_usage_error(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        assert main(["design", "--config", str(tmp_path)]) == 2
        assert main(["monitor", "--config", path, str(tmp_path)]) == 2
        assert main(["design", "--config", path, "--output", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 3 and all(line.startswith("error [usage]: ") for line in err)

    def test_undecodable_data_file_usage_error(self, tmp_path, capsys):
        _skip_if_locale_decodes_every_byte()
        path = tmp_path / "data.csv"
        path.write_bytes(b"note,index,mean,std\n\xff,1,2.0,1.0\n")
        assert main(["monitor", "--config", EXAMPLE_CONFIG, str(path)]) == 2
        assert capsys.readouterr().err.startswith("error [usage]: ")

    def test_field_past_csv_limit_usage_error(self, tmp_path, capsys):
        limit = csv.field_size_limit()
        path = tmp_path / "data.csv"
        path.write_text("note,index,mean,std\n" + "x" * (limit + 1) + ",1,2.0,1.0\n")
        assert main(["monitor", "--config", EXAMPLE_CONFIG, str(path)]) == 2
        assert capsys.readouterr().err == f"error [usage]: field larger than field limit ({limit})\n"


# Each command's declared columns, and a small run of it.
COMMAND_COLUMNS = [
    ("design", ["--config", EXAMPLE_CONFIG, "--cdf", "cdflib"], cli._DESIGN_COLUMNS),
    ("evaluate", ["--config", EXAMPLE_CONFIG, "--tau", "1.5", "--cdf", "cdflib"], cli._EVALUATE_COLUMNS),
    ("earl", ["--config", EXAMPLE_CONFIG, "--omega", "1", "2", "--nodes", "16"], cli._EARL_COLUMNS),
    ("sweep", ["--config", EXAMPLE_CONFIG, "--tau", "1.5", "--n", "1", "5", "--cdf", "cdflib"],
     SWEEP_COLUMNS),
    ("simulate", ["--config", EXAMPLE_CONFIG, "--rule", "2,3,upper", "--tau", "1.5",
                  "--replications", "50", "--cdf", "cdflib"], cli._SIMULATE_COLUMNS),
    ("monitor", ["--config", EXAMPLE_CONFIG, EXAMPLE_DATA, "--cdf", "cdflib"], cli._MONITOR_COLUMNS),
    ("density", ["--gamma0", "0.1", "--points", "3"], cli._DENSITY_COLUMNS),
]


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("command,argv,columns", COMMAND_COLUMNS, ids=[c[0] for c in COMMAND_COLUMNS])
def test_every_format_carries_the_declared_columns(command, argv, columns, fmt, capsys):
    assert main([command, *argv, "--format", fmt]) == 0
    out = capsys.readouterr().out
    if fmt == "table":
        if command == "monitor":
            columns = cli._MONITOR_SUMMARY_COLUMNS  # one summary row per chart
        assert out.splitlines()[0].split() == list(columns)
    elif fmt == "csv":
        assert next(csv.reader(io.StringIO(out))) == list(columns)
    else:
        rows = json.loads(out)
        assert rows and all(list(row) == list(columns) for row in rows)


# The numeric options of each command, each drawn from EDGE_FLOATS and two
# plausible values, or from a small set of integers that starts no large
# work (at most 10 replications of at most 50 points).
_FLOAT = hs.sampled_from(EDGE_FLOATS + [0.1, 0.3]).map(repr)
_CLI_INTS = {
    "--nodes": [-1, 0, 7, 8, 9, 1025],
    "--n": [-1, 0, 1, 2, 5],
    "--points": [-1, 0, 1, 3, cli._MAX_POINTS + 1],
    "--replications": [-1, 0, 1, 10],
    "--max-run-length": [-1, 0, 1, 50],
}


def _option(name, required=False):
    # "--opt=value", so argparse reads a value such as -inf as the option's
    # argument and not as another option
    values = _FLOAT if name not in _CLI_INTS else hs.sampled_from(_CLI_INTS[name]).map(str)
    given_ = values.map(lambda value: [f"{name}={value}"])
    return given_ if required else hs.one_of(hs.just([]), given_)


_OMEGA = hs.tuples(hs.just("--omega"), _FLOAT, _FLOAT).map(list)
_CLI_ARGV = hs.one_of(
    hs.tuples(hs.just(["evaluate", "--config", EXAMPLE_CONFIG]), _option("--tau", True), _option("--b")),
    hs.tuples(hs.just(["earl", "--config", EXAMPLE_CONFIG]), _OMEGA, _option("--nodes")),
    hs.tuples(hs.just(["sweep", "--config", EXAMPLE_CONFIG]), hs.one_of(_option("--tau", True), _OMEGA),
              _option("--gamma0"), _option("--n"), _option("--nodes")),
    hs.tuples(hs.just(["simulate", "--config", EXAMPLE_CONFIG, "--rule", "2,3,upper"]), _option("--tau"),
              _option("--b"), _option("--replications", True), _option("--max-run-length", True)),
    hs.tuples(hs.just(["density"]), _option("--gamma0", True), _option("--n"), _option("--x-max"),
              _option("--points", True)),
).map(lambda parts: [token for part in parts for token in part])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(argv=_CLI_ARGV)
def test_cli_numeric_options_exit_cleanly(argv):
    # every numeric option, in range or not, ends in a documented exit code
    # (argparse's own usage exit is 2) with one line of error and no traceback
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_NUMERIC, cli.EXIT_INFEASIBLE), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert (code == cli.EXIT_OK) == (err.getvalue() == ""), (argv, err.getvalue())
