"""Configuration schema and command-line surface tests."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

import cvrunrules
from cvrunrules import cli
from cvrunrules.cli import main
from cvrunrules.config import parse_config
from cvrunrules.design import SWEEP_COLUMNS
from cvrunrules.errors import ConfigError

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

    def test_density_grid(self, tmp_path):
        out = tmp_path / "density.csv"
        assert main(["density", "--gamma0", "0.05", "0.1", "0.2", "--n", "5",
                     "--points", "50", "--format", "csv", "--output", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 150
        assert all(float(r["pdf"]) >= 0.0 for r in rows)

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

    def test_directory_paths_usage_error(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        assert main(["design", "--config", str(tmp_path)]) == 2
        assert main(["monitor", "--config", path, str(tmp_path)]) == 2
        assert main(["design", "--config", path, "--output", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 3 and all(line.startswith("error [usage]: ") for line in err)


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
