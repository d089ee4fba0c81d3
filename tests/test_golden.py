"""Golden-file regression: regenerate the checked-in reference CSVs and
compare value by value.

The goldens are produced by this code under the 'cdflib' profile and
written at 10 significant digits; any numerical drift in the kernels, the
chain algebra or the solver shows up here before it shows up in a
published-table tolerance.  ``test_golden_k_meets_arl0`` checks the
snapshot's answer itself, without the solver: every stored limit must
give the target in-control ARL.

Rewrite the snapshots after a deliberate numerical change with

    PYTHONPATH=src python tests/test_golden.py

which reruns the calls the tests make on the keys of the existing files.
"""

import csv
import os

import pytest

from cvrunrules.cvdist import ProcessModel, moments_for_gamma
from cvrunrules.design import DEFAULT_ARL0, ChartDesign, arl_at_shift, solve_design
from cvrunrules.merror import ShiftSpec
from cvrunrules.runrules import Direction, RunRule

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "golden")
REGEN_RTOL = 1e-9
ARL0_RTOL = 1e-9


def load_rows(name):
    with open(os.path.join(GOLDEN_DIR, name), newline="") as fh:
        return list(csv.DictReader(fh))


def row_key(row):
    return (int(row["rule_r"]), int(row["rule_s"]), row["direction"], float(row["gamma0"]), int(row["n"]))


def design_for(key):
    r, s, direction, gamma0, n = key
    return solve_design(RunRule(r, s, Direction(direction)), ProcessModel(gamma0, n), profile="cdflib")


def performance_for(design, key, tau):
    gamma0, n = key[3], key[4]
    return arl_at_shift(design, ProcessModel(gamma0, n), None, ShiftSpec.from_tau(tau, gamma0), profile="cdflib")


def test_chart_constants_golden():
    rows = load_rows("chart_constants.csv")
    assert len(rows) == 36
    designs = {}
    for row in rows:
        d = designs[row_key(row)] = design_for(row_key(row))
        assert d.k == pytest.approx(float(row["k"]), rel=REGEN_RTOL)
        assert d.limit == pytest.approx(float(row["limit"]), rel=REGEN_RTOL)
    # stash for the performance half so the module runs designs only once
    test_chart_constants_golden.designs = designs


def test_golden_k_meets_arl0():
    # The stored limit itself, not the solver's path, must hit the target.
    # Writing it at 10 digits moves it by up to 5e-10 relative, and the ARL
    # follows that at its own slope (up to 3.6e-9 relative on this grid).
    for row in load_rows("chart_constants.csv"):
        r, s, direction, gamma0, n = key = row_key(row)
        rule, moments, limit = RunRule(r, s, Direction(direction)), moments_for_gamma(gamma0, n), float(row["limit"])

        def arl(x):
            return performance_for(ChartDesign.from_limit(rule, x, moments, DEFAULT_ARL0), key, 1.0).arl

        h = 1e-6 * limit
        rounding = abs(arl(limit + h) - arl(limit - h)) / (2 * h) * 5e-10 * limit
        assert abs(arl(limit) - DEFAULT_ARL0) <= ARL0_RTOL * DEFAULT_ARL0 + rounding, row


def test_error_free_performance_golden():
    designs = getattr(test_chart_constants_golden, "designs", None)
    if designs is None:
        test_chart_constants_golden()
        designs = test_chart_constants_golden.designs
    rows = load_rows("error_free_performance.csv")
    assert len(rows) == 144
    for row in rows:
        m = performance_for(designs[row_key(row)], row_key(row), float(row["tau"]))
        assert m.arl == pytest.approx(float(row["arl"]), rel=REGEN_RTOL)
        assert m.sdrl == pytest.approx(float(row["sdrl"]), rel=REGEN_RTOL)


def _rewrite(name, rows, values):
    with open(os.path.join(GOLDEN_DIR, name), "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        for row in rows:
            writer.writerow(dict(row, **{col: f"{v:.10g}" for col, v in values(row).items()}))


if __name__ == "__main__":
    constants = load_rows("chart_constants.csv")
    designs = {row_key(row): design_for(row_key(row)) for row in constants}
    _rewrite("chart_constants.csv", constants, lambda row: {"k": designs[row_key(row)].k, "limit": designs[row_key(row)].limit})

    def performance(row):
        m = performance_for(designs[row_key(row)], row_key(row), float(row["tau"]))
        return {"arl": m.arl, "sdrl": m.sdrl}

    _rewrite("error_free_performance.csv", load_rows("error_free_performance.csv"), performance)
