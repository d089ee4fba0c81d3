"""Shared test infrastructure.

The acceptance tests register one outcome line per criterion; the summary
is printed at the end of the run so a plain ``pytest`` invocation shows
the per-criterion verdicts.

``c7_cells`` draws the Monte Carlo acceptance cells; the sampler-law test
in ``test_mcsim`` runs on the same cells.  ``EDGE_FLOATS`` are the float
inputs of the typed-failure property tests.
"""

import math
import sys
import os

import numpy as np
from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# Every property test draws the same examples on every run (the seed comes
# from the test's own source), takes as long as it needs, and writes no
# example database into the checkout; a test sets only max_examples.
settings.register_profile("cvrunrules", deadline=None, derandomize=True, database=None)
settings.load_profile("cvrunrules")

# Each float input of a typed-failure property test takes these values,
# as a float or as a numpy scalar.
EDGE_FLOATS = [0.0, -0.0, -1.0, -1e-300, 1e-320, 1e-300, 1e300, math.inf, -math.inf, math.nan, 0.5, 1.0, 1.5, 2.0]

_C7_RULES = [(2, 3), (3, 4), (4, 5)]


def c7_cells():
    """The 20 C7 cells (r, s, direction, n, gamma0, tau, theta, eta, B, m)."""
    rng = np.random.default_rng(777001)
    cells = []
    while len(cells) < 20:
        r, s = _C7_RULES[rng.integers(0, 3)]
        direction = "lower" if rng.random() < 0.5 else "upper"
        tau = float(rng.uniform(0.5, 0.8)) if direction == "lower" else float(rng.uniform(1.3, 2.0))
        n = int(rng.choice([5, 15]))
        gamma0 = float(rng.choice([0.05, 0.1, 0.2]))
        theta = float(rng.choice([0.0, 0.05]))
        eta = float(rng.choice([0.0, 0.28]))
        slope = float(rng.choice([0.9, 1.0, 1.1]))
        m = int(rng.choice([1, 3]))
        cells.append((r, s, direction, n, gamma0, tau, theta, eta, slope, m))
    return cells

_ACCEPTANCE_LINES: list[str] = []


def record_criterion(name: str, passed: bool, detail: str = "", expected_failure: bool = False) -> None:
    if passed:
        verdict = "PASS"
    elif expected_failure:
        verdict = "FAIL (expected, see the test's xfail reason)"
    else:
        verdict = "FAIL"
    line = f"{name}: {verdict}"
    if detail:
        line += f" - {detail}"
    _ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
