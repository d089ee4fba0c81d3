"""Shared test infrastructure.

The acceptance tests register one outcome line per criterion; the summary
is printed at the end of the run so a plain ``pytest`` invocation shows
the per-criterion verdicts.
"""

import sys
import os

sys.path.insert(0, os.path.dirname(__file__))

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
