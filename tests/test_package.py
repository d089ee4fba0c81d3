"""The package's public surface and its release number."""

import os

import pytest

import cvrunrules

PUBLIC_NAMES = (
    "ChainSingularError", "ChartDesign", "ConfigError", "Cv2Moments", "CvRunRulesError", "DECREASING_SHIFTS",
    "DEFAULT_ARL0", "Direction", "DomainError", "EvaluationError", "GammaDomainError", "INCREASING_SHIFTS",
    "MeasurementErrorModel", "MonitorTrace", "PhaseIIRecord", "PhaseIISeries", "ProcessModel", "RunLengthMethod",
    "RunLengthMetrics", "RunRule", "ShiftRange", "ShiftSpec", "SimConfig", "UnattainableDesignError", "__version__",
    "arl_at_shift", "cv2_cdf", "cv2_moments", "cv2_pdf", "cv_cdf", "earl", "estimate_run_length", "in_control_prob",
    "monitor", "monitor_values", "observed_cv_incontrol", "observed_cv_shifted", "read_phase2_csv",
    "run_length_metrics", "shift_from_ab", "simulate_subgroups", "solve_design", "sweep",
)


def test_public_names_are_pinned():
    # a name joins or leaves the public surface only with this tuple
    assert tuple(sorted(cvrunrules.__all__)) == PUBLIC_NAMES  # sorted, so a repeated name fails too
    for name in PUBLIC_NAMES:
        assert hasattr(cvrunrules, name), name


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    path = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    with open(path, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == cvrunrules.__version__
