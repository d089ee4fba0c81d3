"""The package's public surface and its release number."""

import os

import pytest

import cvrunrules
from cvrunrules import runrules
from cvrunrules.runrules import Direction, RunRule

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


@pytest.mark.parametrize("name", ["runrules.build_chain", "runrules.arl", "cv_cdf"])
def test_deprecations_use_the_filtered_wording(name):
    # pyproject.toml turns only this wording into an error: a deprecation
    # worded otherwise would let a test call the name unnoticed
    rule = RunRule(2, 3, Direction.UPPER)
    with pytest.deprecated_call():
        chain = runrules.build_chain(rule, 0.9)
    calls = {
        "runrules.build_chain": lambda: runrules.build_chain(rule, 0.9),
        "runrules.arl": lambda: runrules.arl(chain),
        "cv_cdf": lambda: cvrunrules.cv_cdf(0.12, 5, 0.1),
    }
    with pytest.warns(DeprecationWarning, match=r"^cvrunrules\.\S+ is deprecated") as record:
        calls[name]()
    assert str(record[0].message).startswith(f"cvrunrules.{name} is deprecated; use ")


def test_tracer_names_exist():
    # perfbench/layertrace.py refuses to install when a name it reports on
    # is gone; this fails the suite first, without installing the tracer
    import importlib
    import importlib.util
    import inspect

    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "layertrace.py")
    spec = importlib.util.spec_from_file_location("layertrace", path)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    assert layertrace.REQUIRED
    for name in layertrace.REQUIRED:
        layer, attr = name.split(".")
        assert layer in layertrace.LAYERS, name
        module = importlib.import_module(f"cvrunrules.{layer}")
        obj = getattr(module, attr, None)
        assert inspect.isfunction(obj) and obj.__module__ == module.__name__, name
