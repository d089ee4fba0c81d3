"""One-sided r-of-s run-rules control charts for the squared coefficient
of variation of a normal process, with a linear-covariate measurement
error model.

The package designs charts against an in-control ARL target, evaluates
exact run-length metrics through an absorbing Markov chain, integrates
expected ARL over shift ranges, validates everything against a Monte
Carlo oracle, and monitors recorded phase-II data.  The oracle draws each
subgroup's mean and variance from their exact laws: the averaged items
are normal, so the two are independent normal and scaled chi-square
variates.  The item-by-item pipeline lives in the test suite, as the
reference for that sampler.
"""

__version__ = "0.4.0"

from .cvdist import Cv2Moments, ProcessModel, cv2_cdf, cv2_moments, cv2_pdf
from .design import (
    DECREASING_SHIFTS,
    DEFAULT_ARL0,
    INCREASING_SHIFTS,
    ChartDesign,
    ShiftRange,
    arl_at_shift,
    earl,
    solve_design,
    sweep,
)
from .errors import (
    ChainSingularError,
    ConfigError,
    CvRunRulesError,
    DomainError,
    EvaluationError,
    GammaDomainError,
    UnattainableDesignError,
)
from .mcsim import SimConfig, estimate_run_length, simulate_subgroups
from .merror import (
    MeasurementErrorModel,
    ShiftSpec,
    observed_cv_incontrol,
    observed_cv_shifted,
    shift_from_ab,
)
from .phase2 import MonitorTrace, PhaseIIRecord, PhaseIISeries, monitor, monitor_values, read_phase2_csv
from .runrules import (
    Direction,
    RunLengthMethod,
    RunLengthMetrics,
    RunRule,
    in_control_prob,
    run_length_metrics,
)

__all__ = [
    "__version__",
    "ProcessModel",
    "Cv2Moments",
    "cv2_cdf",
    "cv2_pdf",
    "cv2_moments",
    "MeasurementErrorModel",
    "ShiftSpec",
    "observed_cv_incontrol",
    "observed_cv_shifted",
    "shift_from_ab",
    "Direction",
    "RunRule",
    "RunLengthMethod",
    "RunLengthMetrics",
    "in_control_prob",
    "run_length_metrics",
    "ChartDesign",
    "ShiftRange",
    "DECREASING_SHIFTS",
    "INCREASING_SHIFTS",
    "DEFAULT_ARL0",
    "solve_design",
    "arl_at_shift",
    "earl",
    "sweep",
    "SimConfig",
    "simulate_subgroups",
    "estimate_run_length",
    "PhaseIIRecord",
    "PhaseIISeries",
    "MonitorTrace",
    "read_phase2_csv",
    "monitor_values",
    "monitor",
    "CvRunRulesError",
    "DomainError",
    "GammaDomainError",
    "EvaluationError",
    "ChainSingularError",
    "UnattainableDesignError",
    "ConfigError",
]
