"""Chart configuration documents.

A JSON file bundles the process model, an optional measurement-error
model, the run rules to design, and the in-control ARL target.  The
schema is strict: unknown keys anywhere are rejected, every numeric field
must be a finite JSON number, read by the one rule of ``errors.py`` (a
string or a boolean is refused), and precomputed limits (when given)
must name a rule that is actually configured.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Mapping

from .cvdist import ProcessModel
from .design import DEFAULT_ARL0
from .errors import ConfigError, DomainError, as_real, is_number
from .merror import MeasurementErrorModel
from .runrules import Direction, RunRule

__all__ = ["ChartConfig", "load_config", "parse_config"]

_TOP_KEYS = {"process", "measurement_error", "rules", "arl0", "limits"}
_PROCESS_KEYS = {"gamma0", "n"}
_ME_KEYS = {"theta", "eta", "B", "m"}
_RULE_KEYS = {"r", "s", "direction"}


@dataclass(frozen=True)
class ChartConfig:
    process: ProcessModel
    measurement_error: MeasurementErrorModel
    rules: tuple[RunRule, ...]
    arl0: float
    limits: Mapping[str, float] = field(default_factory=dict)


def _limit_label(rule: RunRule) -> str:
    """The key of a rule's preset limit in ``limits``, e.g. "2of3-upper"."""
    return f"{rule.r}of{rule.s}-{rule.direction.value}"


def _require_finite(value: object, where: str) -> float:
    """``value`` as a finite float, by the rule of ``errors.as_real``."""
    if not is_number(type(value)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    value = as_real(value, where)
    if not math.isfinite(value):
        raise ConfigError(f"{where}: value must be finite, got {value}")
    return value


def _check_keys(obj: Mapping, allowed: set[str], where: str) -> None:
    if not isinstance(obj, Mapping):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def parse_config(doc: Mapping) -> ChartConfig:
    _check_keys(doc, _TOP_KEYS, "config")
    for key in ("process", "rules"):
        if key not in doc:
            raise ConfigError(f"config: missing required key {key!r}")

    proc = doc["process"]
    _check_keys(proc, _PROCESS_KEYS, "process")
    if not _PROCESS_KEYS.issubset(proc):
        raise ConfigError(f"process: needs keys {sorted(_PROCESS_KEYS)}")
    try:
        process = ProcessModel(gamma0=_require_finite(proc["gamma0"], "process.gamma0"), n=proc["n"])
    except DomainError as exc:
        raise ConfigError(f"process: {exc}") from exc

    me_doc = doc.get("measurement_error", {})
    _check_keys(me_doc, _ME_KEYS, "measurement_error")
    try:
        me = MeasurementErrorModel(
            theta=_require_finite(me_doc.get("theta", 0.0), "measurement_error.theta"),
            eta=_require_finite(me_doc.get("eta", 0.0), "measurement_error.eta"),
            slope=_require_finite(me_doc.get("B", 1.0), "measurement_error.B"),
            reps=me_doc.get("m", 1),
        )
    except DomainError as exc:
        raise ConfigError(f"measurement_error: {exc}") from exc

    rules_doc = doc["rules"]
    if not isinstance(rules_doc, list) or not rules_doc:
        raise ConfigError("rules: expected a non-empty list")
    rules = []
    for i, rd in enumerate(rules_doc):
        _check_keys(rd, _RULE_KEYS, f"rules[{i}]")
        if not _RULE_KEYS.issubset(rd):
            raise ConfigError(f"rules[{i}]: needs keys {sorted(_RULE_KEYS)}")
        try:
            rules.append(RunRule(r=rd["r"], s=rd["s"], direction=Direction(rd["direction"])))
        except (ValueError, DomainError) as exc:
            raise ConfigError(f"rules[{i}]: {exc}") from exc

    arl0 = _require_finite(doc.get("arl0", DEFAULT_ARL0), "arl0")
    if not arl0 > 1:
        raise ConfigError(f"arl0: must exceed 1, got {arl0}")

    limits_doc = doc.get("limits", {})
    if not isinstance(limits_doc, Mapping):
        raise ConfigError("limits: expected an object of rule-label -> limit")
    rule_labels = {_limit_label(r) for r in rules}
    limits: dict[str, float] = {}
    for label, value in limits_doc.items():
        if label not in rule_labels:
            raise ConfigError(f"limits: {label!r} does not match any configured rule")
        limits[label] = _require_finite(value, f"limits.{label}")

    return ChartConfig(
        process=process,
        measurement_error=me,
        rules=tuple(rules),
        arl0=arl0,
        limits=limits,
    )


def load_config(path: str) -> ChartConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return parse_config(doc)
