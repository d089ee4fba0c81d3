"""Per-layer tracing of cvrunrules from outside the package.

Every public module-level function of each layer module is replaced by a
wrapper that counts calls and measures inclusive and self time.  The
wrapper is installed on every binding a caller can look up: the module
attribute itself and each ``from ... import`` alias held by another
cvrunrules module (for example ``runrules.cv2_cdf`` or
``cli.solve_design``).  Self time is the span's inclusive time minus the
inclusive time of the wrapped calls it made.

A handful of hooks read counts from arguments and results at the same
boundaries: CDF calls made inside ``solve_design``, chain sizes, subgroups
drawn and records read.  The names the per-layer metrics refer to are
checked on install, so a renamed or deleted function fails loudly instead
of reporting zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("specfun", "cvdist", "runrules", "design", "mcsim", "phase2", "config", "cli")

# Functions the per-layer metrics name; each must exist and be wrapped.
REQUIRED = (
    "specfun.noncentral_f_cdf",
    "specfun.noncentral_f_cdf_cdflib",
    "specfun.noncentral_f_pdf",
    "specfun.reg_inc_beta",
    "cvdist.cv2_cdf",
    "cvdist.cv2_pdf",
    "runrules.build_chain",
    "runrules.arl",
    "runrules.in_control_prob",
    "design.solve_design",
    "design.arl_at_shift",
    "design.earl",
    "mcsim.simulate_subgroups",
    "mcsim.estimate_run_length",
    "phase2.read_phase2_csv",
    "phase2.monitor_values",
    "phase2.monitor",
    "config.load_config",
    "cli.main",
)


class Tracer:
    """Span statistics for the wrapped functions of one process."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.counters: dict[str, int] = defaultdict(int)
        self.bindings: dict[str, list[str]] = {}
        self._child = [0.0]  # inclusive time of wrapped children, per open span
        self._open: dict[str, int] = defaultdict(int)

    def install(self, package: str = "cvrunrules") -> None:
        modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
        targets = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    targets[f"{layer}.{attr}"] = obj
        missing = [name for name in REQUIRED if name not in targets]
        if missing:
            raise RuntimeError(f"traced functions no longer exist: {missing}")
        wrappers = {id(fn): (name, self._wrap(name, fn)) for name, fn in targets.items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and obj is targets[hit[0]]:
                    setattr(mod, attr, hit[1])
                    self.bindings.setdefault(hit[0], []).append(f"{mod_name}.{attr}")
        for name in REQUIRED:
            if f"{package}.{name}" not in self.bindings.get(name, ()):
                raise RuntimeError(f"module attribute {package}.{name} was not patched")

    def snapshot(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "counters": dict(self.counters),
            "bindings": {k: sorted(v) for k, v in self.bindings.items()},
        }

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        child = self._child
        is_open = self._open
        on_call, on_return = _HOOKS.get(name, (None, None))
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(counters, is_open)
            is_open[name] += 1
            child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                incl = perf_counter() - t0
                inner = child.pop()
                is_open[name] -= 1
                child[-1] += incl
                stats[0] += 1
                stats[1] += incl
                stats[2] += incl - inner
            if on_return is not None:
                on_return(counters, result)
            return result

        return wrapper


def _cdf_call(counters, is_open):
    if is_open["design.solve_design"]:
        counters["cdf_calls_in_design"] += 1


def _chain_built(counters, chain):
    counters["chains"] += 1
    counters["chain_states"] += len(chain.states)


def _subgroups(counters, values):
    counters["subgroups_drawn"] += len(values)


def _records(counters, records):
    counters["records_read"] += len(records)


_HOOKS = {
    "cvdist.cv2_cdf": (_cdf_call, None),
    "runrules.build_chain": (None, _chain_built),
    "mcsim.simulate_subgroups": (None, _subgroups),
    "phase2.read_phase2_csv": (None, _records),
}
