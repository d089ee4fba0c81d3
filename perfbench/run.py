#!/usr/bin/env python3
"""Benchmark for cvrunrules: four workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout (nothing needs installing; the
package is imported from ``src/``):

    python3 perfbench/run.py --workload design_grid --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload long_rules --seed 1 --seconds 28 --trace 1
    python3 perfbench/run.py --all --seed 1     # every workload, then writes BENCHMARK.json

The parent generates every input from the seed (config JSON files and
phase-II CSVs under ``perfbench/_work/``) before any timing starts.  Each
pass then runs in a fresh interpreter with BLAS pinned to one thread, the
way a command-line user pays for cold caches on every invocation.  Set-up
time is measured from spawning the interpreter until it has imported
cvrunrules and parsed the configs.  ``--seconds`` is the run's length:
passes start until the next one would end after it, so a run takes about
``--seconds`` whatever the host's speed.  The gated wall time and
throughput average over every pass of the run and are expressed in units
of a reference job's time (see ``end_to_end`` and ``reference_run``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes whose library functions are wrapped by
``layertrace.py`` and prints the per-layer metrics, including the tracing
overhead.  Human-readable lines and a ``{"report": ...}`` line carrying the
environment and every answer-check failure come first; the last line is
the result object.  Exit status 0 means the run completed; a wrong answer
still exits 0 and shows as ``"correct": false`` and in ``failed``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORK_ROOT = os.path.join(HERE, "_work")

RUN_SECONDS = 28
DEFAULT_SEED = 1
# Not used while the benchmark was tuned; a claimed gain must also hold here.
HELD_OUT_SEED = 7919
# A run must end within 180 s: the minimum pass count may stretch a run
# past --seconds, but no pass starts later than CAP_FACTOR * --seconds (at
# least CAP_FLOOR_S) after the first, and a pass that has not finished
# after PASS_TIMEOUT_S is an error.
CAP_FACTOR = 3
CAP_FLOOR_S = 60
PASS_TIMEOUT_S = 90
MIN_PASSES = 3
# The tail percentile needs ten samples beyond it and must sit above the median.
MIN_TAIL_SAMPLES = 21
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


# --------------------------------------------------------------------------
# Input generation (stdlib only, deterministic in the seed).  Every workload
# has a fixed structure; the seed moves continuous parameters by a few
# percent, draws the measurement-error settings and the Monte Carlo and
# phase-II streams, so two seeds give different inputs of the same cost.
# --------------------------------------------------------------------------


def _write_config(work, name, *, gamma0, n, rules, me=None, arl0=370.4):
    doc = {
        "process": {"gamma0": gamma0, "n": n},
        "rules": [{"r": r, "s": s, "direction": d} for r, s, d in rules],
        "arl0": arl0,
    }
    if me is not None:
        doc["measurement_error"] = me
    with open(os.path.join(work, name), "w") as fh:
        json.dump(doc, fh, indent=1)
    return name


def _jitter(rng, value, rel):
    return round(value * (1.0 + rng.uniform(-rel, rel)), 6)


def _me(rng, reps=None):
    return {
        "theta": round(rng.uniform(0.02, 0.08), 4),
        "eta": round(rng.uniform(0.1, 0.4), 4),
        "B": round(rng.uniform(0.9, 1.1), 4),
        "m": reps if reps is not None else rng.choice([1, 2, 3]),
    }


def _shift_grid(rng, direction):
    """Shifts on the chart's own side: tau = 1 (the ARL0 check), three
    jittered interior points and the far end of the matching EARL range."""
    if direction == "upper":
        return [1.0] + [_jitter(rng, t, 0.03) for t in (1.1, 1.25, 1.5)] + [2.0], [(1.0, 2.0)]
    return [1.0] + [_jitter(rng, t, 0.03) for t in (0.9, 0.8, 0.65)] + [0.5], [(0.5, 1.0)]


def _read_goldens():
    gdir = os.path.join(ROOT, "golden")
    with open(os.path.join(gdir, "chart_constants.csv"), newline="") as fh:
        constants = list(csv.DictReader(fh))
    with open(os.path.join(gdir, "error_free_performance.csv"), newline="") as fh:
        performance = list(csv.DictReader(fh))
    return constants, performance


def gen_design_grid(rng, work):
    cells = []
    short = [(1, 1), (2, 3), (3, 4), (4, 5)]
    i = 0
    for r, s in short:
        for direction in ("upper", "lower"):
            for n_i, n in enumerate((5, 15, 50)):
                gamma = (0.05, 0.1, 0.2)[(i // 3 + n_i) % 3]
                me = _me(rng) if i % 2 else None
                taus, omegas = _shift_grid(rng, direction)
                name = f"grid{i:02d}.json"
                path = _write_config(
                    work, name, gamma0=_jitter(rng, gamma, 0.04), n=n, rules=[(r, s, direction)], me=me
                )
                profile = "cdflib" if (i // 2) % 2 else "exact"
                cells.append({"config": path, "profile": profile, "taus": taus, "omegas": omegas})
                i += 1
    # Large noncentrality, lambda = n / gamma0^2 from 5e5 to 2e6.  These are
    # the slowest designs; three of them put the tail percentile's rank
    # inside their block rather than on its edge.
    for r, s, direction, gamma in ((2, 3, "upper", 0.01), (1, 1, "lower", 0.02), (3, 4, "upper", 0.012)):
        taus, omegas = _shift_grid(rng, direction)
        path = _write_config(
            work, f"big{r}{s}{direction}.json", gamma0=_jitter(rng, gamma, 0.04), n=200,
            rules=[(r, s, direction)],
        )
        cells.append({"config": path, "profile": "exact", "taus": taus, "omegas": omegas})
    # One golden cell per (rule, direction), cdflib and error-free, checked
    # against golden/*.csv.
    constants, performance = _read_goldens()
    groups = {}
    for row in constants:
        groups.setdefault((int(row["rule_r"]), int(row["rule_s"]), row["direction"]), []).append(row)
    for (r, s, direction), rows in sorted(groups.items()):
        row = rng.choice(rows)
        n, gamma = int(row["n"]), float(row["gamma0"])
        perf = [
            (float(p["tau"]), float(p["arl"]), float(p["sdrl"]))
            for p in performance
            if (int(p["rule_r"]), int(p["rule_s"]), p["direction"], int(p["n"]), float(p["gamma0"]))
            == (r, s, direction, n, gamma)
        ]
        _, omegas = _shift_grid(rng, direction)
        path = _write_config(work, f"gold{r}{s}{direction}.json", gamma0=gamma, n=n, rules=[(r, s, direction)])
        cells.append(
            {
                "config": path,
                "profile": "cdflib",
                "taus": [1.0] + sorted(t for t, _, _ in perf),
                "omegas": omegas,
                "golden": {"k": float(row["k"]), "limit": float(row["limit"]), "performance": perf},
            }
        )
    return {"runner": "charts", "cells": cells}


def gen_long_rules(rng, work):
    cells = []
    long = [
        (3, 10, "upper", 5),
        (3, 10, "lower", 10),
        (5, 8, "upper", 10),
        (5, 8, "lower", 5),
        (4, 9, "upper", 10),
        (7, 9, "lower", 5),
        (8, 10, "upper", 5),
    ]
    for i, (r, s, direction, n) in enumerate(long):
        taus, omegas = _shift_grid(rng, direction)
        me = _me(rng) if i % 2 else None
        path = _write_config(
            work, f"long{i}.json", gamma0=_jitter(rng, 0.1, 0.04), n=n, rules=[(r, s, direction)], me=me
        )
        cells.append({"config": path, "profile": "exact", "taus": taus, "omegas": omegas})
    return {"runner": "charts", "cells": cells}


def gen_mc_oracle(rng, work):
    """The chart parameters are fixed, so each cell's expected work (the sum
    of its run lengths) is the same for every seed; the seed draws the
    shifted cells' Monte Carlo streams.  The in-control cell's time is set
    by its longest run (about 17% spread between streams for 1000 runs of
    mean 370), so it keeps one stream and the same work for every seed."""
    rules = [(2, 3, "upper"), (3, 4, "lower"), (5, 8, "upper")]
    plain = _write_config(work, "mc_m1.json", gamma0=0.1, n=5, rules=rules)
    me = {"theta": 0.05, "eta": 0.28, "B": 1.0, "m": 3}
    noisy = _write_config(work, "mc_m3.json", gamma0=0.1, n=5, rules=rules, me=me)
    designs, cells = [], []
    for config in (plain, noisy):
        for k, (_, _, direction) in enumerate(rules):
            designs.append({"config": config, "rule": k})
            tau = 1.5 if direction == "upper" else 0.65
            cells.append(
                {"config": config, "rule": k, "tau": tau, "replications": 20000, "sim_seed": rng.getrandbits(63)}
            )
    cells.append({"config": noisy, "rule": 0, "tau": 1.0, "replications": 1000, "sim_seed": 20230517})
    return {"runner": "mc", "designs": designs, "cells": cells}


MONITOR_STREAMS = 4
MONITOR_RECORDS = 15000


def gen_monitor_stream(rng, work):
    gamma0 = _jitter(rng, 0.1, 0.04)
    me = {"theta": round(rng.uniform(0.03, 0.07), 4), "eta": round(rng.uniform(0.2, 0.35), 4), "B": 1.0, "m": 1}
    config = _write_config(
        work, "monitor.json", gamma0=gamma0, n=5, me=me,
        rules=[(2, 3, "upper"), (3, 4, "upper"), (4, 5, "lower")],
    )
    # In-control CV of the observed measurements (linear covariate model).
    gamma_obs = gamma0 * math.sqrt(me["B"] ** 2 + me["eta"] ** 2 / me["m"]) / (me["theta"] + me["B"])
    streams = []
    for j in range(MONITOR_STREAMS):
        mu = rng.uniform(20.0, 80.0)
        change = rng.randint(MONITOR_RECORDS // 4, MONITOR_RECORDS // 2)
        tau = rng.choice([1.4, 0.7])
        name = f"phase2_{j}.csv"
        lines = ["index,mean,std"]
        for i in range(1, MONITOR_RECORDS + 1):
            sd = gamma_obs * mu * (tau if i > change else 1.0)
            xs = [rng.gauss(mu, sd) for _ in range(5)]
            m = sum(xs) / 5.0
            s = math.sqrt(sum((x - m) ** 2 for x in xs) / 4.0)
            lines.append(f"{i},{m:.6f},{s:.6f}")
        with open(os.path.join(work, name), "w") as fh:
            fh.write("\n".join(lines) + "\n")
        streams.append({"config": config, "csv": name, "records": MONITOR_RECORDS})
    return {"runner": "monitor", "streams": streams}


@dataclass(frozen=True)
class Workload:
    generate: Callable
    primary: str  # the operation behind work_per_s
    why: str


WORKLOADS = {
    "design_grid": Workload(
        gen_design_grid,
        "design",
        "table building over short rules, n 5-200, both profiles and ME on/off; the noncentral-F kernel "
        "dominates, so solver and kernel changes show here",
    ),
    "long_rules": Workload(
        gen_long_rules,
        "earl",
        "long-window rules (46-502 chain states) with designs and EARL; the chain solve dominates and "
        "the kernel is a few percent",
    ),
    "mc_oracle": Workload(
        gen_mc_oracle,
        "mc",
        "Monte Carlo run lengths on designed charts, shifted and in-control cells, m=1 and m=3; "
        "the subgroup sampler dominates",
    ),
    "monitor_stream": Workload(
        gen_monitor_stream,
        "monitor",
        "cvrunrules monitor --shewhart over long generated phase-II CSVs; the only user of phase2, "
        "config and the CLI",
    ),
}

# Per-operation report names: (throughput name, unit of work, latency prefix).
KINDS = {
    "design": ("designs_per_s", "1/s", "design_ms"),
    "eval": ("evals_per_s", "1/s", "eval_ms"),
    "earl": ("earl_per_s", "1/s", "earl_ms"),
    "mc": ("mc_subgroups_per_s", "subgroups/s", "mc_cell_ms"),
    "monitor": ("monitor_points_per_s", "points/s", "monitor_ms"),
}

# (name, unit, better, bound) -- every workload reports all of these.
# wall_ref and work_per_ref are the run's wall time and throughput measured
# in units of the reference job's time (see reference_run); the plain
# wall_s and work_per_s are printed too but not gated, because on a shared
# 2-vCPU VM the host's speed drifts by up to 1.3x between runs a few
# minutes apart.  The bounds sit just under setup_s's 0.25, the largest
# allowed.  Per-operation latency percentiles spread up to 0.28 between
# runs, so they are reported (KINDS) but not gated.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_ref", "ref", "lower", 0.24),
    ("work_per_ref", "1/ref", "higher", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.1),
]
# Reported with the gated metrics, not gated: (name, unit).
PLAIN = [("wall_s", "s"), ("work_per_s", "1/s"), ("ref_s", "s")]

_SPANNED = [
    ("specfun.noncentral_f_cdf", ("calls", "self_s")),
    ("specfun.noncentral_f_cdf_cdflib", ("calls", "self_s")),
    ("specfun.reg_inc_beta", ("calls", "self_s")),
    ("specfun.noncentral_f_pdf", ("calls", "self_s")),
    ("cvdist.cv2_pdf", ("calls",)),
    ("cvdist.cv2_cdf", ("calls", "self_s")),
    ("design.solve_design", ("calls", "incl_s", "self_s")),
    ("design.arl_at_shift", ("calls", "incl_s")),
    ("design.earl", ("calls", "incl_s", "self_s")),
    ("runrules.build_chain", ("calls", "self_s")),
    ("runrules.arl", ("calls", "self_s")),
    ("runrules.in_control_prob", ("calls",)),
    ("mcsim.simulate_subgroups", ("calls", "self_s")),
    ("mcsim.estimate_run_length", ("self_s",)),
    ("phase2.read_phase2_csv", ("self_s",)),
    ("phase2.monitor_values", ("calls", "self_s")),
    ("phase2.monitor", ("self_s",)),
    ("cli.main", ("incl_s", "self_s")),
    ("config.load_config", ("self_s",)),
]
_FIELD = {"calls": (0, "count"), "incl_s": (1, "s"), "self_s": (2, "s")}
# Counts read at the span boundaries: (name, unit).
_DERIVED = [
    ("design.cdf_calls_per_design", "calls/design"),
    ("runrules.chain_states_mean", "states"),
    ("mcsim.subgroups_drawn", "count"),
    ("phase2.records_read", "count"),
    ("trace.overhead_s", "s"),
]
PER_LAYER = [(f"{fn}.{field}", _FIELD[field][1]) for fn, fields in _SPANNED for field in fields] + _DERIVED


# --------------------------------------------------------------------------
# Running passes
# --------------------------------------------------------------------------


def _worker_env():
    env = dict(os.environ, PYTHONHASHSEED="0", **BLAS_ENV)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _prime(env):
    """Import once so byte-code compilation is not charged to the first pass."""
    subprocess.run(
        [sys.executable, "-c", "import cvrunrules, cvrunrules.cli"], env=env, cwd=ROOT, check=True, timeout=120
    )


# The host's speed drifts over minutes, and every workload follows it
# (ten-seed runs moved together by up to 1.3x).  Before each pass the
# parent times a fixed job of the same kind as a pass -- a fresh
# interpreter that imports numpy and parses CSV-style lines into dicts --
# and the gated wall time and throughput are expressed in units of the
# run's mean reference time.  The
# job runs isolated (-I: no PYTHONPATH, no current directory on sys.path),
# so nothing in the checkout can change it.
REFERENCE_CODE = """
import numpy
rows = []
for i in range(20000):
    index, mean, std = f"{i},{i % 977 / 7.0 + 10:.6f},{i % 97 / 11.0:.6f}".split(",")
    m, sd = float(mean), float(std)
    rows.append({"index": int(index), "mean": m, "std": sd, "cv2": (sd / m) ** 2})
"""


def reference_run(env):
    """Wall time of REFERENCE_CODE, spawn to exit."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-I", "-c", REFERENCE_CODE], env=env, cwd=HERE, check=True, timeout=60)
    return perf_counter() - t0


def run_pass(spec_path, work, index, trace, env):
    out_path = os.path.join(work, f"pass{index}.json")
    err_path = os.path.join(work, f"pass{index}.err")
    with open(err_path, "w") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, WORKER, spec_path, out_path, str(index), "1" if trace else "0"],
            stdout=subprocess.PIPE,
            stderr=err,
            text=True,
            env=env,
            cwd=ROOT,
        )
        try:
            ready = proc.stdout.readline()
            setup = perf_counter() - t0
            proc.communicate(timeout=PASS_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
    code = proc.returncode
    if ready.strip() != "READY" or code != 0:
        with open(err_path) as fh:
            raise RuntimeError(f"worker pass {index} failed (exit {proc.returncode}):\n{fh.read()[-4000:]}")
    with open(out_path) as fh:
        record = json.load(fh)
    record["setup_s"] = setup
    record["traced"] = trace
    return record


# --------------------------------------------------------------------------
# Aggregation
# --------------------------------------------------------------------------


def _quantile(sorted_values, q):
    pos = q / 100.0 * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(n):
    """Highest whole percentile with at least ten samples beyond it; the
    maximum when a run was cut short of MIN_TAIL_SAMPLES."""
    if n < MIN_TAIL_SAMPLES:
        return 100
    return min(99, math.floor(100.0 * (1.0 - 10.0 / n)))


def op_stats(passes, kind):
    """Throughput over the whole run (units over summed latency) and pooled
    latency percentiles of one operation kind."""
    ops = [(ms, units) for p in passes for k, ms, units in p["ops"] if k == kind]
    lat = sorted(ms for ms, _ in ops if ms is not None)
    if not lat:
        return None
    q = tail_percentile(len(lat))
    return {
        "per_s": sum(units for _, units in ops) / (sum(lat) / 1e3),
        "ms_p50": _quantile(lat, 50),
        "ms_tail": _quantile(lat, q),
        "tail_pct": q,
        "samples": len(lat),
    }


def end_to_end(passes, primary):
    """The gated metrics, then the PLAIN ones.

    Wall time and throughput average over the run rather than take a median
    pass.  On a shared host the speed also flips between a fast and a slow
    state every few seconds, for up to 1.5x on monitor_stream; a median pass
    lands in whichever state held most of the run, while the average
    follows the share of the run spent in each, which varies less."""
    wall = statistics.fmean(p["wall_s"] for p in passes)
    rate = op_stats(passes, primary)["per_s"]
    ref = statistics.fmean(p["ref_s"] for p in passes)
    gated = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_ref": wall / ref,
        "work_per_ref": rate * ref,
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    return gated, {"wall_s": wall, "work_per_s": rate, "ref_s": ref}


def named_metrics(passes):
    """The per-operation metrics under their own names, for the report."""
    out = {}
    for kind, (rate_name, rate_unit, lat_name) in KINDS.items():
        stats = op_stats(passes, kind)
        if stats is None:
            continue
        out[rate_name] = {"value": stats["per_s"], "unit": rate_unit}
        out[f"{lat_name}_p50"] = {"value": stats["ms_p50"], "unit": "ms", "samples": stats["samples"]}
        out[f"{lat_name}_tail"] = {
            "value": stats["ms_tail"],
            "unit": "ms",
            "percentile": stats["tail_pct"],
            "samples": stats["samples"],
        }
    return out


def per_layer(traced, untraced):
    values, exact = {}, {}
    snaps = [p["trace"] for p in traced]
    for fn, fields in _SPANNED:
        for field in fields:
            idx = _FIELD[field][0]
            got = [s["stats"].get(fn, [0, 0.0, 0.0])[idx] for s in snaps]
            name = f"{fn}.{field}"
            if field == "calls":
                exact[name] = len(set(got)) == 1
            values[name] = got[0] if exact.get(name) else statistics.median(got)

    def counter(key):
        return [s["counters"].get(key, 0) for s in snaps]

    def ratio(num, den):
        return [n / d if d else 0.0 for n, d in zip(counter(num), den)]

    designs = [s["stats"].get("design.solve_design", [0])[0] for s in snaps]
    derived = {
        "design.cdf_calls_per_design": ratio("cdf_calls_in_design", designs),
        "runrules.chain_states_mean": ratio("chain_states", counter("chains")),
        "mcsim.subgroups_drawn": counter("subgroups_drawn"),
        "phase2.records_read": counter("records_read"),
    }
    for name, got in derived.items():
        exact[name] = len(set(got)) == 1
        values[name] = got[0] if exact[name] else statistics.median(got)
    values["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - statistics.median(
        p["wall_s"] for p in untraced
    )
    return values, exact


def failures(passes):
    seen = {}
    for i, p in enumerate(passes):
        for f in p["failures"]:
            seen.setdefault((i, f["op"], f["cell"]), f)
    return list(seen.values())


# --------------------------------------------------------------------------
# Environment
# --------------------------------------------------------------------------


def _git_sha():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def environment(seed, versions, digest):
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": versions.get("numpy"),
        "openblas": versions.get("openblas"),
        "cvrunrules": versions.get("cvrunrules"),
        "git_sha": _git_sha(),
        "seed": seed,
        "blas_threads": BLAS_ENV,
        "input_digest": digest,
    }


def _digest(work):
    """Hash of every generated input, the spec included."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(work)):
        with open(os.path.join(work, name), "rb") as fh:
            h.update(name.encode() + fh.read())
    return h.hexdigest()[:16]


# --------------------------------------------------------------------------


def run_workload(name, seed, seconds, trace):
    wl = WORKLOADS[name]
    work = os.path.join(WORK_ROOT, f"{name}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        spec = wl.generate(random.Random(f"{name}:{seed}"), work)
        spec["configs"] = sorted(
            {c["config"] for c in spec.get("cells", []) + spec.get("streams", []) + spec.get("designs", [])}
        )
        spec_path = os.path.join(work, "spec.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        digest = _digest(work)
        env = _worker_env()
        _prime(env)
        passes = []
        min_passes = MIN_PASSES
        start = perf_counter()
        while True:
            i = len(passes)
            ref = reference_run(env)
            passes.append(run_pass(spec_path, work, i, trace and i % 2 == 1, env))
            passes[-1]["ref_s"] = ref
            if i == 0:
                # enough untraced primary samples for a tail percentile
                per_pass = sum(1 for op in passes[0]["ops"] if op[0] == wl.primary)
                min_passes = max(min_passes, math.ceil(MIN_TAIL_SAMPLES / per_pass))
            elapsed = perf_counter() - start
            untraced = i // 2 + 1 if trace else i + 1
            # a traced run ends on a traced pass, so the two kinds pair up
            if trace and i % 2 == 0:
                continue
            if untraced >= min_passes and elapsed * (i + 2) / (i + 1) > seconds:
                break
            if elapsed > max(CAP_FACTOR * seconds, CAP_FLOOR_S):
                print(f"warning: stopped after {i + 1} passes (time cap)", file=sys.stderr)
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return wl, passes, digest


def summarize(name, seed, trace, wl, passes, digest):
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    e2e, plain = end_to_end(untraced, wl.primary)
    named = named_metrics(untraced)
    fails = failures(passes)
    attempted = sum(len(p["ops"]) for p in passes)
    failed = len(fails)
    named["fail_ratio"] = {"value": failed / attempted, "unit": "ratio"}
    report = {
        "workload": name,
        "why": wl.why,
        "primary_operation": wl.primary,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "environment": environment(seed, passes[0]["versions"], digest),
        "end_to_end": e2e,
        "plain": plain,
        "operations": named,
        "setup_samples_s": [p["setup_s"] for p in untraced],
        "wall_samples_s": [p["wall_s"] for p in untraced],
        "ref_samples_s": [p["ref_s"] for p in untraced],
        "failures": fails[:50],
    }
    units = {m[0]: m[1] for m in END_TO_END} | dict(PLAIN)
    print(f"# {name} seed={seed} passes={len(untraced)} untraced/{len(traced)} traced  primary={wl.primary}")
    for key, value in e2e.items():
        print(f"{key:<28} {value:>16.6g}  {units[key]}")
    for key, value in plain.items():
        print(f"  {key:<26} {value:>16.6g}  {units[key]}  (not gated)")
    for key, m in named.items():
        extra = f"  (p{m['percentile']}, n={m['samples']})" if "percentile" in m else ""
        print(f"  {key:<26} {m['value']:>16.6g}  {m['unit']}{extra}")
    if trace:
        layers, exact = per_layer(traced, untraced)
        report["per_layer"] = layers
        report["exact_counts"] = exact
        report["patched_bindings"] = traced[0]["trace"]["bindings"]
        layer_units = dict(PER_LAYER)
        for key, value in layers.items():
            mark = "  exact" if exact.get(key) else ""
            print(f"  {key:<40} {value:>14.6g}  {layer_units[key]}{mark}")
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u, _, _ in END_TO_END}
    for f in fails[:10]:
        print(f"FAILED {f['op']} {f['cell']}: {f['why']}", file=sys.stderr)
    print(json.dumps({"report": report}))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def benchmark_json():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w.why} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd} for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": "lower"} for n, u in PER_LAYER],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload, then write BENCHMARK.json")
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help=f"input seed; {HELD_OUT_SEED} is held out for checking gains"
    )
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.all and not args.workload:
        parser.error("give --workload or --all")
    if not os.path.isfile(os.path.join(SRC, "cvrunrules", "__init__.py")):
        print(f"error: no cvrunrules source tree under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.all else [args.workload]
    results = {}
    for name in names:
        wl, passes, digest = run_workload(name, args.seed, args.seconds, args.trace == 1)
        results[name] = summarize(name, args.seed, args.trace == 1, wl, passes, digest)
    if args.all:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            json.dump(benchmark_json(), fh, indent=2)
            fh.write("\n")
        merged = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
        print(json.dumps(merged))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
