"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py SPEC.json OUT.json PASS_INDEX TRACE

Imports cvrunrules, parses the workload's generated configs, prints
``READY`` (the parent times set-up up to that line), runs the workload's
fixed work with every operation timed, then checks the answers and writes
the pass record to OUT.json.  Answer checks run after the timed work and
outside the traced counts.  An operation that raises or returns a wrong
answer is recorded as a failure; the pass continues.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import resource
import sys
import traceback
from time import perf_counter

# The solver's stated tolerance: |ARL(k) - ARL0| <= REL_TOL * ARL0.
REL_TOL = 1e-6
# Goldens are written with 10 significant digits.
GOLDEN_DIGITS_RTOL = 1e-9
# EARL against its own definition; allows a different summation order.
EARL_RTOL = 1e-9
# Monte Carlo agreement with the exact chain, in standard errors.
MC_SE_GATE = 4.0


class Pass:
    def __init__(self, cvr, work, index):
        self.cvr = cvr
        self.work = work  # directory of the generated inputs
        self.index = index  # pass number, rotates the EARL spot check
        self.ops = []  # [kind, ms, units]
        self.failures = []

    def timed(self, kind, label, fn, units=1):
        """Run fn, recording its latency; returns (ok, result)."""
        t0 = perf_counter()
        try:
            result = fn()
        except Exception as exc:
            ms = (perf_counter() - t0) * 1e3
            self.ops.append([kind, ms, 0])
            self.fail(kind, label, f"{type(exc).__name__}: {exc}")
            return False, None
        ms = (perf_counter() - t0) * 1e3
        self.ops.append([kind, ms, units(result) if callable(units) else units])
        return True, result

    def path(self, name):
        return os.path.join(self.work, name)

    def fail(self, kind, label, why):
        self.failures.append({"op": kind, "cell": label, "why": why})

    def skipped(self, kind, label, why):
        """An operation that could not run because its design failed."""
        self.ops.append([kind, None, 0])
        self.fail(kind, label, why)


def _approx(value, expected, tol):
    return math.isfinite(value) and abs(value - expected) <= tol


def run_charts(p: Pass, spec, configs):
    """design_grid and long_rules: designs, ARL/SDRL at shifts, EARL."""
    cvr = p.cvr
    checks = []
    for cell in spec["cells"]:
        cfg = configs[cell["config"]]
        rule, pm, me, prof = cfg.rules[0], cfg.process, cfg.measurement_error, cell["profile"]
        label = f"{cell['config']}:{rule.label}:{prof}"
        ok, design = p.timed("design", label, lambda: cvr.solve_design(rule, pm, me, cfg.arl0, profile=prof))
        evals, earls = {}, {}
        for tau in cell["taus"]:
            if not ok:
                p.skipped("eval", f"{label}:tau={tau}", "design failed")
                continue
            shift = cvr.ShiftSpec.from_tau(tau, pm.gamma0)
            got, metrics = p.timed(
                "eval", f"{label}:tau={tau}", lambda: cvr.arl_at_shift(design, pm, me, shift, profile=prof)
            )
            if got:
                evals[tau] = metrics
        for lo, hi in cell["omegas"]:
            if not ok:
                p.skipped("earl", f"{label}:omega=({lo},{hi})", "design failed")
                continue
            shift_range = cvr.ShiftRange(lo, hi)
            got, value = p.timed(
                "earl", f"{label}:omega=({lo},{hi})", lambda: cvr.earl(design, pm, me, shift_range, profile=prof)
            )
            if got:
                earls[(lo, hi)] = value
        if ok:
            checks.append((cell, label, cfg, design, evals, earls))

    def check():
        for c in checks:
            check_chart(p, *c)
        with_earl = [c for c in checks if c[5]]
        if with_earl:
            check_earl_quadrature(p, *with_earl[p.index % len(with_earl)])

    return check


def check_earl_quadrature(p: Pass, cell, label, cfg, design, evals, earls):
    """Recompute one EARL as the 64-node Gauss-Legendre mean of arl_at_shift
    (b = 1), which is how earl() is defined."""
    import numpy as np

    cvr = p.cvr
    pm, me, prof = cfg.process, cfg.measurement_error, cell["profile"]
    x, w = np.polynomial.legendre.leggauss(64)
    for (lo, hi), value in earls.items():
        taus = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
        shifts = [cvr.ShiftSpec.from_tau(t, pm.gamma0) for t in taus]
        arls = [cvr.arl_at_shift(design, pm, me, shift, profile=prof).arl for shift in shifts]
        expected = float(np.dot(w, arls)) / 2.0  # the weights sum to 2 on [-1, 1]
        if not _approx(value, expected, EARL_RTOL * expected):
            p.fail("earl", f"{label}:omega=({lo},{hi})", f"EARL {float(value)!r} vs quadrature {expected!r}")


def check_chart(p: Pass, cell, label, cfg, design, evals, earls):
    arl0 = cfg.arl0
    in_control = evals.get(1.0)
    if in_control is None or not _approx(in_control.arl, arl0, REL_TOL * arl0):
        got = None if in_control is None else in_control.arl
        p.fail("design", label, f"achieved ARL0 {got} not within {REL_TOL:g}*ARL0 of {arl0}")
    for (lo, hi), value in earls.items():
        ends = [evals[t].arl for t in (lo, hi) if t in evals]
        if len(ends) == 2 and not (min(ends) * (1 - 1e-12) <= value <= max(ends) * (1 + 1e-12)):
            p.fail("earl", f"{label}:omega=({lo},{hi})", f"EARL {value} outside the end ARLs {sorted(ends)}")
    if "golden" in cell:
        check_golden(p, cell, label, cfg, design, evals)


def check_golden(p: Pass, cell, label, cfg, design, evals):
    """Agreement with golden/*.csv at a tolerance derived from the solver's.

    Both the golden k and the current k satisfy |ARL(k) - ARL0| <= REL_TOL
    * ARL0, so they may differ by up to 2 * REL_TOL * ARL0 / |dARL0/dk|.
    Each golden quantity may then move by its own slope in k times that
    allowance, plus the rounding of the 10-digit CSV.
    """
    cvr = p.cvr
    gold = cell["golden"]
    pm, me, prof = cfg.process, cfg.measurement_error, cell["profile"]
    h = 1e-5 * max(1.0, abs(design.k))

    def at(k, tau):
        d = cvr.ChartDesign(
            rule=design.rule,
            k=k,
            limit=_limit(design.rule, k, design.moments),
            arl0_target=design.arl0_target,
            moments=design.moments,
        )
        return cvr.arl_at_shift(d, pm, me, cvr.ShiftSpec.from_tau(tau, pm.gamma0), profile=prof)

    def slope(tau):
        up, down = at(design.k + h, tau), at(design.k - h, tau)
        return (up.arl - down.arl) / (2 * h), (up.sdrl - down.sdrl) / (2 * h)

    k_tol = 2.0 * REL_TOL * cfg.arl0 / abs(slope(1.0)[0])
    rtol = GOLDEN_DIGITS_RTOL
    if not _approx(design.k, gold["k"], k_tol + rtol * abs(gold["k"])):
        p.fail("design", label, f"k {design.k!r} vs golden {gold['k']!r} (tol {k_tol:.3g})")
    limit_tol = design.moments.std * k_tol + rtol * abs(gold["limit"])
    if not _approx(design.limit, gold["limit"], limit_tol):
        p.fail("design", label, f"limit {design.limit!r} vs golden {gold['limit']!r}")
    for tau, arl, sdrl in gold["performance"]:
        got = evals.get(tau)
        if got is None:
            continue
        d_arl, d_sdrl = slope(tau)
        if not (
            _approx(got.arl, arl, abs(d_arl) * k_tol + rtol * arl)
            and _approx(got.sdrl, sdrl, abs(d_sdrl) * k_tol + rtol * sdrl)
        ):
            p.fail("eval", f"{label}:tau={tau}", f"ARL/SDRL {got.arl!r}/{got.sdrl!r} vs golden {arl!r}/{sdrl!r}")


def _limit(rule, k, moments):
    if rule.direction.value == "lower":
        return moments.mean - k * moments.std
    return moments.mean + k * moments.std


def run_mc(p: Pass, spec, configs):
    """mc_oracle: design each chart, then Monte Carlo run lengths per cell."""
    cvr = p.cvr
    designs = {}
    for key in spec["designs"]:
        cfg = configs[key["config"]]
        rule = cfg.rules[key["rule"]]
        label = f"{key['config']}:{rule.label}"
        ok, design = p.timed(
            "design", label, lambda: cvr.solve_design(rule, cfg.process, cfg.measurement_error, cfg.arl0)
        )
        designs[(key["config"], key["rule"])] = design if ok else None
    results = []
    for cell in spec["cells"]:
        cfg = configs[cell["config"]]
        design = designs[(cell["config"], cell["rule"])]
        label = f"{cell['config']}:{cfg.rules[cell['rule']].label}:tau={cell['tau']}"
        if design is None:
            p.skipped("mc", label, "design failed")
            continue
        shift = cvr.ShiftSpec.from_tau(cell["tau"], cfg.process.gamma0)
        sim = cvr.SimConfig(replications=cell["replications"], seed=cell["sim_seed"])
        ok, est = p.timed(
            "mc",
            label,
            lambda: cvr.estimate_run_length(design, cfg.process, cfg.measurement_error, shift, sim),
            units=lambda m: round(m.arl * sim.replications),  # sum of run lengths
        )
        if ok:
            results.append((label, cfg, design, shift, est))

    def check():
        for label, cfg, design, shift, est in results:
            exact = cvr.arl_at_shift(design, cfg.process, cfg.measurement_error, shift)
            if est.truncated or abs(est.arl - exact.arl) > MC_SE_GATE * est.stderr:
                p.fail(
                    "mc",
                    label,
                    f"MC ARL {est.arl:.6g} +- {est.stderr:.3g} vs exact {exact.arl:.6g} "
                    f"(truncated {est.truncated})",
                )

    return check


def run_monitor(p: Pass, spec, configs):
    """monitor_stream: ``cvrunrules monitor --shewhart`` on each phase-II CSV."""
    from cvrunrules import cli

    outputs = []
    for item in spec["streams"]:
        argv = ["monitor", "--config", p.path(item["config"]), p.path(item["csv"]), "--shewhart"]

        def invoke():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"exit code {code}")
            return _parse_table(buf.getvalue())

        ok, rows = p.timed("monitor", item["csv"], invoke, units=lambda rows: item["records"] * len(rows))
        if ok:
            outputs.append((item, rows))

    def check():
        limits = {}
        for item, rows in outputs:
            check_monitor(p, item, configs[item["config"]], rows, limits)

    return check


def _parse_table(text):
    lines = text.splitlines()
    header = lines[0]
    names = header.split()
    starts = [header.index(name) for name in names] + [None]
    return [
        {name: line[starts[i] : starts[i + 1]].strip() for i, name in enumerate(names)} for line in lines[1:]
    ]


def check_monitor(p: Pass, item, cfg, rows, limits):
    """First signal and run start against a brute-force trailing-window count."""
    cvr = p.cvr
    with open(p.path(item["csv"]), newline="") as fh:
        values = [(float(r["std"]) / float(r["mean"])) ** 2 for r in csv.DictReader(fh)]
    rules = list(cfg.rules) + [cvr.RunRule(1, 1, d) for d in sorted({r.direction for r in cfg.rules})]
    expected = {}
    for rule in rules:
        key = (item["config"], rule)
        if key not in limits:
            limits[key] = cvr.solve_design(rule, cfg.process, cfg.measurement_error, cfg.arl0).limit
        limit = limits[key]
        upper = rule.direction.value == "upper"
        outside = [v > limit if upper else v < limit for v in values]
        first = start = None
        for t in range(1, len(values) + 1):
            if sum(outside[max(0, t - rule.s) : t]) >= rule.r:
                first = start = t
                while start > 1 and outside[start - 2]:
                    start -= 1
                break
        shown = ("" if first is None else str(first), "" if start is None else str(start))
        expected[f"{rule.r}-of-{rule.s}", rule.direction.value] = (f"{limit:.6g}", *shown)
    got = {(r["rule"], r["direction"]): (r["limit"], r["first_signal"], r["run_start"]) for r in rows}
    if got != expected:
        p.fail("monitor", item["csv"], f"charts {got} vs brute force {expected}")


RUNNERS = {"charts": run_charts, "mc": run_mc, "monitor": run_monitor}


def _blas_version(np):
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version", "unknown")
    except Exception:
        return "unknown"


def main() -> int:
    spec_path, out_path, index, trace = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1"
    with open(spec_path) as fh:
        spec = json.load(fh)
    import numpy as np

    import cvrunrules as cvr
    import cvrunrules.cli  # noqa: F401  (a CLI invocation pays this import)
    from cvrunrules import config

    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(cvr.__file__).startswith(src + os.sep):
        raise RuntimeError(f"imported cvrunrules from {cvr.__file__}, not from {src}")
    tracer = None
    if trace:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    p = Pass(cvr, os.path.dirname(os.path.abspath(spec_path)), index)
    configs = {name: config.load_config(p.path(name)) for name in spec["configs"]}
    print("READY", flush=True)

    t0 = perf_counter()
    check = RUNNERS[spec["runner"]](p, spec, configs)
    wall = perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced = tracer.snapshot() if tracer else None
    try:
        check()
    except Exception:
        p.fail("check", "answer checks", traceback.format_exc(limit=3))
    record = {
        "wall_s": wall,
        "rss_mb": rss_mb,
        "ops": p.ops,
        "failures": p.failures,
        "trace": traced,
        "versions": {"numpy": np.__version__, "openblas": _blas_version(np), "cvrunrules": cvr.__version__},
    }
    with open(out_path, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
