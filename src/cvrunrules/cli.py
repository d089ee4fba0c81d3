"""Command-line surface.

Subcommands: design, evaluate, earl, sweep, simulate, monitor, density.
Each command declares its output columns once, and the three formats
(table, csv, json) carry the same columns in that order; only
``monitor``'s table is a per-chart summary of its per-sample rows.
Exit codes: 0 success, 2 usage error (argparse), 3 numeric failure,
4 infeasible design.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import operator
import sys
from typing import Callable, Optional, Sequence

import numpy as np

from . import __version__
from .config import ChartConfig, _limit_label, load_config
from .cvdist import _GAMMA_FLOOR, _PROFILES, GAMMA_VALIDITY_LIMIT, ProcessModel, cv2_pdf
from .design import (
    ChartDesign,
    ShiftRange,
    SWEEP_COLUMNS,
    _DEFAULT_NODES,
    _incontrol_moments,
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
from .mcsim import SimConfig, estimate_run_length
from .merror import ShiftSpec
from .phase2 import _chart_signal, read_phase2_csv
from .runrules import Direction, RunRule

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_INFEASIBLE = 4

# The output columns of each command, in the order every format carries them.
_DESIGN_COLUMNS = ("rule", "direction", "k", "limit", "arl0_target", "arl0_achieved")
_EVALUATE_COLUMNS = ("rule", "direction", "tau", "limit", "arl", "sdrl")
_EARL_COLUMNS = ("rule", "direction", "omega_lo", "omega_hi", "earl")
_SIMULATE_COLUMNS = (
    "rule", "direction", "tau", "mc_arl", "mc_sdrl", "mc_stderr", "truncated", "exact_arl", "seed", "replications"
)
_MONITOR_COLUMNS = ("rule", "direction", "limit", "index", "cv2", "outside", "first_signal", "run_start")
# monitor's table is a summary, one row per chart
_MONITOR_SUMMARY_COLUMNS = ("rule", "direction", "limit", "first_signal", "run_start")
_DENSITY_COLUMNS = ("gamma0", "n", "x", "pdf")
# density's grid points per gamma0; more are refused before any allocation
_MAX_POINTS = 10**5
# sweep writes SWEEP_COLUMNS; its model axes come from these options:
# (axis of ``sweep``'s grid, CLI option, value type, config default)
_SWEEP_OPTIONS = (
    ("gamma0", "gamma0", float, "process.gamma0"),
    ("n", "n", int, "process.n"),
    ("theta", "theta", float, "measurement_error.theta"),
    ("eta", "eta", float, "measurement_error.eta"),
    ("B", "slope", float, "measurement_error.slope"),
    ("m", "m", int, "measurement_error.reps"),
)


def _subcommand(sub, name: str, run: Callable, help: str, *, needs_config: bool = True) -> argparse.ArgumentParser:
    """A subcommand parser with the options every command shares; ``run``
    returns the command's (columns, rows).  A command that reads a config
    designs its charts, so it also takes the noncentral-F profile."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(run=run)
    if needs_config:
        p.add_argument("--config", required=True, help="chart configuration JSON")
        p.add_argument(
            "--cdf",
            choices=_PROFILES,
            default="exact",
            help="noncentral-F evaluation profile; 'cdflib' matches legacy-library numerics",
        )
    p.add_argument("--output", help="write results to this file instead of stdout")
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvrunrules",
        description="One-sided run-rules control charts for the squared coefficient of variation",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    _subcommand(sub, "design", _cmd_design, "solve chart constants and control limits")

    p = _subcommand(sub, "evaluate", _cmd_evaluate, "ARL/SDRL of designed charts at given shifts")
    p.add_argument("--tau", type=float, nargs="+", required=True, help="shift sizes")
    p.add_argument("--b", type=float, default=1.0, help="standard-deviation multiplier of the shift")

    p = _subcommand(sub, "earl", _cmd_earl, "expected ARL over a shift range")
    p.add_argument("--omega", type=float, nargs=2, metavar=("LO", "HI"), required=True)
    p.add_argument("--nodes", type=int, default=_DEFAULT_NODES, help="Gauss-Legendre node count")

    p = _subcommand(sub, "sweep", _cmd_sweep, "Cartesian grid evaluation to CSV/JSON")
    for _, option, kind, _ in _SWEEP_OPTIONS:
        p.add_argument(f"--{option}", type=kind, nargs="+")
    p.add_argument("--tau", type=float, nargs="*", help="shift grid; pass with no values for an empty grid")
    p.add_argument("--omega", type=float, nargs=2, action="append", metavar=("LO", "HI"))
    p.add_argument("--nodes", type=int, default=_DEFAULT_NODES)

    p = _subcommand(sub, "simulate", _cmd_simulate, "Monte Carlo run-length estimate of a designed chart")
    p.add_argument("--rule", required=True, help="which configured rule, as r,s,direction (e.g. 2,3,upper)")
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--replications", type=int, required=True)
    p.add_argument("--seed", type=int, default=20230517)
    p.add_argument("--max-run-length", type=int, default=SimConfig.max_run_length)

    p = _subcommand(sub, "monitor", _cmd_monitor, "apply designed charts to recorded phase-II data")
    p.add_argument("data", help="CSV with header index,mean,std")
    p.add_argument("--shewhart", action="store_true", help="also evaluate a 1-of-1 reference chart")

    p = _subcommand(sub, "density", _cmd_density, "density grid of the squared sample CV", needs_config=False)
    p.add_argument("--gamma0", type=float, nargs="+", required=True)
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--x-max", type=float, default=None, help="grid upper end (default 6 * gamma0^2)")
    p.add_argument("--points", type=int, default=200)

    return parser


def _emit(columns: Sequence[str], rows: list[Sequence[object]], args: argparse.Namespace) -> None:
    """Write rows of values, in ``columns`` order, in the chosen format."""
    if args.format == "json":
        text = json.dumps([dict(zip(columns, row, strict=True)) for row in rows], indent=2, default=str) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(columns)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        lines = [columns, *([_fmt(value) for value in row] for row in rows)]
        widths = [max(map(len, cells)) for cells in zip(*lines)]
        text = "".join("  ".join(c.ljust(w) for c, w in zip(line, widths)) + "\n" for line in lines)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _chart(rule: RunRule) -> tuple[str, str]:
    """The rule and direction cells of a chart's row."""
    return f"{rule.r}-of-{rule.s}", rule.direction.value


def _design_for(cfg: ChartConfig, rule: RunRule, profile: str) -> ChartDesign:
    """The rule's design: from its preset limit if the config has one, else solved."""
    limit = cfg.limits.get(_limit_label(rule))
    if limit is None:
        return solve_design(rule, cfg.process, cfg.measurement_error, cfg.arl0, profile=profile)
    _, moments = _incontrol_moments(cfg.process, cfg.measurement_error)
    return ChartDesign.from_limit(rule, limit, moments, cfg.arl0)


def _designs(cfg: ChartConfig, profile: str) -> list[ChartDesign]:
    return [_design_for(cfg, rule, profile) for rule in cfg.rules]


def _cmd_design(args: argparse.Namespace) -> tuple[Sequence[str], list]:
    cfg = load_config(args.config)
    rows = []
    for design in _designs(cfg, args.cdf):
        k, limit = design.k, design.limit
        achieved = arl_at_shift(design, cfg.process, cfg.measurement_error, profile=args.cdf).arl
        if args.format == "table":
            k, limit, achieved = round(k, 3), round(limit, 4), round(achieved, 2)
        rows.append((*_chart(design.rule), k, limit, design.arl0_target, achieved))
    return _DESIGN_COLUMNS, rows


def _cmd_evaluate(args: argparse.Namespace) -> tuple[Sequence[str], list]:
    cfg = load_config(args.config)
    rows = []
    for design in _designs(cfg, args.cdf):
        for tau in args.tau:
            shift = ShiftSpec.from_tau(tau, cfg.process.gamma0, b=args.b)
            metrics = arl_at_shift(design, cfg.process, cfg.measurement_error, shift, profile=args.cdf)
            rows.append((*_chart(design.rule), tau, design.limit, metrics.arl, metrics.sdrl))
    return _EVALUATE_COLUMNS, rows


def _cmd_earl(args: argparse.Namespace) -> tuple[Sequence[str], list]:
    cfg = load_config(args.config)
    lo, hi = args.omega
    rows = []
    for design in _designs(cfg, args.cdf):
        value = earl(
            design,
            cfg.process,
            cfg.measurement_error,
            ShiftRange(lo, hi),
            nodes=args.nodes,
            profile=args.cdf,
        )
        rows.append((*_chart(design.rule), lo, hi, value))
    return _EARL_COLUMNS, rows


def _cmd_sweep(args: argparse.Namespace) -> tuple[Sequence[str], list]:
    cfg = load_config(args.config)
    grid = {
        axis: getattr(args, option) or [operator.attrgetter(default)(cfg)]
        for axis, option, _, default in _SWEEP_OPTIONS
    }
    if args.tau is not None:
        grid["tau"] = args.tau
    if args.omega:
        grid["omega"] = [tuple(pair) for pair in args.omega]
    rows = sweep(cfg.rules, grid, arl0=cfg.arl0, profile=args.cdf, nodes=args.nodes)
    return SWEEP_COLUMNS, [[row[c] for c in SWEEP_COLUMNS] for row in rows]


def _cmd_simulate(args: argparse.Namespace) -> tuple[Sequence[str], list]:
    cfg = load_config(args.config)
    try:
        r_s, s_s, dir_s = args.rule.split(",")
        wanted = RunRule(int(r_s), int(s_s), Direction(dir_s))
    except (ValueError, DomainError) as exc:
        raise ConfigError(f"--rule: expected r,s,direction, got {args.rule!r} ({exc})") from exc
    if wanted not in cfg.rules:
        raise ConfigError(f"--rule {args.rule!r} is not among the configured rules")
    sim = SimConfig(replications=args.replications, seed=args.seed, max_run_length=args.max_run_length)
    design = _design_for(cfg, wanted, args.cdf)
    shift = ShiftSpec.from_tau(args.tau, cfg.process.gamma0, b=args.b)
    # the exact ARL first: a chart that never signals fails here at once,
    # not after max_run_length steps of every replication
    exact = arl_at_shift(design, cfg.process, cfg.measurement_error, shift, profile=args.cdf)
    mc = estimate_run_length(design, cfg.process, cfg.measurement_error, shift, sim)
    row = (*_chart(wanted), args.tau, mc.arl, mc.sdrl, mc.stderr, mc.truncated, exact.arl, args.seed, args.replications)
    return _SIMULATE_COLUMNS, [row]


def _cmd_monitor(args: argparse.Namespace) -> tuple[Sequence[str], list]:
    cfg = load_config(args.config)
    records = read_phase2_csv(args.data)
    designs = _designs(cfg, args.cdf)
    if args.shewhart:
        # first-appearance order, so the output does not follow the hash seed
        for direction in dict.fromkeys(d.rule.direction for d in designs):
            shew = RunRule(1, 1, direction)
            designs.append(solve_design(shew, cfg.process, cfg.measurement_error, cfg.arl0, profile=args.cdf))
    # each chart's signal alone: no output prints the automaton's states
    charts = [(_chart(d.rule), d.limit, *_chart_signal(records.cv2, d.rule, d.limit)) for d in designs]
    if args.format == "table":
        rows = [(*chart, limit, first, start) for chart, limit, _, first, start in charts]
        return _MONITOR_SUMMARY_COLUMNS, rows
    index, cv2 = records.index.tolist(), records.cv2.tolist()
    rows = [
        (*chart, limit, i, value, out, first, start)
        for chart, limit, outside, first, start in charts
        for i, value, out in zip(index, cv2, outside.astype(int).tolist())
    ]
    return _MONITOR_COLUMNS, rows


def _cmd_density(args: argparse.Namespace) -> tuple[Sequence[str], list]:
    if not 1 <= args.points <= _MAX_POINTS:
        raise ConfigError(f"--points must be >= 1 and <= {_MAX_POINTS}, got {args.points}")
    if args.x_max is not None and not 0.0 < args.x_max < math.inf:
        raise ConfigError(f"--x-max must be positive and finite, got {args.x_max}")
    rows = []
    for gamma0 in args.gamma0:
        try:
            ProcessModel(gamma0=gamma0, n=args.n)  # validates n and the window
        except GammaDomainError as exc:  # a bad option, not a numeric failure
            raise ConfigError(f"--gamma0 must lie in [{_GAMMA_FLOOR}, {GAMMA_VALIDITY_LIMIT}), got {gamma0}") from exc
        x_max = args.x_max if args.x_max is not None else 6.0 * gamma0 * gamma0
        for x in np.linspace(x_max / args.points, x_max, args.points).tolist():
            rows.append((gamma0, args.n, x, cv2_pdf(x, args.n, gamma0)))
    return _DENSITY_COLUMNS, rows


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        columns, rows = args.run(args)
        _emit(columns, rows, args)
        return EXIT_OK
    except UnattainableDesignError as exc:
        print(f"error [infeasible-design]: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (EvaluationError, ChainSingularError, GammaDomainError) as exc:
        print(f"error [numeric]: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    # an undecodable byte or a field past csv's size limit in a data file
    # is the reader's own error, raised as is
    except (ConfigError, DomainError, FileNotFoundError, IsADirectoryError, UnicodeDecodeError, csv.Error) as exc:
        print(f"error [usage]: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CvRunRulesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
