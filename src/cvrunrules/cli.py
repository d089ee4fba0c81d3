"""Command-line surface.

Subcommands: design, evaluate, earl, sweep, simulate, monitor, density.
Exit codes: 0 success, 2 usage error (argparse), 3 numeric failure,
4 infeasible design.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .config import ChartConfig, load_config
from .cvdist import ProcessModel, cv2_pdf, moments_for_gamma
from .design import (
    ChartDesign,
    ShiftRange,
    SWEEP_COLUMNS,
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
from .merror import ShiftSpec, observed_cv_incontrol
from .phase2 import monitor, read_phase2_csv
from .runrules import Direction, RunRule

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_INFEASIBLE = 4


def _add_common(p: argparse.ArgumentParser, *, needs_config: bool = True) -> None:
    if needs_config:
        p.add_argument("--config", required=True, help="chart configuration JSON")
    p.add_argument("--output", help="write results to this file instead of stdout")
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.add_argument(
        "--cdf",
        choices=("exact", "cdflib"),
        default="exact",
        help="noncentral-F evaluation profile; 'cdflib' matches legacy-library numerics",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvrunrules",
        description="One-sided run-rules control charts for the squared coefficient of variation",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="solve chart constants and control limits")
    _add_common(p)

    p = sub.add_parser("evaluate", help="ARL/SDRL of designed charts at given shifts")
    _add_common(p)
    p.add_argument("--tau", type=float, nargs="+", required=True, help="shift sizes")
    p.add_argument("--b", type=float, default=1.0, help="standard-deviation multiplier of the shift")

    p = sub.add_parser("earl", help="expected ARL over a shift range")
    _add_common(p)
    p.add_argument("--omega", type=float, nargs=2, metavar=("LO", "HI"), required=True)
    p.add_argument("--nodes", type=int, default=64, help="Gauss-Legendre node count")

    p = sub.add_parser("sweep", help="Cartesian grid evaluation to CSV/JSON")
    _add_common(p)
    p.add_argument("--gamma0", type=float, nargs="+")
    p.add_argument("--n", type=int, nargs="+")
    p.add_argument("--theta", type=float, nargs="+")
    p.add_argument("--eta", type=float, nargs="+")
    p.add_argument("--slope", type=float, nargs="+", dest="slope")
    p.add_argument("--m", type=int, nargs="+")
    p.add_argument("--tau", type=float, nargs="*", help="shift grid; pass with no values for an empty grid")
    p.add_argument("--omega", type=float, nargs=2, action="append", metavar=("LO", "HI"))
    p.add_argument("--nodes", type=int, default=64)

    p = sub.add_parser("simulate", help="Monte Carlo run-length estimate of a designed chart")
    _add_common(p)
    p.add_argument("--rule", required=True, help="which configured rule, as r,s,direction (e.g. 2,3,upper)")
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--replications", type=int, required=True)
    p.add_argument("--seed", type=int, default=20230517)
    p.add_argument("--max-run-length", type=int, default=10_000_000)

    p = sub.add_parser("monitor", help="apply designed charts to recorded phase-II data")
    _add_common(p)
    p.add_argument("data", help="CSV with header index,mean,std")
    p.add_argument("--shewhart", action="store_true", help="also evaluate a 1-of-1 reference chart")

    p = sub.add_parser("density", help="density grid of the squared sample CV")
    _add_common(p, needs_config=False)
    p.add_argument("--gamma0", type=float, nargs="+", required=True)
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--x-max", type=float, default=None, help="grid upper end (default 6 * gamma0^2)")
    p.add_argument("--points", type=int, default=200)

    return parser


def _emit(rows: list[dict], columns: Sequence[str], args: argparse.Namespace) -> None:
    if args.format == "json":
        text = json.dumps(rows, indent=2, default=str) + "\n"
    elif args.format == "csv":
        import io

        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(columns))
        writer.writeheader()
        for row in rows:
            writer.writerow({c: row.get(c) for c in columns})
        text = buf.getvalue()
    else:
        widths = {c: max(len(c), *(len(_fmt(r.get(c))) for r in rows)) if rows else len(c) for c in columns}
        lines = ["  ".join(c.ljust(widths[c]) for c in columns)]
        for row in rows:
            lines.append("  ".join(_fmt(row.get(c)).ljust(widths[c]) for c in columns))
        text = "\n".join(lines) + "\n"
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


def _design_for(cfg: ChartConfig, rule: RunRule, profile: str) -> ChartDesign:
    """The rule's design: from its preset limit if the config has one, else solved."""
    label = f"{rule.r}of{rule.s}-{rule.direction.value}"
    if label in cfg.limits:
        gamma_star = observed_cv_incontrol(cfg.process.gamma0, cfg.measurement_error)
        moments = moments_for_gamma(gamma_star, cfg.process.n)
        return ChartDesign.from_limit(rule, cfg.limits[label], moments, cfg.arl0)
    return solve_design(rule, cfg.process, cfg.measurement_error, cfg.arl0, profile=profile)


def _designs(cfg: ChartConfig, profile: str) -> list[ChartDesign]:
    return [_design_for(cfg, rule, profile) for rule in cfg.rules]


def _cmd_design(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    rows = []
    for design in _designs(cfg, args.cdf):
        achieved = arl_at_shift(
            design,
            cfg.process,
            cfg.measurement_error,
            ShiftSpec.in_control(cfg.process.gamma0),
            profile=args.cdf,
        ).arl
        rows.append(
            {
                "rule": f"{design.rule.r}-of-{design.rule.s}",
                "direction": design.rule.direction.value,
                "k": round(design.k, 3) if args.format == "table" else design.k,
                "limit": round(design.limit, 4) if args.format == "table" else design.limit,
                "arl0_target": design.arl0_target,
                "arl0_achieved": round(achieved, 2) if args.format == "table" else achieved,
            }
        )
    _emit(rows, ("rule", "direction", "k", "limit", "arl0_target", "arl0_achieved"), args)
    return EXIT_OK


def _cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    rows = []
    for design in _designs(cfg, args.cdf):
        for tau in args.tau:
            shift = ShiftSpec.from_tau(tau, cfg.process.gamma0, b=args.b)
            metrics = arl_at_shift(design, cfg.process, cfg.measurement_error, shift, profile=args.cdf)
            rows.append(
                {
                    "rule": f"{design.rule.r}-of-{design.rule.s}",
                    "direction": design.rule.direction.value,
                    "tau": tau,
                    "limit": design.limit,
                    "arl": metrics.arl,
                    "sdrl": metrics.sdrl,
                }
            )
    _emit(rows, ("rule", "direction", "tau", "limit", "arl", "sdrl"), args)
    return EXIT_OK


def _cmd_earl(args: argparse.Namespace) -> int:
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
        rows.append(
            {
                "rule": f"{design.rule.r}-of-{design.rule.s}",
                "direction": design.rule.direction.value,
                "omega_lo": lo,
                "omega_hi": hi,
                "earl": value,
            }
        )
    _emit(rows, ("rule", "direction", "omega_lo", "omega_hi", "earl"), args)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    grid: dict[str, Sequence] = {}
    if args.gamma0:
        grid["gamma0"] = args.gamma0
    if args.n:
        grid["n"] = args.n
    if args.theta:
        grid["theta"] = args.theta
    if args.eta:
        grid["eta"] = args.eta
    if args.slope:
        grid["B"] = args.slope
    if args.m:
        grid["m"] = args.m
    if args.tau is not None:
        grid["tau"] = args.tau
    if args.omega:
        grid["omega"] = [tuple(pair) for pair in args.omega]
    grid.setdefault("gamma0", [cfg.process.gamma0])
    grid.setdefault("n", [cfg.process.n])
    grid.setdefault("theta", [cfg.measurement_error.theta])
    grid.setdefault("eta", [cfg.measurement_error.eta])
    grid.setdefault("B", [cfg.measurement_error.slope])
    grid.setdefault("m", [cfg.measurement_error.reps])
    rows = sweep(cfg.rules, grid, arl0=cfg.arl0, profile=args.cdf, nodes=args.nodes)
    _emit(rows, SWEEP_COLUMNS, args)
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    try:
        r_s, s_s, dir_s = args.rule.split(",")
        wanted = RunRule(int(r_s), int(s_s), Direction(dir_s))
    except (ValueError, DomainError) as exc:
        raise ConfigError(f"--rule: expected r,s,direction, got {args.rule!r} ({exc})") from exc
    if wanted not in cfg.rules:
        raise ConfigError(f"--rule {args.rule!r} is not among the configured rules")
    if args.replications < 1:
        raise ConfigError("--replications must be >= 1")
    design = _design_for(cfg, wanted, args.cdf)
    shift = ShiftSpec.from_tau(args.tau, cfg.process.gamma0, b=args.b)
    sim = SimConfig(replications=args.replications, seed=args.seed, max_run_length=args.max_run_length)
    metrics = estimate_run_length(design, cfg.process, cfg.measurement_error, shift, sim)
    exact = arl_at_shift(design, cfg.process, cfg.measurement_error, shift, profile=args.cdf)
    rows = [
        {
            "rule": f"{wanted.r}-of-{wanted.s}",
            "direction": wanted.direction.value,
            "tau": args.tau,
            "mc_arl": metrics.arl,
            "mc_sdrl": metrics.sdrl,
            "mc_stderr": metrics.stderr,
            "truncated": metrics.truncated,
            "exact_arl": exact.arl,
            "seed": args.seed,
            "replications": args.replications,
        }
    ]
    _emit(
        rows,
        (
            "rule",
            "direction",
            "tau",
            "mc_arl",
            "mc_sdrl",
            "mc_stderr",
            "truncated",
            "exact_arl",
            "seed",
            "replications",
        ),
        args,
    )
    return EXIT_OK


def _cmd_monitor(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    records = read_phase2_csv(args.data)
    designs = _designs(cfg, args.cdf)
    if args.shewhart:
        # first-appearance order, so the output does not follow the hash seed
        for direction in dict.fromkeys(d.rule.direction for d in designs):
            shew = RunRule(1, 1, direction)
            designs.append(solve_design(shew, cfg.process, cfg.measurement_error, cfg.arl0, profile=args.cdf))
    traces = monitor(records, designs)
    if args.format == "table":
        summary = [
            {
                "rule": f"{t.rule_r}-of-{t.rule_s}",
                "direction": t.direction.value,
                "limit": t.limit,
                "first_signal": t.first_signal,
                "run_start": t.run_start,
            }
            for t in traces
        ]
        _emit(summary, ("rule", "direction", "limit", "first_signal", "run_start"), args)
        return EXIT_OK
    rows = []
    index, cv2 = records.index.tolist(), records.cv2.tolist()
    for trace in traces:
        for i, value, out in zip(index, cv2, trace.outside):
            rows.append(
                {
                    "rule": f"{trace.rule_r}-of-{trace.rule_s}",
                    "direction": trace.direction.value,
                    "limit": trace.limit,
                    "index": i,
                    "cv2": value,
                    "outside": int(out),
                    "first_signal": trace.first_signal,
                    "run_start": trace.run_start,
                }
            )
    _emit(rows, ("rule", "direction", "limit", "index", "cv2", "outside", "first_signal", "run_start"), args)
    return EXIT_OK


def _cmd_density(args: argparse.Namespace) -> int:
    if args.points < 1:
        raise ConfigError("--points must be >= 1")
    rows = []
    for gamma0 in args.gamma0:
        ProcessModel(gamma0=gamma0, n=args.n)  # validates the window
        x_max = args.x_max if args.x_max is not None else 6.0 * gamma0 * gamma0
        grid = np.linspace(x_max / args.points, x_max, args.points)
        for x in grid:
            rows.append(
                {"gamma0": gamma0, "n": args.n, "x": float(x), "pdf": cv2_pdf(float(x), args.n, gamma0)}
            )
    _emit(rows, ("gamma0", "n", "x", "pdf"), args)
    return EXIT_OK


_COMMANDS = {
    "design": _cmd_design,
    "evaluate": _cmd_evaluate,
    "earl": _cmd_earl,
    "sweep": _cmd_sweep,
    "simulate": _cmd_simulate,
    "monitor": _cmd_monitor,
    "density": _cmd_density,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except UnattainableDesignError as exc:
        print(f"error [infeasible-design]: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (EvaluationError, ChainSingularError, GammaDomainError) as exc:
        print(f"error [numeric]: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, DomainError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error [usage]: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CvRunRulesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
