"""Acceptance suite: published-table reproduction and oracle equivalence.

Every test prints one verdict line into the terminal summary (see
conftest).  Table reproduction runs the 'cdflib' evaluation profile,
which matches the numerics of the software behind the published values;
the Monte Carlo equivalence criterion runs the exact kernel, which is
what the simulated pipeline actually follows.

Five sub-criteria are strict expected failures (xfail) because the
published values themselves cannot be produced by the model; each case
is documented in its xfail reason:
  * seven ME-table entries in the eta = 0.5 column,
  * the quoted m-flatness bound of the ME tables,
  * the four EARL spot values (no chart variant reproduces all four),
  * the 3-of-4 and 4-of-5 first-signal indices of the worked example
    (the recorded series violates those limits at sample 10, so the
    r-of-s window rule fires earlier than the quoted narrative).
"""

import math
import time

import numpy as np
import pytest

from cvrunrules.cvdist import ProcessModel, cv2_cdf, cv2_pdf
from cvrunrules.design import (
    DECREASING_SHIFTS,
    INCREASING_SHIFTS,
    DEFAULT_ARL0,
    arl_at_shift,
    earl,
    solve_design,
)
from cvrunrules.mcsim import SimConfig, estimate_run_length
from cvrunrules.merror import MeasurementErrorModel, ShiftSpec, observed_cv_incontrol
from cvrunrules.phase2 import monitor_values
from cvrunrules.runrules import Direction, RunRule, run_length_metrics

from automaton_reference import reference_chain
from conftest import c7_cells, record_criterion
from tables import (
    B_TABLE,
    DEVIANT_BACKSTOP_TOL,
    EARL_SPOT_VALUES,
    ETA_TABLE,
    EXAMPLE_GAMMA0,
    EXAMPLE_SHEWHART_UCL,
    EXAMPLE_UCL,
    KNOWN_DEVIANT_ME_CELLS,
    M_TABLE,
    ME_TABLE_GAMMAS,
    PHASE2_DATA,
    TABLE1_LIMITS,
    TABLE2_CONSTANTS,
    TABLE3_PERFORMANCE,
    THETA_TABLE,
)

RULES = [(2, 3), (3, 4), (4, 5)]

_design_cache: dict = {}


def cached_design(r, s, direction, n, gamma0, me=None, profile="cdflib"):
    me = me if me is not None else MeasurementErrorModel.identity()
    key = (r, s, direction, n, gamma0, me, profile)
    if key not in _design_cache:
        _design_cache[key] = solve_design(
            RunRule(r, s, Direction(direction)), ProcessModel(gamma0, n), me, profile=profile
        )
    return _design_cache[key]


def me_table_cell(r, s, tau, gamma0, n, me, profile="cdflib"):
    direction = "lower" if tau < 1 else "upper"
    design = cached_design(r, s, direction, n, gamma0, me, profile)
    shift = ShiftSpec.from_tau(tau, gamma0)
    return arl_at_shift(design, ProcessModel(gamma0, n), me, shift, profile=profile)


def test_c1_table2_chart_constants():
    """All 18 (k_d, k_u) pairs within +-0.001; under 10 s."""
    start = time.perf_counter()
    worst = 0.0
    for (r, s), by_gamma in TABLE2_CONSTANTS.items():
        for gamma0, by_n in by_gamma.items():
            for n, (kd_ref, ku_ref) in by_n.items():
                kd = cached_design(r, s, "lower", n, gamma0).k
                ku = cached_design(r, s, "upper", n, gamma0).k
                worst = max(worst, abs(kd - kd_ref), abs(ku - ku_ref))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-3 and elapsed < 10.0
    record_criterion(
        "C1 chart constants (18 cells, +-0.001, <10 s)",
        ok,
        f"worst |dk| = {worst:.2e}, {elapsed:.1f} s",
    )
    assert worst < 1e-3
    assert elapsed < 10.0


def test_c2_table3_error_free_performance():
    """All 144 (ARL1, SDRL1) pairs within +-0.05, including the 95.9 spot."""
    worst = 0.0
    identity = MeasurementErrorModel.identity()
    for tau, by_rule in TABLE3_PERFORMANCE.items():
        for (r, s), by_gamma in by_rule.items():
            for gamma0, by_n in by_gamma.items():
                for n, (arl_ref, sdrl_ref) in by_n.items():
                    m = me_table_cell(r, s, tau, gamma0, n, identity)
                    worst = max(worst, abs(m.arl - arl_ref), abs(m.sdrl - sdrl_ref))
    spot = me_table_cell(2, 3, 1.10, 0.05, 5, identity)
    ok = worst < 0.05 and abs(spot.arl - 95.9) < 0.05
    record_criterion(
        "C2 error-free run lengths (144 pairs, +-0.05)",
        ok,
        f"worst |diff| = {worst:.3f}, spot ARL(tau=1.1) = {spot.arl:.2f}",
    )
    assert worst < 0.05
    assert abs(spot.arl - 95.9) < 0.05


def test_c3_table1_me_control_limits():
    """All printed LCL/UCL under measurement error within +-1e-4.

    Reading reconciled against the printed source: the column pair is
    (n=5, n=15) -- not (10, 15) -- the third rule block is the 4-of-5
    chart, and the two orphan rows are gamma0 = 0.15 UCLs.
    """
    worst = 0.0
    for (eta, theta), by_gamma in TABLE1_LIMITS.items():
        me = MeasurementErrorModel(theta=theta, eta=eta, slope=1.0, reps=1)
        for gamma0, sides in by_gamma.items():
            for side, by_rule in sides.items():
                direction = "lower" if side == "lcl" else "upper"
                for (r, s), by_n in by_rule.items():
                    for n, ref in by_n.items():
                        d = cached_design(r, s, direction, n, gamma0, me)
                        worst = max(worst, abs(d.limit - ref))
    ok = worst < 1e-4
    record_criterion(
        "C3 ME control limits (72 LCL/UCL + 12 extra rows, +-1e-4)",
        ok,
        f"worst |diff| = {worst:.2e}",
    )
    assert worst < 1e-4


def _me_for(table_name, varied):
    if table_name == "eta":
        return MeasurementErrorModel(theta=0.05, eta=varied, slope=1.0, reps=1)
    if table_name == "theta":
        return MeasurementErrorModel(theta=varied, eta=0.28, slope=1.0, reps=1)
    if table_name == "B":
        return MeasurementErrorModel(theta=0.05, eta=0.28, slope=varied, reps=1)
    return MeasurementErrorModel(theta=0.05, eta=0.28, slope=1.0, reps=int(varied))


def _iter_me_table(table, table_name):
    for (r, s), by_n in table.items():
        for n, by_tau in by_n.items():
            for tau, by_varied in by_tau.items():
                for varied, refs in by_varied.items():
                    me = _me_for(table_name, varied)
                    for gamma0, ref in zip(ME_TABLE_GAMMAS, refs):
                        got = me_table_cell(r, s, tau, gamma0, n, me).arl
                        key = (table_name, (r, s), n, tau, varied, gamma0)
                        yield key, got, ref


ME_TABLES = [("eta", ETA_TABLE), ("theta", THETA_TABLE), ("B", B_TABLE), ("m", M_TABLE)]


@pytest.mark.parametrize("table_name,table", ME_TABLES, ids=[t[0] for t in ME_TABLES])
def test_c4_me_tables_reconciled(table_name, table):
    """Every printed ARL triple within +-0.005, except the seven known
    deviant entries (eta = 0.5 column), held to the 0.2 backstop."""
    worst = 0.0
    deviant_seen = []
    for key, got, ref in _iter_me_table(table, table_name):
        if key in KNOWN_DEVIANT_ME_CELLS:
            deviant_seen.append(key)
            assert abs(got - ref) < DEVIANT_BACKSTOP_TOL, key
        else:
            assert abs(got - ref) < 0.005, (key, got, ref)
            worst = max(worst, abs(got - ref))
    record_criterion(
        f"C4 ME table '{table_name}' (+-0.005; {len(deviant_seen)} known deviant at backstop)",
        True,
        f"worst conforming |diff| = {worst:.4f}",
    )


@pytest.mark.xfail(
    strict=True,
    reason="seven printed values in the eta = 0.5 column deviate 0.005-0.18 "
    "from the legacy-profile model and no evaluation variant reproduces "
    "them",
)
def test_c4_me_tables_strict():
    """Criterion as stated: every ME-table triple within +-0.005."""
    failures = []
    for table_name, table in ME_TABLES:
        for key, got, ref in _iter_me_table(table, table_name):
            if abs(got - ref) >= 0.005:
                failures.append((key, round(got, 4), ref))
    record_criterion(
        "C4 ME tables strict (every entry +-0.005)",
        not failures,
        f"{len(failures)} of 2376 entries beyond tolerance: {failures}",
        expected_failure=True,
    )
    assert not failures


def test_c4_named_spot_values():
    """The individually quoted ME effects."""
    me_eta0 = MeasurementErrorModel(theta=0.05, eta=0.0)
    me_eta3 = MeasurementErrorModel(theta=0.05, eta=0.3)
    a = me_table_cell(2, 3, 0.8, 0.05, 5, me_eta0).arl
    b = me_table_cell(2, 3, 0.8, 0.05, 5, me_eta3).arl
    ok = abs(a - 93.12) < 0.005 and abs(b - 93.20) < 0.005

    me_th0 = MeasurementErrorModel(theta=0.0, eta=0.28)
    me_th5 = MeasurementErrorModel(theta=0.05, eta=0.28)
    c = me_table_cell(3, 4, 1.25, 0.1, 5, me_th0).arl
    d = me_table_cell(3, 4, 1.25, 0.1, 5, me_th5).arl
    ok = ok and abs(c - 26.56) < 0.005 and abs(d - 29.19) < 0.005

    e = me_table_cell(4, 5, 0.65, 0.2, 5, MeasurementErrorModel(theta=0.05, eta=0.28, slope=0.8)).arl
    f = me_table_cell(4, 5, 0.65, 0.2, 5, MeasurementErrorModel(theta=0.05, eta=0.28, slope=1.2)).arl
    ok = ok and abs(e - 14.43) < 0.005 and abs(f - 13.93) < 0.005
    record_criterion(
        "C4 named spots (93.12/93.20, 26.56/29.19, 14.43/13.93)",
        ok,
        f"values: {a:.2f}/{b:.2f}, {c:.2f}/{d:.2f}, {e:.2f}/{f:.2f}",
    )
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="the 0.1 flatness bound does not hold: the published m-grid "
    "itself carries gaps up to 0.30 (92.53 vs 92.23) and the exact model "
    "reaches 0.146 at the gamma0=0.2 corner",
)
def test_c4_m_flatness():
    """Quoted property: |ARL(m=10) - ARL(m=1)| < 0.1 across the m-grid."""
    flat_worst, worst_cell = 0.0, None
    for (r, s) in RULES:
        for tau in (0.5, 0.8, 1.25, 2.0):
            for gamma0 in ME_TABLE_GAMMAS:
                a1 = me_table_cell(r, s, tau, gamma0, 5, _me_for("m", 1), profile="exact").arl
                a10 = me_table_cell(r, s, tau, gamma0, 5, _me_for("m", 10), profile="exact").arl
                if abs(a1 - a10) > flat_worst:
                    flat_worst, worst_cell = abs(a1 - a10), (r, s, tau, gamma0)
    assert flat_worst < 0.5  # backstop: the effect is still an order smaller than any table value
    record_criterion(
        "C4 m-flatness (|ARL(m=10)-ARL(m=1)| < 0.1)",
        flat_worst < 0.1,
        f"max gap {flat_worst:.3f} at {worst_cell} (exact profile)",
        expected_failure=True,
    )
    assert flat_worst < 0.1


@pytest.mark.xfail(
    strict=True,
    reason="no (rule, direction) variant reproduces all four published EARL "
    "spot values within +-0.5 under the Gauss-Legendre definition; the "
    "figures they come from were evidently produced by a separate "
    "pipeline",
)
def test_c5_earl_spot_values():
    """At least one chart variant matches all four EARL spots within 0.5."""
    combos = list(EARL_SPOT_VALUES.items())
    best_name, best_dev = None, math.inf
    for (r, s) in RULES:
        for direction, shift_range in (("lower", DECREASING_SHIFTS), ("upper", INCREASING_SHIFTS)):
            devs = []
            for (theta, eta), ref in combos:
                me = MeasurementErrorModel(theta=theta, eta=eta)
                d = cached_design(r, s, direction, 5, 0.05, me)
                value = earl(d, ProcessModel(0.05, 5), me, shift_range, profile="cdflib")
                devs.append(abs(value - ref))
            if max(devs) < best_dev:
                best_dev, best_name = max(devs), f"{r}-of-{s} {direction}"
    ok = best_dev < 0.5
    record_criterion(
        "C5 EARL spot values (82.27/82.81/83.42/84.49, +-0.5)",
        ok,
        f"closest variant {best_name}, max |dev| = {best_dev:.2f}",
        expected_failure=True,
    )
    assert ok, f"closest variant {best_name} deviates by {best_dev:.2f}"


def _example_designs():
    me = MeasurementErrorModel(theta=0.05, eta=0.28, slope=1.0, reps=1)
    return {
        (r, s): cached_design(r, s, "upper", 5, EXAMPLE_GAMMA0, me) for (r, s) in RULES
    }, me


def test_c6_example_control_limits():
    designs, me = _example_designs()
    gamma_star = observed_cv_incontrol(EXAMPLE_GAMMA0, me)
    worst = max(abs(designs[k].limit - ref) for k, ref in EXAMPLE_UCL.items())
    shew = cached_design(1, 1, "upper", 5, EXAMPLE_GAMMA0, me)
    ok = worst < 5e-4 and abs(gamma_star - 0.41242) < 5e-5 and abs(shew.limit - EXAMPLE_SHEWHART_UCL) < 5e-4
    record_criterion(
        "C6 example limits (0.5567/0.3821/0.2972 and Shewhart 1.1913, +-5e-4)",
        ok,
        f"worst UCL |diff| = {worst:.2e}, observed CV = {gamma_star:.5f}",
    )
    assert ok


def _example_series():
    return [(std / mean) ** 2 for (_, mean, std, _, _) in PHASE2_DATA]


def test_c6_monitor_first_signal_2of3():
    trace = monitor_values(_example_series(), 2, 3, Direction.UPPER, EXAMPLE_UCL[(2, 3)])
    ok = trace.first_signal == 13 and trace.run_start == 12
    record_criterion(
        "C6 monitor 2-of-3 (signal at 13, run from 12)",
        ok,
        f"signal at {trace.first_signal}, run from {trace.run_start}",
    )
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="the recorded series also violates the 3-of-4 limit at sample 10, "
    "so the window rule signals at 13, not the quoted 14",
)
def test_c6_monitor_first_signal_3of4():
    trace = monitor_values(_example_series(), 3, 4, Direction.UPPER, EXAMPLE_UCL[(3, 4)])
    record_criterion(
        "C6 monitor 3-of-4 (quoted signal at 14)",
        trace.first_signal == 14,
        f"window rule signals at {trace.first_signal} (sample 10 also violates)",
        expected_failure=True,
    )
    assert trace.first_signal == 14
    assert trace.run_start == 12


@pytest.mark.xfail(
    strict=True,
    reason="the recorded series also violates the 4-of-5 limit at sample 10, "
    "so the window rule signals at 14, not the quoted 15",
)
def test_c6_monitor_first_signal_4of5():
    trace = monitor_values(_example_series(), 4, 5, Direction.UPPER, EXAMPLE_UCL[(4, 5)])
    record_criterion(
        "C6 monitor 4-of-5 (quoted signal at 15)",
        trace.first_signal == 15,
        f"window rule signals at {trace.first_signal} (sample 10 also violates)",
        expected_failure=True,
    )
    assert trace.first_signal == 15
    assert trace.run_start == 12


def test_c6_monitor_run_starts_and_shewhart():
    values = _example_series()
    run_starts = set()
    for (r, s) in RULES:
        run_starts.add(monitor_values(values, r, s, Direction.UPPER, EXAMPLE_UCL[(r, s)]).run_start)
    shew = monitor_values(values, 1, 1, Direction.UPPER, EXAMPLE_SHEWHART_UCL)
    ok = run_starts == {12} and shew.first_signal is None
    record_criterion(
        "C6 violation runs start at 12; Shewhart silent vs 1.1913",
        ok,
        f"run starts {sorted(run_starts)}, Shewhart signal {shew.first_signal}",
    )
    assert ok


@pytest.mark.slow
def test_c7_monte_carlo_vs_exact():
    """Exact Markov vs Monte Carlo (1e6 reps) within 3 SE on 20 cells."""
    start = time.perf_counter()
    cells = c7_cells()
    # make sure the sample really spans both directions and all rules
    assert {c[:2] for c in cells} == set(RULES)
    assert {c[2] for c in cells} == {"lower", "upper"}

    failures = []
    for i, (r, s, direction, n, gamma0, tau, theta, eta, slope, m) in enumerate(cells):
        pm = ProcessModel(gamma0, n)
        me = MeasurementErrorModel(theta=theta, eta=eta, slope=slope, reps=m)
        design = cached_design(r, s, direction, n, gamma0, me, profile="exact")
        shift = ShiftSpec.from_tau(tau, gamma0)
        exact = arl_at_shift(design, pm, me, shift, profile="exact")
        mc = estimate_run_length(design, pm, me, shift, SimConfig(replications=1_000_000, seed=909000 + i))
        if abs(exact.arl - mc.arl) > 3 * mc.stderr:
            failures.append((i, (r, s, direction, n, gamma0, tau), exact.arl, mc.arl, mc.stderr))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 300.0
    record_criterion(
        "C7 Monte Carlo vs exact (20 cells, 1e6 reps, 3 SE, <5 min)",
        ok,
        f"{len(failures)} discrepant cells, {elapsed:.0f} s",
    )
    assert not failures, failures
    assert elapsed < 300.0


def test_c8_property_suite():
    """Structural invariants bundled as one criterion."""
    # chain rows are stochastic for p in {0, 0.1, ..., 1}
    for (r, s) in RULES:
        for p in np.arange(0.0, 1.0001, 0.1):
            chain = reference_chain(r, s, float(p))
            total = chain.transition.sum(axis=1) + chain.absorption
            assert np.allclose(total, 1.0, atol=1e-14)
    # deterministic signal at the r-th sample when every point violates
    for (r, s) in RULES:
        (metrics,) = run_length_metrics(RunRule(r, s, Direction.LOWER), [0.0])
        assert metrics.arl == pytest.approx(r, abs=1e-12)
        assert metrics.sdrl == pytest.approx(0.0, abs=1e-9)
    # CDF monotonicity and density normalization
    xs = np.linspace(1e-4, 0.3, 30)
    vals = [cv2_cdf(float(x), 5, 0.2) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    from scipy.integrate import quad

    total, _ = quad(lambda x: cv2_pdf(x, 5, 0.2), 1e-12, 2.0, limit=400)
    assert total == pytest.approx(1.0, abs=1e-6)
    # the F route agrees with scipy's noncentral t (T = sqrt(n)/CV)
    from scipy.stats import nct

    cross = max(
        abs(1.0 - nct.cdf(math.sqrt(5) / float(x), 4, math.sqrt(5) / 0.1) - cv2_cdf(float(x) ** 2, 5, 0.1))
        for x in np.arange(0.05, 0.51, 0.05)
    )
    assert cross <= 1e-9
    # designs hit their in-control target when re-evaluated
    worst_rt = 0.0
    for (r, s) in RULES:
        for direction in ("lower", "upper"):
            d = cached_design(r, s, direction, 5, 0.1, profile="exact")
            m = arl_at_shift(d, ProcessModel(0.1, 5), None, ShiftSpec.in_control(0.1), profile="exact")
            worst_rt = max(worst_rt, abs(m.arl - DEFAULT_ARL0) / DEFAULT_ARL0)
    assert worst_rt <= 1e-4
    record_criterion(
        "C8 property suite (stochastic rows, ARL(p=0)=r, CDF checks, round trip)",
        True,
        f"cross-law {cross:.1e}, round-trip {worst_rt:.1e}",
    )
