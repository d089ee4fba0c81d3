"""Chart design, shift evaluation, EARL quadrature and grid sweeps."""

import functools
import itertools
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

import cvrunrules
from cvrunrules import merror
from cvrunrules.cvdist import Cv2Moments, ProcessModel
from cvrunrules.design import (
    DEFAULT_ARL0,
    DECREASING_SHIFTS,
    INCREASING_SHIFTS,
    ChartDesign,
    ShiftRange,
    _gauss_legendre,
    arl_at_shift,
    earl,
    solve_design,
    sweep,
)
from cvrunrules.errors import CvRunRulesError, DomainError, GammaDomainError, UnattainableDesignError
from cvrunrules.mcsim import simulate_subgroups
from cvrunrules.merror import MeasurementErrorModel, ShiftSpec
from cvrunrules.phase2 import monitor_values
from cvrunrules.runrules import Direction, RunRule

from conftest import EDGE_FLOATS
from tables import EXAMPLE_GAMMA0, EXAMPLE_SHEWHART_UCL, EXAMPLE_UCL, TABLE2_CONSTANTS

K_TOL = 1e-3
ROUND_TRIP_RTOL = 1e-4


def rule(r, s, direction):
    return RunRule(r, s, Direction(direction))


def _mp_gauss_legendre(nodes, start):
    """Nodes and weights of the nodes-point Gauss-Legendre rule in 40
    digits: Newton on Bonnet's recurrence from each of the doubles in
    ``start``, weight 2 (1 - x^2) / (n P_{n-1}(x))^2."""
    import mpmath

    def pair(x):
        p_prev, p = mpmath.mpf(1), x
        for k in range(1, nodes):
            p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
        return p, p_prev

    xs, ws = [], []
    with mpmath.workdps(40):
        for x0 in start:
            x = mpmath.mpf(float(x0))
            for _ in range(3):
                p, p_prev = pair(x)
                x -= p * (x * x - 1) / (nodes * (x * p - p_prev))
            xs.append(x)
            ws.append(2 * (1 - x * x) / (nodes * pair(x)[1]) ** 2)
    return xs, ws


class TestSolveDesign:
    @pytest.mark.parametrize("r,s", [(2, 3), (4, 5)])
    @pytest.mark.parametrize("gamma0,n", [(0.05, 5), (0.2, 15)])
    def test_reference_constants_cdflib(self, r, s, gamma0, n):
        kd_ref, ku_ref = TABLE2_CONSTANTS[(r, s)][gamma0][n]
        pm = ProcessModel(gamma0, n)
        kd = solve_design(rule(r, s, "lower"), pm, profile="cdflib").k
        ku = solve_design(rule(r, s, "upper"), pm, profile="cdflib").k
        assert kd == pytest.approx(kd_ref, abs=K_TOL)
        assert ku == pytest.approx(ku_ref, abs=K_TOL)

    def test_exact_profile_differs_in_tail(self):
        # the exact kernel gives a slightly different lower constant than
        # the legacy-compatible profile (documented numerical difference)
        pm = ProcessModel(0.05, 15)
        k_exact = solve_design(rule(2, 3, "lower"), pm, profile="exact").k
        k_compat = solve_design(rule(2, 3, "lower"), pm, profile="cdflib").k
        assert abs(k_exact - k_compat) > 5e-3

    def test_worked_example_ucls(self):
        me = MeasurementErrorModel(theta=0.05, eta=0.28, slope=1.0, reps=1)
        pm = ProcessModel(EXAMPLE_GAMMA0, 5)
        for (r, s), ucl in EXAMPLE_UCL.items():
            d = solve_design(rule(r, s, "upper"), pm, me, profile="cdflib")
            assert d.limit == pytest.approx(ucl, abs=5e-4)

    def test_worked_example_shewhart(self):
        me = MeasurementErrorModel(theta=0.05, eta=0.28, slope=1.0, reps=1)
        pm = ProcessModel(EXAMPLE_GAMMA0, 5)
        d = solve_design(rule(1, 1, "upper"), pm, me, profile="cdflib")
        assert d.limit == pytest.approx(EXAMPLE_SHEWHART_UCL, abs=5e-4)

    def test_identity_me_matches_no_me(self):
        pm = ProcessModel(0.1, 5)
        d1 = solve_design(rule(2, 3, "upper"), pm)
        d2 = solve_design(rule(2, 3, "upper"), pm, MeasurementErrorModel.identity())
        assert d1.k == d2.k and d1.limit == d2.limit

    def test_round_trip_in_control(self):
        pm = ProcessModel(0.1, 5)
        me = MeasurementErrorModel(theta=0.02, eta=0.2)
        for direction in ("lower", "upper"):
            d = solve_design(rule(3, 4, direction), pm, me)
            metrics = arl_at_shift(d, pm, me, ShiftSpec.in_control(0.1))
            assert metrics.arl == pytest.approx(DEFAULT_ARL0, rel=ROUND_TRIP_RTOL)

    def test_monotone_in_k_upper(self):
        # the k root relies on p, and with it the in-control ARL, rising with k
        from cvrunrules.cvdist import moments_for_gamma
        from cvrunrules.runrules import in_control_prob, run_length_metrics

        m = moments_for_gamma(0.1, 5)
        arls = []
        for k in np.linspace(0.5, 3.0, 12):
            p = in_control_prob(Direction.UPPER, m.mean + k * m.std, 5, 0.1)
            arls.append(run_length_metrics(rule(2, 3, "upper"), [p])[0].arl)
        assert all(b > a for a, b in zip(arls, arls[1:]))

    def test_unattainable_target(self):
        # no chart reaches an ARL0 <= r (with every point violating it is r),
        # nor one whose inside probability the chain cannot tell from 1
        for r, s, direction, arl0 in ((2, 3, "lower", 1.0000001), (4, 5, "upper", 4.0), (1, 1, "upper", 1e15)):
            with pytest.raises(UnattainableDesignError):
                solve_design(rule(r, s, direction), ProcessModel(0.1, 5), arl0=arl0)

    def test_invalid_arl0(self):
        with pytest.raises(DomainError):
            solve_design(rule(2, 3, "upper"), ProcessModel(0.1, 5), arl0=0.5)

    def test_infinite_arl0_rejected(self):
        # log(ARL / inf) = log(0) in the chain search raised "math domain error"
        with pytest.raises(DomainError, match="arl0 must be finite"):
            solve_design(rule(2, 3, "upper"), ProcessModel(0.1, 5), arl0=np.inf)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_k_or_limit_rejected(self, bad):
        # a NaN limit used to pass the limit/k match (NaN compares false)
        # and fail later as a continued fraction that did not converge
        from cvrunrules.cvdist import moments_for_gamma
        from cvrunrules.design import ChartDesign

        moments = moments_for_gamma(0.1, 5)
        with pytest.raises(DomainError, match="must be finite"):
            ChartDesign.from_limit(rule(2, 3, "upper"), bad, moments, DEFAULT_ARL0)
        with pytest.raises(DomainError, match="must be finite"):
            ChartDesign(rule=rule(2, 3, "upper"), k=bad, limit=0.03, arl0_target=DEFAULT_ARL0, moments=moments)
        with pytest.raises(DomainError, match="must be finite"):
            ChartDesign(rule=rule(2, 3, "upper"), k=1.0, limit=bad, arl0_target=DEFAULT_ARL0, moments=moments)

    def test_limit_must_match_k(self):
        from cvrunrules.cvdist import moments_for_gamma
        from cvrunrules.design import ChartDesign

        moments = moments_for_gamma(0.1, 5)
        limit = ChartDesign.from_limit(rule(2, 3, "upper"), 0.03, moments, DEFAULT_ARL0).limit
        with pytest.raises(DomainError, match=r"limit 0\.03 does not match k=1\.0 and the moments"):
            ChartDesign(rule=rule(2, 3, "upper"), k=1.0, limit=limit, arl0_target=DEFAULT_ARL0, moments=moments)


class TestNewtonSolver:
    """The chart constant by safeguarded Newton on one fused (F, x f) pass."""

    @pytest.mark.parametrize("lam", [0.0, 125.0, 5e4, 2e6])
    @pytest.mark.parametrize("df2", [4.0, 49.0, 199.0])
    def test_fused_pass_matches_cdf_and_density(self, lam, df2):
        from cvrunrules import specfun

        params = specfun.NoncentralParams(1.0, df2, lam)
        mean = (1.0 + lam) * df2 / (df2 - 2.0)
        # the bulk, both sides of u = 1/2 (x = df2), and u rounding to 1
        xs = [mean * f for f in (0.9, 1.0, 1.1)] + [0.5 * df2, 2.0 * df2, 1e17 * df2]
        for x in xs:
            cdf, xf = specfun._f_cdf_pdf(x, params)
            assert cdf == specfun.noncentral_f_cdf(x, params), x
            # the density itself underflows where x f(x) does not
            pdf = specfun.noncentral_f_pdf(x, params)
            expected = x * pdf if pdf > 0.0 else specfun._f_pdf_over(x, params, 1.0)
            assert xf == pytest.approx(expected, rel=1e-13, abs=0.0), x
        assert specfun._split(df2 * 1e17, df2)[0] == 1.0

    def test_fused_pass_density_below_the_clamp(self):
        # every decrement is below e^-700 here: clamped there, they would make
        # the sum 24 times too large, so the density comes from scaled terms
        from cvrunrules import specfun

        params, x = specfun.NoncentralParams(1.0, 4.0, 5e4), 137.63
        cdf, xf = specfun._f_cdf_pdf(x, params)
        assert cdf == specfun.noncentral_f_cdf(x, params)
        assert 0.0 < xf < 1e-300 and xf == pytest.approx(x * specfun.noncentral_f_pdf(x, params), rel=1e-13)

    def test_kernel_passes_per_design(self, monkeypatch):
        # 4.6 per design; the regula falsi on CDF calls took 9.5 on this grid
        from cvrunrules import specfun

        passes = [0]
        for name in ("_f_cdf_levels", "_f_cdf_pdf", "_f_pdf_over"):
            real = getattr(specfun, name)

            def counted(*args, _real=real, **kwargs):
                passes[0] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(specfun, name, counted)
        me = MeasurementErrorModel(theta=0.05, eta=0.28)
        counts = []
        for r, s in ((1, 1), (2, 3), (3, 4), (4, 5), (5, 8)):
            for direction in ("lower", "upper"):
                for n in (5, 50, 200):
                    for model in (None, me):
                        passes[0] = 0
                        solve_design(rule(r, s, direction), ProcessModel(0.1, n), model)
                        counts.append(passes[0])
        assert len(counts) == 60 and np.mean(counts) < 6.0

    @pytest.mark.parametrize("direction", ["lower", "upper"])
    @pytest.mark.parametrize("profile", ["exact", "cdflib"])
    def test_a_design_builds_its_law_once(self, profile, direction, monkeypatch):
        # every solver step and the ARL at tau = 1 evaluate the one
        # in-control law, whose x-free half the kernel's memo builds once
        from cvrunrules import specfun

        memo = specfun._CUMFNC_LAWS if profile == "cdflib" else specfun._MIXTURE_LAWS
        passes = [0]
        real = specfun._split

        def counted(*args):
            passes[0] += 1
            return real(*args)

        monkeypatch.setattr(specfun, "_split", counted)
        memo.clear()
        misses = memo.misses
        pm, me = ProcessModel(0.1, 15), MeasurementErrorModel(theta=0.05, eta=0.28)
        design = solve_design(rule(2, 3, direction), pm, me, profile=profile)
        arl_at_shift(design, pm, me, profile=profile)
        assert passes[0] >= 4
        assert memo.misses - misses == 1

    @pytest.mark.parametrize("profile", ["exact", "cdflib"])
    @pytest.mark.parametrize(
        "r,s,direction,gamma0,n,arl0,message",
        [
            (1, 1, "lower", 0.49, 50, 2.0, r"in-control ARL at k=0.0 is already above target 2.0"),
            (1, 1, "upper", 0.49, 2, 370.4, r"target ARL 370.4 not reachable inside the bracket: k=20.0 falls short"),
            (1, 1, "lower", 0.1, 5, 2.0**53, r"solved lower limit -\S+ is not positive; the chart cannot signal"),
        ],
        ids=["root-below-0", "root-above-20", "limit-not-positive"],
    )
    def test_unattainable_messages(self, profile, r, s, direction, gamma0, n, arl0, message):
        # at ARL0 = 2^53 p* is the largest double below 1, which every lower
        # limit <= 0 meets exactly
        with pytest.raises(UnattainableDesignError, match=message):
            solve_design(rule(r, s, direction), ProcessModel(gamma0, n), arl0=arl0, profile=profile)

    def test_limit_at_the_jump_to_zero_is_refused(self):
        # 1-of-1 lower at n = 2, ARL0 = 1e10: the sign change the solver
        # finds is p's jump to 1 at limit 0.  22 of these 40 designs came
        # back with limits 2.4e-15 to 6.1e-14 of the mean and ARL 5e6 to
        # 2.5e7; the other 18 land below 0
        tiny = r"solved lower limit \S+ is below 2\^-32 of the in-control mean"
        negative = r"solved lower limit -\S+ is not positive; the chart cannot signal"
        messages = []
        for i in range(40):
            with pytest.raises(UnattainableDesignError) as excinfo:
                solve_design(rule(1, 1, "lower"), ProcessModel(0.01 * (1 + i * 1e-7), 2), arl0=1e10)
            messages.append(str(excinfo.value))
        assert sum(bool(re.match(tiny, m)) for m in messages) == 22
        assert sum(bool(re.match(negative, m)) for m in messages) == 18

    def test_golden_designs_meet_arl0(self):
        # the regula falsi stops at a logit gap or bracket of 1e-13, which
        # leaves 5.99e-13 at 3-of-4 lower, gamma0 = 0.05, n = 15
        from test_golden import load_rows, row_key, design_for, performance_for

        rows = load_rows("chart_constants.csv")
        worst = max(
            abs(performance_for(design_for(row_key(row)), row_key(row), 1.0).arl / DEFAULT_ARL0 - 1.0) for row in rows
        )
        assert len(rows) == 36 and worst <= 6e-13

    def test_p_star_unchanged_by_newton(self):
        # p* takes the regula falsi on the chain alone; Newton on k must
        # leave its values bit for bit
        import cvrunrules.design as design_mod

        p_star = {
            (1, 1): "0x1.fe9e2247e1096p-1",
            (2, 3): "0x1.ec4d266a79f06p-1",
            (3, 4): "0x1.ca2b99b9b6a42p-1",
            (4, 5): "0x1.a3b5f3c26be54p-1",
            (5, 8): "0x1.a338ffa57bf8ep-1",
        }
        design_mod._p_star.cache_clear()
        assert {rs: design_mod._p_star(*rs, DEFAULT_ARL0).hex() for rs in p_star} == p_star


class TestPStar:
    """The in-control ARL depends on k only through the inside probability,
    so every design of a rule shares one p* = p(ARL0) from the chain."""

    @pytest.mark.parametrize(
        "gamma0,n,me",
        [
            (0.1, 5, None),
            (0.05, 15, None),
            (0.2, 50, None),
            (0.012, 200, None),
            (0.1, 5, MeasurementErrorModel(theta=0.05, eta=0.28)),
            (0.05, 15, MeasurementErrorModel(theta=0.02, eta=0.2, slope=1.2, reps=3)),
        ],
    )
    @pytest.mark.parametrize("direction", ["lower", "upper"])
    def test_limits_share_p_star(self, gamma0, n, me, direction):
        import cvrunrules.design as design_mod
        from cvrunrules import merror
        from cvrunrules.runrules import in_control_prob

        pm = ProcessModel(gamma0, n)
        d = solve_design(rule(3, 4, direction), pm, me)
        gamma_in = merror.observed_cv_incontrol(gamma0, me or MeasurementErrorModel.identity())
        p = in_control_prob(Direction(direction), d.limit, n, gamma_in)
        assert p == pytest.approx(design_mod._p_star(3, 4, DEFAULT_ARL0), abs=1e-12)

    def test_unreachable_arl0(self):
        # 1-of-1 has ARL 1/q and 10-of-10 about q^-10; no double p < 1 has
        # q below 2^-53, so neither target is reachable, and the search
        # meets the chain's refusal at p = 1 on its way
        import cvrunrules.design as design_mod

        for r, s, arl0 in ((1, 1, 1e17), (10, 10, 1e200)):
            with pytest.raises(UnattainableDesignError):
                design_mod._p_star(r, s, arl0)
        # a target just inside the double range is solved, not refused
        assert design_mod._p_star(1, 1, 1e15) == pytest.approx(1.0 - 1e-15, abs=2**-53)

    def test_sweep_runs_one_chain_search(self, monkeypatch):
        import cvrunrules.design as design_mod
        from cvrunrules import runrules

        real_arls, real_solve = runrules._arls, design_mod.solve_design
        in_solver = []
        solver_calls = []

        def arls(rule_, ps):
            if in_solver:
                solver_calls.append(len(ps))
            return real_arls(rule_, ps)

        def solve(*args, **kwargs):
            in_solver.append(True)
            try:
                return real_solve(*args, **kwargs)
            finally:
                in_solver.pop()

        monkeypatch.setattr(runrules, "_arls", arls)
        monkeypatch.setattr(design_mod, "solve_design", solve)
        design_mod._p_star.cache_clear()
        solve(rule(3, 4, "upper"), ProcessModel(0.1, 5))
        one_search = len(solver_calls)
        design_mod._p_star.cache_clear()
        solver_calls.clear()
        rows = sweep(
            [rule(3, 4, "upper")],
            {"gamma0": [0.05, 0.1, 0.2], "n": [5, 15], "theta": [0.0, 0.05], "tau": [1.5]},
        )
        assert len(rows) == 12 and all(row["error"] is None for row in rows)
        assert 0 < len(solver_calls) == one_search


class TestArlAtShift:
    def test_reference_upper_value(self):
        pm = ProcessModel(0.05, 5)
        d = solve_design(rule(2, 3, "upper"), pm, profile="cdflib")
        m = arl_at_shift(d, pm, None, ShiftSpec.from_tau(1.10, 0.05), profile="cdflib")
        assert m.arl == pytest.approx(95.9, abs=0.05)
        assert m.sdrl == pytest.approx(94.1, abs=0.05)

    def test_reference_lower_value(self):
        pm = ProcessModel(0.05, 5)
        d = solve_design(rule(2, 3, "lower"), pm, profile="cdflib")
        m = arl_at_shift(d, pm, None, ShiftSpec.from_tau(0.5, 0.05), profile="cdflib")
        assert m.arl == pytest.approx(8.1, abs=0.05)
        assert m.sdrl == pytest.approx(6.6, abs=0.05)

    def test_me_reference_value(self):
        # theta = 0.05 decrease of size 0.8 on the 2-of-3 lower chart
        pm = ProcessModel(0.05, 5)
        me = MeasurementErrorModel(theta=0.05, eta=0.0, slope=1.0, reps=1)
        d = solve_design(rule(2, 3, "lower"), pm, me, profile="cdflib")
        m = arl_at_shift(d, pm, me, ShiftSpec.from_tau(0.8, 0.05), profile="cdflib")
        assert m.arl == pytest.approx(93.12, abs=0.005)

    def test_b_effect_reference_values(self):
        pm = ProcessModel(0.2, 5)
        for slope, ref in ((0.8, 14.43), (1.2, 13.93)):
            me = MeasurementErrorModel(theta=0.05, eta=0.28, slope=slope, reps=1)
            d = solve_design(rule(4, 5, "lower"), pm, me, profile="cdflib")
            m = arl_at_shift(d, pm, me, ShiftSpec.from_tau(0.65, 0.2), profile="cdflib")
            assert m.arl == pytest.approx(ref, abs=0.005)

    def test_degradation_directions(self):
        # qualitative: ARL1 grows with theta, shrinks with B, flat in m
        pm = ProcessModel(0.05, 5)
        shift = ShiftSpec.from_tau(1.25, 0.05)
        by_theta = []
        for theta in (0.0, 0.01, 0.03, 0.05):
            me = MeasurementErrorModel(theta=theta, eta=0.28)
            d = solve_design(rule(2, 3, "upper"), pm, me)
            by_theta.append(arl_at_shift(d, pm, me, shift).arl)
        assert all(b >= a for a, b in zip(by_theta, by_theta[1:]))
        by_b = []
        for slope in (0.8, 0.9, 1.0, 1.1, 1.2):
            me = MeasurementErrorModel(theta=0.05, eta=0.28, slope=slope)
            d = solve_design(rule(2, 3, "upper"), pm, me)
            by_b.append(arl_at_shift(d, pm, me, shift).arl)
        assert all(b <= a for a, b in zip(by_b, by_b[1:]))
        m1 = MeasurementErrorModel(theta=0.05, eta=0.28, reps=1)
        m10 = MeasurementErrorModel(theta=0.05, eta=0.28, reps=10)
        a1 = arl_at_shift(solve_design(rule(2, 3, "upper"), pm, m1), pm, m1, shift).arl
        a10 = arl_at_shift(solve_design(rule(2, 3, "upper"), pm, m10), pm, m10, shift).arl
        assert abs(a1 - a10) < 0.1


class TestEarl:
    def test_constant_integrand(self, monkeypatch):
        # if ARL(tau) is constant the average must equal that constant
        import cvrunrules.design as design_mod
        from cvrunrules import runrules

        pm = ProcessModel(0.1, 5)
        d = solve_design(rule(2, 3, "upper"), pm)
        monkeypatch.setattr(runrules, "_arls", lambda rule_, ps: [42.0] * len(ps))
        assert design_mod.earl(d, pm, None, INCREASING_SHIFTS) == pytest.approx(42.0, rel=1e-12)

    @pytest.mark.parametrize(
        "r,s,direction,gamma0,n,me,profile",
        [
            (2, 3, "upper", 0.1, 5, MeasurementErrorModel(theta=0.05, eta=0.28), "exact"),
            (2, 3, "lower", 0.05, 200, None, "cdflib"),
            (8, 10, "upper", 0.1, 5, None, "cdflib"),
            (8, 10, "lower", 0.05, 200, MeasurementErrorModel(theta=0.02, eta=0.2, reps=3), "exact"),
        ],
        ids=["2of3-up-n5-me-exact", "2of3-low-n200-cdflib", "8of10-up-n5-cdflib", "8of10-low-n200-me-exact"],
    )
    def test_equals_quadrature_of_arl_at_shift(self, r, s, direction, gamma0, n, me, profile):
        # earl solves its nodes as one stack; arl_at_shift solves one shift
        pm = ProcessModel(gamma0, n)
        d = solve_design(rule(r, s, direction), pm, me, profile=profile)
        shift_range = INCREASING_SHIFTS if direction == "upper" else DECREASING_SHIFTS
        x, w = _gauss_legendre(64)
        half = 0.5 * (shift_range.hi - shift_range.lo)
        mid = 0.5 * (shift_range.hi + shift_range.lo)
        arls = [
            arl_at_shift(d, pm, me, ShiftSpec.from_tau(half * xi + mid, gamma0), profile=profile).arl for xi in x
        ]
        expected = float(np.dot(w, arls)) * half / (shift_range.hi - shift_range.lo)
        value = earl(d, pm, me, shift_range, profile=profile)
        assert type(value) is float  # like every other public metric, not an np.float64
        assert value == pytest.approx(expected, rel=1e-12)

    def test_node_count_capped_before_leggauss(self, monkeypatch):
        # leggauss's companion matrix is nodes x nodes: 10**8 nodes would ask
        # for 80 PB, so the count is refused before any node is computed
        import cvrunrules.design as design_mod

        class Reached(Exception):
            pass

        def no_leggauss(nodes):
            raise Reached(nodes)

        monkeypatch.setattr(design_mod, "_gauss_legendre", no_leggauss)
        pm = ProcessModel(0.1, 5)
        d = solve_design(rule(2, 3, "upper"), pm)
        with pytest.raises(Reached):
            earl(d, pm, None, INCREASING_SHIFTS, nodes=design_mod._MAX_NODES)
        for nodes in (design_mod._MAX_NODES + 1, 10**8):
            with pytest.raises(DomainError, match="nodes must be <="):
                earl(d, pm, None, INCREASING_SHIFTS, nodes=nodes)

    def test_sweep_checks_nodes_before_any_cell(self, monkeypatch):
        # a bad node count is the caller's, not a cell's: it must not be
        # written into every row's error column
        import cvrunrules.design as design_mod

        def no_design(*args, **kwargs):
            raise AssertionError("a cell was designed")

        monkeypatch.setattr(design_mod, "solve_design", no_design)
        for nodes in (design_mod._MAX_NODES + 1, 4):
            with pytest.raises(DomainError, match="nodes must be"):
                sweep([rule(2, 3, "upper")], {"omega": [(1.0, 2.0)]}, nodes=nodes)
        monkeypatch.undo()
        # a tau sweep has no quadrature and ignores the node count
        rows = sweep([rule(2, 3, "upper")], {"tau": [1.5]}, nodes=10**8)
        assert rows[0]["error"] is None and rows[0]["arl"] > 1.0

    def test_node_doubling_stability(self):
        pm = ProcessModel(0.05, 5)
        d = solve_design(rule(2, 3, "upper"), pm)
        e64 = earl(d, pm, None, INCREASING_SHIFTS, nodes=64)
        e128 = earl(d, pm, None, INCREASING_SHIFTS, nodes=128)
        assert abs(e128 - e64) / e64 < 1e-4

    def test_against_adaptive_quadrature(self):
        from scipy.integrate import quad

        pm = ProcessModel(0.1, 5)
        d = solve_design(rule(2, 3, "lower"), pm)

        def integrand(tau):
            return arl_at_shift(d, pm, None, ShiftSpec.from_tau(tau, 0.1)).arl

        ref, _ = quad(integrand, 0.5, 1.0, epsabs=1e-8, epsrel=1e-8, limit=200)
        ref /= 0.5
        assert earl(d, pm, None, DECREASING_SHIFTS) == pytest.approx(ref, rel=1e-6)

    def test_node_floor(self):
        pm = ProcessModel(0.1, 5)
        d = solve_design(rule(2, 3, "upper"), pm)
        with pytest.raises(DomainError):
            earl(d, pm, None, INCREASING_SHIFTS, nodes=4)

    @pytest.mark.parametrize("nodes", [64.0, True, "64", np.float64(64.0)])
    def test_nodes_must_be_integer(self, nodes):
        pm = ProcessModel(0.1, 5)
        d = solve_design(rule(2, 3, "upper"), pm)
        with pytest.raises(DomainError, match="nodes must be an integer >= 8"):
            earl(d, pm, None, INCREASING_SHIFTS, nodes=nodes)

    def test_cached_nodes_are_leggauss_read_only(self):
        # Within 2.3e-16 (nodes) and 4e-15 (weights) of a 40-digit rule;
        # leggauss's own weights are 2.3e-15 from one at 64 nodes.
        for nodes in (8, 9, 64, 65):
            x, w = _gauss_legendre(nodes)
            assert np.all(np.diff(x) > 0) and np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
            half = slice(nodes // 2, None)  # the rule is symmetric
            ref_x, ref_w = _mp_gauss_legendre(nodes, x[half])
            assert max(abs(float(xi - ri)) for xi, ri in zip(x[half], ref_x)) <= 2.3e-16
            assert max(abs(float(wi - ri)) for wi, ri in zip(w[half], ref_w)) <= 4e-15
            if nodes % 2:
                assert x[nodes // 2] == 0.0 and not np.signbit(x[nodes // 2])
        # At 1024 nodes leggauss's weights next to +-1 are 1.5e-14 from a
        # 40-digit rule, which these meet to 4e-15.
        x, w = _gauss_legendre(1024)
        ref_x, ref_w = np.polynomial.legendre.leggauss(1024)
        assert np.max(np.abs(x - ref_x)) <= 2.3e-16 and np.max(np.abs(w - ref_w)) <= 2e-14
        ends = [0, 1, 1023]
        ref_x, ref_w = _mp_gauss_legendre(1024, x[ends])
        assert max(abs(float(x[i] - ri)) for i, ri in zip(ends, ref_x)) <= 2.3e-16
        assert max(abs(float(w[i] - ri)) for i, ri in zip(ends, ref_w)) <= 4e-15
        assert _gauss_legendre(64) is _gauss_legendre(64)
        x, w = _gauss_legendre(64)
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0

    def test_rule_needs_no_eigenvalue_solve(self, monkeypatch):
        import cvrunrules.design as design_mod

        def no_lapack(*args, **kwargs):
            raise AssertionError("an eigenvalue solve was reached")

        for name in ("eigvalsh", "eigh", "eig", "eigvals"):
            monkeypatch.setattr(np.linalg, name, no_lapack)
        design_mod._gauss_legendre.cache_clear()
        try:
            for nodes in (8, 9, 64, 1024):
                x, w = design_mod._gauss_legendre(nodes)
                assert x.shape == w.shape == (nodes,) and abs(w.sum() - 2.0) <= 1e-14
        finally:
            design_mod._gauss_legendre.cache_clear()

    def test_earl_loads_no_numpy_polynomial(self):
        # numpy 2 imports numpy.polynomial lazily: the EARL path must not
        if np.lib.NumpyVersion(np.__version__) < "2.0.0":
            pytest.skip("numpy 1.x imports numpy.polynomial with numpy itself")
        code = (
            "import sys\n"
            "import cvrunrules, cvrunrules.cli\n"
            "from cvrunrules import Direction, INCREASING_SHIFTS, ProcessModel, RunRule, earl, solve_design\n"
            "pm = ProcessModel(0.1, 5)\n"
            "assert earl(solve_design(RunRule(2, 3, Direction.UPPER), pm), pm, None, INCREASING_SHIFTS) > 1\n"
            "assert 'numpy.polynomial' not in sys.modules, 'numpy.polynomial was imported'\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(cvrunrules.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize(
        "me,b",
        [
            (None, 1.0),
            (None, 1.7),
            (MeasurementErrorModel(theta=0.05, eta=0.28, slope=0.9, reps=3), 1.0),
            (MeasurementErrorModel(theta=0.05, eta=0.28, slope=1.1, reps=2), 0.6),
        ],
    )
    def test_node_cvs_equal_one_shift_per_node(self, me, b):
        # the nodes' observed CVs from one array expression, bit for bit
        # the former per-node ShiftSpec and observed_cv_shifted
        me = me if me is not None else MeasurementErrorModel.identity()
        x, _ = _gauss_legendre(64)
        for shift_range, gamma0 in ((INCREASING_SHIFTS, 0.1), (DECREASING_SHIFTS, 0.05), (ShiftRange(0.3, 7.0), 0.2)):
            half, mid = 0.5 * (shift_range.hi - shift_range.lo), 0.5 * (shift_range.hi + shift_range.lo)
            taus = half * x + mid
            got = merror._observed_cv(gamma0, taus, b, me)
            for tau, cv in zip(taus, got):
                shift = ShiftSpec.from_tau(float(tau), gamma0, b=b)
                formula = gamma0 * math.sqrt(me.slope**2 * b**2 + me.eta**2 / me.reps) / (
                    me.theta + me.slope * shift.b / shift.tau
                )
                assert cv == merror.observed_cv_shifted(gamma0, shift, me) == formula

    def test_tiny_shift_range_refused_without_warning(self):
        # earl used to hand numpy scalars to ShiftSpec.from_tau, whose b/tau
        # overflowed with a RuntimeWarning before the DomainError
        pm = ProcessModel(0.1, 5)
        d = solve_design(rule(2, 3, "upper"), pm)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match="b/tau overflows"):
                earl(d, pm, None, ShiftRange(1e-320, 2e-320))
            with pytest.raises(DomainError, match="b/tau overflows"):
                ShiftSpec.from_tau(np.float64(1e-320), 0.1)

    def test_refusals_match_the_node_loop(self, monkeypatch):
        # earl sends its end nodes alone through ShiftSpec.from_tau and
        # observed_cv_shifted: it refuses a range exactly when the loop over
        # every node in ascending tau does, with the same error type and
        # check (the tau named may be an end node's), and otherwise takes
        # the loop's CVs bit for bit
        from cvrunrules import runrules

        class Reached(Exception):
            pass

        seen = []

        def capture(direction, limit, n, gammas, **kwargs):
            seen.append(gammas)
            raise Reached

        pm = ProcessModel(0.1, 5)
        d = solve_design(rule(2, 3, "upper"), pm)
        monkeypatch.setattr(runrules, "_in_control_probs", capture)
        x, _ = _gauss_legendre(64)
        ranges = [(10.0**e, 2 * 10.0**e) for e in range(-320, 20, 2)]
        ranges += [(10.0**e, 10.0 ** (e + 6)) for e in range(-320, 15, 5)]
        ranges += [(1e-320, 2e-320), (1.0, 2e6), (1.0, 3e6), (1.0, 1e15), (1.0, 1e20)]
        models = [None, MeasurementErrorModel(theta=0.05, eta=0.28), MeasurementErrorModel(slope=1e-300)]
        outcomes = {"accepted": 0, "refused": 0}
        for (lo, hi), b, me in itertools.product(ranges, (1e-300, 0.5, 1.0, 1e10, 1e300), models):
            taus = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
            node_me = me if me is not None else MeasurementErrorModel.identity()
            try:
                want = [
                    merror.observed_cv_shifted(pm.gamma0, ShiftSpec.from_tau(tau, pm.gamma0, b), node_me)
                    for tau in taus
                ]
            except CvRunRulesError as exc:
                want = _check_of(exc)
            try:
                earl(d, pm, me, ShiftRange(lo, hi), b=b)
            except Reached:
                got = seen.pop()
            except CvRunRulesError as exc:
                got = _check_of(exc)
            assert got == want, (lo, hi, b, me)
            outcomes["refused" if isinstance(want, tuple) else "accepted"] += 1
        assert min(outcomes.values()) > 1000, outcomes

    @pytest.mark.parametrize("hi", [3e6, 1e15, 1e20])
    def test_range_past_two_pow_21_b_refused(self, hi):
        # below b/tau = 2^-21 the (a, b) round trip failed at scattered tau:
        # (1, 3e6) gave 2.0003, (1, 1e15) was an "inconsistent shift", and
        # (1, 1e20) had "1 + a*gamma0 must be positive"
        pm = ProcessModel(0.1, 5)
        d = solve_design(rule(2, 3, "upper"), pm)
        assert math.isfinite(earl(d, pm, None, ShiftRange(1.0, 2e6)))
        with pytest.raises(DomainError, match=r"tau=\S+ is too large: b/tau is below 2\*\*-21 for b=1.0"):
            earl(d, pm, None, ShiftRange(1.0, hi))

    def test_overflowing_cv_denominator_refused_without_warning(self):
        # B*b/tau can overflow where b/tau does not, and the observed CV read
        # 0.0 there; refused at an end node, it never reaches the nodes'
        # array expression, which would overflow with a warning
        pm, me = ProcessModel(0.49, 5), MeasurementErrorModel(slope=4.0)
        d = solve_design(rule(2, 3, "lower"), pm, me)
        message = r"theta \+ B\*b/tau must be positive and finite, got inf"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match=message):
                merror.observed_cv_shifted(pm.gamma0, ShiftSpec.from_tau(1.5e-308, pm.gamma0), me)
            with pytest.raises(DomainError, match=message):
                earl(d, pm, me, ShiftRange(1.5e-308, 3e-308))

    def test_invalid_range(self):
        with pytest.raises(DomainError):
            ShiftRange(1.0, 0.5)

    @pytest.mark.parametrize("lo,hi", [(1.0, np.inf), (1.0, np.nan), (np.nan, 2.0), (-np.inf, 2.0)])
    def test_non_finite_range_rejected(self, lo, hi):
        # an infinite bound used to reach the quadrature and fail there
        # with "tau must be positive, got nan"
        with pytest.raises(DomainError, match="need 0 < lo < hi < inf"):
            ShiftRange(lo, hi)

    @pytest.mark.parametrize(
        "r,s,direction,gamma0,n,me,profile",
        [
            (2, 3, "upper", 0.1, 5, None, "exact"),
            (3, 4, "lower", 0.05, 15, MeasurementErrorModel(theta=0.05, eta=0.28), "cdflib"),
            (2, 3, "upper", 0.01, 200, None, "exact"),
            (1, 1, "lower", 0.02, 200, None, "cdflib"),
        ],
    )
    def test_batched_nodes_match_one_node(self, r, s, direction, gamma0, n, me, profile):
        # the EARL nodes' inside probabilities from one batched call against
        # one in_control_prob call per node, at the exact design's limit:
        # the cdflib design of 1-of-1 lower at n = 200 is refused, because
        # its CDF reads 0.029 down to x = 0 and the limit solved there
        # (9e-17) is the jump of p to 1 at limit 0
        from cvrunrules import merror, runrules

        pm = ProcessModel(gamma0, n)
        me = me if me is not None else MeasurementErrorModel.identity()
        d = solve_design(rule(r, s, direction), pm, me)
        shift_range = INCREASING_SHIFTS if direction == "upper" else DECREASING_SHIFTS
        x, _ = _gauss_legendre(64)
        half, mid = 0.5 * (shift_range.hi - shift_range.lo), 0.5 * (shift_range.hi + shift_range.lo)
        gammas = [merror.observed_cv_shifted(gamma0, ShiftSpec.from_tau(half * xi + mid, gamma0), me) for xi in x]
        batch = runrules._in_control_probs(d.rule.direction, d.limit, n, gammas, profile=profile)
        one = [runrules.in_control_prob(d.rule.direction, d.limit, n, g, force=True, profile=profile) for g in gammas]
        assert np.max(np.abs(np.subtract(batch, one))) <= 1e-13


def _check_of(exc):
    """An error's type and message with every number masked: the check
    that refused, whatever value it names."""
    return type(exc), re.sub(r"-?(?:\d+\.?\d*(?:e[-+]?\d+)?|\binf\b|\bnan\b)", "#", str(exc))


@functools.lru_cache
def _property_chart(direction, with_me):
    pm = ProcessModel(0.1, 5)
    me = MeasurementErrorModel(theta=0.05, eta=0.28) if with_me else None
    return pm, me, solve_design(rule(2, 3, direction), pm, me)


@functools.cache
def _upper_chart():
    pm = ProcessModel(0.1, 5)
    return solve_design(rule(2, 3, "upper"), pm), pm


def _fields(obj, *names):
    return tuple(getattr(obj, name) for name in names)


def _real_case(case_id, name, good, call):
    # call(value) returns the floats the value reaches; good is a double
    # that a float32 holds exactly
    return pytest.param(call, name, good, id=case_id)


_GAMMA0 = float(np.float32(0.1))
_SHIFT_FIELDS = ("tau", "a", "b", "gamma0")
_MOMENTS = Cv2Moments(0.5, 0.25)  # k = 2 puts an upper limit at 1.0

# Every public real argument that errors.as_real reads (directly or through
# cvdist._check_gamma, whose messages name it "gamma")
REAL_ARGUMENTS = [
    *(
        _real_case(f"MeasurementErrorModel-{field}", field, good,
                   lambda v, field=field: _fields(MeasurementErrorModel(**{field: v}), "theta", "eta", "slope"))
        for field, good in (("theta", 0.125), ("eta", 0.25), ("slope", 1.5))
    ),
    *(
        _real_case(f"ShiftSpec-{field}", "gamma" if field == "gamma0" else field, good,
                   lambda v, field=field: _fields(
                       ShiftSpec(**{"tau": 1.0, "a": 0.0, "b": 1.0, "gamma0": 0.125, field: v}), *_SHIFT_FIELDS))
        for field, good in (("tau", 1.0), ("a", 0.0), ("b", 1.0), ("gamma0", 0.125))
    ),
    _real_case("from_tau-tau", "tau", 2.0, lambda v: _fields(ShiftSpec.from_tau(v, 0.125), *_SHIFT_FIELDS)),
    _real_case("from_tau-gamma0", "gamma0", 0.125, lambda v: _fields(ShiftSpec.from_tau(2.0, v), *_SHIFT_FIELDS)),
    _real_case("from_tau-b", "b", 1.5, lambda v: _fields(ShiftSpec.from_tau(2.0, 0.125, b=v), *_SHIFT_FIELDS)),
    _real_case("from_ab-a", "a", 0.5, lambda v: _fields(ShiftSpec.from_ab(v, 1.0, 0.125), *_SHIFT_FIELDS)),
    _real_case("from_ab-b", "b", 1.5, lambda v: _fields(ShiftSpec.from_ab(0.5, v, 0.125), *_SHIFT_FIELDS)),
    _real_case("from_ab-gamma0", "gamma", 0.125, lambda v: _fields(ShiftSpec.from_ab(0.5, 1.0, v), *_SHIFT_FIELDS)),
    _real_case("check_gamma0-gamma0", "gamma0", 0.125, lambda v: ShiftSpec.in_control(0.125).check_gamma0(v) or ()),
    _real_case("shift_from_ab-a", "a", 0.5, lambda v: (merror.shift_from_ab(v, 1.0, 0.125),)),
    _real_case("shift_from_ab-b", "b", 1.5, lambda v: (merror.shift_from_ab(0.5, v, 0.125),)),
    _real_case("shift_from_ab-gamma0", "gamma", 0.125, lambda v: (merror.shift_from_ab(0.5, 1.0, v),)),
    *(
        _real_case(f"ChartDesign-{field}", field.replace("_", " "), good,
                   lambda v, field=field: _fields(
                       ChartDesign(**{"rule": rule(2, 3, "upper"), "k": 2.0, "limit": 1.0, "arl0_target": 256.0,
                                      "moments": _MOMENTS, field: v}),
                       "k", "limit", "arl0_target"))
        for field, good in (("k", 2.0), ("limit", 1.0), ("arl0_target", 256.0))
    ),
    _real_case("ShiftRange-lo", "lo", 0.5, lambda v: _fields(ShiftRange(v, 2.0), "lo", "hi")),
    _real_case("ShiftRange-hi", "hi", 2.0, lambda v: _fields(ShiftRange(0.5, v), "lo", "hi")),
    _real_case("solve_design-arl0", "arl0", 256.0,
               lambda v: _fields(solve_design(rule(2, 3, "upper"), ProcessModel(0.1, 5), arl0=v),
                                 "k", "limit", "arl0_target")),
    _real_case("earl-b", "b", 1.0, lambda v: (earl(*_upper_chart(), None, INCREASING_SHIFTS, b=v),)),
    _real_case("sweep-tau", "tau", 1.5,
               lambda v: tuple(sweep([rule(2, 3, "upper")], {"tau": [v]})[0][c] for c in ("tau", "arl", "sdrl"))),
    _real_case("ProcessModel-gamma0", "gamma", 0.125, lambda v: (ProcessModel(v, 5).gamma0,)),
    _real_case("Cv2Moments-mean", "mean", 0.5, lambda v: _fields(Cv2Moments(v, 0.25), "mean", "std")),
    _real_case("Cv2Moments-std", "std", 0.25, lambda v: _fields(Cv2Moments(0.5, v), "mean", "std")),
    _real_case(
        "simulate_subgroups-gamma0", "gamma", _GAMMA0,
        lambda v: tuple(simulate_subgroups(
            3, 5, v, ShiftSpec.in_control(_GAMMA0), MeasurementErrorModel(), np.random.default_rng(1)
        ).tolist()),
    ),
    _real_case("monitor_values-limit", "control limit", 0.125,
               lambda v: (monitor_values([0.1, 0.2, 0.3], 2, 3, Direction.UPPER, v).limit,)),
]


class TestTypedFailures:
    """Every float input either gives a finite answer or a CvRunRulesError:
    never a bare ValueError, ZeroDivisionError or OverflowError, and never
    a RuntimeWarning."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        lo=hs.one_of(hs.sampled_from(EDGE_FLOATS), hs.floats(0.3, 1.2)),
        hi=hs.one_of(hs.sampled_from(EDGE_FLOATS), hs.floats(1.0, 3.0)),
        b=hs.one_of(hs.sampled_from(EDGE_FLOATS), hs.floats(0.5, 2.0)),
        as_numpy=hs.booleans(),
        direction=hs.sampled_from(["upper", "lower"]),
        with_me=hs.booleans(),
    )
    @example(lo=1e-320, hi=2e-320, b=1.0, as_numpy=False, direction="upper", with_me=False)
    @example(lo=1e-300, hi=1e300, b=1e-300, as_numpy=True, direction="lower", with_me=True)
    def test_earl(self, lo, hi, b, as_numpy, direction, with_me):
        pm, me, d = _property_chart(direction, with_me)
        wrap = np.float64 if as_numpy else float
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                shift_range = ShiftRange(wrap(lo), wrap(hi))
                value = earl(d, pm, me, shift_range, b=wrap(b))
            except CvRunRulesError:
                return
            # the ARL is monotone in tau, so EARL lies between the end ARLs;
            # where an end is refused, between the outermost nodes' ARLs
            x, _ = _gauss_legendre(64)
            half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
            ends = []
            for tau, node in ((lo, half * x[0] + mid), (hi, half * x[-1] + mid)):
                try:
                    ends.append(arl_at_shift(d, pm, me, ShiftSpec.from_tau(tau, pm.gamma0, b=b)).arl)
                except CvRunRulesError:
                    ends.append(arl_at_shift(d, pm, me, ShiftSpec.from_tau(node, pm.gamma0, b=b)).arl)
        assert math.isfinite(value)
        assert min(ends) * (1 - 1e-12) <= value <= max(ends) * (1 + 1e-12)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        tau=hs.sampled_from(EDGE_FLOATS),
        gamma0=hs.sampled_from(EDGE_FLOATS + [0.05, 0.1, 0.49]),
        b=hs.sampled_from(EDGE_FLOATS),
        as_numpy=hs.booleans(),
    )
    @example(tau=1e-320, gamma0=0.1, b=1.0, as_numpy=True)
    def test_shift_from_tau(self, tau, gamma0, b, as_numpy):
        wrap = np.float64 if as_numpy else float
        me = MeasurementErrorModel(theta=0.05, eta=0.28)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                shift = ShiftSpec.from_tau(wrap(tau), wrap(gamma0), b=wrap(b))
                cv = merror.observed_cv_shifted(gamma0, shift, me)
            except CvRunRulesError:
                return
        assert 0.0 < shift.tau < math.inf and 0.0 < shift.b < math.inf and math.isfinite(shift.a)
        assert 0.0 <= cv < math.inf

    # merror's public surface: the error model, both observed CVs and the
    # (a, b) shift, with every float from EDGE_FLOATS or a plausible value
    @staticmethod
    def _model(theta, eta, slope, reps, wrap):
        me = MeasurementErrorModel(theta=wrap(theta), eta=wrap(eta), slope=wrap(slope), reps=reps)
        assert all(type(value) is float for value in (me.theta, me.eta, me.slope))
        assert 0.0 <= me.theta < math.inf and 0.0 <= me.eta < math.inf and 0.0 < me.slope < math.inf
        return me

    @settings(max_examples=300)
    @given(
        gamma0=hs.sampled_from(EDGE_FLOATS + [0.05, 0.1, 0.49]),
        theta=hs.sampled_from(EDGE_FLOATS + [0.05]),
        eta=hs.sampled_from(EDGE_FLOATS + [0.28]),
        slope=hs.sampled_from(EDGE_FLOATS + [0.9]),
        reps=hs.sampled_from([1, 3]),
        as_numpy=hs.booleans(),
    )
    @example(gamma0=1e300, theta=0.0, eta=0.5, slope=1e-320, reps=1, as_numpy=False)
    @example(gamma0=0.5, theta=0.0, eta=0.28, slope=1e-320, reps=1, as_numpy=True)
    def test_observed_cv_incontrol(self, gamma0, theta, eta, slope, reps, as_numpy):
        wrap = np.float64 if as_numpy else float
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                cv = merror.observed_cv_incontrol(wrap(gamma0), self._model(theta, eta, slope, reps, wrap))
            except CvRunRulesError:
                return
        assert 0.0 <= cv < math.inf

    @settings(max_examples=300)
    @given(
        tau_or_a=hs.sampled_from(EDGE_FLOATS + [0.8, 3.0]),
        b=hs.sampled_from(EDGE_FLOATS),
        gamma0=hs.sampled_from(EDGE_FLOATS + [0.05, 0.1, 0.49]),
        theta=hs.sampled_from(EDGE_FLOATS + [0.05]),
        eta=hs.sampled_from(EDGE_FLOATS + [0.28]),
        slope=hs.sampled_from(EDGE_FLOATS + [0.9]),
        from_ab=hs.booleans(),
        as_numpy=hs.booleans(),
    )
    @example(tau_or_a=0.0, b=1.0, gamma0=math.inf, theta=0.0, eta=0.0, slope=1.0, from_ab=True, as_numpy=True)
    @example(tau_or_a=1.5, b=1.0, gamma0=0.5, theta=0.0, eta=0.28, slope=1e-320, from_ab=False, as_numpy=True)
    def test_observed_cv_shifted(self, tau_or_a, b, gamma0, theta, eta, slope, from_ab, as_numpy):
        wrap = np.float64 if as_numpy else float
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                me = self._model(theta, eta, slope, 2, wrap)
                if from_ab:
                    shift = ShiftSpec.from_ab(wrap(tau_or_a), wrap(b), wrap(gamma0))
                else:
                    shift = ShiftSpec.from_tau(wrap(tau_or_a), wrap(gamma0), b=wrap(b))
                cv = merror.observed_cv_shifted(wrap(gamma0), shift, me)
            except CvRunRulesError:
                return
        assert 0.0 < shift.tau < math.inf and 0.0 < shift.b < math.inf and math.isfinite(shift.a)
        assert 0.0 <= cv < math.inf

    @settings(max_examples=200)
    @given(
        a=hs.sampled_from(EDGE_FLOATS + [-5.0, 3.0]),
        b=hs.sampled_from(EDGE_FLOATS),
        gamma0=hs.sampled_from(EDGE_FLOATS + [0.05, 0.1, 0.49]),
        as_numpy=hs.booleans(),
    )
    @example(a=0.0, b=1.0, gamma0=-math.inf, as_numpy=True)
    def test_shift_from_ab(self, a, b, gamma0, as_numpy):
        wrap = np.float64 if as_numpy else float
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                tau = merror.shift_from_ab(wrap(a), wrap(b), wrap(gamma0))
            except CvRunRulesError:
                return
            assert ShiftSpec.from_ab(wrap(a), wrap(b), wrap(gamma0)).tau == tau
        assert 0.0 < tau < math.inf

    # cvdist's and runrules' public surface: the two laws, the process
    # model and its moments, the inside probability and the chain's metrics
    @settings(max_examples=400)
    @given(
        law=hs.sampled_from(["cv2_cdf", "cv2_pdf"]),
        x=hs.sampled_from(EDGE_FLOATS + [0.01, 0.3]),
        gamma=hs.sampled_from(EDGE_FLOATS + [0.05, 0.1, 0.49]),
        force=hs.booleans(),
        profile=hs.sampled_from(["exact", "cdflib"]),
        as_numpy=hs.booleans(),
    )
    @example(law="cv2_cdf", x=1e-320, gamma=0.1, force=False, profile="exact", as_numpy=True)
    @example(law="cv2_pdf", x=1e-320, gamma=0.1, force=False, profile="exact", as_numpy=True)
    @example(law="cv2_cdf", x=0.5, gamma=1e300, force=True, profile="cdflib", as_numpy=True)
    def test_cv_laws(self, law, x, gamma, force, profile, as_numpy):
        from cvrunrules import cvdist

        wrap = np.float64 if as_numpy else float
        kwargs = {"force": force, "profile": profile} if law == "cv2_cdf" else {"force": force}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                value = getattr(cvdist, law)(wrap(x), 5, wrap(gamma), **kwargs)
            except CvRunRulesError:
                return
        assert 0.0 <= value < math.inf
        if law != "cv2_pdf":
            assert value <= 1.0

    @settings(max_examples=200)
    @given(
        gamma0=hs.sampled_from(EDGE_FLOATS + [0.05, 0.1, 0.49]),
        n=hs.sampled_from([2, 5, 200]),
        mean=hs.sampled_from(EDGE_FLOATS),
        std=hs.sampled_from(EDGE_FLOATS),
        as_numpy=hs.booleans(),
    )
    def test_process_model_and_moments(self, gamma0, n, mean, std, as_numpy):
        from cvrunrules.cvdist import Cv2Moments, cv2_moments

        wrap = np.float64 if as_numpy else float
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for build in (lambda: cv2_moments(ProcessModel(wrap(gamma0), n)), lambda: Cv2Moments(wrap(mean), wrap(std))):
                try:
                    moments = build()
                except CvRunRulesError:
                    continue
                assert 0.0 < moments.mean < math.inf and 0.0 < moments.std < math.inf

    @settings(max_examples=300)
    @given(
        direction=hs.sampled_from(["upper", "lower"]),
        limit=hs.sampled_from(EDGE_FLOATS + [0.005, 0.02]),
        gamma=hs.sampled_from(EDGE_FLOATS + [0.05, 0.1, 0.49]),
        force=hs.booleans(),
        profile=hs.sampled_from(["exact", "cdflib"]),
        as_numpy=hs.booleans(),
    )
    @example(direction="upper", limit=1e-320, gamma=0.1, force=False, profile="exact", as_numpy=True)
    @example(direction="lower", limit=1e-320, gamma=0.1, force=False, profile="cdflib", as_numpy=True)
    @example(direction="lower", limit=0.5, gamma=1e300, force=True, profile="exact", as_numpy=True)
    def test_in_control_prob(self, direction, limit, gamma, force, profile, as_numpy):
        from cvrunrules.runrules import in_control_prob

        wrap = np.float64 if as_numpy else float
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                p = in_control_prob(Direction(direction), wrap(limit), 5, wrap(gamma), force=force, profile=profile)
            except CvRunRulesError:
                return
        assert 0.0 <= p <= 1.0

    @settings(max_examples=100)
    @given(
        p=hs.sampled_from(EDGE_FLOATS + [0.9, 0.999]),
        rs=hs.sampled_from([(1, 1), (2, 3), (4, 5), (8, 10)]),
        as_numpy=hs.booleans(),
    )
    def test_run_length_metrics(self, p, rs, as_numpy):
        from cvrunrules.runrules import run_length_metrics

        wrap = np.float64 if as_numpy else float
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                (metrics,) = run_length_metrics(rule(*rs, "upper"), [wrap(p)])
            except CvRunRulesError:
                return
        assert rs[0] <= metrics.arl < math.inf and 0.0 <= metrics.sdrl < math.inf

    def test_numpy_scalar_limit(self):
        # the chart stores k and the limit as floats, so n / limit overflows
        # to inf quietly for a numpy-scalar limit too, and p is 0 at every shift
        from cvrunrules.cvdist import cv2_moments
        from cvrunrules.design import ChartDesign

        pm = ProcessModel(0.1, 5)
        charts = [
            ChartDesign.from_limit(rule(2, 3, "upper"), wrap(1e-320), cv2_moments(pm), DEFAULT_ARL0)
            for wrap in (np.float64, float)
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            answers = [(arl_at_shift(d, pm).arl, earl(d, pm, None, INCREASING_SHIFTS)) for d in charts]
        assert all(type(d.k) is float and type(d.limit) is float for d in charts)
        assert answers[0] == answers[1]
        assert answers[0][0] == 2.0 and answers[0][1] == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda: cvrunrules.cv2_cdf("0.1", 5, 0.1), id="cv2_cdf-x-string"),
            pytest.param(lambda: cvrunrules.cv2_cdf(None, 5, 0.1), id="cv2_cdf-x-none"),
            pytest.param(lambda: cvrunrules.cv2_cdf(True, 5, 0.1), id="cv2_cdf-x-bool"),
            pytest.param(lambda: cvrunrules.cv2_cdf(0.1, 5, "0.1"), id="cv2_cdf-gamma-string"),
            pytest.param(lambda: cvrunrules.cv2_pdf("0.1", 5, 0.1), id="cv2_pdf-x-string"),
            pytest.param(lambda: cvrunrules.cv2_pdf(0.1, 5, "0.1"), id="cv2_pdf-gamma-string"),
            pytest.param(lambda: ProcessModel("0.1", 5), id="process-model-gamma0-string"),
            pytest.param(
                lambda: cvrunrules.in_control_prob(Direction.UPPER, "0.1", 5, 0.1), id="in_control_prob-limit-string"
            ),
            pytest.param(
                lambda: cvrunrules.run_length_metrics(rule(2, 3, "upper"), ["0.9"]), id="run_length_metrics-p-string"
            ),
            pytest.param(
                lambda: cvrunrules.run_length_metrics(rule(2, 3, "upper"), np.ones((2, 2)) * 0.5),
                id="run_length_metrics-p-rows",
            ),
        ],
    )
    def test_non_numbers_refused(self, call):
        # float() would parse a string or a bool as a number, and a None, a
        # string gamma or an array row failed with a bare TypeError
        with pytest.raises(DomainError, match="must be a real number, got "):
            call()

    def test_real_types_accepted(self):
        # each is read as the double it equals; a float32 gamma is not
        # squared in float32 arithmetic
        from fractions import Fraction

        gamma = np.float32(0.1)
        for law in (cvrunrules.cv2_cdf, cvrunrules.cv2_pdf):
            assert law(Fraction(3, 200), 5, gamma) == law(0.015, 5, float(gamma))

    def test_integers_past_the_double_range(self):
        # float() raised a bare OverflowError; each is now an infinity
        big = 10**400
        assert cvrunrules.cv2_cdf(big, 5, 0.1) == 1.0 and cvrunrules.cv2_cdf(-big, 5, 0.1) == 0.0
        with pytest.raises(GammaDomainError, match="finite"):
            cvrunrules.cv2_pdf(0.1, 5, big, force=True)
        with pytest.raises(DomainError, match=r"p must lie in \[0, 1\], got inf"):
            cvrunrules.run_length_metrics(rule(2, 3, "upper"), [big])
        with pytest.raises(DomainError, match="^theta must be finite, got inf$"):
            MeasurementErrorModel(theta=big)
        with pytest.raises(DomainError, match="^tau must be finite, got inf$"):
            ShiftSpec.from_tau(big, 0.1)

    @pytest.mark.parametrize("chain", ["run_length_metrics", "_arls"])
    @pytest.mark.parametrize("ps", [0.5, np.array(0.5)], ids=["float", "0-d-array"])
    def test_bare_p_refused(self, chain, ps):
        # iterating a bare p raised a bare TypeError
        from cvrunrules import runrules

        with pytest.raises(DomainError, match="^ps must be a sequence or a 1-D array of probabilities, got "):
            getattr(runrules, chain)(rule(2, 3, "upper"), ps)

    @pytest.mark.parametrize("call, name, good", REAL_ARGUMENTS)
    def test_real_arguments(self, call, name, good):
        # Each public real argument is read by errors.as_real: a string, a
        # bool, None, a complex or a Decimal is refused with the argument's
        # name (float() parsed some and others raised a bare TypeError), and
        # a float32 or a Fraction gives the answer at the double it equals,
        # kept as a float.
        from decimal import Decimal
        from fractions import Fraction

        for bad in ("0.1", True, np.True_, None, 1j, Decimal("0.1")):
            with pytest.raises(DomainError, match=f"^{name} must be a real number, got "):
                call(bad)
        expected = call(good)
        assert np.float32(good) == good
        for same in (np.float32(good), Fraction(good)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = call(same)
            assert got == expected and all(type(value) is float for value in got)

    def test_unknown_direction_refused(self):
        for call in (
            lambda: RunRule(2, 3, "sideways"),
            lambda: cvrunrules.in_control_prob("sideways", 0.1, 5, 0.1),
        ):
            with pytest.raises(DomainError, match="^direction must be 'upper' or 'lower', got 'sideways'$"):
                call()


class TestSweep:
    def test_degenerate_grid_equals_direct_call(self):
        pm = ProcessModel(0.05, 5)
        me = MeasurementErrorModel(theta=0.05, eta=0.28)
        rows = sweep(
            [rule(2, 3, "upper")],
            {"gamma0": [0.05], "n": [5], "theta": [0.05], "eta": [0.28], "tau": [1.5]},
            profile="cdflib",
        )
        assert len(rows) == 1
        d = solve_design(rule(2, 3, "upper"), pm, me, profile="cdflib")
        direct = arl_at_shift(d, pm, me, ShiftSpec.from_tau(1.5, 0.05), profile="cdflib")
        assert rows[0]["arl"] == pytest.approx(direct.arl, rel=1e-12)
        assert rows[0]["error"] is None

    def test_grid_shape_and_columns(self):
        rows = sweep(
            [rule(2, 3, "upper"), rule(2, 3, "lower")],
            {"gamma0": [0.05, 0.1], "tau": [0.8, 1.5]},
        )
        assert len(rows) == 2 * 2 * 2
        for row in rows:
            assert {"rule_r", "direction", "gamma0", "tau", "k", "limit", "arl", "sdrl", "error"} <= set(row)

    def test_omega_rows_emit_earl(self):
        rows = sweep([rule(2, 3, "upper")], {"gamma0": [0.1], "omega": [(1.0, 2.0)]}, nodes=16)
        assert len(rows) == 1
        assert rows[0]["earl"] is not None and rows[0]["arl"] is None

    def test_per_cell_errors_recorded(self):
        # gamma0 = 0.45 with eta = 1 pushes the observed CV past the window:
        # the design must fail per-cell without aborting the sweep
        rows = sweep(
            [rule(2, 3, "upper")],
            {"gamma0": [0.1, 0.45], "eta": [1.0], "tau": [1.5]},
        )
        by_gamma = {row["gamma0"]: row for row in rows}
        assert by_gamma[0.1]["error"] is None
        assert by_gamma[0.45]["error"] is not None
        assert by_gamma[0.45]["arl"] is None

    def test_non_integer_counts_reported_per_cell(self):
        rows = sweep([rule(2, 3, "upper")], {"n": [5.7, 5], "m": [True, 1], "tau": [1.5]})
        by_cell = {(row["n"], type(row["m"]).__name__): row for row in rows}
        assert len(by_cell) == 4
        for (n, m_type), row in by_cell.items():
            if n == 5 and m_type == "int":
                assert row["error"] is None and row["arl"] is not None
            else:
                assert row["error"] is not None and row["k"] is None and row["arl"] is None
        assert "subgroup size n" in by_cell[5.7, "int"]["error"]
        assert "reps" in by_cell[5, "bool"]["error"]

    @pytest.mark.parametrize("stage", ["solve_design", "arl_at_shift", "earl"])
    def test_only_package_errors_recorded(self, monkeypatch, stage):
        # a bug's ZeroDivisionError used to be written into the error column
        import cvrunrules.design as design_mod

        real = getattr(design_mod, stage)
        axis = {"omega": [(1.0, 2.0)]} if stage == "earl" else {"tau": [1.5]}

        def failing(exc):
            def call(*args, **kwargs):
                raise exc

            return call

        monkeypatch.setattr(design_mod, stage, failing(ZeroDivisionError("a bug")))
        with pytest.raises(ZeroDivisionError, match="a bug"):
            sweep([rule(2, 3, "upper")], {"gamma0": [0.1], **axis}, nodes=16)
        monkeypatch.setattr(design_mod, stage, failing(DomainError("a cell's input")))
        (row,) = sweep([rule(2, 3, "upper")], {"gamma0": [0.1], **axis}, nodes=16)
        assert row["error"] == "a cell's input"
        monkeypatch.setattr(design_mod, stage, real)
        (row,) = sweep([rule(2, 3, "upper")], {"gamma0": [0.1], **axis}, nodes=16)
        assert row["error"] is None

    def test_unknown_axis_rejected(self):
        with pytest.raises(DomainError):
            sweep([rule(2, 3, "upper")], {"bogus": [1], "tau": [1.5]})

    def test_tau_xor_omega(self):
        with pytest.raises(DomainError):
            sweep([rule(2, 3, "upper")], {"gamma0": [0.1]})
        with pytest.raises(DomainError):
            sweep([rule(2, 3, "upper")], {"tau": [1.5], "omega": [(1.0, 2.0)]})
