"""Chart design, shift evaluation, EARL quadrature and grid sweeps."""

import numpy as np
import pytest

from cvrunrules.cvdist import ProcessModel
from cvrunrules.design import (
    DEFAULT_ARL0,
    DECREASING_SHIFTS,
    INCREASING_SHIFTS,
    ShiftRange,
    _gauss_legendre,
    arl_at_shift,
    earl,
    solve_design,
    sweep,
)
from cvrunrules.errors import DomainError, UnattainableDesignError
from cvrunrules.merror import MeasurementErrorModel, ShiftSpec
from cvrunrules.runrules import Direction, RunRule

from tables import EXAMPLE_GAMMA0, EXAMPLE_SHEWHART_UCL, EXAMPLE_UCL, TABLE2_CONSTANTS

K_TOL = 1e-3
ROUND_TRIP_RTOL = 1e-4


def rule(r, s, direction):
    return RunRule(r, s, Direction(direction))


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

        real_metrics, real_solve = runrules.run_length_metrics, design_mod.solve_design
        in_solver = []
        solver_calls = []

        def metrics(rule_, ps):
            if in_solver:
                solver_calls.append(len(ps))
            return real_metrics(rule_, ps)

        def solve(*args, **kwargs):
            in_solver.append(True)
            try:
                return real_solve(*args, **kwargs)
            finally:
                in_solver.pop()

        monkeypatch.setattr(runrules, "run_length_metrics", metrics)
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
        from cvrunrules.runrules import RunLengthMethod, RunLengthMetrics

        pm = ProcessModel(0.1, 5)
        d = solve_design(rule(2, 3, "upper"), pm)
        monkeypatch.setattr(
            design_mod,
            "_metrics_at_levels",
            lambda limit, rule, n, gammas, **k: [RunLengthMetrics(42.0, 40.0, RunLengthMethod.EXACT_MARKOV)]
            * len(gammas),
        )
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
        x, w = np.polynomial.legendre.leggauss(64)
        half = 0.5 * (shift_range.hi - shift_range.lo)
        mid = 0.5 * (shift_range.hi + shift_range.lo)
        arls = [
            arl_at_shift(d, pm, me, ShiftSpec.from_tau(half * xi + mid, gamma0), profile=profile).arl for xi in x
        ]
        expected = float(np.dot(w, arls)) * half / (shift_range.hi - shift_range.lo)
        assert earl(d, pm, me, shift_range, profile=profile) == pytest.approx(expected, rel=1e-12)

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
        x, w = _gauss_legendre(64)
        ref_x, ref_w = np.polynomial.legendre.leggauss(64)
        assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
        assert _gauss_legendre(64) is _gauss_legendre(64)
        with pytest.raises(ValueError):
            x[0] = 0.0

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
        # one in_control_prob call per node
        from cvrunrules import merror, runrules

        pm = ProcessModel(gamma0, n)
        me = me if me is not None else MeasurementErrorModel.identity()
        d = solve_design(rule(r, s, direction), pm, me, profile=profile)
        shift_range = INCREASING_SHIFTS if direction == "upper" else DECREASING_SHIFTS
        x, _ = _gauss_legendre(64)
        half, mid = 0.5 * (shift_range.hi - shift_range.lo), 0.5 * (shift_range.hi + shift_range.lo)
        gammas = [merror.observed_cv_shifted(gamma0, ShiftSpec.from_tau(half * xi + mid, gamma0), me) for xi in x]
        batch = runrules._in_control_probs(d.rule.direction, d.limit, n, gammas, force=True, profile=profile)
        one = [runrules.in_control_prob(d.rule.direction, d.limit, n, g, force=True, profile=profile) for g in gammas]
        assert np.max(np.abs(np.subtract(batch, one))) <= 1e-13


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

    def test_unknown_axis_rejected(self):
        with pytest.raises(DomainError):
            sweep([rule(2, 3, "upper")], {"bogus": [1], "tau": [1.5]})

    def test_tau_xor_omega(self):
        with pytest.raises(DomainError):
            sweep([rule(2, 3, "upper")], {"gamma0": [0.1]})
        with pytest.raises(DomainError):
            sweep([rule(2, 3, "upper")], {"tau": [1.5], "omega": [(1.0, 2.0)]})
