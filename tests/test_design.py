"""Chart design, shift evaluation, EARL quadrature and grid sweeps."""

import numpy as np
import pytest

from cvrunrules.cvdist import ProcessModel
from cvrunrules.design import (
    DEFAULT_ARL0,
    DECREASING_SHIFTS,
    INCREASING_SHIFTS,
    ShiftRange,
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
        # the bisection bracket relies on ARL increasing with k
        from cvrunrules.cvdist import moments_for_gamma
        from cvrunrules.runrules import arl as chain_arl, build_chain, in_control_prob

        m = moments_for_gamma(0.1, 5)
        arls = []
        for k in np.linspace(0.5, 3.0, 12):
            p = in_control_prob(Direction.UPPER, m.mean + k * m.std, 5, 0.1)
            arls.append(chain_arl(build_chain(rule(2, 3, "upper"), p)).arl)
        assert all(b > a for a, b in zip(arls, arls[1:]))

    def test_unattainable_target(self):
        # ARL0 far beyond what any k in the bracket can reach on the lower side
        pm = ProcessModel(0.1, 5)
        with pytest.raises((UnattainableDesignError, DomainError)):
            solve_design(rule(2, 3, "lower"), pm, arl0=1.0000001)

    def test_invalid_arl0(self):
        with pytest.raises(DomainError):
            solve_design(rule(2, 3, "upper"), ProcessModel(0.1, 5), arl0=0.5)


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

    def test_invalid_range(self):
        with pytest.raises(DomainError):
            ShiftRange(1.0, 0.5)


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
