"""Run-rule chain construction and exact run-length metrics."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import cvrunrules
from cvrunrules import runrules
from cvrunrules.cvdist import ProcessModel, moments_for_gamma
from cvrunrules.design import arl_at_shift, solve_design
from cvrunrules.errors import ChainSingularError, DomainError, GammaDomainError
from cvrunrules.merror import MeasurementErrorModel, ShiftSpec, observed_cv_shifted
from cvrunrules.runrules import (
    Direction,
    RuleAutomaton,
    RunLengthMethod,
    RunLengthMetrics,
    RunRule,
    arl,
    build_chain,
    history_path,
    in_control_prob,
    rule_automaton,
    run_length_metrics,
)

from automaton_reference import reference_chain

RULES = [(2, 3), (3, 4), (4, 5)]
ALL_RULES = [(r, s) for s in range(1, 11) for r in range(1, s + 1)]


def chain_arl(r, s, p):
    return run_length_metrics(RunRule(r, s, Direction.UPPER), [p])[0].arl


def _mp_lumped_metrics(r, s, p, dps=80):
    """ARL and SDRL of the lumped r-of-s chain at p, in mpmath at ``dps``
    digits: A = I - Q_k from the automaton's classes, then plain Gaussian
    elimination (diagonal updated by subtraction, zero multipliers
    skipped) for v = A^-1 1 and z = A^-1 (v - 1).  A's condition number is
    about the ARL (up to 1e40 here), so 80 digits leave 40 to spare."""
    import mpmath as mp

    automaton = rule_automaton(r, s)
    reps, block = automaton.representatives.tolist(), automaton.block.tolist()
    k = len(reps)
    with mp.workdps(dps):
        p = mp.mpf(p)
        matrix = [{c: mp.mpf(1)} for c in range(k)]
        for c, rep in enumerate(reps):
            successors = [(automaton.t_in[rep], p), (automaton.t_out[rep], 1 - p)]
            for state, mass in successors:
                if state >= 0:
                    d = block[state]
                    matrix[c][d] = matrix[c].get(d, 0) - mass

        def solve(rhs):
            a, b = [dict(row) for row in matrix], list(rhs)
            for j in range(k):
                for i in range(j + 1, k):
                    if not a[i].get(j):
                        continue
                    f = a[i].pop(j) / a[j][j]
                    for c, value in a[j].items():
                        if c > j:
                            a[i][c] = a[i].get(c, 0) - f * value
                    b[i] -= f * b[j]
            x = [mp.mpf(0)] * k
            for j in range(k - 1, -1, -1):
                x[j] = (b[j] - mp.fsum(value * x[c] for c, value in a[j].items() if c > j)) / a[j][j]
            return x

        v = solve([mp.mpf(1)] * k)
        z = solve([x - 1 for x in v])
        i = block[automaton.initial_index]
        return v[i], mp.sqrt(2 * z[i] - v[i] ** 2 + v[i])


def _assert_matches_mpmath(metrics, r, s, p, rtol=1e-13):
    ref_arl, ref_sdrl = _mp_lumped_metrics(r, s, p)
    assert abs(metrics.arl - ref_arl) <= rtol * ref_arl, (r, s, p, metrics.arl, float(ref_arl))
    assert abs(metrics.sdrl - ref_sdrl) <= rtol * ref_sdrl, (r, s, p, metrics.sdrl, float(ref_sdrl))


def _run_automaton(r):
    """The minimal automaton of r consecutive violations (r-of-r): state
    i carries r - 1 - i trailing violations, so the initial state is last.
    ``rule_automaton`` would enumerate all 2^(r-1) histories instead."""
    t_in = np.full(r, r - 1)
    t_out = np.arange(-1, r - 1)
    return RuleAutomaton(
        states=tuple((i,) for i in range(r)),
        t_in=t_in,
        t_out=t_out,
        initial_index=r - 1,
        block=np.arange(r),
        representatives=np.arange(r),
    )


class TestChainStructure:
    @pytest.mark.parametrize("r,s,count", [(2, 3, 3), (3, 4, 7), (4, 5, 15), (1, 1, 1)])
    def test_state_counts(self, r, s, count):
        chain = reference_chain(r, s, 0.5)
        assert len(chain.states) == count
        assert chain.initial_index == count - 1
        assert chain.states[-1] == (0,) * (s - 1)

    @pytest.mark.parametrize("p", np.arange(0.0, 1.0001, 0.1))
    @pytest.mark.parametrize("r,s", RULES)
    def test_row_stochasticity(self, r, s, p):
        chain = reference_chain(r, s, float(p))
        totals = chain.transition.sum(axis=1) + chain.absorption
        assert np.allclose(totals, 1.0, atol=1e-14)
        assert (chain.transition >= -1e-15).all()

    def test_published_2of3_matrix(self):
        # reference transient matrix, states ordered (1,0), (0,1), (0,0)
        p = 0.37
        chain = reference_chain(2, 3, p)
        expected = np.array([
            [0.0, 0.0, p],
            [p, 0.0, 0.0],
            [0.0, 1 - p, p],
        ])
        assert chain.states == ((1, 0), (0, 1), (0, 0))
        assert np.allclose(chain.transition, expected)

    def test_published_3of4_matrix(self):
        p = 0.61
        chain = reference_chain(3, 4, p)
        q = 1 - p
        expected = np.array([
            [0, 0, p, 0, 0, 0, 0],
            [0, 0, 0, 0, p, 0, 0],
            [0, 0, 0, 0, 0, q, p],
            [p, 0, 0, 0, 0, 0, 0],
            [0, q, p, 0, 0, 0, 0],
            [0, 0, 0, q, p, 0, 0],
            [0, 0, 0, 0, 0, q, p],
        ], dtype=float)
        assert np.allclose(chain.transition, expected)

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            RunRule(3, 2, Direction.UPPER)
        with pytest.raises(DomainError):
            RunRule(0, 2, Direction.UPPER)
        with pytest.raises(DomainError), pytest.deprecated_call():
            build_chain(RunRule(2, 3, Direction.UPPER), 1.2)
        with pytest.raises(DomainError):
            RunRule(True, 1, Direction.UPPER)
        with pytest.raises(DomainError):
            RunRule(2.0, 3, Direction.UPPER)
        rule = RunRule(np.int64(2), np.int64(3), Direction.UPPER)
        assert rule == RunRule(2, 3, Direction.UPPER) and type(rule.r) is int and type(rule.s) is int


class TestArl:
    @pytest.mark.parametrize("r,s", RULES)
    def test_all_points_outside(self, r, s):
        # p = 0: the r-th sample signals deterministically
        (metrics,) = run_length_metrics(RunRule(r, s, Direction.UPPER), [0.0])
        assert metrics.arl == pytest.approx(r, abs=1e-12)
        assert metrics.sdrl == pytest.approx(0.0, abs=1e-9)

    def test_shewhart_closed_form(self):
        for p in (0.1, 0.5, 0.9, 0.99, 0.9973):
            (metrics,) = run_length_metrics(RunRule(1, 1, Direction.UPPER), [p])
            assert metrics.arl == pytest.approx(1.0 / (1.0 - p), rel=1e-12)
            assert metrics.sdrl == pytest.approx(math.sqrt(p) / (1.0 - p), rel=1e-10)

    def test_singular_at_p_one(self):
        with pytest.raises(ChainSingularError):
            run_length_metrics(RunRule(2, 3, Direction.UPPER), [1.0])
        # q = 1 - p is 0 only at p = 1: the largest double below 1 is solved
        rule = RunRule(1, 1, Direction.UPPER)
        with pytest.raises(ChainSingularError):
            run_length_metrics(rule, [0.5, 1.0])
        (metrics,) = run_length_metrics(rule, [1.0 - 2.0**-53])
        assert metrics.arl == 2.0**53

    def test_deprecated_arl_is_run_length_metrics(self):
        rule = RunRule(3, 4, Direction.UPPER)
        with pytest.deprecated_call():
            chain = build_chain(rule, 0.9)
        with pytest.deprecated_call():
            metrics = arl(chain)
        assert metrics == run_length_metrics(rule, [0.9])[0]
        assert "run_length_metrics" in runrules.__all__ and "run_length_metrics" in cvrunrules.__all__

    def test_rejects_p_outside_unit_interval(self):
        for p in (-0.1, 1.5, math.nan):
            with pytest.raises(DomainError):
                run_length_metrics(RunRule(2, 3, Direction.UPPER), [0.5, p])

    @pytest.mark.parametrize("r", [20, 22])
    def test_overflow_is_loud(self, r, monkeypatch):
        # With p < 1 the smallest q is 2^-53, so only a run of r >= 20
        # outside points can push the ARL, about q^-r, past 1.8e308; at
        # r = 22 the last pivot (about q^r) underflows to 0 as well.  The
        # r-of-r chain is given by its minimal automaton.
        monkeypatch.setattr(runrules, "rule_automaton", lambda r_, s_: _run_automaton(r_))
        runrules._gth_plan.cache_clear()
        try:
            rule = RunRule(r, r, Direction.UPPER)
            p = 1.0 - 2.0**-53
            for ps in ([p], [0.5, p]):
                for solve in (run_length_metrics, runrules._arls):
                    with pytest.raises(ChainSingularError):
                        solve(rule, ps)
            if r == 20:
                # just below overflow the ARL is exact: (1 - q^r) / (p q^r)
                q = 1e-15
                (metrics,) = run_length_metrics(rule, [1.0 - q])
                q = 1.0 - (1.0 - q)
                expected = (1.0 - q**r) / ((1.0 - q) * q**r)
                assert metrics.arl == pytest.approx(expected, rel=1e-13)
                assert math.isfinite(metrics.sdrl) and metrics.sdrl == pytest.approx(expected, rel=1e-13)
        finally:
            runrules._gth_plan.cache_clear()

    @pytest.mark.parametrize("r,s", RULES)
    def test_monotone_in_p(self, r, s):
        ps = np.linspace(0.05, 0.99, 20)
        arls = [chain_arl(r, s, float(p)) for p in ps]
        assert all(b > a for a, b in zip(arls, arls[1:]))

    @pytest.mark.parametrize("r,s", RULES)
    def test_permutation_invariance(self, r, s):
        # relabeling transient states must not change ARL/SDRL
        rng = np.random.default_rng(101)
        rule = RunRule(r, s, Direction.UPPER)
        chain = reference_chain(r, s, 0.83)
        (base,) = run_length_metrics(rule, [0.83])
        m = chain.transition.shape[0]
        for _ in range(5):
            perm = rng.permutation(m)
            pmat = np.eye(m)[perm]
            q2 = pmat @ chain.transition @ pmat.T
            a2 = np.eye(m) - q2
            one = np.ones(m)
            v = np.linalg.solve(a2, one)
            init2 = int(np.where(perm == chain.initial_index)[0][0])
            assert v[init2] == pytest.approx(base.arl, rel=1e-12)

    def test_metrics_validation(self):
        with pytest.raises(DomainError):
            RunLengthMetrics(arl=10.0, sdrl=9.0, method=RunLengthMethod.MONTE_CARLO)
        with pytest.raises(DomainError):
            RunLengthMetrics(arl=10.0, sdrl=9.0, method=RunLengthMethod.EXACT_MARKOV, stderr=0.1)

    def test_mc_cross_validation_bernoulli(self):
        # simulate the rule directly on Bernoulli(p) violations: every
        # replication keeps its own window of the last s-1 flags
        rng = np.random.default_rng(77)
        r, s, p = 2, 3, 0.9
        (exact,) = run_length_metrics(RunRule(r, s, Direction.UPPER), [p])
        reps = 200_000
        lengths = np.empty(reps)
        alive = np.arange(reps)
        window = np.zeros((reps, s - 1), dtype=np.int64)
        t = 0
        while alive.size:
            t += 1
            out = rng.random(alive.size) > p
            signal = out & (window.sum(axis=1) + 1 >= r)
            lengths[alive[signal]] = t
            keep = ~signal
            alive = alive[keep]
            window = np.concatenate((window[keep, 1:], out[keep, None]), axis=1)
        se = lengths.std(ddof=1) / math.sqrt(reps)
        assert abs(lengths.mean() - exact.arl) <= 3 * se


class TestArlOnly:
    """``_arls`` stops after the forward elimination; it must give the
    ARLs of ``run_length_metrics`` to the bit and refuse the same inputs."""

    @pytest.mark.parametrize("r,s", RULES + [(5, 8), (3, 10), (8, 10)])
    def test_equals_run_length_metrics(self, r, s):
        rule = RunRule(r, s, Direction.UPPER)
        ps = [0.0, 0.37, 0.9, 0.9973, 1.0 - 2.0**-40]
        assert [runrules._arls(rule, [p])[0] for p in ps] == [run_length_metrics(rule, [p])[0].arl for p in ps]
        stack = np.linspace(0.05, 0.999, 64).tolist()
        assert runrules._arls(rule, stack) == [m.arl for m in run_length_metrics(rule, stack)]
        assert runrules._arls(rule, []) == []

    def test_refuses_as_run_length_metrics(self):
        rule = RunRule(2, 3, Direction.UPPER)
        for ps in ([1.0], [0.5, 1.0]):
            with pytest.raises(ChainSingularError):
                runrules._arls(rule, ps)
        for p in (-0.1, 1.5, math.nan):
            with pytest.raises(DomainError):
                runrules._arls(rule, [0.5, p])


class TestArrayAutomaton:
    """``rule_automaton`` builds its tables and partition from arrays; the
    state-by-state construction in ``automaton_reference`` is the
    reference, field by field, and so is the GTH plan built on each."""

    @pytest.mark.parametrize("r,s", [(r, s) for s in range(1, 13) for r in range(1, s + 1)])
    def test_equals_reference(self, r, s, monkeypatch):
        from automaton_reference import reference_automaton

        got, want = rule_automaton(r, s), reference_automaton(r, s)
        assert got.states == want.states
        assert got.initial_index == want.initial_index
        for field in ("t_in", "t_out", "block", "representatives"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and np.array_equal(a, b), field
            assert not a.flags.writeable
        plan = runrules._gth_plan(r, s)
        monkeypatch.setattr(runrules, "rule_automaton", lambda r_, s_: reference_automaton(r_, s_))
        runrules._gth_plan.cache_clear()
        try:
            assert runrules._gth_plan(r, s) == plan
        finally:
            runrules._gth_plan.cache_clear()


class TestRuleSize:
    """The histories with fewer than r violations are enumerated, never
    found by a scan of all 2**(s - 1), so a long window with few
    violations is cheap.  A rule with more than 2**14 histories, or with
    more history bits than an int64 holds, is refused before any work."""

    @pytest.mark.parametrize("s", range(1, 15))
    def test_history_values_equal_a_scan(self, s):
        mask = (1 << (s - 1)) - 1
        for r in range(1, s + 1):
            scan = np.array([v for v in range(mask, -1, -1) if bin(v).count("1") < r], dtype=np.int64)
            values = runrules._history_values(r, s)
            assert values.dtype == scan.dtype and np.array_equal(values, scan), r
            assert not values.flags.writeable

    def test_long_window_matches_the_full_chain(self):
        # 2-of-40 has 40 states; the scan over its 2**39 histories never ended
        chain = reference_chain(2, 40, 0.99)
        m = chain.transition.shape[0]
        full_arl = np.linalg.solve(np.eye(m) - chain.transition, np.ones(m))[chain.initial_index]
        assert m == 40
        assert chain_arl(2, 40, 0.99) == pytest.approx(full_arl, rel=1e-12)
        assert chain_arl(2, 40, 0.99) == pytest.approx(408.3840834654049, rel=1e-12)
        pm = ProcessModel(0.1, 5)
        design = solve_design(RunRule(2, 40, Direction.UPPER), pm)
        assert arl_at_shift(design, pm).arl == pytest.approx(370.4, rel=1e-6)

    def test_largest_supported_rule(self):
        automaton = rule_automaton(8, 16)
        assert (len(automaton.states), automaton.representatives.size) == (2**14, 11440)

    def test_window_past_int64_refused(self):
        RunRule(1, 64, Direction.UPPER)
        with pytest.raises(DomainError, match="need s <= 64, got s=65"):
            RunRule(2, 65, Direction.UPPER)

    @pytest.mark.parametrize("r,s", [(20, 40), (9, 17), (2, 100)])
    def test_too_many_histories_refused(self, r, s):
        with pytest.raises(DomainError, match=f"the {r}-of-{s} rule has [0-9]+ histories"):
            rule_automaton(r, s)


class TestHistoryPath:
    @pytest.mark.parametrize("r,s", ALL_RULES)
    def test_follows_next_state_tables(self, r, s):
        automaton = rule_automaton(r, s)
        rng = np.random.default_rng(1000 * r + s)
        for _ in range(20):
            flags = rng.random(3 * s) < rng.uniform(0.1, 0.9)
            state, walked = automaton.initial_index, []
            for flag in flags.tolist():
                state = (automaton.t_out if flag else automaton.t_in)[state]
                if state < 0:
                    break
                walked.append(int(state))
            assert history_path(r, s, flags[: len(walked)]).tolist() == walked
            if len(walked) < flags.size:
                with pytest.raises(DomainError):
                    history_path(r, s, flags[: len(walked) + 1])

    def test_states_are_the_last_flags(self):
        states = rule_automaton(3, 4).states
        path = history_path(3, 4, [True, False, True, False, False, True])
        assert [states[i] for i in path] == [(0, 0, 1), (0, 1, 0), (1, 0, 1), (0, 1, 0), (1, 0, 0), (0, 0, 1)]
        assert history_path(3, 4, []).tolist() == []


class TestLumping:
    """``run_length_metrics`` solves on the automaton's quotient; these pin
    that quotient and compare it with a dense solve on the full history
    chain (``automaton_reference.reference_chain``)."""

    P_GRID = (0.0, 0.37, 0.5, 0.9, 0.95, 0.99, 0.9973, 0.999)

    @pytest.mark.parametrize("r,s", ALL_RULES)
    def test_block_is_lumping(self, r, s):
        automaton = rule_automaton(r, s)
        block = automaton.block
        k = automaton.representatives.size
        assert sorted(set(block.tolist())) == list(range(k))
        assert (block[automaton.representatives] == np.arange(k)).all()
        out_block = np.where(automaton.t_out >= 0, block[np.maximum(automaton.t_out, 0)], -1)
        for c in range(k):
            members = block == c
            assert len(set(block[automaton.t_in][members].tolist())) == 1
            assert len(set(out_block[members].tolist())) == 1
        # _gth_plan's store() writes the two successors' entries without summing them
        assert (block[automaton.t_in] != out_block).all()

    @pytest.mark.parametrize(
        "r,s,states,classes",
        [
            (8, 10, 502, 120),
            (7, 9, 247, 84),
            (5, 8, 99, 70),
            (4, 9, 93, 84),
            (3, 10, 46, 45),
            (4, 5, 15, 10),
            (3, 4, 7, 6),
            (2, 3, 3, 3),
            (10, 10, 512, 10),
        ],
    )
    def test_class_counts(self, r, s, states, classes):
        automaton = rule_automaton(r, s)
        assert (len(automaton.states), automaton.representatives.size) == (states, classes)

    @pytest.mark.parametrize("r,s", ALL_RULES)
    def test_arl_matches_full_chain(self, r, s):
        # Past ARL ~ 1e9 both solves lose every digit (I - Q is singular to
        # working precision), so only cells with ARL <= 1e6 are compared.
        compared = 0
        for p in self.P_GRID:
            chain = reference_chain(r, s, p)
            m = chain.transition.shape[0]
            a_matrix = np.eye(m) - chain.transition
            try:
                v = np.linalg.solve(a_matrix, np.ones(m))
                w = np.linalg.solve(a_matrix, chain.transition @ np.ones(m))
                z = np.linalg.solve(a_matrix, w)
            except np.linalg.LinAlgError:
                continue
            full_arl = v[chain.initial_index]
            if not 1.0 <= full_arl <= 1e6:
                continue
            full_sdrl = math.sqrt(max(2.0 * z[chain.initial_index] - full_arl**2 + full_arl, 0.0))
            (metrics,) = run_length_metrics(RunRule(r, s, Direction.UPPER), [p])
            assert metrics.arl == pytest.approx(full_arl, rel=1e-10)
            assert metrics.sdrl == pytest.approx(full_sdrl, rel=1e-10, abs=1e-9)
            compared += 1
        assert compared >= 1

    def test_stacks_are_capped(self):
        # GTH forms no matrix: 64 nodes of 8-of-10 run as one stack with a
        # 64-value array per stored entry of the plan (750 after fill),
        # about 0.7 MB at peak, and give the same numbers as one p at a time
        rule = RunRule(8, 10, Direction.UPPER)
        ps = np.linspace(0.05, 0.95, 64).tolist()
        run_length_metrics(rule, ps[:1])  # cache the lumping outside the trace
        tracemalloc.start()
        try:
            stacked = run_length_metrics(rule, ps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000
        single = [run_length_metrics(rule, [p])[0] for p in ps]
        assert [m.arl for m in stacked] == [m.arl for m in single]
        assert [m.sdrl for m in stacked] == [m.sdrl for m in single]


class TestGthAccuracy:
    """The GTH solve against an independent 80-digit elimination of the
    same lumped chain, with no cap on the ARL (up to 1e40 on this grid)."""

    P_GRID = TestLumping.P_GRID + (1.0 - 1e-4,)

    @pytest.mark.parametrize("r,s", ALL_RULES)
    def test_matches_mpmath(self, r, s):
        # 9-of-10 at p = 0.9973 is 1.4654e22 and 8-of-10 9.9221e18; the
        # dense solves gave 2.3e18 and a singular matrix there
        stacked = run_length_metrics(RunRule(r, s, Direction.UPPER), list(self.P_GRID))
        for p, metrics in zip(self.P_GRID, stacked):
            _assert_matches_mpmath(metrics, r, s, p)

    def test_readme_sweep_cell(self):
        # `cvrunrules sweep --config data/example_config.json --gamma0 0.05
        # 0.1 0.2 --tau 0.5 0.8 1.25 2.0`: 4-of-5 upper at gamma0 = 0.05,
        # tau = 0.5, where the dense solve printed 4681527127817083
        rule = RunRule(4, 5, Direction.UPPER)
        pm = ProcessModel(0.05, 5)
        me = MeasurementErrorModel(theta=0.05, eta=0.28)
        design = solve_design(rule, pm, me)
        shift = ShiftSpec.from_tau(0.5, pm.gamma0)
        metrics = arl_at_shift(design, pm, me, shift)
        gamma = observed_cv_shifted(pm.gamma0, shift, me)
        p = in_control_prob(rule.direction, design.limit, pm.n, gamma, force=True)
        _assert_matches_mpmath(metrics, 4, 5, p)
        assert metrics.arl == pytest.approx(4.6818e15, rel=1e-4)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        rule=hs.integers(1, 10).flatmap(lambda s: hs.tuples(hs.integers(1, s), hs.just(s))),
        ps=hs.lists(hs.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=8, unique=True),
    )
    def test_property_monotone_finite_and_stack_exact(self, rule, ps):
        rule = RunRule(*rule, Direction.UPPER)
        ps = sorted(ps)
        stacked = run_length_metrics(rule, ps)
        single = [run_length_metrics(rule, [p])[0] for p in ps]
        assert [(m.arl, m.sdrl) for m in stacked] == [(m.arl, m.sdrl) for m in single]
        assert all(math.isfinite(m.sdrl) and m.sdrl >= 0.0 for m in stacked)
        for (p1, m1), (p2, m2) in zip(zip(ps, stacked), zip(ps[1:], stacked[1:])):
            if p2 - p1 > 1e-9:  # closer p differ by less than the solve's last-place error
                assert m2.arl > m1.arl, (rule, p1, p2)


class TestInControlProb:
    def test_lower_limit_nonpositive(self):
        assert in_control_prob(Direction.LOWER, 0.0, 5, 0.1) == 1.0
        assert in_control_prob(Direction.LOWER, -0.5, 5, 0.1) == 1.0

    def test_upper_limit_infinite(self):
        assert in_control_prob(Direction.UPPER, math.inf, 5, 0.1) == 1.0

    # the inside probability at each edge limit: the squared CV is
    # nonnegative and finite, so an upper chart's p is 0 up to a limit of 0
    # and 1 at +inf, and a lower chart's the complement
    EDGES = {-1.0: 0.0, 0.0: 0.0, math.inf: 1.0}

    @pytest.mark.parametrize("profile", ["exact", "cdflib"])
    @pytest.mark.parametrize("direction", list(Direction))
    @pytest.mark.parametrize("limit", list(EDGES))
    def test_edge_limits(self, limit, direction, profile):
        cdf = self.EDGES[limit]
        expected = 1.0 - cdf if direction is Direction.LOWER else cdf
        assert in_control_prob(direction, limit, 5, 0.1, profile=profile) == expected
        assert in_control_prob(direction, limit, 5, 0.7, force=True, profile=profile) == expected
        assert runrules._in_control_probs(direction, limit, 5, [0.1, 0.7], profile=profile) == [expected] * 2

    @pytest.mark.parametrize("profile", ["exact", "cdflib"])
    @pytest.mark.parametrize("direction", list(Direction))
    def test_nan_limit_refused(self, direction, profile):
        with pytest.raises(DomainError, match="NaN"):
            in_control_prob(direction, math.nan, 5, 0.1, profile=profile)
        with pytest.raises(DomainError, match="NaN"):
            runrules._in_control_probs(direction, math.nan, 5, [0.1, 0.7], profile=profile)

    @pytest.mark.parametrize("limit", [-1.0, 0.0, math.inf])
    @pytest.mark.parametrize("direction", list(Direction))
    def test_edge_limits_check_n_and_gamma(self, direction, limit):
        # the CV^2 law's own checks hold at every limit, edges included
        for n, gamma, error in [(1, 0.1, DomainError), (5, 0.0, GammaDomainError), (5, math.nan, GammaDomainError)]:
            with pytest.raises(error):
                in_control_prob(direction, limit, n, gamma)
            with pytest.raises(error):
                runrules._in_control_probs(direction, limit, n, [0.1, gamma])
        with pytest.raises(GammaDomainError):
            in_control_prob(direction, limit, 5, 0.7)  # outside the window, not forced

    def test_upper_matches_cdf(self):
        from cvrunrules.cvdist import cv2_cdf

        lim = moments_for_gamma(0.1, 5).mean * 2
        assert in_control_prob(Direction.UPPER, lim, 5, 0.1) == cv2_cdf(lim, 5, 0.1)

    @pytest.mark.slow
    def test_upper_simulation_oracle(self):
        rng = np.random.default_rng(20240105)
        n, gamma = 5, 0.1
        lim = moments_for_gamma(gamma, n).mean * 2.5
        x = rng.normal(1.0, gamma, size=(2_000_000, n))
        g2 = (x.std(axis=1, ddof=1) / x.mean(axis=1)) ** 2
        emp = (g2 <= lim).mean()
        se = math.sqrt(emp * (1 - emp) / len(g2))
        assert abs(in_control_prob(Direction.UPPER, lim, n, gamma) - emp) <= 3 * se
