"""Run-rule chain construction and exact run-length metrics."""

import math

import numpy as np
import pytest

from cvrunrules.cvdist import moments_for_gamma
from cvrunrules.errors import ChainSingularError, DomainError
from cvrunrules.runrules import (
    Direction,
    RunLengthMethod,
    RunLengthMetrics,
    RunRule,
    arl,
    build_chain,
    in_control_prob,
    rule_automaton,
)

RULES = [(2, 3), (3, 4), (4, 5)]
ALL_RULES = [(r, s) for s in range(1, 11) for r in range(1, s + 1)]


def chain_arl(r, s, p):
    return arl(build_chain(RunRule(r, s, Direction.UPPER), p)).arl


class TestChainStructure:
    @pytest.mark.parametrize("r,s,count", [(2, 3, 3), (3, 4, 7), (4, 5, 15), (1, 1, 1)])
    def test_state_counts(self, r, s, count):
        chain = build_chain(RunRule(r, s, Direction.UPPER), 0.5)
        assert len(chain.states) == count
        assert chain.initial_index == count - 1
        assert chain.states[-1] == (0,) * (s - 1)

    @pytest.mark.parametrize("p", np.arange(0.0, 1.0001, 0.1))
    @pytest.mark.parametrize("r,s", RULES)
    def test_row_stochasticity(self, r, s, p):
        chain = build_chain(RunRule(r, s, Direction.LOWER), float(p))
        totals = chain.transition.sum(axis=1) + chain.absorption
        assert np.allclose(totals, 1.0, atol=1e-14)
        assert (chain.transition >= -1e-15).all()

    def test_published_2of3_matrix(self):
        # reference transient matrix, states ordered (1,0), (0,1), (0,0)
        p = 0.37
        chain = build_chain(RunRule(2, 3, Direction.UPPER), p)
        expected = np.array([
            [0.0, 0.0, p],
            [p, 0.0, 0.0],
            [0.0, 1 - p, p],
        ])
        assert chain.states == ((1, 0), (0, 1), (0, 0))
        assert np.allclose(chain.transition, expected)

    def test_published_3of4_matrix(self):
        p = 0.61
        chain = build_chain(RunRule(3, 4, Direction.UPPER), p)
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
        with pytest.raises(DomainError):
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
        metrics = arl(build_chain(RunRule(r, s, Direction.UPPER), 0.0))
        assert metrics.arl == pytest.approx(r, abs=1e-12)
        assert metrics.sdrl == pytest.approx(0.0, abs=1e-9)

    def test_shewhart_closed_form(self):
        for p in (0.1, 0.5, 0.9, 0.99, 0.9973):
            metrics = arl(build_chain(RunRule(1, 1, Direction.UPPER), p))
            assert metrics.arl == pytest.approx(1.0 / (1.0 - p), rel=1e-12)
            assert metrics.sdrl == pytest.approx(math.sqrt(p) / (1.0 - p), rel=1e-10)

    def test_singular_at_p_one(self):
        with pytest.raises(ChainSingularError):
            arl(build_chain(RunRule(2, 3, Direction.UPPER), 1.0))

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
        chain = build_chain(rule, 0.83)
        base = arl(chain)
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
        # simulate the rule directly on Bernoulli(p) violations
        rng = np.random.default_rng(77)
        r, s, p = 2, 3, 0.9
        exact = arl(build_chain(RunRule(r, s, Direction.UPPER), p))
        reps = 200_000
        lengths = np.empty(reps)
        for i in range(reps):
            hist = [0] * (s - 1)
            t = 0
            while True:
                t += 1
                out = rng.random() > p
                if out and sum(hist) + 1 >= r:
                    break
                hist = hist[1:] + [1 if out else 0]
            lengths[i] = t
        se = lengths.std(ddof=1) / math.sqrt(reps)
        assert abs(lengths.mean() - exact.arl) <= 3 * se


class TestLumping:
    """``arl`` solves on the automaton's quotient; these pin that quotient
    and compare it with a dense solve on the full history chain."""

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
        # arl() writes the two successors' entries without summing them
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
            chain = build_chain(RunRule(r, s, Direction.UPPER), p)
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
            metrics = arl(chain)
            assert metrics.arl == pytest.approx(full_arl, rel=1e-10)
            assert metrics.sdrl == pytest.approx(full_sdrl, rel=1e-10, abs=1e-9)
            compared += 1
        assert compared >= 1


class TestInControlProb:
    def test_lower_limit_nonpositive(self):
        assert in_control_prob(Direction.LOWER, 0.0, 5, 0.1) == 1.0
        assert in_control_prob(Direction.LOWER, -0.5, 5, 0.1) == 1.0

    def test_upper_limit_infinite(self):
        assert in_control_prob(Direction.UPPER, math.inf, 5, 0.1) == 1.0

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
