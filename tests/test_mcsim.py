"""Monte Carlo oracle tests: determinism, distributional fidelity, and
agreement with the exact Markov metrics."""

import logging
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from cvrunrules.cvdist import ProcessModel, moments_for_gamma
from cvrunrules.design import solve_design, arl_at_shift
from cvrunrules.errors import DomainError
from cvrunrules.mcsim import (
    SimConfig, _block_signals, _chunk_rng, estimate_run_length, simulate_subgroups,
)
from cvrunrules.merror import MeasurementErrorModel, ShiftSpec
from cvrunrules.runrules import Direction, RunLengthMethod, RunRule

from conftest import c7_cells
from pipeline import _pipeline_subgroups

C7_CELLS = c7_cells()
MEAN_REFUSED = r"mu\* must lie in \(2\*\*-500, 2\*\*500\)"
SD_REFUSED = r"B\*b\*sigma0 and eta\*sigma0 must be below 2\*\*500"


def philox(seed):
    return np.random.Generator(np.random.Philox(key=seed))


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            SimConfig(replications=0, seed=1)
        with pytest.raises(DomainError):
            SimConfig(replications=10, seed=-1)
        with pytest.raises(DomainError):
            SimConfig(replications=10, seed=1, max_run_length=0)
        with pytest.raises(DomainError):
            SimConfig(replications=True, seed=1)
        with pytest.raises(DomainError):
            SimConfig(replications=10, seed=True)
        with pytest.raises(DomainError):
            SimConfig(replications=10.0, seed=1)
        with pytest.raises(DomainError):
            SimConfig(replications=10, seed=1, max_run_length=2.5)
        cfg = SimConfig(replications=np.int64(10), seed=np.uint64(2**63))
        assert (type(cfg.replications), type(cfg.seed)) == (int, int)


class TestSimulateSubgroup:
    @pytest.mark.slow
    def test_identity_moments_match_approximation(self):
        # the approximate mean itself is biased about -1.2% at this cell
        # (measured; see the moments tests), far beyond Monte Carlo noise
        # at 1e7 replications, so the comparison runs at the approximation
        # tolerance rather than 3 standard errors
        rng = philox(20240110)
        g2 = simulate_subgroups(10_000_000, 5, 0.1, ShiftSpec.in_control(0.1),
                                MeasurementErrorModel.identity(), rng)
        m = moments_for_gamma(0.1, 5)
        assert g2.mean() == pytest.approx(m.mean, rel=0.02)
        assert g2.std(ddof=1) == pytest.approx(m.std, rel=0.01)

    @pytest.mark.slow
    def test_identity_distribution_ks(self):
        from scipy.stats import kstest

        from cvrunrules.cvdist import cv2_cdf

        rng = philox(20240111)
        g2 = simulate_subgroups(1_000_000, 5, 0.1, ShiftSpec.in_control(0.1),
                                MeasurementErrorModel.identity(), rng)
        result = kstest(g2, lambda x: np.array([cv2_cdf(float(v), 5, 0.1) for v in x]))
        assert result.pvalue > 0.001

    @pytest.mark.slow
    def test_observed_cv_matches_model(self):
        from cvrunrules.merror import observed_cv_incontrol

        rng = philox(20240112)
        me = MeasurementErrorModel(theta=0.05, eta=0.28, slope=1.0, reps=1)
        # per-item averaged observations: their empirical CV approaches gamma0*
        sigma0 = 0.1
        x = rng.normal(1.0, sigma0, size=10_000_000)
        obs = 0.05 + 1.0 * x + rng.normal(0.0, 0.28 * sigma0, size=x.shape)
        emp_cv = obs.std(ddof=1) / obs.mean()
        se = emp_cv / math.sqrt(2 * (len(obs) - 1))  # delta-method scale
        assert abs(emp_cv - observed_cv_incontrol(0.1, me)) <= 5 * se

    @pytest.mark.parametrize(
        "size, n, gamma0",
        [
            (-1, 5, 0.1),
            (2.0, 5, 0.1),
            (True, 5, 0.1),
            (10, 1, 0.1),
            (10, 5.0, 0.1),
            (10, True, 0.1),
            (10, 5, math.nan),
            (10, 5, 0.0),
            (10, 5, -0.1),
            (10, 5, math.inf),
            (10, 5, 0.5),
        ],
    )
    def test_rejects_bad_inputs(self, size, n, gamma0):
        me, shift = MeasurementErrorModel.identity(), ShiftSpec.in_control(0.1)
        with pytest.raises(DomainError):
            simulate_subgroups(size, n, gamma0, shift, me, philox(1))

    @pytest.mark.parametrize(
        "me, tau, b, message",
        [
            (MeasurementErrorModel(eta=1e200), 1.0, 1.0, SD_REFUSED),
            (MeasurementErrorModel.identity(), 1e160, 1e160, SD_REFUSED),
            (MeasurementErrorModel(slope=1e300), 1.0, 1.0, MEAN_REFUSED),
            (MeasurementErrorModel.identity(), 1e-300, 1.0, MEAN_REFUSED),
            # mu*^2 underflowed to 0 on every draw, and the zero-mean redraw never ended
            (MeasurementErrorModel(slope=1e-300), 1.0, 1.0, MEAN_REFUSED),
        ],
        ids=["eta-1e200", "b-1e160", "slope-1e300", "tau-1e-300", "slope-1e-300"],
    )
    def test_rejects_moments_out_of_range(self, me, tau, b, message):
        shift, rng = ShiftSpec.from_tau(tau, 0.1, b=b), philox(1)
        with pytest.raises(DomainError, match=message):
            simulate_subgroups(10, 5, 0.1, shift, me, rng)
        assert rng.random() == philox(1).random()  # refused before any draw

    def test_two_draws_from_the_model(self):
        # one normal for the subgroup mean, then one chi-square for its
        # variance, at the averaged item's mean and variance written out
        # from X* = A + B*X + eps: n = 5, gamma0 = 0.1, theta = 0.05,
        # eta = 0.28, B = 0.9, m = 3, tau = 1.5 realized by a mean shift
        me = MeasurementErrorModel(theta=0.05, eta=0.28, slope=0.9, reps=3)
        shift = ShiftSpec.from_tau(1.5, 0.1)
        got = simulate_subgroups(1000, 5, 0.1, shift, me, philox(17))
        mean = 0.05 + 0.9 * (1.0 + shift.a * 0.1)
        var = (0.9 * 0.1) ** 2 + (0.28 * 0.1) ** 2 / 3
        rng = philox(17)
        xbar = rng.normal(mean, math.sqrt(var / 5), size=1000)
        s2 = rng.chisquare(4, size=1000) * var / 4
        np.testing.assert_array_equal(got, s2 / xbar**2)

    def test_zero_mean_is_redrawn(self, caplog):
        # a subgroup mean of exactly 0 would give an infinite CV; those
        # subgroups are drawn again, and only those
        class ZerosOnFirstNormal:
            def __init__(self, rng, at):
                self.rng, self.at = rng, at

            def normal(self, loc, scale, size):
                out = self.rng.normal(loc, scale, size=size)
                if self.at is not None:
                    out[self.at], self.at = 0.0, None
                return out

            def chisquare(self, df, size):
                return self.rng.chisquare(df, size=size)

        me, shift = MeasurementErrorModel.identity(), ShiftSpec.in_control(0.1)
        at = np.array([0, 17, 500, 999])
        with caplog.at_level(logging.WARNING, logger="cvrunrules.mcsim"):
            got = simulate_subgroups(1000, 5, 0.1, shift, me, ZerosOnFirstNormal(philox(23), at))
        assert np.isfinite(got).all() and (got > 0).all()
        assert [r.getMessage() for r in caplog.records] == ["re-drew 4 subgroups with a zero observed mean"]
        kept = np.ones(1000, dtype=bool)
        kept[at] = False
        np.testing.assert_array_equal(got[kept], simulate_subgroups(1000, 5, 0.1, shift, me, philox(23))[kept])

    @pytest.mark.parametrize("i", range(len(C7_CELLS)))
    def test_same_law_as_pipeline(self, i):
        # the two-draw sampler against the item-by-item pipeline on every
        # Monte Carlo acceptance cell
        from scipy.stats import ks_2samp

        r, s, direction, n, gamma0, tau, theta, eta, slope, m = C7_CELLS[i]
        me = MeasurementErrorModel(theta=theta, eta=eta, slope=slope, reps=m)
        shift = ShiftSpec.from_tau(tau, gamma0)
        two_draw = simulate_subgroups(20_000, n, gamma0, shift, me, philox(31000 + i))
        pipeline = _pipeline_subgroups(20_000, n, gamma0, shift, me, philox(32000 + i))
        assert ks_2samp(two_draw, pipeline).pvalue > 1e-3

    def test_shift_changes_law(self):
        rng = philox(5)
        shift = ShiftSpec.from_tau(2.0, 0.1)
        g2_shift = simulate_subgroups(200_000, 5, 0.1, shift, MeasurementErrorModel.identity(), rng)
        g2_base = simulate_subgroups(200_000, 5, 0.1, ShiftSpec.in_control(0.1),
                                     MeasurementErrorModel.identity(), philox(5))
        assert g2_shift.mean() > 2.5 * g2_base.mean()


class TestEstimateRunLength:
    def test_deterministic_given_seed(self):
        pm = ProcessModel(0.1, 5)
        d = solve_design(RunRule(2, 3, Direction.UPPER), pm)
        cfg = SimConfig(replications=20_000, seed=99)
        shift = ShiftSpec.from_tau(1.5, 0.1)
        m1 = estimate_run_length(d, pm, None, shift, cfg)
        m2 = estimate_run_length(d, pm, None, shift, cfg)
        assert (m1.arl, m1.sdrl, m1.stderr) == (m2.arl, m2.sdrl, m2.stderr)
        assert m1.method is RunLengthMethod.MONTE_CARLO

    def test_forced_signal_every_r_samples(self):
        # with the upper limit at zero every point violates the chart
        pm = ProcessModel(0.1, 5)
        d = solve_design(RunRule(3, 4, Direction.UPPER), pm)
        object.__setattr__(d, "limit", 0.0)  # force p = 0 regime
        cfg = SimConfig(replications=5_000, seed=7)
        m = estimate_run_length(d, pm, None, ShiftSpec.in_control(0.1), cfg)
        assert m.arl == pytest.approx(3.0, abs=1e-12)
        assert m.sdrl == 0.0

    @pytest.mark.parametrize("replications", [1_000, 65_537])  # 65 537: a second chunk of one
    @pytest.mark.parametrize("max_run_length, arl, truncated", [(5, 5.0, False), (4, 4.0, True)])
    def test_forced_signal_at_the_truncation_bound(self, replications, max_run_length, arl, truncated):
        # every point violates a 5-of-8 upper chart at limit 0, so each run
        # signals at step 5: a bound of 5 still sees it, a bound of 4 cuts
        # every run, whatever blocks the steps were drawn in
        pm = ProcessModel(0.1, 5)
        d = solve_design(RunRule(5, 8, Direction.UPPER), pm)
        object.__setattr__(d, "limit", 0.0)
        cfg = SimConfig(replications=replications, seed=13, max_run_length=max_run_length)
        m = estimate_run_length(d, pm, None, ShiftSpec.in_control(0.1), cfg)
        assert (m.arl, m.sdrl) == (arl, 0.0)
        assert m.truncated == (replications if truncated else 0)

    @pytest.mark.parametrize(
        "r, s, direction, tau", [(2, 3, Direction.UPPER, 1.5), (3, 4, Direction.LOWER, 0.65), (5, 8, Direction.UPPER, 1.5)]
    )
    @pytest.mark.parametrize("me", [None, MeasurementErrorModel(theta=0.05, eta=0.28, slope=1.0, reps=3)])
    def test_agrees_with_exact(self, r, s, direction, tau, me):
        # the fast suite's check on the oracle, at the benchmark's 4-SE gate
        pm = ProcessModel(0.1, 5)
        d = solve_design(RunRule(r, s, direction), pm, me)
        shift = ShiftSpec.from_tau(tau, 0.1)
        mc = estimate_run_length(d, pm, me, shift, SimConfig(replications=20_000, seed=4100 + 10 * r + s))
        assert abs(mc.arl - arl_at_shift(d, pm, me, shift).arl) <= 4 * mc.stderr

    def test_truncation_reported(self):
        pm = ProcessModel(0.1, 5)
        d = solve_design(RunRule(2, 3, Direction.UPPER), pm)
        cfg = SimConfig(replications=500, seed=11, max_run_length=3)
        m = estimate_run_length(d, pm, None, ShiftSpec.in_control(0.1), cfg)
        assert m.truncated > 0
        assert m.arl <= 3.0

    @pytest.mark.slow
    def test_reference_cell_mc(self):
        # 2-of-3 lower chart, strong decrease: published value 8.1.  The
        # simulated truth at that design is the exact-kernel evaluation
        # (8.19 here); the published figure carries the legacy truncation
        # at evaluation time too, so it sits ~0.09 away from the MC truth.
        pm = ProcessModel(0.05, 5)
        d = solve_design(RunRule(2, 3, Direction.LOWER), pm, profile="cdflib")
        shift = ShiftSpec.from_tau(0.5, 0.05)
        cfg = SimConfig(replications=1_000_000, seed=20240113)
        m = estimate_run_length(d, pm, None, shift, cfg)
        exact = arl_at_shift(d, pm, None, shift, profile="exact")
        assert abs(m.arl - exact.arl) <= 3 * m.stderr
        assert abs(m.arl - 8.1) <= 0.15

    @pytest.mark.slow
    def test_exact_vs_mc_sampled_cells(self):
        rng = np.random.default_rng(424242)
        cells = []
        for _ in range(5):
            r, s = [(2, 3), (3, 4), (4, 5)][rng.integers(0, 3)]
            direction = Direction.LOWER if rng.random() < 0.5 else Direction.UPPER
            tau = float(rng.uniform(0.5, 0.8)) if direction is Direction.LOWER else float(rng.uniform(1.3, 2.0))
            gamma0 = float(rng.choice([0.05, 0.1, 0.2]))
            cells.append((r, s, direction, gamma0, tau))
        for (r, s, direction, gamma0, tau) in cells:
            pm = ProcessModel(gamma0, 5)
            me = MeasurementErrorModel(theta=0.02, eta=0.2)
            d = solve_design(RunRule(r, s, direction), pm, me)
            shift = ShiftSpec.from_tau(tau, gamma0)
            exact = arl_at_shift(d, pm, me, shift)
            cfg = SimConfig(replications=150_000, seed=1000 + r * 10 + s)
            mc = estimate_run_length(d, pm, me, shift, cfg)
            assert abs(exact.arl - mc.arl) <= 3 * mc.stderr


def _brute_force_lengths(outside, r, s):
    # first t with r or more of the flags t - s + 1 .. t set, by definition
    steps, reps = outside.shape
    lengths = np.full(reps, -1)
    for a in range(reps):
        for t in range(1, steps + 1):
            if outside[max(0, t - s) : t, a].sum() >= r:
                lengths[a] = t
                break
    return lengths


class TestBlockSignals:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=hs.data())
    def test_matches_brute_force_across_block_splits(self, data):
        s = data.draw(hs.integers(1, 12), label="s")
        r = data.draw(hs.integers(1, s), label="r")
        steps = data.draw(hs.integers(1, 40), label="steps")
        reps = data.draw(hs.integers(1, 6), label="reps")
        p = data.draw(hs.sampled_from([0.1, 0.4, 0.8]), label="p")
        seed = data.draw(hs.integers(0, 2**32 - 1), label="seed")
        outside = np.random.default_rng(seed).random((steps, reps)) < p
        splits = data.draw(hs.lists(hs.integers(1, 2 * s + 3), min_size=1, max_size=steps), label="blocks")
        ring = np.zeros((s, reps), dtype=bool)
        count = np.zeros(reps, dtype=np.min_scalar_type(-s - 1))
        lengths = np.full(reps, -1)
        done = 0
        while done < steps:
            rows = min(splits[done % len(splits)], steps - done)
            first = _block_signals(outside[done : done + rows], ring, count, done, r)
            new = (first < rows) & (lengths < 0)
            lengths[new] = done + 1 + first[new]
            done += rows
            np.testing.assert_array_equal(count, outside[max(0, done - s) : done].sum(axis=0))
        np.testing.assert_array_equal(lengths, _brute_force_lengths(outside, r, s))


class TestChunkStreams:
    def draws(self, seed, chunk):
        rng = _chunk_rng(seed, chunk)
        assert isinstance(rng.bit_generator, np.random.SFC64)
        return rng.random(64)

    def test_equal_keys_give_equal_draws(self):
        np.testing.assert_array_equal(self.draws(7, 3), self.draws(7, 3))

    def test_chunks_and_seeds_get_their_own_streams(self):
        assert not np.array_equal(self.draws(1, 0), self.draws(1, 1))
        # both ends of the 64-bit seed range are accepted, as SimConfig allows
        assert not np.array_equal(self.draws(0, 0), self.draws(2**64 - 1, 0))


def test_oracle_binds_no_chain_evaluator():
    # C7 cross-validates the exact chain against this oracle; that rests on
    # the oracle sharing no code with it, so none of the chain's evaluators
    # may be bound in mcsim, under its own name or another
    import cvrunrules.mcsim as mcsim
    from cvrunrules import cvdist, design, runrules, specfun

    evaluators = {
        "specfun": specfun,
        "cv2_cdf": cvdist.cv2_cdf,
        "_cv2_cdf_levels": cvdist._cv2_cdf_levels,
        "rule_automaton": runrules.rule_automaton,
        "run_length_metrics": runrules.run_length_metrics,
        "_arls": runrules._arls,
        "in_control_prob": runrules.in_control_prob,
        "arl_at_shift": design.arl_at_shift,
    }
    bound = vars(mcsim)
    assert not evaluators.keys() & bound.keys()
    # nor any package module, through which every evaluator is one attribute away
    assert not [
        name for name, value in bound.items()
        if any(value is e for e in evaluators.values())
        or (isinstance(value, types.ModuleType) and value.__name__.startswith("cvrunrules"))
    ]


class TestShiftProcessMatch:
    # ShiftSpec.from_tau(1.5, 0.05) stores a = (1/1.5 - 1)/0.05; applied to
    # a gamma0 = 0.1 process that mean shift realizes tau = 3, not 1.5, so
    # each side would answer for its own tau without a word
    PM = ProcessModel(0.1, 5)
    WRONG = ShiftSpec.from_tau(1.5, 0.05)

    def design(self):
        return solve_design(RunRule(2, 3, Direction.UPPER), self.PM, profile="cdflib")

    def test_exact_side_refuses(self):
        with pytest.raises(DomainError, match="gamma0"):
            arl_at_shift(self.design(), self.PM, None, self.WRONG)

    def test_monte_carlo_side_refuses(self):
        with pytest.raises(DomainError, match="gamma0"):
            estimate_run_length(self.design(), self.PM, None, self.WRONG, SimConfig(replications=10, seed=1))
        with pytest.raises(DomainError, match="gamma0"):
            simulate_subgroups(10, 5, 0.1, self.WRONG, MeasurementErrorModel.identity(), philox(1))

    def test_relative_tolerance(self):
        # a gamma0 that went through arithmetic still matches
        near = ShiftSpec.from_tau(1.5, 0.1 * (1 + 1e-14))
        assert simulate_subgroups(3, 5, 0.1, near, MeasurementErrorModel.identity(), philox(1)).shape == (3,)
        far = ShiftSpec.from_tau(1.5, 0.1 * (1 + 1e-10))
        with pytest.raises(DomainError):
            simulate_subgroups(3, 5, 0.1, far, MeasurementErrorModel.identity(), philox(1))
