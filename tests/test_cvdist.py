"""Sampling-law tests for the CV and squared CV."""

import math

import numpy as np
import pytest

from cvrunrules.cvdist import (
    GAMMA_VALIDITY_LIMIT,
    Cv2Moments,
    ProcessModel,
    cv2_cdf,
    cv2_moments,
    cv2_pdf,
    cv_cdf,
    moments_for_gamma,
)
from cvrunrules.errors import DomainError, GammaDomainError

CROSS_LAW_ATOL = 1e-9


def simulate_cv(rng, reps, n, gamma):
    # direct subgroup simulation; mu = 1, sigma = gamma (CV-determined)
    x = rng.normal(1.0, gamma, size=(reps, n))
    return x.std(axis=1, ddof=1) / x.mean(axis=1)


class TestProcessModel:
    def test_accepts_window(self):
        ProcessModel(0.49, 5)
        ProcessModel(0.05, 2)

    def test_rejects_gamma_at_limit(self):
        with pytest.raises(GammaDomainError):
            ProcessModel(GAMMA_VALIDITY_LIMIT, 5)
        with pytest.raises(GammaDomainError):
            ProcessModel(0.7, 5)
        with pytest.raises(GammaDomainError):
            ProcessModel(-0.1, 5)

    def test_rejects_bad_n(self):
        with pytest.raises(DomainError):
            ProcessModel(0.1, 1)
        with pytest.raises(DomainError):
            ProcessModel(0.1, True)
        with pytest.raises(DomainError):
            ProcessModel(0.1, 5.0)
        assert type(ProcessModel(0.1, np.int64(5)).n) is int


class TestCvCdf:
    def test_monotone_grid(self):
        xs = np.linspace(0.01, 1.0, 60)
        vals = [cv_cdf(float(x), 5, 0.1) for x in xs]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_median_consistency(self):
        # invert the CDF at 0.5 by bisection, then check the value
        lo, hi = 1e-4, 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if cv_cdf(mid, 5, 0.1) < 0.5:
                lo = mid
            else:
                hi = mid
        assert cv_cdf(0.5 * (lo + hi), 5, 0.1) == pytest.approx(0.5, abs=1e-9)

    def test_frozen_value(self):
        # mpmath series oracle (50 digits)
        assert cv_cdf(0.12, 5, 0.1) == pytest.approx(0.77965356803926500, abs=1e-10)

    @pytest.mark.slow
    def test_simulation_oracle(self):
        rng = np.random.default_rng(20240101)
        reps = 10_000_000
        cv = simulate_cv(rng, reps, 5, 0.1)
        x = 0.12
        emp = (cv <= x).mean()
        se = math.sqrt(emp * (1 - emp) / reps)
        assert abs(cv_cdf(x, 5, 0.1) - emp) <= 3 * se

    def test_force_window(self):
        with pytest.raises(GammaDomainError):
            cv_cdf(0.5, 5, 0.6)
        assert 0.0 <= cv_cdf(0.5, 5, 0.6, force=True) <= 1.0

    @pytest.mark.parametrize("gamma", [math.inf, math.nan])
    def test_force_never_admits_non_finite(self, gamma):
        for law in (cv_cdf, cv2_cdf, cv2_pdf):
            with pytest.raises(GammaDomainError, match="finite"):
                law(0.5, 5, gamma, force=True)

    @pytest.mark.parametrize("gamma", [1e-300, 1e-320])
    def test_gamma_whose_square_underflows_rejected(self, gamma):
        # gamma^2 underflows to 0: n / gamma^2 divided by zero (cv2_cdf,
        # cv2_pdf) and the noncentrality went NaN (cv_cdf)
        for law in (cv_cdf, cv2_cdf, cv2_pdf):
            with pytest.raises(GammaDomainError, match="at least 1e-150"):
                law(0.5, 5, gamma)
        with pytest.raises(GammaDomainError):
            ProcessModel(gamma, 5)


class TestCv2Cdf:
    def test_cross_law_agreement(self):
        # the t- and F-based forms describe the same statistic
        for x in np.arange(0.05, 0.51, 0.05):
            assert cv2_cdf(float(x) ** 2, 5, 0.1) == pytest.approx(
                cv_cdf(float(x), 5, 0.1), abs=CROSS_LAW_ATOL
            )

    def test_limits(self):
        assert cv2_cdf(0.0, 5, 0.1) == 0.0
        assert cv2_cdf(-1.0, 5, 0.1) == 0.0
        assert cv2_cdf(1e9, 5, 0.1) == pytest.approx(1.0, abs=1e-10)

    def test_frozen_value(self):
        # mpmath mixture oracle (50 digits)
        assert cv2_cdf(0.0025, 5, 0.05) == pytest.approx(0.59372435697227030, abs=1e-10)

    def test_strictly_increasing_where_density_positive(self):
        rng = np.random.default_rng(23)
        for n, gamma in [(5, 0.05), (5, 0.2), (15, 0.1), (10, 0.3)]:
            lo = moments_for_gamma(gamma, n).mean * 0.05
            hi = moments_for_gamma(gamma, n).mean * 5.0
            xs = np.sort(rng.uniform(lo, hi, size=12))
            vals = [cv2_cdf(float(x), n, gamma) for x in xs]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.slow
    def test_simulation_oracle_small_gamma(self):
        rng = np.random.default_rng(20240102)
        reps = 10_000_000
        cv = simulate_cv(rng, reps, 15, 0.05)
        x = 0.01
        emp = (cv**2 <= x).mean()
        se = math.sqrt(max(emp * (1 - emp), 1e-12) / reps)
        assert abs(cv2_cdf(x, 15, 0.05) - emp) <= 3 * se


def _mp_cv2_pdf(x, n, gamma):
    """(n / x^2) f_F(n / x | 1, n - 1, n / gamma^2) in 30-digit mpmath: the
    Poisson mixture of beta densities at u = n / (n + (n - 1) x), summed
    from j = 0 until the weights fall below 1e-40 past the mode."""
    import mpmath as mp

    with mp.workdps(30):
        x, n = mp.mpf(x), mp.mpf(n)
        half = n / (2 * mp.mpf(gamma) ** 2)
        a0, b = mp.mpf(1) / 2, (n - 1) / 2
        u, v = n / (n + (n - 1) * x), (n - 1) * x / (n + (n - 1) * x)
        dudy = v * v / (n - 1)  # du/dy at y = n / x: (n - 1) / (y + n - 1)^2
        total, j = mp.mpf(0), 0
        while True:
            w = mp.exp(-half + j * mp.log(half) - mp.loggamma(j + 1))
            total += w * mp.exp((a0 + j - 1) * mp.log(u) + (b - 1) * mp.log(v) - mp.log(mp.beta(a0 + j, b)))
            if j > half and w < mp.mpf(10) ** -40:
                return float(total * dudy * n / x**2)
            j += 1


class TestCv2Pdf:
    def test_domain(self):
        with pytest.raises(DomainError):
            cv2_pdf(0.0, 5, 0.2)

    def test_tiny_x(self):
        # every term of the mixture is below e^-700 from x ~ 5e-155 down,
        # n / x^2 overflows below 1.7e-154, and n / x below 2.8e-308
        for x in (1e-60, 1e-100, 1e-155, 1e-160, 1e-200):
            assert cv2_pdf(x, 5, 0.1) == pytest.approx(_mp_cv2_pdf(x, 5, 0.1), rel=1e-10, abs=0.0)
        assert cv2_pdf(1e-320, 5, 0.1) == 0.0

    def test_normalization(self):
        from scipy.integrate import quad

        total, _ = quad(lambda x: cv2_pdf(x, 5, 0.2), 1e-12, 2.0, limit=400)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_finite_difference_oracle(self):
        x, h = 0.05, 1e-7
        fd = (cv2_cdf(x + h, 5, 0.2) - cv2_cdf(x - h, 5, 0.2)) / (2 * h)
        assert cv2_pdf(x, 5, 0.2) == pytest.approx(fd, rel=1e-6)

    def test_density_grid_for_plotting(self):
        # the grids emitted for density plots must be finite and nonnegative
        for gamma in (0.05, 0.1, 0.2):
            xs = np.linspace(1e-4, 6 * gamma * gamma, 50)
            vals = [cv2_pdf(float(x), 5, gamma) for x in xs]
            assert all(v >= 0.0 and math.isfinite(v) for v in vals)


class TestMoments:
    def test_hand_evaluations(self):
        # gamma^2 (1 - 3 gamma^2 / n) evaluated by hand
        assert cv2_moments(ProcessModel(0.2, 5)).mean == pytest.approx(0.039040, abs=1e-12)
        assert cv2_moments(ProcessModel(0.05, 5)).mean == pytest.approx(0.00249625, abs=1e-12)

    def test_mean_below_gamma_squared(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            gamma = rng.uniform(0.01, 0.49)
            n = int(rng.integers(2, 30))
            assert cv2_moments(ProcessModel(gamma, n)).mean < gamma * gamma

    def test_positive_std(self):
        m = cv2_moments(ProcessModel(0.05, 15))
        assert m.std > 0

    def test_invalid_moments_rejected(self):
        with pytest.raises(DomainError):
            Cv2Moments(mean=0.0, std=1.0)
        with pytest.raises(DomainError):
            Cv2Moments(mean=1.0, std=-1.0)

    # Approximation quality, measured against 1e7-replicate simulation:
    # the std is within 0.3% everywhere, but the mean (which corrects only
    # the leading bias term) drifts like gamma^2/n - about -1.2% at
    # (0.1, 5) and -4.7% at (0.2, 5).  Tolerances reflect the measurement.
    @pytest.mark.slow
    @pytest.mark.parametrize(
        "gamma,n,mean_rtol",
        [(0.05, 5, 0.01), (0.1, 5, 0.02), (0.2, 5, 0.06), (0.1, 10, 0.01), (0.05, 15, 0.01), (0.2, 15, 0.02)],
    )
    def test_approximation_vs_simulation(self, gamma, n, mean_rtol):
        rng = np.random.default_rng(20240103 + n)
        cv2 = simulate_cv(rng, 10_000_000, n, gamma) ** 2
        m = moments_for_gamma(gamma, n)
        assert m.mean == pytest.approx(cv2.mean(), rel=mean_rtol)
        assert m.std == pytest.approx(cv2.std(ddof=1), rel=0.01)
