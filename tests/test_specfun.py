"""Special-function kernel tests.

Reference values were precomputed with 50-digit mpmath: the incomplete
beta by adaptive quadrature of the beta integrand, the noncentral t and F
CDFs by Poisson-mixture series with 1e-16 term tolerance summed around
the mixture mode.
"""

import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as hs

from cvrunrules.cvdist import cv2_cdf
from cvrunrules.errors import DomainError, EvaluationError
from cvrunrules.specfun import (
    NoncentralParams,
    noncentral_f_cdf,
    noncentral_f_cdf_cdflib,
    noncentral_f_pdf,
    noncentral_t_cdf,
    reg_inc_beta,
)

KERNEL_ATOL = 1e-13       # reg_inc_beta contract
CDF_ATOL = 1e-10          # noncentral CDF contract
FD_RTOL = 1e-6            # pdf vs finite-differenced cdf


def _mp_noncentral_f_cdf(x, df1, df2, lam):
    """Noncentral F CDF as a 40-digit mpmath Poisson-beta sum.

    One mpmath betainc at the Poisson mode, then the exact recurrences
    I(a+1) = I(a) - T(a), T(a+1) = T(a) u (a+b)/(a+1) outward: every term
    below the mode, and terms above it until the weight is below 1e-45.
    """
    import mpmath as mp

    with mp.workdps(40):
        x, df1, df2, half = mp.mpf(x), mp.mpf(df1), mp.mpf(df2), mp.mpf(lam) / 2
        u = df1 * x / (df1 * x + df2)
        b = df2 / 2
        j0 = int(half)
        a0 = df1 / 2 + j0
        i0 = mp.betainc(a0, b, 0, u, regularized=True)
        w0 = mp.exp(-half + j0 * mp.log(half) - mp.loggamma(j0 + 1))
        t0 = mp.exp(a0 * mp.log(u) + b * mp.log(1 - u) + mp.loggamma(a0 + b) - mp.loggamma(a0 + 1) - mp.loggamma(b))
        total = w0 * i0
        w, i, t, j, a = w0, i0, t0, j0, a0
        while j <= half or w >= mp.mpf(10) ** -45:
            i -= t
            t *= u * (a + b) / (a + 1)
            w *= half / (j + 1)
            j += 1
            a += 1
            total += w * i
        w, i, t, j, a = w0, i0, t0, j0, a0
        while j > 0:
            t *= a / (u * (a + b - 1))  # T(a - 1)
            i += t
            w *= j / half
            j -= 1
            a -= 1
            total += w * i
        return float(total)


class TestRegIncBeta:
    def test_endpoints(self):
        assert reg_inc_beta(0.0, 2.0, 3.0) == 0.0
        assert reg_inc_beta(1.0, 2.0, 3.0) == 1.0

    def test_uniform_case(self):
        # I_x(1, 1) = x
        assert reg_inc_beta(0.5, 1.0, 1.0) == pytest.approx(0.5, abs=KERNEL_ATOL)

    def test_quadrature_oracle(self):
        # mpmath.quad of t^1.5 (1-t)^3 / B(2.5, 4) over [0, 0.3], 50 digits
        assert reg_inc_beta(0.3, 2.5, 4.0) == pytest.approx(0.35219758590676723646, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            reg_inc_beta(-0.1, 2.0, 3.0)
        with pytest.raises(DomainError):
            reg_inc_beta(1.1, 2.0, 3.0)
        with pytest.raises(DomainError):
            reg_inc_beta(0.5, 0.0, 3.0)
        with pytest.raises(DomainError):
            reg_inc_beta(0.5, 2.0, -1.0)

    def test_complement_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b = rng.uniform(0.3, 20.0, size=2)
            x = rng.uniform(0.0, 1.0)
            lhs = reg_inc_beta(x, a, b)
            rhs = 1.0 - reg_inc_beta(1.0 - x, b, a)
            assert lhs == pytest.approx(rhs, abs=1e-13)


class TestNoncentralT:
    def test_central_symmetric(self):
        assert noncentral_t_cdf(0.0, 4.0, 0.0) == pytest.approx(0.5, abs=KERNEL_ATOL)

    def test_limit_to_one(self):
        assert noncentral_t_cdf(1e12, 4.0, 3.0) == pytest.approx(1.0, abs=1e-12)

    def test_series_oracle(self):
        assert noncentral_t_cdf(1.5, 7.0, 2.1) == pytest.approx(0.27135990440121613806, abs=CDF_ATOL)

    def test_large_delta(self):
        # delta = sqrt(2000); mixture mode near j = 1000
        delta = math.sqrt(2000.0)
        assert noncentral_t_cdf(50.0, 14.0, delta) == pytest.approx(0.6694649184569313, abs=CDF_ATOL)

    def test_negative_argument_reflection(self):
        nu, delta = 6.0, 1.3
        for x in (0.5, 1.0, 2.5):
            assert noncentral_t_cdf(-x, nu, delta) == pytest.approx(
                1.0 - noncentral_t_cdf(x, nu, -delta), abs=1e-12
            )

    def test_monotone_in_x(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            nu = rng.uniform(2.0, 30.0)
            delta = rng.uniform(0.0, 60.0)
            xs = np.sort(rng.uniform(-5.0, delta + 50.0, size=12))
            vals = [noncentral_t_cdf(float(x), nu, delta) for x in xs]
            assert all(0.0 <= v <= 1.0 for v in vals)
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_bad_nu(self):
        with pytest.raises(DomainError):
            noncentral_t_cdf(1.0, 0.0, 1.0)


class TestNoncentralFCdf:
    def test_support_boundary(self):
        p = NoncentralParams(1.0, 4.0, 5.0)
        assert noncentral_f_cdf(0.0, p) == 0.0
        assert noncentral_f_cdf(-1.0, p) == 0.0

    def test_central_reduction(self):
        # lambda = 0 reduces to the central F: I with a = 1/2, b = 2
        p = NoncentralParams(1.0, 4.0, 0.0)
        x = 3.0
        u = x / (x + 4.0)
        assert noncentral_f_cdf(x, p) == pytest.approx(reg_inc_beta(u, 0.5, 2.0), abs=KERNEL_ATOL)

    def test_series_oracle_large_lambda_tail(self):
        # deep left tail at lambda = 500: underflow handling, abs accuracy
        p = NoncentralParams(1.0, 4.0, 500.0)
        v = noncentral_f_cdf(2.0, p)
        assert v == pytest.approx(1.3616113836265540e-71, abs=1e-13)
        assert v >= 0.0

    def test_series_oracle_large_lambda_body(self):
        p = NoncentralParams(1.0, 4.0, 500.0)
        assert noncentral_f_cdf(1002.0, p) == pytest.approx(0.73575889392280372, abs=CDF_ATOL)

    def test_series_oracle_very_large_lambda(self):
        p = NoncentralParams(1.0, 14.0, 6000.0)
        assert noncentral_f_cdf(13590.42, p) == pytest.approx(0.96153258122633698, abs=CDF_ATOL)

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            df2 = rng.uniform(2.0, 30.0)
            lam = rng.uniform(0.0, 1e4)
            p = NoncentralParams(1.0, df2, lam)
            scale = max(lam, 10.0)
            xs = np.sort(rng.uniform(0.0, 4.0 * scale, size=10))
            vals = [noncentral_f_cdf(float(x), p) for x in xs]
            assert all(0.0 <= v <= 1.0 for v in vals)
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    # At lambda = 24000 the mode weight is seeded from lgamma(12001); its
    # few-ulp error is ~1e-11 in the log, so the mass identity cannot hold
    # tighter than that in double precision (the CDF stays within its
    # 1e-10 absolute contract because the factor is common to all terms).
    @pytest.mark.parametrize("lam,tol", [(0.5, 1e-12), (5.0, 1e-12), (500.0, 1e-12), (24000.0, 2e-11)])
    def test_poisson_weights_normalized(self, lam, tol):
        # the mixture weights, accumulated by the same mode-centered
        # recurrence the evaluators use, must carry total mass 1
        half = lam / 2.0
        j0 = int(half)
        w0 = math.exp(-half + j0 * math.log(half) - math.lgamma(j0 + 1))
        total, w, j = w0, w0, j0
        while True:
            w *= half / (j + 1)
            j += 1
            total += w
            if w < 1e-18 * total:
                break
        w, j = w0, j0
        while j > 0:
            w *= j / half
            j -= 1
            total += w
            if w < 1e-18 * total:
                break
        assert total == pytest.approx(1.0, abs=tol)

    # (x, df2, lambda): body and tails up to lambda = 24000.  The fourth is
    # the cv2 law at n = 50, gamma = 0.2, far in its upper tail.
    MPMATH_POINTS = [
        (1.0, 4.0, 5.0),
        (0.3, 1.0, 0.2),
        (1e-3, 4.0, 3.0),
        (400.0, 49.0, 1250.0),
        (40.0, 9.0, 80.0),
        (700.0, 14.0, 900.0),
        (1002.0, 4.0, 500.0),
        (1e9, 4.0, 500.0),
        (13590.42, 14.0, 6000.0),
        (24000.0, 49.0, 24000.0),
        (23000.0, 199.0, 24000.0),
        (26000.0, 199.0, 24000.0),
    ]

    @pytest.mark.parametrize("x,df2,lam", MPMATH_POINTS)
    def test_mpmath_poisson_beta_sum(self, x, df2, lam):
        reference = _mp_noncentral_f_cdf(x, 1.0, df2, lam)
        assert noncentral_f_cdf(x, NoncentralParams(1.0, df2, lam)) == pytest.approx(reference, abs=1e-12)

    def test_far_tail_relative_accuracy(self):
        # true value 5.76940261492e-11; a kernel that stops each direction
        # at an absolute 1e-12 term bound is off by 2e-3 relative here
        value = noncentral_f_cdf(400.0, NoncentralParams(1.0, 49.0, 1250.0))
        assert value == pytest.approx(_mp_noncentral_f_cdf(400.0, 1.0, 49.0, 1250.0), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("lam", [5e5, 2e6])
    @pytest.mark.parametrize("df2", [49.0, 199.0])
    def test_scipy_large_lambda(self, lam, df2):
        import scipy.stats as st

        p = NoncentralParams(1.0, df2, lam)
        for x in lam * np.array([0.9, 0.95, 0.99, 1.0, 1.01, 1.05, 1.1]):
            assert noncentral_f_cdf(float(x), p) == pytest.approx(st.ncf.cdf(x, 1.0, df2, lam), abs=1e-11)

    def test_huge_lambda_fails_fast(self):
        # the window length (~1.1e8 terms at lambda = 1e14) is known before
        # any work, so the cap raises without allocating or looping
        import time
        import tracemalloc

        p = NoncentralParams(1.0, 4.0, 1e14)
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            with pytest.raises(EvaluationError):
                noncentral_f_cdf(1e14, p)
            elapsed = time.perf_counter() - t0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 0.1
        assert peak < 1_000_000

    def test_no_nan_near_zero(self):
        # x -> 0 makes the mode's beta decrement underflow while the ratios
        # toward j = 0 are huge; the log-space sums must not form 0 * inf
        p = NoncentralParams(1.0, 4.0, 500.0)
        for x in (5e-9, 1e-100, 1e-300):
            assert noncentral_f_cdf(x, p) == pytest.approx(0.0, abs=1e-100)
        assert cv2_cdf(1e9, 5, 0.1) == 1.0

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        df2=hs.floats(1.0, 400.0),
        lam=hs.one_of(hs.floats(0.0, 50.0), hs.floats(50.0, 2e6)),
        scale=hs.floats(0.0, 3.0),
        step=hs.floats(0.0, 0.5),
    )
    def test_property_bounded_and_monotone(self, df2, lam, scale, step):
        p = NoncentralParams(1.0, df2, lam)
        x1 = scale * (lam + 1.0)
        x2 = x1 * (1.0 + step) + step
        lo, hi = noncentral_f_cdf(x1, p), noncentral_f_cdf(x2, p)
        assert 0.0 <= lo <= 1.0 and 0.0 <= hi <= 1.0
        assert hi >= lo - 1e-12

    def test_invalid_params(self):
        with pytest.raises(DomainError):
            NoncentralParams(0.0, 4.0, 1.0)
        with pytest.raises(DomainError):
            NoncentralParams(1.0, -2.0, 1.0)
        with pytest.raises(DomainError):
            NoncentralParams(1.0, 4.0, -0.5)


class TestNoncentralFPdf:
    def test_domain(self):
        with pytest.raises(DomainError):
            noncentral_f_pdf(0.0, NoncentralParams(1.0, 4.0, 5.0))

    def test_central_reduction_closed_form(self):
        # central F(1, 4) density at x = 1
        d1, d2, x = 1.0, 4.0, 1.0
        expected = (
            math.exp(math.lgamma(2.5) - math.lgamma(0.5) - math.lgamma(2.0))
            * (d1 / d2) ** (d1 / 2)
            * x ** (d1 / 2 - 1)
            * (1 + d1 * x / d2) ** (-(d1 + d2) / 2)
        )
        assert noncentral_f_pdf(x, NoncentralParams(d1, d2, 0.0)) == pytest.approx(expected, rel=1e-12)

    def test_normalization(self):
        from scipy.integrate import quad

        p = NoncentralParams(1.0, 4.0, 5.0)
        total, err = quad(lambda x: noncentral_f_pdf(x, p), 0.0, np.inf, limit=400)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_finite_difference_of_cdf(self):
        p = NoncentralParams(1.0, 4.0, 5.0)
        x, h = 1.7, 1e-5
        fd = (noncentral_f_cdf(x + h, p) - noncentral_f_cdf(x - h, p)) / (2 * h)
        assert noncentral_f_pdf(x, p) == pytest.approx(fd, rel=FD_RTOL)

    def test_fd_consistency_random_draws(self):
        # cdf/pdf consistency across the operating parameter range
        rng = np.random.default_rng(17)
        for _ in range(100):
            df2 = rng.uniform(2.0, 30.0)
            lam = rng.uniform(0.0, 1e4)
            p = NoncentralParams(1.0, df2, lam)
            center = max(lam, 5.0)
            x = rng.uniform(0.3 * center, 2.0 * center)
            h = 1e-5 * max(x, 1.0)
            fd = (noncentral_f_cdf(x + h, p) - noncentral_f_cdf(x - h, p)) / (2 * h)
            pdf = noncentral_f_pdf(x, p)
            if pdf > 1e-12:
                assert pdf == pytest.approx(fd, rel=1e-5)


class TestCdflibProfile:
    """The compat evaluator must mimic legacy truncation, not accuracy."""

    def test_tracks_exact_loosely(self):
        p = NoncentralParams(1.0, 4.0, 125.0)
        exact = noncentral_f_cdf(30.0, p)
        legacy = noncentral_f_cdf_cdflib(30.0, p)
        assert legacy == pytest.approx(exact, abs=5e-3)
        assert legacy != pytest.approx(exact, abs=1e-12)

    def test_truncation_underestimates_right_tail(self):
        # stopping at 1e-4 of the running sum drops upper-mixture mass
        p = NoncentralParams(1.0, 14.0, 6000.0)
        assert noncentral_f_cdf_cdflib(13590.42, p) < noncentral_f_cdf(13590.42, p)

    def test_support_and_central_fallback(self):
        p = NoncentralParams(1.0, 9.0, 0.0)
        assert noncentral_f_cdf_cdflib(0.0, p) == 0.0
        assert noncentral_f_cdf_cdflib(3.0, p) == pytest.approx(
            noncentral_f_cdf(3.0, p), abs=1e-13
        )

    def test_scipy_cross_check_exact_kernel(self):
        # independent implementation comparison on moderate parameters
        import scipy.stats as st

        for (x, d2, lam) in [(1.0, 4.0, 5.0), (40.0, 9.0, 80.0), (700.0, 14.0, 900.0)]:
            p = NoncentralParams(1.0, d2, lam)
            assert noncentral_f_cdf(x, p) == pytest.approx(st.ncf.cdf(x, 1, d2, lam), abs=1e-9)
