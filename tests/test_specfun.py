"""Special-function kernel tests.

Reference values were precomputed with 50-digit mpmath: the incomplete
beta by adaptive quadrature of the beta integrand, the noncentral F CDF
by a Poisson-mixture series with 1e-16 term tolerance summed around the
mixture mode.
"""

import math

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as hs

from cvrunrules import specfun
from cvrunrules.cvdist import cv2_cdf
from cvrunrules.errors import DomainError, EvaluationError
from cvrunrules.specfun import (
    NoncentralParams,
    _f_cdf_levels,
    noncentral_f_cdf,
    noncentral_f_cdf_cdflib,
    noncentral_f_pdf,
    reg_inc_beta,
)

KERNEL_ATOL = 1e-13       # reg_inc_beta contract
CDF_ATOL = 1e-10          # noncentral CDF contract
FD_RTOL = 1e-6            # pdf vs finite-differenced cdf


def assert_fails_fast(call):
    """``call`` hits the term cap before allocating or looping."""
    import time
    import tracemalloc

    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        with pytest.raises(EvaluationError, match="Poisson window"):
            call()
        elapsed = time.perf_counter() - t0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1
    assert peak < 1_000_000


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


def cumfnc_loop(x, p):
    """The scalar CDFLIB ``cumfnc`` loop that ``noncentral_f_cdf_cdflib``
    replaced, kept as its reference: the Poisson mode index is floored to 1
    and each summation direction stops once a term falls below 1e-4 of the
    running sum."""
    from math import exp, lgamma, log

    if x <= 0.0:
        return 0.0
    lam = p.noncentrality
    if lam < 1e-10:
        return noncentral_f_cdf(x, NoncentralParams(p.df1, p.df2, 0.0))

    eps = 1e-4
    xnonc = lam / 2.0
    icent = int(xnonc)
    if icent == 0:
        icent = 1
    centwt = exp(-xnonc + icent * log(xnonc) - lgamma(icent + 1))
    prod = p.df1 * x
    dsum = p.df2 + prod
    if prod / dsum == 0.0:
        # u = 0, outside the 0 < u < 1 where the kernel is this loop bit for
        # bit: the kernel returns 0, and the loop would take log(0)
        return 0.0
    yy = p.df2 / dsum
    if yy > 0.5:
        xx = prod / dsum
        yy = 1.0 - xx
    else:
        xx = 1.0 - yy
    adn = 0.5 * p.df1 + icent
    b = 0.5 * p.df2
    betdn = specfun._cdflib_inc_beta(xx, adn, b)
    aup = adn
    betup = betdn
    total = centwt * betdn

    def qsmall(term, acc):
        return acc < 1e-20 or term < eps * acc

    xmult = centwt
    i = icent
    dnterm = exp(lgamma(adn + b) - lgamma(adn + 1.0) - lgamma(b) + adn * log(xx) + b * log(yy))
    while not qsmall(xmult * betdn, total) and i > 0:
        xmult *= i / xnonc
        i -= 1
        adn -= 1.0
        dnterm = (adn + 1.0) / ((adn + b) * xx) * dnterm
        betdn += dnterm
        total += xmult * betdn

    i = icent + 1
    xmult = centwt
    upterm = exp(lgamma(aup - 1.0 + b) - lgamma(aup) - lgamma(b) + (aup - 1.0) * log(xx) + b * log(yy))
    first = True
    while first or not qsmall(xmult * betup, total):
        first = False
        xmult *= xnonc / i
        i += 1
        aup += 1.0
        upterm = (aup + b - 2.0) * xx / (aup - 1.0) * upterm
        betup -= upterm
        total += xmult * betup

    return min(max(total, 0.0), 1.0)


def _mp_noncentral_f_pdf(x, df1, df2, lam):
    """Noncentral F density as a 30-digit mpmath Poisson mixture of beta
    densities, d(a + 1) = d(a) u (a + b) / a, summed outward from the
    mode until the terms fall below 1e-30 of the sum."""
    import mpmath as mp

    with mp.workdps(30):
        x, df1, df2, half = mp.mpf(x), mp.mpf(df1), mp.mpf(df2), mp.mpf(lam) / 2
        u = df1 * x / (df1 * x + df2)
        b = df2 / 2
        j0 = int(half)
        a0 = df1 / 2 + j0
        w0 = mp.exp(-half + j0 * mp.log(half) - mp.loggamma(j0 + 1))
        d0 = mp.exp((a0 - 1) * mp.log(u) + (b - 1) * mp.log(1 - u) - mp.log(mp.beta(a0, b)))
        total = w0 * d0
        tiny = mp.mpf(10) ** -30
        w, d, j, a = w0, d0, j0, a0
        while j <= half or w * d >= tiny * total:
            d *= u * (a + b) / a
            w *= half / (j + 1)
            j += 1
            a += 1
            total += w * d
        w, d, j, a = w0, d0, j0, a0
        while j > 0 and (j >= half or w * d >= tiny * total):
            d *= (a - 1) / (u * (a + b - 1))
            w *= j / half
            j -= 1
            a -= 1
            total += w * d
        return float(total * df1 * df2 / (df1 * x + df2) ** 2)


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

    @pytest.mark.parametrize(
        "x,a,b,expected",
        [
            (1e-17, 1.5, 1e17, 0.42759329552912019881),
            (1e-320, 1e-320, 1e300, 1.0),
            (3e-8, 1.5, 1e8, 0.88838978001376559698),
        ],
    )
    def test_large_shapes(self, x, a, b, expected):
        # 40-digit mpmath betainc; lgamma(a + b) - lgamma(a) - lgamma(b)
        # cancelled to 1.2e-26 and to inf at the first two points.  At the
        # third, the switch at (a + 1) / (a + b + 2) = 2.5e-8 sent x to the
        # fraction in 1 - x, which amplified the rounding of 1 - x to 6.7e-10.
        assert reg_inc_beta(x, a, b) == pytest.approx(expected, abs=KERNEL_ATOL)

    @pytest.mark.parametrize(
        "a,b",
        [(0.5, 2.0), (2.5, 4.0), (20.0, 3.0), (1.5, 1e3), (50.0, 50.0), (200.0, 10.0), (0.5, 1e4), (1e4, 0.5),
         (300.0, 700.0)],
    )
    def test_across_the_switch_points(self, a, b):
        # 40-digit mpmath betainc just before and after each switch point
        # between the two continued fractions: the legacy (a + 1) / (a + b +
        # 2), and the exact kernel's, one beta standard deviation past it on
        # the side of u and on the side of v = 1 - u
        import mpmath

        switches = (
            (a + 1.0) / (a + b + 2.0),
            (a + 1.0 + math.sqrt(a + 1.0)) / (a + b + 2.0),
            1.0 - (b + 1.0 + math.sqrt(b + 1.0)) / (a + b + 2.0),
        )
        for x in [x0 * f for x0 in switches for f in (0.9, 0.999, 1.001, 1.1) if 0.0 < x0 * f < 1.0]:
            with mpmath.workdps(40):
                expected = float(mpmath.betainc(a, b, 0, x, regularized=True))
            assert reg_inc_beta(x, a, b) == pytest.approx(expected, abs=KERNEL_ATOL), x

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

    def test_f_identity_at_large_delta(self):
        # F_t(x) - F_F(x^2; 1, n - 1, delta^2) = P(T < -x), which lies in
        # [0, Phi(-delta)], with scipy's noncentral t as F_t; the chart
        # grid's delta reaches 2828 (n = 200, gamma = 0.005), where lgamma
        # differences lose digits
        from scipy.stats import nct

        for n in (50, 100, 200):
            for gamma in (0.005, 0.01, 0.02, 0.05):
                delta = math.sqrt(n) / gamma
                p = NoncentralParams(1.0, n - 1.0, n / gamma**2)
                for r in (0.8, 0.9, 1.0, 1.1, 1.25):
                    x = math.sqrt(n) / (gamma * r)
                    diff = nct.cdf(x, n - 1, delta) - noncentral_f_cdf(x * x, p)
                    assert -1e-12 <= diff <= 0.5 * math.erfc(delta / math.sqrt(2.0)) + 1e-12, (n, gamma, r, diff)

    def test_huge_lambda_fails_fast(self):
        # the window length (~1.1e8 terms at lambda = 1e14) is known before
        # any work, so the cap raises without allocating or looping
        assert_fails_fast(lambda: noncentral_f_cdf(1e14, NoncentralParams(1.0, 4.0, 1e14)))

    def test_tail_where_u_rounds_to_one(self):
        # from df1 x / df2 ~ 1e16 on, u = df1 x / (df1 x + df2) rounds to 1
        # while v = df2 / (df1 x + df2) still carries the tail; the sum runs
        # in v (scipy.stats.ncf.cdf gives 0.99999734038485 here)
        assert noncentral_f_cdf(9e16, NoncentralParams(1.0, 1.0, 1e6)) == pytest.approx(
            0.99999734038485, abs=CDF_ATOL
        )

    def test_central_tail_where_u_rounds_to_one(self):
        import scipy.stats as st

        # scipy's own f.cdf rounds u too (it returns 1.0 at 9e16), so the
        # reference is its survival function, which here equals the closed
        # form 1 - (2 / pi) atan(1 / sqrt(x)) of F(1, 1)
        for x in (1e16, 9e16, 1e18):
            got = noncentral_f_cdf(x, NoncentralParams(1.0, 1.0, 0.0))
            assert 1.0 - got == pytest.approx(st.f.sf(x, 1.0, 1.0), rel=1e-6)
            assert 1.0 - got == pytest.approx(2.0 / math.pi * math.atan(1.0 / math.sqrt(x)), rel=1e-6)
        # the cdflib profile keeps the legacy loop's 1 at u = 1
        assert noncentral_f_cdf_cdflib(9e16, NoncentralParams(1.0, 1.0, 1e6)) == 1.0

    def test_window_cap_where_u_rounds_to_one(self):
        with pytest.raises(EvaluationError, match="Poisson window"):
            noncentral_f_cdf(9e16, NoncentralParams(1.0, 1.0, 1e11))

    def test_window_cap_where_mu_plus_t_rounds_to_mu(self):
        # past mu = lambda/2 ~ 1e32 both window ends mu +- t round to mu; the
        # cap counts the ~2t terms the tail bound asks for, not the two left
        # (cv2_cdf returned 0.594 here from a two-term window)
        from cvrunrules.cvdist import cv2_cdf

        with pytest.raises(EvaluationError, match="Poisson window"):
            cv2_cdf(1e-36, 5, 1e-18)
        for lam in (1e40, 1e70, 1e300):
            with pytest.raises(EvaluationError, match="Poisson window"):
                noncentral_f_cdf(1.0, NoncentralParams(1.0, 4.0, lam))

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

    # the mean of F(1, df2, lambda) and +-10% around it
    @pytest.mark.parametrize("lam", [500.0, 24000.0, 5e5])
    @pytest.mark.parametrize("df2", [4.0, 49.0, 199.0])
    @pytest.mark.parametrize("factor", [0.9, 1.0, 1.1])
    def test_mpmath_mixture(self, lam, df2, factor):
        x = factor * df2 * (1.0 + lam) / (df2 - 2.0)
        reference = _mp_noncentral_f_pdf(x, 1.0, df2, lam)
        assert noncentral_f_pdf(x, NoncentralParams(1.0, df2, lam)) == pytest.approx(reference, rel=1e-12, abs=0.0)

    # u = df1 x / (df1 x + df2) rounds to 1 at each of these; v carries the
    # tail (mpmath: 1.47756400148e-23, 2.32e-49 and 1.01e-38)
    @pytest.mark.parametrize("x,df2,lam", [(9e16, 1.0, 1e6), (1e17, 4.0, 5.0), (1e20, 2.0, 100.0)])
    def test_tail_where_u_rounds_to_one(self, x, df2, lam):
        reference = _mp_noncentral_f_pdf(x, 1.0, df2, lam)
        assert noncentral_f_pdf(x, NoncentralParams(1.0, df2, lam)) == pytest.approx(reference, rel=1e-12, abs=0.0)

    # u = x / (x + 4) underflows to 0 at the two smallest subnormal x, where
    # the df1 = 1 density still grows like x^-1/2 (mpmath: 9.79e159, 1.38e160)
    @pytest.mark.parametrize("x", [1e-323, 5e-324])
    def test_where_u_underflows(self, x):
        reference = _mp_noncentral_f_pdf(x, 1.0, 4.0, 5.0)
        assert noncentral_f_pdf(x, NoncentralParams(1.0, 4.0, 5.0)) == pytest.approx(reference, rel=1e-12, abs=0.0)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        df2=hs.floats(1.0, 200.0),
        lam=hs.one_of(hs.floats(0.0, 50.0), hs.floats(50.0, 2e6)),
        scale=hs.floats(0.2, 3.0),
    )
    def test_property_central_difference_of_cdf(self, df2, lam, scale):
        # the CDF's 1e-13 absolute accuracy bounds the quotient's error by 1e-13 / h
        p = NoncentralParams(1.0, df2, lam)
        x = scale * (lam + 1.0)
        h = 1e-5 * x
        fd = (noncentral_f_cdf(x + h, p) - noncentral_f_cdf(x - h, p)) / (2 * h)
        assert noncentral_f_pdf(x, p) == pytest.approx(fd, rel=FD_RTOL, abs=1e-13 / h)


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


# Noncentralities for the batched kernel: lambda = 0, mu < 1 (the cdflib
# centre floored to 1), below the cdflib central fallback, and up to 2e6.
_LAMBDAS = hs.one_of(
    hs.just(0.0),
    hs.floats(0.0, 1e-10),
    hs.floats(0.0, 2.0),
    hs.floats(2.0, 500.0),
    hs.floats(500.0, 2e6),
)


class TestBatchedKernel:
    """``_f_cdf_levels``: one beta column per group of nodes, both profiles."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        df2=hs.floats(1.0, 400.0),
        lams=hs.lists(_LAMBDAS, min_size=1, max_size=12),
        spread=hs.floats(0.0, 1.0),
        scale=hs.one_of(hs.floats(0.0, 3.0), hs.floats(1e-12, 1e-6), hs.just(1e300)),
        cdflib=hs.booleans(),
    )
    def test_property_batch_equals_one_node(self, df2, lams, spread, scale, cdflib):
        # Nodes close together share a group (as EARL's do); duplicates and
        # x -> 0 and u -> 1 are drawn too.
        top = max(lams)
        lams = lams + [top * (1.0 - spread * i / 16.0) for i in range(8)] + lams[:2]
        x = scale * (top + 1.0)
        batch = _f_cdf_levels(x, 1.0, df2, lams, cdflib=cdflib)
        one = [_f_cdf_levels(x, 1.0, df2, [lam], cdflib=cdflib)[0] for lam in lams]
        assert np.max(np.abs(np.subtract(batch, one))) <= 1e-13
        public = noncentral_f_cdf_cdflib if cdflib else noncentral_f_cdf
        assert one[0] == public(x, NoncentralParams(1.0, df2, lams[0]))

    @pytest.mark.parametrize("cdflib", [False, True])
    def test_earl_nodes_match_one_node(self, cdflib):
        # the 64 nodes of a large-lambda EARL (n = 200, gamma from 0.01 to 0.02)
        x, w = np.polynomial.legendre.leggauss(64)
        lams = [200.0 / (0.01 * (1.5 + 0.5 * xi)) ** 2 for xi in x]
        for f in (1.5e6, 8e5, 6e5):
            batch = _f_cdf_levels(f, 1.0, 199.0, lams, cdflib=cdflib)
            one = [_f_cdf_levels(f, 1.0, 199.0, [lam], cdflib=cdflib)[0] for lam in lams]
            assert np.max(np.abs(np.subtract(batch, one))) <= 1e-13

    @pytest.mark.parametrize(
        "x,lams",
        [
            (2463.1, [1490.6, 1650.0, 1819.3, 1821.0, 1840.4, 2177.0, 2321.0, 2649.0, 2662.6, 2751.3]),
            (296.3, [227.0, 227.5, 247.0, 249.3, 250.4, 257.2, 262.4, 283.8, 330.7, 336.7, 355.3]),
            (6996.9, [4481.9, 4854.9, 6148.8, 6388.9, 7633.6, 7769.6, 8550.2]),
        ],
    )
    def test_each_node_keeps_its_own_anchor(self, x, lams):
        # one shared anchor per group put these 2.2e-13 to 2.4e-13 away from
        # one call per node (df2 = 199): the anchors' own errors differ
        batch = _f_cdf_levels(x, 1.0, 199.0, lams)
        one = [_f_cdf_levels(x, 1.0, 199.0, [lam])[0] for lam in lams]
        assert np.max(np.abs(np.subtract(batch, one))) <= 5e-14

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        df2=hs.floats(1.0, 400.0),
        lam=_LAMBDAS,
        scale=hs.one_of(hs.floats(0.0, 3.0), hs.floats(1e-9, 1e-3)),
    )
    # x = 1e-320 exactly: a subnormal u, where the down ratios overflow
    # and the loop, its first term below 1e-20, never forms them
    @example(df2=0.5, lam=10.0, scale=1e-320 / 11.0)
    @example(df2=3.0, lam=10.0, scale=1e-320 / 11.0)
    # x = 1e-323: u = x / (df2 + x) rounds to 0
    @example(df2=4.0, lam=1.0, scale=1e-323 / 2.0)
    def test_property_cdflib_is_the_legacy_loop(self, df2, lam, scale):
        # every recurrence of the loop is one sequential accumulate over the
        # same operands, so the totals agree bit for bit, not just to 1e-13
        x = scale * (lam + 1.0)
        p = NoncentralParams(1.0, df2, lam)
        assert noncentral_f_cdf_cdflib(x, p) == cumfnc_loop(x, p)

    def test_cdflib_widens_a_short_window(self, monkeypatch):
        # with windows far narrower than the legacy stops, both directions
        # must be widened until each stop falls inside
        monkeypatch.setattr(specfun, "_F_TAIL", 0.5)
        for lam, df2, x in ((500.0, 4.0, 30.0), (500.0, 4.0, 500.0), (6000.0, 14.0, 13590.42), (250.0, 49.0, 1.0)):
            p = NoncentralParams(1.0, df2, lam)
            assert noncentral_f_cdf_cdflib(x, p) == cumfnc_loop(x, p)

    def test_earl_kernel_peak_memory(self):
        # 64 nodes at n = 200, gamma0 = 0.01: lambda from 5e5 to 2e6.  The
        # group budget keeps the work arrays within what one call at the
        # largest lambda holds (0.39 MB), which a 2^16-term budget did not.
        import tracemalloc

        from cvrunrules.cvdist import ProcessModel
        from cvrunrules.design import INCREASING_SHIFTS, earl, solve_design
        from cvrunrules.runrules import Direction, RunRule

        pm = ProcessModel(0.01, 200)
        design = solve_design(RunRule(2, 3, Direction.UPPER), pm)
        earl(design, pm, None, INCREASING_SHIFTS)  # fills the node and chain caches
        tracemalloc.start()
        try:
            earl(design, pm, None, INCREASING_SHIFTS)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            noncentral_f_cdf(2e6, NoncentralParams(1.0, 199.0, 2e6))
            _, one_call = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000
        assert peak < 1.25 * one_call

    @pytest.mark.parametrize("cdflib", [False, True])
    def test_one_huge_lambda_fails_before_allocating(self, cdflib):
        import tracemalloc

        lams = [500.0] * 63 + [1e14]
        tracemalloc.start()
        try:
            with pytest.raises(EvaluationError):
                _f_cdf_levels(500.0, 1.0, 4.0, lams, cdflib=cdflib)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("lam", [-1.0, math.nan, math.inf])
    def test_bad_lambda_rejected(self, lam):
        for cdflib in (False, True):
            with pytest.raises(DomainError):
                _f_cdf_levels(1.0, 1.0, 4.0, [5.0, lam], cdflib=cdflib)

    def test_nan_x_is_a_domain_error_in_both_profiles(self):
        p = NoncentralParams(1.0, 4.0, 5.0)
        for fn in (noncentral_f_cdf, noncentral_f_cdf_cdflib):
            with pytest.raises(DomainError):
                fn(math.nan, p)
            assert fn(math.inf, p) == 1.0
        for profile in ("exact", "cdflib"):
            with pytest.raises(DomainError):
                cv2_cdf(math.nan, 5, 0.1, profile=profile)
            assert cv2_cdf(math.inf, 5, 0.1, profile=profile) == 1.0

    def test_empty_batch(self):
        assert _f_cdf_levels(1.0, 1.0, 4.0, []) == []


_MEMO_LAWS = [
    (1.0, 4.0, 30.0),
    (1.0, 14.0, 30.0),  # the same mu, another df2
    (2.0, 14.0, 30.0),  # and another df1
    (1.0, 14.0, 1500.0),
    (1.0, 199.0, 2e5),
    (1.0, 4.0, 0.0),
    (1.0, 49.0, 0.4),
    (1.0, 199.0, 4e6),  # a window longer than the memo keeps
]


def _memo_call(kind, x, df1, df2, lam):
    p = NoncentralParams(df1, df2, lam)
    if kind == "pass":
        return specfun._f_cdf_pdf(x, p)
    if kind == "pdf":
        return specfun._f_pdf_over(x, p, 1.0)
    if kind == "cdf":
        return noncentral_f_cdf(x, p)
    if kind == "cdflib":
        return noncentral_f_cdf_cdflib(x, p)
    return _f_cdf_levels(x, df1, df2, [lam], cdflib=kind == "levels-cdflib")


def _memo_arrays():
    # every array either memo holds now
    arrays = []
    if specfun._MIXTURE_LAWS._last is not None:
        law = specfun._MIXTURE_LAWS._last[1]
        arrays += [law.prefix, law.weights]
    if specfun._CUMFNC_LAWS._last is not None:
        law = specfun._CUMFNC_LAWS._last[1]
        _, (down, _), (up, _) = law.walks
        arrays += [*law.factors, down, up]
    return arrays


class TestLastLawMemo:
    """The one-law memos behind single-law kernel calls change no value."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        calls=hs.lists(
            hs.tuples(
                hs.sampled_from(["pass", "pdf", "cdf", "cdflib", "levels", "levels-cdflib"]),
                hs.integers(0, len(_MEMO_LAWS) - 1),
                hs.one_of(hs.floats(0.0, 4.0), hs.floats(1e-9, 1e-3), hs.just(1e-323)),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_property_memo_is_invisible(self, calls):
        for kind, index, scale in calls:
            df1, df2, lam = _MEMO_LAWS[index]
            x = scale * (df1 + lam) / df1
            if kind == "pdf" and not x > 0.0:
                continue
            # the first call meets what the last step left held, the second this law
            first = _memo_call(kind, x, df1, df2, lam)
            warm = _memo_call(kind, x, df1, df2, lam)
            assert not any(a.flags.writeable for a in _memo_arrays())
            specfun._MIXTURE_LAWS.clear()
            specfun._CUMFNC_LAWS.clear()
            assert _memo_call(kind, x, df1, df2, lam) == warm == first
            for memo in (specfun._MIXTURE_LAWS, specfun._CUMFNC_LAWS):
                # one law at most, only the one just called, and no long window
                assert memo._last is None or memo._last[0] == (0.5 * df1, 0.5 * df2, 0.5 * lam)
                assert memo._last is None or lam < 4e6

    def test_a_batch_leaves_the_memo_alone(self):
        for cdflib, memo in ((False, specfun._MIXTURE_LAWS), (True, specfun._CUMFNC_LAWS)):
            _f_cdf_levels(3.0, 1.0, 14.0, [1500.0], cdflib=cdflib)
            held, misses = memo._last, memo.misses
            assert held is not None
            _f_cdf_levels(3.0, 1.0, 14.0, [1000.0, 1500.0, 2000.0], cdflib=cdflib)
            assert memo._last is held and memo.misses == misses

    @pytest.mark.parametrize("cdflib", [False, True])
    def test_a_long_window_is_not_kept(self, cdflib):
        # past a group's terms a one-level call takes the batch path, and a
        # pass builds a law for itself alone
        memo = specfun._CUMFNC_LAWS if cdflib else specfun._MIXTURE_LAWS
        memo.clear()
        misses = memo.misses
        _f_cdf_levels(1.0, 1.0, 199.0, [4e6], cdflib=cdflib)
        assert memo._last is None and memo.misses == misses
        if not cdflib:
            specfun._f_cdf_pdf(4e6, NoncentralParams(1.0, 199.0, 4e6))
            assert memo._last is None and memo.misses == misses + 1
