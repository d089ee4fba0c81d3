"""Scalar special functions: regularized incomplete beta, noncentral t CDF,
noncentral F CDF/PDF.

All evaluators are pure deterministic scalar functions targeting 1e-10
absolute accuracy or better.  The noncentral mixtures are anchored at the
Poisson mode so that large noncentrality (lambda up to ~1e6 and beyond)
never underflows: starting the recurrences at j = 0 would begin from
weights that are exactly zero in double precision once lambda/2 > 745.

The t CDF walks outward from the mode term by term.  The F CDF, the
kernel of every chart evaluation, and the F density each sum a term window
fixed in advance in one numpy pass: j0 +- (8.1 sqrt(lambda/2) + 22), the
width at which a Bernstein tail bound leaves at most 1e-14 of Poisson
mass outside (Benton & Krishnamoorthy 2003, *CSDA* 43:249, on
mode-centred evaluation).  The CDF's beta values are anchored by one
continued fraction at the mode, the density's beta densities by their
closed form there; the rest come from cumulative sums of log ratios.  A
window longer than ``_TERM_CAP`` raises EvaluationError before anything
is allocated.  Against a 40-digit mpmath sum the F CDF is within 1e-12
absolute for lambda up to 24 000.

``noncentral_f_cdf_cdflib`` additionally reproduces the much looser
truncation rule of the classic CDFLIB/DCDFLIB ``cumfnc`` routine (both
summation directions stop once a term drops below 1e-4 of the running
sum).  Several published control-chart tables were generated with that
family of libraries; the compat evaluator lets chart designs match those
tables digit for digit.  It is never the default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import exp, lgamma, log, log1p, sqrt

import numpy as np

from .errors import DomainError, EvaluationError

__all__ = [
    "NoncentralParams",
    "reg_inc_beta",
    "noncentral_t_cdf",
    "noncentral_f_cdf",
    "noncentral_f_pdf",
    "noncentral_f_cdf_cdflib",
]

# Series controls.  The cap is generous: the F CDF window at lambda = 1e6
# holds ~11 500 terms, and a window at the cap (lambda ~ 7.6e9) takes about
# 0.2 s and 56 MB of work arrays.
_TERM_CAP = 10**6
# Poisson mass the noncentral F CDF window may drop, and the log-term floor
# of its beta decrements (exp(-700) ~ 1e-304, still a normal double).
_F_TAIL = 1e-14
_LOG_TINY = -700.0
_T_TOL = 1e-14
_CF_MAX_ITER = 400
_FPMIN = 1e-300


@dataclass(frozen=True)
class NoncentralParams:
    """Degrees of freedom and noncentrality of a noncentral F (or t) law.

    df1: numerator degrees of freedom (> 0)
    df2: denominator degrees of freedom (> 0)
    noncentrality: lambda >= 0 for F; the t CDF takes a signed delta
        directly and does not use this container.
    """

    df1: float
    df2: float
    noncentrality: float

    def __post_init__(self) -> None:
        if not (self.df1 > 0 and self.df2 > 0):
            raise DomainError(f"degrees of freedom must be positive, got ({self.df1}, {self.df2})")
        if not self.noncentrality >= 0:
            raise DomainError(f"noncentrality must be >= 0, got {self.noncentrality}")
        for v in (self.df1, self.df2, self.noncentrality):
            if not math.isfinite(v):
                raise DomainError("parameters must be finite")


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    eps = 1e-16
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise EvaluationError(f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x})")


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b).

    I_0 = 0 and I_1 = 1 exactly; interior values via the continued
    fraction on whichever of (a, b) converges fastest.
    """
    if not (a > 0 and b > 0):
        raise DomainError(f"shape parameters must be positive, got a={a}, b={b}")
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"x must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    log_bt = lgamma(a + b) - lgamma(a) - lgamma(b) + a * log(x) + b * log1p(-x)
    return _inc_beta_cf(x, 1.0 - x, a, b, log_bt, x < (a + 1.0) / (a + b + 2.0))


def _inc_beta_cf(x: float, y: float, a: float, b: float, log_bt: float, in_x: bool) -> float:
    # I_x(a, b) for 0 < x < 1 and y = 1 - x, given log(x^a y^b / B(a, b)),
    # from the continued fraction in x (in_x) or in y.
    bt = exp(log_bt)
    if in_x:
        return bt * _betacf(a, b, x) / a
    return 1.0 - bt * _betacf(b, a, y) / b


def _stirling_tail(z: float) -> float:
    # lgamma(z) - ((z - 1/2) log z - z + log(2 pi) / 2) for z >= 30; the
    # first omitted term, 1/(1188 z^9), is below 1e-16 there.
    zi = 1.0 / z
    z2 = zi * zi
    return zi * (1.0 / 12.0 - z2 * (1.0 / 360.0 - z2 * (1.0 / 1260.0 - z2 / 1680.0)))


def _lgamma_shift(a: float, h: float) -> float:
    # lgamma(a + h) - lgamma(a).  For large a the two lgamma values are
    # large and nearly equal (at a = 12000 each carries ~1e-11 absolute
    # error), so the difference comes from Stirling's series instead.
    if a < 30.0:
        return lgamma(a + h) - lgamma(a)
    return (a - 0.5) * log1p(h / a) + h * log(a + h) - h + _stirling_tail(a + h) - _stirling_tail(a)


def _log_beta_prefactor(a: float, b: float, log_x: float, log_y: float) -> float:
    # log(x^a y^b / B(a, b)), y = 1 - x, without cancellation in lgamma(a + b) - lgamma(a).
    big, small = (a, b) if a >= b else (b, a)
    return a * log_x + b * log_y + _lgamma_shift(big, small) - lgamma(small)


def _poisson_window(mu: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Terms j = lo..hi holding all but _F_TAIL of the Poisson(mu) mass,
    their weights relative to the mode term j0 = int(mu), and j0 - lo.

    Bernstein's inequalities for the Poisson law,
    P(X >= mu + t) <= exp(-t^2 / (2 (mu + t/3))) and
    P(X <= mu - t) <= exp(-t^2 / (2 mu)), put at most
    2 exp(-t^2 / (2 (mu + t/3))) outside mu +- t.  That equals _F_TAIL at
    t = L/3 + sqrt(L^2/9 + 2 L mu) with L = log(2 / _F_TAIL) ~ 32.9, i.e.
    about 8.1 sqrt(mu) + 22 terms on each side.  The weights are
    cumulative products of their ratios from the mode, which avoids the
    lgamma cancellation of exp(-mu + j0 log(mu) - lgamma(j0 + 1)); callers
    normalise over the window.  A window over ``_TERM_CAP`` terms raises
    EvaluationError before anything is allocated.
    """
    big_l = log(2.0 / _F_TAIL)
    t = big_l / 3.0 + sqrt(big_l * big_l / 9.0 + 2.0 * big_l * mu)
    lo, hi = max(0, int(mu - t)), int(mu + t) + 1
    if hi - lo + 1 > _TERM_CAP:
        raise EvaluationError(f"noncentral F window of {hi - lo + 1} terms exceeds {_TERM_CAP} (lambda={2 * mu})")
    mode = int(mu) - lo
    j = np.arange(lo, hi + 1, dtype=float)
    weights = np.empty_like(j)
    weights[mode] = 1.0
    np.cumprod(j[mode:0:-1] / mu, out=weights[:mode][::-1])
    np.cumprod(mu / j[mode + 1 :], out=weights[mode + 1 :])
    return j, weights, mode


def _log_ibeta_decrement(a: float, b: float, x: float) -> float:
    # log of T(a) := x^a (1-x)^b / (a B(a, b)), the step in
    # I_x(a+1, b) = I_x(a, b) - T(a).
    return a * log(x) + b * log1p(-x) + lgamma(a + b) - lgamma(a + 1.0) - lgamma(b)


def noncentral_t_cdf(x: float, nu: float, delta: float) -> float:
    """CDF of the noncentral t distribution with nu d.o.f. and
    noncentrality delta, evaluated at x.

    Two Poisson-type mixtures over incomplete-beta terms (integer and
    half-integer shape), summed outward from the mixture mode.  Values
    for x < 0 use the reflection F(x; nu, delta) = 1 - F(-x; nu, -delta).

    Raises EvaluationError if the term cap is hit before the truncation
    bound reaches tolerance.
    """
    if not nu > 0:
        raise DomainError(f"nu must be positive, got {nu}")
    if x < 0.0:
        return 1.0 - noncentral_t_cdf(-x, nu, -delta)
    phi_neg_delta = 0.5 * math.erfc(delta / sqrt(2.0))
    if x == 0.0:
        return phi_neg_delta
    y = x * x / (x * x + nu)
    if y >= 1.0:
        return 1.0
    b = 0.5 * nu
    q = 0.5 * delta * delta
    if q == 0.0:
        return min(max(phi_neg_delta + 0.5 * reg_inc_beta(y, 0.5, b), 0.0), 1.0)

    j0 = int(q)
    sign = 1.0 if delta > 0 else -1.0
    log_pois = -q + j0 * log(q) - lgamma(j0 + 1)
    p0 = exp(log_pois)
    s0 = sign * exp(log(abs(delta) / sqrt(2.0)) - q + j0 * log(q) - lgamma(j0 + 1.5))
    a_p0 = j0 + 0.5
    a_s0 = j0 + 1.0
    ip0 = reg_inc_beta(y, a_p0, b)
    is0 = reg_inc_beta(y, a_s0, b)
    tp0 = exp(_log_ibeta_decrement(a_p0, b, y))
    ts0 = exp(_log_ibeta_decrement(a_s0, b, y))

    total = p0 * ip0 + s0 * is0
    nterms = 0

    # Ascend from the mode.  The beta terms decrease with j, so the tail
    # is bounded by the remaining (geometric-bounded) Poisson mass times
    # the current beta values.
    p, s, ip, isv, tp, ts, j, a_p, a_s = p0, s0, ip0, is0, tp0, ts0, j0, a_p0, a_s0
    while True:
        ip = max(ip - tp, 0.0)
        isv = max(isv - ts, 0.0)
        tp *= y * (a_p + b) / (a_p + 1.0)
        ts *= y * (a_s + b) / (a_s + 1.0)
        p *= q / (j + 1.0)
        s *= q / (j + 1.5)
        j += 1
        a_p += 1.0
        a_s += 1.0
        total += p * ip + s * isv
        nterms += 1
        if nterms > _TERM_CAP:
            raise EvaluationError(f"noncentral t series exceeded {_TERM_CAP} terms (nu={nu}, delta={delta})")
        rho_p = q / (j + 1.0)
        rho_s = q / (j + 1.5)
        if rho_p < 1.0 and rho_s < 1.0:
            rem = (p * rho_p / (1.0 - rho_p) + p) * ip + (abs(s) * rho_s / (1.0 - rho_s) + abs(s)) * isv
            if rem < 0.5 * _T_TOL:
                break

    # Descend toward j = 0; here the beta terms grow but stay <= 1.
    p, s, ip, isv, tp, ts, j, a_p, a_s = p0, s0, ip0, is0, tp0, ts0, j0, a_p0, a_s0
    while j > 0:
        tp *= a_p / (y * (a_p + b - 1.0))
        ts *= a_s / (y * (a_s + b - 1.0))
        ip = min(ip + tp, 1.0)
        isv = min(isv + ts, 1.0)
        p *= j / q
        s *= (j + 0.5) / q
        j -= 1
        a_p -= 1.0
        a_s -= 1.0
        total += p * ip + s * isv
        nterms += 1
        if nterms > _TERM_CAP:
            raise EvaluationError(f"noncentral t series exceeded {_TERM_CAP} terms (nu={nu}, delta={delta})")
        r = j / q
        if r < 1.0 and (p + abs(s)) * r / (1.0 - r) < 0.5 * _T_TOL:
            break

    return min(max(phi_neg_delta + 0.5 * total, 0.0), 1.0)


def noncentral_f_cdf(x: float, p: NoncentralParams) -> float:
    """CDF of the noncentral F distribution at x (0 for x <= 0).

    Poisson(lambda/2)-weighted sum of I_u(df1/2 + j, df2/2), evaluated in
    one numpy pass over the term window of ``_poisson_window`` (dropped
    Poisson mass <= 1e-14, so the truncation error is <= 1e-14 absolute).
    The beta values come from one continued fraction at the Poisson mode
    j0 and the decrements T_j = I(a0 + j) - I(a0 + j + 1) on both sides,
    summed in log space so that an underflowed T_j0 never meets an
    overflowed ratio product.  The window's weights are normalised over it.

    Raises EvaluationError, before any work, when the window exceeds
    ``_TERM_CAP`` terms (lambda above about 7.6e9).
    """
    if x <= 0.0:
        return 0.0
    u = p.df1 * x / (p.df1 * x + p.df2)
    if u >= 1.0:
        return 1.0
    if u <= 0.0:
        return 0.0
    a0 = 0.5 * p.df1
    b = 0.5 * p.df2
    lam = p.noncentrality
    if lam == 0.0:
        return reg_inc_beta(u, a0, b)
    # 1 - u straight from x: near u = 1 the rounding of u alone moves
    # a0 + j0 times log(u) by ~1e-10 at lambda = 2e6.
    v = p.df2 / (p.df1 * x + p.df2)
    log_u, log_v = (log(u), log1p(-u)) if u < 0.5 else (log1p(-v), log(v))
    half = 0.5 * lam
    j, weights, mode = _poisson_window(half)
    j0 = int(half)
    a_m = a0 + j0
    log_bt = _log_beta_prefactor(a_m, b, log_u, log_v)
    # Each continued fraction converges fast below its switch point.  Near
    # u = 1 the one in u amplifies the rounding of u (1e-11 at lambda = 2e6),
    # so the one in the smaller of u, v is kept up to one beta standard
    # deviation past its switch.
    if u <= v:
        in_u = u * (a_m + b + 2.0) < a_m + 1.0 + sqrt(a_m + 1.0)
    else:
        in_u = v * (a_m + b + 2.0) >= b + 1.0 + sqrt(b + 1.0)
    i0 = _inc_beta_cf(u, v, a_m, b, log_bt, in_u)

    # Three window-length arrays, updated in place to keep the peak memory
    # of a lambda = 8e6 call under 1 MB: j, the weights, and ``terms``,
    # which holds in turn log T_(j-1) - log T_j0, T_(j-1), the partial sums
    # T_lo + ... + T_(j-1), I(a0 + j) and the weighted terms.
    # T_j / T_(j-1) = u (1 + (b - 1) / (a0 + j))
    terms = np.zeros_like(j)
    np.add(j[1:-1], a0, out=terms[2:])
    np.divide(b - 1.0, terms[2:], out=terms[2:])
    np.log1p(terms[2:], out=terms[2:])
    np.cumsum(terms, out=terms)
    shift = log_bt - log(a_m) - terms[mode + 1]
    j -= j0
    j *= log_u
    j += shift
    terms[1:] += j[:-1]
    # Terms below e^-700 add nothing visible; clamping them keeps exp and
    # cumsum off subnormals, which run about 100x slower.
    np.maximum(terms, _LOG_TINY, out=terms)
    np.exp(terms, out=terms)
    terms[0] = 0.0
    np.cumsum(terms, out=terms)
    np.subtract(i0 + terms[mode], terms, out=terms)
    np.clip(terms, 0.0, 1.0, out=terms)
    # A plain product and sum: a BLAS dot of a long window wakes every
    # BLAS thread and can cost milliseconds.
    terms *= weights
    total = float(terms.sum()) / float(weights.sum())
    return min(max(total, 0.0), 1.0)


def noncentral_f_pdf(x: float, p: NoncentralParams) -> float:
    """Density of the noncentral F distribution at x > 0.

    The CDF's Poisson mixture with beta densities d_j in place of the
    beta CDFs, summed in one numpy pass over the same window and with the
    same normalised weights.  d_j at the mode comes from
    ``_log_beta_prefactor`` (so through ``_lgamma_shift``); the others
    from cumulative sums of log(d_(j+1) / d_j) = log u + log1p(b / (a0 + j)).

    Raises EvaluationError, before any work, when the window exceeds
    ``_TERM_CAP`` terms.
    """
    if x <= 0.0:
        raise DomainError(f"x must be positive, got {x}")
    u = p.df1 * x / (p.df1 * x + p.df2)
    if u >= 1.0:
        return 0.0
    u = u if u > 0.0 else _FPMIN
    v = p.df2 / (p.df1 * x + p.df2)
    log_u, log_v = (log(u), log1p(-u)) if u < 0.5 else (log1p(-v), log(v))
    dudx = p.df1 * p.df2 / (p.df1 * x + p.df2) ** 2
    a0 = 0.5 * p.df1
    b = 0.5 * p.df2
    half = 0.5 * p.noncentrality
    j, weights, mode = _poisson_window(half)
    j0 = int(half)
    log_d0 = _log_beta_prefactor(a0 + j0, b, log_u, log_v) - log_u - log_v
    log_d = np.zeros_like(j)
    np.log1p(b / (a0 + j[:-1]), out=log_d[1:])
    np.cumsum(log_d, out=log_d)
    log_d += (j - j0) * log_u + (log_d0 - log_d[mode])
    np.maximum(log_d, _LOG_TINY, out=log_d)
    terms = np.exp(log_d, out=log_d)
    terms *= weights
    return float(terms.sum()) / float(weights.sum()) * dudx


def noncentral_f_cdf_cdflib(x: float, p: NoncentralParams) -> float:
    """Noncentral F CDF with classic CDFLIB ``cumfnc`` truncation semantics.

    Replicates the legacy routine's behaviour exactly: the Poisson mode
    index is truncated (floored to 1), and each summation direction stops
    as soon as a term falls below 1e-4 of the running sum.  The result
    therefore carries a deliberate relative error of order 1e-3 to 1e-4
    in the distribution tails; use it only to match numbers produced by
    software built on that library.
    """
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
    yy = p.df2 / dsum
    if yy > 0.5:
        xx = prod / dsum
        yy = 1.0 - xx
    else:
        xx = 1.0 - yy
    adn = 0.5 * p.df1 + icent
    b = 0.5 * p.df2
    betdn = reg_inc_beta(xx, adn, b)
    aup = adn
    betup = betdn
    total = centwt * betdn

    def qsmall(term: float, acc: float) -> bool:
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
