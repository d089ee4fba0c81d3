"""Special functions: regularized incomplete beta, noncentral t CDF,
noncentral F CDF/PDF.

All evaluators are pure deterministic functions targeting 1e-10 absolute
accuracy or better.  Every exact noncentral mixture (the F CDF, the
kernel of every chart evaluation, the F density and the t CDF behind
``cv_cdf``) is made of four parts: one split of x into (u, v, log u,
log v), ``_split``; one Poisson term window around the mode j0,
``_poisson_window``: j0 +- (8.1 sqrt(lambda/2) + 22), outside which a
Bernstein bound leaves at most 1e-14 of Poisson mass (Benton &
Krishnamoorthy 2003, *CSDA* 43:249, on mode-centred evaluation); one
recurrence, ``_log_terms``, for the logs of the beta decrements T_j =
I_u(a0 + j, b) - I_u(a0 + j + 1, b) = u^a v^b / (a B(a, b)), a = a0 + j;
and one normalised sum, ``_mixture_sum``.  Weights from j = 0 would
underflow once lambda/2 > 745; from the mode they never do.  The CDFs'
beta values are one continued fraction at the mode and partial sums of
the T_j (``_beta_column``); the F density is sum_j w_j (a0 + j) T_j / x,
so one column gives both (``_f_cdf_pdf``, the chart solver's Newton step);
lambda = 0 is a window with weights 1, 0, 0, ...  A window longer than
``_TERM_CAP`` raises EvaluationError before anything is allocated.
Against a 40-digit mpmath sum the F CDF is within 1e-12 absolute for
lambda up to 24 000, the density at the tested points within 1e-12
relative; the t CDF is within 1e-13 of ``scipy.stats.nct`` for |delta|
<= 60 and, out to delta = 2828, of the identity F_t(x) - F_F(x^2) =
P(T < -x) to 1e-12.  The t CDF now serves only ``cvdist.cv_cdf``,
deprecated since 0.3.0, and is removed with it.

The F CDF is batched over lambda (``_f_cdf_levels``): at one x the beta
values depend on the term index alone, so nodes whose windows overlap
share one column of them, and each node adds only its own weights and
sum.  This is how an EARL's quadrature nodes and the shifts of a chart
are evaluated; ``noncentral_f_cdf`` is the one-node case.

Half of every sum at one law (df1, df2, lambda) does not depend on x: the
window, the Poisson weights and their mass, and the running sums of
log1p((b - 1) / (a0 + j)) in the decrement logs (``_MixtureLaw``); for
``cdflib``, the factors a + b and a + 1 of the decrement ratios, the
centre weight, the two weight walks from the centre and the
lgamma heads of the first decrements (``_CumfncLaw``).
A design's solver evaluates one law at a new x on every step, so a
one-node call (the fused pass ``_f_cdf_pdf``, the density, and one-level
``_f_cdf_levels``) takes that half from a memo that holds the last law of
each profile in read-only arrays (``_LastLaw``), and does only the
x-dependent work.  Each operation is the one a fresh build would run, in
the same order, so every value is bit for bit what it was without the
memo.  The memo keeps no law whose window is longer than a batch group's
(``_GROUP_TERMS``), so it holds at most 0.3 MB (exact) or 0.4 MB
(``cdflib``).  A batch builds its own columns and leaves the memo alone.

``noncentral_f_cdf_cdflib`` additionally reproduces the much looser
truncation rule of the classic CDFLIB/DCDFLIB ``cumfnc`` routine (both
summation directions stop once a term drops below 1e-4 of the running
sum), bit for bit: the loop's recurrences run as sequential numpy
accumulations.  Several published control-chart tables were generated
with that family of libraries; the compat evaluator lets chart designs
match those tables digit for digit.  It is never the default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import exp, lgamma, log, log1p, sqrt
from typing import Callable, NamedTuple, Optional, Sequence

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
_CF_MAX_ITER = 400
_FPMIN = 1e-300
# Nodes of one batched CDF call whose windows overlap share one column
# while the union of their windows stays within this many terms.  A group
# holds two work arrays of that length; at 2**14 (128 KB each) that is
# no more than one call at lambda = 2e6 holds, where a 2**16 budget raised
# the benchmark's peak RSS by 6%.
_GROUP_TERMS = 2**14
# The legacy ``cumfnc`` stop rule and its central fallback.
_CDFLIB_EPS = 1e-4
_CDFLIB_TINY = 1e-20
_CDFLIB_CENTRAL = 1e-10
_Split = tuple[float, float, float, float]  # (u, v, log u, log v) of ``_split``
# centwt and the (walk, head) pairs of ``_cumfnc_down`` and ``_cumfnc_up``
_Walks = tuple[float, tuple[np.ndarray, float], tuple[np.ndarray, float]]
# j (None where walks are given) and the down and up ratios of ``_cumfnc_steps``
_Columns = tuple[Optional[np.ndarray], np.ndarray, np.ndarray]
# a + b and a + 1 of ``_cumfnc_factors``
_Factors = tuple[np.ndarray, np.ndarray]


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
    fraction on whichever of (a, b) converges fastest, with the prefactor
    x^a (1 - x)^b / B(a, b) formed without cancellation at large shapes.
    """
    edge = _inc_beta_edge(x, a, b)
    if edge is not None:
        return edge
    log_bt = _log_beta_prefactor(a, b, log(x), log1p(-x))
    return _inc_beta_cf(x, 1.0 - x, a, b, log_bt, x < (a + 1.0) / (a + b + 2.0))


def _cdflib_inc_beta(x: float, a: float, b: float) -> float:
    # reg_inc_beta with the legacy prefactor lgamma(a + b) - lgamma(a) -
    # lgamma(b), which cancels at large shapes; ``_cumfnc`` keeps it, so
    # the cdflib profile's bits stay those of the legacy loop.
    edge = _inc_beta_edge(x, a, b)
    if edge is not None:
        return edge
    log_bt = lgamma(a + b) - lgamma(a) - lgamma(b) + a * log(x) + b * log1p(-x)
    return _inc_beta_cf(x, 1.0 - x, a, b, log_bt, x < (a + 1.0) / (a + b + 2.0))


def _inc_beta_edge(x: float, a: float, b: float) -> Optional[float]:
    # Checks the arguments of I_x(a, b); its value at x = 0 or 1, else None.
    if not (a > 0 and b > 0):
        raise DomainError(f"shape parameters must be positive, got a={a}, b={b}")
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"x must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    return None


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


def _split(dx: float, d2: float) -> _Split:
    """u = dx / (dx + d2), v = d2 / (dx + d2) and their logs, dx >= 0, d2 > 0.

    v is not 1 - u: u rounds to 1 from dx / d2 ~ 1e16 on, but v holds the
    tail until dx overflows.  The larger of u, v has log1p of the smaller
    as its log.  Where u underflows but dx does not, log u is still
    log dx - log s; the log of a u = 0 at dx = 0 is -inf.
    """
    s = dx + d2
    u, v = dx / s, d2 / s
    if u < 0.5:
        return u, v, log(dx) - log(s) if dx > 0.0 else -math.inf, log1p(-u)
    return u, v, log1p(-v), log(v) if v > 0.0 else -math.inf


def _poisson_window(mu: float) -> tuple[int, int]:
    """Terms j = lo..hi holding all but _F_TAIL of the Poisson(mu) mass.

    Bernstein's inequalities for the Poisson law,
    P(X >= mu + t) <= exp(-t^2 / (2 (mu + t/3))) and
    P(X <= mu - t) <= exp(-t^2 / (2 mu)), put at most
    2 exp(-t^2 / (2 (mu + t/3))) outside mu +- t.  That equals _F_TAIL at
    t = L/3 + sqrt(L^2/9 + 2 L mu) with L = log(2 / _F_TAIL) ~ 32.9, i.e.
    about 8.1 sqrt(mu) + 22 terms on each side.  A window over
    ``_TERM_CAP`` terms raises EvaluationError, so callers that ask for
    every window first fail before anything is allocated.  The cap is
    checked on the width t + min(mu, t), not on hi - lo: past mu ~ 1e32,
    mu +- t rounds to mu and the rounded window would hold two terms.
    """
    big_l = log(2.0 / _F_TAIL)
    t = big_l / 3.0 + sqrt(big_l * big_l / 9.0 + 2.0 * big_l * mu)
    width = t + min(mu, t)  # hi - lo + 1 exceeds width + 1 wherever mu +- t is exact
    if width + 1.0 > _TERM_CAP:
        raise EvaluationError(f"Poisson window of {width:.4g} terms exceeds {_TERM_CAP} (lambda={2 * mu})")
    return max(0, int(mu - t)), int(mu + t) + 1


def _poisson_weights(first: float, count: int, mu: float, mode: int) -> np.ndarray:
    """Weights mu^j / Gamma(j + 1) of the ``count`` terms j = first,
    first + 1, ... (integers for the Poisson(mu) law, half-integers for the
    t CDF's odd terms) relative to the one at index ``mode``.

    The weights are cumulative products of their ratios from the mode,
    (j + 1) / mu below it and mu / j above, which avoids the lgamma
    cancellation of exp(-mu + j0 log(mu) - lgamma(j0 + 1)); callers
    normalise them.  The terms, their ratios and products share one array.
    """
    weights = np.arange(first, first + count, dtype=float)
    below = weights[:mode]
    np.divide(weights[1 : mode + 1], mu, out=below)  # numpy buffers the overlap
    above = weights[mode + 1 :]
    np.divide(mu, above, out=above)
    weights[mode] = 1.0
    below = below[::-1]
    np.multiply.accumulate(below, out=below)
    np.multiply.accumulate(above, out=above)
    return weights


def noncentral_t_cdf(x: float, nu: float, delta: float) -> float:
    """CDF of the noncentral t distribution with nu d.o.f. and
    noncentrality delta, evaluated at x.

    For x > 0, with mu = delta^2 / 2 and y = x^2 / (x^2 + nu),

        F(x) = Phi(-delta) + (S1 + erf(delta / sqrt 2) S2) / 2,

    where S1 is the Poisson(mu) mixture of I_y(1/2 + j, nu/2) and S2 the
    mixture of I_y(1 + j, nu/2) with the weights mu^(j+1/2) / Gamma(j + 3/2),
    which sum to e^mu erf(sqrt mu): the F CDF's window, beta column and
    normalised sum, with the odd weights stepped from j + 1/2.  Values
    for x < 0 use the reflection F(x; nu, delta) = 1 - F(-x; nu, -delta).

    Raises EvaluationError, before any work, when the window exceeds
    ``_TERM_CAP`` terms.
    """
    if not 0.0 < nu < math.inf:
        raise DomainError(f"nu must be positive and finite, got {nu}")
    if math.isnan(x) or not math.isfinite(delta):
        raise DomainError(f"x must not be NaN and delta must be finite, got x={x}, delta={delta}")
    if x < 0.0:
        return 1.0 - noncentral_t_cdf(-x, nu, -delta)
    z = delta / sqrt(2.0)
    phi_neg_delta = 0.5 * math.erfc(z)
    # y is the F CDF's u at x^2 and df1 = 1: S1 is its sum
    split = _split(x * x, nu)
    y, v = split[:2]
    if not v > 0.0:  # x^2 overflowed; y rounds to 1 long before, but v still holds the tail
        return 1.0
    if y <= 0.0:
        return phi_neg_delta
    b = 0.5 * nu
    mu = 0.5 * delta * delta
    lo, hi = _poisson_window(mu)
    mode, count = int(mu) - lo, hi - lo + 1
    s1 = _mixture_sum(lo, _beta_column(lo, count, mode, 0.5, b, split)[0], mu, mode)
    s2 = _mixture_sum(lo + 0.5, _beta_column(lo, count, mode, 1.0, b, split)[0], mu, mode)
    return min(max(phi_neg_delta + 0.5 * (s1 + math.erf(z) * s2), 0.0), 1.0)


def noncentral_f_cdf(x: float, p: NoncentralParams) -> float:
    """CDF of the noncentral F distribution at x (0 for x <= 0, 1 at +inf).

    Poisson(lambda/2)-weighted sum of I_u(df1/2 + j, df2/2) over the
    window of ``_poisson_window`` (truncation error <= 1e-14 absolute):
    the one-node case of ``_f_cdf_levels``.  Raises DomainError for a NaN
    x, and EvaluationError, before any work, when the window exceeds
    ``_TERM_CAP`` terms (lambda above about 7.6e9).
    """
    return _f_cdf_levels(x, p.df1, p.df2, [p.noncentrality])[0]


def noncentral_f_cdf_cdflib(x: float, p: NoncentralParams) -> float:
    """Noncentral F CDF with classic CDFLIB ``cumfnc`` truncation semantics.

    Replicates the legacy routine's truncation exactly: the Poisson mode
    index is truncated (floored to 1), and each summation direction stops
    as soon as a term falls below 1e-4 of the running sum.  The result
    therefore carries a deliberate relative error of order 1e-3 to 1e-4
    in the distribution tails; use it only to match numbers produced by
    software built on that library.  The one-node case of
    ``_f_cdf_levels`` with ``cdflib=True``, equal to the legacy loop bit
    for bit wherever 0 < u < 1 (at u = 1 it returns 1, where the loop
    returned its truncated weight sum).
    """
    return _f_cdf_levels(x, p.df1, p.df2, [p.noncentrality], cdflib=True)[0]


def _f_cdf_levels(x: float, df1: float, df2: float, lams: Sequence[float], *, cdflib: bool = False) -> list[float]:
    """CDF at x of F(df1, df2, lambda) for each lambda in ``lams``, in order.

    The values that depend on the term index j alone (the beta values
    I_u(df1/2 + j, df2/2), or for ``cdflib`` the legacy loop's
    beta-decrement ratios) form one column for all nodes.  Nodes are sorted
    by lambda, and consecutive ones whose windows overlap are grouped while
    the union stays within ``_GROUP_TERMS``; each group builds its column
    once, and each node sums its own slice with its own weights
    (``_mixture_sums``, ``_cumfnc_sums``).  A batch gives what one call per
    lambda gives, to 1e-13 (exact profile) or bit for bit (``cdflib``).
    One lambda takes the x-free half of its sum from the last-law memo
    (``_mixture_at``, ``_cumfnc_at``), unless its window is longer than
    the memo keeps.

    A NaN x or a lambda that is negative or not finite raises DomainError,
    and a window over ``_TERM_CAP`` terms EvaluationError, before anything
    is allocated.  df1 and df2 are taken as positive and finite.
    """
    if math.isnan(x):
        raise DomainError("x must not be NaN")
    for lam in lams:
        if not 0.0 <= lam < math.inf:
            raise DomainError(f"noncentrality must be finite and >= 0, got {lam}")
    count = len(lams)
    if x <= 0.0:
        return [0.0] * count
    split = _split(df1 * x, df2)
    u, v = split[:2]
    # The legacy loop stopped at u = 1; the exact sums run on in v.
    if not v > 0.0 or (cdflib and u >= 1.0):
        return [1.0] * count
    if u <= 0.0:
        return [0.0] * count
    # lambda = 0 is an ordinary node (weights 1, 0, 0, ...); the legacy
    # routine falls back to that central law below lambda = 1e-10.
    central = _CDFLIB_CENTRAL if cdflib else -1.0
    nodes = sorted((0.5 * lam, i) for i, lam in enumerate(lams) if lam > central)
    a0, b = 0.5 * df1, 0.5 * df2
    if count == len(nodes) == 1 and _memo_holds(nodes[0][0]):
        mu = nodes[0][0]
        law = (_CUMFNC_LAWS if cdflib else _MIXTURE_LAWS)(a0, b, mu)
        total = _cumfnc_at(law, split, a0, b, mu) if cdflib else _mixture_at(law, split, a0, b)[0]
        return [min(max(total, 0.0), 1.0)]
    value = _f_cdf_levels(x, df1, df2, [0.0])[0] if len(nodes) < count else 0.0
    out = [0.0 if lam > central else value for lam in lams]
    windows = [_poisson_window(mu) for mu, _ in nodes]
    groups: list[tuple[int, int, list[int]]] = []
    for k, (lo, hi) in enumerate(windows):
        # A window that misses the group's union would only lengthen its column.
        if groups and lo <= groups[-1][1] and max(hi, groups[-1][1]) - min(lo, groups[-1][0]) < _GROUP_TERMS:
            g_lo, g_hi, members = groups[-1]
            groups[-1] = (min(lo, g_lo), max(hi, g_hi), members + [k])
        else:
            groups.append((lo, hi, [k]))
    sums = _cumfnc_sums if cdflib else _mixture_sums
    for (_, i), total in zip(nodes, sums(split, a0, b, [mu for mu, _ in nodes], windows, groups)):
        out[i] = min(max(total, 0.0), 1.0)
    return out


class _LastLaw:
    """A memo of ``build(a0, b, mu)``, the x-free half of the sums at one
    law, that holds the last law asked for only.

    A design's solver evaluates one law at a new x on every step, so it
    builds that law's half once.  The old law is dropped before the next
    is built, and a law whose window is longer than ``_GROUP_TERMS``
    terms (``_memo_holds``) serves its own call only, so what the memo
    keeps is at most 0.3 MB (exact) or 0.4 MB (``cdflib``).  The arrays
    handed out are read-only; the memo is invisible in every value.
    ``misses`` counts the builds.
    """

    def __init__(self, build: Callable):
        self._build = build
        self._last: Optional[tuple] = None  # (key, law), replaced whole
        self.misses = 0

    def __call__(self, a0: float, b: float, mu: float):
        key = (a0, b, mu)
        if self._last is not None and self._last[0] == key:
            return self._last[1]
        self._last = None
        law = self._build(a0, b, mu)
        self.misses += 1
        if _memo_holds(mu):
            self._last = (key, law)
        return law

    def clear(self) -> None:
        self._last = None


def _memo_holds(mu: float) -> bool:
    # Whether the memo keeps the law at Poisson mean mu: its window is a group's at most.
    lo, hi = _poisson_window(mu)
    return hi - lo < _GROUP_TERMS


class _MixtureLaw(NamedTuple):
    """The x-free half of the exact sum at one law: its window j = lo..lo +
    len(prefix) - 1 with the mode at index ``mode``, ``_log_prefix`` of
    those terms, and their Poisson weights and mass."""

    lo: int
    mode: int
    prefix: np.ndarray
    weights: np.ndarray
    mass: float


def _mixture_law(a0: float, b: float, mu: float) -> _MixtureLaw:
    lo, hi = _poisson_window(mu)
    mode, count = int(mu) - lo, hi - lo + 1
    weights = _poisson_weights(lo, count, mu, mode)
    prefix = _log_prefix(np.arange(lo, hi + 1, dtype=float), a0, b, np.empty(count))
    weights.flags.writeable = False
    prefix.flags.writeable = False
    return _MixtureLaw(lo, mode, prefix, weights, float(weights.sum()))


_MIXTURE_LAWS = _LastLaw(_mixture_law)


def _mixture_at(law: _MixtureLaw, split: _Split, a0: float, b: float, density: bool = False) -> tuple[float, float]:
    """The mixture of I_u(a0 + j, b) over ``law`` and, if ``density``,
    sum_j w_j (a0 + j) T_j with the same normalised weights (else 0.0):
    the one-node case of ``_mixture_sums``."""
    column, terms = _beta_column(
        law.lo, len(law.prefix), law.mode, a0, b, split, law.prefix, law.weights if density else None
    )
    column *= law.weights
    return float(column.sum()) / law.mass, terms / law.mass


def _mixture_sums(
    split: _Split, a0: float, b: float, mus: list[float], windows: list[tuple[int, int]], groups: list
) -> list[float]:
    # The exact profile: per group, one beta column anchored at the middle
    # node's mode; per node, its weights normalised over its own window.
    # The group keeps no array of its terms j: with the column it would be a
    # third work array, where a call on the memo's law holds two.
    totals = []
    for g_lo, g_hi, members in groups:
        anchor = int(mus[members[len(members) // 2]])
        column, _ = _beta_column(g_lo, g_hi - g_lo + 1, anchor - g_lo, a0, b, split)
        for k in members:
            lo, hi = windows[k]
            mode = int(mus[k])
            total = _mixture_sum(lo, column[lo - g_lo : hi - g_lo + 1], mus[k], mode - lo)
            if mode != anchor:
                # Each node keeps the anchor one call would use: near u = 1
                # the continued fraction is good to ~1e-12 only, with an error
                # that differs from mode to mode.  Moving the anchor shifts
                # the whole column, so the normalised sum shifts alike.
                total += _beta_anchor(a0 + mode, b, split)[0] - float(column[mode - g_lo])
            totals.append(total)
        del column  # before the next group allocates its own
    return totals


def _mixture_sum(first: float, column: np.ndarray, mu: float, mode: int) -> float:
    # The Poisson(mu) mixture of ``column`` at the terms j = first, first + 1, ...,
    # weights normalised over them.
    weights = _poisson_weights(first, len(column), mu, mode)
    mass = float(weights.sum())
    # A plain product and sum: a BLAS dot of a long window wakes every BLAS
    # thread and can cost milliseconds.
    weights *= column
    return float(weights.sum()) / mass


def _beta_anchor(a: float, b: float, split: _Split) -> tuple[float, float]:
    """I_u(a, b) and log(u^a v^b / B(a, b)), v = 1 - u, by the continued
    fraction that suits u and a."""
    u, v, log_u, log_v = split
    log_bt = _log_beta_prefactor(a, b, log_u, log_v)
    # Each continued fraction converges fast below its switch point.  Near
    # u = 1 the one in u amplifies the rounding of u (1e-11 at lambda = 2e6),
    # so the one in the smaller of u, v is kept up to one beta standard
    # deviation past its switch.
    if u <= v:
        in_u = u * (a + b + 2.0) < a + 1.0 + sqrt(a + 1.0)
    else:
        in_u = v * (a + b + 2.0) >= b + 1.0 + sqrt(b + 1.0)
    return _inc_beta_cf(u, v, a, b, log_bt, in_u), log_bt


def _log_prefix(j: np.ndarray, a0: float, b: float, out: np.ndarray) -> np.ndarray:
    """``out``, holding the x-free part of log T_j for the consecutive
    integers ``j`` (as floats): the sums of log(T_j / T_(j-1)) - log u =
    log1p((b - 1) / (a0 + j)) from 0 at j[0] (``_log_terms`` adds the rest)."""
    out[0] = 0.0
    rest = out[1:]
    np.add(j[1:], a0, out=rest)
    np.divide(b - 1.0, rest, out=rest)
    np.log1p(rest, out=rest)
    np.add.accumulate(out, out=out)
    return out


def _log_terms(
    prefix: np.ndarray, steps: np.ndarray, mode: int, a_mode: float, log_u: float, log_bt: float, out: np.ndarray
) -> np.ndarray:
    """``out``, holding log T_j for the terms of ``prefix``: T_j = I_u(a, b)
    - I_u(a + 1, b) = u^a v^b / (a B(a, b)), a = a0 + j, given log(u^a v^b /
    B(a, b)) at the anchor j[mode], where a = ``a_mode``.

    ``prefix`` (``_log_prefix``; it may be ``out`` itself) plus log u per
    step j - j[mode] from the anchor, in log space so that an underflowed
    T at the anchor never meets an overflowed ratio product.  ``steps``
    holds those steps on entry, and is the scratch array.
    """
    steps *= log_u
    steps += log_bt - log(a_mode) - prefix[mode]
    return np.add(prefix, steps, out=out)


def _beta_column(
    lo: int,
    count: int,
    mode: int,
    a0: float,
    b: float,
    split: _Split,
    prefix: Optional[np.ndarray] = None,
    weights: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, float]:
    """I_u(a0 + j, b) for the ``count`` terms j = lo, lo + 1, ..., and,
    given their Poisson weights, sum_j w_j (a0 + j) T_j (else 0.0).

    ``_beta_anchor`` gives the value at the anchor j[mode], and the
    decrements T_j of ``_log_terms`` the others.  One array one longer
    than the terms holds in turn the ``_log_prefix`` (built there when
    ``prefix`` is None), log T_j, T_j, and from its first entry on
    T_lo + ... + T_(j-1) and I(a0 + j); the density sum is taken off the
    T_j between the third and fourth.
    """
    a_mode = a0 + (lo + mode)
    i0, log_bt = _beta_anchor(a_mode, b, split)
    column = np.empty(count + 1)
    column[0] = 0.0
    if prefix is None:
        steps = np.arange(lo, lo + count, dtype=float)
        prefix = _log_prefix(steps, a0, b, column[1:])
        steps -= lo + mode
    else:
        steps = np.arange(-mode, count - mode, dtype=float)
    _log_terms(prefix, steps, mode, a_mode, split[2], log_bt, column[1:])
    del steps
    # Terms below e^-700 add nothing visible; clamping them keeps exp and
    # the sums off subnormals, which run about 100x slower.
    np.maximum(column, _LOG_TINY, out=column)
    np.exp(column, out=column)
    density = 0.0
    if weights is not None:
        terms = np.arange(lo, lo + count, dtype=float)
        terms += a0
        terms *= column[1:]
        terms *= weights
        density = float(terms.sum())
    column = column[:-1]
    column[0] = 0.0
    np.add.accumulate(column, out=column)
    np.subtract(i0 + column[mode], column, out=column)
    return column, density


def _cumfnc_xy(split: _Split) -> tuple[float, float]:
    # The legacy loop's (xx, yy): the larger of u, v is 1 minus the smaller.
    u, v = split[:2]
    return (u, 1.0 - u) if v > 0.5 else (1.0 - v, v)


def _cumfnc_sums(
    split: _Split, a0: float, b: float, mus: list[float], windows: list[tuple[int, int]], groups: list
) -> list[float]:
    # The cdflib profile: per group, the two beta-decrement ratio columns;
    # per node, ``_cumfnc`` over its window, widened if a stop falls outside.
    xx, yy = _cumfnc_xy(split)
    totals = []
    for g_lo, g_hi, members in groups:
        columns = _cumfnc_ratios(g_lo, g_hi, a0, b, xx)
        for k in members:
            lo, hi = windows[k]
            total = _cumfnc(mus[k], lo, hi, g_lo, columns, xx, yy, a0, b)
            totals.append(_cumfnc_widened(mus[k], lo, hi, xx, yy, a0, b) if total is None else total)
        del columns  # before the next group allocates its own
    return totals


class _CumfncLaw(NamedTuple):
    """The x-free half of the legacy sum at one law: its window j = lo..hi,
    the factors a + b and a + 1 (a = a0 + j) of its ``_cumfnc_steps``, and the centre's weight with both walks from it
    (``_Walks``)."""

    lo: int
    hi: int
    factors: _Factors
    walks: _Walks


def _cumfnc_law(a0: float, b: float, mu: float) -> _CumfncLaw:
    lo, hi = _poisson_window(mu)
    icent = max(int(mu), 1)
    centwt, adn = _cumfnc_centwt(mu, icent), a0 + icent
    j, c = np.arange(lo, hi + 1, dtype=float), icent - lo
    walks = (centwt, _cumfnc_down(j[c:0:-1], mu, centwt, adn, b), _cumfnc_up(j[c + 1 :], mu, centwt, adn, b))
    law = _CumfncLaw(lo, hi, _cumfnc_factors(j, a0, b), walks)
    for array in (*law.factors, walks[1][0], walks[2][0]):
        array.flags.writeable = False
    return law


_CUMFNC_LAWS = _LastLaw(_cumfnc_law)


def _cumfnc_at(law: _CumfncLaw, split: _Split, a0: float, b: float, mu: float) -> float:
    # The one-node case of ``_cumfnc_sums``, on the memo's law.
    xx, yy = _cumfnc_xy(split)
    columns = (None, *_cumfnc_steps(*law.factors, xx, law.lo))
    total = _cumfnc(mu, law.lo, law.hi, law.lo, columns, xx, yy, a0, b, law.walks)
    return _cumfnc_widened(mu, law.lo, law.hi, xx, yy, a0, b) if total is None else total


def _cumfnc_ratios(lo: int, hi: int, a0: float, b: float, xx: float) -> _Columns:
    # j = lo..hi and its ``_cumfnc_steps``, written over the factors.
    j = np.arange(lo, hi + 1, dtype=float)
    return j, *_cumfnc_steps(*_cumfnc_factors(j, a0, b), xx, lo, overwrite=True)


def _cumfnc_factors(j: np.ndarray, a0: float, b: float) -> _Factors:
    # The x-free factors a + b and a + 1, a = a0 + j, of ``_cumfnc_steps``.
    a = j + a0
    a_b = a + b
    a += 1.0
    return a_b, a


def _cumfnc_steps(
    a_b: np.ndarray, a_1: np.ndarray, xx: float, lo: int, overwrite: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """The ratios by which the legacy loop steps its beta decrements onto
    a = a0 + j, j = lo, lo + 1, ...: T(a) / T(a + 1) = (a + 1) / ((a + b) xx)
    going down and T(a - 1) / T(a - 2) = (a + b - 2) xx / (a - 1) going
    up, written as the loop writes them, over ``a_b`` and ``a_1`` if
    ``overwrite``.

    A down ratio overflows to inf only at an xx near the subnormal range,
    where every first term centwt * I_xx(a0 + icent, b) is far below
    ``_CDFLIB_TINY``: no walk goes down there (``_cumfnc``), so no inf is
    read."""
    down = np.multiply(a_b, xx)
    with np.errstate(over="ignore"):
        np.divide(a_1, down, out=down)
    up = np.subtract(a_b, 2.0, out=a_b if overwrite else None)
    up *= xx
    a_m1 = np.subtract(a_1, 2.0, out=a_1 if overwrite else None)
    if lo == 0:
        a_m1[0] = 1.0  # the up ratio at j = 0 is never used, and a0 = 1 would divide by 0
    up /= a_m1
    return down, up


def _cumfnc_centwt(mu: float, icent: int) -> float:
    # The Poisson(mu) weight of the legacy loop's centre icent = int(mu) floored to 1.
    return exp(-mu + icent * log(mu) - lgamma(icent + 1))


def _cumfnc_down(j: np.ndarray, mu: float, centwt: float, adn: float, b: float) -> tuple[np.ndarray, float]:
    """The legacy loop's Poisson weights from its centre icent down, centwt
    times the running products of j / mu over ``j`` = icent, icent - 1, ...,
    and the x-free head of the log of its first beta decrement at
    a = ``adn`` = a0 + icent."""
    walk = np.empty(len(j) + 1)
    walk[0] = centwt
    np.divide(j, mu, out=walk[1:])
    np.multiply.accumulate(walk, out=walk)
    return walk, lgamma(adn + b) - lgamma(adn + 1.0) - lgamma(b)


def _cumfnc_up(j: np.ndarray, mu: float, centwt: float, adn: float, b: float) -> tuple[np.ndarray, float]:
    # ``_cumfnc_down`` going up: mu / j over ``j`` = icent + 1, icent + 2, ...
    walk = np.empty(len(j) + 1)
    walk[0] = centwt
    np.divide(mu, j, out=walk[1:])
    np.multiply.accumulate(walk, out=walk)
    return walk, lgamma(adn - 1.0 + b) - lgamma(adn) - lgamma(b)


def _cumfnc_widened(mu: float, lo: int, hi: int, xx: float, yy: float, a0: float, b: float) -> float:
    # ``_cumfnc`` over the window j = lo..hi widened on both sides until each stop falls inside.
    total = None
    while total is None:
        width = hi - lo + 1
        lo, hi = max(0, lo - width), hi + width
        if hi - lo + 1 > _TERM_CAP:
            raise EvaluationError(f"cdflib sum of {hi - lo + 1} terms exceeds {_TERM_CAP} (lambda={2 * mu})")
        total = _cumfnc(mu, lo, hi, lo, _cumfnc_ratios(lo, hi, a0, b, xx), xx, yy, a0, b)
    return total


def _cumfnc(
    mu: float,
    lo: int,
    hi: int,
    g_lo: int,
    columns: _Columns,
    xx: float,
    yy: float,
    a0: float,
    b: float,
    walks: Optional[_Walks] = None,
) -> Optional[float]:
    """The legacy ``cumfnc`` sum over the terms j = lo..hi, or None when a
    stop index falls outside them; ``columns`` are j and the two
    ``_cumfnc_steps`` from j = g_lo.  ``walks`` are the memo's for this
    window; without them each walk is built from j when the sum takes it.

    The centre is icent = int(mu) floored to 1.  The down direction adds
    terms while the last one added is at least 1e-4 of the running sum (and
    that sum at least 1e-20), and stops at j = 0; the up direction always
    adds its first term, then goes on by the same test.  Each of the loop's
    recurrences (the Poisson weight, the beta decrement, the beta value and
    the running sum) is one sequential ``accumulate`` over the same
    operands in the same order, so every term, stop index and total is
    the loop's own, bit for bit.
    """
    j, down, up = columns
    icent = max(int(mu), 1)
    centwt, down_walk, up_walk = walks or (_cumfnc_centwt(mu, icent), None, None)
    scratch = walks is None  # a walk built here takes the terms; the memo's are read-only
    c, first, last = icent - g_lo, lo - g_lo, hi - g_lo
    adn = a0 + icent
    betdn = _cdflib_inc_beta(xx, adn, b)

    total = centwt * betdn
    # below the floor the loop takes no step down (the sum never falls
    # going down: terms are >= 0)
    if not total < _CDFLIB_TINY:
        xmult, head = down_walk or _cumfnc_down(j[c:first:-1], mu, centwt, adn, b)
        beta = np.empty_like(xmult)
        beta[0] = exp(head + adn * log(xx) + b * log(yy))
        beta[1:] = down[first:c][::-1]
        np.multiply.accumulate(beta, out=beta)
        beta[0] = betdn
        np.add.accumulate(beta, out=beta)
        terms = np.multiply(xmult, beta, out=xmult if scratch else None)
        sums = np.add.accumulate(terms, out=beta)
        stop = terms < sums * _CDFLIB_EPS
        k = int(stop.argmax())
        if not stop[k]:
            if lo > 0:
                return None
            k = c - first  # the loop ends at j = 0
        total = float(sums[k])

    if last == c:
        return None
    xmult, head = up_walk or _cumfnc_up(j[c + 1 : last + 1], mu, centwt, adn, b)
    beta = np.empty_like(xmult)
    beta[0] = exp(head + (adn - 1.0) * log(xx) + b * log(yy))
    beta[1:] = up[c + 1 : last + 1]
    np.multiply.accumulate(beta, out=beta)
    beta[0] = betdn
    np.subtract.accumulate(beta, out=beta)
    terms = np.multiply(xmult, beta, out=xmult if scratch else None)
    terms[0] = total
    sums = np.add.accumulate(terms, out=beta)
    stop = terms[1:] < sums[1:] * _CDFLIB_EPS
    if total < 2.0 * _CDFLIB_TINY:  # rounding can make a term slightly negative
        stop |= sums[1:] < _CDFLIB_TINY
    k = int(stop.argmax())
    if not stop[k]:
        return None
    return float(sums[k + 1])


def noncentral_f_pdf(x: float, p: NoncentralParams) -> float:
    """Density of the noncentral F distribution at x > 0.

    The beta density at u is a T_j / (u v), with T_j the CDF's beta
    decrements at a = df1/2 + j, and du/dx = u v / x, so f(x) = sum_j w_j
    (df1/2 + j) T_j / x over the CDF's window and weights (``_f_pdf_over``).
    Raises DomainError for x <= 0 or NaN, and EvaluationError, before any
    work, when the window exceeds ``_TERM_CAP`` terms.
    """
    if not x > 0.0:
        raise DomainError(f"x must be positive, got {x}")
    return _f_pdf_over(x, p, x)


def _f_pdf_over(x: float, p: NoncentralParams, over: float) -> float:
    """x f(x) / over = sum_j w_j (df1/2 + j) T_j / over for the density f of ``p``.

    The terms leave log space scaled by the largest T_j, which comes back
    only in the quotient: where every term is below the CDF's e^-700 floor
    the density stays relative-accurate, and the floor makes up no value.
    0.0 where the quotient is below e^-700, at x = 0, or where v is 0.
    The x-free half is the memo's law, as in ``_mixture_at``.
    """
    _, v, log_u, log_v = _split(p.df1 * x, p.df2)
    if not (math.isfinite(log_u) and v > 0.0):
        return 0.0
    a0, b, mu = 0.5 * p.df1, 0.5 * p.df2, 0.5 * p.noncentrality
    law = _MIXTURE_LAWS(a0, b, mu)
    a_mode = a0 + int(mu)
    count = len(law.prefix)
    log_bt = _log_beta_prefactor(a_mode, b, log_u, log_v)
    steps = np.arange(-law.mode, count - law.mode, dtype=float)
    terms = _log_terms(law.prefix, steps, law.mode, a_mode, log_u, log_bt, steps)
    top = float(terms.max())
    terms -= top
    np.exp(terms, out=terms)
    a = np.arange(law.lo, law.lo + count, dtype=float)
    a += a0
    terms *= a
    scale = top - log(over)
    terms *= law.weights
    total = float(terms.sum()) / law.mass
    return total * exp(scale) if total > 0.0 and scale + log(total) > _LOG_TINY else 0.0


def _f_cdf_pdf(x: float, p: NoncentralParams) -> tuple[float, float]:
    """F(x) and x f(x) of ``p`` from one beta column.

    F is ``noncentral_f_cdf`` bit for bit: the same window, weights,
    ``_beta_column`` and sum, on the memo's law (``_mixture_at``).
    x f(x) = sum_j w_j (df1/2 + j) T_j is taken off that column's
    decrements, within 1e-13 relative of ``noncentral_f_pdf``.  The
    decrements are clamped at e^-700, which adds at most e^-700
    (df1/2 + hi) to that sum; where the sum is not 2^60 times that, or
    where the CDF needs no column, ``_f_pdf_over`` scales the terms by
    the largest instead.
    """
    split = _split(p.df1 * x, p.df2)
    if not (split[0] > 0.0 and split[1] > 0.0):
        return noncentral_f_cdf(x, p), _f_pdf_over(x, p, 1.0)
    a0, b = 0.5 * p.df1, 0.5 * p.df2
    law = _MIXTURE_LAWS(a0, b, 0.5 * p.noncentrality)
    cdf, density = _mixture_at(law, split, a0, b, density=True)
    hi = law.lo + len(law.prefix) - 1
    if not density * 2.0**-60 > exp(_LOG_TINY) * (a0 + hi):
        density = _f_pdf_over(x, p, 1.0)
    return min(max(cdf, 0.0), 1.0), density
