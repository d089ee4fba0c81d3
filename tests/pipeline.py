"""The item-by-item subgroup pipeline: the tests' reference for
``mcsim.simulate_subgroups``, which draws each subgroup from its two
sufficient statistics instead."""

import numpy as np

from cvrunrules.mcsim import _MU0, logger
from cvrunrules.merror import MeasurementErrorModel, ShiftSpec


def _pipeline_subgroups(
    size: int,
    n: int,
    gamma0: float,
    shift: ShiftSpec,
    me: MeasurementErrorModel,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw ``size`` observed squared sample CVs item by item: the tests'
    reference for ``simulate_subgroups``.

    True items are N(mu0 + a*sigma0, (b*sigma0)^2); each item is measured
    m times as A + B*X + eps with eps ~ N(0, (eta*sigma0)^2) and the m
    measurements averaged.  Returns (S*/mean*)^2 over the n averages.
    """
    sigma0 = gamma0 * _MU0
    mean_true = _MU0 + shift.a * sigma0
    sd_true = shift.b * sigma0
    a_const = me.theta * _MU0
    out = np.empty(size)
    todo = np.arange(size)
    redraws = 0
    while todo.size:
        x = rng.normal(mean_true, sd_true, size=(todo.size, n))
        if me.reps == 1:
            observed = a_const + me.slope * x
            if me.eta > 0.0:
                observed = observed + rng.normal(0.0, me.eta * sigma0, size=x.shape)
        else:
            eps = rng.normal(0.0, me.eta * sigma0, size=(todo.size, n, me.reps)) if me.eta > 0.0 else 0.0
            observed = (a_const + me.slope * x[:, :, None] + eps).mean(axis=2)
        xbar = observed.mean(axis=1)
        s = observed.std(axis=1, ddof=1)
        ok = xbar != 0.0
        out[todo[ok]] = (s[ok] / xbar[ok]) ** 2
        redraws += int((~ok).sum())
        todo = todo[~ok]
    if redraws:
        logger.warning("re-drew %d subgroups with a zero observed mean", redraws)
    return out
