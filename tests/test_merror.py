"""Measurement-error model tests."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from cvrunrules.cvdist import cv2_cdf
from cvrunrules.errors import DomainError, GammaDomainError
from cvrunrules.merror import (
    MeasurementErrorModel,
    ShiftSpec,
    observed_cv_incontrol,
    observed_cv_shifted,
    shift_from_ab,
)


class TestModelValidation:
    def test_identity(self):
        me = MeasurementErrorModel.identity()
        assert me.is_identity
        assert (me.theta, me.eta, me.slope, me.reps) == (0.0, 0.0, 1.0, 1)

    def test_rejects_bad_fields(self):
        with pytest.raises(DomainError):
            MeasurementErrorModel(theta=-0.1)
        with pytest.raises(DomainError):
            MeasurementErrorModel(eta=-0.5)
        with pytest.raises(DomainError):
            MeasurementErrorModel(slope=0.0)
        with pytest.raises(DomainError):
            MeasurementErrorModel(reps=0)
        with pytest.raises(DomainError):
            MeasurementErrorModel(reps=True)
        with pytest.raises(DomainError):
            MeasurementErrorModel(reps=2.0)
        assert type(MeasurementErrorModel(reps=np.int64(2)).reps) is int


    @pytest.mark.parametrize("field", ["theta", "eta", "slope"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_fields(self, field, value):
        # eta = inf used to construct and drive the observed CV to inf
        with pytest.raises(DomainError, match="finite"):
            MeasurementErrorModel(**{field: value})


class TestObservedCv:
    def test_identity_model_passthrough(self):
        assert observed_cv_incontrol(0.1, MeasurementErrorModel.identity()) == pytest.approx(0.1)

    def test_worked_example_value(self):
        me = MeasurementErrorModel(theta=0.05, eta=0.28, slope=1.0, reps=1)
        assert observed_cv_incontrol(0.417, me) == pytest.approx(0.41242, abs=5e-5)

    def test_many_reps_kills_precision_error(self):
        base = MeasurementErrorModel(theta=0.02, eta=0.4, slope=1.0, reps=1)
        eta_free = MeasurementErrorModel(theta=0.02, eta=0.0, slope=1.0, reps=1)
        many = MeasurementErrorModel(theta=0.02, eta=0.4, slope=1.0, reps=10_000_000)
        assert observed_cv_incontrol(0.1, many) == pytest.approx(
            observed_cv_incontrol(0.1, eta_free), rel=1e-6
        )
        assert observed_cv_incontrol(0.1, base) > observed_cv_incontrol(0.1, many)

    def test_monotone_in_theta_and_eta(self):
        gammas = []
        for theta in (0.0, 0.01, 0.03, 0.05):
            gammas.append(observed_cv_incontrol(0.1, MeasurementErrorModel(theta=theta)))
        assert all(b <= a for a, b in zip(gammas, gammas[1:]))
        gammas = []
        for eta in (0.0, 0.1, 0.3, 1.0):
            gammas.append(observed_cv_incontrol(0.1, MeasurementErrorModel(eta=eta)))
        assert all(b >= a for a, b in zip(gammas, gammas[1:]))

    @pytest.mark.parametrize("field", ["slope", "eta"])
    def test_square_overflow_is_a_domain_error(self, field):
        # slope**2 raised a bare OverflowError here
        me = MeasurementErrorModel(**{field: 1e300})
        with pytest.raises(DomainError, match=field):
            observed_cv_incontrol(0.1, me)
        with pytest.raises(DomainError, match=field):
            observed_cv_shifted(0.1, ShiftSpec.from_tau(1.5, 0.1), me)
        with pytest.raises(DomainError, match="b must be below"):
            observed_cv_shifted(0.1, ShiftSpec.from_tau(1e300, 0.1, b=1e300), MeasurementErrorModel())

    @pytest.mark.parametrize("gamma0", [math.nan, -1.0, 0.0, math.inf])
    def test_bad_gamma0_is_a_gamma_domain_error(self, gamma0):
        # NaN came back as nan and -1 as -1.0
        with pytest.raises(GammaDomainError):
            observed_cv_incontrol(gamma0, MeasurementErrorModel(theta=0.05, eta=0.28))

    def test_grid_stays_in_validity_window(self):
        # every published-model combination keeps the observed CV below 0.5
        for gamma0 in (0.05, 0.1, 0.2):
            for theta in (0.0, 0.01, 0.02, 0.03, 0.04, 0.05):
                for eta in (0.0, 0.1, 0.2, 0.3, 0.5, 1.0):
                    for slope in (0.8, 0.9, 1.0, 1.1, 1.2):
                        for m in (1, 3, 5, 7, 10):
                            me = MeasurementErrorModel(theta=theta, eta=eta, slope=slope, reps=m)
                            assert observed_cv_incontrol(gamma0, me) < 0.5


class TestShiftSpec:
    def test_shift_from_ab_values(self):
        assert shift_from_ab(0.0, 1.3, 0.1) == pytest.approx(1.3)
        assert shift_from_ab(2.0, 1.0, 0.1) == pytest.approx(1.0 / 1.2)
        assert shift_from_ab(0.0, 1.0, 0.1) == pytest.approx(1.0)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            shift_from_ab(-11.0, 1.0, 0.1)
        with pytest.raises(DomainError):
            shift_from_ab(0.0, -1.0, 0.1)

    @pytest.mark.parametrize(
        "a,b,gamma0",
        [
            (0.0, math.inf, 0.1),  # returned inf
            (math.inf, 1.0, 0.1),  # returned 0.0
            (math.nan, 1.0, 0.1),
            (0.0, math.nan, 0.1),
            (1e308, 1e-300, 1.0),  # tau underflows to 0
            (-1.0 + 1e-10, 1e300, 1.0),  # tau overflows
        ],
    )
    def test_tau_must_be_positive_and_finite(self, a, b, gamma0):
        with pytest.raises(DomainError):
            shift_from_ab(a, b, gamma0)

    @pytest.mark.parametrize(
        "fields,message",
        [
            ({"tau": 0.0, "a": 0.0}, "tau must be positive, got 0.0"),
            ({"tau": -1.0, "a": 0.0}, "tau must be positive, got -1.0"),
            ({"tau": 1.0, "a": -20.0}, "1 + a*gamma0 must be positive, got -1.0"),
        ],
    )
    def test_constructor_refuses_a_bad_shift(self, fields, message):
        # built directly, not through from_tau or from_ab
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            ShiftSpec(b=1.0, gamma0=0.1, **fields)

    def test_from_tau_roundtrip(self):
        shift = ShiftSpec.from_tau(0.8, 0.05)
        assert shift.b == 1.0
        assert shift_from_ab(shift.a, shift.b, 0.05) == pytest.approx(0.8, abs=1e-12)

    def test_inconsistent_fields_rejected(self):
        with pytest.raises(DomainError):
            ShiftSpec(tau=0.8, a=0.0, b=1.0, gamma0=0.05)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ShiftSpec.from_tau(1.5, 0.1, b=math.inf),
            lambda: ShiftSpec.from_tau(1.5, 0.1, b=math.nan),
            lambda: ShiftSpec.from_tau(math.inf, 0.1),
            lambda: ShiftSpec(tau=math.nan, a=0.0, b=1.0, gamma0=0.1),
            lambda: ShiftSpec(tau=1.0, a=math.nan, b=1.0, gamma0=0.1),
            lambda: ShiftSpec(tau=math.inf, a=math.inf, b=math.inf, gamma0=0.1),
        ],
        ids=["b-inf", "b-nan", "tau-inf", "tau-nan", "a-nan", "all-inf"],
    )
    def test_non_finite_fields_rejected(self, make):
        # inf / inf made the consistency residual NaN, which compared as consistent
        with pytest.raises(DomainError, match="must be"):
            make()

    @pytest.mark.parametrize("tau,b", [(1e-320, 1.0), (1e-300, 1e10)])
    def test_from_tau_overflow_names_tau_and_b(self, tau, b):
        # b/tau = inf would surface as "a must be finite", a field never passed
        with pytest.raises(DomainError, match=rf"tau={tau} is too small: b/tau overflows for b={b}"):
            ShiftSpec.from_tau(tau, 0.1, b=b)

    @pytest.mark.parametrize("gamma0", [0.0, -0.1, math.nan])
    def test_from_tau_checks_gamma0(self, gamma0):
        # 0 divided by zero, a negative CV gave a shift, and NaN was blamed on a
        with pytest.raises(GammaDomainError, match=rf"gamma must be finite and at least 1e-150, got {gamma0}"):
            ShiftSpec.from_tau(1.5, gamma0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ShiftSpec.in_control(-1.0),
            lambda: ShiftSpec(1.0, 0.0, 1.0, 0.0),
            lambda: ShiftSpec.in_control(math.nan),
        ],
        ids=["in-control-negative", "bare-zero", "in-control-nan"],
    )
    def test_checks_its_own_gamma0(self, make):
        # the first two gave a shift, and NaN was blamed on 1 + a*gamma0
        with pytest.raises(GammaDomainError, match="gamma must be finite and at least 1e-150"):
            make()

    @pytest.mark.parametrize("b", [1.0, 0.7, 3.3])
    def test_from_tau_refuses_gamma0_past_the_ceiling(self, b):
        # at gamma0 = 1.7e308, a = (b/tau - 1)/gamma0 is subnormal, and some
        # tau below 2^21 b were refused as an "inconsistent shift"
        message = r"gamma must be below 1e\+150 for its square to stay finite"
        for tau in b * 2.0 ** np.linspace(19.0, 21.0, 401):
            for gamma0 in (1e150, 1.7e308):
                with pytest.raises(GammaDomainError, match=message):
                    ShiftSpec.from_tau(tau, gamma0, b=b)
        assert ShiftSpec.from_tau(1.5 * b, math.nextafter(1e150, 0.0), b=b).tau == 1.5 * b

    @pytest.mark.parametrize("b", [1e-300, 0.5, 1.0, 1e10, 1e300])
    def test_from_tau_domain_is_tau_up_to_2_pow_21_b(self, b):
        # the round trip through a = (b/tau - 1)/gamma0 used to fail at
        # scattered tau below b/tau = 1.6e-7: (1, 3e6) passed, 1e15 did not
        exponents = math.log10(b) + np.linspace(-6, 20, 4001)
        taus = 10.0 ** exponents[exponents < 308]
        taus = np.concatenate((taus, b * 2.0**21 * np.array([1 - 2.0**-52, 1.0, 1 + 2.0**-52])))
        for tau in np.sort(taus):
            if tau <= 2.0**21 * b:
                shift = ShiftSpec.from_tau(tau, 0.1, b=b)
                assert shift_from_ab(shift.a, b, 0.1) == pytest.approx(tau, rel=1e-9)
            else:
                message = re.escape(f"tau={tau} is too large: b/tau is below 2**-21 for b={b}")
                with pytest.raises(DomainError, match=message):
                    ShiftSpec.from_tau(tau, 0.1, b=b)

    @settings(max_examples=400)
    @given(
        log_gamma0=hs.floats(-150.0, 3.0),
        log_b=hs.floats(-300.0, 300.0),
        log2_ratio=hs.floats(-60.0, 60.0),
        as_numpy=hs.booleans(),
    )
    def test_from_tau_refusals_monotone_in_tau(self, log_gamma0, log_b, log2_ratio, as_numpy):
        # at b/tau >= 2^-21 the shift is built and round-trips; below, tau
        # is refused as too large, and so is every larger finite tau
        wrap = np.float64 if as_numpy else float
        gamma0, b = 10.0**log_gamma0, 10.0**log_b
        tau = b / 2.0**log2_ratio
        if not 0.0 < tau < math.inf:
            return
        if b / tau >= 2.0**-21:
            shift = ShiftSpec.from_tau(wrap(tau), wrap(gamma0), b=wrap(b))
            assert shift.tau == tau
            return
        for larger in (tau, tau * (1 + 2.0**-52), tau * 2.0, tau * 1e10, tau * 1e300):
            if larger < math.inf:
                with pytest.raises(DomainError, match="is too large: b/tau is below 2"):
                    ShiftSpec.from_tau(wrap(larger), wrap(gamma0), b=wrap(b))

    def test_in_control(self):
        shift = ShiftSpec.in_control(0.1)
        assert shift.is_in_control
        assert shift.tau == 1.0 and shift.a == 0.0 and shift.b == 1.0


class TestObservedCvShifted:
    def test_in_control_reduction(self):
        me = MeasurementErrorModel(theta=0.03, eta=0.2, slope=1.1, reps=2)
        shift = ShiftSpec.in_control(0.1)
        assert observed_cv_shifted(0.1, shift, me) == pytest.approx(
            observed_cv_incontrol(0.1, me), abs=1e-15
        )

    def test_error_free_shift_is_tau_gamma(self):
        shift = ShiftSpec.from_tau(0.8, 0.05)
        assert observed_cv_shifted(0.05, shift, MeasurementErrorModel.identity()) == pytest.approx(
            0.8 * 0.05, abs=1e-15
        )

    def test_worked_decrease_value(self):
        # gamma0 sqrt(1)/(theta + 1/tau) evaluated directly
        me = MeasurementErrorModel(theta=0.05, eta=0.0, slope=1.0, reps=1)
        shift = ShiftSpec.from_tau(0.8, 0.05)
        assert observed_cv_shifted(0.05, shift, me) == pytest.approx(0.05 / (0.05 + 1.25), abs=1e-12)

    @pytest.mark.parametrize("gamma0", [-1.0, 0.0, math.nan])
    def test_bad_gamma0_is_a_gamma_domain_error(self, gamma0):
        # -1 gave -1.5 and 0 gave 0.0; gamma0 is checked before the shift's match
        shift = ShiftSpec.from_tau(1.5, 0.1)
        for me in (MeasurementErrorModel(), MeasurementErrorModel(theta=0.05, eta=0.28)):
            with pytest.raises(GammaDomainError, match="gamma must be finite and at least 1e-150"):
                observed_cv_shifted(gamma0, shift, me)

    def test_shift_for_another_gamma0_refused(self):
        # a shift built at gamma0 = 0.1 realizes another tau at 0.3: it gave 0.45
        shift = ShiftSpec.from_tau(1.5, 0.1)
        message = "shift was built for gamma0=0.1, but the process has gamma0=0.3"
        with pytest.raises(DomainError, match=message):
            observed_cv_shifted(0.3, shift, MeasurementErrorModel())
        assert observed_cv_shifted(0.1, shift, MeasurementErrorModel()) == pytest.approx(0.15, rel=1e-15)

    def test_ratio_tends_to_tau(self):
        # for b = 1, gamma1*/gamma0* -> tau as the error terms vanish
        tau = 1.3
        for eps in (1e-3, 1e-5):
            me = MeasurementErrorModel(theta=eps, eta=eps)
            shift = ShiftSpec.from_tau(tau, 0.1)
            ratio = observed_cv_shifted(0.1, shift, me) / observed_cv_incontrol(0.1, me)
            assert ratio == pytest.approx(tau, abs=5 * eps)


class TestObservedCv2Cdf:
    def test_monotone(self):
        xs = np.linspace(1e-4, 0.08, 40)
        vals = [cv2_cdf(float(x), 5, 0.095) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    @pytest.mark.slow
    def test_end_to_end_simulation_oracle(self):
        # item-level pipeline: true subgroups -> measurement -> averaged -> CV^2
        from pipeline import _pipeline_subgroups

        rng = np.random.Generator(np.random.Philox(key=20240104))
        me = MeasurementErrorModel(theta=0.05, eta=0.28, slope=1.0, reps=1)
        shift = ShiftSpec.in_control(0.1)
        g2 = _pipeline_subgroups(10_000_000, 5, 0.1, shift, me, rng)
        gamma_star = observed_cv_incontrol(0.1, me)
        x = 0.012
        emp = (g2 <= x).mean()
        se = math.sqrt(emp * (1 - emp) / len(g2))
        assert abs(cv2_cdf(x, 5, gamma_star) - emp) <= 3 * se
