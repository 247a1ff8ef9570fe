"""Bequest-weight variants, transformed weights, and the kappa calibration."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import bisect_kappa
from tontine.controls import log_denominator_integral
from tontine.mortality import GompertzMakehamParams, force_of_mortality
from tontine.preferences import (
    DEFAULT_BEQUEST_HORIZON_YEARS,
    SCALED_VARIANTS,
    VARIANTS,
    CalibrationRequired,
    PreferenceSchedule,
    auto_rho,
    bequest_weight,
    calibrate_kappa,
    log_transformed_weight,
)

from conftest import BENCH_A1, BENCH_A3, BENCH_GAMMAS, FEASIBLE_GAMMAS, make_schedule

# Regression anchor for the headline calibration (gamma = -3, scaled_trimmed,
# benchmark market and hazard law): frozen from a converged run and
# cross-checked by the bisection oracle below.
KAPPA_GAMMA_M3_SCALED_TRIMMED = 0.15410381739109563


class TestAutoRho:
    def test_value(self):
        assert auto_rho(-3.0, 0.03) == pytest.approx(-0.09, abs=1e-18)
        assert auto_rho(0.5, 0.03) == pytest.approx(0.015, abs=1e-18)

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            auto_rho(1.0, 0.03)
        with pytest.raises(ValueError):
            auto_rho(0.0, 0.03)


class TestScheduleValidation:
    def test_gamma_domain(self):
        for bad in (1.0, 1.5, 0.0):
            with pytest.raises(ValueError):
                make_schedule(bad, "power")

    def test_kappa_rules(self):
        with pytest.raises(ValueError):
            make_schedule(-3.0, "power", kappa=1.0)
        with pytest.raises(ValueError):
            make_schedule(-3.0, "scaled_power", kappa=-1.0)
        with pytest.raises(ValueError):
            make_schedule(-3.0, "scaled_power", kappa=0.0)
        schedule = make_schedule(-3.0, "scaled_power", kappa=2.0)
        assert schedule.kappa == 2.0

    def test_horizon_positive(self):
        with pytest.raises(ValueError):
            make_schedule(-3.0, "trimmed", horizon_years=0.0)

    @given(values=st.tuples(*[st.floats(allow_nan=True, allow_infinity=True)] * 4))
    @example(values=(-math.inf, -0.09, 1.0, 20.0))
    @example(values=(-3.0, -0.09, 1.0, math.inf))
    @settings(max_examples=300, deadline=None)
    def test_finite_or_reject(self, values):
        gamma, rho, kappa, horizon = values
        valid = (all(map(math.isfinite, values)) and gamma < 1 and gamma != 0
                 and kappa > 0 and horizon > 0)
        kwargs = dict(gamma=gamma, rho=rho, variant="scaled_trimmed", kappa=kappa,
                      horizon_years=horizon)
        if valid:
            schedule = PreferenceSchedule(**kwargs)
            assert (schedule.gamma, schedule.rho, schedule.kappa,
                    schedule.horizon_years) == values
        else:
            with pytest.raises(ValueError):
                PreferenceSchedule(**kwargs)

    def test_default_horizon(self):
        assert make_schedule(-3.0, "trimmed").horizon_years == 20.0
        assert DEFAULT_BEQUEST_HORIZON_YEARS == 20.0

    def test_unknown_variant_lists_valid_names(self):
        with pytest.raises(ValueError) as excinfo:
            make_schedule(-3.0, "bogus")
        for name in VARIANTS:
            assert name in str(excinfo.value)

    def test_base_schedule(self):
        assert make_schedule(-3.0, "scaled_power", kappa=2.0).base_schedule().variant == "power"
        assert make_schedule(-3.0, "scaled_trimmed").base_schedule().variant == "trimmed"
        with pytest.raises(ValueError):
            make_schedule(-3.0, "power").base_schedule()


class TestBequestWeight:
    def test_none_is_zero(self, mortality):
        schedule = make_schedule(-3.0, "none")
        t = np.linspace(0.0, 50.0, 7)
        assert np.all(bequest_weight(t, schedule, mortality) == 0.0)

    def test_power_at_zero(self, mortality):
        schedule = make_schedule(-3.0, "power")
        expected = (BENCH_A1 + BENCH_A3) ** (-3.0)
        assert bequest_weight(0.0, schedule, mortality) == pytest.approx(
            expected, rel=1e-14
        )

    def test_scaled_power_scales(self, mortality):
        base = make_schedule(-3.0, "power")
        scaled = make_schedule(-3.0, "scaled_power", kappa=2.0)
        t = np.linspace(0.0, 40.0, 9)
        assert np.allclose(
            bequest_weight(t, scaled, mortality),
            2.0 * bequest_weight(t, base, mortality),
            rtol=1e-14,
        )

    def test_trimmed_inside_formula(self, mortality):
        schedule = make_schedule(-3.0, "trimmed")
        lam5 = force_of_mortality(5.0, mortality)
        lam20 = force_of_mortality(20.0, mortality)
        expected = (1.0 / lam5 - 1.0 / lam20) ** 3.0
        assert bequest_weight(5.0, schedule, mortality) == pytest.approx(
            expected, rel=1e-13
        )

    def test_trimmed_zero_at_and_past_cutoff(self, mortality):
        schedule = make_schedule(-3.0, "trimmed")
        assert bequest_weight(20.0, schedule, mortality) == 0.0
        assert np.all(
            bequest_weight(np.array([20.0, 25.0, 49.0]), schedule, mortality) == 0.0
        )

    def test_trimmed_transformed_weight_vanishes_at_cutoff(self, mortality):
        # b^{1/(1-gamma)} -> 0 from the left: the integrand is continuous at H
        schedule = make_schedule(-3.0, "trimmed")
        t = 20.0 - np.geomspace(1e-2, 1e-10, 9)
        vals = np.exp(log_transformed_weight(t, schedule, mortality))
        assert np.all(np.diff(vals) < 0.0)
        assert vals[-1] < 1e-7

    def test_trimmed_requires_increasing_hazard(self):
        schedule = make_schedule(-3.0, "trimmed")
        with pytest.raises(ValueError):
            bequest_weight(1.0, schedule, GompertzMakehamParams(0.0, 0.1, 0.01))
        with pytest.raises(ValueError):
            bequest_weight(1.0, schedule, GompertzMakehamParams(0.01, 0.0, 0.01))

    def test_uncalibrated_scaled_raises(self, mortality):
        for variant in SCALED_VARIANTS:
            schedule = make_schedule(-3.0, variant)
            with pytest.raises(CalibrationRequired) as excinfo:
                bequest_weight(1.0, schedule, mortality)
            assert "calibrate_kappa" in str(excinfo.value)

    def test_negative_time_rejected(self, mortality):
        with pytest.raises(ValueError):
            bequest_weight(-1.0, make_schedule(-3.0, "power"), mortality)

    @given(
        t=st.floats(min_value=0.0, max_value=50.0),
        gamma=st.sampled_from(BENCH_GAMMAS),
        variant=st.sampled_from(("none", "power", "trimmed")),
    )
    @settings(max_examples=200, deadline=None)
    def test_weight_is_nonnegative(self, t, gamma, variant, mortality):
        schedule = make_schedule(gamma, variant)
        assert bequest_weight(t, schedule, mortality) >= 0.0


class TestLogTransformedWeight:
    @pytest.mark.parametrize("variant", ["power", "trimmed"])
    @pytest.mark.parametrize("gamma", [0.5, -1.0, -3.0, -11.0])
    def test_consistent_with_direct_power(self, variant, gamma, mortality):
        schedule = make_schedule(gamma, variant)
        rng = np.random.default_rng(5)
        t = rng.uniform(0.0, 19.0, size=40)
        b = bequest_weight(t, schedule, mortality)
        log_direct = np.where(b > 0.0, np.log(b) / (1.0 - gamma), -np.inf)
        assert np.allclose(
            log_transformed_weight(t, schedule, mortality),
            log_direct,
            rtol=1e-12,
            atol=1e-12,
        )

    def test_scaled_offset(self, mortality):
        base = make_schedule(-3.0, "trimmed")
        scaled = make_schedule(-3.0, "scaled_trimmed", kappa=0.5)
        t = np.linspace(0.0, 19.0, 13)
        offset = np.log(0.5) / 4.0
        assert np.allclose(
            log_transformed_weight(t, scaled, mortality),
            log_transformed_weight(t, base, mortality) + offset,
            rtol=1e-13,
            atol=1e-13,
        )

    def test_none_is_minus_inf(self, mortality):
        schedule = make_schedule(-3.0, "none")
        assert log_transformed_weight(3.0, schedule, mortality) == -np.inf

    def test_extreme_gamma_stays_finite(self, mortality):
        # the direct weight would overflow a double; the log path must not
        schedule = make_schedule(-200.0, "trimmed")
        val = log_transformed_weight(1.0, schedule, mortality)
        assert np.isfinite(val)


class TestCalibrateKappa:
    @pytest.mark.parametrize("variant", SCALED_VARIANTS)
    def test_feasibility_sign(self, variant, market, mortality):
        for gamma in BENCH_GAMMAS:
            result = calibrate_kappa(make_schedule(gamma, variant), market, mortality)
            if gamma < 0:
                assert result.feasible
                assert result.kappa > 0.0
                assert result.residual <= 1e-10
            else:
                assert not result.feasible
                assert np.isnan(result.kappa)
                assert result.residual == np.inf

    def test_regression_anchor(self, market, mortality):
        result = calibrate_kappa(
            make_schedule(-3.0, "scaled_trimmed"), market, mortality
        )
        assert result.kappa == pytest.approx(KAPPA_GAMMA_M3_SCALED_TRIMMED, rel=1e-12)

    @pytest.mark.parametrize(
        "gamma,variant",
        [(-1.0, "scaled_trimmed"), (-3.0, "scaled_trimmed"), (-8.0, "scaled_trimmed"),
         (-3.0, "scaled_power")],
    )
    def test_matches_bisection_oracle(self, gamma, variant, market, mortality):
        schedule = make_schedule(gamma, variant)
        closed = calibrate_kappa(schedule, market, mortality).kappa
        oracle = bisect_kappa(schedule, market, mortality)
        assert closed == pytest.approx(oracle, rel=1e-8)

    def test_matches_fully_independent_oracle(self, market, mortality):
        # bisection + dense trapezoid integrals: nothing shared with the library
        schedule = make_schedule(-3.0, "scaled_trimmed")
        closed = calibrate_kappa(schedule, market, mortality).kappa
        oracle = bisect_kappa(
            schedule, market, mortality, quadrature="trapezoid", steps_per_year=4000
        )
        assert closed == pytest.approx(oracle, rel=1e-6)

    def test_initial_allocation_decreasing_in_kappa(self, market, mortality):
        # more bequest scale -> more estate -> less tontine at time zero
        schedule = make_schedule(-3.0, "scaled_trimmed")
        kappa_star = calibrate_kappa(schedule, market, mortality).kappa
        alphas = []
        for factor in np.geomspace(1e-3, 1e3, 13):
            trial = schedule.with_kappa(kappa_star * factor)
            alpha0 = 1.0 - np.exp(
                log_transformed_weight(0.0, trial, mortality)
                - log_denominator_integral(0.0, trial, mortality, market)
            )
            alphas.append(alpha0)
        assert np.all(np.diff(alphas) < 0.0)
        # and the calibrated point itself sits at zero
        assert abs(alphas[6]) < 1e-12

    def test_non_scaled_variant_rejected(self, market, mortality):
        with pytest.raises(ValueError):
            calibrate_kappa(make_schedule(-3.0, "power"), market, mortality)

    def test_warns_off_convention_rho(self, market, mortality):
        schedule = make_schedule(-3.0, "scaled_trimmed", rho=0.02)
        with pytest.warns(UserWarning):
            calibrate_kappa(schedule, market, mortality)


class TestFeasibilityBoundary:
    """Sign structure of the feasibility gap f(gamma) = g_0 - B.

    B is the bequest-tilted part of the annuity denominator at kappa = 1;
    the calibration is solvable exactly when f > 0.  The gap changes sign
    at gamma = 0 and is computed here from integrals alone (no calibration
    code path).
    """

    @staticmethod
    def _gap(gamma: float, market, mortality) -> float:
        base = make_schedule(gamma, "power")
        none = make_schedule(gamma, "none")
        b_val = math.exp(log_denominator_integral(0.0, base, mortality, market)) - math.exp(
            log_denominator_integral(0.0, none, mortality, market)
        )
        g0 = np.exp(log_transformed_weight(0.0, base, mortality))
        return float(g0 - b_val)

    def test_vanishes_at_gamma_zero(self, market, mortality):
        for gamma in (1e-6, -1e-6):
            assert abs(self._gap(gamma, market, mortality)) <= 1e-4

    def test_positive_for_negative_gamma(self, market, mortality):
        for gamma in FEASIBLE_GAMMAS:
            assert self._gap(gamma, market, mortality) > 0.0

    def test_negative_for_positive_gamma(self, market, mortality):
        assert self._gap(0.5, market, mortality) < 0.0
