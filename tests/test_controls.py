"""Market constants, the annuity denominator quadrature, and tabulated controls."""

from __future__ import annotations

import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from helpers import trapezoid_denominator, upper_incomplete_gamma
from tontine import controls as controls_module
from tontine.controls import (
    DEFAULT_GRID_STEP_YEARS,
    ControlSchedule,
    MarketParams,
    _log_integrand,
    beta,
    build_control_schedule,
    has_integrability_warning,
    log_control_rates,
    log_tail_integrals,
    merton_fraction,
    model_notes,
    schedule_csv,
)
from tontine.mortality import GompertzMakehamParams, cumulative_hazard, survival
from tontine.preferences import auto_rho, log_transformed_weight

from conftest import (BENCH_A1, BENCH_A2, BENCH_A3, BENCH_GAMMAS, ODE_REL_TOL, QUAD_REL_TOL,
                      make_schedule)


class TestMarketParams:
    def test_sharpe(self, market):
        assert market.sharpe == pytest.approx(0.35, rel=1e-15)

    def test_sigma_positive(self):
        with pytest.raises(ValueError):
            MarketParams(0.1, 0.0, 0.03)

    def test_nonpositive_premium_warns(self):
        with pytest.warns(UserWarning):
            MarketParams(0.03, 0.2, 0.03)

    @given(values=st.tuples(*[st.floats(allow_nan=True, allow_infinity=True)] * 3))
    @example(values=(0.1, math.inf, 0.03))
    @example(values=(0.1, 1e300, 0.03))  # sigma^2 overflows
    @example(values=(0.03, 1e-200, 0.03))  # sigma^2 underflows to 0
    @example(values=(1e300, 0.2, 0.03))  # the squared Sharpe ratio overflows
    @settings(max_examples=300, deadline=None)
    def test_finite_or_reject(self, values):
        mu, sigma, r = values
        valid = (all(map(math.isfinite, values)) and sigma > 0
                 and 0 < sigma * sigma < math.inf
                 and ((mu - r) / sigma) * ((mu - r) / sigma) < math.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # mu <= r
            if valid:
                market = MarketParams(mu, sigma, r)
                assert (market.mu, market.sigma, market.r) == values
            else:
                with pytest.raises(ValueError):
                    MarketParams(mu, sigma, r)


def _flat_market(rate: float) -> MarketParams:
    with pytest.warns(UserWarning):
        return MarketParams(mu=rate, sigma=0.2, r=rate)


class TestBeta:
    def test_degenerate_case_returns_r(self):
        market = _flat_market(0.03)
        for gamma in (0.5, -1.0, -7.0):
            assert beta(market, gamma, 0.03) == pytest.approx(0.03, abs=1e-18)

    def test_benchmark_arithmetic(self, market):
        assert beta(market, -3.0, auto_rho(-3.0, 0.03)) == pytest.approx(
            0.011484375, rel=1e-15
        )

    def test_equals_flat_consumption_rate_without_mortality(self, market):
        # With no mortality and no bequest over a very long horizon, 1/D(0)
        # reduces to the classical constant consumption-to-wealth rate, which
        # is exactly what beta must be.
        gamma, rho = -3.0, auto_rho(-3.0, 0.03)
        b = beta(market, gamma, rho)
        horizon = 3000.0
        mortality = GompertzMakehamParams(0.0, 0.0, 0.0, limiting_age_years=horizon)
        schedule = make_schedule(gamma, "none")
        d0 = math.exp(log_tail_integrals(0.0, schedule, mortality, market))
        assert d0 == pytest.approx(-np.expm1(-b * horizon) / b, rel=1e-11)
        assert 1.0 / d0 == pytest.approx(b, rel=1e-9)

    def test_income_slope_root_is_outside_domain(self, market):
        # e^{-rt}c*X* drifts like (mu-r)pi* - beta; under rho = r*gamma that
        # slope vanishes only at gamma = 2 (inadmissible) or as gamma -> -inf,
        # so no admissible risk aversion yields constant expected income.
        def slope(gamma: float) -> float:
            # rho = r*gamma written out so the slope can be probed past the
            # admissible gamma < 1 domain that auto_rho enforces
            return (market.mu - market.r) * merton_fraction(market, gamma) - beta(
                market, gamma, market.r * gamma
            )

        root = brentq(slope, 1.5, 3.0, xtol=1e-12)
        assert root == pytest.approx(2.0, abs=1e-9)
        assert slope(2.0 / 3.0) == pytest.approx(0.735, rel=1e-12)
        assert 0.0 < slope(-1e7) < 1e-7
        for gamma in (0.5, -1.0, -3.0, -11.0):
            assert slope(gamma) > 0.0


class TestMertonFraction:
    @pytest.mark.parametrize(
        "gamma,expected",
        [
            (0.5, 3.50),
            (-1.0, 0.875),
            (-3.0, 0.4375),
            (-5.0, 0.07 / 0.24),
            (-8.0, 0.07 / 0.36),
            (-11.0, 0.07 / 0.48),
        ],
    )
    def test_benchmark_values(self, market, gamma, expected):
        assert merton_fraction(market, gamma) == pytest.approx(expected, rel=1e-14)

    def test_independent_of_time_inputs(self, market):
        # a plain constant: no state enters
        assert merton_fraction(market, -3.0) == merton_fraction(market, -3.0)


class TestQuadratureConstants:
    def test_gauss_legendre_literals_are_leggauss(self):
        nodes, weights = np.polynomial.legendre.leggauss(16)
        assert np.array_equal(controls_module._GL_NODES, nodes)
        assert np.array_equal(controls_module._GL_WEIGHTS, weights)

    @pytest.mark.parametrize("values", [
        [3.0, 1.0, 2.0, 1.0, 3.0, 3.0],  # ties
        [0.0, -0.0, 1.0, -0.0],  # signed zeros: the first one the sort puts first
        [-0.0, 0.0, 0.0],
        [2.5],
        [],
        np.arange(50.0)[::-1],
        [[4.0, 4.0], [1.0, 2.0]],  # flattened, as np.unique flattens
        [7, 3, 7, 0, -2, 3],  # integer input
        np.array([10**15, 3, 10**15], dtype=np.int64),
    ])
    def test_sorted_unique_is_np_unique(self, values):
        expected = np.unique(values)
        got = controls_module._sorted_unique(values)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()  # -0.0 and 0.0 differ in bytes

    def test_sorted_unique_on_random_ties(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            values = rng.choice([-1.5, -0.0, 0.0, 0.25, 3.0, 1e300], size=rng.integers(1, 40))
            assert (controls_module._sorted_unique(values).tobytes()
                    == np.unique(values).tobytes())


class TestDenominatorIntegral:
    def test_exponential_closed_form(self):
        # constant hazard, no bequest: D(t) = (e^{-(beta+m)t} - e^{-(beta+m)T})/(beta+m)
        market = _flat_market(0.03)
        m = 0.05
        mortality = GompertzMakehamParams(0.0, 0.0, m, limiting_age_years=50.0)
        schedule = make_schedule(-3.0, "none", rho=0.03)
        b = beta(market, -3.0, 0.03)
        assert b == pytest.approx(0.03, abs=1e-18)
        rate = b + m
        for t in (0.0, 5.0, 17.3):
            expected = (np.exp(-rate * t) - np.exp(-rate * 50.0)) / rate
            got = math.exp(log_tail_integrals(t, schedule, mortality, market))
            assert got == pytest.approx(expected, rel=1e-11)

    @pytest.mark.parametrize("variant", ["power", "scaled_trimmed", "trimmed_off_grid"])
    def test_matches_trapezoid_oracle(self, variant, market, mortality, calibrated_cache):
        if variant == "scaled_trimmed":
            schedule = calibrated_cache(-3.0, variant)
        elif variant == "trimmed_off_grid":
            # the weight's kink at the horizon lies off the yearly panel edges
            schedule = make_schedule(-3.0, "trimmed", horizon_years=12.7)
        else:
            schedule = make_schedule(-3.0, variant)
        oracle = trapezoid_denominator(0.0, schedule, mortality, market)
        got = math.exp(log_tail_integrals(0.0, schedule, mortality, market))
        assert got == pytest.approx(oracle, rel=QUAD_REL_TOL)
        # the weekly schedule's D agrees with the oracle too
        controls = build_control_schedule(schedule, mortality, market)
        step = controls.grid[1] - controls.grid[0]
        for t in (0.0, 10.0, 30.0):
            i = round(t / step)
            assert controls.grid[i] == t
            oracle = trapezoid_denominator(t, schedule, mortality, market)
            assert controls.denominator[i] == pytest.approx(oracle, rel=QUAD_REL_TOL)

    @pytest.mark.parametrize("gamma", BENCH_GAMMAS)
    def test_gompertz_makeham_closed_form(self, gamma, market, mortality):
        # no bequest: with s = (beta + a3)/a2 and z_u = (a1/a2) e^{a2 u},
        # D(t) = (e^{a1/a2}/a2) (a1/a2)^s [Gamma(-s, z_t) - Gamma(-s, z_{T_max})]
        # (Milevsky 2006, The Calculus of Retirement Income); z_t crosses 1
        # near t = 25, so both routes of the incomplete gamma are read
        schedule = make_schedule(gamma, "none")
        a1, a2, a3 = mortality.a1, mortality.a2, mortality.a3
        s = (beta(market, gamma, schedule.rho) + a3) / a2
        if abs(s - round(s)) < 1e-6:
            pytest.skip(f"s = {s!r}: the downward recurrence loses accuracy near an integer")
        t = np.array([0.0, 1.0, 5.0, 12.5, 20.0, 25.0, 33.3, 45.0, 49.9])
        tail = upper_incomplete_gamma(-s, a1 / a2 * math.exp(a2 * mortality.limiting_age_years))
        expected = [a1 / a2 - math.log(a2) + s * math.log(a1 / a2)
                    + math.log(upper_incomplete_gamma(-s, a1 / a2 * math.exp(a2 * u)) - tail)
                    for u in t]
        got = log_tail_integrals(t, schedule, mortality, market)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("variant, kappa", [("power", None), ("scaled_power", 0.7)])
    @pytest.mark.parametrize("gamma", BENCH_GAMMAS)
    def test_pure_gompertz_power_closed_form(self, gamma, variant, kappa, market):
        # a3 = 0 and b_u = kappa lambda_u^gamma: with p = 1/(1-gamma) the
        # bequest term e^{-beta u} S_u kappa^p lambda_u^p is one more
        # incomplete gamma; with s = beta/a2 and z_u = (a1/a2) e^{a2 u},
        # D(t) is the `none` form plus
        # e^{a1/a2} a1^p (a2/a1)^{p-s}/a2 [Gamma(p-s, z_t) - Gamma(p-s, z_{T_max})],
        # times kappa^p when scaled
        mortality = GompertzMakehamParams(BENCH_A1, BENCH_A2, 0.0)
        schedule = make_schedule(gamma, variant, kappa=kappa)
        a1, a2 = mortality.a1, mortality.a2
        p = 1.0 / (1.0 - gamma)
        s = beta(market, gamma, schedule.rho) / a2
        for a in (-s, p - s):
            if a <= 0 and abs(a - round(a)) < 1e-6:
                pytest.skip(f"a = {a!r}: the downward recurrence loses accuracy near an integer")

        def log_gamma_difference(a: float, u: float) -> float:
            z_t, z_max = (a1 / a2 * math.exp(a2 * v) for v in (u, mortality.limiting_age_years))
            return math.log(upper_incomplete_gamma(a, z_t) - upper_incomplete_gamma(a, z_max))

        t = np.array([0.0, 1.0, 5.0, 12.5, 20.0, 25.0, 33.3, 45.0, 49.9])
        log_none = [a1 / a2 - math.log(a2) + s * math.log(a1 / a2) + log_gamma_difference(-s, u)
                    for u in t]
        log_bequest = [a1 / a2 + p * math.log(a1) + (p - s) * math.log(a2 / a1) - math.log(a2)
                       + p * math.log(kappa or 1.0) + log_gamma_difference(p - s, u)
                       for u in t]
        got = log_tail_integrals(t, schedule, mortality, market)
        np.testing.assert_allclose(got, np.logaddexp(log_none, log_bequest), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("t", [45.0, 48.0, 49.5])
    def test_steep_hazard_matches_dense_oracle(self, t, market):
        # at a2 = 0.2 a yearly panel near t spans up to 117 of cumulative hazard,
        # past what 16 Gauss-Legendre nodes resolve; the oracle is the dense
        # trapezoid sum, Richardson-extrapolated from 20,000 and 40,000 steps a year
        mortality = GompertzMakehamParams(BENCH_A1, 0.2, BENCH_A3)
        schedule = make_schedule(-3.0, "power")
        coarse, fine = (trapezoid_denominator(t, schedule, mortality, market, n)
                        for n in (20_000, 40_000))
        oracle = math.log((4.0 * fine - coarse) / 3.0)
        got = log_tail_integrals(t, schedule, mortality, market)
        assert got == pytest.approx(oracle, rel=0, abs=1e-9)

    def test_unresolvable_hazard_rejected(self, market):
        # a hazard of 1e300 a year gains more than 16 over any 2^-64-year panel
        mortality = GompertzMakehamParams(1e300, BENCH_A2, BENCH_A3)
        with pytest.raises(ValueError, match=r"hazard too steep.*a2=0\.1215"):
            log_tail_integrals(0.0, make_schedule(-3.0, "power"), mortality, market)

    def test_derivative_consistency(self, market, mortality, calibrated_cache):
        # d/dt log D = -f(t)/D(t) with f the integrand, checked by central
        # differences away from the bequest-horizon kink.
        schedule = calibrated_cache(-3.0, "scaled_trimmed")
        b = beta(market, schedule.gamma, schedule.rho)
        rng = np.random.default_rng(11)
        ts = rng.uniform(0.5, 45.0, size=80)
        ts = ts[np.abs(ts - schedule.horizon_years) > 0.5][:60]
        h = 1e-4
        for t in ts:
            log_d = log_tail_integrals(float(t), schedule, mortality, market)
            fd = (
                log_tail_integrals(float(t + h), schedule, mortality, market)
                - log_tail_integrals(float(t - h), schedule, mortality, market)
            ) / (2.0 * h)
            analytic = -np.exp(
                _log_integrand(np.array([t]), schedule, mortality, b)[0] - log_d
            )
            assert fd == pytest.approx(analytic, rel=ODE_REL_TOL)

    @pytest.mark.parametrize("gamma,variant", [
        *((g, v) for g in (-3.0, -11.0)
          for v in ("none", "power", "scaled_power", "trimmed", "scaled_trimmed")),
        # trimmed at gamma = 0.5 is left out: its integral diverges at H, so D
        # there depends on the mesh and the two layouts disagree
        (0.5, "none"), (0.5, "power"), (0.5, "scaled_power"),
    ])
    def test_base_age_shift_identity(self, gamma, variant, market, mortality):
        # starting the clock s years later (a1' = a1 e^{a2 s}, T_max' = T_max - s,
        # H' = H - s) shifts the hazard and every weight, so
        # log D'(t) = beta s + Lambda(s) + log D(t + s) exactly; the two sides
        # lie on different yearly panels
        kappa = 0.7 if variant.startswith("scaled") else None
        schedule = make_schedule(gamma, variant, kappa=kappa)
        b = beta(market, gamma, schedule.rho)
        t_max = mortality.limiting_age_years
        for s in (0.37, 3.5, 7.91):
            shifted_mortality = GompertzMakehamParams(
                mortality.a1 * math.exp(mortality.a2 * s), mortality.a2, mortality.a3,
                limiting_age_years=t_max - s)
            shifted = make_schedule(gamma, variant, kappa=kappa,
                                    horizon_years=schedule.horizon_years - s)
            t = np.linspace(0.0, t_max - s, 200, endpoint=False)
            got = log_tail_integrals(t, shifted, shifted_mortality, market)
            expected = (b * s + cumulative_hazard(s, mortality)
                        + log_tail_integrals(t + s, schedule, mortality, market))
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_domain_checks(self, market, mortality):
        schedule = make_schedule(-3.0, "power")
        with pytest.raises(ValueError):
            log_tail_integrals(-1.0, schedule, mortality, market)
        with pytest.raises(ValueError):
            log_tail_integrals(50.5, schedule, mortality, market)
        assert log_tail_integrals(50.0, schedule, mortality, market) == -np.inf
        # the kernel keeps the input's shape, gives a float for a scalar t,
        # and checks every point
        scalar = log_tail_integrals(5.0, schedule, mortality, market)
        assert isinstance(scalar, float) and scalar.shape == ()
        grid = np.array([[0.0, 5.0, 12.5], [30.0, 49.9, 50.0]])
        log_d = log_tail_integrals(grid, schedule, mortality, market)
        assert log_d.shape == grid.shape
        assert log_d[1, 2] == -np.inf
        for bad in (-1.0, 50.5, [1.0, -0.1], [[2.0], [50.5]]):
            with pytest.raises(ValueError):
                log_tail_integrals(bad, schedule, mortality, market)

    def test_integrability_flag(self):
        assert has_integrability_warning(make_schedule(0.5, "trimmed"))
        assert not has_integrability_warning(make_schedule(-0.5, "trimmed"))
        assert not has_integrability_warning(make_schedule(0.5, "power"))


class TestBuildControlSchedule:
    def test_grid_layout(self, controls_cache):
        controls = controls_cache(-3.0, "scaled_trimmed")
        assert isinstance(controls, ControlSchedule)
        assert controls.grid[0] == 0.0
        assert controls.grid[1] - controls.grid[0] == DEFAULT_GRID_STEP_YEARS
        # the terminal point, where D vanishes identically, is dropped
        assert len(controls.grid) == 2600
        assert controls.t_end == pytest.approx(50.0 - 1.0 / 52.0, rel=1e-12)
        assert np.allclose(np.diff(controls.grid), 1.0 / 52.0, rtol=1e-9)

    def test_positive_and_monotone(self, controls_cache):
        controls = controls_cache(-3.0, "scaled_trimmed")
        assert np.all(controls.denominator > 0.0)
        assert np.all(np.diff(controls.denominator) < 0.0)
        assert np.all(controls.c_star > 0.0)
        assert np.all(controls.alpha_star <= 1.0 + 1e-15)

    def test_definition_identity(self, market, mortality, controls_cache):
        # c*_t * D(t) = e^{-beta t} S_t on the whole grid
        controls = controls_cache(-3.0, "scaled_trimmed")
        lhs = controls.c_star * controls.denominator
        rhs = np.exp(-controls.beta * controls.grid) * survival(controls.grid, mortality)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=0)

    def test_ratio_identity(self, mortality, controls_cache, calibrated_cache):
        # (1 - alpha*_t)/c*_t equals the transformed bequest weight
        for gamma, variant in ((-3.0, "scaled_trimmed"), (-5.0, "power")):
            controls = controls_cache(gamma, variant)
            schedule = (
                calibrated_cache(gamma, variant)
                if variant == "scaled_trimmed"
                else make_schedule(gamma, variant)
            )
            expected = np.exp(
                log_transformed_weight(controls.grid, schedule, mortality)
            )
            got = (1.0 - controls.alpha_star) / controls.c_star
            assert np.allclose(got, expected, rtol=1e-12, atol=1e-15)

    def test_no_bequest_allocates_everything(self, market, mortality):
        controls = build_control_schedule(
            make_schedule(-3.0, "none"), mortality, market, grid_step=0.25
        )
        assert np.all(controls.alpha_star == 1.0)

    def test_scale_invariance_of_weights(self, market, mortality):
        # tripling kappa shifts 1-alpha by exactly 3^{1/(1-gamma)} after
        # accounting for the denominators
        gamma, kappa = -3.0, 0.5
        c1 = build_control_schedule(
            make_schedule(gamma, "scaled_power", kappa=kappa), mortality, market, grid_step=0.25
        )
        c3 = build_control_schedule(
            make_schedule(gamma, "scaled_power", kappa=3.0 * kappa), mortality, market,
            grid_step=0.25,
        )
        lhs = (1.0 - c3.alpha_star) / (1.0 - c1.alpha_star)
        rhs = 3.0 ** (1.0 / (1.0 - gamma)) * c1.denominator / c3.denominator
        assert np.allclose(lhs, rhs, rtol=1e-12)

    def test_initial_allocation_ordering_across_gamma(self, market, mortality):
        # with the unscaled power weight, the initial tontine allocation is
        # strictly decreasing in risk tolerance gamma
        alphas = []
        for gamma in (0.5, -1.0, -3.0, -5.0, -8.0, -11.0):
            controls = build_control_schedule(
                make_schedule(gamma, "power"), mortality, market, grid_step=0.25
            )
            alphas.append(controls.alpha_star[0])
        assert np.all(np.diff(alphas) < 0.0)
        assert alphas[0] > 0.99  # gamma = 0.5 keeps essentially everything pooled
        assert alphas[2] < 0.0  # gamma = -3 shorts the pool at time zero

    def test_interpolators(self, mortality, controls_cache):
        controls = controls_cache(-3.0, "scaled_trimmed")
        idx = np.array([0, 100, 1500, 2599])
        assert np.allclose(
            controls.consumption_at(controls.grid[idx]), controls.c_star[idx], rtol=1e-14
        )
        assert np.allclose(
            np.exp(controls.log_denominator_at(controls.grid[idx])),
            controls.denominator[idx],
            rtol=1e-14,
        )
        # off-grid values bracketed by neighbours (D decreasing)
        mid = 0.5 * (controls.grid[10] + controls.grid[11])
        d_mid = np.exp(controls.log_denominator_at(mid))
        assert controls.denominator[11] < d_mid < controls.denominator[10]

    @pytest.mark.parametrize("t", [0.0, 7.3, np.float64(19.99), 20.0 - 1.0 / 104.0, 20.0, 30.0])
    def test_scalar_queries_return_floats(self, controls_cache, t):
        # 19.99 and 20 - 1/104 lie in the last cell before the horizon
        controls = controls_cache(-3.0, "scaled_trimmed")
        for query in (controls.consumption_at, controls.bequest_fraction_at,
                      controls.log_denominator_at):
            value = query(t)
            assert isinstance(value, float) and np.ndim(value) == 0
            assert value == query(np.array([t]))[0]

    def test_bequest_fraction_across_cutoff(self, controls_cache):
        controls = controls_cache(-3.0, "scaled_trimmed")
        t = np.linspace(19.5, 20.5, 21)
        frac = controls.bequest_fraction_at(t)
        assert np.all(np.isfinite(frac))
        assert np.all((frac >= 0.0) & (frac <= 1.0))
        assert np.all(frac[t >= 20.0 + 1.0 / 52.0] == 0.0)

    def test_bequest_fraction_in_the_horizon_cell(self, market, mortality, controls_cache):
        # log(1 - alpha*) is -inf at H = 20, so log-linear interpolation would
        # read 0 across the last cell before it; the true value is positive
        controls = controls_cache(-3.0, "scaled_trimmed")
        schedule = controls.schedule
        step = controls.grid[1] - controls.grid[0]
        t = 20.0 - step * np.array([0.999, 0.75, 0.5, 0.25, 0.001])
        log_d = log_tail_integrals(t, schedule, mortality, market)
        _, log_exact = log_control_rates(t, log_d, schedule, mortality, controls.beta)
        got = controls.bequest_fraction_at(t)
        assert np.all(got > 0.0)
        # what is left is the interpolation error of log c*
        assert np.allclose(got, np.exp(log_exact), rtol=2e-6, atol=0)
        assert controls.bequest_fraction_at(20.0 - 1.0 / 104.0) == pytest.approx(0.00426, rel=1e-3)

    def test_trimmed_allocation_saturates_past_cutoff(self, controls_cache):
        controls = controls_cache(-3.0, "scaled_trimmed")
        past = controls.grid >= 20.0
        assert np.all(controls.alpha_star[past] == 1.0)

    def test_underflow_truncation_note(self, market):
        # a brutal constant hazard drives D below double precision well
        # before the limiting age; the grid must stop there and say so
        mortality = GompertzMakehamParams(0.0, 0.0, 16.0)
        controls = build_control_schedule(
            make_schedule(-3.0, "none"), mortality, market, grid_step=0.25
        )
        assert any("truncation" in note for note in controls.warnings)
        assert controls.t_end < 45.0
        assert np.isfinite(controls.log_denominator[-1])

    def test_truncation_note_counts_only_grid_points(self, market, mortality):
        # 200 grid points below the limiting age (which is never on the grid);
        # 172 survive the underflow cut, so 28 were dropped
        mortality = GompertzMakehamParams(mortality.a1, mortality.a2, 16.0)
        controls = build_control_schedule(
            make_schedule(-3.0, "none"), mortality, market, grid_step=0.25
        )
        assert len(controls.grid) == 172
        assert any("dropped 28 trailing grid points" in note for note in controls.warnings)

    def test_notes_begin_with_the_model_notes(self, mortality):
        # the integrability and mu <= r notes come before any grid-based one
        with pytest.warns(UserWarning, match="mu <= r"):
            market = MarketParams(0.03, 0.20, 0.03)
        schedule = make_schedule(0.5, "trimmed")
        notes = model_notes(schedule, market)
        assert [note.split(":")[0] for note in notes] == ["integrability", "mu <= r"]
        controls = build_control_schedule(schedule, mortality, market, grid_step=0.25)
        assert controls.warnings[:2] == notes
        assert model_notes(make_schedule(-0.5, "trimmed"), MarketParams(0.10, 0.20, 0.03)) == ()

    def test_divergent_cell_matches_per_point_value(self, market, mortality, controls_cache):
        # the trimmed gamma > 0 integral diverges, so D depends on the panels;
        # the schedule must use the same panels as the per-point route
        controls = controls_cache(0.5, "trimmed")
        schedule = make_schedule(0.5, "trimmed")
        for i in (0, 260, 520, 1000, 1040, 2000):  # t = 0, 5, 10, 19.23, 20, 38.46
            t = float(controls.grid[i])
            assert controls.log_denominator[i] == log_tail_integrals(
                t, schedule, mortality, market
            )

    def test_integrability_note_for_positive_gamma_trimmed(self, market, mortality):
        controls = build_control_schedule(
            make_schedule(0.5, "trimmed"), mortality, market, grid_step=0.25
        )
        assert any("integrability" in note for note in controls.warnings)
        assert np.all(np.isfinite(controls.log_denominator))

    def test_nonpositive_premium_note(self, mortality):
        market = _flat_market(0.03)
        controls = build_control_schedule(
            make_schedule(-3.0, "none"), mortality, market, grid_step=0.25
        )
        assert any("mu <= r" in note for note in controls.warnings)

    def test_grid_step_validation(self, market, mortality):
        schedule = make_schedule(-3.0, "none")
        with pytest.raises(ValueError):
            build_control_schedule(schedule, mortality, market, grid_step=0.3)
        with pytest.raises(ValueError):
            build_control_schedule(schedule, mortality, market, grid_step=0.0)
        with pytest.raises(ValueError):
            build_control_schedule(schedule, mortality, market, grid_step=50.0)

    def test_denominator_past_float64_rejected(self, market, mortality):
        # power weights at gamma = 0.95 put D(0) near e^1158; gamma = 0.93 gives 1.2e248
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="gamma=0.95"):
                build_control_schedule(make_schedule(0.95, "power"), mortality, market)
            controls = build_control_schedule(make_schedule(0.93, "power"), mortality, market)
        assert controls.denominator[0] == pytest.approx(1.2e248, rel=0.01)
        assert np.all(np.isfinite(controls.c_star)) and controls.spd0 < np.inf

    def test_memory_bound_checked_before_allocating(self, monkeypatch, market, mortality):
        # the grid's arrays, counted per point, against physical memory
        schedule = make_schedule(-3.0, "none")
        n = 2600
        need = 8 * controls_module._GRID_ARRAYS * n
        pages = {"SC_PAGE_SIZE": 8, "SC_PHYS_PAGES": need // 8 - 1}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        tracemalloc.start()
        try:
            with pytest.raises(MemoryError, match="physical memory"):
                build_control_schedule(schedule, mortality, market, grid_step=1 / 52)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n  # refused before any per-point array
        pages["SC_PHYS_PAGES"] = need // 8
        controls = build_control_schedule(schedule, mortality, market, grid_step=1 / 52)
        assert controls.grid.size == n

    def test_arrays_are_read_only(self, controls_cache):
        controls = controls_cache(-3.0, "scaled_trimmed")
        with pytest.raises(ValueError):
            controls.alpha_star[0] = 0.0


class TestScheduleCsv:
    def test_format(self, market, mortality):
        controls = build_control_schedule(
            make_schedule(-3.0, "none"), mortality, market, grid_step=0.5
        )
        text = schedule_csv(controls)
        lines = text.strip().splitlines()
        assert lines[0] == "t,age,pi_star,c_star,alpha_star,D"
        assert len(lines) == 1 + len(controls.grid)
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0
        assert first[1] == 65.0
        assert first[2] == pytest.approx(0.4375, rel=1e-12)
        assert first[4] == 1.0
