"""Closed-form income/bequest/wealth curves, the optimal value, figure tables."""

from __future__ import annotations

import numpy as np
import pytest

from tontine.analytics import (
    BENCHMARK_GAMMAS,
    FEASIBLE_GAMMAS,
    alpha_curve,
    expected_discounted_bequest_value,
    expected_discounted_income,
    expected_wealth,
    figure_table_csv,
    income_csv,
    income_curve,
    income_log_slope,
)
from tontine.controls import beta, log_tail_integrals
from tontine.mortality import survival
from tontine.preferences import CalibrationRequired, auto_rho
from tontine.simulate import SimulationConfig, simulate_wealth, value_function

from conftest import make_schedule


class TestIncomeLogSlope:
    def test_positive_and_shrinking_with_risk_aversion(self, market):
        slopes = [
            income_log_slope(market, g, auto_rho(g, market.r)) for g in FEASIBLE_GAMMAS
        ]
        assert all(s > 0.0 for s in slopes)
        assert np.all(np.diff(slopes) < 0.0)  # gamma = -1 steepest, -11 flattest

    def test_matches_direct_formula(self, market):
        gamma, rho = -3.0, auto_rho(-3.0, market.r)
        expected = 0.07 * 0.4375 - beta(market, gamma, rho)
        assert income_log_slope(market, gamma, rho) == pytest.approx(expected, rel=1e-15)


class TestExpectedIncome:
    def test_initial_value_is_wealth_over_annuity_factor(
        self, market, mortality, calibrated_cache
    ):
        schedule = calibrated_cache(-3.0, "scaled_trimmed")
        d0 = np.exp(log_tail_integrals(0.0, schedule, mortality, market))
        assert expected_discounted_income(
            0.0, schedule, market, mortality, x0=100_000.0
        ) == pytest.approx(100_000.0 / d0, rel=1e-13)

    def test_decomposes_into_consumption_times_wealth(
        self, market, mortality, calibrated_cache
    ):
        # e^{-rt} c*_t E[X*_t] recomputed from its factors
        schedule = calibrated_cache(-3.0, "scaled_trimmed")
        b = beta(market, schedule.gamma, schedule.rho)
        rng = np.random.default_rng(17)
        for t in rng.uniform(0.0, 45.0, size=20):
            log_d = log_tail_integrals(float(t), schedule, mortality, market)
            c_star = np.exp(-b * t - log_d) * survival(t, mortality)
            lhs = expected_discounted_income(float(t), schedule, market, mortality)
            rhs = (
                np.exp(-market.r * t)
                * c_star
                * expected_wealth(float(t), schedule, market, mortality)
            )
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_initial_income_ordering_across_gamma(self, market, mortality, calibrated_cache):
        incomes = [
            expected_discounted_income(
                0.0, calibrated_cache(g, "scaled_trimmed"), market, mortality
            )
            for g in (-3.0, -5.0, -8.0, -11.0)
        ]
        assert np.all(np.diff(incomes) < 0.0)

    def test_no_bequest_pays_more_initially(self, market, mortality, calibrated_cache):
        none = make_schedule(-3.0, "none")
        for bearing in (calibrated_cache(-3.0, "scaled_trimmed"), make_schedule(-3.0, "power")):
            assert expected_discounted_income(
                0.0, none, market, mortality
            ) > expected_discounted_income(0.0, bearing, market, mortality)

    def test_monotone_increasing_under_positive_slope(self, market, mortality, calibrated_cache):
        schedule = calibrated_cache(-3.0, "scaled_trimmed")
        t = np.linspace(0.0, 45.0, 181)
        vals = expected_discounted_income(t, schedule, market, mortality)
        assert np.all(np.diff(vals) > 0.0)

    def test_uncalibrated_scaled_schedule_raises(self, market, mortality):
        schedule = make_schedule(-3.0, "scaled_trimmed")
        with pytest.raises(CalibrationRequired) as excinfo:
            expected_discounted_income(0.0, schedule, market, mortality)
        assert "calibrate_kappa" in str(excinfo.value)

    def test_matches_monte_carlo_at_ten_years(
        self, market, mortality, controls_cache, calibrated_cache
    ):
        controls = controls_cache(-3.0, "scaled_trimmed")
        schedule = calibrated_cache(-3.0, "scaled_trimmed")
        config = SimulationConfig(n_paths=20_000, horizon=10.0, step=1.0 / 26.0, seed=61)
        result = simulate_wealth(config, controls, market, mortality)
        j = int(np.argmin(np.abs(result.times - 10.0)))
        closed = expected_discounted_income(
            10.0, schedule, market, mortality, x0=config.initial_wealth
        )
        dev = abs(result.summary["mean_income"][j] - closed)
        assert dev <= 3.0 * result.summary["se_income"][j]


class TestExpectedWealth:
    def test_starts_at_initial_wealth(self, market, mortality, calibrated_cache):
        schedule = calibrated_cache(-3.0, "scaled_trimmed")
        assert expected_wealth(0.0, schedule, market, mortality, x0=250.0) == pytest.approx(
            250.0, rel=1e-12
        )

    def test_matches_monte_carlo(self, market, mortality, controls_cache, calibrated_cache):
        controls = controls_cache(-3.0, "scaled_trimmed")
        schedule = calibrated_cache(-3.0, "scaled_trimmed")
        config = SimulationConfig(n_paths=20_000, horizon=10.0, step=1.0 / 26.0, seed=62)
        result = simulate_wealth(config, controls, market, mortality)
        j = int(np.argmin(np.abs(result.times - 10.0)))
        sample = result.wealth_paths[:, j]
        closed = expected_wealth(10.0, schedule, market, mortality, x0=config.initial_wealth)
        se = sample.std(ddof=1) / np.sqrt(len(sample))
        assert abs(sample.mean() - closed) <= 3.0 * se


class TestBequestValue:
    def test_reweights_income_by_transformed_weight(
        self, market, mortality, calibrated_cache
    ):
        schedule = calibrated_cache(-3.0, "scaled_trimmed")
        t = np.array([0.0, 5.0, 15.0])
        income = expected_discounted_income(t, schedule, market, mortality)
        ratio = expected_discounted_bequest_value(t, schedule, market, mortality) / income
        from tontine.preferences import log_transformed_weight

        assert np.allclose(ratio, np.exp(log_transformed_weight(t, schedule, mortality)),
                           rtol=1e-12)

    def test_zero_after_cutoff(self, market, mortality, calibrated_cache):
        schedule = calibrated_cache(-3.0, "scaled_trimmed")
        assert expected_discounted_bequest_value(25.0, schedule, market, mortality) == 0.0

    def test_equals_initial_wealth_at_calibrated_start(
        self, market, mortality, calibrated_cache
    ):
        # alpha*_0 = 0: dying at the outset leaves the whole account to the estate
        schedule = calibrated_cache(-3.0, "scaled_trimmed")
        lhs = expected_discounted_bequest_value(
            0.0, schedule, market, mortality, x0=100_000.0
        )
        assert lhs == pytest.approx(100_000.0, rel=1e-10)


class TestObjectiveValue:
    """V(0, X0) = value_function(0, X0, controls), the optimal value."""

    def test_homogeneity_in_initial_wealth(self, controls_cache):
        controls = controls_cache(-3.0, "scaled_trimmed")
        v1 = value_function(0.0, 1.0, controls)
        vk = value_function(0.0, 7.0, controls)
        assert vk == pytest.approx(7.0**controls.gamma * v1, rel=1e-12)

    def test_sign_follows_gamma(self, controls_cache):
        assert value_function(0.0, 100_000.0, controls_cache(-3.0, "scaled_trimmed")) < 0.0
        assert value_function(0.0, 100_000.0, controls_cache(0.5, "power")) > 0.0


class TestInitialWealthValidation:
    @pytest.mark.parametrize("x0", [float("nan"), float("inf"), float("-inf"), 0.0, -5.0])
    @pytest.mark.parametrize("curve", [
        lambda s, m, h, x0: expected_discounted_income(0.0, s, m, h, x0),
        lambda s, m, h, x0: expected_discounted_bequest_value(0.0, s, m, h, x0),
        lambda s, m, h, x0: expected_wealth(1.0, s, m, h, x0),
        lambda s, m, h, x0: income_curve(s, m, h, x0, grid=[0.0, 1.0]),
    ], ids=["income", "bequest_value", "wealth", "income_curve"])
    def test_rejects_non_finite_or_non_positive_x0(
        self, market, mortality, calibrated_cache, curve, x0
    ):
        schedule = calibrated_cache(-3.0, "scaled_trimmed")
        with pytest.raises(ValueError, match="x0 must be positive and finite"):
            curve(schedule, market, mortality, x0)


class TestAlphaCurve:
    def test_agrees_with_tabulated_schedule(
        self, market, mortality, calibrated_cache, controls_cache
    ):
        # direct per-point quadrature vs the single-sweep suffix accumulation
        schedule = calibrated_cache(-3.0, "scaled_trimmed")
        controls = controls_cache(-3.0, "scaled_trimmed")
        idx = np.array([0, 52, 520, 1040, 2080])
        grid = controls.grid[idx]
        direct = alpha_curve(schedule, market, mortality, grid)
        assert np.allclose(direct, controls.alpha_star[idx], rtol=1e-10, atol=1e-12)


class TestIncomeCurve:
    def test_default_grid_and_fields(self, market, mortality, calibrated_cache):
        schedule = calibrated_cache(-3.0, "scaled_trimmed")
        curve = income_curve(schedule, market, mortality)
        assert curve.times[0] == 0.0
        assert curve.times[1] - curve.times[0] == 0.25
        assert curve.times[-1] < 50.0
        assert np.all(np.isfinite(curve.expected_income))
        # calibrated start: everything goes to the estate at t = 0
        assert curve.expected_bequest_fraction[0] == pytest.approx(1.0, abs=1e-10)
        assert np.all(curve.expected_bequest_fraction[curve.times >= 20.0] == 0.0)

    def test_bequest_fraction_is_exp_of_its_log(self, market, mortality, controls_cache):
        # 1 - alpha* is exp(log(1 - alpha*)), as in the schedule, not the
        # complement of alpha* = 1 - exp(...), which loses up to 1.06e-12
        # relative here, where 1 - alpha* falls far below 1
        curve = income_curve(make_schedule(0.5, "power"), market, mortality)
        controls = controls_cache(0.5, "power")
        weekly = np.arange(0, len(controls.grid), 13)  # the quarter-year points
        quarterly = np.arange(len(weekly))
        np.testing.assert_array_equal(controls.grid[weekly], curve.times[quarterly])
        np.testing.assert_array_max_ulp(curve.expected_bequest_fraction[quarterly],
                                        np.exp(controls.log_bequest_fraction[weekly]), maxulp=2)

    def test_denominator_past_float64_rejected(self, market, mortality):
        # X0 / D(0) would round to 0 in every cell, as build_control_schedule refuses
        with pytest.raises(ValueError, match=r"D\(0\) = exp\(1158\.\d+\) overflows float64 "
                                             r"at gamma=0\.95"):
            income_curve(make_schedule(0.95, "power"), market, mortality)

    def test_income_csv_format(self, market, mortality, calibrated_cache):
        schedule = calibrated_cache(-3.0, "scaled_trimmed")
        curve = income_curve(schedule, market, mortality, grid=np.array([0.0, 1.0, 2.0]))
        lines = income_csv(curve).strip().splitlines()
        assert lines[0] == "t,age,expected_income,expected_bequest_fraction"
        assert len(lines) == 4
        row = [float(v) for v in lines[2].split(",")]
        assert row[0] == 1.0
        assert row[1] == 66.0


class TestFigureTableCsv:
    def test_layout(self):
        grid = np.array([0.0, 0.5, 1.0])
        cols = {"a": np.array([1.0, 2.0, 3.0]), "b": np.array([4.0, 5.0, 6.0])}
        lines = figure_table_csv(cols, grid).strip().splitlines()
        assert lines[0] == "t,age,a,b"
        assert [float(v) for v in lines[1].split(",")] == [0.0, 65.0, 1.0, 4.0]
        assert len(lines) == 4

    def test_column_off_the_grid_length_rejected(self):
        # a column longer or shorter than the grid is refused, not cut to fit
        for short in ({"a": np.array([1.0, 2.0])}, {"a": np.arange(3.0), "b": np.ones(4)}):
            with pytest.raises(ValueError):
                figure_table_csv(short, np.array([0.0, 0.5, 1.0]))


class TestConstants:
    def test_gamma_sweeps(self):
        assert BENCHMARK_GAMMAS == (0.5, -1.0, -3.0, -5.0, -8.0, -11.0)
        assert FEASIBLE_GAMMAS == tuple(g for g in BENCHMARK_GAMMAS if g < 0)
