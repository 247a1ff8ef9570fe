"""Closed-form expected income, bequest and wealth trajectories, and the
figure-level aggregate tables (CSV-ready, one column per gamma).

Expected discounted income at rate r is X0 * e^{((mu-r)pi* - beta) t} / D(0);
it is constant exactly when (mu-r)pi* = beta, monotone increasing when the
equity premium pushes (mu-r)pi* above beta.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .controls import (
    MarketParams,
    beta,
    check_log_d0,
    log_control_rates,
    log_tail_integrals,
    merton_fraction,
)
from .mortality import GompertzMakehamParams, _check_times, _csv_table, cumulative_hazard
from .preferences import PreferenceSchedule, log_transformed_weight

__all__ = [
    "BENCHMARK_GAMMAS",
    "FEASIBLE_GAMMAS",
    "IncomeCurve",
    "income_log_slope",
    "expected_discounted_income",
    "expected_discounted_bequest_value",
    "expected_wealth",
    "income_curve",
    "income_csv",
    "alpha_curve",
    "figure_table_csv",
]

# Risk-aversion sweep used by the figure tables.
BENCHMARK_GAMMAS = (0.5, -1.0, -3.0, -5.0, -8.0, -11.0)
FEASIBLE_GAMMAS = (-1.0, -3.0, -5.0, -8.0, -11.0)


def _check_x0(x0: float) -> None:
    if not (math.isfinite(x0) and x0 > 0):
        raise ValueError(f"x0 must be positive and finite, got {x0!r}")


def income_log_slope(market: MarketParams, gamma: float, rho: float) -> float:
    """Growth rate (mu-r)pi* - beta of the expected discounted income curve."""
    return (market.mu - market.r) * merton_fraction(market, gamma) - beta(market, gamma, rho)


def expected_discounted_income(
    t,
    schedule: PreferenceSchedule,
    market: MarketParams,
    mortality: GompertzMakehamParams,
    x0: float = 100_000.0,
):
    """E[e^{-rt} c*_t X*_t] = X0 e^{((mu-r)pi* - beta) t} / D(0).

    Raises ``ValueError`` for a t outside [0, T_max] and when D(0) overflows
    float64, where the income would silently round to 0.
    """
    _check_x0(x0)
    t = _check_times(t, mortality.limiting_age_years)
    out = _income(t, log_tail_integrals(0.0, schedule, mortality, market), schedule, market, x0)
    return out if np.ndim(out) else float(out)


def _income(t: np.ndarray, log_d0: float, schedule: PreferenceSchedule, market: MarketParams,
            x0: float) -> np.ndarray:
    """X0 e^{((mu-r)pi* - beta) t} / D(0) from log D(0), checked to be within float64."""
    check_log_d0(log_d0, schedule.gamma)
    slope = income_log_slope(market, schedule.gamma, schedule.rho)
    return x0 * np.exp(slope * t - log_d0)


def expected_discounted_bequest_value(
    t,
    schedule: PreferenceSchedule,
    market: MarketParams,
    mortality: GompertzMakehamParams,
    x0: float = 100_000.0,
):
    """E[e^{-rt} (1-alpha*_t) X*_t]: the income curve reweighted by b_t^{1/(1-gamma)}."""
    log_g = log_transformed_weight(t, schedule, mortality)
    out = expected_discounted_income(t, schedule, market, mortality, x0) * np.exp(log_g)
    return out if np.ndim(out) else float(out)


def expected_wealth(
    t,
    schedule: PreferenceSchedule,
    market: MarketParams,
    mortality: GompertzMakehamParams,
    x0: float = 100_000.0,
):
    """E[X*_t] = X0 e^{(r + (mu-r)pi*) t} D(t) / (D(0) S_t) under the optimal controls;
    one quadrature sweep gives D at 0 and at t."""
    _check_x0(x0)
    t = _check_times(t, mortality.limiting_age_years)
    log_d = log_tail_integrals(np.append(0.0, t), schedule, mortality, market)
    growth = market.r + (market.mu - market.r) * merton_fraction(market, schedule.gamma)
    out = x0 * np.exp(growth * t + log_d[1:].reshape(t.shape) - log_d[0]
                      + cumulative_hazard(t, mortality))
    return out if out.ndim else float(out)


def alpha_curve(
    schedule: PreferenceSchedule,
    market: MarketParams,
    mortality: GompertzMakehamParams,
    grid,
) -> np.ndarray:
    """Optimal tontine allocation alpha*_t evaluated directly on an arbitrary grid."""
    grid = np.asarray(grid, dtype=float)
    log_d = log_tail_integrals(grid, schedule, mortality, market)
    beta_value = beta(market, schedule.gamma, schedule.rho)
    return 1.0 - np.exp(log_control_rates(grid, log_d, schedule, mortality, beta_value)[1])


@dataclass(frozen=True)
class IncomeCurve:
    """Expected discounted income rate and bequest fraction on a grid.

    ``expected_income`` is the instantaneous annual rate E[e^{-rt} c*_t X*_t].
    """

    times: np.ndarray
    expected_income: np.ndarray
    expected_bequest_fraction: np.ndarray


def income_curve(
    schedule: PreferenceSchedule,
    market: MarketParams,
    mortality: GompertzMakehamParams,
    x0: float = 100_000.0,
    grid=None,
) -> IncomeCurve:
    """Tabulate expected discounted income and 1 - alpha*_t on a grid.

    Raises ``ValueError`` when D(0) is beyond float64, as
    :func:`~tontine.controls.build_control_schedule` does, and names the
    first t where either value is not finite.  One quadrature sweep gives
    D at 0 and on the grid.
    """
    _check_x0(x0)
    if grid is None:
        grid = np.arange(0.0, mortality.limiting_age_years, 0.25)
    grid = _check_times(grid, mortality.limiting_age_years)
    log_d = log_tail_integrals(np.append(0.0, grid), schedule, mortality, market)
    income = _income(grid, log_d[0], schedule, market, x0)
    beta_value = beta(market, schedule.gamma, schedule.rho)
    bequest_fraction = np.exp(log_control_rates(grid, log_d[1:].reshape(grid.shape), schedule,
                                                mortality, beta_value)[1])
    bad = ~(np.isfinite(income) & np.isfinite(bequest_fraction))
    if np.any(bad):
        raise ValueError(f"income curve is not finite at t={grid[bad][0]:g}")
    return IncomeCurve(times=grid, expected_income=income,
                       expected_bequest_fraction=bequest_fraction)


def income_csv(curve: IncomeCurve, base_age: float = 65.0) -> str:
    """Render an income curve as `t,age,expected_income,expected_bequest_fraction`."""
    return figure_table_csv({"expected_income": curve.expected_income,
                             "expected_bequest_fraction": curve.expected_bequest_fraction},
                            curve.times, base_age)


def figure_table_csv(
    columns: dict[str, np.ndarray],
    grid: np.ndarray,
    base_age: float = 65.0,
) -> str:
    """Assemble a `t,age,<label>...` CSV from per-gamma columns on a shared grid."""
    return _csv_table(("t", "age", *columns),
                      ((t, base_age + t, *values)
                       for t, *values in zip(grid, *columns.values(), strict=True)))
