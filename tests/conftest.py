"""Shared fixtures: benchmark market, fitted hazard law, tolerance constants."""

from __future__ import annotations

import pytest

from tontine import (
    GompertzMakehamParams,
    MarketParams,
    PreferenceSchedule,
    auto_rho,
    build_control_schedule,
    calibrate_kappa,
)

# Benchmark configuration used throughout: retirement at 65, pool closing at
# 115, lognormal market with a 0.35 Sharpe ratio, and the hazard-law fit that
# all headline numbers are quoted against.
BENCH_A1 = 0.00584
BENCH_A2 = 0.12150
BENCH_A3 = 0.0024117

BENCH_MU = 0.10
BENCH_SIGMA = 0.20
BENCH_R = 0.03

# Risk-aversion grid used in the reference tables; kappa calibration is
# feasible exactly on the gamma < 0 sublist.
BENCH_GAMMAS = (0.5, -1.0, -3.0, -5.0, -8.0, -11.0)
FEASIBLE_GAMMAS = (-1.0, -3.0, -5.0, -8.0, -11.0)

EXACT_TOL = 1e-12
QUAD_REL_TOL = 1e-7
ODE_REL_TOL = 1e-5
FIT_COMPONENT_TOL = 1e-4


@pytest.fixture(scope="session")
def market() -> MarketParams:
    return MarketParams(mu=BENCH_MU, sigma=BENCH_SIGMA, r=BENCH_R)


@pytest.fixture(scope="session")
def mortality() -> GompertzMakehamParams:
    return GompertzMakehamParams(BENCH_A1, BENCH_A2, BENCH_A3)


def make_schedule(
    gamma: float,
    variant: str,
    *,
    r: float = BENCH_R,
    kappa: float | None = None,
    horizon_years: float = 20.0,
    rho: float | None = None,
) -> PreferenceSchedule:
    """Schedule with the benchmark discount-rate convention rho = r * gamma."""
    return PreferenceSchedule(
        gamma=gamma,
        rho=auto_rho(gamma, r) if rho is None else rho,
        variant=variant,
        kappa=kappa,
        horizon_years=horizon_years,
    )


@pytest.fixture(scope="session")
def calibrated_cache(market, mortality):
    """Memoized kappa calibrations keyed by (gamma, variant)."""
    cache: dict[tuple[float, str], PreferenceSchedule] = {}

    def get(gamma: float, variant: str = "scaled_trimmed") -> PreferenceSchedule:
        key = (gamma, variant)
        if key not in cache:
            schedule = make_schedule(gamma, variant)
            result = calibrate_kappa(schedule, market, mortality)
            if not result.feasible:
                raise AssertionError(f"expected feasible calibration for {key}")
            cache[key] = schedule.with_kappa(result.kappa)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def controls_cache(market, mortality, calibrated_cache):
    """Memoized weekly-grid control schedules keyed by (gamma, variant)."""
    cache: dict[tuple[float, str], object] = {}

    def get(gamma: float, variant: str = "scaled_trimmed"):
        key = (gamma, variant)
        if key not in cache:
            if variant in ("scaled_power", "scaled_trimmed"):
                schedule = calibrated_cache(gamma, variant)
            else:
                schedule = make_schedule(gamma, variant)
            cache[key] = build_control_schedule(schedule, mortality, market)
        return cache[key]

    return get
