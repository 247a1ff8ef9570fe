"""Shared oracle helpers for the test suite.

These deliberately avoid the library's Gauss-Legendre machinery: oracles are
built from dense trapezoid sums, scalar bisection, and plain formulas so that
agreement between the two is evidence, not tautology.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from tontine.controls import MarketParams, beta
from tontine.mortality import GompertzMakehamParams, force_of_mortality, survival
from tontine.preferences import PreferenceSchedule, bequest_weight


def trapezoid_denominator(
    t: float,
    schedule: PreferenceSchedule,
    mortality: GompertzMakehamParams,
    market: MarketParams,
    steps_per_year: int = 4000,
) -> float:
    """Dense trapezoid estimate of the consumption-annuity denominator.

    Integrates e^{-beta*u} * S(u) * (1 + b(u)^{1/(1-gamma)} * lambda(u)) from
    ``t`` to the pool horizon on a uniform grid, splitting at the bequest
    cutoff so no kink sits inside a panel.
    """
    t_max = mortality.limiting_age_years
    b = beta(market, schedule.gamma, schedule.rho)
    power = 1.0 / (1.0 - schedule.gamma)

    def integrand(u: np.ndarray) -> np.ndarray:
        lam = force_of_mortality(u, mortality)
        weight = np.asarray(bequest_weight(u, schedule, mortality), dtype=float)
        tilt = np.power(weight, power, out=np.zeros_like(weight), where=weight > 0.0)
        return np.exp(-b * u) * survival(u, mortality) * (1.0 + tilt * lam)

    edges = [t, t_max]
    if schedule.is_trimmed and t < schedule.horizon_years < t_max:
        edges.insert(1, schedule.horizon_years)

    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        n = max(2, int(np.ceil((hi - lo) * steps_per_year)) + 1)
        grid = np.linspace(lo, hi, n)
        total += float(np.trapezoid(integrand(grid), grid))
    return total


def bisect_kappa(
    schedule: PreferenceSchedule,
    market: MarketParams,
    mortality: GompertzMakehamParams,
    lo: float = 1e-12,
    hi: float = 1e12,
    rel_tol: float = 1e-12,
    quadrature: str = "library",
    steps_per_year: int = 2000,
) -> float:
    """Bisection oracle for the scale that zeroes the initial tontine gap.

    Solves alpha0(kappa) = 0 by pure root bracketing, independently of the
    closed-form linear solve in ``calibrate_kappa``.  With
    ``quadrature="library"`` the gap is evaluated through the shipped
    Gauss-Legendre integrator (isolating the algebra under test); with
    ``quadrature="trapezoid"`` even the integrals come from the dense
    trapezoid oracle above.  Root is bracketed in log space.
    """
    if not schedule.is_scaled:
        raise ValueError("bisect_kappa requires a scaled variant")
    gamma = schedule.gamma
    power = 1.0 / (1.0 - gamma)

    if quadrature == "library":
        from tontine.controls import log_tail_integrals
        from tontine.preferences import log_transformed_weight

        def alpha0(kappa: float) -> float:
            trial = schedule.with_kappa(kappa)
            return 1.0 - np.exp(
                log_transformed_weight(0.0, trial, mortality)
                - log_tail_integrals(0.0, trial, mortality, market)
            )

    else:

        def alpha0(kappa: float) -> float:
            trial = schedule.with_kappa(kappa)
            g0 = float(bequest_weight(0.0, trial, mortality)) ** power
            d0 = trapezoid_denominator(0.0, trial, mortality, market, steps_per_year)
            return 1.0 - g0 / d0

    f_lo, f_hi = alpha0(lo), alpha0(hi)
    if f_lo * f_hi > 0.0:
        raise ValueError("root not bracketed; calibration infeasible here")
    log_lo, log_hi = np.log(lo), np.log(hi)
    if f_lo > 0.0:
        log_lo, log_hi = log_hi, log_lo
    for _ in range(200):
        log_mid = 0.5 * (log_lo + log_hi)
        if alpha0(float(np.exp(log_mid))) > 0.0:
            log_hi = log_mid
        else:
            log_lo = log_mid
        if abs(log_hi - log_lo) < rel_tol:
            break
    return float(np.exp(0.5 * (log_lo + log_hi)))


def upper_incomplete_gamma(a: float, z: float) -> float:
    """Gamma(a, z) = int_z^inf u^{a-1} e^{-u} du for real a and z > 0.

    For z > 1, the continued fraction of Gamma(a, z) e^z z^{-a}, evaluated by
    the modified Lentz method (Numerical Recipes, 3rd ed., section 6.2).  At
    or below 1, ``scipy.special.gammaincc`` at a + n, the first of a, a + 1,
    ... above 0, then the downward recurrence
    Gamma(b, z) = (Gamma(b + 1, z) - z^b e^{-z}) / b back to a.  Within
    about 1e-6 of an integer a <= 0 the recurrence starts from a tiny
    a + n, where gamma(a + n) is huge, and loses accuracy.
    """
    from scipy.special import gamma, gammaincc

    if z > 1.0:
        tiny = 1e-300
        b = z + 1.0 - a
        c, d = 1.0 / tiny, 1.0 / b
        fraction = d
        for i in range(1, 1000):
            an = -i * (i - a)
            b += 2.0
            d = an * d + b
            d = tiny if abs(d) < tiny else d
            c = b + an / c
            c = tiny if abs(c) < tiny else c
            d = 1.0 / d
            fraction *= d * c
            if abs(d * c - 1.0) < 1e-16:
                break
        return float(np.exp(a * np.log(z) - z) * fraction)
    n = max(0, int(np.floor(-a)) + 1)
    value = float(gammaincc(a + n, z) * gamma(a + n))
    for k in range(n - 1, -1, -1):
        value = (value - z ** (a + k) * np.exp(-z)) / (a + k)
    return value


def synthetic_life_table_csv(
    path,
    params: GompertzMakehamParams,
    base_age: int = 65,
    last_age: int = 110,
    header: str = "age,survival",
) -> None:
    """Write a noise-free life table generated from a known hazard law."""
    path = Path(path)
    ages = np.arange(base_age, last_age + 1)
    surv = survival(ages - float(base_age), params)
    lines = [header]
    if header == "age,survival":
        for age, s in zip(ages, surv):
            lines.append(f"{age},{s:.15g}")
    else:  # age,qx
        qx = 1.0 - surv[1:] / surv[:-1]
        for age, q in zip(ages[:-1], qx):
            lines.append(f"{age},{q:.15g}")
    path.write_text("\n".join(lines) + "\n")
