"""Shared oracle helpers for the test suite.

These deliberately avoid the library's Gauss-Legendre machinery: oracles are
built from dense trapezoid sums, scalar bisection, and plain formulas so that
agreement between the two is evidence, not tautology.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from tontine.controls import ControlSchedule, MarketParams, beta
from tontine.mortality import GompertzMakehamParams, force_of_mortality, survival
from tontine.preferences import PreferenceSchedule, bequest_weight
from tontine.simulate import SimulationConfig


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


def reference_paths(
    config: SimulationConfig,
    controls,
    market: MarketParams,
    mortality: GompertzMakehamParams,
    schedule: PreferenceSchedule,
) -> dict[str, np.ndarray]:
    """Per-step reference of ``simulate_wealth`` with every node recorded.

    One path at a time, one step at a time, in Python floats.  The dynamics
    are written from the model, not from the kernel's coefficient arrays;
    only the controls' values and the tabulated log D come from the library.
    Path p reads its normals from lane p mod 512 of
    ``Generator(SFC64(SeedSequence(seed, spawn_key=(p // 512,))))``, drawn
    512 lanes a step.
    Over a step of length h with controls held at (pi, c, alpha), wealth and
    the state-price density take the exact lognormal update of

        dX / X = (r + pi (mu - r) - c + alpha lambda) dt + pi sigma dW,
        dzeta / zeta = -(r + lambda) dt - theta dW,

    where the hazard enters through the step's increment of the closed-form
    cumulative hazard.  The tabulated optimum holds pi* = theta / (sigma
    (1 - gamma)) and pays out c + lambda (1 - alpha) = -d log D / dt, so its
    step's outflow is the drop in log D; other controls are read at the
    step's midpoint.  Y = zeta X + the trapezoid sum of zeta X times each
    step's outflow, and the objective is the trapezoid sum of
    e^{-rho t - Lambda(t)} ((c X)^gamma + lambda b (bq X)^gamma) / gamma with
    c and the bequest fraction bq = 1 - alpha at the nodes.
    """
    a1, a2, a3 = mortality.a1, mortality.a2, mortality.a3
    mu, sigma, r = market.mu, market.sigma, market.r
    gamma, rho = schedule.gamma, schedule.rho
    theta = (mu - r) / sigma
    n = round(config.horizon / config.step)
    times = [i * config.horizon / n for i in range(n + 1)]
    cum_hazard = [a3 * t + a1 / a2 * math.expm1(a2 * t) for t in times]
    hazard = [a1 * math.exp(a2 * t) + a3 for t in times]
    weight = [float(w) for w in bequest_weight(np.array(times), schedule, mortality)]

    steps = []  # (h, hazard mass, pi, the control drift of log X, outflow) per step
    if isinstance(controls, ControlSchedule):
        pi = (mu - r) / ((1.0 - gamma) * sigma**2)
        log_d = [float(v) for v in controls.log_denominator_at(np.array(times))]
        for i in range(n):
            d_lam = cum_hazard[i + 1] - cum_hazard[i]
            outflow = log_d[i] - log_d[i + 1]
            steps.append((times[i + 1] - times[i], d_lam, pi, d_lam - outflow, outflow))
        c_nodes = [float(c) for c in controls.consumption_at(np.array(times))]
        bq_nodes = [float(q) for q in controls.bequest_fraction_at(np.array(times))]
        log_zeta0 = (gamma - 1.0) * math.log(c_nodes[0])
    else:
        for i in range(n):
            h = times[i + 1] - times[i]
            d_lam = cum_hazard[i + 1] - cum_hazard[i]
            pi, c, alpha = (float(v) for v in controls.at(0.5 * (times[i] + times[i + 1])))
            steps.append((h, d_lam, pi, -c * h + alpha * d_lam, c * h + (1.0 - alpha) * d_lam))
        c_nodes, bq_nodes = [], []
        for t in times:
            _, c, alpha = (float(v) for v in controls.at(t))
            c_nodes.append(c)
            bq_nodes.append(1.0 - alpha)
        log_zeta0 = 0.0

    def utility(i: int, x: float) -> float:
        bequest = hazard[i] * weight[i] * (bq_nodes[i] * x) ** gamma if weight[i] > 0 else 0.0
        return math.exp(-rho * times[i] - cum_hazard[i]) * ((c_nodes[i] * x) ** gamma
                                                            + bequest) / gamma

    out = {name: np.empty((config.n_paths, n + 1))
           for name in ("wealth_paths", "spd_paths", "y_paths")}
    out["objective_paths"] = np.empty(config.n_paths)
    for p in range(config.n_paths):
        seeds = np.random.SeedSequence(config.seed, spawn_key=(p // 512,))
        lanes = np.random.Generator(np.random.SFC64(seeds)).standard_normal((n, 512))
        normals = lanes[:, p % 512].tolist()
        log_x, log_zeta = math.log(config.initial_wealth), log_zeta0
        x, zeta = [math.exp(log_x)], [math.exp(log_zeta)]
        for (h, d_lam, pi, control_drift, _), z in zip(steps, normals):
            log_x += ((r + pi * (mu - r) - 0.5 * (pi * sigma) ** 2) * h + control_drift
                      + pi * sigma * math.sqrt(h) * z)
            log_zeta += -(r + 0.5 * theta**2) * h - d_lam - theta * math.sqrt(h) * z
            x.append(math.exp(log_x))
            zeta.append(math.exp(log_zeta))
        integral, objective = 0.0, 0.0
        y = [zeta[0] * x[0]]
        for i, (h, _, _, _, outflow) in enumerate(steps):
            integral += 0.5 * (zeta[i] * x[i] + zeta[i + 1] * x[i + 1]) * outflow
            y.append(zeta[i + 1] * x[i + 1] + integral)
            objective += 0.5 * (utility(i, x[i]) + utility(i + 1, x[i + 1])) * h
        out["wealth_paths"][p], out["spd_paths"][p], out["y_paths"][p] = x, zeta, y
        out["objective_paths"][p] = objective
    out["times"] = np.array(times)
    return out
