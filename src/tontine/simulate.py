"""Monte Carlo simulation of the wealth dynamics under deterministic-in-time
controls, alongside the state-price density, and statistical verification of
the martingale structure and moment formulas.

The per-step update is the exact lognormal solution given piecewise-constant
controls; hazard mass over each step enters through the exact increment of
the cumulative hazard rather than a left-point rate, and for tabulated
optimal controls the consumption/allocation drift enters through the exact
increment of log D, so the only systematic error left is the control
discretization itself (second order in the step).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .controls import ControlSchedule, MarketParams
from .mortality import GompertzMakehamParams, cumulative_hazard, force_of_mortality
from .preferences import PreferenceSchedule, bequest_weight

__all__ = [
    "REPORT_TIMES",
    "SimulationConfig",
    "SimulationResult",
    "SimulationError",
    "DeterministicControls",
    "simulate_wealth",
    "scaled_controls",
    "check_supermartingale",
    "SupermartingaleReport",
    "first_moment_spd_wealth",
    "second_moment_spd_wealth_bound",
    "objective_estimate",
    "summary_csv",
]

REPORT_TIMES = (1.0, 5.0, 10.0, 15.0, 20.0, 30.0, 40.0)

_BLOCK_PATHS = 16384


class SimulationError(RuntimeError):
    """Simulation could not produce finite paths."""


@dataclass(frozen=True)
class SimulationConfig:
    """Path count, step, horizon (years), seed, and initial wealth.

    ``record_times`` selects the snapshot times stored per path (snapped to
    the nearest grid node); ``None`` keeps 0, the report times within the
    horizon, and the horizon itself, while the string ``"all"`` keeps every
    grid node (memory permitting).
    """

    n_paths: int
    horizon: float
    step: float = 1.0 / 252.0
    seed: int = 0
    initial_wealth: float = 100_000.0
    record_times: Union[tuple, str, None] = None

    def __post_init__(self) -> None:
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        if not (math.isfinite(self.step) and self.step > 0):
            raise ValueError("step must be positive and finite")
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError("horizon must be positive and finite")
        if not self.initial_wealth > 0:
            raise ValueError("initial_wealth must be positive")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")


_Control = Union[float, Callable[[np.ndarray], np.ndarray]]


@dataclass(frozen=True)
class DeterministicControls:
    """Arbitrary deterministic-in-time controls (constants or callables of t)."""

    pi: _Control
    consumption: _Control
    tontine_fraction: _Control

    def at(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        t = np.asarray(t, dtype=float)
        return tuple(
            np.broadcast_to(np.asarray(c(t) if callable(c) else c, dtype=float), t.shape).astype(float)
            for c in (self.pi, self.consumption, self.tontine_fraction)
        )


def scaled_controls(
    controls: ControlSchedule,
    c_scale: float,
    alpha_scale: float,
    alpha_cap: float = 1.0,
) -> DeterministicControls:
    """Multiplicatively jittered copy of a tabulated schedule (alpha capped)."""
    return DeterministicControls(
        pi=controls.pi_star,
        consumption=lambda t: c_scale * controls.consumption_at(t),
        tontine_fraction=lambda t: np.minimum(
            alpha_scale * (1.0 - controls.bequest_fraction_at(np.asarray(t, dtype=float))),
            alpha_cap,
        ),
    )


@dataclass(frozen=True)
class SimulationResult:
    """Snapshots of X, the state-price density zeta, and Y per path.

    ``times`` are the recorded snapshot times; the path arrays have shape
    (n_paths, len(times)).  Y is zeta*X plus the running integral of
    zeta*X*(c + lambda*(1 - alpha)), accumulated by the trapezoid rule with
    exact per-step hazard mass.  ``objective_paths`` holds each path's
    discounted-utility integral when a preference schedule was supplied.
    """

    times: np.ndarray
    wealth_paths: np.ndarray
    spd_paths: np.ndarray
    y_paths: np.ndarray
    objective_paths: np.ndarray | None
    summary: dict[str, np.ndarray]
    n_paths: int
    step: float
    horizon: float
    seed: int
    initial_wealth: float
    spd0: float

    @property
    def y0(self) -> float:
        return self.spd0 * self.initial_wealth


def _path_normals(seed: int, path_indices: np.ndarray, n_steps: int) -> np.ndarray:
    """One substream per path keyed by (seed, path index); order-independent."""
    out = np.empty((len(path_indices), n_steps))
    for row, p in enumerate(path_indices):
        key = np.array([seed, p], dtype=np.uint64)
        out[row] = np.random.Generator(np.random.Philox(key=key)).standard_normal(n_steps)
    return out


def _resolve_record_indices(config: SimulationConfig, times: np.ndarray) -> np.ndarray:
    if isinstance(config.record_times, str):
        if config.record_times != "all":
            raise ValueError("record_times must be a tuple of times, None, or 'all'")
        return np.arange(len(times))
    if config.record_times is None:
        wanted = [0.0, *(t for t in REPORT_TIMES if t <= config.horizon + 1e-9), config.horizon]
    else:
        wanted = [float(t) for t in config.record_times]
        if any(t < 0 or t > config.horizon + 1e-9 for t in wanted):
            raise ValueError("record_times must lie within [0, horizon]")
    step = times[1] - times[0] if len(times) > 1 else 1.0
    idx = np.unique(np.clip(np.round(np.asarray(wanted) / step).astype(int), 0, len(times) - 1))
    return idx


def simulate_wealth(
    config: SimulationConfig,
    controls: Union[ControlSchedule, DeterministicControls],
    market: MarketParams,
    mortality: GompertzMakehamParams,
    schedule: PreferenceSchedule | None = None,
) -> SimulationResult:
    """Simulate X, zeta, and Y; optionally accumulate the utility objective.

    For a tabulated ``ControlSchedule`` the initial state-price density is
    phi_0 = (c*_0)^{gamma-1} (so Y is a martingale, not just a local one, at
    the optimum); custom ``DeterministicControls`` start the density at 1.
    Supplying ``schedule`` turns on per-path accumulation of the discounted
    utility of consumption and bequest under those preferences.
    """
    n_steps = round(config.horizon / config.step)
    if n_steps < 1 or abs(n_steps * config.step - config.horizon) > 1e-9:
        raise SimulationError("step must divide the horizon")
    times = np.arange(n_steps + 1) * config.horizon / n_steps
    dt = np.diff(times)
    sqdt = np.sqrt(dt)
    lam_cum = cumulative_hazard(times, mortality)
    d_lam = np.diff(lam_cum)
    theta = market.sharpe

    candidate = isinstance(controls, ControlSchedule)
    if candidate:
        if config.horizon > controls.t_end + 1e-9:
            raise SimulationError(
                f"controls tabulated only to t={controls.t_end:.6g}, "
                f"horizon {config.horizon:.6g} not covered"
            )
        log_d_nodes = controls.log_denominator_at(times)
        outflow = -np.diff(log_d_nodes)  # exact integral of c + lambda(1-alpha) per step
        x_control_drift = -outflow + d_lam  # exact integral of -c + alpha*lambda
        pi_step = np.full(n_steps, controls.pi_star)
        c_nodes = controls.consumption_at(times)
        bq_nodes = controls.bequest_fraction_at(times)
    else:
        mid = 0.5 * (times[:-1] + times[1:])
        pi_step, c_mid, alpha_mid = controls.at(mid)
        outflow = c_mid * dt + (1.0 - alpha_mid) * d_lam
        x_control_drift = -c_mid * dt + alpha_mid * d_lam
        _, c_nodes, alpha_nodes = controls.at(times)
        bq_nodes = 1.0 - alpha_nodes

    drift_x = (market.r + (market.mu - market.r) * pi_step
               - 0.5 * market.sigma**2 * pi_step**2) * dt + x_control_drift
    vol_x = market.sigma * pi_step * sqdt
    drift_z = -market.r * dt - d_lam - 0.5 * theta**2 * dt
    vol_z = -theta * sqdt

    if candidate:
        phi0 = float(controls.c_star[0]) ** (controls.gamma - 1.0)
    else:
        phi0 = 1.0

    accumulate_objective = schedule is not None
    if accumulate_objective:
        gamma = schedule.gamma
        b_nodes = np.asarray(bequest_weight(times, schedule, mortality))
        lam_nodes = force_of_mortality(times, mortality)
        disc = np.exp(-schedule.rho * times - lam_cum)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            c_pow = np.where(c_nodes > 0, c_nodes, np.nan) ** gamma
            c_pow = np.where(c_nodes > 0, c_pow, np.inf if gamma < 0 else 0.0)
            bq_pow = np.where(bq_nodes > 0, bq_nodes, np.nan) ** gamma
            bq_pow = np.where(bq_nodes > 0, bq_pow, np.inf if gamma < 0 else 0.0)
            bequest_term = np.where(b_nodes > 0, lam_nodes * b_nodes * bq_pow, 0.0)
        utility_coef = disc * (c_pow + bequest_term) / gamma

    record_idx = _resolve_record_indices(config, times)
    record_map = {int(i): col for col, i in enumerate(record_idx)}
    n_rec = len(record_idx)

    wealth = np.empty((config.n_paths, n_rec))
    spd = np.empty((config.n_paths, n_rec))
    y_arr = np.empty((config.n_paths, n_rec))
    objective = np.zeros(config.n_paths) if accumulate_objective else None

    log_x0 = math.log(config.initial_wealth)
    log_z0 = math.log(phi0)

    for start in range(0, config.n_paths, _BLOCK_PATHS):
        block = np.arange(start, min(start + _BLOCK_PATHS, config.n_paths))
        normals = _path_normals(int(config.seed), block, n_steps)
        m = len(block)
        log_x = np.full(m, log_x0)
        log_z = np.full(m, log_z0)
        zx = np.exp(log_x + log_z)
        accrued = np.zeros(m)  # running integral of zeta*X*(c + lambda*(1-alpha))
        if accumulate_objective:
            obj = np.zeros(m)
            with np.errstate(invalid="ignore"):
                u_prev = utility_coef[0] * np.exp(gamma * log_x)
        if 0 in record_map:
            col = record_map[0]
            wealth[block, col] = np.exp(log_x)
            spd[block, col] = np.exp(log_z)
            y_arr[block, col] = zx + accrued
        for k in range(n_steps):
            z = normals[:, k]
            log_x += drift_x[k] + vol_x[k] * z
            log_z += drift_z[k] + vol_z[k] * z
            if not np.all(np.isfinite(log_x)) or not np.all(np.isfinite(log_z)):
                bad = int(block[np.argmax(~(np.isfinite(log_x) & np.isfinite(log_z)))])
                raise SimulationError(
                    f"non-finite increment at step {k + 1} (t={times[k + 1]:.6g}), path {bad}"
                )
            zx_new = np.exp(log_x + log_z)
            accrued += 0.5 * (zx + zx_new) * outflow[k]
            zx = zx_new
            if accumulate_objective:
                with np.errstate(invalid="ignore"):
                    u_new = utility_coef[k + 1] * np.exp(gamma * log_x)
                obj += 0.5 * (u_prev + u_new) * dt[k]
                u_prev = u_new
            if (k + 1) in record_map:
                col = record_map[k + 1]
                wealth[block, col] = np.exp(log_x)
                spd[block, col] = np.exp(log_z)
                y_arr[block, col] = zx + accrued
        if accumulate_objective:
            objective[block] = obj

    rec_times = times[record_idx]
    income = np.exp(-market.r * rec_times)[None, :] * c_nodes[record_idx][None, :] * wealth
    zeta_x = spd * wealth
    summary = {
        "t": rec_times,
        "mean_income": income.mean(axis=0),
        "se_income": _standard_error(income),
        "mean_Y": y_arr.mean(axis=0),
        "se_Y": _standard_error(y_arr),
        "mean_zetaX": zeta_x.mean(axis=0),
        "se_zetaX": _standard_error(zeta_x),
    }

    return SimulationResult(
        times=rec_times,
        wealth_paths=wealth,
        spd_paths=spd,
        y_paths=y_arr,
        objective_paths=objective,
        summary=summary,
        n_paths=config.n_paths,
        step=float(times[1] - times[0]) if n_steps else config.step,
        horizon=config.horizon,
        seed=int(config.seed),
        initial_wealth=config.initial_wealth,
        spd0=phi0,
    )


def _standard_error(arr: np.ndarray) -> np.ndarray:
    n = arr.shape[0]
    if n < 2:
        return np.zeros(arr.shape[1])
    return arr.std(axis=0, ddof=1) / math.sqrt(n)


def summary_csv(result: SimulationResult) -> str:
    """Render the per-time summary as CSV (means and standard errors)."""
    cols = ("t", "mean_income", "se_income", "mean_Y", "se_Y", "mean_zetaX", "se_zetaX")
    lines = [",".join(cols)]
    for i in range(len(result.times)):
        lines.append(",".join(format(result.summary[c][i], ".12g") for c in cols))
    return "\n".join(lines) + "\n"


# ============================================================================
# Statistical structure checks
# ============================================================================

@dataclass(frozen=True)
class PairCheck:
    s: float
    t: float
    mean_diff: float
    se_diff: float
    ok: bool


@dataclass(frozen=True)
class MartingaleCheck:
    t: float
    deviation: float
    se: float
    ok: bool


@dataclass(frozen=True)
class SupermartingaleReport:
    """Pairwise mean-decrease checks on Y, plus constancy checks if requested."""

    pairs: tuple[PairCheck, ...]
    martingale: tuple[MartingaleCheck, ...]
    y0: float

    @property
    def supermartingale_ok(self) -> bool:
        return all(p.ok for p in self.pairs)

    @property
    def martingale_ok(self) -> bool:
        return all(m.ok for m in self.martingale)


def check_supermartingale(
    result: SimulationResult, candidate: bool = False, z: float = 3.0
) -> SupermartingaleReport:
    """Verify mean(Y_t) <= mean(Y_s) + z*SE (paired) for every s < t.

    With ``candidate=True`` additionally verify |mean(Y_t) - Y_0| <= z*SE
    at every recorded time, i.e. the exact-martingale property that holds
    only for the optimal controls.
    """
    times = result.times
    y = result.y_paths
    pairs = []
    for i in range(len(times)):
        for j in range(i + 1, len(times)):
            diff = y[:, j] - y[:, i]
            mean_diff = float(diff.mean())
            se = float(diff.std(ddof=1) / math.sqrt(len(diff))) if len(diff) > 1 else 0.0
            pairs.append(PairCheck(float(times[i]), float(times[j]), mean_diff, se,
                                   mean_diff <= z * se))
    marts = []
    if candidate:
        y0 = result.y0
        se_y = _standard_error(y)
        for j, t in enumerate(times):
            dev = float(y[:, j].mean() - y0)
            marts.append(MartingaleCheck(float(t), dev, float(se_y[j]),
                                         abs(dev) <= z * se_y[j] + 1e-12 * abs(y0)))
    return SupermartingaleReport(pairs=tuple(pairs), martingale=tuple(marts), y0=result.y0)


def first_moment_spd_wealth(t, controls: ControlSchedule, x0: float = 1.0):
    """Closed-form E[zeta_t X*_t] = phi_0 X_0 D(t)/D(0) for the optimal controls.

    The tabulated denominator D already encodes the market and mortality.
    """
    phi0 = float(controls.c_star[0]) ** (controls.gamma - 1.0)
    ratio = np.exp(controls.log_denominator_at(t) - controls.log_denominator[0])
    out = phi0 * x0 * ratio
    return out if np.ndim(out) else float(out)


def second_moment_spd_wealth_bound(
    t,
    controls: ControlSchedule,
    market: MarketParams,
    x0: float = 1.0,
):
    """Upper bound (phi_0 X_0)^2 exp((sigma pi* - sharpe)^2 t) for E[(zeta X*)^2]."""
    phi0 = float(controls.c_star[0]) ** (controls.gamma - 1.0)
    load = market.sigma * controls.pi_star - market.sharpe
    out = (phi0 * x0) ** 2 * np.exp(load**2 * np.asarray(t, dtype=float))
    return out if np.ndim(out) else float(out)


def objective_estimate(result: SimulationResult) -> tuple[float, float]:
    """Mean and standard error of the per-path discounted-utility integrals."""
    if result.objective_paths is None:
        raise ValueError("simulation was run without a preference schedule")
    obj = result.objective_paths
    mean = float(obj.mean())
    if len(obj) > 1 and np.all(np.isfinite(obj)):
        se = float(obj.std(ddof=1) / math.sqrt(len(obj)))
    else:
        se = float("nan") if not np.all(np.isfinite(obj)) else 0.0
    return mean, se
