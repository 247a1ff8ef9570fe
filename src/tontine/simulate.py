"""Monte Carlo simulation of the wealth dynamics under deterministic-in-time
controls, alongside the state-price density; statistical checks of the
martingale structure and moment formulas; and the optimality audit by duality.

The per-step update is the exact lognormal solution given piecewise-constant
controls; hazard mass over each step enters through the exact increment of
the cumulative hazard, and for tabulated optimal controls the consumption/
allocation drift through the exact increment of log D, so the only
systematic error left is the control discretization (second order in the step).

Because the controls are deterministic, one kernel advances a sub-block of a
few hundred paths across the whole time axis at once.  Path p's normals come
from its own Philox substream keyed by (seed, p); log X and log zeta are
cumulative sums along path-major rows.  One chunked pass
(``_trapezoid_totals``) exponentiates a few dozen nodes at a time into a
small time-major scratch and sums the trapezoid terms of Y, then of the
utility objective, up to the recorded times only: the same bits as a
cumulative sum, with two full buffers per worker.
Sub-blocks are sharded over the CPUs this process may use, and the output
bytes depend only on the seed, not on the sub-block size or the sharding.
"""
from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, replace
from typing import Callable, Union

import numpy as np

from .controls import ControlSchedule, MarketParams, physical_memory_bytes
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
    "value_function",
    "optimality_audit",
    "AuditReport",
    "audit_csv",
]

REPORT_TIMES = (1.0, 5.0, 10.0, 15.0, 20.0, 30.0, 40.0)

# Paths per sub-block: each worker holds two path-major (paths x (steps + 1))
# float64 buffers, log X and log zeta (then log zeta*X, then gamma log X),
# 8.5 MB at 1,040 steps.  Of 256, 512, 1024 and 2048 paths, 512 ran the
# 20,000 x 1,040 audit fastest on two threads, before and after the move to
# time-major sums.
_SUB_BLOCK_PATHS = 512

# Time nodes per chunk of the trapezoid pass over Y and the objective: each
# worker's time-major scratch is 2 x (nodes + 1) x paths, 0.5 MB at 512 paths.
# 64 and 128 ran the audit equally fast; 32 was slower.
_CHUNK_NODES = 64

# Float64 arrays over the time grid that simulate_wealth holds at once, an
# upper bound: grid, hazard and control nodes, per-step coefficients and
# their padded copies, and the utility coefficients.
_STEP_ARRAYS = 32


class SimulationError(RuntimeError):
    """Simulation could not produce finite paths."""


@dataclass(frozen=True)
class SimulationConfig:
    """Path count, step, horizon (years), seed, and initial wealth.

    ``record_times`` selects the snapshot times stored per path (snapped to
    the nearest grid node); ``None`` keeps 0, the report times within the
    horizon, and the horizon itself, while the string ``"all"`` keeps every
    grid node.  The result arrays and the summary's temporaries take
    8 bytes x n_paths x (6 x recorded times + 1), and each worker thread's
    buffers and scratch 2 x 8 bytes x max(min(512, n_paths), 2) x (steps +
    min(64, steps) + 2);
    ``simulate_wealth`` raises ``SimulationError`` before allocating anything
    the length of the time grid if these would exceed the machine's physical
    memory.
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
        if not (math.isfinite(self.initial_wealth) and self.initial_wealth > 0):
            raise ValueError("initial_wealth must be positive and finite")
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
) -> DeterministicControls:
    """Multiplicatively jittered copy of a tabulated schedule (alpha capped at 1)."""
    return DeterministicControls(
        pi=controls.pi_star,
        consumption=lambda t: c_scale * controls.consumption_at(t),
        tontine_fraction=lambda t: np.minimum(
            alpha_scale * (1.0 - controls.bequest_fraction_at(np.asarray(t, dtype=float))),
            1.0,
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
    initial_wealth: float
    spd0: float

    @property
    def y0(self) -> float:
        return self.spd0 * self.initial_wealth


class _Substreams:
    """Per-path normals: path p's are those of ``Philox(key=[seed, p])``.

    One Philox is reset to each path's key, zero counter and empty buffer,
    instead of building a generator per path (which draws OS entropy for a
    seed sequence the key then overrides).
    """

    def __init__(self, seed: int) -> None:
        self._key = np.array([seed, 0], dtype=np.uint64)
        zeros = np.zeros(4, dtype=np.uint64)
        self._state = {
            "bit_generator": "Philox", "state": {"counter": zeros, "key": self._key},
            "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        self._bitgen = np.random.Philox(key=self._key)
        self._gen = np.random.Generator(self._bitgen)

    def fill(self, first_path: int, out: np.ndarray) -> None:
        """Fill row i of ``out`` with the normals of path ``first_path + i``."""
        for row in range(out.shape[0]):
            self._key[1] = first_path + row
            self._bitgen.state = self._state
            self._gen.standard_normal(out=out[row])


def _n_workers() -> int:
    """Threads to shard sub-blocks over: the CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _check_memory(n_paths: int, n_rec: int, n_steps: int, n_workers: int) -> None:
    """Raise before allocating more than physical memory.

    Per path and recorded time: X, zeta and Y, then the summary's income and
    zeta*X and one standard-deviation temporary; per path: the objective; per
    step: the time-grid arrays; per worker: its two sub-block buffers and the
    two halves of its time-major scratch.
    """
    width = max(min(_SUB_BLOCK_PATHS, n_paths), 2)
    need = 8 * (n_paths * (6 * n_rec + 1)
                + (_STEP_ARRAYS + 2 * n_workers * width) * (n_steps + 1)
                + 2 * n_workers * width * (min(_CHUNK_NODES, n_steps) + 1))
    have = physical_memory_bytes()
    if have is not None and need > have:
        raise SimulationError(
            f"{n_paths} paths x {n_steps} steps ({n_rec} recorded times) need "
            f"{need / 2**30:.3g} GiB, more than the {have / 2**30:.3g} GiB of physical memory"
        )


def _trapezoid_totals(logs, coef, half_weight, rows, scratch, out, *, with_value) -> None:
    """Running trapezoid integrals of f = exp(``logs``) x ``coef`` at ``rows``.

    ``logs`` is path-major (lanes, nodes), ``coef`` per node or None, and
    ``half_weight`` half of each step's weight.  Column j of ``out`` receives
    the integral up to node ``rows[j]`` (ascending), plus f there if
    ``with_value``.  Chunks of C nodes pass through the time-major halves of
    ``scratch`` (2, C + 1, lanes or more): f behind f at the node before, and
    the trapezoid terms behind the total so far, which a reduction over axis 0
    extends one term at a time per lane.  That gives the bits of a cumulative
    sum for two or more lanes; over a single lane numpy sums pairwise.
    """
    width, n_nodes = logs.shape
    m = out.shape[0]
    chunk = scratch.shape[1] - 1
    vals, terms = (b.reshape(-1)[: (chunk + 1) * width].reshape(chunk + 1, width)
                   for b in scratch)
    np.exp(logs[:, :1].T, out=vals[:1])
    if coef is not None:
        vals[0] *= coef[0]
    total = np.zeros(width)
    j = 0
    for a in range(1, n_nodes, chunk):
        n = min(chunk, n_nodes - a)  # row i of the chunk holds node a - 1 + i
        np.exp(logs[:, a : a + n].T, out=vals[1 : n + 1])
        if coef is not None:
            vals[1 : n + 1] *= coef[a : a + n, None]
        np.add(vals[:n], vals[1 : n + 1], out=terms[1 : n + 1])
        terms[1 : n + 1] *= half_weight[a - 1 : a + n - 1, None]
        terms[0] = total
        first = 0
        while j < len(rows) and rows[j] < a + n:
            local = rows[j] - a + 1
            np.add.reduce(terms[first : local + 1], axis=0, out=total)
            terms[local] = total
            first = local
            if with_value:
                np.add(vals[local, :m], total[:m], out=out[:, j])
            else:
                out[:, j] = total[:m]
            j += 1
        np.add.reduce(terms[first : n + 1], axis=0, out=total)
        vals[0] = vals[n]


def _resolve_record_indices(config: SimulationConfig, n_steps: int) -> np.ndarray | None:
    """The grid indices to record, or None for every node (not yet allocated)."""
    if isinstance(config.record_times, str):
        if config.record_times != "all":
            raise ValueError("record_times must be a tuple of times, None, or 'all'")
        return None
    if config.record_times is None:
        wanted = [0.0, *(t for t in REPORT_TIMES if t <= config.horizon + 1e-9), config.horizon]
    else:
        wanted = [float(t) for t in config.record_times]
        if any(t < 0 or t > config.horizon + 1e-9 for t in wanted):
            raise ValueError("record_times must lie within [0, horizon]")
    step = config.horizon / n_steps
    return np.unique(np.clip(np.round(np.asarray(wanted) / step).astype(int), 0, n_steps))


def simulate_wealth(
    config: SimulationConfig,
    controls: Union[ControlSchedule, DeterministicControls],
    market: MarketParams,
    mortality: GompertzMakehamParams,
    schedule: PreferenceSchedule | None = None,
) -> SimulationResult:
    """Simulate X, zeta, and Y; optionally accumulate the utility objective.

    For a tabulated ``ControlSchedule`` the initial state-price density is
    its ``spd0`` (so Y is a martingale, not just a local one, at the optimum);
    custom ``DeterministicControls`` start the density at 1.
    Supplying ``schedule`` turns on per-path accumulation of the discounted
    utility of consumption and bequest under those preferences.

    Raises ``ValueError`` naming the field if a ``ControlSchedule`` was built
    from another ``market``, ``mortality`` or (when given) ``schedule``: its
    tabulated optimum holds only under its own model.  Raises ``ValueError``
    too if the tabulated controls stop short of the horizon or the step does
    not divide it.  Raises ``SimulationError`` if the results and buffers
    would not fit in physical memory, a path goes non-finite, or a recorded
    X, zeta or Y overflows float64; the last two name the lowest such path
    and its first non-finite step (for an overflow, the first recorded step
    that holds one).  A phi_0 past float64 raises it before anything is run.
    """
    candidate = isinstance(controls, ControlSchedule)
    if candidate:
        for name, given in (("market", market), ("mortality", mortality), ("schedule", schedule)):
            if given is not None and given != getattr(controls, name):
                raise ValueError(f"{name} differs from the {name} the controls were built from")
        if config.horizon > controls.t_end + 1e-9:
            raise ValueError(f"controls tabulated only to t={controls.t_end:.6g}, "
                             f"horizon {config.horizon:.6g} not covered")
        if controls.spd0 == math.inf:
            raise SimulationError(f"zeta_0 = (c*_0)^(gamma-1) overflows float64 at "
                                  f"gamma={controls.gamma:g}")
    n_steps = round(config.horizon / config.step)
    if n_steps < 1 or abs(n_steps * config.step - config.horizon) > 1e-9:
        raise ValueError("step must divide the horizon")
    record_idx = _resolve_record_indices(config, n_steps)
    n_paths = config.n_paths
    n_rec = n_steps + 1 if record_idx is None else len(record_idx)
    sub = _SUB_BLOCK_PATHS
    n_blocks = -(-n_paths // sub)
    n_workers = min(_n_workers(), n_blocks)
    _check_memory(n_paths, n_rec, n_steps, n_workers)
    if record_idx is None:
        record_idx = np.arange(n_steps + 1)

    times = np.arange(n_steps + 1) * config.horizon / n_steps
    dt = np.diff(times)
    sqdt = np.sqrt(dt)
    lam_cum = cumulative_hazard(times, mortality)
    d_lam = np.diff(lam_cum)
    theta = market.sharpe

    if candidate:
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
    # the trapezoid rule's 0.5 folded into the per-step weights (exactly)
    half_outflow = 0.5 * outflow
    half_dt = 0.5 * dt

    phi0 = controls.spd0 if candidate else 1.0

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

    wealth = np.empty((n_paths, n_rec))
    spd = np.empty((n_paths, n_rec))
    y_arr = np.empty((n_paths, n_rec))
    objective = np.empty(n_paths) if accumulate_objective else None

    # A leading column of zero volatility and the initial log as drift (with a
    # zero normal) makes the affine steps whole-row operations and column 0 of
    # each running sum log X0 (log zeta0).
    vol_x = np.concatenate(([0.0], vol_x))
    drift_x = np.concatenate(([math.log(config.initial_wealth)], drift_x))
    vol_z = np.concatenate(([0.0], vol_z))
    drift_z = np.concatenate(([math.log(phi0)], drift_z))
    seed = int(config.seed)
    # floating-point error handling is per thread: workers take the caller's
    fp_state = dict(np.geterr(), call=np.geterrcall())

    def shard(worker: int) -> tuple[int, int, str] | None:
        """Run sub-blocks worker, worker + n_workers, ... in path order.

        Returns (path, step, what) of the first non-finite increment, or else
        of the first recorded X, zeta or Y that overflows, in the first
        sub-block that has one, or None; later sub-blocks hold higher paths.
        """
        normals = _Substreams(seed)
        lanes = max(min(sub, n_paths), 2)
        buffers = np.empty((2, lanes, n_steps + 1))
        scratch = np.empty((2, min(_CHUNK_NODES, n_steps) + 1, lanes))
        with np.errstate(**fp_state):
            for block in range(worker, n_blocks, n_workers):
                start = block * sub
                stop = min(start + sub, n_paths)
                m = stop - start
                # a one-lane reduction over axis 0 would be pairwise, so a
                # lone path runs beside a copy of itself
                width = max(m, 2)
                log_x, log_z = buffers[:, :width]
                normals.fill(start, log_x[:m, 1:])
                log_x[m:] = log_x[0]
                log_x[:, 0] = 0.0
                np.multiply(log_x, vol_z, out=log_z)
                log_z += drift_z
                np.cumsum(log_z, axis=1, out=log_z)
                log_x *= vol_x
                log_x += drift_x
                np.cumsum(log_x, axis=1, out=log_x)
                # a non-finite running sum stays non-finite, so the last column
                # shows whether any step of a path went bad
                if not (np.isfinite(log_x[:m, -1]).all() and np.isfinite(log_z[:m, -1]).all()):
                    bad = ~(np.isfinite(log_x[:m, 1:]) & np.isfinite(log_z[:m, 1:]))
                    row = int(np.argmax(bad.any(axis=1)))
                    return start + row, int(np.argmax(bad[row])) + 1, "non-finite increment at"
                # in place: a (paths x recorded times) temporary would be a
                # third full buffer when every node is recorded
                for logs, rec in ((log_x, wealth[start:stop]), (log_z, spd[start:stop])):
                    np.take(logs[:m], record_idx, axis=1, out=rec)
                    np.exp(rec, out=rec)
                # Y = zeta*X + running trapezoid integral of zeta*X*outflow
                np.add(log_x, log_z, out=log_z)
                _trapezoid_totals(log_z, None, half_outflow, record_idx, scratch,
                                  y_arr[start:stop], with_value=True)
                # exp and the trapezoid sums may overflow where the logs did not
                recorded = (wealth[start:stop], spd[start:stop], y_arr[start:stop])
                if not all(np.isfinite(a.max()) and np.isfinite(a.min()) for a in recorded):
                    bad = ~np.logical_and.reduce([np.isfinite(a) for a in recorded])
                    row = int(np.argmax(bad.any(axis=1)))
                    return (start + row, int(record_idx[np.argmax(bad[row])]),
                            "X, zeta or Y overflows float64 by")
                if accumulate_objective:
                    # zeta*X is recorded; its buffer takes gamma log X
                    with np.errstate(invalid="ignore"):
                        np.multiply(log_x, gamma, out=log_z)
                        _trapezoid_totals(log_z, utility_coef, half_dt, (n_steps,), scratch,
                                          objective[start:stop, None], with_value=False)
        return None

    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        found = [bad for bad in pool.map(shard, range(n_workers)) if bad is not None]
    if found:
        path, k, what = min(found)
        raise SimulationError(f"{what} step {k} (t={times[k]:.6g}), path {path}")

    rec_times = times[record_idx]
    income = np.exp(-market.r * rec_times)[None, :] * c_nodes[record_idx][None, :] * wealth
    summary = {"t": rec_times}
    for name, values in (("income", income), ("Y", y_arr), ("zetaX", spd * wealth)):
        summary[f"mean_{name}"], summary[f"se_{name}"] = _mean_se(values)

    return SimulationResult(
        times=rec_times,
        wealth_paths=wealth,
        spd_paths=spd,
        y_paths=y_arr,
        objective_paths=objective,
        summary=summary,
        n_paths=config.n_paths,
        step=float(times[1] - times[0]),
        horizon=config.horizon,
        initial_wealth=config.initial_wealth,
        spd0=phi0,
    )


def _mean_se(values: np.ndarray):
    """Means and standard errors along axis 0: the bits of ``mean(axis=0)``
    and ``std(axis=0, ddof=1) / sqrt(n)``, without their overflow or underflow.

    Each column is scaled by 2^-e, e the exponent of its largest |value|, so
    its squares stay within float64, then scaled back; powers of two scale
    exactly.  The steps are np.std's, with one temporary of ``values``' size.
    A column with a non-finite value has a nan SE, and a single row SE 0.
    """
    n = values.shape[0]
    with np.errstate(invalid="ignore"):  # inf - inf in a non-finite column
        exponent = np.frexp(np.maximum(values.max(axis=0), -values.min(axis=0)))[1]
        scaled = np.ldexp(values, -exponent)
        mean = np.add.reduce(scaled, axis=0) / n
        scaled -= mean
        np.multiply(scaled, scaled, out=scaled)
        se = np.sqrt(np.add.reduce(scaled, axis=0) / max(n - 1, 1)) / math.sqrt(n)
    return np.ldexp(mean, exponent), np.ldexp(se, exponent)


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
            mean_diff, se = _mean_se(y[:, j] - y[:, i])
            pairs.append(PairCheck(float(times[i]), float(times[j]), mean_diff, se,
                                   mean_diff <= z * se))
    marts = []
    if candidate:
        y0 = result.y0
        se_y = _mean_se(y)[1]
        for j, t in enumerate(times):
            dev = float(y[:, j].mean() - y0)
            marts.append(MartingaleCheck(float(t), dev, float(se_y[j]),
                                         abs(dev) <= z * se_y[j] + 1e-12 * abs(y0)))
    return SupermartingaleReport(pairs=tuple(pairs), martingale=tuple(marts))


def first_moment_spd_wealth(t, controls: ControlSchedule, x0: float = 1.0):
    """Closed-form E[zeta_t X*_t] = phi_0 X_0 D(t)/D(0) for the optimal controls.

    The tabulated denominator D already encodes the market and mortality.
    """
    ratio = np.exp(controls.log_denominator_at(t) - controls.log_denominator[0])
    out = controls.spd0 * x0 * ratio
    return out if np.ndim(out) else float(out)


def second_moment_spd_wealth_bound(t, controls: ControlSchedule, x0: float = 1.0):
    """Upper bound (phi_0 X_0)^2 exp((sigma pi* - sharpe)^2 t) for E[(zeta X*)^2]."""
    load = controls.market.sigma * controls.pi_star - controls.market.sharpe
    out = (controls.spd0 * x0) ** 2 * np.exp(load**2 * np.asarray(t, dtype=float))
    return out if np.ndim(out) else float(out)


def value_function(t, x, controls: ControlSchedule):
    """V(t, x) = e^{-rho t} S_t (x^gamma / gamma) (c*_t)^{gamma-1}: the optimal
    objective from t on with wealth x, discounted to 0 and weighted by survival.

    With c*_t = e^{-beta t} S_t / D(t) it is (x^gamma / gamma) e^{(beta-rho) t}
    D(t) (c*_t)^gamma, read from the tabulated controls; V(0, X0) is the
    closed-form optimal value (X0^gamma / gamma) D(0)^{1-gamma}.
    """
    t = np.asarray(t, dtype=float)
    if np.any((t < 0.0) | (t > controls.t_end + 1e-9)):
        raise ValueError(f"t must lie in [0, {controls.t_end:.6g}]")
    gamma = controls.gamma
    log_scale = ((controls.beta - controls.rho) * t + controls.log_denominator_at(t)
                 + gamma * np.interp(t, controls.grid, controls.log_c_star))
    out = np.asarray(x, dtype=float) ** gamma / gamma * np.exp(log_scale)
    return out if np.ndim(out) else float(out)


def _margin(mean: float, se: float) -> float:
    """mean / se, or +-inf where the standard error is 0 or undefined."""
    return mean / se if se > 0 else math.copysign(math.inf, mean)


def objective_estimate(result: SimulationResult) -> tuple[float, float]:
    """Mean and standard error of the per-path discounted-utility integrals."""
    if result.objective_paths is None:
        raise ValueError("simulation was run without a preference schedule")
    return _mean_se(result.objective_paths)


# ============================================================================
# Optimality audit
# ============================================================================

@dataclass(frozen=True)
class JitterCheck:
    """A jittered control set against the candidate on the same paths.

    ``mean_diff`` and ``se_diff`` pair the completed objectives J_H + V(H, X_H),
    candidate minus jitter (+inf where the alpha cap zeroes a bequest the
    weights price at -inf); ``truncated_margin`` pairs J_H alone, in SE.
    """

    c_scale: float
    alpha_scale: float
    supermartingale_ok: bool
    mean_diff: float
    se_diff: float
    truncated_margin: float

    @property
    def margin(self) -> float:
        return _margin(self.mean_diff, self.se_diff)


@dataclass(frozen=True)
class AuditReport:
    """The candidate's martingale report and dual gap E[J_H + V(H, X_H)] - V(0, X0)
    (zero at any horizon H for the optimum), and each jitter's checks."""

    martingale: SupermartingaleReport
    horizon: float
    dual_gap: float
    dual_gap_se: float
    jitters: tuple[JitterCheck, ...]

    @property
    def dual_gap_z(self) -> float:
        return _margin(self.dual_gap, self.dual_gap_se)

    @property
    def wins(self) -> int:
        return sum(j.mean_diff > 0.0 for j in self.jitters)

    @property
    def ok(self) -> bool:
        """Y a martingale within 3 SE under the candidate and a supermartingale
        under every jitter, and the candidate wins all but at most one pair.

        Since (mu - r) pi - sigma pi theta = 0, Y has zero drift under any
        deterministic control, so the supermartingale half checks the budget
        identity and the kernel and cannot reject a suboptimal control; the
        evidence of optimality is the paired completed-objective comparison.
        """
        return (self.martingale.martingale_ok
                and all(j.supermartingale_ok for j in self.jitters)
                and self.wins >= len(self.jitters) - 1)


def optimality_audit(config: SimulationConfig, controls: ControlSchedule) -> AuditReport:
    """Audit tabulated controls by duality against 20 jitters on common random numbers.

    The candidate and every jitter are simulated under the model the controls
    were built from: ``controls.market``, ``controls.mortality`` and the
    preferences ``controls.schedule``.  The jitters scale consumption and the
    tontine allocation by pairs drawn from U[0.8, 1.2] with seed 2024; every
    run takes ``config`` at its default record times.  E[J_H + V(H, X_H)] is
    V(0, X0) under the optimum and at most that under any admissible control,
    so the paired comparison of the completed objectives holds at any horizon
    H, whereas J_H alone favours jitters that defer consumption past H.
    Raises ``ValueError`` for fewer than 2 paths, where every standard error
    is 0 and each check degenerates, and, naming gamma, when V(0, X0) or a
    completed objective under the candidate is zero, subnormal or not
    finite: X^gamma has left float64, and every comparison would read 0.
    The first is checked before any simulation, the second before the jitters.
    """
    if config.n_paths < 2:
        raise ValueError("the optimality audit needs at least 2 paths")
    config = replace(config, record_times=None)
    model = (controls.market, controls.mortality, controls.schedule)

    def require_normal(values, what: str) -> None:
        size = np.abs(values)
        if not np.all((size >= sys.float_info.min) & (size < math.inf)):  # nan fails too
            raise ValueError(f"{what} is zero, subnormal or not finite at "
                             f"gamma={controls.gamma:g}: X^gamma leaves float64")

    def completed(result: SimulationResult) -> np.ndarray:
        return result.objective_paths + value_function(
            config.horizon, result.wealth_paths[:, -1], controls)

    value0 = value_function(0.0, config.initial_wealth, controls)
    require_normal(value0, f"V(0, X0) = {value0:.6g}")
    candidate = simulate_wealth(config, controls, *model)
    martingale = check_supermartingale(candidate, candidate=True)
    best, truncated = completed(candidate), candidate.objective_paths
    del candidate  # one simulation's arrays alive at a time
    require_normal(best, "a completed objective under the candidate")

    def against(c_scale: float, a_scale: float) -> JitterCheck:
        run = simulate_wealth(config, scaled_controls(controls, c_scale, a_scale), *model)
        return JitterCheck(c_scale, a_scale, check_supermartingale(run).supermartingale_ok,
                           *_mean_se(best - completed(run)),
                           _margin(*_mean_se(truncated - run.objective_paths)))

    draws = np.random.default_rng(2024).uniform(0.8, 1.2, size=(20, 2))
    return AuditReport(
        martingale, config.horizon,
        *_mean_se(best - value0),
        tuple(against(float(c), float(a)) for c, a in draws),
    )


def audit_csv(report: AuditReport) -> str:
    """Render an audit as `check,t,c_scale,alpha_scale,mean,se,ok` CSV: the
    candidate's E[Y_t] - Y_0 (``martingale``) and dual gap (``value``), and
    each ``jitter``'s paired completed difference, ok when it is positive and
    Y under the jitter is a supermartingale (Y and the dual gap at 3 SE)."""
    h = report.horizon
    rows = [("martingale", m.t, 1.0, 1.0, m.deviation, m.se, m.ok)
            for m in report.martingale.martingale]
    rows.append(("value", h, 1.0, 1.0, report.dual_gap, report.dual_gap_se,
                 abs(report.dual_gap_z) <= 3.0))
    rows += [("jitter", h, j.c_scale, j.alpha_scale, j.mean_diff, j.se_diff,
              j.mean_diff > 0.0 and j.supermartingale_ok) for j in report.jitters]
    lines = ["check,t,c_scale,alpha_scale,mean,se,ok"]
    lines += [",".join([check, *(format(v, ".12g") for v in values), str(ok).lower()])
              for check, *values, ok in rows]
    return "\n".join(lines) + "\n"
