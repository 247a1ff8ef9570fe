"""Monte Carlo simulation of the wealth dynamics under deterministic-in-time
controls, alongside the state-price density; statistical checks of the
martingale structure; and the optimality audit by duality.

The per-step update is the exact lognormal solution given piecewise-constant
controls; hazard mass over each step enters through the exact increment of
the cumulative hazard, and for tabulated optimal controls the consumption/
allocation drift through the exact increment of log D, so the only
systematic error left is the control discretization (second order in the step).
One builder, ``_step_coefficients``, turns a control set into a record of
these per-step coefficients on the simulation grid, and it alone tells the
kinds of controls apart; tabulated optimal controls run under the market and
mortality they were built from.  The kernel reads only the record.

Because the controls are deterministic, one kernel advances a sub-block of
512 paths across a stretch of the time axis at once: balanced time segments
of at most 1,024 steps, one after another.  Sub-block b's normals come from
one Philox stream keyed by (seed, b), drawn time-major, 512 lanes a step
with path p in lane p mod 512 (a partial last sub-block still draws all
512), and resumed from one segment to the next; log X and log zeta are
running sums down time-major rows that start from the values carried over
the segment edge.  One chunked pass (``_trapezoid_totals``) exponentiates a
few dozen rows at a time into a small scratch and sums the trapezoid terms
of Y, then of the utility objective, from the totals carried over the edge
up to the recorded times: the same bits as one cumulative sum over the
whole axis, with two segment buffers per sub-block in flight.
The segments run as a two-stage pipeline on any host: one helper thread
draws the normals, one call per sub-block and segment, each into the next
of a ring of two buffers, and the calling thread turns each filled buffer
into log X in place beside its one zeta buffer and scratch.  So the kernel
holds three segment buffers, whatever the CPU count and the horizon, and the
drawing and advancing stages overlap on two CPUs.  The output bytes depend
only on the seed, not on the segment length, the number of CPUs, the path
count (path p's values are the same in any run that has it) or the horizon
(a shorter run's are a prefix of a longer one's).  The sub-block width is
part of the stream: changing it changes the bytes.
The calling thread allocates the ring, the zeta buffer and the scratch and
frees them before the summary, so the summary and the next call reuse those
pages (glibc keeps the pages a helper thread frees in that thread's arena);
it also loads ``numpy.random``, whose memory would otherwise be charged to
the helper's arena.
"""
from __future__ import annotations

import math
import queue
import sys
import threading
from dataclasses import dataclass, replace
from typing import Callable, Union

import numpy as np

from .controls import ControlSchedule, MarketParams, _require_memory, _sorted_unique
from .mortality import (GompertzMakehamParams, _check_times, _csv_table, cumulative_hazard,
                        force_of_mortality)
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
    "objective_estimate",
    "summary_csv",
    "value_function",
    "optimality_audit",
    "AuditReport",
    "audit_csv",
]

REPORT_TIMES = (1.0, 5.0, 10.0, 15.0, 20.0, 30.0, 40.0)

# Paths per sub-block, and the width of each Philox stream: a segment's
# normals and then log X fill one time-major ((segment + 1) x 512) float64
# ring buffer, and the calling thread, which advances it, holds one more for
# log zeta (then log zeta*X, then gamma log X), 2.1 MB each at 1,040 steps.
# Of 256, 512, 1024 and 2048 paths, 512 ran the 20,000 x 1,040 audit fastest
# on two threads.  The streams are keyed by sub-block, so changing this
# changes every Monte Carlo output.
_SUB_BLOCK_PATHS = 512

# Steps per time segment, at most: a sub-block advances in the fewest
# balanced segments of at most this many steps, two of 520 at 1,040 steps,
# so its buffers stop growing with the horizon.
_SEGMENT_STEPS = 1024

# Time nodes per chunk of the trapezoid pass over Y and the objective: the
# scratch is 2 x (nodes + 1) x 512, 0.5 MB.  64 and 128 ran the audit equally
# fast; 32 was slower.
_CHUNK_NODES = 64

# Float64 arrays over the time grid that simulate_wealth holds at once, an
# upper bound: the grid, and the step-coefficient builder's record and
# temporaries (hazard, control and utility nodes), at most 27 at its peak.
_STEP_ARRAYS = 32


class SimulationError(RuntimeError):
    """Simulation could not produce finite paths."""


@dataclass(frozen=True)
class SimulationConfig:
    """Path count, step, horizon (years), seed, and initial wealth; the path
    count and seed are integers (Python or numpy, not bool).

    ``record_times`` selects the snapshot times stored per path: a nonempty
    sequence of times in [0, horizon], each snapped to the nearest grid node;
    ``None`` keeps 0, the report times within the horizon, and the horizon
    itself, while the string ``"all"`` keeps every grid node.  The result
    arrays and the summary's temporaries take 8 bytes x n_paths x (6 x
    recorded times + 1).  The kernel advances the time axis in the fewest
    balanced segments of seg <= 1,024 steps, whatever the horizon.  Whatever
    the path count, even one, the ring of two normals buffers and the zeta
    buffer take 3 x 8 bytes x 512 x (seg + 1), at most 12.6 MB, and the
    scratch 2 x 8 bytes x 512 x (min(64, seg) + 1), which the calling thread
    allocates and frees before the summary;
    ``simulate_wealth`` raises ``SimulationError`` before allocating
    anything the length of the time grid if these would exceed the
    machine's physical memory.
    """

    n_paths: int
    horizon: float
    step: float = 1.0 / 252.0
    seed: int = 0
    initial_wealth: float = 100_000.0
    record_times: Union[tuple, str, None] = None

    def __post_init__(self) -> None:
        for name in ("n_paths", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        for name in ("step", "horizon", "initial_wealth"):
            if not 0 < getattr(self, name) < math.inf:  # nan fails too
                raise ValueError(f"{name} must be positive and finite")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        times = self.record_times
        if times is None or isinstance(times, str) and times == "all":
            return
        try:  # any other str is a scalar or no number at all
            times = np.asarray(times, dtype=float)
        except (TypeError, ValueError):
            times = np.empty(0)
        if times.ndim != 1 or times.size == 0:
            raise ValueError("record_times must be None, 'all', or a nonempty sequence of times")
        _check_times(times, self.horizon + 1e-9, "record_times")


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
    """The normals of each sub-block: those of ``Philox`` keyed by the uint64
    pair (seed, block), drawn time-major, one row of ``_SUB_BLOCK_PATHS``
    lanes a step, one time segment after another.

    One generator serves every sub-block: step 0 resets it to the block's
    key, zero counter and empty buffer, and a later segment resumes it where
    the one before stopped, so the pieces of a stream are the bits of one
    draw.  It is built, and ``numpy.random`` loaded, on the thread that
    constructs this; it is built from a fixed seed sequence, since a
    generator built without one draws OS entropy for a seed sequence the key
    then overrides.
    """

    def __init__(self, seed: int) -> None:
        self._key = np.array([seed, 0], dtype=np.uint64)
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64), "key": self._key},
            "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4, "has_uint32": 0,
            "uinteger": 0,
        }
        self._stream = np.random.Generator(np.random.Philox(np.random.SeedSequence(0)))

    def fill(self, block: int, first_step: int, out: np.ndarray) -> None:
        """Fill row i of ``out`` with the normals of sub-block ``block`` at
        step ``first_step + 1 + i``, one per lane.

        A sub-block's calls come in step order, with every lane: step 0
        starts its stream, and a later step resumes it.
        """
        if first_step == 0:
            self._key[1] = block
            self._stream.bit_generator.state = self._state
        self._stream.standard_normal(out=out)


def _check_memory(n_paths: int, n_rec: int, n_steps: int, buffer_floats: int) -> None:
    """Raise before allocating more than physical memory.

    Per path and recorded time: X, zeta and Y, then the summary's income and
    zeta*X and one standard-deviation temporary; per path: the objective; per
    step: the time-grid arrays; and ``buffer_floats``, the floats of the ring
    of normals, the zeta buffer and the scratch.
    """
    need = 8 * (n_paths * (6 * n_rec + 1) + _STEP_ARRAYS * (n_steps + 1) + buffer_floats)
    _require_memory(need, f"{n_paths} paths x {n_steps} steps ({n_rec} recorded times)",
                    SimulationError)


def _trapezoid_totals(logs, coef, half_weight, rows, scratch, total, out, *,
                      with_value) -> None:
    """Running trapezoid integrals of f = exp(``logs``) x ``coef`` at ``rows``.

    ``logs`` is time-major (nodes, lanes), ``coef`` per node or None, and
    ``half_weight`` half of each step's weight.  ``total`` holds each lane's
    integral up to node 0 and is advanced in place to the last node.  Column
    j of ``out`` receives the integral up to node ``rows[j]`` (ascending),
    plus f there if ``with_value``.  Chunks of C nodes pass through the
    halves of ``scratch`` (2, C + 1, lanes or more): f behind f at the node
    before, and the trapezoid terms behind the total so far, which a
    reduction over axis 0 extends one term at a time per lane.  That gives
    the bits of a cumulative sum for two or more lanes, however the nodes
    are split between calls; over a single lane numpy sums pairwise.
    """
    n_nodes, width = logs.shape
    m = out.shape[0]
    chunk = scratch.shape[1] - 1
    vals, terms = scratch[:, :, :width]
    np.exp(logs[:1], out=vals[:1])
    if coef is not None:
        vals[0] *= coef[0]
    j = 0
    for a in range(1, n_nodes, chunk):
        n = min(chunk, n_nodes - a)  # row i of the chunk holds node a - 1 + i
        np.exp(logs[a : a + n], out=vals[1 : n + 1])
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
    if isinstance(config.record_times, str):  # "all", checked on construction
        return None
    wanted = config.record_times
    if wanted is None:
        wanted = [0.0, *(t for t in REPORT_TIMES if t <= config.horizon + 1e-9), config.horizon]
    step = config.horizon / n_steps
    return _sorted_unique(np.clip(np.round(np.asarray(wanted, dtype=float) / step).astype(int),
                                  0, n_steps))


@dataclass(frozen=True)
class _StepCoefficients:
    """One control set's coefficients on the simulation grid.  Over step i
    with normal Z, log X gains ``drift_x[i] + vol_x[i] Z`` and log zeta
    ``drift_z[i] + vol_z[i] Z``; half each step's outflow (the integral of
    c + lambda (1 - alpha)) and length weigh the trapezoid sums of Y and of
    the objective.  Per node: consumption and, with preferences (else None),
    e^{-rho t - Lambda(t)} (c^gamma + lambda b (1 - alpha)^gamma) / gamma,
    the coefficient of X^gamma.  ``r`` discounts the income summary."""

    drift_x: np.ndarray
    vol_x: np.ndarray
    drift_z: np.ndarray
    vol_z: np.ndarray
    half_outflow: np.ndarray
    half_dt: np.ndarray
    consumption: np.ndarray
    utility_coef: np.ndarray | None
    gamma: float | None
    phi0: float
    r: float


def _step_coefficients(controls, market, mortality, schedule, times) -> _StepCoefficients:
    """The coefficients of ``controls`` on the grid ``times``.  A
    ``ControlSchedule`` runs under its own market and mortality, holds pi*,
    pays out each step's exact drop of log D, reads c and 1 - alpha at the
    nodes and starts zeta at ``spd0``; other controls run under ``market``
    and ``mortality``, held at each step's midpoint, with zeta starting at 1."""
    candidate = isinstance(controls, ControlSchedule)
    if candidate:
        market, mortality = controls.market, controls.mortality
    dt = np.diff(times)
    sqdt = np.sqrt(dt)
    lam_cum = cumulative_hazard(times, mortality)
    d_lam = np.diff(lam_cum)
    if candidate:
        # exact integral of c + lambda(1-alpha) per step
        outflow = -np.diff(controls.log_denominator_at(times))
        x_control_drift = -outflow + d_lam  # exact integral of -c + alpha*lambda
        pi_step = np.full(len(dt), controls.pi_star)
        c_nodes = controls.consumption_at(times)
        bq_nodes = controls.bequest_fraction_at(times)
    else:
        pi_step, c_mid, alpha_mid = controls.at(0.5 * (times[:-1] + times[1:]))
        outflow = c_mid * dt + (1.0 - alpha_mid) * d_lam
        x_control_drift = -c_mid * dt + alpha_mid * d_lam
        _, c_nodes, alpha_nodes = controls.at(times)
        bq_nodes = 1.0 - alpha_nodes
    utility_coef = gamma = None
    if schedule is not None:
        gamma = schedule.gamma
        b_nodes = np.asarray(bequest_weight(times, schedule, mortality))
        lam_nodes = force_of_mortality(times, mortality)
        disc = np.exp(-schedule.rho * times - lam_cum)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            c_pow, bq_pow = (np.where(v > 0, np.where(v > 0, v, np.nan) ** gamma,
                                      np.inf if gamma < 0 else 0.0) for v in (c_nodes, bq_nodes))
            bequest_term = np.where(b_nodes > 0, lam_nodes * b_nodes * bq_pow, 0.0)
        utility_coef = disc * (c_pow + bequest_term) / gamma

    return _StepCoefficients(
        drift_x=(market.r + (market.mu - market.r) * pi_step
                 - 0.5 * market.sigma**2 * pi_step**2) * dt + x_control_drift,
        vol_x=market.sigma * pi_step * sqdt,
        drift_z=-market.r * dt - d_lam - 0.5 * market.sharpe**2 * dt,
        vol_z=-market.sharpe * sqdt,
        # the trapezoid rule's 0.5 folded into the per-step weights (exactly)
        half_outflow=0.5 * outflow,
        half_dt=0.5 * dt,
        consumption=c_nodes,
        utility_coef=utility_coef,
        gamma=gamma,
        phi0=controls.spd0 if candidate else 1.0,
        r=market.r,
    )


def simulate_wealth(
    config: SimulationConfig,
    controls: Union[ControlSchedule, DeterministicControls],
    market: MarketParams,
    mortality: GompertzMakehamParams,
    schedule: PreferenceSchedule | None = None,
) -> SimulationResult:
    """Simulate X, zeta, and Y; optionally accumulate the utility objective.

    A tabulated ``ControlSchedule`` runs under the market and mortality it
    was built from (so these may be None) and starts the state-price density
    at its ``spd0``, so Y is a martingale, not just a local one, at the
    optimum; custom ``DeterministicControls`` run under the given ones and
    start the density at 1.  Supplying ``schedule`` turns on per-path
    accumulation of the discounted utility of consumption and bequest.

    Raises ``ValueError`` naming the field if a ``ControlSchedule`` is given
    a ``market``, ``mortality`` or ``schedule`` other than its own: its
    tabulated optimum holds only under its own model.  Raises ``ValueError``
    too if the tabulated controls stop short of the horizon or the step does
    not divide it.  Raises ``SimulationError`` if the results and buffers
    would not fit in physical memory, a path goes non-finite, or a recorded
    X, zeta or Y overflows float64; the last two name the lowest such path
    and its first non-finite step (for an overflow, the first recorded step
    that holds one).  A phi_0 past float64 raises it before anything is run.
    """
    if isinstance(controls, ControlSchedule):
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
    n_segments = -(-n_steps // _SEGMENT_STEPS)
    seg = -(-n_steps // n_segments)  # the longest segment
    # the ring of normals, and the zeta buffer and scratch: the memory check
    # counts these very shapes, and this thread allocates them so that their
    # pages return to its heap, not the helper's
    shapes = ((2, seg + 1, sub), (seg + 1, sub), (2, min(_CHUNK_NODES, seg) + 1, sub))
    _check_memory(n_paths, n_rec, n_steps, sum(map(math.prod, shapes)))
    ring, log_z_buffer, scratch = (np.empty(shape) for shape in shapes)
    if record_idx is None:
        record_idx = np.arange(n_steps + 1)
    # segment k runs from node edges[k] to edges[k + 1] and records
    # record_idx[rec_edges[k] : rec_edges[k + 1]]: node 0 in the first
    # segment, and only the nodes past its first in every other
    edges = [k * n_steps // n_segments for k in range(n_segments + 1)]
    rec_edges = [0, *np.searchsorted(record_idx, edges[1:], side="right").tolist()]

    times = np.arange(n_steps + 1) * config.horizon / n_steps
    coef = _step_coefficients(controls, market, mortality, schedule, times)

    wealth = np.empty((n_paths, n_rec))
    spd = np.empty((n_paths, n_rec))
    y_arr = np.empty((n_paths, n_rec))
    objective = None if coef.utility_coef is None else np.empty(n_paths)

    # What a sub-block carries over each segment edge, per lane: log X and
    # log zeta at the edge, the trapezoid totals of Y and of the objective,
    # and (-1 for none) the first non-finite step and the first recorded step
    # whose X, zeta or Y overflows.
    carried = np.empty((4, sub))
    first_bad = np.empty((2, sub), dtype=np.int64)
    carried_start = (math.log(config.initial_wealth), math.log(coef.phi0), 0.0, 0.0)

    def advance(block: int, k: int, log_x: np.ndarray) -> None:
        """Advance segment k of sub-block ``block``, whose normals fill
        ``log_x`` from row 1, turning them into log X in place from the log
        X carried into row 0.

        After its last segment, raises ``SimulationError`` naming the
        sub-block's lowest path with a non-finite increment and that path's
        first one, or else its lowest path with a recorded X, zeta or Y that
        overflows and that path's first such step.
        """
        start = block * sub
        m = min(sub, n_paths - start)
        # the lanes past a partial sub-block's paths are drawn but not
        # advanced, so a path that does not exist costs no time and raises
        # no floating-point error; a lone path keeps one lane beside it, as
        # a reduction over axis 0 of a single lane would be pairwise
        width = max(m, 2)
        a, b = edges[k], edges[k + 1]
        j0, j1 = rec_edges[k], rec_edges[k + 1]
        log_x = log_x[:, :width]
        log_z = log_z_buffer[: b - a + 1, :width]
        x_at, z_at, y_total, objective_total = carried[:, :width]
        bad_at, overflow_at = first_bad[:, :m]
        if k == 0:
            carried[:] = np.array(carried_start)[:, None]
            first_bad[:] = -1
        # the per-step coefficients as columns scale the time-major rows
        np.multiply(log_x[1:], coef.vol_z[a:b, None], out=log_z[1:])
        log_z[1:] += coef.drift_z[a:b, None]
        log_z[0] = z_at
        log_x[1:] *= coef.vol_x[a:b, None]
        log_x[1:] += coef.drift_x[a:b, None]
        log_x[0] = x_at
        # running sums a row at a time: the bits of a cumulative sum along
        # each lane, faster than one over axis 0
        x_rows, z_rows = list(log_x), list(log_z)
        for x_before, x_row, z_before, z_row in zip(x_rows, x_rows[1:], z_rows, z_rows[1:]):
            np.add(x_before, x_row, x_row)
            np.add(z_before, z_row, z_row)
        x_at[:], z_at[:] = log_x[-1], log_z[-1]
        # a non-finite running sum stays non-finite, so the last row shows
        # whether any step of a path went bad
        if not (np.isfinite(log_x[-1, :m]).all() and np.isfinite(log_z[-1, :m]).all()):
            bad = ~(np.isfinite(log_x[1:, :m]) & np.isfinite(log_z[1:, :m]))
            lanes = np.flatnonzero(bad[-1] & (bad_at < 0))
            bad_at[lanes] = a + 1 + np.argmax(bad[:, lanes], axis=0)
        if bad_at.max() < 0:  # else only the bad increments matter
            nodes = record_idx[j0:j1] - a
            recorded = tuple(arr[start : start + m, j0:j1] for arr in (wealth, spd, y_arr))
            for logs, rec in zip((log_x, log_z), recorded):
                np.exp(logs[nodes, :m].T, out=rec)
            # Y = zeta*X + running trapezoid integral of zeta*X*outflow
            np.add(log_x, log_z, out=log_z)
            _trapezoid_totals(log_z, None, coef.half_outflow[a:b], nodes, scratch, y_total,
                              recorded[2], with_value=True)
            # exp and the trapezoid sums may overflow where the logs did not
            if j1 > j0 and not all(np.isfinite(arr.max()) and np.isfinite(arr.min())
                                   for arr in recorded):
                bad = ~np.logical_and.reduce([np.isfinite(arr) for arr in recorded])
                rows = np.flatnonzero(bad.any(axis=1) & (overflow_at < 0))
                overflow_at[rows] = record_idx[j0 + np.argmax(bad[rows], axis=1)]
            if objective is not None and overflow_at.max() < 0:
                # zeta*X is recorded; its buffer takes gamma log X
                with np.errstate(invalid="ignore"):
                    np.multiply(log_x, coef.gamma, out=log_z)
                    _trapezoid_totals(log_z, coef.utility_coef[a : b + 1], coef.half_dt[a:b],
                                      (b - a,) if b == n_steps else (), scratch,
                                      objective_total, objective[start : start + m, None],
                                      with_value=False)
        if b < n_steps:
            return
        for what, at in (("non-finite increment at", bad_at),
                         ("X, zeta or Y overflows float64 by", overflow_at)):
            if at.max() >= 0:
                row = int(np.argmax(at >= 0))
                step = int(at[row])
                raise SimulationError(f"{what} step {step} (t={times[step]:.6g}), "
                                      f"path {start + row}")

    def segment(job: int, slot: int) -> tuple[int, int, np.ndarray]:
        """(sub-block, segment, its rows of ring buffer ``slot``) of job
        number ``job``: sub-block after sub-block, each segment after segment."""
        block, k = divmod(job, n_segments)
        return block, k, ring[slot, : edges[k + 1] - edges[k] + 1]

    # The helper thread draws the jobs' normals in order, each into the ring
    # buffer this thread has freed, and this thread advances them in that
    # order: the first sub-block that raises holds the lowest bad path.
    free, filled = queue.SimpleQueue(), queue.SimpleQueue()
    n_jobs = n_blocks * n_segments
    normals = _Substreams(config.seed)

    def drawing() -> None:
        try:
            for job in range(n_jobs):
                if (slot := free.get()) is None:
                    return
                block, k, log_x = segment(job, slot)
                normals.fill(block, edges[k], log_x[1:])
                filled.put(slot)
        except BaseException as exc:  # re-raised on the calling thread
            filled.put(exc)

    for slot in range(len(ring)):
        free.put(slot)
    drawer = threading.Thread(target=drawing, name="tontine-draw")
    drawer.start()
    try:
        for job in range(n_jobs):
            if isinstance(slot := filled.get(), BaseException):
                raise slot
            advance(*segment(job, slot))
            free.put(slot)
    finally:
        free.put(None)
        drawer.join()
    del ring, log_z_buffer, scratch  # the summary takes their pages

    rec_times = times[record_idx]
    income = np.exp(-coef.r * rec_times)[None, :] * coef.consumption[record_idx][None, :] * wealth
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
        spd0=coef.phi0,
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
    return _csv_table(cols, zip(*(result.summary[c] for c in cols)))


# ============================================================================
# Statistical structure checks
# ============================================================================

@dataclass(frozen=True)
class MartingaleCheck:
    t: float
    deviation: float
    se: float
    ok: bool


@dataclass(frozen=True)
class SupermartingaleReport:
    """Pairwise mean-decrease verdict on Y, plus constancy checks if requested."""

    supermartingale_ok: bool
    martingale: tuple[MartingaleCheck, ...]

    @property
    def martingale_ok(self) -> bool:
        return all(m.ok for m in self.martingale)


def check_supermartingale(
    result: SimulationResult, candidate: bool = False, z: float = 3.0
) -> SupermartingaleReport:
    """Verify mean(Y_t) <= mean(Y_s) + z*SE (paired) for every s < t.

    With ``candidate=True`` additionally verify |mean(Y_t - Y_0)| <= z*SE,
    each path against its own Y_0, at every recorded time, i.e. the
    exact-martingale property that holds only for the optimal controls.
    """
    times, y = result.times, result.y_paths
    # Y_t - Y_s for every t after s, one column each: column-major, so each
    # column's sums are those of the one pair's difference alone
    later = (np.subtract(y[:, i + 1:], y[:, i:i + 1], order="F") for i in range(len(times) - 1))
    supermartingale_ok = all(np.all(mean <= z * se) for mean, se in map(_mean_se, later))
    marts = ()
    if candidate:
        # each path against its own Y_0: at t = 0 the deviation is exactly 0
        slack = 1e-12 * abs(result.y0)
        marts = tuple(MartingaleCheck(float(t), float(dev), float(se), abs(dev) <= z * se + slack)
                      for t, dev, se in zip(times, *_mean_se(y - y[:, :1])))
    return SupermartingaleReport(supermartingale_ok, marts)


def value_function(t, x, controls: ControlSchedule):
    """V(t, x) = e^{-rho t} S_t (x^gamma / gamma) (c*_t)^{gamma-1}: the optimal
    objective from t on with wealth x, discounted to 0 and weighted by survival.

    With c*_t = e^{-beta t} S_t / D(t) it is (x^gamma / gamma) e^{(beta-rho) t}
    D(t) (c*_t)^gamma, read from the tabulated controls; V(0, X0) is the
    closed-form optimal value (X0^gamma / gamma) D(0)^{1-gamma}.  Raises
    ``ValueError`` for a t off the tabulation and for a negative or non-finite
    x; x = 0 gives the limit (0, or -inf for gamma < 0).
    """
    t = _check_times(t, controls.t_end + 1e-9)
    x = np.asarray(x, dtype=float)
    if not np.all((x >= 0.0) & (x < math.inf)):  # nan fails too
        raise ValueError("wealth x must be nonnegative and finite")
    gamma = controls.gamma
    log_scale = ((controls.beta - controls.rho) * t + controls.log_denominator_at(t)
                 + gamma * np.interp(t, controls.grid, controls.log_c_star))
    out = x**gamma / gamma * np.exp(log_scale)
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
    return _csv_table(("check", "t", "c_scale", "alpha_scale", "mean", "se", "ok"), rows)
