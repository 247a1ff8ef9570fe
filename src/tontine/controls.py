"""Closed-form optimal controls: the drift constant beta, the constant
equity fraction, the denominator integral D(t), and the consumption and
tontine-allocation rates tabulated on a uniform grid.

D(t), the tail integral from t to T_max, has one kernel,
:func:`log_tail_integrals`, for a single t and for any grid.  It works in log
space with composite 16-point Gauss-Legendre panels on one fixed panel set:
one per year, split at the trimmed bequest horizon and, for trimmed weights
with gamma < 0, geometrically refined toward it, where the integrand's
derivative is singular; a panel over which the cumulative hazard rises by
more than 16 is halved until it does not, unless survival has underflowed
before it starts.  The fixed panels are integrated once and summed from the
top down; each query point t adds its own head panel [t, next edge], and the
head panels are integrated in blocks of a few hundred points, so the sweep's
transient memory is bounded by the panels whatever the size of the grid.
The panel count is checked against physical memory before any edge is built.
"""
from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .mortality import (GompertzMakehamParams, _check_times, _csv_table, _cumulative_hazard,
                        _force_of_mortality, cumulative_hazard)
from .preferences import (
    TRIMMED_VARIANTS,
    PreferenceSchedule,
    _log_transformed_weight,
    log_transformed_weight,
)

__all__ = [
    "MarketParams",
    "ControlSchedule",
    "beta",
    "merton_fraction",
    "log_tail_integrals",
    "build_control_schedule",
    "check_log_d0",
    "model_notes",
    "schedule_csv",
]

DEFAULT_GRID_STEP_YEARS = 1.0 / 52.0

# float64 values per quadrature panel that log_tail_integrals holds at once:
# 16 Gauss-Legendre nodes a panel times about seven integrand temporaries
# (tracemalloc peaks at 137 for a block of _HEAD_BLOCK head panels, the sweep's
# own arrays included, and at 114 for 2,560 panels, for every variant).
_PANEL_ARRAYS = 140

# float64 values per grid point that build_control_schedule holds at once: the
# grid, log D and the schedule's derived arrays, their temporaries and, at the
# weekly grid, its share of the panels (tracemalloc peaks at 15.3 for every
# variant on the weekly grid, 8.0 on a grid ten times finer).
_GRID_POINT_ARRAYS = 16

# Query points whose head panels log_tail_integrals integrates at once.
_HEAD_BLOCK = 256

# Text of both the MarketParams warning and the ControlSchedule note, so that
# the CLI, which prints each distinct message once, prints it once.
_NONPOSITIVE_PREMIUM = "mu <= r: the equity premium is nonpositive"

# Log-space D values below this are treated as underflowed grid points and
# truncated off the schedule (exp would round them to subnormal/zero).
_LOG_UNDERFLOW = -700.0

# log of the largest float64: a tabulated D(0) above it would overflow.
_LOG_FLOAT_MAX = math.log(sys.float_info.max)

# The 16-point Gauss-Legendre rule on [-1, 1], the bits of
# numpy.polynomial.legendre.leggauss(16), which is exactly symmetric: the
# nodes and weights of the upper half, mirrored.
_GL_HALF_NODES = (0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
                  0.6178762444026438, 0.755404408355003, 0.8656312023878318,
                  0.9445750230732326, 0.9894009349916499)
_GL_HALF_WEIGHTS = (0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
                    0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
                    0.062253523938647456, 0.027152459411754176)
_GL_NODES = np.array([-x for x in reversed(_GL_HALF_NODES)] + list(_GL_HALF_NODES))
_GL_WEIGHTS = np.array(list(reversed(_GL_HALF_WEIGHTS)) + list(_GL_HALF_WEIGHTS))
_LOG_GL_WEIGHTS = np.log(_GL_WEIGHTS)

# Geometric refinement toward a singular endpoint: panel widths shrink by
# _GRADE_RATIO per level, deep enough that the leftover sliver contributes
# below double-precision resolution.
_GRADE_RATIO = 0.5
_GRADE_LEVELS = 48

# Largest cumulative-hazard increment a panel may span: over one panel the
# 16-point rule integrates e^{-16x} to 1.8e-15 relative, but e^{-32x} only to
# 1.0e-11 and e^{-64x} to 1.6e-6.  Panels are halved until they comply,
# except those that start past _HAZARD_UNDERFLOW, where S_u = e^{-Lambda_u}
# is below the smallest float64.  A hazard that still breaks the bound after
# _SPLIT_LEVELS halvings (pieces 2^-64 of a year) is refused.
_PANEL_HAZARD = 16.0
_HAZARD_UNDERFLOW = 745.0
_SPLIT_LEVELS = 64


@dataclass(frozen=True)
class MarketParams:
    """Black-Scholes market constants (annual drift, volatility, risk-free rate)."""

    mu: float
    sigma: float
    r: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma) and math.isfinite(self.r)):
            raise ValueError("market parameters must be finite")
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        # beta and merton_fraction square both; neither square may leave float64
        if not (0.0 < self.sigma * self.sigma < math.inf
                and self.sharpe * self.sharpe < math.inf):
            raise ValueError(
                f"sigma^2 = {self.sigma * self.sigma:g} and the squared Sharpe ratio "
                f"((mu - r)/sigma)^2 = {self.sharpe * self.sharpe:g} must be positive "
                "and finite in float64"
            )
        if self.mu <= self.r:
            warnings.warn(_NONPOSITIVE_PREMIUM, stacklevel=3)

    @property
    def sharpe(self) -> float:
        return (self.mu - self.r) / self.sigma


def beta(market: MarketParams, gamma: float, rho: float) -> float:
    """Drift constant r + (rho-r)/(1-gamma) - gamma/(2(1-gamma)^2) * sharpe^2."""
    one_minus = 1.0 - gamma
    return (
        market.r
        + (rho - market.r) / one_minus
        - 0.5 * gamma / one_minus**2 * market.sharpe**2
    )


def merton_fraction(market: MarketParams, gamma: float) -> float:
    """Constant optimal equity fraction (mu - r) / ((1 - gamma) sigma^2)."""
    return (market.mu - market.r) / ((1.0 - gamma) * market.sigma**2)


def physical_memory_bytes() -> int | None:
    """Bytes of physical memory, or None where sysconf cannot tell."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf on this platform
        return None


def has_integrability_warning(schedule: PreferenceSchedule) -> bool:
    """True when the denominator integrand diverges at the bequest horizon.

    Trimmed weights with gamma > 0 blow up like 1/(H - t) after the
    1/(1-gamma) transformation, so D is an improper divergent integral; it
    is still computed (panel values stay finite) but is mesh-dependent.
    """
    return schedule.variant in TRIMMED_VARIANTS and schedule.gamma > 0


def model_notes(schedule: PreferenceSchedule, market: MarketParams) -> tuple[str, ...]:
    """Notes on the model itself, before any grid: a divergent trimmed
    integral for gamma > 0, and a nonpositive equity premium."""
    notes = []
    if has_integrability_warning(schedule):
        notes.append(
            "integrability: transformed bequest weight diverges at the horizon "
            "for gamma > 0; D is mesh-dependent there"
        )
    if market.mu <= market.r:
        notes.append(_NONPOSITIVE_PREMIUM)
    return tuple(notes)


def _require_memory(need: float, what: str, error: type[Exception]) -> None:
    """Raise ``error`` when ``need`` bytes for ``what`` exceed physical memory
    (never where its size is unknown)."""
    have = physical_memory_bytes()
    if have is not None and need > have:
        raise error(f"{what} need {need / 2**30:.3g} GiB, more than the "
                    f"{have / 2**30:.3g} GiB of physical memory")


def check_log_d0(log_d0: float, gamma: float) -> None:
    """Raise ``ValueError`` naming gamma when D(0) = exp(log_d0) overflows float64."""
    if log_d0 > _LOG_FLOAT_MAX:
        raise ValueError(f"D(0) = exp({log_d0:.6g}) overflows float64 at gamma={gamma:g}")


# ============================================================================
# Quadrature
# ============================================================================

def _sorted_unique(values) -> np.ndarray:
    """The distinct values of ``values``, flattened, in ascending order: the
    default-kind sort that ``np.unique`` runs, keeping the first of each run
    of equal values (of -0.0 and 0.0, the one the sort puts first).  Unlike
    ``np.unique`` it loads no ``numpy.ma``, and it keeps every NaN."""
    out = np.sort(np.ravel(values))
    keep = np.empty(out.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    return out[keep]


def _graded_edges(a: float, b: float) -> np.ndarray:
    """Panel edges on [a, b] refining geometrically toward b."""
    return np.concatenate([b - (b - a) * _GRADE_RATIO ** np.arange(_GRADE_LEVELS + 1), [b]])


def _panel_edges(schedule: PreferenceSchedule, mortality: GompertzMakehamParams) -> np.ndarray:
    """Fixed integration panel edges on [0, T_max]: yearly splits, the trimmed
    horizon, geometric refinement into it for gamma < 0, and halving of steep
    panels (see _PANEL_HAZARD)."""
    t_max = mortality.limiting_age_years
    h = schedule.horizon_years
    kink = [h] if schedule.is_trimmed and h < t_max else []
    edges = _sorted_unique(np.concatenate([np.arange(math.ceil(t_max), dtype=float), kink,
                                            [t_max]]))

    if schedule.is_trimmed and schedule.gamma < 0 and h <= t_max:
        at_h = np.searchsorted(edges, h)  # edges[at_h] == h by construction
        edges = _sorted_unique(np.concatenate([edges, _graded_edges(edges[at_h - 1], h)]))

    for level in range(_SPLIT_LEVELS + 1):
        # the edges lie in [0, T_max], so they skip the time check
        cum = _cumulative_hazard(edges, mortality.a1, mortality.a2, mortality.a3)
        steep = (np.diff(cum) > _PANEL_HAZARD) & (cum[:-1] < _HAZARD_UNDERFLOW)
        if not steep.any():
            return edges
        if level == _SPLIT_LEVELS:
            raise ValueError(
                f"hazard too steep to integrate (a1={mortality.a1:g}, a2={mortality.a2:g}, "
                f"a3={mortality.a3:g}): panels 2^-{_SPLIT_LEVELS} of a year wide still "
                f"span more than {_PANEL_HAZARD:g} of cumulative hazard"
            )
        edges = np.sort(np.concatenate([edges, 0.5 * (edges[:-1][steep] + edges[1:][steep])]))


def _log_integrand(u: np.ndarray, schedule: PreferenceSchedule,
                   mortality: GompertzMakehamParams, beta_value: float) -> np.ndarray:
    """log of e^{-beta*u} S_u (1 + b_u^{1/(1-gamma)} lambda_u) at quadrature
    nodes, which lie in [0, T_max] by construction and so skip the time check."""
    with np.errstate(divide="ignore"):
        log_glam = _log_transformed_weight(u, schedule, mortality) + np.log(
            _force_of_mortality(u, mortality)
        )
    return (
        -beta_value * u
        - _cumulative_hazard(u, mortality.a1, mortality.a2, mortality.a3)
        + np.logaddexp(0.0, log_glam)
    )


def _log_panel_integrals(a: np.ndarray, b: np.ndarray, schedule: PreferenceSchedule,
                         mortality: GompertzMakehamParams,
                         beta_value: float) -> np.ndarray:
    """log of the Gauss-Legendre integral over each panel [a_i, b_i]
    (-inf for an empty panel)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    u = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    vals = _log_integrand(u.ravel(), schedule, mortality, beta_value).reshape(u.shape)
    with np.errstate(divide="ignore"):
        log_jacobian = np.log(half)[:, None] + _LOG_GL_WEIGHTS[None, :]
    return np.logaddexp.reduce(vals + log_jacobian, axis=1)


def log_tail_integrals(
    t,
    schedule: PreferenceSchedule,
    mortality: GompertzMakehamParams,
    market: MarketParams,
):
    """log D(t) at every t (any shape, each in [0, T_max]) in one quadrature sweep,
    where D(t) = int_t^{T_max} e^{-beta*u} S_u (1 + b_u^{1/(1-gamma)} lambda_u) du;
    a float for a scalar t.

    The fixed panels of :func:`_panel_edges` are integrated once and summed
    from the top down; each t then adds its own head panel [t, next edge].
    Every t is thus integrated on the same panels whichever grid asked for
    it, which keeps the mesh-dependent trimmed gamma > 0 value consistent.
    The head panels are integrated _HEAD_BLOCK points at a time, each point
    through the same element-wise operations, so a value does not depend on
    the block it falls in.
    """
    t_max = mortality.limiting_age_years
    t = _check_times(t, t_max)
    # counted before any edge is built: the yearly panels, the horizon and its
    # graded panels (halving steep panels adds at most a few thousand), or one
    # block of head panels, whichever is more
    panels = max(math.ceil(t_max) + _GRADE_LEVELS + 2, _HEAD_BLOCK)
    _require_memory(8.0 * _PANEL_ARRAYS * panels, f"{panels:.6g} quadrature panels",
                    MemoryError)
    beta_value = beta(market, schedule.gamma, schedule.rho)
    edges = _panel_edges(schedule, mortality)
    fixed = _log_panel_integrals(edges[:-1], edges[1:], schedule, mortality, beta_value)
    # log_suffix[k]: log of the integral over [edges[k], T_max]
    log_suffix = np.append(np.logaddexp.accumulate(fixed[::-1])[::-1], -np.inf)
    flat = t.ravel()
    out = np.empty(flat.shape)
    for start in range(0, flat.size, _HEAD_BLOCK):
        block = flat[start:start + _HEAD_BLOCK]
        # first edge strictly above each t; t = T_max gets an empty head panel
        nxt = np.minimum(np.searchsorted(edges, block, side="right"), len(edges) - 1)
        head = _log_panel_integrals(block, edges[nxt], schedule, mortality, beta_value)
        np.logaddexp(head, log_suffix[nxt], out=out[start:start + _HEAD_BLOCK])
    return out.reshape(t.shape)[()]


# ============================================================================
# Tabulated schedule
# ============================================================================

@dataclass(frozen=True)
class ControlSchedule:
    """Optimal controls tabulated on a uniform grid, with the preference
    schedule, mortality and market they were built from; gamma, rho, beta,
    pi*, c*, alpha* and D are derived from these and log D on the grid once,
    on construction (c* and 1 - alpha* through :func:`log_control_rates`).

    ``grid`` runs from 0 to the last point where D stays above underflow
    (one step short of the limiting age, where D vanishes identically; any
    further truncation is recorded in ``warnings``).  Off-grid queries
    interpolate log-linearly, matching the near-exponential decay of D,
    except in a cell where the interpolated log(1 - alpha*) is -inf (a zero
    bequest weight at an end, as at the trimmed horizon): there
    ``bequest_fraction_at`` evaluates c*_t b_t^{1/(1-gamma)} at t itself.
    """

    schedule: PreferenceSchedule
    mortality: GompertzMakehamParams
    market: MarketParams
    grid: np.ndarray
    log_denominator: np.ndarray = field(repr=False)
    warnings: tuple[str, ...] = ()
    log_c_star: np.ndarray = field(init=False, repr=False)
    log_bequest_fraction: np.ndarray = field(init=False, repr=False)
    gamma: float = field(init=False)
    rho: float = field(init=False)
    beta: float = field(init=False)
    pi_star: float = field(init=False)
    c_star: np.ndarray = field(init=False, repr=False)
    alpha_star: np.ndarray = field(init=False, repr=False)
    denominator: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        gamma, rho = self.schedule.gamma, self.schedule.rho
        beta_value = beta(self.market, gamma, rho)
        grid = np.asarray(self.grid, dtype=float)
        log_d = np.asarray(self.log_denominator, dtype=float)
        log_c, log_bequest = log_control_rates(grid, log_d, self.schedule, self.mortality,
                                               beta_value)
        arrays = dict(grid=grid, log_denominator=log_d, log_c_star=log_c,
                      log_bequest_fraction=log_bequest, c_star=np.exp(log_c),
                      alpha_star=1.0 - np.exp(log_bequest), denominator=np.exp(log_d))
        for arr in arrays.values():
            arr.setflags(write=False)
        derived = dict(arrays, gamma=gamma, rho=rho, beta=beta_value,
                       pi_star=merton_fraction(self.market, gamma))
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @property
    def t_end(self) -> float:
        return float(self.grid[-1])

    @property
    def spd0(self) -> float:
        """phi_0 = (c*_0)^{gamma-1}, the initial state-price density of Y
        (inf where it overflows float64)."""
        try:
            return float(self.c_star[0]) ** (self.gamma - 1.0)
        except OverflowError:
            return math.inf

    def log_denominator_at(self, t) -> np.ndarray:
        return np.interp(_check_times(t, self.t_end + 1e-9), self.grid, self.log_denominator)

    def consumption_at(self, t) -> np.ndarray:
        return np.exp(np.interp(_check_times(t, self.t_end + 1e-9), self.grid, self.log_c_star))

    def bequest_fraction_at(self, t) -> np.ndarray:
        """1 - alpha*_t, interpolated in log space except in a cell with a
        zero end, where it is c*_t b_t^{1/(1-gamma)} at t."""
        t = _check_times(t, self.t_end + 1e-9)
        log_frac = np.asarray(np.interp(t, self.grid, self.log_bequest_fraction))
        cell = np.isneginf(log_frac)
        if np.any(cell):
            at = t[cell]
            log_frac[cell] = (np.interp(at, self.grid, self.log_c_star)
                              + log_transformed_weight(at, self.schedule, self.mortality))
        out = np.exp(log_frac)
        return out if out.ndim else float(out)


def log_control_rates(
    t: np.ndarray,
    log_d: np.ndarray,
    schedule: PreferenceSchedule,
    mortality: GompertzMakehamParams,
    beta_value: float,
) -> tuple[np.ndarray, np.ndarray]:
    """(log c*_t, log(1 - alpha*_t)) at t from log D(t):
    c*_t = e^{-beta t} S_t / D(t) and 1 - alpha*_t = c*_t b_t^{1/(1-gamma)}."""
    log_c = -beta_value * t - cumulative_hazard(t, mortality) - log_d
    return log_c, log_c + log_transformed_weight(t, schedule, mortality)


def build_control_schedule(
    schedule: PreferenceSchedule,
    mortality: GompertzMakehamParams,
    market: MarketParams,
    grid_step: float = DEFAULT_GRID_STEP_YEARS,
) -> ControlSchedule:
    """Tabulate pi*, c*_t, alpha*_t, and D(t) on a uniform grid.

    The grid nominally spans [0, T_max] in steps of ``grid_step`` (which must
    divide T_max); the final point, where D vanishes, is dropped, and any
    additional points where D underflows are truncated with a warning note.
    A grid whose arrays would exceed physical memory raises ``MemoryError``
    before any of them is allocated, and a D(0) beyond float64 raises
    ``ValueError`` before any D is exponentiated.
    D comes from one :func:`log_tail_integrals` sweep over the grid, so each
    grid value equals that kernel's value at that point alone.
    """
    if not grid_step > 0:
        raise ValueError("grid_step must be positive")
    t_max = mortality.limiting_age_years
    n = round(t_max / grid_step)
    if n < 2 or abs(n * grid_step - t_max) > 1e-9 * max(1.0, t_max):
        raise ValueError("grid_step must divide the limiting age horizon")
    _require_memory(8.0 * _GRID_POINT_ARRAYS * n, f"{n:.6g} grid points", MemoryError)
    grid_full = np.arange(n) * t_max / n  # T_max itself, where D vanishes, is left out

    notes = list(model_notes(schedule, market))
    log_d = log_tail_integrals(grid_full, schedule, mortality, market)
    check_log_d0(log_d[0], schedule.gamma)

    last = int(np.searchsorted(-log_d, -_LOG_UNDERFLOW))
    if last < 1:
        raise ValueError("denominator underflows over the whole grid; check parameters")
    if last < n:
        notes.append(
            f"truncation: dropped {n - last} trailing grid points where D(t) "
            "underflows (D vanishes at the limiting age)"
        )
    return ControlSchedule(
        schedule=schedule,
        mortality=mortality,
        market=market,
        grid=grid_full[:last],
        log_denominator=log_d[:last],
        warnings=tuple(notes),
    )


def schedule_csv(controls: ControlSchedule, base_age: float = 65.0) -> str:
    """Render a tabulated schedule as `t,age,pi_star,c_star,alpha_star,D` CSV."""
    return _csv_table(("t", "age", "pi_star", "c_star", "alpha_star", "D"),
                      ((t, base_age + t, controls.pi_star, c, a, d)
                       for t, c, a, d in zip(controls.grid, controls.c_star,
                                             controls.alpha_star, controls.denominator)))
