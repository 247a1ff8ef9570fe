"""Bequest-weight schedules b_t and the scale calibration that zeroes the
initial tontine allocation.

Variants
--------
none           b_t = 0
power          b_t = lambda_t^gamma
scaled_power   b_t = kappa * lambda_t^gamma
trimmed        b_t = (1/(1/lambda_t - 1/lambda_H))^gamma on [0, H), 0 for t >= H
scaled_trimmed b_t = kappa * trimmed base

These are the paper's five.  A horizon whose hazard lambda_H overflows
float64 takes 1/lambda_H = 0, its exact limit.

The quantity that actually enters the control formulas is the transformed
weight b_t^{1/(1-gamma)}, exposed here in log space so downstream quadrature
never underflows.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .mortality import GompertzMakehamParams, _check_times, _force_of_mortality

VARIANTS = ("none", "power", "scaled_power", "trimmed", "scaled_trimmed")
SCALED_VARIANTS = ("scaled_power", "scaled_trimmed")
TRIMMED_VARIANTS = ("trimmed", "scaled_trimmed")

DEFAULT_BEQUEST_HORIZON_YEARS = 20.0

__all__ = [
    "VARIANTS",
    "SCALED_VARIANTS",
    "TRIMMED_VARIANTS",
    "DEFAULT_BEQUEST_HORIZON_YEARS",
    "PreferenceSchedule",
    "KappaCalibration",
    "CalibrationRequired",
    "auto_rho",
    "bequest_weight",
    "log_transformed_weight",
    "calibrate_kappa",
]


class CalibrationRequired(ValueError):
    """A scaled variant was evaluated before its kappa was set."""


def _check_gamma(gamma: float) -> None:
    if not (math.isfinite(gamma) and gamma < 1.0 and gamma != 0.0):
        raise ValueError("gamma must be finite and satisfy gamma < 1 and gamma != 0")


def auto_rho(gamma: float, r: float) -> float:
    """Subjective discount rate that makes the planner market-consistent."""
    _check_gamma(gamma)
    return r * gamma


@dataclass(frozen=True)
class PreferenceSchedule:
    """Risk aversion, discounting, and the bequest-weight variant.

    ``kappa`` applies to scaled variants only; leaving it ``None`` marks the
    schedule as uncalibrated until :func:`calibrate_kappa` supplies a value.
    ``horizon_years`` is the bequest cutoff H used by trimmed variants.
    """

    gamma: float
    rho: float
    variant: str
    kappa: float | None = None
    horizon_years: float = DEFAULT_BEQUEST_HORIZON_YEARS

    def __post_init__(self) -> None:
        _check_gamma(self.gamma)
        if not math.isfinite(self.rho):
            raise ValueError("rho must be finite")
        if self.variant not in VARIANTS:
            raise ValueError(
                f"unknown variant {self.variant!r}; valid variants: {', '.join(VARIANTS)}"
            )
        if self.kappa is not None:
            if self.variant not in SCALED_VARIANTS:
                raise ValueError("kappa is only meaningful for scaled variants")
            if not (math.isfinite(self.kappa) and self.kappa > 0):
                raise ValueError("kappa must be positive and finite")
        if not (math.isfinite(self.horizon_years) and self.horizon_years > 0):
            raise ValueError("horizon_years must be positive and finite")

    @property
    def is_scaled(self) -> bool:
        return self.variant in SCALED_VARIANTS

    @property
    def is_trimmed(self) -> bool:
        return self.variant in TRIMMED_VARIANTS

    def with_kappa(self, kappa: float) -> "PreferenceSchedule":
        return replace(self, kappa=float(kappa))

    def base_schedule(self) -> "PreferenceSchedule":
        """The kappa = 1 companion of a scaled variant (weight g_t)."""
        if not self.is_scaled:
            raise ValueError("base_schedule is defined for scaled variants only")
        return replace(self, variant=self.variant.removeprefix("scaled_"), kappa=None)


def _trimmed_gap(t: np.ndarray, schedule: PreferenceSchedule,
                 mortality: GompertzMakehamParams) -> tuple[np.ndarray, np.ndarray]:
    """1/lambda_t - 1/lambda_H wherever t < H (1 elsewhere), with its validity mask."""
    if not (mortality.a1 > 0 and mortality.a2 > 0):
        raise ValueError(
            "trimmed variants require a strictly increasing hazard (a1 > 0 and a2 > 0)"
        )
    h = schedule.horizon_years
    with np.errstate(over="ignore"):  # 1/lambda_H = 0 is the exact limit
        lam_h = _force_of_mortality(h, mortality)
    inside = t < h
    lam = _force_of_mortality(np.where(inside, t, 0.0), mortality)
    gap = np.where(inside, 1.0 / lam - 1.0 / lam_h, 1.0)
    return gap, inside


def _weight_parts(t: np.ndarray, schedule: PreferenceSchedule,
                  mortality: GompertzMakehamParams):
    """The variant table at times already checked: b_t = kappa * q_t^e where
    ``inside``, 0 elsewhere.

    Returns (q, e, inside, kappa), with kappa = 1 for unscaled variants and
    q = 1 outside the mask.  This is the only place that branches on the
    variant.
    """
    variant = schedule.variant
    if variant == "none":
        parts = (np.ones_like(t), 1.0, np.zeros(t.shape, dtype=bool))
    elif variant in TRIMMED_VARIANTS:
        gap, inside = _trimmed_gap(t, schedule, mortality)
        parts = (gap, -schedule.gamma, inside)
    else:  # power, scaled_power
        parts = (_force_of_mortality(t, mortality), schedule.gamma,
                 np.ones(t.shape, dtype=bool))
    if variant not in SCALED_VARIANTS:
        return (*parts, 1.0)
    if schedule.kappa is None:
        raise CalibrationRequired(f"{variant} schedule has no kappa; run calibrate_kappa first")
    return (*parts, schedule.kappa)


def bequest_weight(t, schedule: PreferenceSchedule, mortality: GompertzMakehamParams):
    """The weight b_t of the bequest term at time t (years past base age)."""
    q, e, inside, kappa = _weight_parts(_check_times(t), schedule, mortality)
    with np.errstate(divide="ignore"):
        out = np.where(inside, q**e, 0.0) * kappa
    return out if out.ndim else float(out)


def log_transformed_weight(t, schedule: PreferenceSchedule,
                           mortality: GompertzMakehamParams):
    """log of b_t^{1/(1-gamma)}, with -inf wherever b_t = 0.

    This is the numerically safe form consumed by the control quadrature;
    exponent identities are applied analytically so extreme gamma never
    overflows an intermediate power.
    """
    out = _log_transformed_weight(_check_times(t), schedule, mortality)
    return out if out.ndim else float(out)


def _log_transformed_weight(t: np.ndarray, schedule: PreferenceSchedule,
                            mortality: GompertzMakehamParams) -> np.ndarray:
    """:func:`log_transformed_weight` at times already checked."""
    q, e, inside, kappa = _weight_parts(t, schedule, mortality)
    one_minus = 1.0 - schedule.gamma
    with np.errstate(divide="ignore"):
        return np.where(inside, (e / one_minus) * np.log(q), -np.inf) + math.log(kappa) / one_minus


# ============================================================================
# Kappa calibration: pick the scale so the optimal initial tontine
# allocation is exactly zero.
# ============================================================================

# A rebuilt |alpha*_0| above this marks the calibration infeasible: genuine
# solutions rebuild to about 1e-14, while a B = D_base - A lost to rounding
# (gamma near 1) rebuilds to 1.
_RESIDUAL_TOLERANCE = 1e-9


@dataclass(frozen=True)
class KappaCalibration:
    """Result of the zero-initial-allocation calibration.

    ``residual`` is the |alpha*_0| achieved when the controls are rebuilt
    with the returned kappa.  Infeasible cases carry kappa = nan and
    residual = inf: those with no positive solution (gamma > 0), and those
    where an integral or kappa is not a finite positive float or the rebuilt
    |alpha*_0| exceeds 1e-9.
    """

    kappa: float
    residual: float
    feasible: bool


def calibrate_kappa(
    schedule: PreferenceSchedule,
    market,
    mortality: GompertzMakehamParams,
) -> KappaCalibration:
    """Solve for the kappa of a scaled variant that makes alpha*_0 = 0.

    Writing m = kappa^{1/(1-gamma)} and g_t for the kappa = 1 transformed
    weight, the condition alpha*_0 = 0 reads m*g_0 = A + m*B with
    A = integral of e^{-beta*u} S_u and B = integral of e^{-beta*u} S_u
    g_u lambda_u over [0, T_max].  The equation is linear in m and feasible
    exactly when g_0 - B > 0; kappa = m^{1-gamma}.  B is formed as
    D_base - A, so the answer is checked by rebuilding alpha*_0 with it.
    A warning is issued when rho deviates from r*gamma, for which the
    feasibility characterisation was derived.
    """
    from .controls import log_tail_integrals  # deferred: avoids an import cycle

    if schedule.variant not in SCALED_VARIANTS:
        raise ValueError(f"calibrate requires a scaled variant ({', '.join(SCALED_VARIANTS)}), "
                         f"got {schedule.variant!r}")
    if abs(schedule.rho - auto_rho(schedule.gamma, market.r)) > 1e-12:
        warnings.warn(
            "calibrating with rho != r*gamma; feasibility may not follow the "
            "sign of gamma",
            stacklevel=2,
        )

    infeasible = KappaCalibration(kappa=float("nan"), residual=float("inf"), feasible=False)
    base = schedule.base_schedule()
    none = replace(base, variant="none", kappa=None)
    log_a = log_tail_integrals(0.0, none, mortality, market)
    log_d_base = log_tail_integrals(0.0, base, mortality, market)
    try:  # math.exp and float ** raise OverflowError past float64
        a_val = math.exp(log_a)
        d_base = math.exp(log_d_base)
        g0 = math.exp(log_transformed_weight(0.0, base, mortality))
        denom = g0 - (d_base - a_val)
        if not (a_val > 0 and denom > 0):  # False for nan, and for an inf A or D_base
            return infeasible
        kappa = (a_val / denom) ** (1.0 - schedule.gamma)
        if not 0 < kappa < math.inf:
            return infeasible
        calibrated = schedule.with_kappa(kappa)
        log_d0 = log_tail_integrals(0.0, calibrated, mortality, market)
        alpha0 = 1.0 - math.exp(log_transformed_weight(0.0, calibrated, mortality) - log_d0)
    except OverflowError:
        return infeasible
    if not abs(alpha0) <= _RESIDUAL_TOLERANCE:
        return infeasible
    return KappaCalibration(kappa=float(kappa), residual=abs(alpha0), feasible=True)
