"""Gompertz-Makeham hazard model, survival function, and life-table fitting,
with the package's one check of a time argument and its one CSV writer.

The hazard is lambda_t = a1*exp(a2*t) + a3 with t measured in years past a
base age (retirement age 65 by default).  Integrals elsewhere in the package
are truncated at a limiting age carried on the parameter object.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

DEFAULT_BASE_AGE = 65
DEFAULT_LIMITING_AGE = 115

__all__ = [
    "DEFAULT_BASE_AGE",
    "DEFAULT_LIMITING_AGE",
    "GompertzMakehamParams",
    "GompertzMakehamFit",
    "LifeTable",
    "LifeTableError",
    "force_of_mortality",
    "cumulative_hazard",
    "survival",
    "fit_gompertz_makeham",
    "fit_to_csv",
]


class LifeTableError(ValueError):
    """Raised for malformed life-table input."""


@dataclass(frozen=True)
class GompertzMakehamParams:
    """Hazard constants, all nonnegative, rates per year.

    a1 is the level of the exponential term, a2 its growth rate and a3 a
    constant hazard floor.  ``limiting_age_years`` is the truncation horizon
    T_max in years past the base age (50 by default, i.e. age 115 from 65).
    """

    a1: float
    a2: float
    a3: float
    limiting_age_years: float = float(DEFAULT_LIMITING_AGE - DEFAULT_BASE_AGE)

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.a1, self.a2, self.a3, self.limiting_age_years))):
            raise ValueError("hazard constants and limiting_age_years must be finite")
        if self.a1 < 0 or self.a2 < 0 or self.a3 < 0:
            raise ValueError("hazard constants a1, a2, a3 must be nonnegative")
        if not self.limiting_age_years > 0:
            raise ValueError("limiting_age_years must be positive")
        with np.errstate(over="ignore", invalid="ignore"):
            ends = (force_of_mortality(self.limiting_age_years, self),
                    cumulative_hazard(self.limiting_age_years, self))
        if not all(map(math.isfinite, ends)):
            raise ValueError(
                f"hazard overflows float64 before the limiting age (a1={self.a1:g}, "
                f"a2={self.a2:g}, a3={self.a3:g}, limiting_age_years={self.limiting_age_years:g})"
            )


def _check_times(t, upper: float = math.inf, name: str = "t") -> np.ndarray:
    """``t`` as a float array in [0, ``upper``], NaN refused: the one time check."""
    t = np.asarray(t, dtype=float)
    if not np.all((t >= 0) & (t <= upper)):
        raise ValueError(f"{name} must lie in [0, {upper:.6g}]")
    return t


def force_of_mortality(t, params: GompertzMakehamParams):
    """Hazard rate a1*exp(a2*t) + a3 at time t (years past base age)."""
    t = _check_times(t)
    out = params.a1 * np.exp(params.a2 * t) + params.a3
    return out if out.ndim else float(out)


def cumulative_hazard(t, params: GompertzMakehamParams):
    """Integral of the hazard over [0, t]; exact closed form.

    Computed with expm1 so small a2*t loses no precision; the a2 = 0 limit
    (a1+a3)*t is the continuous extension of the same expression.
    """
    t = _check_times(t)
    out = _cumulative_hazard(t, params.a1, params.a2, params.a3)
    return out if out.ndim else float(out)


def _cumulative_hazard(t: np.ndarray, a1: float, a2: float, a3: float) -> np.ndarray:
    """The closed form of :func:`cumulative_hazard` for constants not yet validated."""
    # a1/a2 * expm1(a2*t) rewritten as a1*t * expm1(x)/x with x = a2*t, so a
    # tiny a2 cannot overflow the ratio; the x -> 0 limit of expm1(x)/x is 1.
    x = a2 * t
    ratio = np.ones_like(x)
    np.divide(np.expm1(x), x, out=ratio, where=x > 0)
    return a1 * t * ratio + a3 * t


def survival(t, params: GompertzMakehamParams):
    """Probability of surviving t years past the base age, in (0, 1]."""
    out = np.exp(-cumulative_hazard(t, params))
    return out if out.ndim else float(out)


# ============================================================================
# Life tables
# ============================================================================

@dataclass(frozen=True)
class LifeTable:
    """Survival probabilities relative to the base age at integer ages."""

    base_age: int
    ages: np.ndarray
    survival: np.ndarray

    def __post_init__(self) -> None:
        ages = np.asarray(self.ages, dtype=int)
        surv = np.asarray(self.survival, dtype=float)
        if ages.shape != surv.shape or ages.ndim != 1:
            raise LifeTableError("ages and survival must be 1-d arrays of equal length")
        if ages.size < 2:
            raise LifeTableError("life table needs at least 2 rows")
        if np.any(np.diff(ages) <= 0):
            raise LifeTableError("ages must be strictly increasing")
        if ages[0] != self.base_age:
            raise LifeTableError("first row must be the base age")
        if abs(surv[0] - 1.0) > 1e-9:
            raise LifeTableError("survival at the base age must equal 1")
        if not np.all((surv >= 0) & (surv <= 1)):  # NaN fails too
            raise LifeTableError("survival values must lie in [0, 1]")
        if np.any(np.diff(surv) > 1e-12):
            raise LifeTableError(
                "survival must be nonincreasing in age; "
                f"first violation after age {int(ages[np.argmax(np.diff(surv) > 1e-12)])}"
            )
        ages.setflags(write=False)
        surv.setflags(write=False)
        object.__setattr__(self, "ages", ages)
        object.__setattr__(self, "survival", surv)

    @property
    def years_past_base(self) -> np.ndarray:
        return (self.ages - self.base_age).astype(float)

    @classmethod
    def from_death_probabilities(cls, ages, qx) -> "LifeTable":
        """Build a table from one-year death probabilities q_x.

        Each q applies between its age and the next year, so the resulting
        table extends one row past the last input age, with survival given by
        the running product of (1 - q).
        """
        ages = np.asarray(ages, dtype=int)
        qx = np.asarray(qx, dtype=float)
        if ages.shape != qx.shape or ages.ndim != 1 or ages.size < 1:
            raise LifeTableError("ages and qx must be 1-d arrays of equal length")
        if np.any(np.diff(ages) != 1):
            raise LifeTableError("qx rows must be at consecutive integer ages")
        if not np.all((qx >= 0) & (qx <= 1)):  # NaN fails too
            raise LifeTableError("death probabilities must lie in [0, 1]")
        out_ages = np.concatenate([ages, [ages[-1] + 1]])
        surv = np.concatenate([[1.0], np.cumprod(1.0 - qx)])
        return cls(base_age=int(ages[0]), ages=out_ages, survival=surv)

    @classmethod
    def from_csv(cls, path) -> "LifeTable":
        """Read the `age,survival` or `age,qx` CSV at ``path`` (blank lines ignored)."""
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = [r for r in csv.reader(fh) if r and any(c.strip() for c in r)]
        if not rows:
            raise LifeTableError("empty life-table CSV")
        header = [c.strip().lower() for c in rows[0]]
        if header[:2] not in (["age", "survival"], ["age", "qx"]):
            raise LifeTableError("life-table CSV header must be 'age,survival' or 'age,qx'")
        try:
            ages = np.array([int(r[0]) for r in rows[1:]])
            vals = np.array([float(r[1]) for r in rows[1:]])
        except (ValueError, IndexError) as exc:
            raise LifeTableError(f"malformed life-table row: {exc}") from exc
        if header[1] == "qx":
            return cls.from_death_probabilities(ages, vals)
        return cls(base_age=int(ages[0]), ages=ages, survival=vals)


# ============================================================================
# Least-squares fit
# ============================================================================

@dataclass(frozen=True)
class GompertzMakehamFit:
    params: GompertzMakehamParams
    objective: float


# Starting triple of the least-squares solve.
_START = (1e-3, 0.1, 1e-3)

# Projected Levenberg-Marquardt: iteration cap, the relative step or cost
# change at which it stops, the first damping, and a damping cap that ends
# the solve where no damping gives a decrease.
_MAX_ITERATIONS = 200
_TOLERANCE = 1e-15
_FIRST_DAMPING = 1e-3
_MAX_DAMPING = 1e32


def _projected_levenberg_marquardt(residual, jacobian, start) -> np.ndarray:
    """Minimise |residual(a)|^2 over a >= 0 from ``start``.

    Levenberg-Marquardt with Marquardt's scaling (More 1978): with
    W = diag(J'J)^(1/2), a zero entry read as 1, the step solves
    (J'J + mu W^2) step = -J'r, as the least-squares problem
    [J; sqrt(mu) W] step = [-r; 0].  Each trial is projected onto a >= 0; a
    component at 0 whose gradient points outward is frozen there, so a zero
    constant is reached exactly.  A trial is accepted only if it strictly
    lowers the cost (a non-finite one never does), and then mu falls tenfold;
    otherwise mu rises tenfold.  The solve stops when |W step| or the cost
    decrease falls to a relative 1e-15, since a larger mu only shortens the
    step.
    """
    a = np.array(start, dtype=float)
    r = residual(a)
    cost = float(r @ r)
    damping = _FIRST_DAMPING
    for _ in range(_MAX_ITERATIONS):
        jac = jacobian(a)
        free = (a > 0) | (jac.T @ r <= 0)
        weight = np.sqrt(np.einsum("ij,ij->j", jac, jac))
        weight[weight == 0] = 1.0
        size = np.linalg.norm(weight * a)
        rhs = np.concatenate([-r, np.zeros(np.count_nonzero(free))])
        while True:
            system = np.vstack([jac[:, free], np.diag(np.sqrt(damping) * weight[free])])
            trial = a.copy()
            trial[free] = np.maximum(a[free] + np.linalg.lstsq(system, rhs, rcond=None)[0], 0.0)
            if np.linalg.norm(weight * (trial - a)) <= _TOLERANCE * size:
                return a
            if np.all(np.isfinite(trial)):
                r_trial = residual(trial)
                cost_trial = float(r_trial @ r_trial)
                if cost_trial < cost:  # False for NaN
                    break
            damping *= 10.0
            if damping > _MAX_DAMPING:
                return a
        if cost - cost_trial <= _TOLERANCE * cost:
            return trial
        a, r, cost = trial, r_trial, cost_trial
        damping /= 10.0
    return a


def fit_gompertz_makeham(
    table: LifeTable, limiting_age_years: float | None = None
) -> GompertzMakehamFit:
    """Least-squares fit of (a1, a2, a3) to a life table's survival column.

    Minimizes the sum of squared residuals S(t; a) - s between the model
    survival and the table's survival probabilities at the same ages, by a
    projected Levenberg-Marquardt solve (each a >= 0, so a zero constant is
    reachable exactly) from a fixed start, with the closed-form Jacobian
    -S dH/da of the cumulative hazard H.  It needs numpy only.
    """
    if len(table.ages) < 4:
        raise LifeTableError("life table too short: need at least 4 rows to fit 3 parameters")
    t = table.years_past_base
    s = table.survival
    t_max = (
        float(limiting_age_years)
        if limiting_age_years is not None
        else float(DEFAULT_LIMITING_AGE - table.base_age)
    )

    def model(a: np.ndarray) -> np.ndarray:
        # a trial may be too steep for GompertzMakehamParams at t_max
        return np.exp(-_cumulative_hazard(t, *map(float, a)))

    def jacobian(a: np.ndarray) -> np.ndarray:
        # dH/da1 = t expm1(x)/x and dH/da2 = a1 t^2 (x e^x - expm1(x))/x^2 with
        # x = a2 t; below x = 1e-3 the second ratio is its series 1/2 + x/3 + x^2/8,
        # which the exact form would lose to cancellation.
        x = a[1] * t
        growth = np.ones_like(x)
        np.divide(np.expm1(x), x, out=growth, where=x > 0)
        curvature = 0.5 + x / 3.0 + x * x / 8.0
        np.divide(x * np.exp(x) - np.expm1(x), x * x, out=curvature, where=x > 1e-3)
        dh = np.column_stack([t * growth, a[0] * t * t * curvature, t])
        jac = -model(a)[:, None] * dh
        # An overflowed dH meets S = 0 or a1 = 0 there; the product's limit is 0.
        jac[~np.isfinite(jac)] = 0.0
        return jac

    # a steep trial overflows exp(a2 t); its survival is then 0 or NaN
    with np.errstate(over="ignore", invalid="ignore"):
        a = _projected_levenberg_marquardt(lambda a: model(a) - s, jacobian, _START)
        params = GompertzMakehamParams(*map(float, a), limiting_age_years=t_max)
        resid = survival(t, params) - s
    return GompertzMakehamFit(params=params, objective=float(np.dot(resid, resid)))


def fit_to_csv(fit: GompertzMakehamFit) -> str:
    """Render a fit as a CSV with header `a1,a2,a3,objective`."""
    p = fit.params
    return _csv_table(("a1", "a2", "a3", "objective"), [(p.a1, p.a2, p.a3, fit.objective)])


def _csv_table(columns, rows) -> str:
    """The package's one CSV writer: the ``columns`` header, then one line per
    row, each cell a str as it is, a bool as `true`/`false` and any other
    value as ``format(v, ".12g")``."""

    def cell(v) -> str:
        if isinstance(v, (bool, np.bool_)):  # before format: np.True_ formats as '1'
            return "true" if v else "false"
        return v if isinstance(v, str) else format(v, ".12g")

    return "\n".join([",".join(columns), *(",".join(map(cell, row)) for row in rows)]) + "\n"
