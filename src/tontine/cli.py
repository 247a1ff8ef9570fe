"""Command-line front end: life-table fitting, kappa calibration, control
schedules, income curves, Monte Carlo summaries, the optimality audit, and
the paper's figure and headline-table CSVs.

Every command is deterministic given its configuration (including the seed);
failures exit nonzero after printing a single machine-parseable line
``error: <CODE>: <message>`` to stderr and removing any partial outputs.
"""
from __future__ import annotations

import argparse
import os
import re
import sys
import warnings

import numpy as np

from .analytics import (
    FEASIBLE_GAMMAS,
    BENCHMARK_GAMMAS,
    alpha_curve,
    expected_discounted_income,
    figure_table_csv,
    income_csv,
    income_curve,
)
from .controls import (
    MarketParams,
    build_control_schedule,
    merton_fraction,
    model_notes,
    schedule_csv,
)
from .mortality import (
    GompertzMakehamParams,
    LifeTable,
    LifeTableError,
    _csv_table,
    fit_gompertz_makeham,
    fit_to_csv,
)
from .preferences import (
    SCALED_VARIANTS,
    VARIANTS,
    CalibrationRequired,
    PreferenceSchedule,
    auto_rho,
    calibrate_kappa,
)
from .simulate import (
    SimulationConfig,
    SimulationError,
    audit_csv,
    optimality_audit,
    simulate_wealth,
    summary_csv,
)

# Default parameter set (calibrated market and mortality constants, base age
# 65, limiting age 115, bequest horizon 20); `figures` always uses these.
DEFAULTS: dict[str, object] = {
    "gamma": -3.0,
    "mu": 0.10,
    "sigma": 0.20,
    "r": 0.03,
    "rho": "auto",
    "variant": "scaled_trimmed",
    "kappa": "auto",
    "horizon_years": 20.0,
    "base_age": 65.0,
    "limiting_age": 115.0,
    "a1": 0.00584,
    "a2": 0.12150,
    "a3": 0.0024117,
    "grid_step": "1/52",
    "paths": 10_000,
    "seed": 53_424,
    "x0": 100_000.0,
    "sim_horizon": 20.0,
    "sim_step": "1/52",
    "table_path": "",
    "out": "",
}
VALID_KEYS = tuple(sorted(DEFAULTS))

_FIGURE_GRID_STEP = 0.25

# A ratio value such as 1/52: an optionally signed numerator and a
# denominator, each of digits in groups joined by single underscores, with
# no space around the slash (the strings fractions.Fraction takes with a
# slash in Python 3.11).
_RATIO = re.compile(r"([-+]?\d+(?:_\d+)*)/(\d+(?:_\d+)*)")

# fig1-fig4: each (prefix, variant, gammas) adds a column `<prefix><gamma>`
# per gamma, of expected discounted income for "income_" and alpha* otherwise.
_FIGURES = {
    "fig1.csv": (("alpha_", "power", BENCHMARK_GAMMAS),),
    "fig2.csv": (("scaled_alpha_", "scaled_power", FEASIBLE_GAMMAS),
                 ("trimmed_alpha_", "trimmed", BENCHMARK_GAMMAS)),
    "fig3.csv": (("alpha_", "scaled_trimmed", FEASIBLE_GAMMAS),),
    "fig4.csv": (("income_", "scaled_trimmed", FEASIBLE_GAMMAS),),
}


class CliError(Exception):
    """Structured failure: a short machine code plus a human message."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # any token after a flag is its value, -1e1 and -inf as well as the
        # -\d+ and -\d*\.\d+ argparse takes; -h, added by then, stays a flag
        self._negative_number_matcher = re.compile(r"^-[^-]")

    def error(self, message: str) -> None:  # noqa: A003 - argparse hook
        raise CliError("USAGE", message)


class _OutputSet:
    """Atomic CSV writes with rollback of everything written on failure."""

    def __init__(self) -> None:
        self._written: list[str] = []

    def write(self, path: str, text: str) -> None:
        tmp = path + ".part"
        try:
            with open(tmp, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except OSError as exc:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise CliError("IO", f"cannot write {path}: {exc}") from exc
        self._written.append(path)

    def rollback(self) -> None:
        for path in self._written:
            try:
                os.unlink(path)
            except OSError:
                pass


# ----------------------------------------------------------------------------
# Configuration plumbing
# ----------------------------------------------------------------------------

def _parse_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError("IO", f"cannot read config {path}: {exc}") from exc
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError("CONFIG", f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in DEFAULTS:
            raise CliError(
                "CONFIG",
                f"{path}:{lineno}: unknown key {key!r}; valid keys: {', '.join(VALID_KEYS)}",
            )
        out[key] = value
    return out


def _as_float(merged: dict, key: str) -> float:
    value = merged[key]
    if isinstance(value, str):
        value = value.strip()
        if "/" in value:
            # int / int is correctly rounded: the float of the exact ratio
            ratio = _RATIO.fullmatch(value)
            try:
                if ratio is None:
                    raise ValueError(value)
                return int(ratio[1]) / int(ratio[2])
            except (ValueError, ZeroDivisionError, OverflowError) as exc:
                raise CliError("CONFIG", f"{key}: cannot parse {value!r}") from exc
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise CliError("CONFIG", f"{key}: cannot parse {value!r} as a number") from exc


def _as_int(merged: dict, key: str) -> int:
    try:
        return int(str(merged[key]).strip())
    except (TypeError, ValueError) as exc:
        raise CliError("CONFIG", f"{key}: cannot parse {merged[key]!r} as an integer") from exc


def _is_auto(value: object) -> bool:
    return isinstance(value, str) and value.strip() == "auto"


def _resolved_market(merged: dict) -> MarketParams:
    return MarketParams(*(_as_float(merged, key) for key in ("mu", "sigma", "r")))


def _limiting_age_years(merged: dict) -> float:
    limiting = _as_float(merged, "limiting_age") - _as_float(merged, "base_age")
    if not limiting > 0:
        raise CliError("CONFIG", "limiting_age must exceed base_age")
    return limiting


def _resolved_mortality(merged: dict) -> GompertzMakehamParams:
    return GompertzMakehamParams(*(_as_float(merged, key) for key in ("a1", "a2", "a3")),
                                 limiting_age_years=_limiting_age_years(merged))


def _uncalibrated_schedule(merged: dict, market: MarketParams) -> PreferenceSchedule:
    """Build the preference schedule with kappa unset."""
    gamma = _as_float(merged, "gamma")
    rho = auto_rho(gamma, market.r) if _is_auto(merged["rho"]) else _as_float(merged, "rho")
    return PreferenceSchedule(gamma=gamma, rho=rho, variant=str(merged["variant"]).strip(),
                              horizon_years=_as_float(merged, "horizon_years"))


def _resolved_schedule(
    merged: dict, market: MarketParams, mortality: GompertzMakehamParams
) -> PreferenceSchedule:
    """Build the preference schedule, running kappa calibration if requested."""
    schedule = _uncalibrated_schedule(merged, market)
    if not schedule.is_scaled:
        return schedule
    if not _is_auto(merged["kappa"]):
        return schedule.with_kappa(_as_float(merged, "kappa"))
    calibration = calibrate_kappa(schedule, market, mortality)
    if not calibration.feasible:
        raise CliError(
            "CALIBRATION",
            f"kappa calibration infeasible for gamma={schedule.gamma:g}: "
            "no positive finite kappa zeroes alpha*_0",
        )
    return schedule.with_kappa(calibration.kappa)


# ----------------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------------

def _cmd_fit(merged: dict, outputs: _OutputSet) -> None:
    table_path = str(merged["table_path"]).strip()
    if not table_path:
        raise CliError("CONFIG", "fit requires a life-table CSV (--table or table_path=)")
    try:
        table = LifeTable.from_csv(table_path)
    except OSError as exc:
        raise CliError("IO", f"cannot read life table {table_path}: {exc}") from exc
    fit = fit_gompertz_makeham(table, limiting_age_years=_limiting_age_years(merged))
    outputs.write(merged["out"], fit_to_csv(fit))


def _cmd_calibrate(merged: dict, outputs: _OutputSet) -> None:
    market = _resolved_market(merged)
    mortality = _resolved_mortality(merged)
    cal = calibrate_kappa(_uncalibrated_schedule(merged, market), market, mortality)
    outputs.write(merged["out"], _csv_table(("kappa", "residual", "feasible"),
                                            [(cal.kappa, cal.residual, cal.feasible)]))


def _resolved(merged: dict):
    market = _resolved_market(merged)
    mortality = _resolved_mortality(merged)
    return market, mortality, _resolved_schedule(merged, market, mortality)


def _build_controls(merged: dict):
    market, mortality, schedule = _resolved(merged)
    return build_control_schedule(
        schedule, mortality, market, grid_step=_as_float(merged, "grid_step")
    )


def _sim_config(merged: dict) -> SimulationConfig:
    return SimulationConfig(
        n_paths=_as_int(merged, "paths"),
        horizon=_as_float(merged, "sim_horizon"),
        step=_as_float(merged, "sim_step"),
        seed=_as_int(merged, "seed"),
        initial_wealth=_as_float(merged, "x0"),
    )


def _cmd_schedule(merged: dict, outputs: _OutputSet) -> tuple[str, ...]:
    controls = _build_controls(merged)
    outputs.write(merged["out"], schedule_csv(controls, base_age=_as_float(merged, "base_age")))
    return controls.warnings


def _cmd_income(merged: dict, outputs: _OutputSet) -> tuple[str, ...]:
    market, mortality, schedule = _resolved(merged)
    curve = income_curve(schedule, market, mortality, x0=_as_float(merged, "x0"))
    outputs.write(merged["out"], income_csv(curve, base_age=_as_float(merged, "base_age")))
    return model_notes(schedule, market)


def _cmd_simulate(merged: dict, outputs: _OutputSet) -> tuple[str, ...]:
    controls = _build_controls(merged)
    # no preference schedule: the summary never reads the utility objective
    result = simulate_wealth(_sim_config(merged), controls, controls.market, controls.mortality)
    outputs.write(merged["out"], summary_csv(result))
    return controls.warnings


def _cmd_verify(merged: dict, outputs: _OutputSet) -> tuple[str, ...]:
    controls = _build_controls(merged)
    report = optimality_audit(_sim_config(merged), controls)
    if not report.ok:
        n = len(report.jitters)
        raise CliError("AUDIT", (
            f"optimality audit failed: martingale "
            f"{'holds' if report.martingale.martingale_ok else 'violated'} at 3 SE; "
            f"supermartingale under {sum(j.supermartingale_ok for j in report.jitters)}/{n} "
            f"jitters; candidate wins {report.wins}/{n} ({n - 1} needed)"))
    outputs.write(merged["out"], audit_csv(report))
    return controls.warnings


def _cmd_figures(merged: dict, outputs: _OutputSet) -> None:
    market = _resolved_market(DEFAULTS)
    mortality = _resolved_mortality(DEFAULTS)
    grid = np.arange(0.0, mortality.limiting_age_years, _FIGURE_GRID_STEP)
    base_age, x0 = _as_float(DEFAULTS, "base_age"), _as_float(DEFAULTS, "x0")
    outdir = merged["out"]
    if not os.path.isdir(outdir):
        fault = "is not a directory" if os.path.exists(outdir) else "does not exist"
        raise CliError("IO", f"output directory {outdir!r} {fault}")

    def write(name: str, text: str) -> None:
        outputs.write(os.path.join(outdir, name), text)

    def schedule_for(gamma: float, variant: str) -> PreferenceSchedule:
        return _uncalibrated_schedule(dict(DEFAULTS, gamma=gamma, variant=variant), market)

    # Each scaled variant is calibrated once per gamma; the feasible ones
    # serve fig2, fig3, fig4 and income0.csv, which ask for no other.
    kappas = []
    calibrated: dict[tuple[float, str], PreferenceSchedule] = {}
    for variant in SCALED_VARIANTS:
        for g in BENCHMARK_GAMMAS:
            sched = schedule_for(g, variant)
            cal = calibrate_kappa(sched, market, mortality)
            kappas.append((variant, g, cal.kappa, format(cal.residual, ".3e"), cal.feasible))
            if cal.feasible:
                calibrated[g, variant] = sched.with_kappa(cal.kappa)

    def resolved(gamma: float, variant: str) -> PreferenceSchedule:
        return calibrated.get((gamma, variant)) or schedule_for(gamma, variant)

    def curve(prefix: str, schedule: PreferenceSchedule) -> np.ndarray:
        if prefix == "income_":
            return expected_discounted_income(grid, schedule, market, mortality, x0)
        return alpha_curve(schedule, market, mortality, grid)

    for name, columns in _FIGURES.items():
        write(name, figure_table_csv({f"{prefix}{g:g}": curve(prefix, resolved(g, variant))
                                      for prefix, variant, gammas in columns for g in gammas},
                                     grid, base_age))
    write("merton.csv", _csv_table(("gamma", "pi_star"),
                                   ((g, merton_fraction(market, g)) for g in BENCHMARK_GAMMAS)))
    write("kappas.csv", _csv_table(("variant", "gamma", "kappa", "residual", "feasible"), kappas))
    write("income0.csv", _csv_table(
        ("variant", "gamma", "initial_income_per_100k"),
        ((variant, g, format(expected_discounted_income(0.0, resolved(g, variant), market,
                                                        mortality, x0), ".2f"))
         for variant in ("none", "power", "scaled_trimmed") for g in FEASIBLE_GAMMAS)))


# Each command's handler and default output, in help order.
COMMANDS = {
    "fit": (_cmd_fit, "fit.csv"),
    "calibrate": (_cmd_calibrate, "calibration.csv"),
    "schedule": (_cmd_schedule, "schedule.csv"),
    "income": (_cmd_income, "income.csv"),
    "simulate": (_cmd_simulate, "simulation.csv"),
    "verify": (_cmd_verify, "verify.csv"),
    "figures": (_cmd_figures, "."),
}


# ----------------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------------

# Command-line flags: the config key each one sets, its flag, and its help.
_FLAGS = {
    "gamma": ("--gamma", "risk aversion (< 1, nonzero)"),
    "mu": ("--mu", "stock drift per year"),
    "sigma": ("--sigma", "stock volatility per sqrt(year)"),
    "r": ("--r", "risk-free rate per year"),
    "rho": ("--rho", "subjective discount rate, or 'auto' for r*gamma"),
    "variant": ("--variant", f"bequest variant: {', '.join(VARIANTS)}"),
    "kappa": ("--kappa", "scale for scaled variants, or 'auto' to calibrate"),
    "horizon_years": ("--horizon", "bequest horizon H in years"),
    "base_age": ("--base-age", "base age in years"),
    "limiting_age": ("--limiting-age", "limiting age in years"),
    "grid_step": ("--grid-step", "schedule grid step (e.g. 1/52)"),
    "paths": ("--paths", "Monte Carlo path count"),
    "seed": ("--seed", "simulation seed"),
    "x0": ("--x0", "initial wealth"),
    "sim_horizon": ("--sim-horizon", "simulation horizon in years"),
    "sim_step": ("--sim-step", "simulation step in years"),
    "table_path": ("--table", "life-table CSV path (fit command)"),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="tontine", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} command")
        p.add_argument("--config", help="flat key=value config file (flags win)")
        for key, (flag, text) in _FLAGS.items():
            p.add_argument(flag, dest=key, help=text)
        p.add_argument("--out", help="output file (or directory for figures)")
    return parser


def build_run_config(argv: list[str]) -> tuple[str, dict[str, object]]:
    """The command and its settings: defaults < config file < flags, with
    ``out`` resolved to the command's default output when unset.  Each key
    is parsed only by the commands that read it."""
    args = _build_parser().parse_args(argv)
    merged: dict[str, object] = dict(DEFAULTS)
    if args.config:
        merged.update(_parse_config_file(args.config))
    for key in (*_FLAGS, "out"):
        value = getattr(args, key)
        if value is not None:
            merged[key] = value
    merged["out"] = str(merged["out"]).strip() or COMMANDS[args.command][1]
    return args.command, merged


# Library exceptions and their error codes, most specific first.
_ERROR_CODES = (
    (LifeTableError, "DATA"),
    (CalibrationRequired, "CALIBRATION"),
    (SimulationError, "RUNTIME"),
    (MemoryError, "RUNTIME"),
    (ValueError, "CONFIG"),
    (OSError, "IO"),
)


def run(command: str, merged: dict[str, object]) -> int:
    """Execute a resolved command; outputs are atomic and rolled back on failure.

    Library warnings and the notes a command returns (a control schedule's
    ``warnings``) are held back: on success each distinct message is printed
    once as ``warning: <message>``; on failure only the error line is printed.
    """
    outputs = _OutputSet()
    try:
        with warnings.catch_warnings(record=True) as caught:
            notes = COMMANDS[command][0](merged, outputs) or ()
    except Exception as exc:  # whatever failed, leave no partial outputs behind
        outputs.rollback()
        if isinstance(exc, CliError):
            raise
        for kind, code in _ERROR_CODES:
            if isinstance(exc, kind):
                raise CliError(code, str(exc)) from exc
        raise CliError("INTERNAL", f"{type(exc).__name__}: {exc}") from exc
    for message in dict.fromkeys([*(str(w.message) for w in caught), *notes]):
        print(f"warning: {message}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        return run(*build_run_config(argv))
    except CliError as exc:
        print(f"error: {exc.code}: {exc.message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
