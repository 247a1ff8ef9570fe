"""Benchmark workloads: inputs built from a seed, timed passes, and the
correctness checks that decide whether an operation failed.

README.md in this directory says why each workload exists.  Each pass draws
its own inputs from (seed, pass index), so no two passes of a run share them
and a memo kept across passes cannot serve a later pass.  Oracles and
reference computations run after a pass's timed region ends, so they never
count toward its wall time.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import resource
import shutil
import subprocess
import sys
import threading
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np

import helpers
from tontine import analytics, cli, controls, mortality, preferences, simulate

# Tolerances of the acceptance gates: criterion 9 for the quadrature and
# criterion 2 for kappa.  CSV values are compared after 12-digit rounding.
D_REL_TOL = 1e-7
KAPPA_REL_TOL = 1e-8
CSV_REL_TOL = 1e-9
CSV_ABS_TOL = 1e-12
MARTINGALE_Z = 3.0

DEFAULTS = cli.DEFAULTS
BASE_AGE = float(DEFAULTS["base_age"])
HORIZON_YEARS = float(DEFAULTS["horizon_years"])
X0 = float(DEFAULTS["x0"])
SCHEDULE_STEP = float(Fraction(str(DEFAULTS["grid_step"])))

# Share by which the seed moves each market and hazard constant.
PERTURB = 0.03
CURVE_STEP = 0.25
CURVE_GRID = np.arange(0.0, float(DEFAULTS["limiting_age"]) - BASE_AGE, CURVE_STEP)


def default_market() -> controls.MarketParams:
    return controls.MarketParams(
        mu=float(DEFAULTS["mu"]), sigma=float(DEFAULTS["sigma"]), r=float(DEFAULTS["r"])
    )


def default_mortality(a1=None, a2=None, a3=None) -> mortality.GompertzMakehamParams:
    return mortality.GompertzMakehamParams(
        a1=float(DEFAULTS["a1"]) if a1 is None else a1,
        a2=float(DEFAULTS["a2"]) if a2 is None else a2,
        a3=float(DEFAULTS["a3"]) if a3 is None else a3,
        limiting_age_years=float(DEFAULTS["limiting_age"]) - BASE_AGE,
    )


def jiggle(rng: np.random.Generator, value) -> float:
    return float(value) * (1.0 + rng.uniform(-PERTURB, PERTURB))


def perturbed_constants(rng: np.random.Generator):
    """Market and Gompertz-Makeham constants, each moved by up to PERTURB."""
    market = controls.MarketParams(
        mu=jiggle(rng, DEFAULTS["mu"]), sigma=jiggle(rng, DEFAULTS["sigma"]),
        r=jiggle(rng, DEFAULTS["r"]))
    return market, default_mortality(*(jiggle(rng, DEFAULTS[k]) for k in ("a1", "a2", "a3")))


def calibrated(schedule, market, mort):
    """The schedule with its calibrated kappa (scaled variants), and the calibration."""
    if not schedule.is_scaled:
        return schedule, None
    calibration = preferences.calibrate_kappa(schedule, market, mort)
    return schedule.with_kappa(calibration.kappa), calibration


def sha256_arrays(*arrays) -> str:
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    return digest.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def peak_rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Op:
    """One operation: its name, latency, and the checks it failed (none = passed)."""

    name: str
    seconds: float
    problems: list[str] = field(default_factory=list)


@dataclass
class Pass:
    """One pass of a workload: its timed wall and operations, the outputs the
    checks read afterwards, and the numbers the checks derive."""

    wall: float
    ops: list[Op]
    rss_mb: float
    outputs: object = field(default=None, repr=False)
    health: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    bytes_written: int = 0


class Workload:
    """A workload's seed, scratch directory and pass counter.

    ``inputs(index)`` builds pass ``index``'s inputs from (seed, index) alone;
    ``run_pass`` draws the next pass's inputs before its timed region starts.
    """

    cold = False

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.passes = 0

    def rng(self, index: int) -> np.random.Generator:
        return np.random.default_rng((self.seed, index))

    def next_inputs(self):
        inputs = self.inputs(self.passes)
        self.passes += 1
        return inputs


def tracing(tracer):
    """The tracer as a context (installed while inside), or a no-op without one."""
    return tracer if tracer is not None else contextlib.nullcontext()


def run_ops(labels, run_op, tracer) -> tuple[list, list[Op]]:
    """Run each operation in order; return their outputs and timed records.

    An operation that raises is recorded as failed and the pass goes on.
    """
    outputs, ops = [], []
    for index, label in enumerate(labels):
        if tracer is not None:
            tracer.op = index
        t0 = perf_counter()
        try:
            out, problems = run_op(index), []
        except Exception as exc:  # a failed operation is counted, not fatal
            out, problems = None, [f"raised {type(exc).__name__}: {exc}"]
        ops.append(Op(label, perf_counter() - t0, problems))
        outputs.append(out)
    return outputs, ops


# ============================================================================
# Oracles: the trapezoid D(t) and the bisection kappa of tests/helpers.py
# ============================================================================

# Times at which the tables are checked against the trapezoid oracle: the
# start, inside the bequest window, and past it.
CHECK_TIMES = (0.0, 10.0, 30.0)


def trapezoid_denominator(t, schedule, mort, market) -> float:
    """The criterion-9 oracle: 4000-step-per-year trapezoid D(t)."""
    with warnings.catch_warnings():
        # The oracle calls np.power(..., where=) without out=, which warns
        # about the masked lanes it then discards.
        warnings.filterwarnings("ignore", message="'where' used without 'out'")
        warnings.simplefilter("ignore", RuntimeWarning)
        return helpers.trapezoid_denominator(t, schedule, mort, market, steps_per_year=4000)


@dataclass(frozen=True)
class Oracle:
    """Reference values for one (variant, gamma) case, each at CHECK_TIMES.

    ``d`` is None for a divergent cell (trimmed, gamma > 0), which only needs
    finite values.  ``kappa`` is the bisection kappa of a scaled variant.
    """

    kappa: float | None
    d: dict[float, float] | None = None
    c_star: dict[float, float] | None = None
    estate: dict[float, float] | None = None  # the bequest fraction 1 - alpha*
    income: dict[float, float] | None = None


def case_oracle(variant: str, gamma: float, market, mort) -> Oracle:
    """c* = e^{-beta t} S_t / D(t), 1 - alpha* = c* b_t^{1/(1-gamma)} and the
    income X0 e^{slope t} / D(0), with D and kappa from the oracles."""
    base = preferences.PreferenceSchedule(
        gamma=gamma, rho=preferences.auto_rho(gamma, market.r), variant=variant,
        horizon_years=HORIZON_YEARS)
    kappa = helpers.bisect_kappa(base, market, mort) if base.is_scaled else None
    schedule = base if kappa is None else base.with_kappa(kappa)
    if controls.has_integrability_warning(schedule):
        return Oracle(kappa)
    beta = controls.beta(market, gamma, schedule.rho)
    slope = analytics.income_log_slope(market, gamma, schedule.rho)
    d = {t: trapezoid_denominator(t, schedule, mort, market) for t in CHECK_TIMES}
    c_star = {t: math.exp(-beta * t) * float(mortality.survival(t, mort)) / d[t]
              for t in CHECK_TIMES}
    estate = {t: c_star[t] * float(preferences.bequest_weight(t, schedule, mort))
              ** (1.0 / (1.0 - gamma)) for t in CHECK_TIMES}
    income = {t: X0 * math.exp(slope * t) / d[0.0] for t in CHECK_TIMES}
    return Oracle(kappa, d, c_star, estate, income)


# ============================================================================
# mc_audit: the criterion-7 martingale audit at a smaller size
# ============================================================================

MC_GAMMA = -3.0
MC_PATHS = 20_000  # more than one 16,384-path block, so the partial block runs
MC_HORIZON = 40.0
MC_STEP = 1.0 / 26.0
MC_JITTERS = 4
MC_JITTER_RANGE = (0.8, 1.2)
# The simulation seed is criterion 7's, not drawn from the benchmark seed.
# The 3-SE martingale gate over the 7 report times is a statistical test: on
# 139 drawn seeds at this size it failed once (worst |dev|/SE 3.43), and a
# Gaussian model of the correlated report times puts its false-alarm rate near
# 1% per draw.  A drawn seed would fail about one run in a hundred with no
# defect; a fixed one keeps the gate deterministic and as sensitive to a real
# bias.  The market, hazard constants and jitters still change every pass.
MC_SIM_SEED = 424_242
MC_CONFIG = simulate.SimulationConfig(
    n_paths=MC_PATHS, horizon=MC_HORIZON, step=MC_STEP, seed=MC_SIM_SEED, initial_wealth=X0)


@dataclass(frozen=True)
class McInputs:
    market: controls.MarketParams
    mortality: mortality.GompertzMakehamParams
    schedule: preferences.PreferenceSchedule  # kappa unset
    jitters: tuple[tuple[float, float], ...]  # (consumption, alpha) scales

    @property
    def labels(self) -> list[str]:
        return ["candidate"] + [f"jitter c={c:.4f} alpha={a:.4f}" for c, a in self.jitters]


class McAudit(Workload):
    name = "mc_audit"

    def inputs(self, index: int) -> McInputs:
        rng = self.rng(index)
        market, mort = perturbed_constants(rng)
        schedule = preferences.PreferenceSchedule(
            gamma=MC_GAMMA, rho=preferences.auto_rho(MC_GAMMA, market.r),
            variant="scaled_trimmed", horizon_years=HORIZON_YEARS,
        )
        jitters = tuple((float(c), float(a))
                        for c, a in rng.uniform(*MC_JITTER_RANGE, size=(MC_JITTERS, 2)))
        return McInputs(market, mort, schedule, jitters)

    def run_pass(self, tracer=None) -> Pass:
        inp = self.next_inputs()
        candidate = []

        def audit(index: int):
            # Every control set runs on the same seed: common random numbers.
            result = simulate.simulate_wealth(MC_CONFIG, control_sets[index], inp.market,
                                              inp.mortality, schedule=schedule)
            report = simulate.check_supermartingale(result, candidate=index == 0,
                                                    z=MARTINGALE_Z)
            objective, _ = simulate.objective_estimate(result)
            if index == 0:
                candidate.append(result)
                return result, report, objective, None
            # Paired comparison under common random numbers; a jitter whose
            # alpha cap zeroes the bequest scores -inf and loses outright.
            diff = candidate[0].objective_paths - result.objective_paths
            win = bool(diff.mean() > 0.0) if np.all(np.isfinite(diff)) else True
            return result, report, objective, win

        start = perf_counter()
        with tracing(tracer):
            schedule, calibration = calibrated(inp.schedule, inp.market, inp.mortality)
            table = controls.build_control_schedule(
                schedule, inp.mortality, inp.market, grid_step=SCHEDULE_STEP)
            control_sets = [table] + [simulate.scaled_controls(table, c, a)
                                      for c, a in inp.jitters]
            outputs, ops = run_ops(inp.labels, audit, tracer)
        wall = perf_counter() - start
        return Pass(wall, ops, peak_rss_self_mb(), (inp, schedule, calibration, table, outputs))

    def check(self, pass_: Pass) -> None:
        inp, schedule, calibration, table, outputs = pass_.outputs
        d0 = trapezoid_denominator(0.0, schedule, inp.mortality, inp.market)
        health = pass_.health
        health.update({
            "controls.quad_rel_err_max": rel_err(table.denominator[0], d0),
            "preferences.kappa_residual_max": calibration.residual,
            "simulate.mart_z_max": 0.0,
            "simulate.objective_wins": 0,
        })
        summaries = []
        for index, (out, op) in enumerate(zip(outputs, pass_.ops)):
            if out is None:
                continue
            result, report, objective, win = out
            summaries.append(simulate.summary_csv(result))
            if not all(np.all(np.isfinite(v)) for v in result.summary.values()):
                op.problems.append("summary has non-finite values")
            if index == 0:
                if not math.isfinite(objective):
                    op.problems.append(f"candidate objective {objective}")
                # At t = 0 every path holds Y_0, so the SE there is rounding
                # noise; the check allows for it and so does the health number.
                worst = max(abs(m.deviation) / m.se for m in report.martingale if m.t > 0)
                health["simulate.mart_z_max"] = worst
                if not report.martingale_ok:
                    op.problems.append(f"martingale check failed: worst |dev|/SE = {worst:.2f}")
            else:
                health["simulate.objective_wins"] += int(win)
                if not report.supermartingale_ok:
                    op.problems.append("supermartingale check failed")
        pass_.digests = {
            "schedule": sha256_arrays(table.grid, table.c_star, table.alpha_star,
                                      table.denominator),
            "summaries": sha256_text("".join(summaries)),
        }


# ============================================================================
# cli_cold: one fresh `python -m tontine` process per command
# ============================================================================

CLI_COMMANDS = ("fit", "calibrate", "schedule", "income", "simulate", "figures")
CHILD_TIMEOUT_S = 150.0
DEFAULT_CASE = (str(DEFAULTS["variant"]), float(DEFAULTS["gamma"]))
# The columns `tontine figures` writes to each file: (prefix, variant, gammas).
# The alpha curves cover every figure case, among them the graded horizon
# edges of the trimmed variants and the divergent trimmed gamma > 0 cell.
FIGURE_COLUMNS = {
    "fig1.csv": (("alpha_", "power", analytics.BENCHMARK_GAMMAS),),
    "fig2.csv": (("scaled_alpha_", "scaled_power", analytics.FEASIBLE_GAMMAS),
                 ("trimmed_alpha_", "trimmed", analytics.BENCHMARK_GAMMAS)),
    "fig3.csv": (("alpha_", "scaled_trimmed", analytics.FEASIBLE_GAMMAS),),
    "fig4.csv": (("income_", "scaled_trimmed", analytics.FEASIBLE_GAMMAS),),
}
ORACLE_CASES = sorted({DEFAULT_CASE} | {(variant, g) for columns in FIGURE_COLUMNS.values()
                                         for _, variant, gammas in columns for g in gammas})


def oracle_columns(name: str) -> list[tuple[str, tuple[str, float], str]]:
    """(column, case, quantity) triples of one CSV that the oracles check.

    A quantity is an Oracle field; "alpha" is checked as 1 - alpha against
    the oracle's estate fraction.
    """
    if name == "calibrate.csv":
        return [("kappa", DEFAULT_CASE, "kappa")]
    if name == "schedule.csv":
        return [("D", DEFAULT_CASE, "d"), ("c_star", DEFAULT_CASE, "c_star"),
                ("alpha_star", DEFAULT_CASE, "alpha")]
    if name == "income.csv":
        return [("expected_income", DEFAULT_CASE, "income"),
                ("expected_bequest_fraction", DEFAULT_CASE, "estate")]
    return [(f"{prefix}{g:g}", (variant, g), "income" if prefix == "income_" else "alpha")
            for prefix, variant, gammas in FIGURE_COLUMNS.get(name, ()) for g in gammas]


def check_oracles(name: str, text: str, oracles: dict, health: dict[str, float]) -> list[str]:
    """Problems with one CSV's values against the oracles at CHECK_TIMES.

    D, c*, income and kappa must agree to a relative tolerance; an estate
    fraction to the same relative tolerance plus a rounding allowance.  The
    worst D error is folded into ``health``.
    """
    cells = _cells(text)
    head = cells[0]
    rows = {t: row for row in cells[1:] for t in CHECK_TIMES if abs(float(row[0]) - t) < 1e-9}
    problems = []
    for column, case, quantity in oracle_columns(name):
        oracle = oracles[case]
        if quantity == "kappa":
            got = float(cells[1][head.index(column)])
            rel = rel_err(got, oracle.kappa)
            if not rel <= KAPPA_REL_TOL:
                problems.append(f"kappa {got:.12g} vs bisection {oracle.kappa:.12g} "
                                f"(rel {rel:.2e})")
            continue
        if oracle.d is None:
            continue  # a divergent cell: finite values only
        for t in CHECK_TIMES:
            if t not in rows:
                problems.append(f"no row at t={t:g}")
                continue
            got = float(rows[t][head.index(column)])
            if quantity in ("alpha", "estate"):
                got = 1.0 - got if quantity == "alpha" else got
                want = oracle.estate[t]
                ok = abs(got - want) <= D_REL_TOL * want + CSV_ABS_TOL
            else:
                want = getattr(oracle, quantity)[t]
                rel = rel_err(got, want)
                ok = rel <= D_REL_TOL
                if quantity == "d":
                    health["controls.quad_rel_err_max"] = max(
                        health.get("controls.quad_rel_err_max", 0.0), rel)
            if not ok:
                problems.append(f"{column}({t:g}) = {got:.12g} vs oracle {want:.12g}")
    return problems


@dataclass
class Child:
    seconds: float
    returncode: int
    stderr: str
    rss_mb: float


def spawn(argv: list[str], cwd: Path) -> Child:
    """Run one child process to completion; time it and read its peak RSS.

    The child is reaped with wait4 so its own resource usage is read; a
    watchdog kills it after CHILD_TIMEOUT_S seconds.
    """
    err_path = cwd / f".stderr-{os.getpid()}"
    with open(err_path, "w+b") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            watchdog.join()
        seconds = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        text = err.read().decode("utf-8", errors="replace")
    err_path.unlink()
    return Child(seconds, proc.returncode, text, usage.ru_maxrss / 1024.0)


def _cells(text: str) -> list[list[str]]:
    return [row for row in csv.reader(io.StringIO(text)) if row]


def compare_csv(text: str, reference: str) -> list[str]:
    """Problems with a CSV against its in-process reference (none = match)."""
    got, want = _cells(text), _cells(reference)
    if not got or got[0] != want[0]:
        return [f"header {got[0] if got else None} != {want[0]}"]
    if len(got) != len(want):
        return [f"{len(got) - 1} rows, expected {len(want) - 1}"]
    bad = []
    for r, (row, ref_row) in enumerate(zip(got[1:], want[1:]), start=1):
        if len(row) != len(ref_row):
            bad.append(f"row {r} has {len(row)} cells")
            continue
        for c, (cell, ref_cell) in enumerate(zip(row, ref_row)):
            try:
                value, ref_value = float(cell), float(ref_cell)
            except ValueError:
                if cell != ref_cell:
                    bad.append(f"row {r} {want[0][c]}: {cell!r} != {ref_cell!r}")
                continue
            if not math.isfinite(value):
                bad.append(f"row {r} {want[0][c]}: non-finite {cell}")
            elif not abs(value - ref_value) <= (
                    CSV_REL_TOL * max(abs(value), abs(ref_value)) + CSV_ABS_TOL):
                bad.append(f"row {r} {want[0][c]}: {cell} != {ref_cell}")
    return bad[:1] + ([f"... {len(bad) - 1} more mismatches"] if len(bad) > 1 else [])


def check_command(rc: int, stderr: str, files: dict[str, str | None],
                  references: dict[str, str], oracles: dict,
                  health: dict[str, float]) -> list[str]:
    """Problems with one CLI command's exit, stderr and CSV outputs.

    Each CSV must match the in-process reference and, where the oracles
    cover its columns, the oracles too, so a defect that the CLI and the
    library share is still caught.
    """
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    if stderr.strip():
        problems.append(f"stderr: {stderr.strip().splitlines()[0]}")
    for name, text in files.items():
        if text is None:
            problems.append(f"{name} missing")
            continue
        mismatches = compare_csv(text, references[name])
        if not mismatches:  # parsed, finite and shaped like the reference
            mismatches = check_oracles(name, text, oracles, health)
        problems += [f"{name}: {p}" for p in mismatches]
    return problems


class CliCold(Workload):
    name = "cli_cold"
    cold = True

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.market = default_market()
        self.mortality = default_mortality()
        self._references: dict[str, str] | None = None
        self._oracles: dict[tuple[str, float], Oracle] | None = None

    def inputs(self, index: int) -> Path:
        """Write pass ``index``'s seeded synthetic life table; return its path."""
        rng = self.rng(index)
        params = default_mortality(*(jiggle(rng, DEFAULTS[k]) for k in ("a1", "a2", "a3")))
        self.workdir.mkdir(parents=True, exist_ok=True)
        path = self.workdir / f"lifetable-{index}.csv"
        helpers.synthetic_life_table_csv(path, params, base_age=int(BASE_AGE))
        return path

    @staticmethod
    def argv(command: str, outdir: Path, table: Path) -> list[str]:
        out = outdir if command == "figures" else outdir / f"{command}.csv"
        args = [command, "--out", str(out)]
        if command == "fit":
            args += ["--table", str(table)]
        return args

    @staticmethod
    def output_files(command: str) -> tuple[str, ...]:
        return tuple(FIGURE_COLUMNS) if command == "figures" else (f"{command}.csv",)

    def oracles(self) -> dict[tuple[str, float], Oracle]:
        """The oracle values of every case the commands tabulate."""
        if self._oracles is None:
            self._oracles = {case: case_oracle(*case, self.market, self.mortality)
                             for case in ORACLE_CASES}
        return self._oracles

    def fit_reference(self, table: Path) -> str:
        """``fit``'s CSV for one life table, computed in-process through the library."""
        fit = mortality.fit_gompertz_makeham(mortality.LifeTable.from_csv(str(table)),
                                             limiting_age_years=self.mortality.limiting_age_years)
        return mortality.fit_to_csv(fit)

    def references(self) -> dict[str, str]:
        """The CSVs of the commands that run at defaults, computed in-process
        through the library."""
        if self._references is not None:
            return self._references
        market, mort = self.market, self.mortality
        refs = {}

        def schedule_for(variant: str, gamma: float):
            base = preferences.PreferenceSchedule(
                gamma=gamma, rho=preferences.auto_rho(gamma, market.r), variant=variant,
                horizon_years=HORIZON_YEARS)
            return calibrated(base, market, mort)

        schedule, calibration = schedule_for(*DEFAULT_CASE)
        refs["calibrate.csv"] = (
            "kappa,residual,feasible\n"
            f"{calibration.kappa:.12g},{calibration.residual:.12g},"
            f"{'true' if calibration.feasible else 'false'}\n"
        )
        table = controls.build_control_schedule(schedule, mort, market, grid_step=SCHEDULE_STEP)
        refs["schedule.csv"] = controls.schedule_csv(table, base_age=BASE_AGE)
        refs["income.csv"] = analytics.income_csv(
            analytics.income_curve(schedule, market, mort, x0=X0), base_age=BASE_AGE)
        config = simulate.SimulationConfig(
            n_paths=int(DEFAULTS["paths"]), horizon=float(DEFAULTS["sim_horizon"]),
            step=float(Fraction(str(DEFAULTS["sim_step"]))), seed=int(DEFAULTS["seed"]),
            initial_wealth=X0)
        refs["simulate.csv"] = simulate.summary_csv(
            simulate.simulate_wealth(config, table, market, mort, schedule=schedule))

        def column(prefix: str, variant: str, gamma: float) -> np.ndarray:
            case_schedule = schedule_for(variant, gamma)[0]
            if prefix == "income_":
                return analytics.income_curve(case_schedule, market, mort, X0,
                                              CURVE_GRID).expected_income
            return analytics.alpha_curve(case_schedule, market, mort, CURVE_GRID)

        for name, groups in FIGURE_COLUMNS.items():
            columns = {f"{prefix}{g:g}": column(prefix, variant, g)
                       for prefix, variant, gammas in groups for g in gammas}
            refs[name] = analytics.figure_table_csv(columns, CURVE_GRID, BASE_AGE)
        self._references = refs
        return refs

    def run_pass(self, tracer=None, in_process: bool | None = None) -> Pass:
        """One command after another: fresh processes, or cli.main in-process
        (always when traced).  Each pass writes to its own directory."""
        in_process = tracer is not None if in_process is None else in_process
        table = self.next_inputs()
        outdir = self.workdir / f"out-{self.passes}"
        outdir.mkdir()
        runs: list[tuple[int, str, float]] = []  # exit code, stderr, peak RSS

        def command(index: int) -> None:
            argv = self.argv(CLI_COMMANDS[index], outdir, table)
            if in_process:
                stderr = io.StringIO()
                with contextlib.redirect_stderr(stderr):
                    rc = cli.main(argv)
                runs.append((rc, stderr.getvalue(), 0.0))
            else:
                child = spawn([sys.executable, "-m", "tontine", *argv], self.workdir)
                runs.append((child.returncode, child.stderr, child.rss_mb))

        start = perf_counter()
        with tracing(tracer):
            _, ops = run_ops(CLI_COMMANDS, command, tracer)
        wall = perf_counter() - start
        rss = max((r[2] for r in runs), default=0.0)
        return Pass(wall, ops, rss, (outdir, table, runs))

    def check(self, pass_: Pass) -> None:
        outdir, table, runs = pass_.outputs
        references = {**self.references(), "fit.csv": self.fit_reference(table)}
        for op, (rc, stderr, _) in zip(pass_.ops, runs):
            files = {}
            for name in self.output_files(op.name):
                path = outdir / name
                files[name] = path.read_text(encoding="utf-8") if path.is_file() else None
                if files[name] is not None:
                    pass_.bytes_written += path.stat().st_size
                    pass_.digests[name] = sha256_text(files[name])
            op.problems += check_command(rc, stderr, files, references, self.oracles(),
                                         pass_.health)
        try:
            pass_.health.update(self.health(outdir))
        except (OSError, ValueError, IndexError, ZeroDivisionError):
            pass  # a broken output is already a failed operation
        shutil.rmtree(outdir)
        table.unlink()

    @staticmethod
    def health(outdir: Path) -> dict[str, float]:
        """Calibration residual and martingale z of the outputs."""
        calib_rows = _cells((outdir / "calibrate.csv").read_text())
        sim_rows = _cells((outdir / "simulate.csv").read_text())
        head = sim_rows[0]
        y0 = float(sim_rows[1][head.index("mean_Y")])
        return {
            "preferences.kappa_residual_max": float(calib_rows[1][1]),
            "simulate.mart_z_max": max(
                abs(float(row[head.index("mean_Y")]) - y0) / float(row[head.index("se_Y")])
                for row in sim_rows[2:]),
        }


WORKLOADS = {w.name: w for w in (McAudit, CliCold)}
