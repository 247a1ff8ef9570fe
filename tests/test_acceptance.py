"""Acceptance gate: every release criterion, one test and one printed verdict each.

Each test prints a single ``[PASS]``/``[FAIL]`` line (with indented detail) even
under normal pytest capture, then asserts.  Known-red criteria are asserted
faithfully and carry their analysis in the detail lines rather than being
loosened to pass.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from tontine.analytics import (
    BENCHMARK_GAMMAS,
    FEASIBLE_GAMMAS,
    alpha_curve,
    expected_discounted_income,
    income_log_slope,
)
from tontine.controls import (
    beta,
    build_control_schedule,
    has_integrability_warning,
    log_tail_integrals,
    merton_fraction,
)
from tontine.mortality import LifeTable, fit_gompertz_makeham, survival
from tontine.preferences import (
    PreferenceSchedule,
    auto_rho,
    bequest_weight,
    calibrate_kappa,
)
from tontine.simulate import (
    SimulationConfig,
    optimality_audit,
    simulate_wealth,
)

from helpers import bisect_kappa, synthetic_life_table_csv, trapezoid_denominator

X0 = 100_000.0

# reference bands for initial annual income (per 100k premium, age 65)
SCALED_TRIMMED_INCOME_BAND = (4480.0, 4786.0)
WHOLE_LIFE_INCOME_BAND = (2872.0, 3833.0)

# closed-form equity fractions at reference display precision
MERTON_TARGETS = (
    (0.5, 3.50, 0.005),
    (-1.0, 0.8750, 5e-5),
    (-3.0, 0.4375, 5e-5),
    (-5.0, 0.2917, 5e-5),
    (-8.0, 0.194, 5e-4),
    (-11.0, 0.146, 5e-4),
)

UK_TABLE_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "data", "uk_2019_lifetable.csv"
)


def _emit(capsys, ok: bool, name: str, headline: str, details=()):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {headline}")
        for line in details:
            print(f"    - {line}")
    assert ok, f"{name}: {headline}\n" + "\n".join(details)


def _calibrated(gamma: float, variant: str, market, mortality) -> PreferenceSchedule:
    schedule = PreferenceSchedule(
        gamma=gamma, rho=auto_rho(gamma, market.r), variant=variant
    )
    calibration = calibrate_kappa(schedule, market, mortality)
    assert calibration.feasible
    return schedule.with_kappa(calibration.kappa)


def _initial_income(schedule, market, mortality) -> float:
    return float(
        expected_discounted_income(0.0, schedule, market, mortality, x0=X0)
    )


def _trapezoid_alpha(times, schedule, market, mortality) -> np.ndarray:
    """alpha*_t = 1 - e^{-beta t} S_t b_t^{1/(1-gamma)} / D(t), D from the trapezoid oracle."""
    times = np.asarray(times, dtype=float)
    rate = beta(market, schedule.gamma, schedule.rho)
    power = 1.0 / (1.0 - schedule.gamma)
    tilt = np.asarray(bequest_weight(times, schedule, mortality)) ** power
    d = np.array([trapezoid_denominator(float(t), schedule, mortality, market) for t in times])
    return 1.0 - np.exp(-rate * times) * survival(times, mortality) * tilt / d


class TestAcceptance:
    def test_merton_fractions(self, capsys, market):
        """criterion 1: constant equity fractions match display precision."""
        start = time.perf_counter()
        details, ok = [], True
        for gamma, target, tol in MERTON_TARGETS:
            got = merton_fraction(market, gamma)
            hit = abs(got - target) <= tol
            ok &= hit
            details.append(
                f"gamma={gamma:g}: pi*={got:.6f} vs {target} (+/-{tol:g})"
                + ("" if hit else "  <-- out of band")
            )
        elapsed = time.perf_counter() - start
        _emit(capsys, ok, "criterion 1 (equity fractions)",
              f"{sum(abs(merton_fraction(market, g) - t) <= tol for g, t, tol in MERTON_TARGETS)}"
              f"/6 match display precision [{elapsed:.2f}s]", details)

    def test_calibration_feasibility(self, capsys, market, mortality):
        """criterion 2: kappa exists iff gamma < 0; value matches a bisection oracle."""
        details, ok = [], True
        worst_rel, worst_time = 0.0, 0.0
        for variant in ("scaled_power", "scaled_trimmed"):
            for gamma in BENCHMARK_GAMMAS:
                schedule = PreferenceSchedule(
                    gamma=gamma, rho=auto_rho(gamma, market.r), variant=variant
                )
                t0 = time.perf_counter()
                calibration = calibrate_kappa(schedule, market, mortality)
                dt = time.perf_counter() - t0
                worst_time = max(worst_time, dt)
                if dt >= 1.0:
                    ok = False
                    details.append(f"{variant} gamma={gamma:g}: calibration took {dt:.2f}s >= 1s")
                if gamma > 0:
                    if calibration.feasible:
                        ok = False
                        details.append(f"{variant} gamma={gamma:g}: expected infeasible")
                    continue
                if not calibration.feasible:
                    ok = False
                    details.append(f"{variant} gamma={gamma:g}: expected feasible")
                    continue
                oracle = bisect_kappa(schedule, market, mortality)
                rel = abs(calibration.kappa - oracle) / oracle
                worst_rel = max(worst_rel, rel)
                if rel > 1e-8:
                    ok = False
                    details.append(
                        f"{variant} gamma={gamma:g}: kappa={calibration.kappa:.10g} "
                        f"vs oracle {oracle:.10g} (rel {rel:.2e} > 1e-8)"
                    )
        details.append(f"max oracle deviation {worst_rel:.2e} (tol 1e-8); "
                       f"slowest calibration {worst_time*1e3:.0f}ms (budget 1s)")
        _emit(capsys, ok, "criterion 2 (kappa calibration)",
              "12/12 cells: feasibility pattern + bisection cross-check", details)

    def test_allocation_glide_path(self, capsys, market, mortality):
        """criterion 3: calibrated scaled-trimmed allocation starts at zero, rises to
        full pooling by year 20, and is near-linear for gamma <= -3."""
        start = time.perf_counter()
        details, ok = [], True
        grid = np.arange(0.0, 45.25, 0.25)
        ramp = grid[grid <= 20.0]
        probes = np.array([5.0, 10.0, 15.0])
        worst_gap, peaks = 0.0, {}
        for gamma in FEASIBLE_GAMMAS:
            schedule = _calibrated(gamma, "scaled_trimmed", market, mortality)
            alpha = alpha_curve(schedule, market, mortality, grid)
            a0 = float(alpha[0])
            nondecreasing = bool(np.all(np.diff(alpha) >= -1e-12))
            saturated = bool(np.all(alpha[grid >= 20.0] == 1.0))
            line = f"gamma={gamma:g}: alpha0={a0:+.2e}, nondecreasing={nondecreasing}, " \
                   f"alpha=1 past year 20: {saturated}"
            if abs(a0) > 1e-8 or not nondecreasing or not saturated:
                ok = False
                line += "  <-- shape violation"
            gap = float(np.max(np.abs(
                alpha[np.isin(grid, probes)]
                - _trapezoid_alpha(probes, schedule, market, mortality)
            )))
            worst_gap = max(worst_gap, gap)
            line += f", oracle gap {gap:.1e}"
            if gap > 1e-7:
                ok = False
                line += "  <-- exceeds 1e-7 oracle tolerance"
            if gamma <= -3.0:
                devs = np.abs(alpha[: len(ramp)] - ramp / 20.0)
                peak = int(np.argmax(devs))
                peaks[gamma] = (float(devs[peak]), float(ramp[peak]))
                line += f", max |alpha - t/20| = {devs[peak]:.4f} at year {ramp[peak]:g}"
                if devs[peak] > 0.10:
                    ok = False
                    line += "  <-- exceeds 0.10 linearity band"
            details.append(line)
        elapsed = time.perf_counter() - start
        if elapsed >= 5.0:
            ok = False
        dev3, year3 = peaks[-3.0]
        details.append(
            f"analysis: the gamma=-3 curve bows below the chord by {dev3:.4f} at "
            f"year {year3:g}, outside the 0.10 band; gamma in {{-5,-8,-11}} peak at "
            + ", ".join(f"{peaks[g][0]:.3f}" for g in (-5.0, -8.0, -11.0))
            + f". alpha matches the dense trapezoid oracle at years "
            f"{', '.join(f'{t:g}' for t in probes)} to {worst_gap:.1e} (tol 1e-7), so "
            "no fault in the curve is shown; whether the reference's 'almost "
            "linear' band is meant to hold at gamma=-3 is not settled"
        )
        _emit(capsys, ok, "criterion 3 (allocation glide path)",
              f"shape checks across gamma [{elapsed:.2f}s]", details)

    def test_unscaled_power_pathology(self, capsys, market, mortality):
        """criterion 4: unscaled hazard-power weights force an initial short position
        in the pool for gamma <= -3, and the allocation rises monotonically to 95."""
        start = time.perf_counter()
        details, ok = [], True
        grid = np.arange(0.0, 30.25, 0.25)  # ages 65 through 95
        for gamma in BENCHMARK_GAMMAS:
            schedule = PreferenceSchedule(
                gamma=gamma, rho=auto_rho(gamma, market.r), variant="power"
            )
            alpha = alpha_curve(schedule, market, mortality, grid)
            a0 = float(alpha[0])
            nondecreasing = bool(np.all(np.diff(alpha) >= -1e-12))
            if gamma <= -3.0:
                line = f"gamma={gamma:g}: alpha0={a0:+.4f}, monotone={nondecreasing}"
                if not nondecreasing:
                    ok = False
                    line += "  <-- not monotone"
                if not a0 < 0.0:
                    ok = False
                    line += "  <-- expected a short position at 65"
            else:
                # context only: mild risk aversion never shorts the pool, and its
                # curve may legitimately wiggle (the weight exponent changes sign)
                line = f"gamma={gamma:g}: alpha0={a0:+.4f} (shape not constrained)"
            details.append(line)
        elapsed = time.perf_counter() - start
        if elapsed >= 5.0:
            ok = False
        _emit(capsys, ok, "criterion 4 (unscaled-power pathology)",
              f"initial shorting for gamma <= -3 and monotone recovery to age 95 "
              f"[{elapsed:.2f}s]", details)

    def test_income_levels(self, capsys, market, mortality):
        """criterion 5: initial incomes per 100k premium fall in the reference bands."""
        start = time.perf_counter()
        details, ok = [], True
        gammas = (-3.0, -5.0, -8.0, -11.0)
        cells = [
            ("calibrated scaled-trimmed", SCALED_TRIMMED_INCOME_BAND,
             [_calibrated(g, "scaled_trimmed", market, mortality) for g in gammas]),
            ("whole-life (unscaled power)", WHOLE_LIFE_INCOME_BAND,
             [PreferenceSchedule(gamma=g, rho=auto_rho(g, market.r), variant="power")
              for g in gammas]),
        ]
        worst_gap, edge_offsets = 0.0, []
        for label, (lo, hi), schedules in cells:
            incomes = [_initial_income(s, market, mortality) for s in schedules]
            for schedule, income in zip(schedules, incomes):
                inside = lo <= income <= hi
                ok &= inside
                d_gl = float(np.exp(log_tail_integrals(0.0, schedule, mortality, market)))
                d_tz = trapezoid_denominator(0.0, schedule, mortality, market)
                gap = abs(d_gl - d_tz) / d_tz
                worst_gap = max(worst_gap, gap)
                agrees = gap <= 1e-7
                ok &= agrees
                details.append(
                    f"{label} gamma={schedule.gamma:g}: {income:.2f} vs [{lo:g}, {hi:g}], "
                    f"D(0) oracle gap {gap:.1e}"
                    + ("" if inside else "  <-- out of band")
                    + ("" if agrees else "  <-- exceeds 1e-7 oracle tolerance")
                )
            edge_offsets.append(
                f"{label}: gamma=-3 is {100 * (incomes[0] / hi - 1):+.2f}% off the top "
                f"edge {hi:g}, gamma=-11 {100 * (incomes[-1] / lo - 1):+.2f}% off the "
                f"bottom edge {lo:g}"
            )
        elapsed = time.perf_counter() - start
        if elapsed >= 5.0:
            ok = False
        details.append(
            "analysis: " + "; ".join(edge_offsets) + ". Both band edges sit about "
            "0.5% below the gamma=-3 and gamma=-11 values alike, which fits bands "
            "whose edges are the reference's own gamma=-3 and gamma=-11 incomes "
            "under an input or income convention that differs by ~0.5%, not "
            f"rounding. All 8 D(0) values match the dense trapezoid oracle to "
            f"{worst_gap:.1e} (tol 1e-7); r = ln 1.03 and a later limiting age "
            "do not close the offset, and the cause waits for the reference tables"
        )
        _emit(capsys, ok, "criterion 5 (initial income levels)",
              f"8 cells vs reference bands [{elapsed:.2f}s]", details)

    def test_income_cross_check(self, capsys, market, mortality):
        """criterion 6: Monte Carlo mean income matches the closed form within 3 SE,
        and income is constant through time when (mu-r)pi* equals the discount-
        adjusted consumption rate."""
        start = time.perf_counter()
        details, ok = [], True

        schedule = _calibrated(-3.0, "scaled_trimmed", market, mortality)
        controls = build_control_schedule(schedule, mortality, market, grid_step=1 / 52)
        config = SimulationConfig(
            n_paths=100_000, horizon=20.0, step=1 / 52, seed=65_601,
            initial_wealth=X0, record_times=(5.0, 10.0, 15.0, 20.0),
        )
        result = simulate_wealth(config, controls, market, mortality)
        for j, t in enumerate(result.times):
            closed = expected_discounted_income(float(t), schedule, market, mortality, x0=X0)
            mc, se = result.summary["mean_income"][j], result.summary["se_income"][j]
            dev = abs(mc - closed)
            hit = dev <= 3.0 * se
            ok &= hit
            details.append(
                f"t={t:g}: closed {closed:.2f}, MC {mc:.2f} (SE {se:.2f}, "
                f"|dev|={dev:.2f} vs 3SE={3*se:.2f})" + ("" if hit else "  <-- > 3 SE")
            )

        # constancy sub-check at gamma = 2/3.  The dual approach gives
        # C_t ~ (zeta_t e^{rho t})^{-1/(1-gamma)}, so E[e^{-rt} C_t] =
        # X0 e^{((mu-r)pi* - beta) t} / D(0) with Merton's consumption rate
        # beta = (rho - gamma r)/(1-gamma) - gamma theta^2/(2(1-gamma)^2).
        # Solving (mu-r)pi* = theta^2/(1-gamma) = beta for rho gives rho* below.
        gamma_c = 2.0 / 3.0
        theta = market.sharpe
        rho_star = gamma_c * market.r + theta**2 * (2.0 - gamma_c) / (2.0 * (1.0 - gamma_c))
        flat = PreferenceSchedule(gamma=gamma_c, rho=rho_star, variant="none")
        t_grid = np.linspace(0.0, 20.0, 81)
        inc = expected_discounted_income(t_grid, flat, market, mortality, x0=X0)
        rel_dev = float(np.max(np.abs(inc / inc[0] - 1.0)))
        constant = rel_dev <= 1e-9
        ok &= constant
        details.append(
            f"gamma=2/3 constancy at rho* = {rho_star:.6f}: max relative income "
            f"drift over [0, 20] {rel_dev:.3e} (tol 1e-9)"
            + ("" if constant else "  <-- not constant")
        )
        slope_convention = income_log_slope(market, gamma_c, auto_rho(gamma_c, market.r))
        details.append(
            "analysis: expected discounted income grows at (mu-r)pi* - beta, with "
            "beta Merton's consumption rate (rho - gamma r)/(1-gamma) - gamma "
            "theta^2/(2(1-gamma)^2); it is constant exactly at rho* = gamma r + "
            "theta^2 (2-gamma)/(2(1-gamma)). Under the rho = r*gamma convention "
            f"the slope is theta^2 (2-gamma)/(2(1-gamma)^2) = {slope_convention:.6f}/yr "
            "at gamma=2/3, zero only at the inadmissible gamma = 2; gamma = 2/3 "
            "is the root only if the sign of beta's theta^2 term is flipped"
        )
        elapsed = time.perf_counter() - start
        if elapsed >= 120.0:
            ok = False
        _emit(capsys, ok, "criterion 6 (income cross-check)",
              f"closed form vs 100k-path Monte Carlo + constancy probe "
              f"[{elapsed:.1f}s]", details)

    def test_martingale_suite(self, capsys, market, mortality):
        """criterion 7: the deflated-wealth process is a martingale under the optimal
        controls, a supermartingale under jittered controls, and the optimal
        completed objective J_40 + V(40, X_40) beats at least 19 of 20 jitters
        under common random numbers."""
        start = time.perf_counter()
        schedule = _calibrated(-3.0, "scaled_trimmed", market, mortality)
        controls = build_control_schedule(schedule, mortality, market, grid_step=1 / 52)
        config = SimulationConfig(
            n_paths=100_000, horizon=40.0, step=1 / 26, seed=424_242, initial_wealth=X0
        )
        audit = optimality_audit(config, controls)
        report = audit.martingale
        worst = max(abs(m.deviation) / (m.se or 1.0) for m in report.martingale)
        finite = [j for j in audit.jitters if np.isfinite(j.mean_diff)]
        n = len(audit.jitters)
        details = [
            f"optimal controls: E[Y_t] = Y_0 within 3 SE at all "
            f"{len(report.martingale)} report times (worst |dev|/SE = {worst:.2f})"
            + ("" if report.martingale_ok else "  <-- martingale violation"),
            f"jittered controls (c,alpha scales in [0.8,1.2]): supermartingale "
            f"holds in {sum(j.supermartingale_ok for j in audit.jitters)}/{n} runs; "
            f"optimal objective wins {audit.wins}/{n} paired comparisons (weakest "
            f"finite margin {min((j.margin for j in finite), default=np.inf):.1f} SE; {n - len(finite)} "
            f"jitters hit the alpha cap and score -inf utility outright); Y has zero "
            f"drift under any deterministic control, so the supermartingale half "
            f"checks the budget identity and the kernel, and the optimality evidence "
            f"is the paired completed-objective comparison",
            f"each objective is completed to J_40 + V(40, X_40) with the candidate's "
            f"value function, so the comparison holds at any horizon (J_40 alone: "
            f"weakest finite margin {min((j.truncated_margin for j in finite), default=np.inf):.1f} SE); "
            f"the candidate's completed mean is {audit.dual_gap_z:+.2f} SE from V(0, X0)",
        ]
        elapsed = time.perf_counter() - start
        ok = audit.ok and elapsed < 300.0
        _emit(capsys, ok, "criterion 7 (martingale suite)",
              f"martingale + 20 perturbations under common random numbers "
              f"[{elapsed:.1f}s]", details)

    def test_mortality_fit(self, capsys, tmp_path, mortality):
        """criterion 8: the hazard fit round-trips a synthetic table to 1e-4 per
        component; a real 2019 table reproduces the benchmark constants to 2%."""
        start = time.perf_counter()
        details, ok = [], True

        path = tmp_path / "synthetic.csv"
        synthetic_life_table_csv(path, mortality)
        fit = fit_gompertz_makeham(LifeTable.from_csv(str(path)))
        for name, got, want in (
            ("a1", fit.params.a1, mortality.a1),
            ("a2", fit.params.a2, mortality.a2),
            ("a3", fit.params.a3, mortality.a3),
        ):
            rel = abs(got - want) / want
            hit = rel <= 1e-4
            ok &= hit
            details.append(f"synthetic round-trip {name}: rel err {rel:.2e} (tol 1e-4)"
                           + ("" if hit else "  <-- out of tolerance"))

        if os.path.exists(UK_TABLE_PATH):
            uk_fit = fit_gompertz_makeham(LifeTable.from_csv(UK_TABLE_PATH))
            for name, got, want in (
                ("a1", uk_fit.params.a1, mortality.a1),
                ("a2", uk_fit.params.a2, mortality.a2),
                ("a3", uk_fit.params.a3, mortality.a3),
            ):
                rel = abs(got - want) / want
                hit = rel <= 0.02
                ok &= hit
                details.append(f"2019 table {name}: rel err {rel:.2e} (tol 2e-2)"
                               + ("" if hit else "  <-- out of tolerance"))
        else:
            details.append(
                "2019 table comparison skipped: place the table at "
                "data/uk_2019_lifetable.csv (header age,survival or age,qx) to "
                "enable it"
            )
        elapsed = time.perf_counter() - start
        if elapsed >= 10.0:
            ok = False
        _emit(capsys, ok, "criterion 8 (mortality fit)",
              f"synthetic round-trip + real-table reproduction [{elapsed:.2f}s]",
              details)

    def test_quadrature_validity(self, capsys, market, mortality):
        """criterion 9: Gauss-Legendre annuity values match a dense trapezoid oracle
        to 1e-7 in every integrable cell; divergent cells are flagged, finite."""
        start = time.perf_counter()
        details, ok = [], True
        worst_ok_rel = 0.0
        flagged_lines = []
        n_cells = 0
        for variant in ("power", "scaled_power", "trimmed", "scaled_trimmed"):
            for gamma in BENCHMARK_GAMMAS:
                n_cells += 1
                schedule = PreferenceSchedule(
                    gamma=gamma, rho=auto_rho(gamma, market.r), variant=variant,
                    kappa=1.0 if variant.startswith("scaled") else None,
                )
                flagged = has_integrability_warning(schedule)
                d_gl = float(np.exp(log_tail_integrals(0.0, schedule, mortality, market)))
                d_tz = trapezoid_denominator(0.0, schedule, mortality, market,
                                             steps_per_year=4000)
                rel = abs(d_gl - d_tz) / d_tz
                if flagged:
                    if not (gamma > 0 and "trimmed" in variant):
                        ok = False
                        details.append(f"{variant} gamma={gamma:g}: unexpected flag")
                    if not np.isfinite(d_gl):
                        ok = False
                        details.append(f"{variant} gamma={gamma:g}: non-finite value")
                    flagged_lines.append(
                        f"{variant} gamma={gamma:g}: flagged near-singular cell, "
                        f"still computed (value {d_gl:.6g}, oracle gap {rel:.1e})"
                    )
                    continue
                worst_ok_rel = max(worst_ok_rel, rel)
                if rel > 1e-7:
                    ok = False
                    details.append(
                        f"{variant} gamma={gamma:g}: rel err {rel:.2e} > 1e-7"
                    )
        details.append(
            f"{n_cells - len(flagged_lines)}/{n_cells} integrable cells within "
            f"1e-7 of the 4000-step/yr trapezoid oracle (worst {worst_ok_rel:.2e})"
        )
        details.extend(flagged_lines)
        elapsed = time.perf_counter() - start
        if elapsed >= 10.0:
            ok = False
        _emit(capsys, ok, "criterion 9 (quadrature validity)",
              f"24 (gamma, variant) cells vs dense trapezoid [{elapsed:.2f}s]",
              details)
