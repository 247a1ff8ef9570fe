#!/usr/bin/env python3
"""Regenerate the four figure CSVs plus headline tables at desk scale.

Produces, under --outdir (default ./figures):
  fig1.csv  allocation paths, unscaled hazard-power weights, all gammas
  fig2.csv  allocation paths, scaled-power and trimmed weights
  fig3.csv  allocation paths, calibrated scaled-trimmed weights
  fig4.csv  expected discounted income paths, calibrated scaled-trimmed
  merton.csv       constant equity fractions per gamma
  calibration.csv  kappa per (gamma, scaled variant) with residuals
  income0.csv      initial incomes per 100k premium per gamma and variant

The four figure tables come from `tontine figures`.  Everything is closed
form; no simulation is involved.
"""
from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from tontine.analytics import (
    BENCHMARK_GAMMAS,
    FEASIBLE_GAMMAS,
    expected_discounted_income,
)
from tontine.cli import main as tontine_main
from tontine.controls import MarketParams, merton_fraction
from tontine.mortality import GompertzMakehamParams
from tontine.preferences import (
    SCALED_VARIANTS,
    PreferenceSchedule,
    auto_rho,
    calibrate_kappa,
)

DEFAULT_MARKET = MarketParams(mu=0.10, sigma=0.20, r=0.03)
DEFAULT_MORTALITY = GompertzMakehamParams(a1=0.00584, a2=0.12150, a3=0.0024117)
X0 = 100_000.0


def headline_tables(market, mortality) -> dict[str, str]:
    """The merton, calibration and income0 CSVs, keyed by file name."""
    merton = ["gamma,pi_star"]
    for g in BENCHMARK_GAMMAS:
        merton.append(f"{g:g},{merton_fraction(market, g):.12g}")

    def uncalibrated(variant: str, gamma: float) -> PreferenceSchedule:
        return PreferenceSchedule(gamma=gamma, rho=auto_rho(gamma, market.r), variant=variant)

    calibration = ["variant,gamma,kappa,residual,feasible"]
    calibrated = {}  # (variant, gamma) -> schedule, for income0
    for variant in SCALED_VARIANTS:
        for g in BENCHMARK_GAMMAS:
            base = uncalibrated(variant, g)
            cal = calibrate_kappa(base, market, mortality)
            calibration.append(
                f"{variant},{g:g},{cal.kappa:.12g},{cal.residual:.3e},"
                f"{'true' if cal.feasible else 'false'}"
            )
            if cal.feasible:
                calibrated[variant, g] = base.with_kappa(cal.kappa)

    income0 = ["variant,gamma,initial_income_per_100k"]
    for variant in ("none", "power", "scaled_trimmed"):
        for g in FEASIBLE_GAMMAS:
            if variant not in SCALED_VARIANTS:
                schedule = uncalibrated(variant, g)
            elif (variant, g) in calibrated:
                schedule = calibrated[variant, g]
            else:
                raise SystemExit(f"kappa calibration infeasible for gamma={g:g}")
            income = expected_discounted_income(0.0, schedule, market, mortality, x0=X0)
            income0.append(f"{variant},{g:g},{income:.2f}")

    return {
        name: "\n".join(lines) + "\n"
        for name, lines in (
            ("merton.csv", merton), ("calibration.csv", calibration), ("income0.csv", income0)
        )
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="figures", help="output directory")
    args = parser.parse_args(argv)
    os.makedirs(args.outdir, exist_ok=True)

    code = tontine_main(["figures", "--out", args.outdir])
    if code:
        return code
    for name, text in headline_tables(DEFAULT_MARKET, DEFAULT_MORTALITY).items():
        path = os.path.join(args.outdir, name)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
