#!/usr/bin/env python3
"""Monte Carlo optimality audit for the closed-form controls.

Runs the candidate controls and a batch of multiplicatively jittered variants
under common random numbers, then reports:
  * the martingale check on deflated-plus-accrued wealth for the candidate,
  * the supermartingale check for every jitter,
  * paired objective comparisons (candidate minus jitter, in standard errors).

The objective horizon should stay close to the pool horizon: truncating too
early hides the deferred consumption that high-spending jitters forgo.
"""
from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

import numpy as np

from tontine.controls import MarketParams, build_control_schedule
from tontine.mortality import GompertzMakehamParams
from tontine.preferences import PreferenceSchedule, auto_rho, calibrate_kappa
from tontine.simulate import (
    SimulationConfig,
    check_supermartingale,
    objective_estimate,
    scaled_controls,
    simulate_wealth,
)

DEFAULT_MARKET = MarketParams(mu=0.10, sigma=0.20, r=0.03)
DEFAULT_MORTALITY = GompertzMakehamParams(a1=0.00584, a2=0.12150, a3=0.0024117)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--gamma", type=float, default=-3.0)
    parser.add_argument("--variant", default="scaled_trimmed")
    parser.add_argument("--paths", type=int, default=20_000)
    parser.add_argument("--step", type=float, default=1 / 26)
    parser.add_argument("--horizon", type=float, default=40.0)
    parser.add_argument("--jitters", type=int, default=20)
    parser.add_argument("--jitter-range", type=float, default=0.2,
                        help="scales drawn from U[1-range, 1+range]")
    parser.add_argument("--seed", type=int, default=424_242)
    parser.add_argument("--jitter-seed", type=int, default=2024)
    args = parser.parse_args(argv)

    market, mortality = DEFAULT_MARKET, DEFAULT_MORTALITY
    schedule = PreferenceSchedule(
        gamma=args.gamma, rho=auto_rho(args.gamma, market.r), variant=args.variant
    )
    if schedule.is_scaled:
        calibration = calibrate_kappa(schedule, market, mortality)
        if not calibration.feasible:
            raise SystemExit(f"infeasible calibration for gamma={args.gamma:g}")
        schedule = schedule.with_kappa(calibration.kappa)

    controls = build_control_schedule(schedule, mortality, market, grid_step=1 / 52)
    config = SimulationConfig(
        n_paths=args.paths, horizon=args.horizon, step=args.step, seed=args.seed
    )

    t0 = time.perf_counter()
    candidate = simulate_wealth(config, controls, market, mortality, schedule=schedule)
    report = check_supermartingale(candidate, candidate=True)
    mean_obj, se_obj = objective_estimate(candidate)
    print(f"candidate run: {args.paths} paths, step {args.step:g}, "
          f"horizon {args.horizon:g}y  [{time.perf_counter() - t0:.1f}s]")
    print(f"  objective estimate: {mean_obj:.6e} (SE {se_obj:.2e})")
    print(f"  martingale check: {'ok' if report.martingale_ok else 'VIOLATED'}")
    for m in report.martingale:
        print(f"    t={m.t:>5g}  dev={m.deviation:+.3e}  SE={m.se:.3e}")

    rng = np.random.default_rng(args.jitter_seed)
    lo, hi = 1.0 - args.jitter_range, 1.0 + args.jitter_range
    wins = 0
    print(f"\n{args.jitters} jittered controls, scales ~ U[{lo:g}, {hi:g}]:")
    print("  c_scale  a_scale  supermartingale  mean_diff      margin")
    for c_scale, a_scale in rng.uniform(lo, hi, size=(args.jitters, 2)):
        jittered = scaled_controls(controls, float(c_scale), float(a_scale))
        perturbed = simulate_wealth(config, jittered, market, mortality,
                                    schedule=schedule)
        sup_ok = check_supermartingale(perturbed).supermartingale_ok
        diff = candidate.objective_paths - perturbed.objective_paths
        if np.all(np.isfinite(diff)):
            se = float(diff.std(ddof=1) / np.sqrt(len(diff)))
            margin = f"{float(diff.mean()) / se:8.1f} SE"
            win = diff.mean() > 0.0
        else:
            margin = "     inf"  # jitter capped alpha: zero bequest, -inf utility
            win = True
        wins += win
        print(f"  {c_scale:7.4f}  {a_scale:7.4f}  "
              f"{'ok' if sup_ok else 'VIOLATED':>15}  "
              f"{float(diff.mean()):+.4e}  {margin}")
    print(f"\ncandidate wins {wins}/{args.jitters} paired comparisons")
    return 0 if wins >= args.jitters - 1 else 1


if __name__ == "__main__":
    sys.exit(main())
