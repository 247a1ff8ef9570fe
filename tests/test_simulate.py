"""Path simulation: exactness, determinism, martingale structure, moments."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tontine import simulate
from tontine.analytics import expected_wealth
from tontine.controls import MarketParams, build_control_schedule
from tontine.mortality import GompertzMakehamParams, cumulative_hazard, survival
from tontine.simulate import (
    REPORT_TIMES,
    DeterministicControls,
    SimulationConfig,
    SimulationError,
    SimulationResult,
    audit_csv,
    check_supermartingale,
    objective_estimate,
    optimality_audit,
    scaled_controls,
    simulate_wealth,
    summary_csv,
    value_function,
)

from conftest import make_schedule
from helpers import reference_paths

NO_MORTALITY = GompertzMakehamParams(0.0, 0.0, 0.0)


@pytest.fixture(autouse=True)
def no_pipeline_thread_left():
    """Every exit of ``simulate_wealth`` joins its helper thread: a fill or
    advance error, a bad path and a memory refusal as much as a result."""
    yield
    left = [t.name for t in threading.enumerate() if t.name.startswith("tontine-")]
    assert left == [], f"threads still alive after the test: {left}"


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SimulationConfig(n_paths=0, horizon=1.0)
        with pytest.raises(ValueError):
            SimulationConfig(n_paths=10, horizon=0.0)
        with pytest.raises(ValueError):
            SimulationConfig(n_paths=10, horizon=1.0, step=0.0)
        for horizon, step in ((np.inf, 0.25), (np.nan, 0.25), (1.0, np.inf), (1.0, np.nan)):
            with pytest.raises(ValueError):
                SimulationConfig(n_paths=10, horizon=horizon, step=step)
        with pytest.raises(ValueError):
            SimulationConfig(n_paths=10, horizon=1.0, initial_wealth=0.0)
        with pytest.raises(ValueError):
            SimulationConfig(n_paths=10, horizon=1.0, seed=-1)
        with pytest.raises(ValueError):
            SimulationConfig(n_paths=10, horizon=1.0, seed=2**64)
        # a path count or seed that is not an integer is refused, not truncated
        for field, value in (("seed", -0.5), ("seed", 1.5), ("seed", 2.0), ("seed", True),
                             ("n_paths", 2.5), ("n_paths", 10.0), ("n_paths", True),
                             ("n_paths", np.float64(4.0))):
            with pytest.raises(ValueError, match=f"^{field} must be an integer"):
                SimulationConfig(**{"n_paths": 10, "horizon": 1.0, field: value})
        config = SimulationConfig(n_paths=np.int64(3), horizon=1.0, seed=np.uint64(2**64 - 1))
        assert (config.n_paths, config.seed) == (3, 2**64 - 1)

    @given(values=st.tuples(*[st.floats(allow_nan=True, allow_infinity=True)] * 3))
    @example(values=(1.0, 0.25, math.inf))
    @settings(max_examples=300, deadline=None)
    def test_finite_or_reject(self, values):
        horizon, step, x0 = values
        valid = all(map(math.isfinite, values)) and min(values) > 0
        if valid:
            config = SimulationConfig(n_paths=1, horizon=horizon, step=step, initial_wealth=x0)
            assert (config.horizon, config.step, config.initial_wealth) == values
        else:
            with pytest.raises(ValueError):
                SimulationConfig(n_paths=1, horizon=horizon, step=step, initial_wealth=x0)

    def test_rejects_bad_record_times(self):
        # refused where the config is built, not later in the kernel
        for times in ("some", (2.0,), (np.nan, 0.5), (), 5, (-0.5,), (0.5, np.inf),
                      ((0.5, 1.0),)):
            with pytest.raises(ValueError, match="^record_times must"):
                SimulationConfig(n_paths=4, horizon=1.0, step=0.25, record_times=times)

    def test_accepts_any_sequence_of_record_times(self, market):
        controls = DeterministicControls(pi=0.0, consumption=0.0, tontine_fraction=0.0)
        for times in ([0.5, 1.0], np.array([0.5, 1.0])):
            config = SimulationConfig(n_paths=2, horizon=1.0, step=0.25, record_times=times)
            result = simulate_wealth(config, controls, market, NO_MORTALITY)
            assert result.times.tolist() == [0.5, 1.0]

    def test_default_record_times(self, market):
        controls = DeterministicControls(pi=0.0, consumption=0.0, tontine_fraction=0.0)
        config = SimulationConfig(n_paths=2, horizon=20.0, step=0.25)
        result = simulate_wealth(config, controls, market, NO_MORTALITY)
        expected = [0.0, *(t for t in REPORT_TIMES if t <= 20.0)]
        assert np.allclose(result.times, sorted(set(expected) | {20.0}))


class TestModelOfTheControls:
    """Tabulated controls are optimal only under the model they were built from."""

    CONFIG = SimulationConfig(n_paths=4, horizon=1.0, step=0.25, seed=1)

    @pytest.mark.parametrize("field", ["market", "mortality", "schedule"])
    def test_rejects_another_model(self, market, mortality, controls_cache, field):
        controls = controls_cache(-3.0, "scaled_trimmed")  # built with mu = 0.10
        model = {"market": market, "mortality": mortality, "schedule": controls.schedule}
        model[field] = {
            "market": MarketParams(0.08, 0.20, 0.03),
            "mortality": replace(mortality, a1=0.004),
            "schedule": make_schedule(-5.0, "power"),
        }[field]
        with pytest.raises(ValueError, match=f"^{field} differs"):
            simulate_wealth(self.CONFIG, controls, **model)

    def test_runs_under_its_own_model_when_given_none(self, controls_cache):
        controls = controls_cache(-3.0, "scaled_trimmed")
        own = simulate_wealth(self.CONFIG, controls, controls.market, controls.mortality,
                              controls.schedule)
        unnamed = simulate_wealth(self.CONFIG, controls, None, None, controls.schedule)
        for field in ("times", *RESULT_ARRAYS):
            assert np.array_equal(getattr(unnamed, field), getattr(own, field)), field
        for name, values in own.summary.items():
            assert np.array_equal(unnamed.summary[name], values), name

    def test_accepts_an_equal_model_and_no_schedule(self, mortality, controls_cache):
        controls = controls_cache(-3.0, "scaled_trimmed")
        market = MarketParams(0.10, 0.20, 0.03)
        assert market is not controls.market
        result = simulate_wealth(self.CONFIG, controls, market, mortality, controls.schedule)
        assert np.isfinite(result.objective_paths).all()
        assert simulate_wealth(self.CONFIG, controls, market, mortality).objective_paths is None


class TestExactDynamics:
    def test_bank_account(self, market):
        # no equity, no consumption, no pooling, no mortality: X = X0 e^{rt}
        controls = DeterministicControls(pi=0.0, consumption=0.0, tontine_fraction=0.0)
        config = SimulationConfig(
            n_paths=8, horizon=10.0, step=0.25, seed=3, record_times="all"
        )
        result = simulate_wealth(config, controls, market, NO_MORTALITY)
        expected = config.initial_wealth * np.exp(market.r * result.times)
        assert np.allclose(result.wealth_paths, expected[None, :], rtol=1e-12, atol=0)
        # with zero outflow, Y is zeta*X path by path (to rounding of exp)
        assert np.allclose(
            result.y_paths, result.spd_paths * result.wealth_paths, rtol=1e-13, atol=0
        )

    def test_fully_pooled_no_consumption_keeps_y_equal_to_spd_wealth(
        self, market, mortality
    ):
        # alpha = 1 and c = 0 make the outflow integrand vanish identically
        controls = DeterministicControls(pi=0.875, consumption=0.0, tontine_fraction=1.0)
        config = SimulationConfig(n_paths=16, horizon=5.0, step=0.25, seed=9)
        result = simulate_wealth(config, controls, market, mortality)
        assert np.allclose(
            result.y_paths, result.spd_paths * result.wealth_paths, rtol=1e-13, atol=0
        )

    def test_candidate_uses_marginal_utility_density(self, market, mortality, controls_cache):
        controls = controls_cache(-3.0, "scaled_trimmed")
        config = SimulationConfig(n_paths=4, horizon=5.0, step=0.25, seed=1)
        result = simulate_wealth(config, controls, market, mortality)
        assert result.spd0 == pytest.approx(
            float(controls.c_star[0]) ** (controls.gamma - 1.0), rel=1e-14
        )
        assert result.y0 == pytest.approx(result.spd0 * config.initial_wealth, rel=1e-14)


class TestReferenceKernel:
    # against a per-step loop written from the model, to 1e-12: a
    # coefficient error far below what the Monte Carlo checks resolve fails
    # here even where the byte digests are re-pinned.  40 steps in segments
    # of 6 and 7, so every carry over a segment edge is checked too
    @pytest.mark.parametrize("name", ("candidate", "jitter", "constant"))
    def test_matches_the_per_step_reference(
        self, monkeypatch, name, market, mortality, controls_cache, calibrated_cache
    ):
        monkeypatch.setattr(simulate, "_SEGMENT_STEPS", 7)
        candidate = controls_cache(-3.0, "scaled_trimmed")
        schedule = calibrated_cache(-3.0, "scaled_trimmed")
        controls = {
            "candidate": candidate,
            "jitter": scaled_controls(candidate, c_scale=1.1, alpha_scale=0.9),
            "constant": DeterministicControls(pi=0.6, consumption=0.05, tontine_fraction=0.7),
        }[name]
        config = SimulationConfig(n_paths=3, horizon=10.0, step=0.25, seed=31,
                                  record_times="all")
        result = simulate_wealth(config, controls, market, mortality, schedule=schedule)
        for field, expected in reference_paths(config, controls, market, mortality,
                                               schedule).items():
            np.testing.assert_allclose(getattr(result, field), expected, rtol=1e-12, atol=0,
                                       err_msg=field)


def _log_means(coef) -> tuple[np.ndarray, np.ndarray]:
    """log E[X_t / X_0] and log E[zeta_t / zeta_0] at every node, noise-free:
    the running sums of each step's drift plus half its variance."""
    return tuple(np.concatenate(([0.0], np.cumsum(drift + 0.5 * vol**2)))
                 for drift, vol in ((coef.drift_x, coef.vol_x), (coef.drift_z, coef.vol_z)))


class TestStepCoefficients:
    """The per-step coefficients against the model's exact means, with no draw."""

    # Every node of steps 1/13, 1/26 and 1/52 is a node of the weekly
    # schedule grid, where log D is the quadrature's own value.  At 1/104
    # half the nodes interpolate log D, up to 4.3e-6 off (9.1e-3 in the last
    # cell before the trimmed horizon at gamma = 0.5), so that step is left out.
    @pytest.mark.parametrize("gamma", (-3.0, -11.0, 0.5))
    def test_candidate_means_are_the_closed_forms(self, gamma, mortality, controls_cache):
        # the scaled variants cannot be calibrated at gamma > 0
        variants = ("none", "power", "trimmed") + (
            ("scaled_power", "scaled_trimmed") if gamma < 0 else ())
        for variant, horizon, step in itertools.product(variants, (20.0, 40.0),
                                                         (1 / 13, 1 / 26, 1 / 52)):
            controls = controls_cache(gamma, variant)
            n_steps = round(horizon / step)
            times = np.arange(n_steps + 1) * horizon / n_steps
            coef = simulate._step_coefficients(controls, None, None, None, times)
            log_x, log_z = _log_means(coef)
            market = controls.market
            wealth = expected_wealth(times, controls.schedule, market, mortality)
            where = f"{variant}, H = {horizon}, step {step:.4f}"
            np.testing.assert_allclose(1e5 * np.exp(log_x), wealth, rtol=1e-12, atol=0,
                                       err_msg=where)
            np.testing.assert_allclose(log_z, -market.r * times
                                       - cumulative_hazard(times, mortality),
                                       rtol=1e-12, atol=0, err_msg=where)

    def test_constant_controls_mean_is_the_closed_form(self, market, mortality):
        pi, c, alpha = 0.6, 0.05, 0.7
        controls = DeterministicControls(pi=pi, consumption=c, tontine_fraction=alpha)
        times = np.arange(2081) * 40.0 / 2080
        coef = simulate._step_coefficients(controls, market, mortality, None, times)
        want = ((market.r + (market.mu - market.r) * pi - c) * times
                + alpha * cumulative_hazard(times, mortality))
        np.testing.assert_allclose(_log_means(coef)[0], want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("jitter", (False, True))
    @pytest.mark.parametrize("with_objective", (False, True))
    def test_step_arrays_bound_the_builder(
        self, jitter, with_objective, market, mortality, controls_cache, calibrated_cache
    ):
        # the memory check counts _STEP_ARRAYS float64 a node for the grid
        # arrays; the builder's own peak, its record included, stays within
        controls = controls_cache(-3.0, "scaled_trimmed")
        if jitter:
            controls = scaled_controls(controls, c_scale=1.1, alpha_scale=0.9)
        schedule = calibrated_cache(-3.0, "scaled_trimmed") if with_objective else None
        n_steps = 20_000
        times = np.arange(n_steps + 1) * 40.0 / n_steps
        tracemalloc.start()
        try:
            simulate._step_coefficients(controls, market, mortality, schedule, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * simulate._STEP_ARRAYS * (n_steps + 1)


class TestDeterminism:
    def test_same_seed_same_output(self, market, mortality, controls_cache):
        controls = controls_cache(-3.0, "scaled_trimmed")
        config = SimulationConfig(n_paths=64, horizon=10.0, step=1.0 / 26.0, seed=77)
        a = simulate_wealth(config, controls, market, mortality)
        b = simulate_wealth(config, controls, market, mortality)
        assert summary_csv(a) == summary_csv(b)
        assert np.array_equal(a.wealth_paths, b.wealth_paths)

    def test_different_seed_differs(self, market, mortality):
        controls = DeterministicControls(pi=0.5, consumption=0.02, tontine_fraction=0.5)
        base = dict(n_paths=16, horizon=2.0, step=0.25)
        a = simulate_wealth(SimulationConfig(seed=1, **base), controls, market, NO_MORTALITY)
        b = simulate_wealth(SimulationConfig(seed=2, **base), controls, market, NO_MORTALITY)
        assert not np.array_equal(a.wealth_paths, b.wealth_paths)

    def test_per_path_substreams_are_stable_across_path_count(self, market, mortality):
        # path i depends only on (seed, i), not on how many paths run alongside
        controls = DeterministicControls(pi=0.5, consumption=0.02, tontine_fraction=0.5)
        big = simulate_wealth(
            SimulationConfig(n_paths=50, horizon=2.0, step=0.25, seed=5),
            controls, market, mortality,
        )
        small = simulate_wealth(
            SimulationConfig(n_paths=10, horizon=2.0, step=0.25, seed=5),
            controls, market, mortality,
        )
        assert np.array_equal(big.wealth_paths[:10], small.wealth_paths)
        assert np.array_equal(big.spd_paths[:10], small.spd_paths)

    @pytest.mark.parametrize("seed", (0, 2**64 - 1))
    @pytest.mark.parametrize("block", (0, 1, 2**32 + 7))
    def test_substream_is_philox_keyed_by_seed_and_block(self, seed, block):
        # a uint64 key: a list holding 2**64 - 1 would pass through float64;
        # drawn time-major, 512 lanes a step; a stream drawn in pieces, as
        # segments draw it, is one draw, and step 0 starts it afresh
        lanes = simulate._SUB_BLOCK_PATHS
        out, again = np.empty((2, 16, lanes))
        normals = simulate._Substreams(seed)
        for a, b in ((0, 5), (5, 6), (6, 16)):
            normals.fill(block, a, out[a:b])
        normals.fill(block, 0, again)
        key = np.array([seed, block], dtype=np.uint64)
        expected = np.random.Generator(np.random.Philox(key=key)).standard_normal((16, 512))
        assert lanes == 512
        assert np.array_equal(out, expected)
        assert np.array_equal(again, expected)

    def test_path_reads_its_lane_of_its_sub_block(self, market):
        # path p's increments are driven by lane p mod 512 of sub-block
        # p // 512's stream, in a run whose last sub-block is partial
        pi = 1.0
        controls = DeterministicControls(pi=pi, consumption=0.0, tontine_fraction=0.0)
        config = SimulationConfig(n_paths=1100, horizon=1.0, step=0.25, seed=8,
                                  record_times="all")
        result = simulate_wealth(config, controls, market, NO_MORTALITY)
        h = result.step
        drift = (market.r + (market.mu - market.r) * pi - 0.5 * (market.sigma * pi) ** 2) * h
        normals = (np.diff(np.log(result.wealth_paths), axis=1) - drift) / (
            market.sigma * pi * math.sqrt(h))
        for path in (0, 511, 512, 1023, 1024, 1099):
            key = np.array([config.seed, path // 512], dtype=np.uint64)
            stream = np.random.Generator(np.random.Philox(key=key)).standard_normal((4, 512))
            np.testing.assert_allclose(normals[path], stream[:, path % 512], rtol=0,
                                       atol=1e-9)

    def test_shorter_horizon_is_a_prefix(self, market, mortality, controls_cache):
        # each stream is drawn a step at a time, so a run to H = 2 gives the
        # values that a run to H = 5 gives up to t = 2
        controls = controls_cache(-3.0, "scaled_trimmed")
        runs = [simulate_wealth(SimulationConfig(n_paths=700, horizon=horizon,
                                                 step=1.0 / 26.0, seed=19,
                                                 record_times=(0.0, 1.0, 2.0)),
                                controls, market, mortality)
                for horizon in (2.0, 5.0)]
        for field in ("wealth_paths", "spd_paths", "y_paths"):
            assert np.array_equal(getattr(runs[0], field), getattr(runs[1], field))


# sha256 of the result arrays of _golden_runs, taken when the streams were
# keyed by sub-block; TestReferenceKernel checks the arithmetic beneath them.
GOLDEN_DIGESTS = {
    "candidate": {
        "wealth_paths": "ae74df2acd93d3905fbeb75a86b8fa1b2aee85b3ea39608632a07aef7bafe8e0",
        "spd_paths": "dc71b33299bdcfba77a40d284340b36e6658b079b3044a76c1de4413cbb003ea",
        "y_paths": "8177a288d3ac259ea4b3c667da175e180bcb9f6367c5ad13f68b0df14b0eaec2",
        "objective_paths": "d57300d69d412085afa7e6331100667a518ebcd494f5a44db362f0d2449b649e",
    },
    "jitter": {
        "wealth_paths": "480810e505d708a6170dee5c757658f99b32a4ede5e84ecedd251a6b99620a9b",
        "spd_paths": "130cc22ba0de7e58d18de2f186418e1dfc4b39ee8c45c1ae89f3bcaecc446254",
        "y_paths": "34b2a3163881a4db4834134a07bdf05da2015cb927d4730e0e692520c3d35c2d",
        "objective_paths": "def2f3fc03fabd390b52d56d4c50ee1dc33757f08a2cc07f446cc30f034c86e6",
    },
}
# sha256 of _golden_runs at path counts that leave a partial sub-block of
# one path and of 75: n_paths -> digests.
ONE_PATH_BLOCK_DIGESTS = {
    1: {
        "candidate": {
            "wealth_paths": "8515cab8db70cb86020300669f9b621c42c2f5c733f50c71ec61356990ca3fc4",
            "spd_paths": "c4446589e5abfe6e88ad24500c8e850c4aef149c8177d2ef054fdc3cb71f85ef",
            "y_paths": "cdf6f330be20f3a371ad2c9127a867de3fc358b021b881d2b900a28a0009c7dc",
            "objective_paths": "fbe00a621ecb703dcb1f12afdc701f129176d65b47dcf9c183d70a435cec8e1d",
        },
        "jitter": {
            "wealth_paths": "55a4aec437fab2bf4d530600706a686990ad36d1095dba834d404765a064564b",
            "spd_paths": "b992896967e3436dd96720a6eaf37f530851847b07c4f0f04b222a86a2ab626f",
            "y_paths": "1456e2bd3580f976ed9cfda1b1325932c23d928cd84e69e42b2c4b57bd96af79",
            "objective_paths": "a6ec8ccb863cba18630d6331403392f8f3476ec534267592bacd613337d9419c",
        },
    },
    75: {
        "candidate": {
            "wealth_paths": "669b1871efff2074a5d8d90336a296dde8a7cd0e57a729114f23128022946f74",
            "spd_paths": "0684800661c4e75b20b01ab0e94aa6b479505db2fc89a79ff89a16ec554a9417",
            "y_paths": "86c4f3a3366d85e2c45035e283e4fd07476a0e266231063dd8fc6455467ed325",
            "objective_paths": "054b9dc2ac7936161d57222bc63b11db50a59aa52dff2961ebfdb64a28381fd6",
        },
        "jitter": {
            "wealth_paths": "380d8f6e6c6febab137465b19e460fa8420f1b2858f441a212fb85374fc519ec",
            "spd_paths": "0500b404c095a43a877c084e0f74edbcf658f204fe0f275d2d83aa43e6570d41",
            "y_paths": "a59c5d87ce0785a6bb264e7ec712c966fa2de6309332a9d77e026bb6c777d48d",
            "objective_paths": "cab0832ab4b818259e1f753603de544c10f31db46fc0cadbe4f8831b2112fb26",
        },
    },
}
RESULT_ARRAYS = ("wealth_paths", "spd_paths", "y_paths", "objective_paths")


def _within_timeout(call, timeout=60.0):
    """``call()`` on a thread joined with ``timeout``: a deadlock fails the
    test instead of hanging the suite."""
    outcome = {}

    def target():
        try:
            outcome["value"] = call()
        except BaseException as exc:  # re-raised on the test's thread
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"no outcome within {timeout:g} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def _golden_runs(market, mortality, controls_cache, calibrated_cache, n_paths=700):
    """Candidate and one jitter, objective on, every step recorded.

    700 paths fill more than one sub-block and end in a partial one.
    """
    controls = controls_cache(-3.0, "scaled_trimmed")
    schedule = calibrated_cache(-3.0, "scaled_trimmed")
    config = SimulationConfig(
        n_paths=n_paths, horizon=10.0, step=1.0 / 26.0, seed=2024, record_times="all"
    )
    jittered = scaled_controls(controls, c_scale=1.1, alpha_scale=0.9)
    return {
        name: simulate_wealth(config, c, market, mortality, schedule=schedule)
        for name, c in (("candidate", controls), ("jitter", jittered))
    }


def _digests(runs):
    return {
        name: {
            field: hashlib.sha256(np.ascontiguousarray(getattr(r, field)).tobytes()).hexdigest()
            for field in RESULT_ARRAYS
        }
        for name, r in runs.items()
    }


# Run as a script: pin this process to the CPU named by argv[1], then print
# the CPUs it may run on and the digests of _golden_runs as JSON.
ONE_CPU_GOLDEN_RUNS = """
import json, os, sys
os.sched_setaffinity(0, {int(sys.argv[1])})
from conftest import make_schedule, BENCH_A1, BENCH_A2, BENCH_A3, BENCH_MU, BENCH_R, BENCH_SIGMA
from test_simulate import _digests, _golden_runs
from tontine import GompertzMakehamParams, MarketParams, build_control_schedule, calibrate_kappa
market = MarketParams(mu=BENCH_MU, sigma=BENCH_SIGMA, r=BENCH_R)
mortality = GompertzMakehamParams(BENCH_A1, BENCH_A2, BENCH_A3)
schedule = make_schedule(-3.0, "scaled_trimmed")
schedule = schedule.with_kappa(calibrate_kappa(schedule, market, mortality).kappa)
controls = build_control_schedule(schedule, mortality, market)
runs = _golden_runs(market, mortality, lambda *_: controls, lambda *_: schedule)
print(json.dumps([len(os.sched_getaffinity(0)), _digests(runs)]))
"""


# Run as a script: print whether numpy.random is loaded after the import and
# when the helper thread of one simulate_wealth call starts.
NUMPY_RANDOM_AT_DRAW = """
import json, sys, threading
from tontine import DeterministicControls, GompertzMakehamParams, MarketParams
from tontine import SimulationConfig, simulate_wealth
loaded = {"import": "numpy.random" in sys.modules}
start = threading.Thread.start
def recording_start(self):
    if self.name == "tontine-draw":
        loaded["draw"] = "numpy.random" in sys.modules
    start(self)
threading.Thread.start = recording_start
simulate_wealth(SimulationConfig(n_paths=4, horizon=1.0, step=0.25),
                DeterministicControls(pi=0.5, consumption=0.02, tontine_fraction=0.5),
                MarketParams(0.10, 0.20, 0.03), GompertzMakehamParams(0.0, 0.0, 0.0))
print(json.dumps(loaded))
"""


class TestGoldenBytes:
    def test_digests(self, market, mortality, controls_cache, calibrated_cache):
        runs = _golden_runs(market, mortality, controls_cache, calibrated_cache)
        assert runs["candidate"].n_paths > simulate._SUB_BLOCK_PATHS
        assert _digests(runs) == GOLDEN_DIGESTS

    @pytest.mark.parametrize("n_paths", (1, 75))
    def test_one_path_sub_block_digests(
        self, n_paths, market, mortality, controls_cache, calibrated_cache
    ):
        # a sum over axis 0 of a single lane is pairwise in numpy, not
        # sequential, so a lone path runs beside the next lane of its stream
        runs = _golden_runs(market, mortality, controls_cache, calibrated_cache, n_paths)
        assert n_paths < simulate._SUB_BLOCK_PATHS
        assert _digests(runs) == ONE_PATH_BLOCK_DIGESTS[n_paths]

    @pytest.mark.parametrize("chunk", (1, 5))
    def test_chunk_size_leaves_digests_unchanged(
        self, monkeypatch, chunk, market, mortality, controls_cache, calibrated_cache
    ):
        # every node is recorded, so chunk edges fall on and between them
        monkeypatch.setattr(simulate, "_CHUNK_NODES", chunk)
        runs = _golden_runs(market, mortality, controls_cache, calibrated_cache)
        assert _digests(runs) == GOLDEN_DIGESTS

    @pytest.mark.parametrize("segment", (1, 7, 100))
    @pytest.mark.parametrize("n_paths", (700, 1, 75))
    def test_segment_edges_leave_digests_unchanged(
        self, monkeypatch, segment, n_paths, market, mortality, controls_cache,
        calibrated_cache,
    ):
        # 260 steps, every node recorded: a segment edge on every node, on
        # every 6th or 7th, or twice between chunk edges; each sub-block's
        # stream and each lane's log X, log zeta and both trapezoid totals
        # cross them
        monkeypatch.setattr(simulate, "_SEGMENT_STEPS", segment)
        runs = _golden_runs(market, mortality, controls_cache, calibrated_cache, n_paths)
        assert _digests(runs) == ONE_PATH_BLOCK_DIGESTS.get(n_paths, GOLDEN_DIGESTS)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="no CPU affinity on this platform")
    def test_one_cpu_process_reproduces_the_digests(self):
        # a fresh interpreter pinned to a single CPU, where the helper thread
        # and the calling thread take turns, gives the same bytes
        here = os.path.dirname(os.path.abspath(__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(here, os.pardir, "src"), here, env.get("PYTHONPATH", "")])
        child = subprocess.run(
            [sys.executable, "-c", ONE_CPU_GOLDEN_RUNS, str(min(os.sched_getaffinity(0)))],
            env=env, capture_output=True, text=True, timeout=300, check=True)
        cpus, digests = json.loads(child.stdout)
        assert cpus == 1
        assert digests == GOLDEN_DIGESTS

    def test_calling_thread_loads_numpy_random(self):
        # numpy.random loads lazily, and what it allocates on loading stays
        # in the loading thread's malloc arena: the helper thread must find
        # it loaded
        here = os.path.dirname(os.path.abspath(__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(here, os.pardir, "src"), env.get("PYTHONPATH", "")])
        child = subprocess.run([sys.executable, "-c", NUMPY_RANDOM_AT_DRAW], env=env,
                               capture_output=True, text=True, timeout=60, check=True)
        assert json.loads(child.stdout) == {"import": False, "draw": True}

    def test_thread_switching_leaves_arrays_unchanged(
        self, monkeypatch, market, mortality, controls_cache, calibrated_cache
    ):
        default = _golden_runs(market, mortality, controls_cache, calibrated_cache)
        # switching often: the drawing thread must not refill a ring buffer
        # before the calling thread is done with its segment; 260 steps run
        # in one segment or, at a cap of 7, in 38
        for segment in (simulate._SEGMENT_STEPS, 7):
            monkeypatch.setattr(simulate, "_SEGMENT_STEPS", segment)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                pipelined = _within_timeout(lambda: _golden_runs(
                    market, mortality, controls_cache, calibrated_cache))
            finally:
                sys.setswitchinterval(interval)
            for name, result in default.items():
                for field in RESULT_ARRAYS:
                    assert np.array_equal(getattr(pipelined[name], field),
                                          getattr(result, field))


class TestMartingaleStructure:
    def test_candidate_martingale(self, market, mortality, controls_cache):
        controls = controls_cache(-3.0, "scaled_trimmed")
        config = SimulationConfig(n_paths=20_000, horizon=20.0, step=1.0 / 26.0, seed=12)
        result = simulate_wealth(config, controls, market, mortality)
        report = check_supermartingale(result, candidate=True)
        assert report.supermartingale_ok
        assert report.martingale_ok

    def test_perturbed_controls_still_supermartingale_but_lose_value(
        self, market, mortality, controls_cache, calibrated_cache
    ):
        # the utility integral must run essentially to the pool horizon:
        # truncating it early would hide the candidate's deferred consumption
        # and make a higher-spending jitter look better
        controls = controls_cache(-3.0, "scaled_trimmed")
        schedule = calibrated_cache(-3.0, "scaled_trimmed")
        config = SimulationConfig(n_paths=20_000, horizon=49.0, step=1.0 / 26.0, seed=12)
        best = simulate_wealth(config, controls, market, mortality, schedule=schedule)
        jittered = scaled_controls(controls, c_scale=1.25, alpha_scale=0.85)
        worse = simulate_wealth(config, jittered, market, mortality, schedule=schedule)
        report = check_supermartingale(worse)
        assert report.supermartingale_ok
        # common random numbers: paired objective difference is sharply signed
        diff = best.objective_paths - worse.objective_paths
        se = diff.std(ddof=1) / np.sqrt(len(diff))
        assert diff.mean() > 3.0 * se

    def test_martingale_slack_covers_rounding_only(self):
        # two paths from Y_0 = 1 that rise by 5e-6 and 3e-6: a mean deviation
        # of 4e-6 with an SE of 1e-6 is 4 SE out, and the 1e-12 Y_0 slack
        # does not hide it; a rise of 3e-6 and 1e-6 is 2 SE out and passes
        def result(rises):
            y = np.array([[1.0, 1.0 + rises[0]], [1.0, 1.0 + rises[1]]])
            return SimulationResult(
                times=np.array([0.0, 1.0]), wealth_paths=y, spd_paths=np.ones_like(y),
                y_paths=y, objective_paths=None, summary={}, n_paths=2, step=1.0,
                horizon=1.0, initial_wealth=1.0, spd0=1.0,
            )

        report = check_supermartingale(result((5e-6, 3e-6)), candidate=True)
        check = report.martingale[1]
        assert check.deviation == pytest.approx(4e-6, rel=1e-9)
        assert check.se == pytest.approx(1e-6, rel=1e-9)
        assert not report.martingale_ok
        assert check_supermartingale(result((3e-6, 1e-6)), candidate=True).martingale_ok

    def test_supermartingale_logic_flags_increase(self):
        # fabricated paths: mean Y rising over time must fail the pair checks
        rng = np.random.default_rng(0)
        n = 4000
        base = rng.normal(10.0, 0.01, size=(n, 1))
        y = np.hstack([base, base + 1.0, base + 2.0])
        result = SimulationResult(
            times=np.array([0.0, 1.0, 2.0]),
            wealth_paths=y, spd_paths=np.ones_like(y), y_paths=y,
            objective_paths=None, summary={}, n_paths=n, step=1.0, horizon=2.0,
            initial_wealth=10.0, spd0=1.0,
        )
        assert not check_supermartingale(result).supermartingale_ok
        falling = SimulationResult(
            times=np.array([0.0, 1.0, 2.0]),
            wealth_paths=y, spd_paths=np.ones_like(y), y_paths=y[:, ::-1],
            objective_paths=None, summary={}, n_paths=n, step=1.0, horizon=2.0,
            initial_wealth=10.0, spd0=1.0,
        )
        assert check_supermartingale(falling).supermartingale_ok

    def test_pair_checks_match_a_per_pair_loop(self, monkeypatch):
        # one _mean_se per earlier time, over the differences to every later
        # one, gives each pair the mean and SE of its own difference, bit for bit
        rng = np.random.default_rng(50)
        n, m = 300, 50
        y = 1e3 * rng.standard_normal((n, m)) - np.cumsum(rng.uniform(500.0, 1e3, m))
        result = SimulationResult(
            times=np.arange(m, dtype=float), wealth_paths=y, spd_paths=np.ones_like(y),
            y_paths=y, objective_paths=None, summary={}, n_paths=n, step=1.0,
            horizon=m - 1.0, initial_wealth=1.0, spd0=1.0,
        )
        mean_se, calls = simulate._mean_se, []

        def recording(values):
            calls.append(mean_se(values))
            return calls[-1]

        monkeypatch.setattr(simulate, "_mean_se", recording)
        assert check_supermartingale(result).supermartingale_ok  # falling: no early exit
        assert len(calls) == m - 1
        for i, (means, ses) in enumerate(calls):
            pairs = [mean_se(y[:, j] - y[:, i]) for j in range(i + 1, m)]
            assert np.array_equal(means, [mean for mean, _ in pairs])
            assert np.array_equal(ses, [se for _, se in pairs])


class TestDiffusionLoading:
    """Regress Y increments on zeta*X*dW: the loading must be sigma*pi - theta."""

    @staticmethod
    def _slope(market, pi: float, seed: int) -> tuple[float, float]:
        controls = DeterministicControls(pi=pi, consumption=0.02, tontine_fraction=0.5)
        config = SimulationConfig(
            n_paths=2000, horizon=2.0, step=1.0 / 252.0, seed=seed, record_times="all"
        )
        result = simulate_wealth(config, controls, market, NO_MORTALITY)
        dt = result.step
        # invert the exact lognormal update to recover the driving increments
        drift = (
            market.r
            + (market.mu - market.r) * pi
            - 0.5 * market.sigma**2 * pi**2
            - 0.02
        ) * dt
        dlogx = np.diff(np.log(result.wealth_paths), axis=1)
        dw = (dlogx - drift) / (market.sigma * pi)
        zx = result.spd_paths[:, :-1] * result.wealth_paths[:, :-1]
        x = (zx * dw).ravel()
        yinc = np.diff(result.y_paths, axis=1).ravel()
        slope = float(np.dot(x, yinc) / np.dot(x, x))
        resid = yinc - slope * x
        se = float(np.sqrt(np.dot(resid, resid) / (len(x) - 1) / np.dot(x, x)))
        return slope, se

    def test_hedged_portfolio_has_zero_loading(self, market):
        pi_hedge = market.sharpe / market.sigma  # sigma*pi = theta
        slope, se = self._slope(market, pi_hedge, seed=21)
        assert abs(slope) <= 3.0 * se + 5e-3

    def test_underinvested_portfolio_loads_negative(self, market):
        slope, se = self._slope(market, 0.5, seed=22)
        target = market.sigma * 0.5 - market.sharpe
        assert slope == pytest.approx(target, abs=3.0 * se + 5e-3)


class TestMoments:
    def test_first_moment_matches_monte_carlo(self, market, mortality, controls_cache):
        # E[zeta_t X*_t] = phi_0 X_0 D(t)/D(0) under the optimal controls
        controls = controls_cache(-3.0, "scaled_trimmed")
        config = SimulationConfig(n_paths=20_000, horizon=20.0, step=1.0 / 26.0, seed=31)
        result = simulate_wealth(config, controls, market, mortality)
        for j, t in enumerate(result.times):
            if t < 1.0:
                continue
            closed = controls.spd0 * config.initial_wealth * math.exp(
                controls.log_denominator_at(t) - controls.log_denominator[0])
            dev = abs(result.summary["mean_zetaX"][j] - closed)
            assert dev <= 3.0 * result.summary["se_zetaX"][j]

    def test_second_moment_bound(self, market, mortality, controls_cache):
        # E[(zeta_t X*_t)^2] <= (phi_0 X_0)^2 exp((sigma pi* - theta)^2 t)
        controls = controls_cache(-3.0, "scaled_trimmed")
        config = SimulationConfig(n_paths=20_000, horizon=20.0, step=1.0 / 26.0, seed=32)
        result = simulate_wealth(config, controls, market, mortality)
        sq = (result.spd_paths * result.wealth_paths) ** 2
        load = market.sigma * controls.pi_star - market.sharpe
        for j, t in enumerate(result.times):
            bound = (controls.spd0 * config.initial_wealth) ** 2 * math.exp(load**2 * t)
            m2 = float(sq[:, j].mean())
            se2 = float(sq[:, j].std(ddof=1) / np.sqrt(sq.shape[0]))
            assert m2 <= bound * (1.0 + 1e-12) + 5.0 * se2


class TestObjective:
    def test_monte_carlo_matches_closed_form(
        self, market, mortality, controls_cache, calibrated_cache
    ):
        # integrate essentially to the pool horizon: the closed form covers
        # the full 50 years, the tail past 49 contributes ~1e-8 relative
        controls = controls_cache(-3.0, "scaled_trimmed")
        schedule = calibrated_cache(-3.0, "scaled_trimmed")
        config = SimulationConfig(n_paths=20_000, horizon=49.0, step=1.0 / 26.0, seed=41)
        result = simulate_wealth(config, controls, market, mortality, schedule=schedule)
        mc, se = objective_estimate(result)
        closed = value_function(0.0, config.initial_wealth, controls)
        assert np.isfinite(mc) and se > 0.0
        assert abs(mc - closed) <= 3.0 * se

    @pytest.mark.parametrize("grid_step, step, horizon",
                             [(1 / 52, 1 / 104, 40.0), (1 / 4, 1 / 52, 20.0)])
    def test_finite_across_the_bequest_horizon(
        self, market, mortality, calibrated_cache, grid_step, step, horizon
    ):
        # nodes inside the last grid cell before H = 20 need the positive
        # estate fraction there: a zero one makes lambda b (1 - alpha)^gamma
        # and so the objective -inf on every path
        schedule = calibrated_cache(-3.0, "scaled_trimmed")
        controls = build_control_schedule(schedule, mortality, market, grid_step=grid_step)
        config = SimulationConfig(n_paths=2000, horizon=horizon, step=step, seed=7)
        result = simulate_wealth(config, controls, market, mortality, schedule=schedule)
        mc, se = objective_estimate(result)
        assert np.isfinite(mc) and np.isfinite(se)
        completed = result.objective_paths + value_function(
            horizon, result.wealth_paths[:, -1], controls)
        mean, se = completed.mean(), completed.std(ddof=1) / np.sqrt(config.n_paths)
        assert abs(mean - value_function(0.0, config.initial_wealth, controls)) <= 3.0 * se

    def test_requires_schedule(self, market, mortality, controls_cache):
        controls = controls_cache(-3.0, "scaled_trimmed")
        config = SimulationConfig(n_paths=16, horizon=5.0, step=0.25, seed=2)
        result = simulate_wealth(config, controls, market, mortality)
        with pytest.raises(ValueError):
            objective_estimate(result)


class TestScaledControls:
    def test_caps_tontine_fraction(self, controls_cache):
        controls = controls_cache(-3.0, "scaled_trimmed")
        jittered = scaled_controls(controls, c_scale=1.1, alpha_scale=5.0)
        t = np.linspace(0.0, 30.0, 31)
        _, c, alpha = jittered.at(t)
        assert np.all(alpha <= 1.0)
        assert np.allclose(c, 1.1 * controls.consumption_at(t), rtol=1e-13)


class TestErrors:
    def test_step_must_divide_horizon(self, market, mortality, controls_cache):
        controls = controls_cache(-3.0, "scaled_trimmed")
        config = SimulationConfig(n_paths=4, horizon=1.0, step=0.3)
        with pytest.raises(ValueError, match="step must divide the horizon"):
            simulate_wealth(config, controls, market, mortality)

    def test_horizon_beyond_tabulation(self, market, mortality, controls_cache):
        controls = controls_cache(-3.0, "scaled_trimmed")
        config = SimulationConfig(n_paths=4, horizon=50.0, step=0.25)
        with pytest.raises(ValueError) as excinfo:
            simulate_wealth(config, controls, market, mortality)
        assert "horizon" in str(excinfo.value)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_path_diagnostics(self, monkeypatch, market):
        # paths 40 (from step 3) and 45 (from step 1) share a 37-path sub-block;
        # path 100 (from step 1) is in a later one, which the ring of two may
        # draw before the calling thread advances path 40; at a cap of one
        # step, path 45 goes bad two segments before path 40
        poison = {40: 3, 45: 1, 100: 1}
        fill = simulate._Substreams.fill

        def poisoned_fill(self, block, first_step, out):
            fill(self, block, first_step, out)
            sub = simulate._SUB_BLOCK_PATHS
            for path, step in poison.items():
                if path // sub == block and first_step < step <= first_step + len(out):
                    out[step - 1 - first_step, path % sub] = np.nan

        monkeypatch.setattr(simulate._Substreams, "fill", poisoned_fill)
        monkeypatch.setattr(simulate, "_SUB_BLOCK_PATHS", 37)
        overflowing = DeterministicControls(pi=1e300, consumption=0.0, tontine_fraction=1.0)
        moderate = DeterministicControls(pi=0.5, consumption=0.02, tontine_fraction=0.5)
        for segment in (simulate._SEGMENT_STEPS, 1):
            monkeypatch.setattr(simulate, "_SEGMENT_STEPS", segment)
            # every path overflows on the first step
            config = SimulationConfig(n_paths=4, horizon=1.0, step=0.25)
            with pytest.raises(SimulationError) as excinfo:
                simulate_wealth(config, overflowing, market, NO_MORTALITY)
            assert str(excinfo.value) == "non-finite increment at step 1 (t=0.25), path 0"
            # the lowest bad path and its first bad step, not the earliest step
            config = SimulationConfig(n_paths=120, horizon=1.0, step=0.25)
            with pytest.raises(SimulationError) as excinfo:
                simulate_wealth(config, moderate, market, NO_MORTALITY)
            assert str(excinfo.value) == "non-finite increment at step 3 (t=0.75), path 40"

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_recorded_overflow_diagnostics(self, monkeypatch):
        # log X = log(1e300) + 10 t stays finite, but X leaves float64 past
        # t = 1.9, so the first recorded node holding it is t = 2 (step 8);
        # a cap of 1 or 3 steps puts it in the 8th or 4th segment of 16 steps
        with pytest.warns(UserWarning):  # mu <= r: zeta is deterministic
            market = MarketParams(0.03, 0.2, 0.03)
        growing = DeterministicControls(pi=0.0, consumption=-10.0, tontine_fraction=0.0)
        # a normal of 500 at pi = 1 lifts log X by 50: path 2 overflows from
        # step 2, path 1 from step 10, and the lower path is named
        lifted = DeterministicControls(pi=1.0, consumption=0.0, tontine_fraction=0.0)
        fill = simulate._Substreams.fill

        def lifting_fill(self, block, first_step, out):
            fill(self, block, first_step, out)
            if lift:
                for path, step in ((1, 10), (2, 2)):
                    if first_step < step <= first_step + len(out):
                        out[step - 1 - first_step, path] = 500.0

        monkeypatch.setattr(simulate._Substreams, "fill", lifting_fill)
        config = SimulationConfig(n_paths=3, horizon=4.0, step=0.25, initial_wealth=1e300,
                                  record_times="all")
        for segment in (simulate._SEGMENT_STEPS, 1, 3):
            monkeypatch.setattr(simulate, "_SEGMENT_STEPS", segment)
            lift = False
            with pytest.raises(SimulationError) as excinfo:
                simulate_wealth(config, growing, market, NO_MORTALITY)
            assert str(excinfo.value) == "X, zeta or Y overflows float64 by step 8 (t=2), path 0"
            # recorded only at 0 and 4, the overflow shows at step 16
            with pytest.raises(SimulationError, match=r"by step 16 \(t=4\), path 0$"):
                simulate_wealth(replace(config, record_times=(0.0, 4.0)), growing, market,
                                NO_MORTALITY)
            lift = True
            with pytest.raises(SimulationError) as excinfo:
                simulate_wealth(config, lifted, market, NO_MORTALITY)
            assert str(excinfo.value) == (
                "X, zeta or Y overflows float64 by step 10 (t=2.5), path 1")

    # 120 paths in sub-blocks of 37 start at paths 0, 37, 74 and 111: a fault
    # in the first job comes before the caller holds a buffer, one in the
    # second while the ring is full, and one in the last after every draw
    FAULTY_SUB_BLOCKS = pytest.mark.parametrize(
        "bad_path", (0, 37, 111), ids=("first", "second", "last"))

    @FAULTY_SUB_BLOCKS
    def test_producer_exception_reaches_caller(self, monkeypatch, market, bad_path):
        monkeypatch.setattr(simulate, "_SUB_BLOCK_PATHS", 37)
        fill = simulate._Substreams.fill

        def failing_fill(self, block, first_step, out):
            if block * simulate._SUB_BLOCK_PATHS == bad_path:
                raise RuntimeError("substream failed")
            fill(self, block, first_step, out)

        monkeypatch.setattr(simulate._Substreams, "fill", failing_fill)
        controls = DeterministicControls(pi=0.5, consumption=0.02, tontine_fraction=0.5)
        config = SimulationConfig(n_paths=120, horizon=1.0, step=0.25)
        with pytest.raises(RuntimeError, match="substream failed"):
            _within_timeout(lambda: simulate_wealth(config, controls, market, NO_MORTALITY))

    @FAULTY_SUB_BLOCKS
    def test_advancing_exception_reaches_caller(self, monkeypatch, market, bad_path):
        monkeypatch.setattr(simulate, "_SUB_BLOCK_PATHS", 37)
        totals = simulate._trapezoid_totals

        def failing_totals(logs, coef, half_weight, rows, scratch, total, out, **kwargs):
            # out is the sub-block's slice of Y: its offset in rows is the first path
            if (out.ctypes.data - out.base.ctypes.data) // out.strides[0] == bad_path:
                raise RuntimeError("advance failed")
            totals(logs, coef, half_weight, rows, scratch, total, out, **kwargs)

        monkeypatch.setattr(simulate, "_trapezoid_totals", failing_totals)
        controls = DeterministicControls(pi=0.5, consumption=0.02, tontine_fraction=0.5)
        config = SimulationConfig(n_paths=120, horizon=1.0, step=0.25)
        with pytest.raises(RuntimeError, match="advance failed"):
            _within_timeout(lambda: simulate_wealth(config, controls, market, NO_MORTALITY))

    def test_helper_thread_only_draws(self, monkeypatch, market):
        # one helper thread draws every sub-block's normals and the calling
        # thread advances every one
        monkeypatch.setattr(simulate, "_SUB_BLOCK_PATHS", 37)
        fill, totals = simulate._Substreams.fill, simulate._trapezoid_totals
        fills, advances = [], []

        def recording_fill(self, block, first_step, out):
            fills.append(threading.current_thread().name)
            fill(self, block, first_step, out)

        def recording_totals(*args, **kwargs):
            advances.append(threading.get_ident())
            totals(*args, **kwargs)

        monkeypatch.setattr(simulate._Substreams, "fill", recording_fill)
        monkeypatch.setattr(simulate, "_trapezoid_totals", recording_totals)
        controls = DeterministicControls(pi=0.5, consumption=0.02, tontine_fraction=0.5)
        config = SimulationConfig(n_paths=120, horizon=1.0, step=0.25)
        simulate_wealth(config, controls, market, NO_MORTALITY)
        assert fills == ["tontine-draw"] * 4  # 120 paths in sub-blocks of 37
        assert advances == [threading.get_ident()] * 4

    def test_follows_caller_floating_point_errors(self, monkeypatch, market, mortality):
        # X0 = 1e-200 and gamma = -3: X^gamma overflows, and only in the
        # utility accrual (the summary sees finite X)
        monkeypatch.setattr(simulate, "_SUB_BLOCK_PATHS", 37)
        controls = DeterministicControls(pi=0.5, consumption=0.02, tontine_fraction=0.5)
        config = SimulationConfig(n_paths=120, horizon=1.0, step=0.25, initial_wealth=1e-200)
        schedule = make_schedule(-3.0, "power")
        with np.errstate(over="ignore"):
            result = simulate_wealth(config, controls, market, mortality, schedule=schedule)
        assert np.all(np.isinf(result.objective_paths))
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            simulate_wealth(config, controls, market, mortality, schedule=schedule)

    def test_result_memory_checked_before_allocating(self, market):
        # 1,041 recorded times: 25 KB of results a path, 25 PB in all
        controls = DeterministicControls(pi=0.0, consumption=0.0, tontine_fraction=0.0)
        config = SimulationConfig(
            n_paths=10**12, horizon=40.0, step=1.0 / 26.0, record_times="all"
        )
        with pytest.raises(SimulationError, match="physical memory"):
            simulate_wealth(config, controls, market, NO_MORTALITY)
        # 2e13 steps of two paths: refused before the grid or its indices exist
        config = SimulationConfig(n_paths=2, horizon=20.0, step=1e-12, record_times="all")
        with pytest.raises(SimulationError, match="physical memory"):
            simulate_wealth(config, controls, market, NO_MORTALITY)

    def test_memory_bound_counts_the_summary(self, monkeypatch, market):
        # results: X, zeta and Y per recorded time plus the objective; the
        # summary adds income, zeta*X and a standard-deviation temporary; each
        # step adds the time-grid arrays and, since 4 steps are one segment,
        # the ring's two buffers of normals and the calling thread a zeta
        # buffer and a two-part scratch of min(chunk, steps) + 1 nodes
        n_paths, n_rec, n_steps = 20_000, 5, 4
        sub = simulate._SUB_BLOCK_PATHS
        need = 8 * n_paths * (6 * n_rec + 1) + 8 * (
            simulate._STEP_ARRAYS + (2 + 1) * sub) * (n_steps + 1) + 8 * (
            2 * sub * (min(simulate._CHUNK_NODES, n_steps) + 1))
        controls = DeterministicControls(pi=0.5, consumption=0.02, tontine_fraction=0.5)
        config = SimulationConfig(
            n_paths=n_paths, horizon=1.0, step=0.25, record_times="all"
        )
        pages = {"SC_PAGE_SIZE": 8, "SC_PHYS_PAGES": need // 8 - 1}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        assert need - 8 > 8 * n_paths * (3 * n_rec + 1)  # above the results alone
        tracemalloc.start()
        try:
            with pytest.raises(SimulationError, match="physical memory"):
                simulate_wealth(config, controls, market, NO_MORTALITY)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n_paths  # refused before any per-path array
        pages["SC_PHYS_PAGES"] = need // 8
        result = simulate_wealth(config, controls, market, NO_MORTALITY)
        assert result.wealth_paths.shape == (n_paths, n_rec)

    def test_calling_thread_allocates_the_buffers(
        self, monkeypatch, market, mortality, controls_cache
    ):
        # pages a helper thread allocates stay in its own malloc arena, where
        # the summary and the next call cannot reuse them; 1,040 steps run
        # in two segments of 520
        segment = 520
        allocations = []
        empty = np.empty

        def recording_empty(*args, **kwargs):
            out = empty(*args, **kwargs)
            allocations.append((threading.get_ident(), out.nbytes))
            return out

        monkeypatch.setattr(np, "empty", recording_empty)
        config = SimulationConfig(n_paths=2048, horizon=40.0, step=1.0 / 26.0, seed=3)
        simulate_wealth(config, controls_cache(-3.0, "scaled_trimmed"), market, mortality)
        buffer = 8 * simulate._SUB_BLOCK_PATHS * (segment + 1)
        caller = threading.get_ident()
        assert [n for ident, n in allocations if ident != caller and n >= buffer] == []
        # the ring of two buffers, and the zeta buffer
        assert [n for ident, n in allocations if n >= buffer] == [2 * buffer, buffer]

    def test_buffers_do_not_grow_with_the_horizon(self, monkeypatch, market, mortality):
        # 40 years of daily steps, 10,080, run in ten segments of 1,008: the
        # ring, the zeta buffer and the scratch are 1,009 nodes wide, and the
        # memory check counts exactly those shapes
        shapes, checked = [], []
        empty, check = np.empty, simulate._check_memory

        def recording_empty(shape, *args, **kwargs):
            shapes.append(tuple(np.atleast_1d(shape)))
            return empty(shape, *args, **kwargs)

        def recording_check(*args):
            checked.append(args)
            check(*args)

        monkeypatch.setattr(np, "empty", recording_empty)
        monkeypatch.setattr(simulate, "_check_memory", recording_check)
        controls = DeterministicControls(pi=0.5, consumption=0.02, tontine_fraction=0.5)
        config = SimulationConfig(n_paths=1024, horizon=40.0, step=1.0 / 252.0, seed=3)
        simulate_wealth(config, controls, market, mortality)
        sub, chunk, width = simulate._SUB_BLOCK_PATHS, simulate._CHUNK_NODES, 1009
        assert width <= simulate._SEGMENT_STEPS + 1
        buffers = [(2, width, sub), (width, sub), (2, chunk + 1, sub)]
        assert [s for s in shapes if math.prod(s) >= 2 * (chunk + 1) * sub] == buffers
        assert checked == [(1024, 8, 10_080, sum(map(math.prod, buffers)))]

    @pytest.mark.parametrize("n_paths, horizon", [
        (8 * 512, 40.0),
        (512, 40.0),  # one sub-block in two segments of 520 steps
        (512, 39.0),  # one sub-block in one segment of 1,014 steps: one job
    ])
    def test_ring_of_two_and_one_helper_thread(
        self, monkeypatch, market, mortality, controls_cache, n_paths, horizon
    ):
        # whatever the job count, one helper thread draws into a ring of two
        # buffers and the calling thread advances in its one zeta buffer
        n_steps = round(horizon * 26)
        segments = -(-n_steps // simulate._SEGMENT_STEPS)
        allocations, alive = [], []
        empty, fill = np.empty, simulate._Substreams.fill
        before = set(threading.enumerate())

        def recording_empty(*args, **kwargs):
            out = empty(*args, **kwargs)
            allocations.append(out.nbytes)
            return out

        def counting_fill(self, block, first_step, out):
            alive.append(len(set(threading.enumerate()) - before))
            fill(self, block, first_step, out)

        monkeypatch.setattr(np, "empty", recording_empty)
        monkeypatch.setattr(simulate._Substreams, "fill", counting_fill)
        config = SimulationConfig(n_paths=n_paths, horizon=horizon, step=1.0 / 26.0, seed=3)
        simulate_wealth(config, controls_cache(-3.0, "scaled_trimmed"), market, mortality)
        buffer = 8 * simulate._SUB_BLOCK_PATHS * (n_steps // segments + 1)
        assert [n for n in allocations if n >= buffer] == [2 * buffer, buffer]
        assert len(alive) == n_paths // simulate._SUB_BLOCK_PATHS * segments
        assert max(alive) == 1

    @pytest.mark.parametrize("with_objective", (True, False))
    def test_pipeline_holds_three_buffers(
        self, with_objective, market, mortality, controls_cache, calibrated_cache
    ):
        n_paths, n_steps, segment = 2048, 1040, 520
        controls = controls_cache(-3.0, "scaled_trimmed")
        schedule = calibrated_cache(-3.0, "scaled_trimmed") if with_objective else None
        config = SimulationConfig(n_paths=n_paths, horizon=40.0, step=1.0 / 26.0, seed=3)
        # a first call keeps about 1.3 MB alive for the process; make it untraced
        simulate_wealth(replace(config, n_paths=2), controls, market, mortality, schedule)
        tracemalloc.start()
        try:
            result = simulate_wealth(config, controls, market, mortality, schedule)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        sub, n_rec = simulate._SUB_BLOCK_PATHS, len(result.times)
        assert n_paths == 4 * sub
        buffer = 8 * (segment + 1) * sub  # one ((segment + 1) x paths) buffer
        fixed = 8 * n_paths * (6 * n_rec + 1) + 8 * simulate._STEP_ARRAYS * (n_steps + 1)
        scratch = 8 * 2 * (simulate._CHUNK_NODES + 1) * sub
        # the memory check's bound: two ring buffers, and one zeta buffer and
        # one scratch; a third ring buffer would be a fourth, and one
        # spanning the horizon two more
        assert peak <= fixed + 3 * buffer + scratch


class TestValueFunction:
    @pytest.mark.parametrize("gamma, variant", [
        (-3.0, "scaled_trimmed"), (-5.0, "power"), (0.5, "power"), (-3.0, "none"),
    ])
    def test_matches_survival_form_on_grid(self, mortality, controls_cache, gamma, variant):
        # e^{-rho t} S_t x^gamma / gamma (c*_t)^{gamma-1}, S_t from the hazard law;
        # at t = 0 it is the optimal value (X0^gamma / gamma) D(0)^{1-gamma}
        controls = controls_cache(gamma, variant)
        t, x = controls.grid[::52], np.linspace(5e4, 2e5, 50)
        want = (np.exp(-controls.rho * t) * survival(t, mortality) * x**gamma / gamma
                * controls.c_star[::52] ** (gamma - 1.0))
        np.testing.assert_allclose(value_function(t, x, controls), want, rtol=1e-11)

    def test_rejects_times_off_the_tabulation(self, controls_cache):
        controls = controls_cache(-3.0, "scaled_trimmed")
        for t in (-1.0, controls.t_end + 1.0):
            with pytest.raises(ValueError):
                value_function(t, 1.0, controls)

    def test_rejects_negative_or_non_finite_wealth(self, controls_cache):
        # x^gamma of a negative x would flip the value's sign; nan and inf
        # would pass through as nan and -0.0
        controls = controls_cache(-3.0, "scaled_trimmed")
        for x in (-1e5, -1e-300, np.nan, np.inf, -np.inf, [1e5, np.nan]):
            with pytest.raises(ValueError, match="wealth x must be nonnegative and finite"):
                value_function(0.0, x, controls)
        with np.errstate(divide="ignore"):
            assert value_function(0.0, 0.0, controls) == -np.inf  # the limit for gamma < 0


@pytest.fixture(scope="module")
def short_audit(controls_cache):
    """Criterion 7's audit cut to H = 10: 20,000 paths, step 1/52, seed 424242."""
    config = SimulationConfig(n_paths=20_000, horizon=10.0, step=1 / 52, seed=424_242)
    return optimality_audit(config, controls_cache(-3.0, "scaled_trimmed"))


class TestOptimalityAudit:
    def test_candidate_completed_mean_is_the_value(self, short_audit):
        assert np.isfinite(short_audit.dual_gap_se) and short_audit.dual_gap_se > 0
        assert abs(short_audit.dual_gap_z) <= 3.0

    def test_every_jitter_loses_the_completed_comparison(self, short_audit):
        assert len(short_audit.jitters) == 20
        assert all(j.supermartingale_ok for j in short_audit.jitters)
        assert min(j.margin for j in short_audit.jitters) > 3.0
        assert short_audit.wins == 20 and short_audit.ok

    def test_truncated_objective_misranks(self, short_audit):
        # J_10 alone prefers jitters that defer consumption past year 10: the
        # value-function completion is what makes a short horizon sound
        assert sum(j.truncated_margin < 0.0 for j in short_audit.jitters) >= 1

    @pytest.mark.parametrize("losses, ok", [(1, True), (2, False)])
    def test_candidate_may_lose_one_pair_only(self, losses, ok):
        # 19 wins of 20 pass the rule and 18 fail it, all else passing
        jitters = tuple(simulate.JitterCheck(1.0, 1.0, True, -1.0 if i < losses else 1.0,
                                             1.0, 1.0) for i in range(20))
        martingale = simulate.SupermartingaleReport(supermartingale_ok=True, martingale=())
        report = simulate.AuditReport(martingale, 10.0, 0.0, 1.0, jitters)
        assert report.wins == 20 - losses
        assert report.ok is ok

    def test_csv_layout(self, short_audit):
        lines = audit_csv(short_audit).splitlines()
        assert lines[0] == "check,t,c_scale,alpha_scale,mean,se,ok"
        checks = [line.split(",")[0] for line in lines[1:]]
        n_mart = len(short_audit.martingale.martingale)
        assert checks == ["martingale"] * n_mart + ["value"] + ["jitter"] * 20
        assert all(line.endswith(",true") for line in lines[1:])


class TestSummaryCsv:
    def test_layout(self, market, mortality, controls_cache):
        controls = controls_cache(-3.0, "scaled_trimmed")
        config = SimulationConfig(n_paths=32, horizon=10.0, step=0.25, seed=8)
        result = simulate_wealth(config, controls, market, mortality)
        lines = summary_csv(result).strip().splitlines()
        assert lines[0] == "t,mean_income,se_income,mean_Y,se_Y,mean_zetaX,se_zetaX"
        assert len(lines) == 1 + len(result.times)
        row0 = [float(v) for v in lines[1].split(",")]
        assert row0[0] == 0.0

    def test_mean_se_keeps_numpy_bits_without_overflow(self):
        # where np.mean and np.std stay within float64 the helper gives their
        # bits; scaled by 2^+-700 it scales exactly where np.std over- or underflows
        rng = np.random.default_rng(17)
        for _ in range(200):
            n, m = int(rng.integers(2, 400)), int(rng.integers(1, 6))
            scale = 10.0 ** rng.uniform(-60, 60, size=m)
            values = (rng.standard_normal((n, m)) + rng.uniform(-3, 3, size=m)) * scale
            mean, se = simulate._mean_se(values)
            assert np.array_equal(mean, values.mean(axis=0))
            assert np.array_equal(se, values.std(axis=0, ddof=1) / math.sqrt(n))
            for power in (700, -700):
                big_mean, big_se = simulate._mean_se(np.ldexp(values, power))
                assert np.array_equal(big_mean, np.ldexp(mean, power))
                assert np.array_equal(big_se, np.ldexp(se, power))
        mean, se = simulate._mean_se(np.array([[1.0, np.inf, 3.0]]))
        assert np.array_equal(se, [0.0, np.nan, 0.0], equal_nan=True)
