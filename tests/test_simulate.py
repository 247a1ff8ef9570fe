"""Path simulation: exactness, determinism, martingale structure, moments."""

from __future__ import annotations

import hashlib
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
from tontine.controls import MarketParams, build_control_schedule
from tontine.mortality import GompertzMakehamParams, survival
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
    @pytest.mark.parametrize("first, rows", [(0, (0, 1, 511)), (2**32 + 7, (0, 1, 2))])
    def test_substream_is_philox_keyed_by_seed_and_path(self, seed, first, rows):
        # a uint64 key: a list holding 2**64 - 1 would pass through float64;
        # a path drawn in pieces, as segments draw it, is one draw, and step 0
        # starts the paths afresh
        out, again = np.empty((2, max(rows) + 1, 16))
        normals = simulate._Substreams(seed)
        for a, b in ((0, 5), (5, 6), (6, 16)):
            normals.fill(first, a, out[:, a:b])
        normals.fill(first, 0, again)
        for i in rows:
            key = np.array([seed, first + i], dtype=np.uint64)
            expected = np.random.Generator(np.random.Philox(key=key)).standard_normal(16)
            assert np.array_equal(out[i], expected)
            assert np.array_equal(again[i], expected)


# sha256 of the result arrays of _golden_runs, taken from the per-step loop
# that the sub-block kernel replaced.
GOLDEN_DIGESTS = {
    "candidate": {
        "wealth_paths": "8c225a2010df996fb0275126af84f96a3ea69fcb62e8da7bd910b0331ebfa5e5",
        "spd_paths": "de8d0e33603eb2c078870f8aba237aaba627d72ad020e7977e64312bca97e92a",
        "y_paths": "088533a2583c4e8c04233cedff019dd370a08c177fdfea40b5a7c56301c6e624",
        "objective_paths": "7e2f05cf1a80f53550248f7ae2932192439d340f07ddfce3134864a3d6152a89",
    },
    "jitter": {
        "wealth_paths": "e011fec1660ff4b0a48ae390d914fadb78fbfa8cf7d4404af851acf392a4ef7d",
        "spd_paths": "fe7cd48e93cb196cf291c31bab0242029c0ec522d64a0c32586ba03ed0fe3efa",
        "y_paths": "5ccef6afb9d27382da06a697fd16d8c7dd09c00c532a86a4ae700aea3fbea8aa",
        "objective_paths": "e2413e72142798be08cd41b1297a6102d5edcbbf2bca9eeefb327137ead27054",
    },
}
# sha256 of _golden_runs at path counts that leave a sub-block holding one
# path, taken from the path-major kernel that the time-major one replaced:
# (n_paths, paths per sub-block) -> digests.
ONE_PATH_BLOCK_DIGESTS = {
    (1, 512): {
        "candidate": {
            "wealth_paths": "4fbe2ed7f0926da996ea655a6cc0f44d66bb6821eb7957bf92ba54e6fc4f8d11",
            "spd_paths": "39130aff92628e6224d73bf90d3a76a298a966114a44f5327321aed80a3ecd25",
            "y_paths": "0aa6aee32cebb1ca15386703685124d6e749f286844dc58fb183356a0f02a906",
            "objective_paths": "e9e1160d61f37bda5fabb033aa7a892911d1fd86d73599b9223a861be135fd94",
        },
        "jitter": {
            "wealth_paths": "e5de467078ffedfb4e552c1ad185c3678fc1190c7d84fae1be094eab94d57ac1",
            "spd_paths": "67068b367e201427f837dd131773f764000f1c464584de4734aa9e21d8d52676",
            "y_paths": "e1a4a6e8569f61d08effa131adaa1a21c1558e94d6fab34e50773b608e891773",
            "objective_paths": "6d81731376102cdd2d392131f21f5547e8ae9b39c8459877ab3fa9ea0e801225",
        },
    },
    (2 * 37 + 1, 37): {
        "candidate": {
            "wealth_paths": "f3d5028fddd96d8dbed768ddd568d89b3cdb27d2ad6217ee8547948ac433f29b",
            "spd_paths": "26fc82c0f903d93fd74cd022562ba78001f3c0bce0d367d7f7866a76f573d6e5",
            "y_paths": "ba386def367af3411aa847257cbd3c790db03c44d4330e4df70aec9d0feb5056",
            "objective_paths": "b8bd4806cec1d97259a02f4404709bfd02e13ec1c686062bcd89c527eaf24686",
        },
        "jitter": {
            "wealth_paths": "44440ddf0d1b85cbae988568c67ec51bd4a0d614d3765845f7b768f120469617",
            "spd_paths": "e679451eb304a82d112764f08644c7837a0496a2c21950679aca5e5b2589576d",
            "y_paths": "3e21db58011d0af8010d647a2dd9d4b934a396197043496ceedac980a6f9ee62",
            "objective_paths": "19b3adcdad7bd24408c87a74610656b8821628cfe88eed11a42bef27a5367f24",
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


class TestGoldenBytes:
    def test_digests(self, market, mortality, controls_cache, calibrated_cache):
        runs = _golden_runs(market, mortality, controls_cache, calibrated_cache)
        assert runs["candidate"].n_paths > simulate._SUB_BLOCK_PATHS
        assert _digests(runs) == GOLDEN_DIGESTS

    @pytest.mark.parametrize("n_paths, sub", [(1, 512), (2 * 37 + 1, 37)])
    def test_one_path_sub_block_digests(
        self, monkeypatch, n_paths, sub, market, mortality, controls_cache, calibrated_cache
    ):
        # a sum over axis 0 of a single lane is pairwise in numpy, not sequential
        monkeypatch.setattr(simulate, "_SUB_BLOCK_PATHS", sub)
        runs = _golden_runs(market, mortality, controls_cache, calibrated_cache, n_paths)
        assert n_paths % sub == 1
        assert _digests(runs) == ONE_PATH_BLOCK_DIGESTS[n_paths, sub]

    @pytest.mark.parametrize("chunk", (1, 5))
    def test_chunk_size_leaves_digests_unchanged(
        self, monkeypatch, chunk, market, mortality, controls_cache, calibrated_cache
    ):
        # every node is recorded, so chunk edges fall on and between them
        monkeypatch.setattr(simulate, "_CHUNK_NODES", chunk)
        runs = _golden_runs(market, mortality, controls_cache, calibrated_cache)
        assert _digests(runs) == GOLDEN_DIGESTS

    @pytest.mark.parametrize("segment", (1, 7, 100))
    @pytest.mark.parametrize("n_paths, sub", [(700, 512), (1, 512), (2 * 37 + 1, 37)])
    def test_segment_edges_leave_digests_unchanged(
        self, monkeypatch, segment, n_paths, sub, market, mortality, controls_cache,
        calibrated_cache,
    ):
        # 260 steps, every node recorded: a segment edge on every node, on
        # every 6th or 7th, or twice between chunk edges; each lane's
        # substream, log X, log zeta and both trapezoid totals cross them
        monkeypatch.setattr(simulate, "_SEGMENT_STEPS", segment)
        monkeypatch.setattr(simulate, "_SUB_BLOCK_PATHS", sub)
        runs = _golden_runs(market, mortality, controls_cache, calibrated_cache, n_paths)
        assert _digests(runs) == ONE_PATH_BLOCK_DIGESTS.get((n_paths, sub), GOLDEN_DIGESTS)

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

    def test_sub_block_size_and_thread_switching_leave_arrays_unchanged(
        self, monkeypatch, market, mortality, controls_cache, calibrated_cache
    ):
        default = _golden_runs(market, mortality, controls_cache, calibrated_cache)
        monkeypatch.setattr(simulate, "_SUB_BLOCK_PATHS", 37)
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

        def poisoned_fill(self, first_path, first_step, out):
            fill(self, first_path, first_step, out)
            for path, step in poison.items():
                if (first_path <= path < first_path + len(out)
                        and first_step < step <= first_step + out.shape[1]):
                    out[path - first_path, step - 1 - first_step] = np.nan

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

        def lifting_fill(self, first_path, first_step, out):
            fill(self, first_path, first_step, out)
            if lift:
                for path, step in ((1, 10), (2, 2)):
                    if first_step < step <= first_step + out.shape[1]:
                        out[path - first_path, step - 1 - first_step] = 500.0

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

        def failing_fill(self, first_path, first_step, out):
            if first_path == bad_path:
                raise RuntimeError("substream failed")
            fill(self, first_path, first_step, out)

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

        def recording_fill(self, first_path, first_step, out):
            fills.append(threading.current_thread().name)
            fill(self, first_path, first_step, out)

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
        buffers = [(2, sub, width), (sub, width), (2, chunk + 1, sub)]
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

        def counting_fill(self, first_path, first_step, out):
            alive.append(len(set(threading.enumerate()) - before))
            fill(self, first_path, first_step, out)

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
        buffer = 8 * sub * (segment + 1)  # one (paths x (segment + 1)) buffer
        fixed = 8 * n_paths * (6 * n_rec + 1) + 8 * simulate._STEP_ARRAYS * (n_steps + 1)
        scratch = 8 * 2 * sub * (simulate._CHUNK_NODES + 1)
        generators = 1024 * sub  # each lane's Philox, about 0.6 KB
        # the memory check's bound: two ring buffers, and one zeta buffer and
        # one scratch; a third ring buffer would be a fourth, and one
        # spanning the horizon two more
        assert peak <= fixed + 3 * buffer + scratch + generators


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
        martingale = simulate.SupermartingaleReport(pairs=(), martingale=())
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
