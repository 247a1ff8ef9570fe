"""Path simulation: exactness, determinism, martingale structure, moments."""

from __future__ import annotations

import hashlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tontine import simulate
from tontine.analytics import objective_value_closed_form
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
    first_moment_spd_wealth,
    objective_estimate,
    optimality_audit,
    scaled_controls,
    second_moment_spd_wealth_bound,
    simulate_wealth,
    summary_csv,
    value_function,
)

from conftest import make_schedule

NO_MORTALITY = GompertzMakehamParams(0.0, 0.0, 0.0)


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

    def test_rejects_bad_record_times(self, market):
        controls = DeterministicControls(pi=0.0, consumption=0.0, tontine_fraction=0.0)
        config = SimulationConfig(n_paths=4, horizon=1.0, step=0.25, record_times="some")
        with pytest.raises(ValueError):
            simulate_wealth(config, controls, market, NO_MORTALITY)
        config = SimulationConfig(n_paths=4, horizon=1.0, step=0.25, record_times=(2.0,))
        with pytest.raises(ValueError):
            simulate_wealth(config, controls, market, NO_MORTALITY)

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


class TestGoldenBytes:
    def test_digests(self, market, mortality, controls_cache, calibrated_cache):
        runs = _golden_runs(market, mortality, controls_cache, calibrated_cache)
        assert runs["candidate"].n_paths > simulate._SUB_BLOCK_PATHS
        assert _digests(runs) == GOLDEN_DIGESTS

    @pytest.mark.parametrize(
        "n_paths, sub, workers", [(1, 512, 1), (2 * 37 + 1, 37, 1), (2 * 37 + 1, 37, 2)]
    )
    def test_one_path_sub_block_digests(
        self, monkeypatch, n_paths, sub, workers, market, mortality, controls_cache,
        calibrated_cache,
    ):
        # a sum over axis 0 of a single lane is pairwise in numpy, not sequential
        monkeypatch.setattr(simulate, "_SUB_BLOCK_PATHS", sub)
        monkeypatch.setattr(simulate, "_n_workers", lambda: workers)
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

    @pytest.mark.parametrize("workers", (1, 2))
    def test_sub_block_size_and_workers_leave_arrays_unchanged(
        self, monkeypatch, workers, market, mortality, controls_cache, calibrated_cache
    ):
        default = _golden_runs(market, mortality, controls_cache, calibrated_cache)
        monkeypatch.setattr(simulate, "_SUB_BLOCK_PATHS", 37)
        monkeypatch.setattr(simulate, "_n_workers", lambda: workers)
        sharded = _golden_runs(market, mortality, controls_cache, calibrated_cache)
        for name, result in default.items():
            for field in RESULT_ARRAYS:
                assert np.array_equal(getattr(sharded[name], field), getattr(result, field))


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
    def test_first_moment_at_zero(self, controls_cache):
        controls = controls_cache(-3.0, "scaled_trimmed")
        fm = first_moment_spd_wealth(0.0, controls, x0=100_000.0)
        phi0 = float(controls.c_star[0]) ** (controls.gamma - 1.0)
        assert fm == pytest.approx(phi0 * 100_000.0, rel=1e-13)

    def test_first_moment_matches_monte_carlo(self, market, mortality, controls_cache):
        controls = controls_cache(-3.0, "scaled_trimmed")
        config = SimulationConfig(n_paths=20_000, horizon=20.0, step=1.0 / 26.0, seed=31)
        result = simulate_wealth(config, controls, market, mortality)
        for j, t in enumerate(result.times):
            if t < 1.0:
                continue
            closed = first_moment_spd_wealth(float(t), controls, x0=config.initial_wealth)
            dev = abs(result.summary["mean_zetaX"][j] - closed)
            assert dev <= 3.0 * result.summary["se_zetaX"][j]

    def test_second_moment_bound(self, market, mortality, controls_cache):
        controls = controls_cache(-3.0, "scaled_trimmed")
        config = SimulationConfig(n_paths=20_000, horizon=20.0, step=1.0 / 26.0, seed=32)
        result = simulate_wealth(config, controls, market, mortality)
        sq = (result.spd_paths * result.wealth_paths) ** 2
        for j, t in enumerate(result.times):
            bound = second_moment_spd_wealth_bound(float(t), controls, x0=config.initial_wealth)
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
        closed = objective_value_closed_form(
            schedule, market, mortality, x0=config.initial_wealth
        )
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
        # path 100 (from step 1) is in a later one, which a second worker owns
        poison = {40: 3, 45: 1, 100: 1}
        fill = simulate._Substreams.fill

        def poisoned_fill(self, first_path, out):
            fill(self, first_path, out)
            for path, step in poison.items():
                if first_path <= path < first_path + len(out):
                    out[path - first_path, step - 1] = np.nan

        monkeypatch.setattr(simulate._Substreams, "fill", poisoned_fill)
        monkeypatch.setattr(simulate, "_SUB_BLOCK_PATHS", 37)
        overflowing = DeterministicControls(pi=1e300, consumption=0.0, tontine_fraction=1.0)
        moderate = DeterministicControls(pi=0.5, consumption=0.02, tontine_fraction=0.5)
        for workers in (1, 2):
            monkeypatch.setattr(simulate, "_n_workers", lambda: workers)
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
    def test_recorded_overflow_diagnostics(self):
        # log X = log(1e300) + 10 t stays finite, but X leaves float64 past
        # t = 1.9, so the first recorded node holding it is t = 2 (step 8)
        with pytest.warns(UserWarning):  # mu <= r: zeta is deterministic
            market = MarketParams(0.03, 0.2, 0.03)
        growing = DeterministicControls(pi=0.0, consumption=-10.0, tontine_fraction=0.0)
        config = SimulationConfig(n_paths=3, horizon=4.0, step=0.25, initial_wealth=1e300,
                                  record_times="all")
        with pytest.raises(SimulationError) as excinfo:
            simulate_wealth(config, growing, market, NO_MORTALITY)
        assert str(excinfo.value) == "X, zeta or Y overflows float64 by step 8 (t=2), path 0"
        # recorded only at 0 and 4, the overflow shows at step 16
        config = replace(config, record_times=(0.0, 4.0))
        with pytest.raises(SimulationError, match=r"by step 16 \(t=4\), path 0$"):
            simulate_wealth(config, growing, market, NO_MORTALITY)

    @pytest.mark.parametrize("workers", (1, 2))
    def test_worker_exception_reaches_caller(self, monkeypatch, market, workers):
        monkeypatch.setattr(simulate, "_SUB_BLOCK_PATHS", 37)
        monkeypatch.setattr(simulate, "_n_workers", lambda: workers)
        fill = simulate._Substreams.fill

        def failing_fill(self, first_path, out):
            if first_path == 37:  # the second sub-block
                raise RuntimeError("substream failed")
            fill(self, first_path, out)

        monkeypatch.setattr(simulate._Substreams, "fill", failing_fill)
        controls = DeterministicControls(pi=0.5, consumption=0.02, tontine_fraction=0.5)
        config = SimulationConfig(n_paths=120, horizon=1.0, step=0.25)
        with pytest.raises(RuntimeError, match="substream failed"):
            simulate_wealth(config, controls, market, NO_MORTALITY)

    @pytest.mark.parametrize("workers", (1, 2))
    def test_workers_follow_caller_floating_point_errors(
        self, monkeypatch, market, mortality, workers
    ):
        # X0 = 1e-200 and gamma = -3: X^gamma overflows, and only in the
        # workers' utility accrual (the summary sees finite X)
        monkeypatch.setattr(simulate, "_SUB_BLOCK_PATHS", 37)
        monkeypatch.setattr(simulate, "_n_workers", lambda: workers)
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
        # step adds the time-grid arrays, and each worker two sub-block
        # buffers and a two-part scratch of min(chunk, steps) + 1 nodes
        n_paths, n_rec, n_steps, workers = 20_000, 5, 4, 2
        monkeypatch.setattr(simulate, "_n_workers", lambda: workers)
        sub = simulate._SUB_BLOCK_PATHS
        need = 8 * n_paths * (6 * n_rec + 1) + 8 * (
            simulate._STEP_ARRAYS + workers * 2 * sub) * (n_steps + 1) + 8 * (
            workers * 2 * sub * (min(simulate._CHUNK_NODES, n_steps) + 1))
        controls = DeterministicControls(pi=0.5, consumption=0.02, tontine_fraction=0.5)
        config = SimulationConfig(
            n_paths=n_paths, horizon=1.0, step=0.25, record_times="all"
        )
        pages = {"SC_PAGE_SIZE": 8, "SC_PHYS_PAGES": need // 8 - 1}
        monkeypatch.setattr(simulate.os, "sysconf", pages.__getitem__)
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

    @pytest.mark.parametrize("with_objective", (True, False))
    def test_worker_buffers_stay_two_per_worker(
        self, monkeypatch, with_objective, market, mortality, controls_cache, calibrated_cache
    ):
        n_paths, n_steps, workers = 2048, 1040, 2
        monkeypatch.setattr(simulate, "_n_workers", lambda: workers)
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
        assert n_paths == 2 * workers * sub
        buffer = 8 * sub * (n_steps + 1)  # one full (paths x (steps + 1)) buffer
        fixed = 8 * n_paths * (6 * n_rec + 1) + 8 * simulate._STEP_ARRAYS * (n_steps + 1)
        scratch = 8 * 2 * sub * (simulate._CHUNK_NODES + 1)
        assert peak <= fixed + workers * (2 * buffer + scratch)  # the memory check's bound
        four_buffers = fixed + workers * 4 * buffer  # the bound before the chunked pass
        assert peak <= four_buffers - workers * buffer


class TestValueFunction:
    @pytest.mark.parametrize("gamma, variant", [
        (-3.0, "scaled_trimmed"), (-5.0, "power"), (0.5, "power"), (-3.0, "none"),
    ])
    def test_at_zero_is_closed_form(self, market, mortality, controls_cache,
                                    calibrated_cache, gamma, variant):
        schedule = (calibrated_cache(gamma, variant) if variant.startswith("scaled")
                    else make_schedule(gamma, variant))
        closed = objective_value_closed_form(schedule, market, mortality, x0=100_000.0)
        got = value_function(0.0, 100_000.0, controls_cache(gamma, variant))
        assert abs(got - closed) <= 1e-12 * abs(closed)

    def test_matches_survival_form_on_grid(self, mortality, controls_cache):
        # e^{-rho t} S_t x^gamma / gamma (c*_t)^{gamma-1}, S_t from the hazard law
        controls = controls_cache(-3.0, "scaled_trimmed")
        t, x, gamma = controls.grid[::52], np.linspace(5e4, 2e5, 50), controls.gamma
        want = (np.exp(-controls.rho * t) * survival(t, mortality) * x**gamma / gamma
                * controls.c_star[::52] ** (gamma - 1.0))
        np.testing.assert_allclose(value_function(t, x, controls), want, rtol=1e-11)

    def test_rejects_times_off_the_tabulation(self, controls_cache):
        controls = controls_cache(-3.0, "scaled_trimmed")
        for t in (-1.0, controls.t_end + 1.0):
            with pytest.raises(ValueError):
                value_function(t, 1.0, controls)


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
