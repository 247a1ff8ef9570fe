"""Hazard law, survival curve, life tables, and the least-squares fitter."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import least_squares

from helpers import synthetic_life_table_csv
from tontine.analytics import (
    expected_discounted_bequest_value,
    expected_discounted_income,
    expected_wealth,
)
from tontine.controls import log_tail_integrals
from tontine.mortality import (
    _START,
    _csv_table,
    DEFAULT_BASE_AGE,
    DEFAULT_LIMITING_AGE,
    GompertzMakehamParams,
    LifeTable,
    LifeTableError,
    cumulative_hazard,
    fit_gompertz_makeham,
    fit_to_csv,
    force_of_mortality,
    survival,
)

from tontine.preferences import bequest_weight, log_transformed_weight
from tontine.simulate import value_function

from conftest import BENCH_A1, BENCH_A2, BENCH_A3, FIT_COMPONENT_TOL, make_schedule

# Fixed-point references evaluated with 40-digit arithmetic (mpmath), then
# rounded to double precision.  They pin the exp/expm1 implementation.
HAZARD_AT_35 = 0.4128521276155472
CUM_HAZARD_AT_20 = 0.5461424061498642
SURVIVAL_AT_20 = 0.5791797467499481


class TestForceOfMortality:
    def test_benchmark_level_at_zero(self, mortality):
        assert force_of_mortality(0.0, mortality) == pytest.approx(
            BENCH_A1 + BENCH_A3, abs=1e-18
        )
        assert force_of_mortality(0.0, mortality) == pytest.approx(0.0082517, abs=1e-15)

    def test_high_precision_reference(self, mortality):
        assert force_of_mortality(35.0, mortality) == pytest.approx(
            HAZARD_AT_35, rel=1e-15
        )

    def test_constant_hazard_when_a2_zero(self):
        params = GompertzMakehamParams(0.0, 0.0, 0.01)
        t = np.array([0.0, 3.0, 47.0])
        assert np.allclose(force_of_mortality(t, params), 0.01, rtol=0, atol=0)

    def test_vectorized_matches_scalar(self, mortality):
        t = np.linspace(0.0, 50.0, 11)
        vec = force_of_mortality(t, mortality)
        assert vec.shape == t.shape
        for ti, vi in zip(t, vec):
            assert force_of_mortality(float(ti), mortality) == vi

    def test_negative_time_rejected(self, mortality):
        with pytest.raises(ValueError):
            force_of_mortality(-0.5, mortality)
        with pytest.raises(ValueError):
            force_of_mortality(np.array([1.0, -2.0]), mortality)

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            GompertzMakehamParams(-1e-3, 0.1, 0.001)
        with pytest.raises(ValueError):
            GompertzMakehamParams(1e-3, -0.1, 0.001)
        with pytest.raises(ValueError):
            GompertzMakehamParams(1e-3, 0.1, -0.001)


class TestCumulativeHazard:
    def test_matches_adaptive_quadrature(self, mortality):
        for t in (0.5, 5.0, 20.0, 35.0, 49.5):
            ref, err = quad(lambda u: force_of_mortality(u, mortality), 0.0, t)
            assert err < 1e-12
            assert cumulative_hazard(t, mortality) == pytest.approx(ref, rel=1e-10)

    def test_high_precision_reference(self, mortality):
        assert cumulative_hazard(20.0, mortality) == pytest.approx(
            CUM_HAZARD_AT_20, rel=1e-15
        )

    def test_a2_zero_branch(self):
        params = GompertzMakehamParams(0.004, 0.0, 0.001)
        # flat hazard a1 + a3 integrates linearly
        assert cumulative_hazard(8.0, params) == pytest.approx(0.04, rel=1e-15)

    def test_finite_difference_consistency(self, mortality):
        # d/dt Lambda(t) = lambda(t) at randomly drawn interior times
        rng = np.random.default_rng(20260815)
        t = rng.uniform(0.5, 49.5, size=100)
        h = 1e-5
        fd = (cumulative_hazard(t + h, mortality) - cumulative_hazard(t - h, mortality)) / (
            2.0 * h
        )
        assert np.allclose(fd, force_of_mortality(t, mortality), rtol=1e-6, atol=0)


class TestSurvival:
    def test_starts_at_one(self, mortality):
        assert survival(0.0, mortality) == 1.0

    def test_high_precision_reference(self, mortality):
        assert survival(20.0, mortality) == pytest.approx(SURVIVAL_AT_20, rel=1e-15)

    def test_constant_hazard_closed_form(self):
        params = GompertzMakehamParams(0.0, 0.0, 0.01)
        assert survival(20.0, params) == pytest.approx(np.exp(-0.2), rel=1e-15)

    def test_nonincreasing(self, mortality):
        s = survival(np.linspace(0.0, 50.0, 501), mortality)
        assert np.all(np.diff(s) < 0.0)
        assert np.all(s > 0.0) and np.all(s <= 1.0)

    @given(
        t=st.floats(min_value=0.0, max_value=50.0),
        a1=st.floats(min_value=0.0, max_value=0.05),
        a2=st.floats(min_value=0.0, max_value=0.3),
        a3=st.floats(min_value=0.0, max_value=0.05),
    )
    @settings(max_examples=200, deadline=None)
    def test_survival_in_unit_interval(self, t, a1, a2, a3):
        params = GompertzMakehamParams(a1, a2, a3)
        s = survival(t, params)
        assert 0.0 <= s <= 1.0
        assert force_of_mortality(t, params) >= 0.0


def _hazard_fits_float64(a1, a2, a3, t_max):
    """Whether a1 e^{a2 t} + a3 and its integral over [0, t_max] are finite at t_max."""
    x = a2 * t_max
    try:
        hazard = a1 * math.exp(x) + a3
        integral = a1 * t_max * (math.expm1(x) / x if x > 0 else 1.0) + a3 * t_max
    except OverflowError:
        return False
    return math.isfinite(hazard) and math.isfinite(integral)


class TestParams:
    def test_defaults(self, mortality):
        assert mortality.limiting_age_years == 50.0
        assert DEFAULT_LIMITING_AGE - DEFAULT_BASE_AGE == 50

    @given(values=st.tuples(*[st.floats(allow_nan=True, allow_infinity=True)] * 4))
    @settings(max_examples=300, deadline=None)
    @example(values=(1e-3, 15.0, 1e-3, 50.0))  # a2 * t_max past log(float64 max)
    @example(values=(1e300, 0.0, 0.0, 1e10))  # the hazard fits, its integral does not
    def test_finite_or_reject(self, values):
        a1, a2, a3, t_max = values
        valid = (all(map(math.isfinite, values)) and min(a1, a2, a3) >= 0 and t_max > 0
                 and _hazard_fits_float64(a1, a2, a3, t_max))
        if valid:
            params = GompertzMakehamParams(a1, a2, a3, limiting_age_years=t_max)
            assert (params.a1, params.a2, params.a3, params.limiting_age_years) == values
        else:
            with pytest.raises(ValueError):
                GompertzMakehamParams(a1, a2, a3, limiting_age_years=t_max)


class TestLifeTable:
    def _table(self, params: GompertzMakehamParams) -> LifeTable:
        ages = np.arange(65, 111)
        return LifeTable(base_age=65, ages=ages, survival=survival(ages - 65.0, params))

    def test_rows_and_years(self, mortality):
        table = self._table(mortality)
        assert table.survival[0] == 1.0
        assert table.years_past_base[0] == 0.0
        assert table.years_past_base[-1] == 45.0
        assert table.ages.shape == table.survival.shape == (46,)

    def test_from_death_probabilities_roundtrip(self, mortality):
        table = self._table(mortality)
        qx = 1.0 - table.survival[1:] / table.survival[:-1]
        rebuilt = LifeTable.from_death_probabilities(table.ages[:-1], qx)
        assert np.array_equal(rebuilt.ages, table.ages)
        assert np.allclose(rebuilt.survival, table.survival, rtol=1e-14, atol=0)

    def test_from_csv_survival_header(self, tmp_path, mortality):
        path = tmp_path / "table.csv"
        synthetic_life_table_csv(path, mortality)
        table = LifeTable.from_csv(path)
        assert table.base_age == 65
        assert np.allclose(table.survival, self._table(mortality).survival, rtol=1e-14)

    def test_from_csv_qx_header(self, tmp_path, mortality):
        path = tmp_path / "table_qx.csv"
        synthetic_life_table_csv(path, mortality, header="age,qx")
        table = LifeTable.from_csv(path)
        expected = self._table(mortality)
        assert np.allclose(table.survival, expected.survival, rtol=1e-12, atol=0)

    def test_from_csv_rejects_unknown_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("age,mortality\n65,1.0\n")
        with pytest.raises(LifeTableError):
            LifeTable.from_csv(path)

    def test_non_monotone_survival_rejected(self):
        with pytest.raises(LifeTableError) as excinfo:
            LifeTable(
                base_age=65,
                ages=np.array([65, 66, 67]),
                survival=np.array([1.0, 0.9, 0.95]),
            )
        assert "66" in str(excinfo.value)

    def test_first_row_must_be_one(self):
        with pytest.raises(LifeTableError):
            LifeTable(
                base_age=65,
                ages=np.array([65, 66]),
                survival=np.array([0.99, 0.9]),
            )

    def test_too_short_rejected(self):
        with pytest.raises(LifeTableError):
            LifeTable(base_age=65, ages=np.array([65]), survival=np.array([1.0]))

    @pytest.mark.parametrize("build, message", [
        (lambda: LifeTable(base_age=65, ages=np.array([65, 66, 67]),
                           survival=np.array([1.0, 0.9])),
         "ages and survival must be 1-d arrays of equal length"),
        (lambda: LifeTable(base_age=65, ages=np.array([66, 67]), survival=np.array([1.0, 0.9])),
         "first row must be the base age"),
        (lambda: LifeTable.from_death_probabilities(np.array([65, 66]), np.array([0.01])),
         "ages and qx must be 1-d arrays of equal length"),
    ], ids=["survival-length", "base-age", "qx-length"])
    def test_refusal_names_the_fault(self, build, message):
        with pytest.raises(LifeTableError) as excinfo:
            build()
        assert str(excinfo.value) == message


def dogbox_objective(table: LifeTable) -> float:
    """The fit's objective from scipy's bounded dogbox trust region (the
    package's former solve), with the closed-form Jacobian -S dH/da."""
    t = table.years_past_base

    def model(a):
        return survival(t, GompertzMakehamParams(*map(float, a)))

    def jacobian(a):
        x = a[1] * t
        growth = np.ones_like(x)
        np.divide(np.expm1(x), x, out=growth, where=x > 0)
        curvature = 0.5 + x / 3.0 + x * x / 8.0
        np.divide(x * np.exp(x) - np.expm1(x), x * x, out=curvature, where=x > 1e-3)
        return -model(a)[:, None] * np.column_stack([t * growth, a[0] * t * t * curvature, t])

    res = least_squares(
        lambda a: model(a) - table.survival, _START, jac=jacobian, bounds=(0.0, np.inf),
        method="dogbox", x_scale="jac", xtol=1e-15, ftol=1e-15, gtol=1e-15,
    )
    resid = model(res.x) - table.survival
    return float(resid @ resid)


class TestFit:
    def test_roundtrip_benchmark_shape(self, tmp_path):
        # a3 = 0 sits on the bound of the fit, which must stay reachable.
        ages = np.arange(65, 111)
        for a3 in (0.002, 0.0):
            truth = GompertzMakehamParams(0.006, 0.12, a3)
            table = LifeTable(
                base_age=65, ages=ages, survival=survival(ages - 65.0, truth)
            )
            result = fit_gompertz_makeham(table)
            assert result.params.a1 == pytest.approx(truth.a1, rel=FIT_COMPONENT_TOL)
            assert result.params.a2 == pytest.approx(truth.a2, rel=FIT_COMPONENT_TOL)
            assert result.params.a3 == pytest.approx(truth.a3, abs=FIT_COMPONENT_TOL)
            assert result.objective < 1e-16

    def test_flat_hazard_degenerate_table(self):
        # Pure exponential survival: the exponential-growth term should vanish
        # and the fitted hazard should be flat at the true level.
        level = 0.05
        truth = GompertzMakehamParams(0.0, 0.0, level)
        ages = np.arange(65, 111)
        table = LifeTable(
            base_age=65, ages=ages, survival=survival(ages - 65.0, truth)
        )
        result = fit_gompertz_makeham(table)
        assert result.objective <= 1e-12
        t = np.linspace(0.0, 45.0, 46)
        hazard = force_of_mortality(t, result.params)
        assert np.max(np.abs(hazard - level)) < 1e-4

    def test_local_optimality_probe(self, mortality):
        # No nearby parameter triple may beat the fitted objective.
        ages = np.arange(65, 111)
        table = LifeTable(
            base_age=65, ages=ages, survival=survival(ages - 65.0, mortality)
        )
        result = fit_gompertz_makeham(table)
        t = table.years_past_base

        def objective(params: GompertzMakehamParams) -> float:
            return float(np.sum((survival(t, params) - table.survival) ** 2))

        base = objective(result.params)
        assert base <= result.objective * (1.0 + 1e-12) + 1e-300
        rng = np.random.default_rng(915)
        for _ in range(1000):
            scale = 1.0 + rng.uniform(-0.05, 0.05, size=3)
            shift = rng.uniform(0.0, 1e-6, size=3)
            probe = GompertzMakehamParams(
                result.params.a1 * scale[0] + shift[0],
                result.params.a2 * scale[1] + shift[1],
                result.params.a3 * scale[2] + shift[2],
            )
            assert objective(probe) >= base - 1e-300

    def test_roundtrip_random_triples(self):
        # Identifiability across the plausible parameter box.
        rng = np.random.default_rng(424242)
        ages = np.arange(65, 111)
        for _ in range(50):
            truth = GompertzMakehamParams(
                float(np.exp(rng.uniform(np.log(1e-4), np.log(2e-2)))),
                float(rng.uniform(0.05, 0.2)),
                float(rng.uniform(0.0, 0.01)),
            )
            table = LifeTable(
                base_age=65, ages=ages, survival=survival(ages - 65.0, truth)
            )
            result = fit_gompertz_makeham(table)
            assert result.params.a1 == pytest.approx(truth.a1, rel=1e-4)
            assert result.params.a2 == pytest.approx(truth.a2, rel=1e-4)
            assert result.params.a3 == pytest.approx(truth.a3, abs=1e-6)
            assert result.objective < 1e-16

    def test_objective_matches_dogbox_oracle(self):
        # clean, 0.2%-noisy and 4-decimal tables over the random-triple box,
        # plus the a3 = 0 bound and the flat hazard
        rng = np.random.default_rng(20261018)
        ages = np.arange(65, 111)
        t = ages - 65.0
        columns = []
        for _ in range(30):
            truth = GompertzMakehamParams(
                float(np.exp(rng.uniform(np.log(1e-4), np.log(2e-2)))),
                float(rng.uniform(0.05, 0.2)),
                float(rng.uniform(0.0, 0.01)),
            )
            clean = survival(t, truth)
            noisy = clean * (1.0 + 0.002 * rng.standard_normal(t.size))
            noisy[0] = 1.0
            columns += [clean, np.minimum.accumulate(np.clip(noisy, 0.0, 1.0)),
                        np.round(clean, 4)]
        columns += [survival(t, GompertzMakehamParams(0.006, 0.12, 0.0)),
                    survival(t, GompertzMakehamParams(0.0, 0.0, 0.05))]
        for column in columns:
            table = LifeTable(base_age=65, ages=ages, survival=column)
            oracle = dogbox_objective(table)
            assert fit_gompertz_makeham(table).objective <= oracle * (1.0 + 1e-9) + 1e-20

    def test_fit_to_csv_format(self, mortality):
        ages = np.arange(65, 111)
        table = LifeTable(
            base_age=65, ages=ages, survival=survival(ages - 65.0, mortality)
        )
        result = fit_gompertz_makeham(table)
        text = fit_to_csv(result)
        lines = text.strip().splitlines()
        assert lines[0] == "a1,a2,a3,objective"
        a1, a2, a3, obj = (float(v) for v in lines[1].split(","))
        assert a1 == pytest.approx(result.params.a1, rel=1e-11)
        assert a2 == pytest.approx(result.params.a2, rel=1e-11)
        assert a3 == pytest.approx(result.params.a3, rel=1e-11)
        assert obj == pytest.approx(result.objective, rel=1e-11, abs=1e-300)


class TestCsvTable:
    def test_cell_rule(self):
        # a str as it is, a Python or numpy bool as true/false (np.True_ would
        # format as '1'), anything else as format(v, ".12g")
        rows = [("x", True, np.True_, np.float64(0.1), 1.0 / 3.0, 7),
                ("y z", False, np.False_, math.nan, math.inf, -math.inf)]
        assert _csv_table(("s", "b", "nb", "f", "g", "i"), rows) == (
            "s,b,nb,f,g,i\n"
            "x,true,true,0.1,0.333333333333,7\n"
            "y z,false,false,nan,inf,-inf\n")

    def test_header_only(self):
        assert _csv_table(("a", "b"), []) == "a,b\n"


# Every function of t, and whether it has an upper bound (T_max, or the end
# of the tabulation for value_function and the ControlSchedule queries).
TIME_FUNCTIONS = {
    "force_of_mortality": (lambda t, m: force_of_mortality(t, m.mortality), False),
    "cumulative_hazard": (lambda t, m: cumulative_hazard(t, m.mortality), False),
    "survival": (lambda t, m: survival(t, m.mortality), False),
    "bequest_weight": (lambda t, m: bequest_weight(t, m.schedule, m.mortality), False),
    "log_transformed_weight": (
        lambda t, m: log_transformed_weight(t, m.schedule, m.mortality), False),
    "log_tail_integrals": (
        lambda t, m: log_tail_integrals(t, m.schedule, m.mortality, m.market), True),
    "value_function": (lambda t, m: value_function(t, 1e5, m), True),
    "ControlSchedule.consumption_at": (lambda t, m: m.consumption_at(t), True),
    "ControlSchedule.bequest_fraction_at": (lambda t, m: m.bequest_fraction_at(t), True),
    "ControlSchedule.log_denominator_at": (lambda t, m: m.log_denominator_at(t), True),
    "expected_discounted_income": (
        lambda t, m: expected_discounted_income(t, m.schedule, m.market, m.mortality), True),
    "expected_discounted_bequest_value": (
        lambda t, m: expected_discounted_bequest_value(t, m.schedule, m.market, m.mortality),
        True),
    "expected_wealth": (
        lambda t, m: expected_wealth(t, m.schedule, m.market, m.mortality), True),
}


class TestTimeCheck:
    """One check owns every time argument: t in [0, upper], NaN refused."""

    @pytest.fixture
    def model(self, controls_cache):
        # its schedule, mortality and market serve the other functions
        return controls_cache(-3.0, "power")

    @pytest.mark.parametrize("name", sorted(TIME_FUNCTIONS))
    def test_refuses_nan_and_negative_times(self, model, name):
        evaluate, _ = TIME_FUNCTIONS[name]
        for t in (math.nan, -1.0, [1.0, math.nan]):
            with pytest.raises(ValueError, match=r"^t must lie in \[0, "):
                evaluate(t, model)

    @pytest.mark.parametrize("name", sorted(n for n, (_, upper) in TIME_FUNCTIONS.items()
                                            if upper))
    def test_refuses_times_past_the_upper_bound(self, model, name):
        evaluate, _ = TIME_FUNCTIONS[name]
        for t in (math.inf, model.mortality.limiting_age_years + 1.0):
            with pytest.raises(ValueError, match=r"^t must lie in \[0, "):
                evaluate(t, model)

    @pytest.mark.parametrize("name", sorted(TIME_FUNCTIONS))
    def test_accepts_the_ends(self, model, name):
        evaluate, _ = TIME_FUNCTIONS[name]
        assert np.all(np.isfinite(evaluate([0.0, model.t_end], model)))
