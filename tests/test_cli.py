"""End-to-end CLI behaviour: commands, config precedence, error contract."""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tontine
import tontine.cli as cli
import tontine.simulate as simulate
from tontine.cli import DEFAULTS, VALID_KEYS, main
from tontine.mortality import GompertzMakehamParams
from tontine.preferences import VARIANTS

from helpers import synthetic_life_table_csv

BENCH = GompertzMakehamParams(a1=0.00584, a2=0.12150, a3=0.0024117)

KAPPA_GAMMA_M3_SCALED_TRIMMED = 0.15410381739109563


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestFit:
    @pytest.mark.parametrize("header", ["age,survival", "age,qx"])
    def test_round_trip_from_synthetic_table(self, tmp_path, capsys, header):
        table = tmp_path / "table.csv"
        synthetic_life_table_csv(table, BENCH, header=header)
        out = tmp_path / "fit.csv"
        code, _, err = run_cli(
            ["fit", "--table", str(table), "--out", str(out)], capsys
        )
        assert code == 0 and err == ""
        cols, rows = read_csv(out)
        assert cols == ["a1", "a2", "a3", "objective"]
        a1, a2, a3, objective = (float(v) for v in rows[0])
        assert a1 == pytest.approx(BENCH.a1, rel=1e-4)
        assert a2 == pytest.approx(BENCH.a2, rel=1e-4)
        assert a3 == pytest.approx(BENCH.a3, rel=1e-4)
        assert objective < 1e-10

    @pytest.mark.parametrize("survival", [
        (1.0, 0.99, 0.97, 0.94),                                  # 4 rows
        tuple(max(1.0 - k / 10.0, 0.0) for k in range(46)),       # 0 from year 10
        (1.0,) + (0.0,) * 45,                                     # 0 from year 1
        (1.0, 0.3, 0.01) + (0.0,) * 43,                           # a very steep hazard
    ], ids=["four-rows", "zero-at-10", "zero-at-1", "steep"])
    def test_hostile_tables_fit_cleanly(self, tmp_path, capsys, survival):
        table = tmp_path / "table.csv"
        table.write_text("age,survival\n" + "".join(
            f"{65 + k},{s!r}\n" for k, s in enumerate(survival)))
        out = tmp_path / "fit.csv"
        code, _, err = run_cli(["fit", "--table", str(table), "--out", str(out)], capsys)
        assert code == 0 and err == ""
        _, rows = read_csv(out)
        values = np.array([float(v) for v in rows[0]])
        assert np.all(np.isfinite(values)) and np.all(values >= 0.0)

    @pytest.mark.parametrize("command", ["fit", "schedule"])
    def test_limiting_age_below_base_age(self, tmp_path, capsys, command):
        table = tmp_path / "table.csv"
        synthetic_life_table_csv(table, BENCH)
        out = tmp_path / "out.csv"
        code, _, err = run_cli([command, "--table", str(table), "--limiting-age", "60",
                                "--out", str(out)], capsys)
        assert code == 2
        assert err == "error: CONFIG: limiting_age must exceed base_age\n"
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("age,survival\n65,1\n67,0.9\n66,0.8\n68,0.7\n", "ages must be strictly increasing"),
        ("age,survival\n65,1\n66,-0.1\n67,0.8\n68,0.7\n", "survival values must lie in"),
        ("age,qx\n65,0.01\n67,0.02\n68,0.03\n69,0.04\n", "qx rows must be at consecutive"),
        ("age,qx\n65,0.01\n66,1.5\n67,0.03\n68,0.04\n", "death probabilities must lie in"),
        ("", "empty life-table CSV"),
        ("age,survival\n65,1\n66,abc\n67,0.8\n68,0.7\n", "malformed life-table row"),
        ("age,survival\n65,1\n66,0.99\n67,0.97\n", "life table too short"),
        ("age,survival\n65,1\n66,nan\n67,0.9\n68,0.8\n69,0.7\n", "survival values must lie in"),
        ("age,qx\n65,0.01\n66,nan\n67,0.02\n68,0.03\n", "death probabilities must lie in"),
    ], ids=["ages-order", "survival-range", "qx-gap", "qx-range", "empty", "malformed",
            "short", "survival-nan", "qx-nan"])
    def test_bad_table_is_one_data_line(self, tmp_path, capsys, text, message):
        table = tmp_path / "table.csv"
        table.write_text(text)
        out = tmp_path / "fit.csv"
        code, _, err = run_cli(["fit", "--table", str(table), "--out", str(out)], capsys)
        assert code == 2
        assert err.startswith(f"error: DATA: {message}") and err.count("\n") == 1
        assert not out.exists()

    def test_missing_table_is_config_error(self, tmp_path, capsys):
        code, _, err = run_cli(["fit", "--out", str(tmp_path / "f.csv")], capsys)
        assert code == 2
        assert err.startswith("error: CONFIG:")
        assert not (tmp_path / "f.csv").exists()


class TestCalibrate:
    def test_writes_kappa_residual_feasible(self, tmp_path, capsys):
        out = tmp_path / "cal.csv"
        code, _, err = run_cli(
            ["calibrate", "--gamma", "-3", "--out", str(out)], capsys
        )
        assert code == 0 and err == ""
        cols, rows = read_csv(out)
        assert cols == ["kappa", "residual", "feasible"]
        kappa, residual, feasible = rows[0]
        assert float(kappa) == pytest.approx(KAPPA_GAMMA_M3_SCALED_TRIMMED, rel=1e-9)
        assert float(residual) < 1e-10
        assert feasible == "true"

    def test_infeasible_gamma_reports_cleanly(self, tmp_path, capsys):
        out = tmp_path / "cal.csv"
        code, _, err = run_cli(
            ["calibrate", "--gamma", "0.5", "--out", str(out)], capsys
        )
        assert code == 0 and err == ""
        _, rows = read_csv(out)
        kappa, _, feasible = rows[0]
        assert feasible == "false"
        assert np.isnan(float(kappa))

    @pytest.mark.parametrize("flags", [
        ["--gamma", "0.9"],    # alpha*_0 rebuilt under the solved kappa is 1, not 0
        ["--gamma", "0.94"],   # D_base past float64
        ["--sigma", "1e-9"],   # A underflows, so the solved kappa is 0
        ["--mu", "1e3"],
    ])
    def test_unreachable_zero_start_writes_infeasible_row(self, tmp_path, capsys, flags):
        out = tmp_path / "cal.csv"
        code, _, err = run_cli(["calibrate", *flags, "--out", str(out)], capsys)
        assert code == 0 and err == ""
        assert out.read_text() == "kappa,residual,feasible\nnan,inf,false\n"

    @pytest.mark.parametrize("command", ["schedule", "income", "simulate", "verify"])
    @pytest.mark.parametrize("gamma", ["0.9", "0.95"])
    def test_infeasible_calibration_is_one_line(self, tmp_path, capsys, command, gamma):
        out = tmp_path / "out.csv"
        code, _, err = run_cli([command, "--gamma", gamma, "--paths", "16", "--out", str(out)],
                               capsys)
        assert code == 2
        assert err.startswith(f"error: CALIBRATION: kappa calibration infeasible for "
                              f"gamma={gamma}") and err.count("\n") == 1
        assert not out.exists()


    def test_panel_count_checked_against_memory(self, tmp_path, capsys, monkeypatch):
        # 99,935 years of yearly panels need 0.09 GiB, past a patched 16 MiB;
        # a2 = 0.005 keeps the hazard within float64 up to that limiting age
        monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 4096}.__getitem__)
        (tmp_path / "run.cfg").write_text("a2 = 0.005\n")
        out = tmp_path / "calibration.csv"
        code, _, err = run_cli(["calibrate", "--config", str(tmp_path / "run.cfg"),
                                "--limiting-age", "1e5", "--out", str(out)], capsys)
        assert code == 2
        assert err.startswith("error: RUNTIME: 99985 quadrature panels need ")
        assert "physical memory" in err and err.count("\n") == 1
        assert not out.exists()


class TestSchedule:
    def test_no_bequest_allocates_everything_to_pool(self, tmp_path, capsys):
        out = tmp_path / "schedule.csv"
        code, _, err = run_cli(
            ["schedule", "--variant", "none", "--grid-step", "1/4",
             "--out", str(out)],
            capsys,
        )
        assert code == 0 and err == ""
        cols, rows = read_csv(out)
        assert cols == ["t", "age", "pi_star", "c_star", "alpha_star", "D"]
        alpha = np.array([float(r[4]) for r in rows])
        assert np.all(alpha == 1.0)
        assert float(rows[0][1]) == 65.0

    def test_calibrated_schedule_starts_at_zero_allocation(self, tmp_path, capsys):
        out = tmp_path / "schedule.csv"
        code, _, err = run_cli(
            ["schedule", "--gamma", "-3", "--grid-step", "1/4", "--out", str(out)],
            capsys,
        )
        assert code == 0 and err == ""
        _, rows = read_csv(out)
        assert abs(float(rows[0][4])) < 1e-8

    def test_grid_bound_checked_before_allocating(self, tmp_path, capsys, monkeypatch):
        # 1 MiB of physical memory: the default 2,600-point grid needs 2.4 MiB
        monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}.__getitem__)
        out = tmp_path / "schedule.csv"
        code, _, err = run_cli(["schedule", "--out", str(out)], capsys)
        assert code == 2
        assert err.startswith("error: RUNTIME: 2600 grid points") and "physical memory" in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["schedule", "income", "simulate", "verify"])
    def test_denominator_past_float64_is_config_error(self, tmp_path, capsys, command):
        out = tmp_path / "out.csv"
        code, _, err = run_cli([command, "--gamma", "0.95", "--variant", "power",
                                "--paths", "16", "--out", str(out)], capsys)
        assert code == 2
        assert err.startswith("error: CONFIG: D(0) = exp(") and "gamma=0.95" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_grid_past_memory_is_runtime_error(self, tmp_path, capsys):
        # 5e13 grid points: 364 TiB a float64 array, past any address space
        out = tmp_path / "schedule.csv"
        code, _, err = run_cli(["schedule", "--grid-step", "1e-12", "--out", str(out)], capsys)
        assert code == 2
        assert err.startswith("error: RUNTIME:")
        assert err.count("\n") == 1
        assert not out.exists()


class TestIncome:
    def test_curve_layout(self, tmp_path, capsys):
        out = tmp_path / "income.csv"
        code, _, err = run_cli(["income", "--gamma", "-3", "--out", str(out)], capsys)
        assert code == 0 and err == ""
        cols, rows = read_csv(out)
        assert cols == ["t", "age", "expected_income", "expected_bequest_fraction"]
        assert len(rows) == 200  # quarterly grid over the 50-year pool horizon
        assert float(rows[0][2]) > 0.0

    @pytest.mark.parametrize("x0", ["nan", "inf", "-inf", "1e400", "0", "-5"])
    def test_bad_x0_is_one_config_line(self, tmp_path, capsys, x0):
        out = tmp_path / "income.csv"
        code, _, err = run_cli(["income", f"--x0={x0}", "--out", str(out)], capsys)
        assert code == 2
        assert err.startswith("error: CONFIG: x0 must be positive and finite")
        assert err.count("\n") == 1
        assert not out.exists()


    def test_non_finite_curve_is_one_config_line(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("a2 = 0.95\n")
        out = tmp_path / "income.csv"
        code, _, err = run_cli(["income", "--config", str(config), "--out", str(out)], capsys)
        assert code == 2
        assert err == "error: CONFIG: income curve is not finite at t=18\n"
        assert not out.exists()


class TestSimulate:
    ARGS = [
        "simulate", "--gamma", "-3", "--paths", "500", "--sim-step", "1/12",
        "--sim-horizon", "5", "--grid-step", "1/12",
    ]

    def test_summary_layout(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code, _, err = run_cli(self.ARGS + ["--out", str(out)], capsys)
        assert code == 0 and err == ""
        cols, rows = read_csv(out)
        assert cols == ["t", "mean_income", "se_income", "mean_Y", "se_Y",
                        "mean_zetaX", "se_zetaX"]
        assert len(rows) >= 2

    def test_same_seed_is_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(self.ARGS + ["--out", str(a)], capsys)
        run_cli(self.ARGS + ["--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_infinite_horizon_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code, _, err = run_cli(self.ARGS + ["--sim-horizon", "inf", "--out", str(out)], capsys)
        assert code == 2
        assert err.startswith("error: CONFIG:") and "horizon" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_path_count_past_memory_is_runtime_error(self, tmp_path, capsys):
        # the result arrays alone would need hundreds of TiB: refused before allocating
        out = tmp_path / "sim.csv"
        code, _, err = run_cli(self.ARGS + ["--paths", "10000000000000", "--out", str(out)],
                               capsys)
        assert code == 2
        assert err.startswith("error: RUNTIME:") and "physical memory" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_step_past_memory_is_runtime_error(self, tmp_path, capsys):
        # 2e13 steps: the per-worker buffers alone would need hundreds of TiB
        out = tmp_path / "sim.csv"
        code, _, err = run_cli(["simulate", "--sim-step", "1e-12", "--paths", "2",
                                "--out", str(out)], capsys)
        assert code == 2
        assert err.startswith("error: RUNTIME:") and "physical memory" in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--sim-step", "0.3", "--sim-horizon", "1"], "step must divide the horizon"),
        (["--sim-horizon", "50"], "controls tabulated only to t=49.9808, horizon 50 not covered"),
    ])
    def test_grid_mismatch_is_config_error(self, tmp_path, capsys, flags, message):
        out = tmp_path / "sim.csv"
        code, _, err = run_cli(["simulate", "--paths", "16", *flags, "--out", str(out)], capsys)
        assert code == 2
        assert err == f"error: CONFIG: {message}\n"
        assert not out.exists()

    def test_finite_paths_give_finite_summaries(self, tmp_path, capsys):
        # max |Y| is about 1e169 here, so np.std's squares once overflowed to inf
        out = tmp_path / "sim.csv"
        code, _, err = run_cli(["simulate", "--variant", "power", "--gamma", "-100",
                                "--paths", "200", "--out", str(out)], capsys)
        assert (code, err) == (0, "")
        assert all(math.isfinite(v) for v in numeric_cells(out))

    @pytest.mark.parametrize("flags, message", [
        # phi_0 = 2.45e302, so Y leaves float64 though log X and log zeta do not
        (["--kappa", "1e300"], "X, zeta or Y overflows float64 by step "),
        (["--kappa", "1e300", "--gamma", "-100"],
         "zeta_0 = (c*_0)^(gamma-1) overflows float64 at gamma=-100"),
    ])
    def test_overflowing_simulation_is_one_runtime_line(self, tmp_path, capsys, flags,
                                                         message):
        out = tmp_path / "sim.csv"
        code, _, err = run_cli(["simulate", *flags, "--paths", "200", "--out", str(out)],
                               capsys)
        assert code == 2
        assert err.startswith(f"error: RUNTIME: {message}") and err.count("\n") == 1
        assert not out.exists()

    def test_seed_changes_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(self.ARGS + ["--out", str(a)], capsys)
        run_cli(self.ARGS + ["--seed", "99", "--out", str(b)], capsys)
        assert a.read_bytes() != b.read_bytes()


class TestVerify:
    ARGS = [
        "verify", "--paths", "500", "--sim-step", "1/12", "--sim-horizon", "5",
        "--grid-step", "1/12",
    ]

    def test_failing_audit_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(simulate.AuditReport, "ok", property(lambda self: False))
        out = tmp_path / "verify.csv"
        code, _, err = run_cli(self.ARGS + ["--out", str(out)], capsys)
        assert code == 2
        assert err.startswith("error: AUDIT: optimality audit failed:")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_one_path_is_one_config_line(self, tmp_path, capsys):
        # a single path has a standard error of 0, so every check degenerates
        out = tmp_path / "verify.csv"
        args = ["verify", "--sim-horizon", "1", "--sim-step", "1/4", "--out", str(out)]
        code, _, err = run_cli(args + ["--paths", "1"], capsys)
        assert code == 2
        assert err.startswith("error: CONFIG:") and err.count("\n") == 1
        assert not out.exists()
        code, _, err = run_cli(args + ["--paths", "2"], capsys)
        assert code == 0 or err.startswith("error: AUDIT:")

    def test_underflowing_utility_is_one_config_line(self, tmp_path, capsys):
        # X0^gamma underflows: V(0, X0) and every J_H read 0, so no jitter could lose
        out = tmp_path / "verify.csv"
        code, _, err = run_cli(["verify", "--gamma", "-100", "--paths", "200",
                                "--sim-horizon", "5", "--out", str(out)], capsys)
        assert (code, err) == (2, "error: CONFIG: V(0, X0) = -0 is zero, subnormal or not "
                                  "finite at gamma=-100: X^gamma leaves float64\n")
        assert not out.exists()

    def test_tiny_utility_keeps_its_standard_errors(self, tmp_path, capsys):
        # V(0, X0) = -2.49e-219: the paired differences' squares once underflowed to SE 0
        out = tmp_path / "verify.csv"
        code, _, err = run_cli(["verify", "--gamma", "-60", "--paths", "200",
                                "--sim-horizon", "5", "--out", str(out)], capsys)
        assert (code, err) == (0, "")
        _, rows = read_csv(out)
        paired = [row for row in rows if row[0] in ("value", "jitter")]
        assert len(paired) == 21 and all(row[-1] == "true" for row in paired)
        assert all(float(row[5]) > 0.0 for row in paired)

    def test_martingale_row_at_zero_is_exactly_zero(self, tmp_path, capsys):
        # every path holds the same Y_0 = 1.50e88; a pairwise mean minus
        # phi_0 X0 once wrote a deviation of 3.48e74 with an SE of 4.63e72
        out = tmp_path / "verify.csv"
        code, _, err = run_cli(["verify", "--gamma", "-60", "--paths", "200",
                                "--sim-horizon", "5", "--out", str(out)], capsys)
        assert (code, err) == (0, "")
        _, rows = read_csv(out)
        assert rows[0] == ["martingale", "0", "1", "1", "0", "0", "true"]

    @pytest.mark.parametrize("extra", [["--sim-step", "1/104"], ["--grid-step", "1/4"]])
    def test_passes_with_nodes_inside_the_horizon_cell(self, tmp_path, capsys, extra):
        # simulation nodes strictly inside the last grid cell before the
        # bequest horizon H = 20 once made every jitter win
        out = tmp_path / "verify.csv"
        code, _, err = run_cli(["verify", "--paths", "2000", *extra, "--out", str(out)], capsys)
        assert code == 0 and err == ""
        _, rows = read_csv(out)
        jitters = [row for row in rows if row[0] == "jitter"]
        assert len(jitters) == 20 and all(row[-1] == "true" for row in jitters)


# "a/b" values, each with the float the CLI reads or None for a refusal:
# exactly the float(Fraction(s)) of Python 3.11, which takes digits joined by
# single underscores, a sign on the numerator only, and no space around "/".
RATIO_VALUES = [
    ("1/52", 1 / 52), ("-1/52", -1 / 52), ("+3/4", 0.75), ("0/7", 0.0), ("-0/7", 0.0),
    (" 1/3\t", 1 / 3), ("1_000/7", 1000 / 7), ("10/1_0", 1.0), ("007/0_2", 3.5),
    ("9" * 40 + "/" + "7" * 39, int("9" * 40) / int("7" * 39)),
    ("1" + "0" * 400 + "/3" + "0" * 399, 10 / 3),  # each beyond float64, the ratio not
    ("1/-2", None), ("1/+2", None), ("1.5/2", None), ("/2", None), ("1/", None),
    ("1/2/3", None), ("-/2", None), ("--1/2", None), ("+-1/2", None), ("1e3/2", None),
    ("0x10/2", None), ("a/b", None), ("1__0/7", None), ("_1/2", None), ("1_/2", None),
    ("1/2_", None), ("1 / 2", None), ("1 /2", None), ("1/ 2", None), ("1/0", None),
    ("0/0", None), ("-3/0", None), ("1" * 4301 + "/1", None),  # past int's digit limit
]


def _fraction_cases():
    """RATIO_VALUES for a comparison with this Python's Fraction, which took
    underscores from Python 3.11 and spaces around the slash from 3.12."""
    for value, expected in RATIO_VALUES:
        marks = []
        if "_" in value:
            marks.append(pytest.mark.skipif(sys.version_info < (3, 11),
                                            reason="Fraction takes underscores from 3.11"))
        if " /" in value or "/ " in value:
            marks.append(pytest.mark.skipif(sys.version_info >= (3, 12),
                                            reason="Fraction takes spaces around / from 3.12"))
        yield pytest.param(value, expected, marks=marks, id=value[:24])


def _fraction_float(value: str):
    """float(Fraction(value)), or None where Fraction refuses it."""
    from fractions import Fraction

    try:
        return float(Fraction(value))
    except (ValueError, ZeroDivisionError):
        return None


class TestRatioValues:
    @pytest.mark.parametrize("value, expected", RATIO_VALUES,
                             ids=[value[:24] for value, _ in RATIO_VALUES])
    def test_ratio_value(self, value, expected):
        if expected is None:
            with pytest.raises(cli.CliError) as excinfo:
                cli._as_float({"grid_step": value}, "grid_step")
            assert excinfo.value.code == "CONFIG"
            assert excinfo.value.message == f"grid_step: cannot parse {value.strip()!r}"
        else:
            got = cli._as_float({"grid_step": value}, "grid_step")
            assert got == expected and math.copysign(1.0, got) == math.copysign(1.0, expected)

    @pytest.mark.parametrize("value, expected", _fraction_cases())
    def test_ratio_value_is_fractions(self, value, expected):
        assert _fraction_float(value.strip()) == expected

    @given(st.integers(-10**40, 10**40), st.integers(1, 10**40))
    @settings(max_examples=300, deadline=None)
    def test_random_ratios_are_fractions(self, numerator, denominator):
        value = f"{numerator}/{denominator}"
        assert cli._as_float({"x0": value}, "x0") == _fraction_float(value)

    def test_zero_denominator_is_one_config_line(self, tmp_path, capsys):
        code, _, err = run_cli(["schedule", "--grid-step", "1/0",
                                "--out", str(tmp_path / "s.csv")], capsys)
        assert code == 2
        assert err == "error: CONFIG: grid_step: cannot parse '1/0'\n"


class TestConfigFile:
    def test_flags_override_config_file(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("gamma = -5\nvariant = scaled_trimmed\n# comment\n")
        out_flag = tmp_path / "flag.csv"
        code, _, _ = run_cli(
            ["calibrate", "--config", str(config), "--gamma", "-3",
             "--out", str(out_flag)],
            capsys,
        )
        assert code == 0
        _, rows = read_csv(out_flag)
        assert float(rows[0][0]) == pytest.approx(
            KAPPA_GAMMA_M3_SCALED_TRIMMED, rel=1e-9
        )

    def test_config_value_used_when_no_flag(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("gamma = -3\n")
        out = tmp_path / "cal.csv"
        code, _, _ = run_cli(["calibrate", "--config", str(config), "--out", str(out)], capsys)
        assert code == 0
        _, rows = read_csv(out)
        assert float(rows[0][0]) == pytest.approx(
            KAPPA_GAMMA_M3_SCALED_TRIMMED, rel=1e-9
        )

    def test_unknown_key_lists_valid_keys(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("gama = -3\n")
        code, _, err = run_cli(
            ["calibrate", "--config", str(config), "--out", str(tmp_path / "c.csv")],
            capsys,
        )
        assert code == 2
        assert err.startswith("error: CONFIG:")
        assert "valid keys" in err
        for key in VALID_KEYS:
            assert key in err

    def test_non_finite_hazard_constant_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("a1 = nan\n")
        out = tmp_path / "s.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a stray warning would be a second stderr line
            code, _, err = run_cli(
                ["schedule", "--config", str(config), "--out", str(out)], capsys
            )
        assert code == 2
        assert err.startswith("error: CONFIG:") and "finite" in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("a2 = 1e300", "hazard overflows float64 before the limiting age (a1=0.00584, "
                       "a2=1e+300, a3=0.0024117, limiting_age_years=50)"),
        ("a1 = 1e300", "hazard too steep to integrate (a1=1e+300, a2=0.1215, a3=0.0024117): "
                       "panels 2^-64 of a year wide still span more than 16 of cumulative hazard"),
    ])
    def test_huge_hazard_constant_is_one_config_line(self, tmp_path, capsys, line, message):
        config = tmp_path / "run.cfg"
        config.write_text(line + "\n")
        out = tmp_path / "c.csv"
        code, _, err = run_cli(["calibrate", "--config", str(config), "--out", str(out)], capsys)
        assert (code, err) == (2, f"error: CONFIG: {message}\n")
        assert not out.exists()

    def test_seed_is_parsed_only_where_read(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code, _, err = run_cli(["schedule", "--seed", "abc", "--grid-step", "1/4",
                                "--out", str(out)], capsys)
        assert code == 0 and err == "" and out.exists()
        code, _, err = run_cli(["simulate", "--seed", "abc", "--out", str(out)], capsys)
        assert code == 2
        assert err == "error: CONFIG: seed: cannot parse 'abc' as an integer\n"

    def test_malformed_line_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("gamma -3\n")
        code, _, err = run_cli(["calibrate", "--config", str(config)], capsys)
        assert code == 2
        assert "key=value" in err


class TestErrorContract:
    def test_error_line_shape(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["income", "--gamma", "abc", "--out", str(tmp_path / "i.csv")], capsys
        )
        assert code == 2
        assert err.startswith("error: CONFIG:")
        assert err.count("\n") == 1  # single line

    @pytest.mark.parametrize("argv, name", [
        (["schedule", "--gamma=-inf"], "gamma"),
        (["schedule", "--horizon", "inf"], "horizon_years"),
        (["simulate", "--x0", "inf"], "initial_wealth"),
        (["schedule", "--gamma", "-inf"], "gamma"),
        (["income", "--x0", "-inf"], "x0"),
    ])
    def test_infinite_input_is_one_config_line(self, tmp_path, capsys, argv, name):
        out = tmp_path / "out.csv"
        code, _, err = run_cli(argv + ["--out", str(out)], capsys)
        assert code == 2
        assert err.startswith(f"error: CONFIG: {name} must be")
        assert err.count("\n") == 1
        assert not out.exists()

    # One case per library check the CLI reports, and the figures directory
    # check: each keeps its exact line.  `a1` has no flag, so it comes from a
    # config file.  A case's own --out follows the default one and wins.
    @pytest.mark.parametrize("argv, line", [
        (["schedule", "--sigma", "0"], "CONFIG: sigma must be positive"),
        (["schedule", "--config", "a1.cfg"],
         "CONFIG: hazard constants a1, a2, a3 must be nonnegative"),
        (["schedule", "--horizon", "0"], "CONFIG: horizon_years must be positive and finite"),
        (["schedule", "--gamma", "1"],
         "CONFIG: gamma must be finite and satisfy gamma < 1 and gamma != 0"),
        (["schedule", "--kappa", "-1"], "CONFIG: kappa must be positive and finite"),
        (["schedule", "--variant", "bogus"],
         "CONFIG: unknown variant 'bogus'; valid variants: "
         "none, power, scaled_power, trimmed, scaled_trimmed"),
        (["calibrate", "--variant", "power"],
         "CONFIG: calibrate requires a scaled variant (scaled_power, scaled_trimmed), "
         "got 'power'"),
        (["fit", "--table", "table.csv"],
         "DATA: survival must be nonincreasing in age; first violation after age 66"),
        (["income", "--sigma", "0"], "CONFIG: sigma must be positive"),
        (["schedule", "--variant", "table"],
         "CONFIG: unknown variant 'table'; valid variants: "
         "none, power, scaled_power, trimmed, scaled_trimmed"),
        (["figures", "--out", "nope"], "IO: output directory 'nope' does not exist"),
        (["figures", "--out", "a1.cfg"], "IO: output directory 'a1.cfg' is not a directory"),
        # the ratio leaves float64: int / int raises OverflowError
        (["schedule", "--grid-step", "1" + "0" * 400 + "/1"],
         f"CONFIG: grid_step: cannot parse {'1' + '0' * 400 + '/1'!r}"),
    ])
    def test_library_error_is_one_exact_line(self, tmp_path, capsys, monkeypatch, argv, line):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a1.cfg").write_text("a1 = -1\n")
        (tmp_path / "table.csv").write_text("age,survival\n65,1\n66,0.99\n67,0.995\n68,0.97\n")
        code, _, err = run_cli([argv[0], "--out", "out.csv", *argv[1:]], capsys)
        assert (code, err) == (2, f"error: {line}\n")
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("command", ["calibrate", "schedule", "income", "simulate", "verify"])
    @pytest.mark.parametrize("flag", ["--mu", "--r", "--sigma"])
    def test_huge_market_constant_is_one_config_line(self, tmp_path, capsys, command, flag):
        # sigma^2 or the squared Sharpe ratio would overflow in beta or pi*
        out = tmp_path / "out.csv"
        code, _, err = run_cli([command, flag, "1e300", "--paths", "16", "--out", str(out)],
                               capsys)
        assert code == 2
        assert err.startswith("error: CONFIG: sigma^2 = ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["calibrate", "schedule", "income", "simulate"])
    def test_huge_bequest_horizon_runs_silently(self, tmp_path, capsys, command):
        # lambda_H overflows, and 1/lambda_H = 0 is the exact limit
        out = tmp_path / "out.csv"
        code, _, err = run_cli([command, "--horizon", "1e300", "--paths", "16",
                                "--out", str(out)], capsys)
        assert (code, err) == (0, "")
        assert out.exists()

    def test_unknown_command_is_usage_error(self, capsys):
        code, _, err = run_cli(["frobnicate"], capsys)
        assert code == 2
        assert err.startswith("error: USAGE:")

    # a token after a flag is its value, though argparse alone reads only
    # -10 and -0.01 of these as numbers, not as flags
    @pytest.mark.parametrize("flag, value, plain", [
        ("--gamma", "-1e1", "-10"),
        ("--mu", "-1E-2", "-0.01"),
        ("--gam", "-1e1", "-10"),
    ])
    def test_negative_value_in_any_form(self, tmp_path, capsys, flag, value, plain):
        runs = []
        for token in (value, plain):
            out = tmp_path / f"{token}.csv"
            code, _, err = run_cli(["schedule", flag, token, "--out", str(out)], capsys)
            runs.append((code, err, out.read_bytes()))
        assert runs[0] == runs[1] and runs[0][0] == 0

    @pytest.mark.parametrize("argv, message", [
        (["schedule", "--bogus", "3"], "unrecognized arguments: --bogus 3"),
        (["schedule", "-x", "3"], "unrecognized arguments: -x 3"),
        (["schedule", "--gamma", "-10", "--bogus"], "unrecognized arguments: --bogus"),
        (["schedule", "--gamma"], "argument --gamma: expected one argument"),
    ])
    def test_unknown_flag_is_one_usage_line(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out.csv"
        code, _, err = run_cli([*argv[:1], "--out", str(out), *argv[1:]], capsys)
        assert (code, err) == (2, f"error: USAGE: {message}\n")
        assert not out.exists()

    def test_unexpected_exception_rolls_back_outputs(
        self, tmp_path, capsys, monkeypatch
    ):
        out = tmp_path / "income.csv"

        def boom(*args, **kwargs):
            raise RuntimeError("induced failure")

        monkeypatch.setattr(cli, "income_curve", boom)
        code, _, err = run_cli(["income", "--out", str(out)], capsys)
        assert code == 2
        assert err.startswith("error: INTERNAL: RuntimeError")
        assert not out.exists()

    def test_figures_failure_removes_written_files(
        self, tmp_path, capsys, monkeypatch
    ):
        # figures writes fig1..fig3 before fig4; a late failure must remove all
        real = cli.expected_discounted_income

        def boom(*args, **kwargs):
            raise RuntimeError("induced failure")

        monkeypatch.setattr(cli, "expected_discounted_income", boom)
        code, _, err = run_cli(["figures", "--out", str(tmp_path)], capsys)
        assert code == 2
        assert err.startswith("error: INTERNAL:")
        assert os.listdir(tmp_path) == []
        monkeypatch.setattr(cli, "expected_discounted_income", real)

    def test_failure_prints_no_warning_line(self, tmp_path, capsys):
        # mu <= r warns before the unknown variant fails the run.
        out = tmp_path / "s.csv"
        code, _, err = run_cli(
            ["schedule", "--mu", "0.03", "--variant", "bogus", "--out", str(out)], capsys
        )
        assert code == 2
        assert err.startswith("error: CONFIG: unknown variant")
        assert err.count("\n") == 1
        assert not out.exists()


class TestWarnings:
    @pytest.mark.parametrize("command", ["schedule", "income"])
    def test_nonpositive_equity_premium(self, tmp_path, capsys, command):
        out = tmp_path / "s.csv"
        code, _, err = run_cli(
            [command, "--mu", "0.03", "--variant", "power", "--out", str(out)], capsys
        )
        assert code == 0 and out.exists()
        assert err == "warning: mu <= r: the equity premium is nonpositive\n"

    def test_calibration_off_auto_rho(self, tmp_path, capsys):
        out = tmp_path / "cal.csv"
        code, _, err = run_cli(["calibrate", "--rho", "0.02", "--out", str(out)], capsys)
        assert code == 0 and out.exists()
        assert err == (
            "warning: calibrating with rho != r*gamma; "
            "feasibility may not follow the sign of gamma\n"
        )

    @pytest.mark.parametrize("command", ["schedule", "income", "simulate"])
    def test_schedule_notes_reach_stderr(self, tmp_path, capsys, command):
        # trimmed weights with gamma > 0 make D mesh-dependent; the schedule says so
        out = tmp_path / "out.csv"
        code, _, err = run_cli(
            [command, "--variant", "trimmed", "--gamma", "0.5", "--paths", "16",
             "--out", str(out)], capsys
        )
        assert code == 0 and out.exists()
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("warning: integrability:")


class TestReadme:
    """The README's lists of config keys and error codes match the CLI, and
    its library tour imports only names the package has."""

    TEXT = open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"),
                encoding="utf-8").read()

    def test_valid_keys(self):
        keys = re.search(r"Valid keys: `([^`]*)`", self.TEXT).group(1).split()
        assert tuple(keys) == VALID_KEYS

    def test_codes(self):
        listed = re.search(r"Codes: ([^.]*)\.", self.TEXT).group(1)
        with open(cli.__file__, encoding="utf-8") as fh:
            raised = set(re.findall(r'CliError\(\s*"([A-Z]+)"', fh.read()))
        printable = raised | {code for _, code in cli._ERROR_CODES}
        assert sorted(re.findall(r"`([A-Z]+)`", listed)) == sorted(printable)

    def test_tour_imports_exist(self):
        block = re.search(r"from tontine import \(([^)]*)\)", self.TEXT).group(1)
        names = [n.strip() for n in block.split(",") if n.strip()]
        assert names and [n for n in names if not hasattr(tontine, n)] == []


class TestFigures:
    def test_writes_all_seven_files(self, tmp_path, capsys):
        code, _, err = run_cli(["figures", "--out", str(tmp_path)], capsys)
        assert code == 0 and err == ""
        names = sorted(os.listdir(tmp_path))
        assert names == ["fig1.csv", "fig2.csv", "fig3.csv", "fig4.csv",
                         "income0.csv", "kappas.csv", "merton.csv"]

        cols, rows = read_csv(tmp_path / "fig1.csv")
        assert cols[:2] == ["t", "age"]
        assert "alpha_-3" in cols
        first = dict(zip(cols, (float(v) for v in rows[0])))
        assert first["alpha_-3"] < 0.0  # unscaled power starts with shorting

        cols3, rows3 = read_csv(tmp_path / "fig3.csv")
        first3 = dict(zip(cols3, (float(v) for v in rows3[0])))
        for g in ("-1", "-3", "-5", "-8", "-11"):
            assert abs(first3[f"alpha_{g}"]) < 1e-8  # calibrated start

        cols4, _ = read_csv(tmp_path / "fig4.csv")
        assert "income_-3" in cols4


def src_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), os.pardir, "src"), env.get("PYTHONPATH", "")]
    )
    return env


UNRUN_MODULES = ("numpy.ma", "numpy.polynomial", "concurrent", "logging", "fractions",
                 "decimal", "scipy")


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "cal.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "tontine", "calibrate", "--gamma", "-3",
             "--out", str(out)],
            capture_output=True, text=True, env=src_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    # scipy is a test dependency only, and no command loads a thread pool
    @pytest.mark.parametrize("prefix", ("scipy", "concurrent"))
    def test_import_loads_no(self, prefix):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, tontine.cli; "
             f"print(sorted(m for m in sys.modules if m.startswith({prefix!r})))"],
            capture_output=True, text=True, env=src_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    # modules no command runs: np.unique loads numpy.ma, leggauss
    # numpy.polynomial, a thread pool concurrent.futures and logging, and
    # Fraction fractions and decimal; scipy is a test dependency only
    @pytest.mark.parametrize("command", tuple(cli.COMMANDS))
    def test_command_loads_only_what_it_runs(self, tmp_path, command):
        argv = [command, "--out", str(tmp_path if command == "figures" else tmp_path / "out.csv")]
        if command == "fit":
            synthetic_life_table_csv(tmp_path / "table.csv", BENCH)
            argv += ["--table", str(tmp_path / "table.csv")]
        if command == "verify":
            argv += ["--paths", "2000"]
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from tontine.cli import main; "
             f"code = main({argv!r}); "
             f"print(code, sorted(m for m in sys.modules if m in {UNRUN_MODULES!r} "
             f"or m.startswith(tuple(p + '.' for p in {UNRUN_MODULES!r}))))"],
            capture_output=True, text=True, env=src_env(), timeout=300,
        )
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        assert proc.stdout.strip() == "0 []"

    def test_fit_loads_no_scipy(self, tmp_path):
        table = tmp_path / "table.csv"
        synthetic_life_table_csv(table, BENCH)
        out = tmp_path / "fit.csv"
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from tontine.cli import main; "
             f"code = main(['fit', '--table', {str(table)!r}, '--out', {str(out)!r}]); "
             "print(code, sorted(m for m in sys.modules if m.startswith('scipy')))"],
            capture_output=True, text=True, env=src_env(), timeout=120,
        )
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        assert proc.stdout.strip() == "0 []"
        assert out.exists()


class TestDefaults:
    def test_default_keys_are_sorted_and_complete(self):
        assert VALID_KEYS == tuple(sorted(DEFAULTS))
        assert set(cli._FLAGS) <= set(DEFAULTS)

    def test_every_command_has_a_handler_and_an_output(self):
        assert tuple(cli.COMMANDS) == (
            "fit", "calibrate", "schedule", "income", "simulate", "verify", "figures")
        for handler, out in cli.COMMANDS.values():
            assert callable(handler) and out


# sha256 of every CSV each command writes at its defaults; `fit` reads the
# noise-free table of the default hazard constants from base age 65.
DEFAULT_CSV_SHA256 = {
    "fit": {
        "fit.csv": "1748e9a6dd7a8e7a304d93031fa314e0bdaa1fabbfff4e71fd0be33c3ec8dfa6",
    },
    "calibrate": {
        "calibrate.csv": "8b7ef2eeb5044c8130b27e133bc346658a7e7e387d629e1dc8f6f492405e4105",
    },
    "schedule": {
        "schedule.csv": "76394678d0fba5b32187b6504d0e177270f3df3f4efaace7607ef8a9e13cf41e",
    },
    "income": {
        "income.csv": "9ef3fe3035ff4b6ad2775fede8715d3af6209fe7d8e0b7a86402ffbf89975fc4",
    },
    "simulate": {
        "simulate.csv": "c05a109de29da3b6d8d5f74a6c6fb6b45d42cd095a2ebde319b233b12d8f519e",
    },
    "verify": {
        "verify.csv": "2ac5e41774f4bd3fbfaa7f43dff6d5b86eceb508cc8b318ab4c53c9a888c252f",
    },
    "figures": {
        "fig1.csv": "6c07e7bcf47bf8933590ea270ec54049f2bc139c163958051c059aa9c687d3bf",
        "fig2.csv": "171da499258e6afe603cc707fe13f1791bb8d1124f2feb86f3f5884c5988cab3",
        "fig3.csv": "a7b06559da9b11438f070d6de4997267da1f91f22bc2148f69d7800af2b99725",
        "fig4.csv": "a734ef26e66a670db3a426d658ffffe050c64d7969c7f421b0274ddffda96842",
        "merton.csv": "a5919205d11d1c1fd021a4d42503b382f1c5a71e157ba9d9caf3466ea3d990d1",
        "kappas.csv": "181c458686b7af246a1e57ce4565333f41fec304223f646e5cb962a08f8c7fa1",
        "income0.csv": "b3abba74ea16d03ccea68b6514796ef3b02d170d75e489f6cd573c6a29e5bdd4",
    },
}


class TestDefaultBytes:
    @pytest.mark.parametrize("command", sorted(DEFAULT_CSV_SHA256))
    def test_sha256_at_defaults(self, tmp_path, capsys, command):
        outdir = tmp_path / "out"
        outdir.mkdir()
        out = outdir if command == "figures" else outdir / f"{command}.csv"
        argv = [command, "--out", str(out)]
        if command == "fit":
            synthetic_life_table_csv(tmp_path / "table.csv", BENCH, base_age=65)
            argv += ["--table", str(tmp_path / "table.csv")]
        code, _, err = run_cli(argv, capsys)
        assert code == 0 and err == ""
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in outdir.iterdir()}
        assert digests == DEFAULT_CSV_SHA256[command]


# Config-file fuzzing: every key but `out` takes its default or one of
# FUZZ_TOKENS (0.95 puts gamma next to 1; 1e300 and -100 are huge but finite),
# and `variant` also any variant name.  The path count starts at 16, and
# base ages that would lengthen the horizon are not drawn, so no draw costs
# more than the defaults.
FUZZ_TOKENS = ("nan", "inf", "-1", "0", "abc", "1/0", "auto", "1e400", "0.95", "1e300", "-100")
FUZZ_DEFAULTS = {**{k: str(v) for k, v in DEFAULTS.items() if k != "out"}, "paths": "16"}
LONGER_HORIZON = {("base_age", "0"), ("base_age", "-1"), ("base_age", "0.95"),
                  ("base_age", "-100")}
ERROR_LINE = re.compile(r"error: (USAGE|CONFIG|DATA|CALIBRATION|IO|RUNTIME): \S[^\n]*\n")


def fuzz_value(key):
    tokens = [t for t in FUZZ_TOKENS if (key, t) not in LONGER_HORIZON]
    names = VARIANTS if key == "variant" else ()
    return st.sampled_from([FUZZ_DEFAULTS[key], *tokens, *names])


fuzz_overrides = st.lists(st.sampled_from(sorted(FUZZ_DEFAULTS)), unique=True, max_size=3).flatmap(
    lambda keys: st.fixed_dictionaries({k: fuzz_value(k) for k in keys}))


def numeric_cells(path):
    """Every cell of a CSV body that parses as a float."""
    _, rows = read_csv(path)
    cells = []
    for cell in (c for row in rows for c in row):
        try:
            cells.append(float(cell))
        except ValueError:
            pass
    return cells


class TestConfigFuzz:
    @pytest.mark.parametrize("command", ["calibrate", "schedule", "income", "simulate"])
    @given(overrides=fuzz_overrides)
    @settings(max_examples=100, deadline=None)
    def test_one_outcome_and_no_stray_files(self, command, overrides):
        with tempfile.TemporaryDirectory() as tmp:
            config = os.path.join(tmp, "run.cfg")
            with open(config, "w", encoding="utf-8") as fh:
                fh.writelines(f"{k} = {v}\n" for k, v in {**FUZZ_DEFAULTS, **overrides}.items())
            out = os.path.join(tmp, "out.csv")
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([command, "--config", config, "--out", out])
            files = sorted(os.listdir(tmp))
            cells = numeric_cells(out) if code == 0 else []
        err = err.getvalue()
        if code == 0:
            # library notes only: no numpy "... encountered in ..." warning
            assert all(line.startswith("warning: ") and " encountered " not in line
                       for line in err.splitlines()), (overrides, err)
            assert files == ["out.csv", "run.cfg"]
            # calibrate's infeasible row `nan,inf,false` is documented output
            if command != "calibrate":
                assert all(math.isfinite(v) for v in cells), (overrides, cells)
        else:
            assert code == 2 and ERROR_LINE.fullmatch(err), err
            assert files == ["run.cfg"]
