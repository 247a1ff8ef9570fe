"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Feeds the CLI checker the in-process default-setting CSVs, untouched and
with one value wrong: D(t) or c* off by one part in a million, alpha* or a
figure's alpha curve off by 1e-4, an income off by one part in a million, a
kappa off by one part in ten million.  Each wrong value is put into the
reference too, as a defect that the CLI and the library share would be, so
only the oracles can catch it.  It also feeds CSVs with one value tampered
or made non-finite, a missing CSV and a stray stderr line.  It exits nonzero
unless every wrong output is counted as a failure and the untouched ones pass.
"""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import workloads  # noqa: E402


def _with_value(text: str, t, column: str, change) -> str:
    """The CSV with one cell replaced by ``change(value)``: the row at time
    ``t`` (the first data row when ``t`` is None) and the named column."""
    lines = text.splitlines()
    col = lines[0].split(",").index(column)
    row = next(i for i, line in enumerate(lines[1:], start=1)
               if t is None or abs(float(line.split(",")[0]) - t) < 1e-9)
    cells = lines[row].split(",")
    cells[col] = format(change(float(cells[col])), ".12g")
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def fails(name: str, text: str | None, reference: str, oracles, stderr: str = "") -> bool:
    return bool(workloads.check_command(0, stderr, {name: text}, {name: reference}, oracles, {}))


def main() -> int:
    cold = workloads.CliCold(seed=0, workdir=ROOT)
    refs, oracles = cold.references(), cold.oracles()
    errors = [f"the untouched {name} failed its check" for name, text in refs.items()
              if fails(name, text, text, oracles)]

    shared_defects = {
        "D(10) off by 1e-6 relative": ("schedule.csv", 10.0, "D", lambda v: v * (1 + 1e-6)),
        "c_star(30) off by 1e-6 relative": (
            "schedule.csv", 30.0, "c_star", lambda v: v * (1 + 1e-6)),
        "alpha_star(10) off by 1e-4": ("schedule.csv", 10.0, "alpha_star", lambda v: v + 1e-4),
        "a figure's alpha(10) off by 1e-4": ("fig3.csv", 10.0, "alpha_-3", lambda v: v + 1e-4),
        "income(30) off by 1e-6 relative": (
            "income.csv", 30.0, "expected_income", lambda v: v * (1 + 1e-6)),
        "kappa off by 1e-7 relative": ("calibrate.csv", None, "kappa", lambda v: v * (1 + 1e-7)),
    }
    for label, (name, t, column, change) in shared_defects.items():
        wrong = _with_value(refs[name], t, column, change)
        if not fails(name, wrong, wrong, oracles):
            errors.append(f"{label}, in the CSV and the library alike, passed the check")

    text = refs["schedule.csv"]
    tampered = _with_value(text, 5 / 52, "c_star", lambda v: v * (1 + 1e-6))
    non_finite = _with_value(text, 7 / 52, "D", lambda v: float("nan"))
    for label, variant in (("a tampered value", tampered), ("a non-finite value", non_finite)):
        if not fails("schedule.csv", variant, text, oracles):
            errors.append(f"a CSV with {label} passed the check")
    if not fails("schedule.csv", None, text, oracles):
        errors.append("a missing CSV passed the check")
    if not fails("schedule.csv", text, text, oracles, stderr="warning: x\n"):
        errors.append("output on stderr passed the check")

    for error in errors:
        print(f"FAIL: {error}")
    print("selftest:", "FAILED" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
