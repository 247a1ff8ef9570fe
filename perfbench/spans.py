"""Span tracer for the traced benchmark run.

The tracer wraps every public function of the package's modules at every
place it is bound (the defining module, the package namespace, and each
module that imported it by name), so a call is recorded whichever binding the
caller used.  Spans (name, start, end, parent, operation id, failed) stay in
memory; layer self times and counts are derived from them after the pass.
"""
from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from pathlib import Path
from time import perf_counter

# Modules traced, in the order they are reported.  Each one is a layer.
MODULES = ("cli", "analytics", "controls", "preferences", "mortality", "simulate")

# Wrapped function -> metric group.  Functions outside this table still count
# toward their module's totals (<module>.self_s, <module>.fail).
GROUPS = {
    "mortality.fit_gompertz_makeham": "mortality.fit",
    "mortality.force_of_mortality": "mortality.hazard",
    "mortality.cumulative_hazard": "mortality.hazard",
    "mortality.survival": "mortality.hazard",
    "preferences.bequest_weight": "preferences.weight",
    "preferences.log_transformed_weight": "preferences.weight",
    "preferences.calibrate_kappa": "preferences.calibrate",
    "controls.log_denominator_integral": "controls.log_denominator",
    "controls.build_control_schedule": "controls.build_schedule",
    "analytics.alpha_curve": "analytics.alpha_curve",
    "analytics.income_curve": "analytics.income_curve",
    "simulate.simulate_wealth": "simulate.simulate_wealth",
    "simulate.check_supermartingale": "simulate.check",
    "simulate.objective_estimate": "simulate.check",
}

# Work counts taken from return values at the same boundaries.  income_curve
# is not counted: its points are those of the alpha_curve call inside it.
COUNTS = {
    "controls.build_control_schedule": ("controls.grid_points", lambda res: len(res.grid)),
    "analytics.alpha_curve": ("analytics.curve_points", len),
    "simulate.simulate_wealth": (
        "simulate.path_steps", lambda res: res.n_paths * round(res.horizon / res.step)
    ),
}

NAME, START, END, PARENT, OP, FAILED = range(6)


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


class Tracer:
    """Records spans around every binding of the traced modules' public functions."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.op: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[dict, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if count is not None:
                counts[count[0]] = counts.get(count[0], 0) + count[1](result)
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for short in MODULES:
            module = sys.modules[f"tontine.{short}"]
            for name, fn in _public_functions(module):
                wrappers[fn] = self._wrap(f"{short}.{name}", fn)
        namespaces = [vars(m) for n, m in list(sys.modules.items())
                      if n == "tontine" or n.startswith("tontine.")]
        for ns in namespaces:
            for key, value in list(ns.items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((ns, key, value))
                    ns[key] = wrappers[value]

    def uninstall(self) -> None:
        while self._patched:
            ns, key, original = self._patched.pop()
            ns[key] = original

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct child spans cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    return [s[END] - s[START] - c for s, c in zip(spans, covered)]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-group calls and self time, per-module self time and failures, and counts."""
    out: dict[str, float] = {}
    for group in sorted(set(GROUPS.values())):
        out[f"{group}.calls"] = 0
        out[f"{group}.self_s"] = 0.0
    for module in MODULES:
        out[f"{module}.self_s"] = 0.0
        out[f"{module}.fail"] = 0
    for metric, _ in COUNTS.values():
        out[metric] = 0
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        name = span[NAME]
        module = name.split(".", 1)[0]
        out[f"{module}.self_s"] += own
        out[f"{module}.fail"] += int(span[FAILED])
        group = GROUPS.get(name)
        if group is not None:
            out[f"{group}.calls"] += 1
            out[f"{group}.self_s"] += own
    out.update(tracer.counts)
    return out


def inclusive_seconds(tracer: Tracer, name: str) -> float:
    return sum(s[END] - s[START] for s in tracer.spans if s[NAME] == name)


def write_spans(path: Path, passes: list[Tracer]) -> None:
    """Write every traced pass's spans as gzipped JSON lines."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for index, tracer in enumerate(passes):
            for span in tracer.spans:
                fh.write(json.dumps({"pass": index, "name": span[NAME], "start": span[START],
                                     "end": span[END], "parent": span[PARENT],
                                     "op": span[OP], "failed": span[FAILED]}) + "\n")
