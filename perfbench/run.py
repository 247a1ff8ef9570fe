"""Benchmark of the tontine package: one workload, one seed, one run.

    python3 perfbench/run.py --workload {mc_audit,cli_cold} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The package is imported from ``src`` (as the
tests import it) and the oracles from ``tests/helpers.py``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json, measured untraced; with ``--trace 1`` they are its per-layer
metrics, from a run that wraps every module's public functions in spans.  The
lines before it are a readable report, and the run record (metadata, per-pass
numbers, output digests, spans) is written under ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

# One BLAS/OpenMP thread: the load is this single process (and, for cli_cold,
# one child at a time), which keeps runs steady on a small machine.  Set
# before numpy is first imported, here and in every child.
THREAD_CAPS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
OUT = ROOT / ".perfbench_out"

# At least this many set-up probes per run: one before each pass, then more.
SETUP_RUNS = 5
IMPORTTIME_RUNS = 3
# p90 is reported only with at least this many operations pooled, so that at
# least ten samples lie beyond it.
P90_MIN_OPS = 100


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("mc_audit", "cli_cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metadata() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30, check=False)
            sha = done.stdout.strip() or None
        except OSError:
            pass  # no git: the source digest still identifies the code
    source = hashlib.sha256()
    for path in sorted((SRC / "tontine").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "source_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "thread_caps": {k: os.environ[k] for k in THREAD_CAPS},
        "machine": platform.machine(),
    }


def process_threads() -> int | None:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def import_breakdown(text: str) -> dict[str, float]:
    """Seconds of `import tontine` and of the numpy and scipy imports inside it.

    ``-X importtime`` prints one line per module, children before parents,
    with the nesting depth in the indentation.  A package's share is the
    cumulative time of its outermost entries, so whatever it imports in turn
    is charged to it.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, name.strip(), int(cumulative)))
    totals = {"import.tontine_s": 0.0, "import.numpy_s": 0.0, "import.scipy_s": 0.0}
    ancestors: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        package = name.split(".", 1)[0]
        key = f"import.{package}_s"
        if key in totals and all(a[1].split(".", 1)[0] != package for a in ancestors):
            totals[key] += cumulative * 1e-6
        ancestors.append((depth, name))
    return totals


def run_for(seconds: float, one_round) -> list:
    """Repeat ``one_round`` while the next one is expected to end in time (at least once)."""
    results, took = [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        results.append(one_round())
        took.append(perf_counter() - t0)
        if perf_counter() - start + median(took) > seconds:
            return results


def check_all(wl, passes) -> None:
    """Check every pass's outputs (after all timing), then let them go."""
    for pass_ in passes:
        wl.check(pass_)
        pass_.outputs = None


def count_ops(passes) -> tuple[int, int]:
    ops = [op for p in passes for op in p.ops]
    return len(ops), sum(1 for op in ops if op.problems)


def measure(wl, args, workdir: Path, record: dict) -> dict[str, float]:
    """Untraced run: the end-to-end metrics."""
    from workloads import spawn

    probe = workdir / "setup-probe"
    setup = []

    def set_up() -> None:
        probe.mkdir()
        child = spawn([sys.executable, str(HERE / "setup_child.py"), args.workload,
                       str(args.seed), str(probe)], workdir)
        shutil.rmtree(probe)
        if child.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {child.stderr.strip()}")
        setup.append(child.seconds)

    # The machine's speed drifts over seconds, so set-up probes are spread
    # between the passes rather than taken in one burst.
    def one_round():
        set_up()
        return wl.run_pass()

    passes = run_for(args.seconds, one_round)
    while len(setup) < SETUP_RUNS:
        set_up()
    check_all(wl, passes)
    latencies = sorted(op.seconds for p in passes for op in p.ops)
    # In-process workloads: the high-water mark at the end of the first pass's
    # timed region.  cli_cold: the median over passes of the largest child.
    rss = median(p.rss_mb for p in passes) if wl.cold else passes[0].rss_mb
    record.update(setup_s=setup, passes=passes)
    record["op_samples"] = len(latencies)
    if len(latencies) >= P90_MIN_OPS:
        record["op_p90_s"] = latencies[int(0.9 * len(latencies))]
    else:
        record["op_p90_s"] = (f"omitted: {len(latencies)} operations pooled, fewer than "
                              f"the {P90_MIN_OPS} that leave ten samples beyond p90")
    return {
        "setup_s": median(setup),
        "wall_s": median(p.wall for p in passes),
        "op_p50_s": median(latencies),
        "peak_rss_mb": rss,
    }


def measure_traced(wl, args, workdir: Path, record: dict) -> dict[str, float]:
    """Traced run: per-layer metrics, and the tracing overhead."""
    import workloads
    from spans import Tracer, inclusive_seconds, layer_metrics, write_spans
    from workloads import spawn

    imports = []
    for _ in range(IMPORTTIME_RUNS):
        child = spawn([sys.executable, "-X", "importtime", "-c", "import tontine"], workdir)
        imports.append(import_breakdown(child.stderr))

    def one_round():
        plain = wl.run_pass()
        # cli_cold's traced pass runs in-process, so its overhead is measured
        # against an untraced in-process pass.
        twin = wl.run_pass(in_process=True) if wl.cold else plain
        tracer = Tracer()
        traced = wl.run_pass(tracer)
        return plain, twin, traced, tracer

    rounds = run_for(args.seconds, one_round)
    plain, twin, traced, tracers = (list(x) for x in zip(*rounds))
    check_all(wl, plain + (twin if wl.cold else []) + traced)
    layers = [layer_metrics(t) for t in tracers]

    out: dict[str, float] = {}
    for key in ("import.tontine_s", "import.numpy_s", "import.scipy_s"):
        out[key] = median(i[key] for i in imports)
    for key in layers[0]:
        numbers = [layer[key] for layer in layers]
        out[key] = median(numbers) if key.endswith("_s") else numbers[0]
    simulated = median(inclusive_seconds(t, "simulate.simulate_wealth") for t in tracers)
    out["simulate.path_steps_per_s"] = out["simulate.path_steps"] / simulated if simulated else 0.0
    for command in workloads.CLI_COMMANDS:
        walls = [op.seconds for p in plain for op in p.ops if op.name == command]
        out[f"cli.{command}_s"] = median(walls) if wl.cold else 0.0
    out["cli.bytes_written"] = plain[0].bytes_written
    if wl.cold:
        out["cli.fail"] = count_ops(plain + twin + traced)[1]
    for key in ("controls.quad_rel_err_max", "preferences.kappa_residual_max",
                "simulate.mart_z_max"):
        out[key] = max((p.health.get(key, 0.0) for p in plain + traced), default=0.0)
    out["simulate.objective_wins"] = min(p.health.get("simulate.objective_wins", 0)
                                         for p in plain + traced)
    untraced_wall = median(p.wall for p in twin)
    traced_wall = median(p.wall for p in traced)
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.traced_wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - untraced_wall
    out["trace.spans"] = len(tracers[0].spans)

    spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl.gz"
    write_spans(spans_path, tracers)
    record.update(imports=imports, passes=plain + (twin if wl.cold else []) + traced,
                  spans_file=str(spans_path.relative_to(ROOT)))
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in (SRC / "tontine" / "__init__.py",
                                                  TESTS / "helpers.py") if not p.is_file()]
    if missing:
        print(f"error: run from a checkout of the repository; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    os.environ.update(THREAD_CAPS)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path[:0] = [str(SRC), str(TESTS)]
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    record: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "metadata": metadata()}
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        measured = (measure_traced if args.trace else measure)(wl, args, workdir, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record["metadata"]["threads"] = process_threads()
    attempted, failed = count_ops(record["passes"])
    missing_metrics = [m["name"] for m in wanted if m["name"] not in measured]
    if missing_metrics:
        print(f"error: metrics not measured: {', '.join(missing_metrics)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}

    passes = record.pop("passes")
    record["metrics"] = metrics
    record["pass_walls_s"] = [p.wall for p in passes]
    record["ops"] = [[op.name, op.seconds, op.problems] for p in passes for op in p.ops]
    record["digests"] = passes[0].digests
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  operations {attempted}  failed {failed}")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"  op_p50_s over {record['op_samples']} operations; op_p90_s: {record['op_p90_s']}")
    for op_name, _, problems in record["ops"]:
        for problem in problems:
            print(f"  FAILED {op_name}: {problem}")
    print(f"  metadata: {json.dumps(record['metadata'])}")
    for name, digest in record["digests"].items():
        print(f"  sha256 {name} {digest}")
    print(f"  run record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
