"""Set-up probe: a fresh interpreter imports tontine and builds one workload's
first-pass inputs.

    python3 perfbench/setup_child.py <workload> <seed> <scratch directory>

run.py times this process from spawn to exit as the set-up time (setup_s).
"""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import workloads  # noqa: E402  (imports tontine)

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), Path(sys.argv[3])).inputs(0)
