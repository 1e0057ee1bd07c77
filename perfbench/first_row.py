"""Set-up probe: a fresh interpreter imports mazersim and completes the
first row of one workload.  run.py times it from outside, so the figure
includes interpreter start-up.

    python3 perfbench/first_row.py <workload> <seed>
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    scratch = HERE.parent / ".perfbench" / "tmp" / "setup"
    scratch.mkdir(parents=True, exist_ok=True)
    workloads.first_row(sys.argv[1], int(sys.argv[2]), scratch)
