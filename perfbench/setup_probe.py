"""Time package import plus one workload's set-up in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

Prints the seconds taken; run.py takes the median of several probes.
"""

import sys
from pathlib import Path
from time import perf_counter

t0 = perf_counter()
import workloads  # noqa: E402  (the package import is what is timed)

workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
workdir.mkdir(parents=True, exist_ok=True)
workloads.WORKLOADS[workload].setup(workdir, seed)
print(perf_counter() - t0)
