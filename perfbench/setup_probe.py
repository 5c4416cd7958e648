"""Time one set-up in a fresh interpreter: import squeezelab and build inputs.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
Prints the elapsed seconds as its only line.
"""

import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (the import is what is being timed)

workloads.WORKLOADS[sys.argv[1]].make_inputs(int(sys.argv[2]))
print(repr(time.perf_counter() - t0))
