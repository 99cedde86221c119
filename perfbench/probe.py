"""One set-up sample for run.py, in a fresh interpreter.

    python3 perfbench/probe.py WORKLOAD SEED

Does what run.py does between its start and its first timed operation
(import the program, build the first operation's input) and prints the
seconds that took. Interpreter start is not included.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402

next(iter(workloads.WORKLOADS[sys.argv[1]].round(int(sys.argv[2]), 0)))
print(time.perf_counter() - T0)
