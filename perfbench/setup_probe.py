"""Set-up time of a fresh process: import fkm_willmore, build a grid's systems.

    python3 perfbench/setup_probe.py 1:3,1:4,2:2

Prints the seconds from the first statement to the last system built.
Interpreter start-up is not included.  run.py starts this script several
times, one process after another, and reports the median.
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import fkm_willmore  # noqa: E402

for token in sys.argv[1].split(","):
    m, k = token.split(":")
    fkm_willmore.build_clifford_system(int(m), int(k))
print(repr(time.perf_counter() - START))
