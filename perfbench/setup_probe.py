"""Set-up time of one workload in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <workload>

Makes the workload's first input at the default seed, then times
``import goldennugget`` plus the first operation on it, and prints the
seconds taken at reference speed (see reference.py).  The input does not
depend on the run's seed, so the figure measures set-up, not which input was
drawn.  Making the input is not timed.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from reference import Speed  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

workload = WORKLOADS[sys.argv[1]]
first = next(iter(workload.inputs(DEFAULT_SEED)))
speed = Speed(every=0.0)
for _ in range(5):
    scale = speed.update()
start = time.perf_counter()
import goldennugget  # noqa: E402,F401

workload.bind()(first)
print((time.perf_counter() - start) * scale)
