"""The benchmark tracer's pins, checked on a short traced run of the solve workload."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# run in its own process, as the tracer rebinds the package's functions for good
TRACED_SOLVES = """
import itertools, json, sys
sys.path[:0] = sys.argv[1:3]
from tracer import Tracer
from workloads import WORKLOADS

workload = WORKLOADS["solve_cli"]
op = workload.bind()
tracer = Tracer()
tracer.install()
tracer.on = True
for argv in itertools.islice(workload.inputs(0), 12):
    op(argv)
print(json.dumps(tracer.self_check("solve_cli")))
"""


def test_every_function_pinned_to_the_solve_workload_fires_on_its_first_commands():
    # the self-check of perfbench/run.py --trace 1, on the first 12 commands of the seed-0 deck
    done = subprocess.run([sys.executable, "-c", TRACED_SOLVES, str(ROOT / "src"), str(ROOT / "perfbench")],
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == []
