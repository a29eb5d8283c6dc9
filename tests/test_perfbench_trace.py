"""The benchmark tracer's pins, checked on a short traced run of every workload."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# run in its own process, as the tracer rebinds the package's functions for good;
# as in perfbench/run.py, the tracer is on during each operation and off during
# its answer check, and each workload's self-check sees only its own calls
TRACED_RUNS = """
import itertools, json, sys
sys.path[:0] = sys.argv[1:3]
from tracer import Tracer
from workloads import WORKLOADS

counts = {"classifier_stream.small": 200, "classifier_stream.big": 200, "oracle_sweep": 61, "solve_cli": 12}
ops = {name: WORKLOADS[name].bind() for name in counts}
tracer = Tracer()
tracer.install()
problems = {}
for name, count in counts.items():
    workload = WORKLOADS[name]
    for stat in tracer.stats.values():
        stat.calls = stat.calls_off = 0
    problems[name] = []
    for x in itertools.islice(workload.inputs(0), count):
        tracer.on = True
        result = ops[name](x)
        tracer.on = False
        if not workload.check(x, result):
            problems[name].append(f"wrong answer for {x!r}")
    problems[name] += tracer.self_check(name)
print(json.dumps(problems))
"""


def test_every_pinned_function_fires_on_its_workload():
    # the self-check of perfbench/run.py --trace 1, on the first operations of each seed-0 workload
    done = subprocess.run([sys.executable, "-c", TRACED_RUNS, str(ROOT / "src"), str(ROOT / "perfbench")],
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == dict.fromkeys(
        ["classifier_stream.small", "classifier_stream.big", "oracle_sweep", "solve_cli"], [])
