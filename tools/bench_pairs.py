"""Alternating parent/change pairs of the benchmark, summarised as a BENCH_*.json.

Usage:
    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_N.json
        [--workloads NAME ...] [--parent-rev REV] [--change-text TEXT]
        [--machine TEXT]

Each DIR is a checkout of one side, for example made with
``git archive REV | tar -x -C DIR``.  Every run is
``python3 perfbench/run.py --workload W --seed S --seconds S`` with the
checkout as working directory and ``PYTHONDONTWRITEBYTECODE=1``, one run at
a time.  There are always 10 pairs, the number the gain rule is stated for.
Pair i uses seed i, and runs the parent first when i is even and the change
first when i is odd, workload by workload.  After the pairs, each
side makes one traced run per workload at seed 0 (``--trace 1 --seconds 2``),
and the per-layer figures are recorded as they came.

The workloads, the run length (``run_seconds``) and each metric's bound come
from the change checkout's BENCHMARK.json.  A metric's verdict is

- "unresolved" when either side's IQR exceeds the bound (as a fraction of the
  parent median) and the two sides' runs overlap;
- "better" by the gain rule, unless a larger share of the change's operations
  failed than of the parent's;
- "worse beyond bound" when the change median is worse than the parent median
  by more than the bound;
- "within bound" otherwise.  The file is rewritten after every pair, so an
interrupted series keeps the pairs it finished.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

RUN = ["python3", "perfbench/run.py"]
PAIRS = 10
TRACE_SECONDS = 2


def run(checkout: Path, args: list[str]) -> tuple[dict, str]:
    """One benchmark run: its result object (the last stdout line) and its env line."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(RUN + args, cwd=checkout, env=env, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode or not lines:
        sys.exit(f"run failed in {checkout}: {' '.join(args)}\n{done.stderr}")
    env_line = next((line[4:] for line in lines if line.startswith("env ")), "")
    return json.loads(lines[-1]), env_line


def quartiles(values: list[float]) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarise(spec: dict, parent: list[float], change: list[float],
              more_failures: bool) -> dict:
    """Medians, spreads, wins and verdict of one metric on one workload;
    ``more_failures`` says a larger share of the change's operations failed."""
    sign = 1 if spec["better"] == "higher" else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    (p1, p3), (c1, c3) = quartiles(parent), quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    separate = min(change) > max(parent) or max(change) < min(parent)
    if max(p3 - p1, c3 - c1) > spec["bound"] * abs(p_med) and not separate:
        verdict = "unresolved"
    elif (not more_failures and wins * 10 >= 9 * PAIRS
          and sign * (c_med - p_med) > p3 - p1):
        verdict = "better"
    elif sign * (p_med - c_med) > spec["bound"] * abs(p_med):
        verdict = "worse beyond bound"
    else:
        verdict = "within bound"
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "parent_median": round(p_med, 6),
        "change_median": round(c_med, 6),
        "parent_iqr": round(p3 - p1, 6),
        "change_iqr": round(c3 - c1, 6),
        "ratio": round(c_med / p_med, 4) if p_med else None,
        "wins": f"{wins}/{len(parent)}",
        "parent_runs": [round(v, 6) for v in parent],
        "change_runs": [round(v, 6) for v in change],
        "verdict": verdict,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--parent-rev", default="")
    parser.add_argument("--change-text", default="")
    parser.add_argument("--machine", default="")
    args = parser.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    sides = {"parent": args.parent, "change": args.change}
    results = {w: {side: [] for side in sides} for w in workloads}
    envs: list[str] = []
    seeds: list[int] = []

    def report(traced=None) -> dict:
        out = {
            "change": args.change_text,
            "parent": args.parent_rev,
            "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g}"
                       " (run_seconds of BENCHMARK.json), PYTHONDONTWRITEBYTECODE=1,"
                       " each side from its own checkout",
            "pairs": len(seeds),
            "order": "pair i runs the parent first when i is even and the change first"
                     " when i is odd, workload by workload",
            "seeds": seeds,
            "quartiles": "statistics.quantiles(n=4, method='inclusive'); iqr = q3 - q1",
            "wins": "pairs in which the change reads better than the parent; ties count for neither",
            "gain_rule": "wins >= 9/10 of pairs and |median change - median parent| > parent iqr,"
                         " in the better direction, and no larger share of failed operations"
                         " than the parent",
            "regression_rule": "median change worse than median parent by more than the"
                               " BENCHMARK.json bound (a fraction of the parent median)",
            "unresolved_rule": "either side's iqr above the bound times |median parent|, and"
                               " the parent and change runs overlap; checked first",
            "env": {"first": envs[0], "last": envs[-1]} if envs else {},
            "workloads": {},
        }
        for w, by_side in results.items():
            if len(by_side["parent"]) < 2:
                continue
            totals = out["workloads"][w] = {
                key: {side: (all(r[key] for r in runs) if key == "correct"
                             else sum(r[key] for r in runs))
                      for side, runs in by_side.items()}
                for key in ("correct", "attempted", "failed")
            }
            share = {side: totals["failed"][side] / max(totals["attempted"][side], 1)
                     for side in sides}
            totals["metrics"] = {
                name: summarise(spec, *([r["metrics"][name]["value"] for r in by_side[side]]
                                        for side in sides),
                                more_failures=share["change"] > share["parent"])
                for name, spec in specs.items()
            }
        if traced:
            out["traced_seed0"] = traced
        out["machine"] = args.machine
        return out

    def write(traced=None) -> None:
        args.out.write_text(json.dumps(report(traced), indent=1) + "\n")

    for i in range(PAIRS):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for w in workloads:
            for side in order:
                result, env_line = run(sides[side], ["--workload", w, "--seed", str(i),
                                                     "--seconds", f"{seconds:g}"])
                results[w][side].append(result)
                envs.append(env_line)
                print(f"pair {i} {w} {side} ops_per_s"
                      f" {result['metrics']['ops_per_s']['value']:.6g}", flush=True)
        seeds.append(i)
        write()
    traced = {
        "command": f"python3 perfbench/run.py --workload W --seconds {TRACE_SECONDS} --seed 0 --trace 1",
        "workloads": {},
    }
    for w in workloads:
        traced["workloads"][w] = {}
        for side in sides:
            result, _ = run(sides[side], ["--workload", w, "--seconds", str(TRACE_SECONDS),
                                          "--seed", "0", "--trace", "1"])
            traced["workloads"][w][side] = {
                **{name: m["value"] for name, m in result["metrics"].items()},
                "correct": result["correct"],
            }
    write(traced)
    return 0


if __name__ == "__main__":
    sys.exit(main())
