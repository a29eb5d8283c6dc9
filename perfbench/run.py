"""Benchmark of the goldennugget package: one workload per run.

Usage:
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Workloads are listed in
``perfbench/workloads.py`` and explained in ``perfbench/README.md``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Lines before it
repeat the metrics for people, together with the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

from reference import Speed  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_PROBES = 5
# Latencies kept from a streamed workload: a uniform sample of at most this
# many, in buffers allocated up front, so peak memory does not grow with the
# number of operations a run makes.
SAMPLE_SIZE = 200_000
# Timings, at reference speed (see reference.py), come from the fastest
# quarter of a run: of its batches for a streamed workload, of each
# operation's passes for a replayed one.  What the reference loop does not
# catch of the box's slow spells then stays out of the figures.  The batches
# of a stream hold the same mix of work and a replay repeats the same
# operations, so the fastest quarter differs from the rest in the machine,
# not in the inputs.
CALM_SHARE = 0.25


def _calm_mean(times) -> float:
    fastest = sorted(times)[: max(1, int(len(times) * CALM_SHARE))]
    return sum(fastest) / len(fastest)


class Loop:
    """What one closed-loop pass over a workload measured."""

    def __init__(self, workload):
        self.batch = workload.batch
        self.replayed = workload.replayed
        self.ops = 0
        self.failed = 0
        self.busy = 0.0  # seconds inside the operations
        self.batches: list[float] = []  # busy seconds of each whole batch
        if self.replayed:
            # for each operation of the batch, its latency in every pass
            self.passes = [array("d") for _ in range(workload.batch)]
        else:
            # a uniform sample of the latencies, and the batch of each
            self.sample = array("d", bytes(8 * SAMPLE_SIZE))
            self.sample_batch = array("q", bytes(8 * SAMPLE_SIZE))
            self.sampler = random.Random(0)
        self.peak_rss_mb = 0.0  # of this process, when the loop ended
        self.prefix_digest = ""  # over the workload's first digest_ops outputs
        self.batch_digests: list[str] = []  # over the outputs up to each batch's end

    def record(self, took: float) -> None:
        """Keep the latency of operation number ``self.ops``."""
        if self.replayed:
            self.passes[self.ops % self.batch].append(took)
            return
        slot = self.ops if self.ops < SAMPLE_SIZE else self.sampler.randrange(self.ops + 1)
        if slot < SAMPLE_SIZE:
            self.sample[slot] = took
            self.sample_batch[slot] = len(self.batches)

    def calm_latencies(self) -> list[float]:
        """Sorted operation latencies over the fastest quarter of the run."""
        if self.replayed:
            return sorted(_calm_mean(times) for times in self.passes)
        cutoff = sorted(self.batches)[max(1, int(len(self.batches) * CALM_SHARE)) - 1]
        calm = {b for b, busy in enumerate(self.batches) if busy <= cutoff}
        kept = min(self.ops, SAMPLE_SIZE)
        return sorted(t for t, b in zip(self.sample[:kept], self.sample_batch[:kept]) if b in calm)

    def calm_ops_per_s(self) -> float:
        if self.replayed:
            return self.batch / sum(self.calm_latencies())
        return self.batch / _calm_mean(self.batches)


def run_loop(workload, op, seed: int, seconds: float = 0.0, count: int = 0,
             at_least: int = 0, tracer=None) -> Loop:
    """Run operations one after another until ``seconds`` have passed and
    at least ``at_least`` and the workload's minimum are done, or, when
    ``count`` is given, for ``count`` operations.  Only the operation is
    timed, at reference speed; its answer is checked after."""
    loop = Loop(workload)
    prefix, full = hashlib.sha256(), hashlib.sha256()
    batch_busy = 0.0
    least = max(workload.min_ops, at_least)
    speed = Speed()
    start = time.perf_counter()
    for x in workload.inputs(seed):
        scale = speed.update()
        if tracer:
            tracer.on = True
            tracer.scale = scale
        began = time.perf_counter()
        try:
            result = op(x)
            error = None
        except Exception as exc:  # a raising operation counts as failed
            error = exc
        took = (time.perf_counter() - began) * scale
        if tracer:
            tracer.on = False
        if error is None:
            ok = workload.check(x, result)
            text = workload.text(x, result)
        else:
            ok = False
            text = f"error {type(error).__name__}"
        if not ok:
            loop.failed += 1
            if loop.failed == 1:
                print(f"first failure: input {x!r}: {error or text!r}", file=sys.stderr)
        loop.record(took)
        encoded = text.encode() + b"\n"
        if loop.ops < workload.digest_ops:
            prefix.update(encoded)
        full.update(encoded)
        loop.ops += 1
        loop.busy += took
        batch_busy += took
        if loop.ops % workload.batch == 0:
            loop.batches.append(batch_busy)
            loop.batch_digests.append(full.hexdigest())
            batch_busy = 0.0
            if tracer:
                tracer.batch_done()
            if count:
                if loop.ops >= count:
                    break
            elif loop.ops >= least and time.perf_counter() - start >= seconds:
                break
    loop.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if loop.ops >= workload.digest_ops:
        loop.prefix_digest = prefix.hexdigest()
    return loop


def setup_seconds(name: str) -> float:
    """Median set-up time over fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
    }


def digest_ok(workload, seed: int, loop: Loop) -> bool:
    """Compare the output digest with the recorded one, at the default seed."""
    if seed != DEFAULT_SEED:
        return True
    print(f"digest {loop.prefix_digest} recorded {workload.digest}")
    return loop.prefix_digest == workload.digest


def end_to_end(workload, seed: int, seconds: float):
    seconds_setup = setup_seconds(workload.name)
    op = workload.bind()
    loop = run_loop(workload, op, seed, seconds=seconds)
    lat = loop.calm_latencies()
    metrics = {
        "setup_s": (seconds_setup, "s"),
        "peak_rss_mb": (loop.peak_rss_mb, "MB"),
        "ops_per_s": (loop.calm_ops_per_s(), "1/s"),
        "p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
    }
    # the same figures under the names each workload's question uses
    named = {
        "classifier_stream.small": {"rcf_small_per_s": metrics["ops_per_s"]},
        "classifier_stream.big": {"rcf_big_per_s": metrics["ops_per_s"]},
        "oracle_sweep": {"oracle_s": (workload.batch / metrics["ops_per_s"][0], "s")},
        "solve_cli": {
            "solves_per_s": metrics["ops_per_s"],
            "solve_p50_ms": metrics["p50_ms"],
            "solve_p90_ms": metrics["p90_ms"],
        },
    }[workload.name]
    for name, (value, unit) in {**metrics, **named}.items():
        print(f"{name} {value} {unit}")
    beyond = sum(1 for t in lat if t * 1e3 > metrics["p90_ms"][0])
    print(f"{len(lat)} latencies, {beyond} beyond p90, from {len(loop.batches)} batches of"
          f" {workload.batch}; over the whole run {loop.ops / loop.busy} ops/s")
    print(f"fail_share {loop.failed / loop.ops} ({loop.failed} of {loop.ops})")
    correct = digest_ok(workload, seed, loop) and loop.failed == 0
    return correct, loop.ops, loop.failed, metrics


def traced(workload, seed: int, seconds: float):
    op = workload.bind()
    # Half the time untraced, then a fixed number of the same operations
    # traced, so that the per-layer figures count the same work on any box.
    count = workload.trace_batches * workload.batch
    plain = run_loop(workload, op, seed, seconds=seconds / 2, at_least=count)
    tracer = Tracer()
    tracer.install()
    loop = run_loop(workload, op, seed, count=count, tracer=tracer)
    values = tracer.metrics(plain.calm_ops_per_s() / loop.calm_ops_per_s())
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER.items()}
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    problems = tracer.self_check(workload.name)
    if loop.batch_digests != plain.batch_digests[: workload.trace_batches]:
        problems.append("traced outputs differ from untraced outputs")
    for problem in problems:
        print(f"self-check: {problem}", file=sys.stderr)
    print(f"self-check {'passed' if not problems else 'FAILED'}")
    correct = (not problems and digest_ok(workload, seed, plain)
               and plain.failed == 0 and loop.failed == 0)
    return correct, plain.ops + loop.ops, plain.failed + loop.failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "goldennugget" / "__init__.py").is_file():
        print(f"error: no goldennugget sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    env = {"start": environment()}
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    measure = traced if args.trace else end_to_end
    correct, attempted, failed, metrics = measure(workload, args.seed, args.seconds)
    env["end"] = environment()
    print("env " + json.dumps(env))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
