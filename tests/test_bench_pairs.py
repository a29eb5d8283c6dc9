"""The verdict logic of tools/bench_pairs.py on synthetic series of 10 pairs; no benchmark runs."""

import importlib.util
from pathlib import Path

_path = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _path)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

OPS = {"unit": "1/s", "better": "higher", "bound": 0.24}
P50 = {"unit": "ms", "better": "lower", "bound": 0.24}
STEADY = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]  # parent IQR 1.5
SPREAD = [50, 150, 60, 140, 70, 130, 80, 120, 90, 110]  # IQR 55, above 0.24 of the median


def test_a_clear_gain_in_every_pair_is_better():
    summary = bench_pairs.summarise(OPS, STEADY, [v + 20 for v in STEADY], more_failures=False)
    assert (summary["verdict"], summary["wins"]) == ("better", "10/10")


def test_a_gain_with_a_larger_share_of_failures_is_only_within_bound():
    summary = bench_pairs.summarise(OPS, STEADY, [v + 20 for v in STEADY], more_failures=True)
    assert (summary["verdict"], summary["wins"]) == ("within bound", "10/10")


def test_overlapping_runs_wider_than_the_bound_are_unresolved():
    summary = bench_pairs.summarise(OPS, SPREAD, [v + 5 for v in SPREAD], more_failures=False)
    assert summary["verdict"] == "unresolved"


def test_a_latency_past_its_bound_is_worse_beyond_bound():
    summary = bench_pairs.summarise(P50, STEADY, [v * 1.5 for v in STEADY], more_failures=False)
    assert (summary["verdict"], summary["wins"], summary["ratio"]) == ("worse beyond bound", "0/10", 1.5)
