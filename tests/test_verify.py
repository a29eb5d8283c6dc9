import pytest

from goldennugget.verify import SUITES, suite_parameters, sweep


def test_sweep_stops_at_the_first_failure_and_passes_an_empty_sweep():
    def failing():
        yield True, "first"
        yield False, "second"
        raise AssertionError("resumed after its first failure")

    stopped, empty = sweep("stops", failing()), sweep("empty", iter(()))
    assert (stopped.ok, stopped.detail) == (False, "second")
    assert (empty.ok, empty.detail) == (True, "")
    assert stopped.elapsed >= 0 and empty.elapsed >= 0


def test_suite_parameters_are_read_off_each_suite():
    assert {name: suite_parameters(name) for name in SUITES} == {
        "game-core": {"bound"},
        "rcf": {"bound"},
        "positions": {"bound", "seed"},
        "fibonacci": {"seed"},
        "nugget": {"bound"},
        "cli": set(),
    }
    with pytest.raises(ValueError, match="'nope'; available: cli, fibonacci, game-core, nugget, positions, rcf"):
        suite_parameters("nope")
