import pytest

from goldennugget.verify import SUITES, Recorder, suite_parameters


def test_sweep_stops_at_the_first_failure_and_passes_an_empty_sweep():
    def failing():
        yield True, "first"
        yield False, "second"
        raise AssertionError("resumed after its first failure")

    rec = Recorder()
    rec.sweep("stops", failing())
    rec.sweep("empty", iter(()))
    stopped, empty = rec.checks
    assert (stopped.ok, stopped.detail) == (False, "second")
    assert (empty.ok, empty.detail) == (True, "")
    assert stopped.elapsed >= 0 and empty.elapsed >= 0


def test_recorders_do_not_share_their_checks():
    first, second = Recorder(), Recorder()
    first.add("only in the first", True)
    assert len(first.checks) == 1 and second.checks == []


def test_suite_parameters_are_read_off_each_suite():
    assert {name: suite_parameters(name) for name in SUITES} == {
        "game-core": {"bound", "seed"},
        "rcf": {"bound", "seed"},
        "positions": {"bound", "seed"},
        "fibonacci": {"seed"},
        "nugget": {"bound"},
        "cli": set(),
    }
    with pytest.raises(ValueError, match="'nope'; available: cli, fibonacci, game-core, nugget, positions, rcf"):
        suite_parameters("nope")
