from goldennugget.verify import Recorder


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
