from goldennugget.verify import sweep


def test_sweep_stops_at_the_first_failure_and_passes_an_empty_sweep():
    def failing():
        yield True, "first"
        yield False, "second"
        raise AssertionError("resumed after its first failure")

    stopped, empty = sweep("stops", failing()), sweep("empty", iter(()))
    assert (stopped.ok, stopped.detail) == (False, "second")
    assert (empty.ok, empty.detail) == (True, "")
    assert stopped.elapsed >= 0 and empty.elapsed >= 0

