import gc
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from goldennugget import fibonacci as fw
from goldennugget import nugget
from goldennugget import positions as pos
from goldennugget.dyadic import Dyadic
from goldennugget.games import Outcome, Universe
from goldennugget.nugget import ResourceLimitError
from goldennugget.verify import sum_route_winning_move


def test_position_parse_and_text():
    p = pos.Position.parse("3b+20b+18r")
    assert p.heaps == (("b", 3), ("b", 20), ("r", 18))
    assert str(p) == "3b+20b+18r"
    # empty parts, missing sizes, bad colours and negative sizes are
    # rejected, naming the bad literal
    for text, part in (("3b+", "''"), ("+3b", "''"), ("3b++4r", "''"), ("b", "'b'"), ("3b+rr", "'rr'"),
                       ("3x", "'3x'"), ("-3b", "'-3b'"), ("3b+4y", "'4y'")):
        with pytest.raises(ValueError, match=f"bad heap literal {part}"):
            pos.Position.parse(text)


def test_position_value_examples(u):
    assert pos.position_value(u, pos.Position.parse("3b")) == u.from_number(Dyadic(1, 1))
    assert pos.position_value(u, pos.Position(())) == u.zero
    # a blue and a red heap of equal size cancel exactly
    assert pos.position_value(u, pos.Position.parse("17b+17r")) == u.zero
    with pytest.raises(ResourceLimitError):
        pos.position_value(u, pos.Position.parse("99b"))


def test_pure_infinitesimal_position(u):
    # a blue 20 against a red 18: reduced forms cancel, value is infinitesimal
    p = pos.Position.parse("20b+18r")
    value = pos.position_value(u, p)
    left, right = u.stops(value)
    assert left == right == Dyadic(0)
    assert value != u.zero


def test_winning_move_tiebreak_order(u):
    # both heaps win for Left; the lowest heap index and amount is reported
    p = pos.Position.parse("1b+1b")
    move = pos.winning_move(u, p, "L")
    assert move == pos.Move(0, 1)
    assert pos.winning_move(u, pos.Position.parse("0b"), "L") is None


def test_a_mover_who_loses_moving_first_lists_no_moves(u, monkeypatch):
    # G <= 0 leaves Left no winning move and G >= 0 leaves Right none, so
    # the outcome's two comparisons answer without a legal move listed
    def listing(*args):
        raise AssertionError("legal_moves was called")

    monkeypatch.setattr(pos, "legal_moves", listing)
    p = pos.Position.parse("3b+20b+18r")  # outcome L
    assert pos.winning_move(u, p, "R") is None
    for mover in ("L", "R"):  # outcome P
        assert pos.winning_move(u, pos.Position.parse("17b+17r"), mover) is None
    with pytest.raises(AssertionError):  # a mover who wins still searches
        pos.winning_move(u, p, "L")


def test_winning_move_checks_the_mover_before_any_work(u):
    for p in (pos.Position(()), pos.Position.parse("3b+20b+18r")):
        size = len(u)
        with pytest.raises(ValueError, match="mover must be 'L' or 'R', got 'X'"):
            pos.winning_move(u, p, "X")
        assert len(u) == size  # no heap was built


def test_legal_moves_checks_the_mover_at_the_call():
    # before the first move is asked for
    with pytest.raises(ValueError, match="mover must be 'L' or 'R', got 'X'"):
        pos.legal_moves(nugget.GOLDEN, pos.Position.parse("3b"), "X")


def test_the_move_search_tests_no_amount_past_its_first_winner(u, monkeypatch):
    # the golden predicates record each amount tested; a listing of every
    # move would test every amount of every heap
    tested = []

    def recording(predicate):
        return lambda k: tested.append(k) or predicate(k)

    for name in ("left_ok", "right_ok"):
        monkeypatch.setattr(nugget.GOLDEN, name, recording(getattr(nugget.GOLDEN, name)))
    cut_short = 0
    for text in ("44b+7r+30r", "60b", "3b+20b+18r", "12r+40b", "5b+9r+2b", "17b+17r"):
        p = pos.Position.parse(text)
        for mover in ("L", "R"):
            move = pos.winning_move(u, p, mover)  # builds the test and any oracle forms first
            tested.clear()
            assert pos.winning_move(u, p, mover) == move
            order = [(index, amount) for index, (_, size) in enumerate(p.heaps) for amount in range(1, size + 1)]
            searched = order[:order.index(move) + 1] if move else []
            assert tested == [amount for _, amount in searched], (text, mover)
            cut_short += move is not None and len(searched) < len(order)
    assert cut_short >= 5


@pytest.fixture(scope="module")
def shared_u():
    """One Universe for many examples; its memo tables hold only exact answers."""
    return Universe()


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(["golden", "oddeven", "beatty:sqrt2", "mod:3:L=1"]),
    st.lists(st.tuples(st.sampled_from((pos.BLUE, pos.RED)), st.integers(0, 20)), max_size=4),
)
def test_comparison_route_matches_the_sum_definitions(shared_u, game, heaps):
    u, spec, p = shared_u, pos.parse_spec(game), pos.Position(tuple(heaps))
    assert pos.position_outcome(u, p, spec) == u.outcome(pos.position_value(u, p, spec))
    for mover in ("L", "R"):
        assert pos.winning_move(u, p, mover, spec) == sum_route_winning_move(u, p, mover, spec)


def test_stops_route_matches_the_oracle_route():
    # the golden game under another name takes the oracle route for every test
    oracle = nugget.CSGameSpec("golden-oracle", fw.in_a)
    u, rng = Universe(), random.Random(0)
    for _ in range(200):
        p = pos.Position(tuple((rng.choice((pos.BLUE, pos.RED)), rng.randint(0, 60))
                               for _ in range(rng.randint(1, 4))))
        assert pos.position_outcome(u, p) == pos.position_outcome(u, p, oracle), p
        for mover in ("L", "R"):
            assert pos.winning_move(u, p, mover) == pos.winning_move(u, p, mover, oracle), (p, mover)


def test_single_heap_theorem_matches_the_oracle_route():
    # every lone heap to 60, alone or beside an empty heap on either side:
    # the outcome and both movers' moves, against the oracle route
    oracle = nugget.CSGameSpec("golden-oracle", fw.in_a)
    u = Universe()
    for h in range(61):
        for color in (pos.BLUE, pos.RED):
            for text in (f"{h}{color}", f"{h}{color}+0b", f"0r+{h}{color}"):
                p = pos.Position.parse(text)
                assert pos.position_outcome(u, p) == pos.position_outcome(u, p, oracle), p
                for mover in ("L", "R"):
                    assert pos.winning_move(u, p, mover) == pos.winning_move(u, p, mover, oracle), (p, mover)


def test_single_heap_theorem_builds_no_game(u):
    p = pos.Position.parse("60b")
    size = len(u)
    assert pos.position_outcome(u, p) == Outcome.N
    assert pos.winning_move(u, p, "L") == pos.Move(0, 1)
    assert pos.winning_move(u, p, "R") == pos.Move(0, 60)
    assert len(u) == size and u.cache("oracle") == {}


def test_second_player_test_is_kept_per_position_spec_and_bound():
    p = pos.Position.parse("20b")
    for bounds in ((60, 10), (10, 60)):
        u = Universe()
        for bound in bounds:
            if bound < 20:
                with pytest.raises(ResourceLimitError, match="^heap 20 exceeds the oracle bound 10$"):
                    pos.position_outcome(u, p, bound=bound)
            else:
                assert pos.position_outcome(u, p, bound=bound) == Outcome.N
    # the oracle route under another name gets a test of its own
    oracle = nugget.CSGameSpec("golden-oracle", fw.in_a)
    u = Universe()
    assert pos.winning_move(u, p, "L") == pos.winning_move(u, p, "L", oracle) == pos.Move(0, 1)
    assert list(u.cache("oracle")) == [oracle]
    assert pos._second_player_test(u, p, nugget.GOLDEN, 60) is pos._second_player_test(u, p, nugget.GOLDEN, 60)


def test_a_solved_arena_is_freed_without_a_cyclic_collection():
    # 39b+57r ties on its stops, so the solve builds oracle forms in u; the
    # table of second-player tests holds no reference back to u
    enabled = gc.isenabled()
    gc.disable()
    try:
        u = Universe()
        p = pos.Position.parse("39b+57r")
        assert pos.position_outcome(u, p) == Outcome.N
        assert [pos.winning_move(u, p, mover) for mover in "LR"] == [pos.Move(1, 5), pos.Move(1, 12)]
        assert u.cache("oracle")
        arena = weakref.ref(u)
        del u
        assert arena() is None
    finally:
        if enabled:
            gc.enable()


def test_stops_decide_a_position_with_no_game_built(u):
    p = pos.Position.parse("44b+7r+30r")
    size = len(u)
    assert pos.position_outcome(u, p) == Outcome.R
    assert pos.winning_move(u, p, "L") is None
    assert pos.winning_move(u, p, "R") == pos.Move(0, 2)
    assert len(u) == size and u.cache("oracle") == {}


def test_zero_stops_leave_the_position_to_the_oracle(u):
    p = pos.Position.parse("17b+17r")
    assert nugget.sum_stops([(1, nugget.heap_rcf(17)), (-1, nugget.heap_rcf(17))]) == (Dyadic(0), Dyadic(0))
    assert pos.position_outcome(u, p) == Outcome.P
    assert list(u.cache("oracle")) == [nugget.GOLDEN]


def test_stops_route_refuses_the_first_heap_over_the_bound(u):
    p, size = pos.Position.parse("3b+70r+65b"), len(u)
    for solve in (lambda: pos.position_outcome(u, p), lambda: pos.winning_move(u, p, "L")):
        with pytest.raises(ResourceLimitError, match="^heap 70 exceeds the oracle bound 60$"):
            solve()
    assert len(u) == size


@pytest.mark.parametrize("game", ["golden", "oddeven", "beatty:sqrt2", "mod:3:L=1"])
def test_oracle_is_the_canonical_form_of_every_move(u, game):
    # the definition in a second Universe: the canonical form of the record
    # holding every legal move to an earlier heap's form
    spec, v, forms = pos.parse_spec(game), Universe(), []
    for h in range(41):
        raw = v.make_game([forms[h - k] for k in range(1, h + 1) if spec.left_ok(k)],
                          [forms[h - k] for k in range(1, h + 1) if spec.right_ok(k)])
        forms.append(v.canonical_form(raw))
        assert u.to_text(nugget.subtraction_canonical(u, spec, h, 40)) == v.to_text(forms[h])


def test_spec_parsing():
    assert isinstance(pos.parse_spec("golden"), pos.GoldenSpec)
    assert pos.parse_spec("golden") is nugget.GOLDEN
    assert pos.GoldenSpec() == nugget.GOLDEN  # specs compare by name
    assert pos.parse_spec("oddeven") == pos.ODD_EVEN
    beatty = pos.parse_spec("beatty:sqrt2")
    assert beatty == pos.parse_spec("beatty:sqrt2")
    modular = pos.parse_spec("mod:3:L=1,2")
    assert modular.left_ok(4) and not modular.left_ok(3)
    explicit = pos.parse_spec("explicit:L={1,4,9}")
    assert explicit.left_ok(4) and not explicit.left_ok(2)
    with pytest.raises(ValueError):
        pos.parse_spec("nonsense")
    with pytest.raises(ValueError):
        pos.parse_spec("beatty:sqrt4")  # sqrt(4) is rational
    for literal in ("mod:1:L=0", "mod:0:L="):
        with pytest.raises(ValueError, match="^modulus must be at least 2$"):
            pos.parse_spec(literal)


def test_spec_is_named_by_its_normalized_literal():
    for literal, name in (("oddeven", "mod:2:L=1"), (" beatty:sqrt2 ", "beatty:sqrt2"),
                          ("beatty:sqrt3", "beatty:sqrt3"), ("mod:3:L=2,1", "mod:3:L=1,2"),
                          ("mod:5:L=", "mod:5:L="), ("explicit:L={4,1,9}", "explicit:L={1,4,9}"),
                          ("explicit:L={}", "explicit:L={}")):
        spec = pos.parse_spec(literal)
        assert spec.name == name
        again = pos.parse_spec(spec.name)
        assert again == spec and hash(again) == hash(spec)


def test_beatty_membership_is_exact():
    import math
    spec = pos.parse_spec("beatty:sqrt2")
    floors = {math.isqrt(2 * n * n) for n in range(1, 4000)}
    for k in range(1, 2000):
        assert spec.left_ok(k) == (k in floors)


def test_cs_outcomes_examples():
    oddeven = pos.cs_outcomes(pos.ODD_EVEN, 20)
    for h in range(21):
        want = Outcome.P if h == 0 else (Outcome.L if h % 2 else Outcome.N)
        assert oddeven[h] == want
    with pytest.raises(ValueError, match="^nonnegative bound required, got -1$"):
        pos.cs_outcomes(pos.ODD_EVEN, -1)


def test_golden_heaps_share_one_memo(u):
    value = pos.position_value(u, pos.Position.parse("12b"))
    size = len(u)
    assert nugget.heap_canonical(u, 12) == value
    assert nugget.heap_canonical(u, 9) == pos.position_value(u, pos.Position.parse("9b"))
    assert len(u) == size  # nothing was built twice
    assert list(u.cache("oracle")) == [nugget.GOLDEN]


def test_periodicity_probe():
    report = pos.periodicity_probe(pos.parse_spec("mod:3:L=1,2"), 600)
    assert report.found()  # whatever it finds is evidence, but it must find it
    # exact reports, the preperiod's scan start included: at mod:3:L= and max 4
    # a scan from limit - 1 would report preperiod 0
    for spec, max_h, report in [
        ("oddeven", 200, (1, 2)),
        ("mod:5:L=1,4", 200, (4, 5)),
        ("mod:6:L=1,5", 200, (2, 6)),
        ("mod:3:L=", 3, (None, None)),
        ("mod:3:L=", 4, (1, 1)),
        ("beatty:sqrt2", 600, (None, None)),
    ]:
        assert tuple(pos.periodicity_probe(pos.parse_spec(spec), max_h)) == report, (spec, max_h)


def test_color_swap(u):
    p = pos.Position.parse("5b+3r")
    q = p.swap_colors()
    assert q.heaps == (("r", 5), ("b", 3))
    assert pos.position_value(u, q) == u.negate(pos.position_value(u, p))
