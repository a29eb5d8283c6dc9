import random
from functools import cache, partial

import pytest
from hypothesis import given, settings, strategies as st

from goldennugget import nugget
from goldennugget.dyadic import Dyadic, ZERO, ONE
from goldennugget.games import Outcome, Universe, game_text
from goldennugget.positions import parse_spec
from goldennugget.rcf import geq_inf, reduced_canonical_form
from goldennugget.verify import games_born_by
from gametext import read_game, read_obj


def player_wins(u, g, mover):
    """Plain alternating-play search, independent of the memoized order logic."""
    options = u.options(g)[0 if mover == "L" else 1]
    other = "R" if mover == "L" else "L"
    return any(not player_wins(u, o, other) for o in options)


def brute_geq(u, g, h):
    diff = u.add(g, u.negate(h))
    return not player_wins(u, diff, "R")


@cache
def born_by(day):
    """The games born by ``day`` as JSON forms, for any Universe to build."""
    u = Universe()
    return [u.to_json_obj(g) for g in games_born_by(u, day)]


def draw(u, rng, day=3):
    """A game born by ``day``, by default one of the 1,474 born by day 3."""
    return u.from_json_obj(rng.choice(born_by(day)))


def rich_game(u, rng):
    """A game nested two levels deep over a pool of values that often leaves
    options to trim or bypass: dyadics with denominator up to 4 in [-4, 4],
    plus or minus the golden heap values up to 24, star, up and down."""
    quarters = [u.from_number(Dyadic(n, 2)) for n in range(-16, 17)]
    heaps = [nugget.heap_canonical(u, h, bound=24) for h in range(25)]
    up = read_game(u, "{0|{0|0}}")
    pool = quarters + heaps + [u.negate(g) for g in heaps] + [read_game(u, "{0|0}"), up, u.negate(up)]

    def draw(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(pool)
        return u.make_game([draw(depth - 1) for _ in range(rng.randint(1, 3))],
                           [draw(depth - 1) for _ in range(rng.randint(1, 3))])

    return draw(2)


def test_make_game_basics(u):
    assert u.make_game([], []) == u.zero
    one = u.make_game([u.zero], [])
    assert one == u.from_number(ONE)
    neg_one = u.make_game([], [u.zero])
    assert neg_one == u.from_number(Dyadic(-1))
    # idempotent interning, order/duplicate insensitive
    g = u.make_game([one, u.zero, one], [neg_one])
    assert g == u.make_game([u.zero, one], [neg_one])


def test_make_game_rejects_unknown_ids(u):
    with pytest.raises(ValueError):
        u.make_game([999], [])


def test_from_number_examples(u):
    assert u.from_number(ZERO) == u.zero
    assert u.to_text(u.from_number(Dyadic(1, 1))) == "1/2"
    g = read_game(u, "{0|1}")
    assert u.canonical_form(g) == u.from_number(Dyadic(1, 1))
    g34 = read_game(u, "{1/2|1}")
    assert u.canonical_form(g34) == g34
    assert g34 == u.from_number(Dyadic(3, 2))


def test_from_number_builds_large_integers_without_deep_recursion():
    # each integer rests on the one before it: 2000 levels, past the default recursion limit
    u = Universe()
    g = u.from_json_obj("2000")
    assert u.as_number(g) == Dyadic(2000)
    assert u.as_number(u.from_json_obj("-2000")) == Dyadic(-2000)
    assert u.options(g) == ((u.from_number(Dyadic(1999)),), ())


def test_negate_and_add(u):
    one = u.from_number(ONE)
    assert u.negate(one) == u.from_number(Dyadic(-1))
    assert u.negate(u.negate(one)) == one
    g = read_game(u, "{1|0}")
    assert u.add(g, u.zero) == g
    s = u.add(g, read_game(u, "{0|-1}"))
    assert u.outcome(s) == Outcome.P  # {1|0} + {0|-1} = 0


def test_geq_examples(u):
    one = u.from_number(ONE)
    g10 = read_game(u, "{1|0}")
    assert u.geq(one, u.zero)
    assert not u.geq(one, g10) and not u.geq(g10, one)
    assert u.geq(read_game(u, "{1||1|0}"), u.from_number(Dyadic(1, 1)))


def test_geq_matches_brute_force(u):
    games = games_born_by(u, 2)
    for g in games:
        for h in games:
            assert u.geq(g, h) == brute_geq(u, g, h)


def test_outcomes(u):
    assert u.outcome(u.zero) == Outcome.P
    assert u.outcome(read_game(u, "{1|0}")) == Outcome.N
    assert u.outcome(u.from_number(Dyadic(1, 1))) == Outcome.L
    assert u.outcome(u.from_number(Dyadic(-1))) == Outcome.R
    star = read_game(u, "{0|0}")
    assert u.outcome(star) == Outcome.N


def test_outcome_of_a_difference_matches_the_built_difference(u):
    games = games_born_by(u, 2)
    seen = set()
    for g in games:
        for h in games:
            outcome = u.outcome(g, h)
            assert outcome == u.outcome(u.add(g, u.negate(h)))
            seen.add(outcome)
    assert seen == set(Outcome)


def test_stops(u):
    assert u.stops(read_game(u, "{1|0}")) == (ONE, ZERO)
    assert u.stops(read_game(u, "{1||1|0}")) == (ONE, ONE)
    assert u.stops(read_game(u, "{1|1/2}")) == (ONE, Dyadic(1, 1))
    # a number in disguise: stops are the value, not the naive recursion
    assert u.stops(read_game(u, "{1/4|3/4}")) == (Dyadic(1, 1), Dyadic(1, 1))


def test_as_number(u):
    assert u.as_number(read_game(u, "{0|1}")) == Dyadic(1, 1)
    assert u.as_number(read_game(u, "{1|0}")) is None
    assert u.as_number(read_game(u, "{{0|0}|{0|0}}")) == ZERO
    assert u.as_number(read_game(u, "{|{0|0}}")) == ZERO


def test_canonical_form(u):
    assert u.canonical_form(read_game(u, "{0,1|}")) == u.from_number(Dyadic(2))
    assert u.canonical_form(read_game(u, "{0|0,1}")) == read_game(u, "{0|0}")
    up_star = read_game(u, "{0,{0|0}|0}")
    assert u.canonical_form(up_star) == up_star


def test_stops_of_one_sided_games():
    u = Universe()
    # one-sided games always equal integers, so the stop recursion never
    # meets a non-number with an empty option set
    assert u.stops(read_game(u, "{|0}")) == (Dyadic(-1), Dyadic(-1))
    assert u.stops(read_game(u, "{|{0|0}}")) == (ZERO, ZERO)


def test_text_round_trip(u):
    for text in ("0", "1", "-1", "1/2", "{1|0}", "{1,{1|0}|0}",
                 "{{1|{1|0}}|0,{1|0}}", "{1,{1|1/2}|1/2}"):
        g = read_game(u, text)
        assert read_game(u, u.to_text(g)) == g
    # canonical games print back to themselves
    g = u.canonical_form(read_game(u, "{1,{1|0}|0}"))
    assert read_game(u, u.to_text(g)) == g


def test_parse_shorthand(u):
    assert read_game(u, "{1||1|0}") == read_game(u, "{1|{1|0}}")
    assert read_game(u, "{1||1|0|||0,{1|0}}") == read_game(u, "{{1|{1|0}}|0,{1|0}}")
    # of equally long runs, the first splits
    assert read_game(u, "{1|0|-1}") == read_game(u, "{1|{0|-1}}")
    deep = read_game(u, "{1||1|0||||1||1|0|||0,{1|0}}")
    assert deep == read_game(u, "{{1|{1|0}}|{{1|{1|0}}|0,{1|0}}}")
    assert read_game(u, "{1|{1|0},{1||1|0}||{1|0},{1||1|0}}") == read_game(
        u, "{{1|{1|0},{1|{1|0}}}|{1|0},{1|{1|0}}}"
    )


def test_parse_errors(u):
    for bad in ("{1|", "1/3", "{1|0} junk", "{a|b}", "{1 2|0}", "{0|{1|0}{0|1}}"):
        with pytest.raises(ValueError):
            read_game(u, bad)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_parse_reads_back_canonical_text(seed):
    u = Universe()
    rng = random.Random(seed)
    # the second summand is born by day 2, since a sum's tree is about the
    # product of its summands' trees
    g = u.add(draw(u, rng), draw(u, rng, 2))
    c = u.canonical_form(g)
    assert read_game(u, u.to_text(c)) == c
    # at the JSON form the reader inverts the writer on any game, canonical or not
    for h in (g, c):
        obj = u.to_json_obj(h)
        assert read_obj(game_text(obj)) == obj


def test_parse_rejects_malformed_text_before_building_big_numbers(u):
    for bad in (" 2000,", "{1023|0}}", "1032|/", "{2000|1/3}"):
        with pytest.raises(ValueError):
            read_game(u, bad)


def test_json_round_trip(u):
    for text in ("0", "1/2", "{1|0}", "{1,{1|0}|0,{1,{1|0}|0}}"):
        g = read_game(u, text)
        assert u.from_json_obj(u.to_json_obj(g)) == g


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 10))
def test_antichain_scan_matches_quadratic_definition(seed, count):
    # exact under >= on distinct canonical forms, and under >=_Inf on distinct
    # reduced canonical forms, which are never infinitesimally close; scans of
    # overlapping windows first fill the "beaten by" tables the full scan reads
    u = Universe()
    rng = random.Random(seed)
    games = [draw(u, rng) for _ in range(count)] + [rich_game(u, rng) for _ in range(count)]
    orders = [
        (u.canonical_form, "canonical", u.geq),
        (partial(reduced_canonical_form, u), "rcf", partial(geq_inf, u)),
    ]
    for form, order, geq in orders:
        beaten = u.cache(order + ":beaten-left"), u.cache(order + ":beaten-right")

        def maximal(options, side):
            # an option survives when no other option is at least as good for its side
            return [a for a in options
                    if not any(b != a and (geq(a, b) if side else geq(b, a)) for b in options)]

        options = sorted({form(g) for g in games})
        shuffled = rng.sample(options, len(options))
        for side in (0, 1):
            # the scan takes a set and keeps the set's order, so results are compared sorted
            for start in range(len(shuffled)):
                window = shuffled[start:start + 3]
                assert sorted(u._undominated(set(window), side, geq, beaten[side])) == sorted(maximal(window, side))
            assert sorted(u._undominated(set(options), side, geq, beaten[side])) == maximal(options, side)


def assert_canonical(u, c):
    """c meets the canonical-form definition at every subposition: no option
    is dominated and none is reversible, by plain alternating search."""
    todo, seen = [c], {c}
    while todo:
        p = todo.pop()
        left, right = u.options(p)
        for a in left:
            assert not any(b != a and brute_geq(u, b, a) for b in left)
            assert not any(brute_geq(u, p, back) for back in u.options(a)[1])
        for a in right:
            assert not any(b != a and brute_geq(u, a, b) for b in right)
            assert not any(brute_geq(u, back, p) for back in u.options(a)[0])
        fresh = set(left + right) - seen
        seen |= fresh
        todo += fresh


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_canonical_form_meets_its_definition(seed):
    # every comparison here is a plain alternating search, not the geq memo;
    # a sum of a day-3 and a day-2 form is rarely canonical, and a rich game
    # usually has options to trim or bypass
    u = Universe()
    rng = random.Random(seed)
    for g in (u.add(draw(u, rng), draw(u, rng, 2)), rich_game(u, rng)):
        c = u.canonical_form(g)
        assert u.canonical_form(c) == c
        assert brute_geq(u, g, c) and brute_geq(u, c, g)
        assert_canonical(u, c)
        assert u.canonical_form(u.negate(g)) == u.negate(c)  # -g is reduced unless g is canonical


@pytest.mark.parametrize("spec", ["golden", "mod:5:L=1,4"])
def test_negation_keeps_canonical_forms(spec):
    # the negative of an oracle form is canonical by the definition, and its
    # canonical form is a lookup: no record is made and no comparison is run
    # (the memo has a row per record, so its entries are what a comparison adds)
    u, spec = Universe(), parse_spec(spec)
    for h in range(61):
        n = u.negate(nugget.subtraction_canonical(u, spec, h, 60))
        records, comparisons = len(u), sum(map(len, u._geq))
        assert u.canonical_form(n) == n
        assert (len(u), sum(map(len, u._geq))) == (records, comparisons)
        assert_canonical(u, n)
    assert u.canonical_form(u.add(nugget.subtraction_canonical(u, spec, 60, 60), n)) == u.zero
    assert len(u._geq) == len(u)


def fixed_point_reduce(u, ls, rs, geq):
    """The reduction loop by its definition: trim every option some other
    option is at least as good as, bypass every option reversible through
    the game as it stands, and repeat until a round changes nothing.  The
    number of rounds that bypassed is returned with the game."""
    bypass_rounds = 0
    while True:
        ls = [a for a in ls if not any(b != a and geq(b, a) for b in ls)]
        rs = [a for a in rs if not any(b != a and geq(a, b) for b in rs)]
        game = u.make_game(ls, rs)
        sides = []
        for side, options in enumerate((ls, rs)):
            kept = set()
            for a in options:
                back = next((b for b in u.options(a)[1 - side] if (geq(b, game) if side else geq(game, b))), None)
                kept |= {a} if back is None else set(u.options(back)[side])
            sides.append(sorted(kept))
        if sides == [ls, rs]:
            return game, bypass_rounds
        bypass_rounds += 1
        ls, rs = sides


def _reduced_by_definition(u, g):
    """The reduced canonical form of g with its last step, the loop, taken
    by :func:`fixed_point_reduce`; None when g's stops are equal (no loop)."""
    c = u.canonical_form(g)
    if len(set(u.stops(c))) == 1:
        return None
    left, right = u.options(c)
    return fixed_point_reduce(u, sorted({reduced_canonical_form(u, x) for x in left}),
                              sorted({reduced_canonical_form(u, x) for x in right}), partial(geq_inf, u))


def test_reduce_bypasses_once_on_heaps(u):
    # golden heaps under >=; mod:5:L=1,4 heaps under >=_Inf, which make Inf-bypasses
    golden, forms = nugget.GOLDEN, []
    for h in range(301):
        ls = sorted({forms[h - k] for k in range(1, h + 1) if golden.left_ok(k)})
        rs = sorted({forms[h - k] for k in range(1, h + 1) if golden.right_ok(k)})
        forms.append(nugget.heap_canonical(u, h, bound=300))
        assert fixed_point_reduce(u, ls, rs, u.geq)[0] == u.canonical_form(u.make_game(ls, rs)) == forms[h], h
    spec, inf_bypasses = parse_spec("mod:5:L=1,4"), 0
    for h in range(301):
        g = nugget.subtraction_canonical(u, spec, h, 300)
        reference = _reduced_by_definition(u, g)
        if reference is not None:
            assert reference[0] == reduced_canonical_form(u, g), h
            inf_bypasses += reference[1]
    assert inf_bypasses > 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_reduce_bypasses_once_on_rich_games(seed):
    u = Universe()
    rng = random.Random(seed)
    g = rich_game(u, rng)
    left, right = u.options(g)
    ls, rs = sorted({u.canonical_form(x) for x in left}), sorted({u.canonical_form(x) for x in right})
    assert fixed_point_reduce(u, ls, rs, u.geq)[0] == u.canonical_form(g)
    reference = _reduced_by_definition(u, g)
    if reference is not None:
        assert reference[0] == reduced_canonical_form(u, g)
