import functools
import random
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from goldennugget import fibonacci as fw
from goldennugget import nugget, verify
from goldennugget.dyadic import Dyadic, ZERO, ONE
from goldennugget.games import ResourceLimitError, Universe
from goldennugget.nugget import GoldenSpec, HeapClass


def test_subtraction_predicates():
    # from a heap of 5, Left reaches {1, 2, 4} and Right reaches {0, 3}
    golden = GoldenSpec()
    left_moves = [5 - a for a in range(1, 6) if golden.left_ok(a)]
    right_moves = [5 - b for b in range(1, 6) if golden.right_ok(b)]
    assert sorted(left_moves) == [1, 2, 4]
    assert sorted(right_moves) == [0, 3]
    assert not golden.left_ok(7)
    assert all(golden.right_ok(k) == fw.in_b(k) for k in range(1, 200))
    with pytest.raises(ValueError):
        golden.left_ok(0)


def test_value_ladders():
    assert nugget.s_val(0) == ZERO and nugget.q_val(0) == ONE
    assert nugget.s_val(1) == Dyadic(1, 1) and nugget.q_val(1) == Dyadic(3, 2)
    assert nugget.s_val(2) == Dyadic(5, 3) and nugget.q_val(2) == Dyadic(11, 4)
    # binary shapes 0.(10)^{n-1}1 and 0.(10)^{n-1}11
    for n in range(1, 12):
        assert nugget.s_val(n).binary() == "0." + "10" * (n - 1) + "1"
        assert nugget.q_val(n).binary() == "0." + "10" * (n - 1) + "11"
        assert nugget.s_val(n) < nugget.s_val(n + 1)
        assert nugget.q_val(n + 1) < nugget.q_val(n)
    for ladder in (nugget.s_val, nugget.q_val):
        with pytest.raises(ValueError, match="^nonnegative integer required, got -1$"):
            ladder(-1)


def test_g_heap_rows():
    for n in range(1, 7):
        for i in range(50):
            assert nugget.g_heap(i, n) == fw.compose_ab("B" * (n + 1), i) + fw.fib(2 * n + 3) - 2
    for i, n in ((-1, 1), (0, 0)):
        with pytest.raises(ValueError, match=f"^need i >= 0 and n >= 1, got i={i}, n={n}$"):
            nugget.g_heap(i, n)


def test_classify_examples():
    assert nugget.classify(0).kind == "zero"
    assert nugget.classify(7).kind == "b"
    assert nugget.classify(17).kind == "ab-hat"
    assert nugget.classify(1).kind == "ab-hat"
    assert nugget.classify(6).kind == "b2-hat"
    got = nugget.classify(45)
    assert (got.kind, got.n, got.i) == ("g-switch", 2, 2)
    assert nugget.classify(3) == nugget.HeapClass("g0", n=1)
    with pytest.raises(ValueError):
        nugget.classify(-1)


def test_xi_examples():
    assert nugget.xi(Dyadic.from_binary("0.110011")) == 116
    assert nugget.xi(Dyadic.from_binary("0.1")) == 3
    assert nugget.xi(Dyadic.from_binary("0.101")) == 11
    assert nugget.xi(ONE) == 1
    with pytest.raises(ValueError):
        nugget.xi(Dyadic(1, 2))


def test_xi_inverse_examples():
    assert nugget.xi_inverse(19) == Dyadic(11, 4)
    assert nugget.xi_inverse(87) == Dyadic(85, 7)
    assert nugget.xi_inverse(116) == Dyadic(51, 6)
    assert nugget.xi_inverse(116).binary() == "0.110011"
    assert nugget.xi_inverse(0) == ZERO and nugget.xi_inverse(1) == ONE
    # one heap per refusal: a negative heap, F2 used (2 = F2 + F2, in B), least
    # index F6 (8, in AB), and bits that are no value of Q (24 = F8 + F4 reads 9/16)
    for h in (-1, 2, 8, 24, 10**40 - 1):
        with pytest.raises(ValueError, match=f"^heap {h} is not a positive number heap$"):
            nugget.xi_inverse(h)
    # past 40 digits a refusal names the last 12 digits and the bit length
    with pytest.raises(ValueError, match=r"^heap \.\.\.000000000000 \(133 bits\) is not a positive number heap$"):
        nugget.xi_inverse(10**40)


def test_xi_accepts_exactly_the_positive_heap_values():
    # xi's digit i adds at most F(2i+2), so a value with denominator at most
    # 2^12 belongs to a heap below F(27)
    values = {nugget.xi_inverse(h) for h in [0, 1] + nugget.q_members(fw.fib(27))}
    for num in range(2**12 + 1):
        d = Dyadic(num, 12)
        if d in values:
            assert nugget.xi_inverse(nugget.xi(d)) == d
        else:
            with pytest.raises(ValueError):
                nugget.xi(d)


def test_heap_rcf_examples():
    assert str(nugget.heap_rcf(20)) == "{1|0}"
    assert str(nugget.heap_rcf(16)) == "{1|1/2}"
    assert nugget.heap_rcf(14) == nugget.RcfValue("number", Dyadic(7, 3))
    assert nugget.heap_rcf(0) == nugget.RcfValue("number", ZERO)
    assert nugget.heap_rcf(1) == nugget.RcfValue("number", ONE)
    # the g0 heaps F(2n+3) - 2 sit on the ladder s(n)
    for n in range(400):
        assert nugget.heap_rcf(fw.fib(2 * n + 3) - 2) == nugget.RcfValue("number", nugget.s_val(n))


def _stops_of_the_summed_games(u, terms):
    total = u.zero
    for sign, value in terms:
        game = value.to_game(u)
        total = u.add(total, game if sign > 0 else u.negate(game))
    return u.stops(total)


def test_sum_stops_examples():
    # {1|0} + {1|1/2}: means 1/2 and 3/4, temperatures 1/2 and 1/4
    terms = [(1, nugget.heap_rcf(20)), (1, nugget.heap_rcf(16))]
    assert nugget.sum_stops(terms) == (Dyadic(3, 1), ONE)
    # red heaps count negatively; a number moves both stops
    terms = [(-1, nugget.heap_rcf(20)), (1, nugget.heap_rcf(16)), (-1, nugget.heap_rcf(3))]
    assert nugget.sum_stops(terms) == (ZERO, Dyadic(-1, 1))
    assert nugget.sum_stops([]) == (ZERO, ZERO)


def test_sum_stops_of_one_heap_are_its_forms_stops():
    u = Universe()
    heaps = [*range(201), *(nugget.g_heap(i, n) for i in (0, 1, 5) for n in range(1, 201))]
    for h in heaps:
        for sign in (1, -1):
            terms = [(sign, nugget.heap_rcf(h))]
            assert nugget.sum_stops(terms) == _stops_of_the_summed_games(u, terms), (sign, h)


def test_sum_stops_of_seeded_sums_are_their_games_stops():
    # two-heap sums stay far below row 249, where u.add of s(n) with itself
    # exhausts the recursion limit
    u, rng = Universe(), random.Random(0)
    for count, top, draws in ((2, 60, 150), (3, 25, 100), (4, 12, 60)):
        for _ in range(draws):
            terms = [(rng.choice((1, -1)), nugget.heap_rcf(rng.randint(0, top))) for _ in range(count)]
            assert nugget.sum_stops(terms) == _stops_of_the_summed_games(u, terms), terms


def _half(d):
    return Dyadic(d.num, d.exp + 1)


def _stops_by_the_dyadic_definition(terms):
    """m + f and m - f as ``sum_stops`` states them, summed in ``Dyadic``: m the
    sum of the signed means, f = t1 - t2 + t3 - ... over the temperatures."""
    mean, temperatures = ZERO, []
    for sign, value in terms:
        part = value.value
        if value.kind == "switch":
            part = _half(ONE + value.value)
            temperatures.append(_half(ONE - value.value))
        mean = mean + part if sign > 0 else mean - part
    swing = ZERO
    for k, t in enumerate(sorted(temperatures, reverse=True)):
        swing = swing - t if k % 2 else swing + t
    return mean + swing, mean - swing


def test_sum_stops_match_the_dyadic_definition_on_long_fractions():
    # g0 and g-switch heaps up to row 2,000, where s(n) has 3,999 fractional
    # bits, b2-hat heaps whose values have 101 to 160 bits, and small heaps of
    # every kind, summed with mixed signs
    rng = random.Random(0)
    pool = [nugget.heap_rcf(h) for h in range(30)]
    pool += [nugget.heap_rcf(nugget.g_heap(i, n)) for n in (*range(1, 20), 500, 1999, 2000) for i in (0, 1, 4)]
    for _ in range(40):
        bits = rng.randint(101, 160)
        d = Dyadic(rng.randrange((2 << bits) // 3 + 1, 1 << bits) | 1, bits)
        pool.append(nugget.heap_rcf(nugget.xi(d)))
        assert pool[-1] == nugget.RcfValue("number", d)
    assert max(value.value.exp for value in pool) == 3999
    assert nugget.sum_stops([]) == _stops_by_the_dyadic_definition([]) == (ZERO, ZERO)
    for _ in range(400):
        terms = [(rng.choice((1, -1)), rng.choice(pool)) for _ in range(rng.randint(1, 6))]
        assert nugget.sum_stops(terms) == _stops_by_the_dyadic_definition(terms), terms


def test_check_bound_names_a_long_heap_by_its_last_digits():
    for h in (61, 10**40 - 1):
        with pytest.raises(ResourceLimitError, match=f"^heap {h} exceeds the oracle bound 60$"):
            nugget.check_bound(h, 60)
    h = 7 * 10**4299 + 123
    with pytest.raises(ResourceLimitError,
                       match=rf"^heap \.\.\.000000000123 \({h.bit_length()} bits\) exceeds the oracle bound 60$"):
        nugget.check_bound(h, 60)


def test_heap_canonical_examples():
    u = Universe()
    assert u.to_text(nugget.heap_canonical(u, 5)) == "{1,{1|0}|0}"
    assert u.to_text(nugget.heap_canonical(u, 10)) == "{1,{1|0}|0,{1,{1|0}|0}}"
    assert nugget.heap_canonical(u, 0) == u.zero
    with pytest.raises(ResourceLimitError):
        nugget.heap_canonical(u, 61)
    with pytest.raises(ValueError):
        nugget.heap_canonical(u, -1)


def test_the_oracle_memo_is_keyed_by_the_spec():
    # a spec of another class named "golden" is another game, with its own memo
    u = Universe()
    nugget.subtraction_canonical(u, nugget.CSGameSpec("golden", lambda k: k % 2 == 1), 5, 60)
    assert u.to_text(nugget.heap_canonical(u, 5)) == "{1,{1|0}|0}"
    # an equal spec shares one
    assert nugget.subtraction_canonical(u, GoldenSpec(), 9, 60) == nugget.heap_canonical(u, 9)
    assert len(u.cache("oracle")) == 2


def test_heap_values_from_oracle():
    u = Universe()
    assert u.as_number(nugget.heap_canonical(u, 11)) == Dyadic(5, 3)
    assert u.as_number(nugget.heap_canonical(u, 3)) == Dyadic(1, 1)
    assert u.as_number(nugget.heap_canonical(u, 2)) is None


def test_classify_every_g_row_far_beyond_the_forward_enumeration():
    for n in range(1, 201):
        assert nugget.classify(fw.fib(2 * n + 3) - 2) == nugget.HeapClass("g0", n=n)
        for m in (1, 2, 10**60):
            assert str(nugget.classify(nugget.g_heap(m, n))) == f"g-switch(n={n},i={m})"


def _invert(word, y):
    """The m >= 1 with compose_ab(word, m) == y, or None, one letter at a time:
    the letter's one candidate read off isqrt(5 y^2), kept only when the
    forward step gives y back, so no inverse of the package is used."""
    for letter in word:
        s = isqrt(5 * y * y)
        n = (s - y) // 2 + 1 if letter == "A" else (3 * y - s) // 2
        if fw.compose_ab(letter, n) != y:
            return None
        y = n
    return y


def _classify_by_search(h):
    """The reference classifier: every test inverts a word of A and B one letter
    at a time, and the rows G(n) are tried from n = 1 up."""
    if h in (0, 1):
        return HeapClass("zero" if h == 0 else "ab-hat")
    if _invert("B", h) is not None:
        return HeapClass("b")
    if _invert("B", h + 1) is not None:
        if _invert("AB", h - 1) is not None:
            return HeapClass("ab-hat")
        assert _invert("BB", h - 1) is not None, h
        return HeapClass("b2-hat")
    n = 1
    while fw.fib(2 * n + 3) - 2 <= h:
        rest = h - fw.fib(2 * n + 3) + 2
        if rest == 0:
            return HeapClass("g0", n=n)
        i = _invert("B" * (n + 1), rest)
        if i is not None:
            return HeapClass("g-switch", n=n, i=i)
        n += 1
    raise AssertionError(h)


# isqrts per class: one in B and for g0, two in AA and for g-switch
ISQRT_COST = {"zero": 0, "b": 1, "g0": 1, "ab-hat": 2, "b2-hat": 2, "g-switch": 2}

HEAP_SETS = {
    "up to 2e5": lambda: range(2 * 10**5 + 1),
    "near Fibonacci numbers": lambda: [fw.fib(k) + d for k in range(1500) for d in range(-2, 3) if fw.fib(k) + d >= 0],
}


def _classified_once(heaps):
    """(h, classify(h), the number of isqrts that classify took) for each h,
    with classify called once per heap."""
    calls = []

    def counting_isqrt(x):
        calls.append(x)
        return isqrt(x)

    walk = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fw, "isqrt", counting_isqrt)
        mp.setattr(nugget, "isqrt", counting_isqrt)
        for h in heaps:
            calls.clear()
            walk.append((h, nugget.classify(h), len(calls)))
    return walk


@functools.cache
def _walk(name):
    """One classify pass over the heap set `name`, shared by every test of that set."""
    return _classified_once(HEAP_SETS[name]())


def _assert_xi_inverse_accepts_a_number_heap(h, cls):
    """xi_inverse accepts h exactly when h's class is a number heap's."""
    number = h in (0, 1) or cls.kind in ("b2-hat", "g0")
    try:
        nugget.xi_inverse(h)
    except ValueError:
        assert not number, h
    else:
        assert number, h


def test_classify_matches_the_search_up_to_2e5():
    for h, cls, _ in _walk("up to 2e5"):
        assert cls == _classify_by_search(h), h


def test_classify_matches_the_search_near_fibonacci_numbers():
    for h, cls, _ in _walk("near Fibonacci numbers"):
        assert cls == _classify_by_search(h), h


def test_classify_isqrt_cost_is_one_in_b_and_g0_and_two_in_aa_and_g_switch():
    # _classify_by_search, which inverts each row letter by letter, makes hundreds on g_heap(3, 700)
    far = _classified_once([nugget.g_heap(3, 700)])
    for h, cls, count in [*_walk("up to 2e5"), *_walk("near Fibonacci numbers"), *far]:
        assert count == (0 if h == 1 else ISQRT_COST[cls.kind]), (h, cls)
    assert str(far[0][1]) == "g-switch(n=700,i=3)"


def test_xi_inverse_accepts_exactly_the_number_heaps_up_to_2e5():
    for h, cls, _ in _walk("up to 2e5"):
        _assert_xi_inverse_accepts_a_number_heap(h, cls)


def test_xi_inverse_accepts_exactly_the_number_heaps_near_fibonacci_numbers():
    for h, cls, _ in _walk("near Fibonacci numbers"):
        _assert_xi_inverse_accepts_a_number_heap(h, cls)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**60), st.integers(1, 200))
def test_classify_far_beyond_the_forward_enumeration(m, n):
    assert str(nugget.classify(nugget.g_heap(m, n))) == f"g-switch(n={n},i={m})"
    assert nugget.classify(fw.b_seq(m)).kind == "b"
    assert nugget.classify(fw.compose_ab("AB", m) + 1).kind == "ab-hat"
    assert nugget.classify(fw.compose_ab("BB", m) + 1).kind == "b2-hat"


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**60), st.integers(1, 200), st.integers(-1, 1))
def test_xi_inverse_accepts_exactly_the_number_heaps_far_out(m, n, d):
    # the m-th heap of B and of AB + 1, and heaps d from those of Q and G(n)
    for h in {fw.b_seq(m), fw.compose_ab("AB", m) + 1, fw.compose_ab("BB", m) + 1 + d,
              nugget.g_heap(m, n) + d, fw.fib(2 * n + 3) - 2 + d}:
        _assert_xi_inverse_accepts_a_number_heap(h, nugget.classify(h))


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 10**400), st.integers(1, 950), st.integers(1, 10**6))
def test_derived_roots_match_isqrt(y, n, d):
    # the roots classify derives from s = isqrt(5 y^2): those of y + 1 and
    # y - 1, and of y - c for the start c of the row G(n), whose own root is
    # L(2n+3) - 5; y - c is drawn both at random and just above c
    c, t = fw.fib(2 * n + 3) - 2, fw.fib(2 * n + 2) + fw.fib(2 * n + 4) - 5
    assert t == isqrt(5 * c * c)
    s = isqrt(5 * y * y)
    assert fw.shifted_root(y, s, -1, -3) == isqrt(5 * (y + 1) ** 2)
    assert fw.shifted_root(y, s, 1, 2) == isqrt(5 * (y - 1) ** 2)
    for z in (y, c + d):
        if z > c:
            assert fw.shifted_root(z, isqrt(5 * z * z), c, t) == isqrt(5 * (z - c) ** 2), (z, n)


def _assert_row_lemma(i, n, rows):
    """For h = G_i(n), the rest h - c(m) at each earlier row m's start has an
    even least Zeckendorf index, 2m + 4 when n - m >= 2."""
    h = nugget.g_heap(i, n)
    for m in rows:
        least = fw.z1(h - nugget.g_heap(0, m))
        assert least % 2 == 0, (i, n, m)
        assert n - m == 1 or least == 2 * m + 4, (i, n, m)


def test_row_lemma_every_earlier_rest_is_in_a():
    # the lemma _g_row's docstring proves: no earlier row's rest is in B
    for n in range(1, 40):
        for m in range(1, n):
            assert nugget.g_heap(0, n) - nugget.g_heap(0, m) == sum(fw.fib(2 * k) for k in range(m + 2, n + 2))
    for n in range(2, 12):
        for i in range(400):
            _assert_row_lemma(i, n, range(1, n))


@given(st.integers(0, 10**60), st.integers(2, 200))
def test_row_lemma_far_out(i, n):
    _assert_row_lemma(i, n, {m for m in (1, n - 2, n - 1) if m >= 1})


def test_deep_oracle_classifier_agreement():
    # well beyond the acceptance bound: the classifier and the full search
    # stay in lockstep, and every number heap evaluates via the bit map
    failures = [detail for ok, detail in verify.oracle_classifier_agreement(Universe(), 3000) if not ok]
    assert not failures


def test_oracle_keeps_no_record_of_every_move():
    # heap 1000 has 1000 legal moves; the arena holds only trimmed games
    u = Universe()
    nugget.heap_canonical(u, 1000, bound=1000)
    assert max(len(left) + len(right) for left, right in map(u.options, range(len(u)))) <= 16


def test_oracle_arena_size_is_pinned():
    # the records the oracle makes to heap 600, trims and bypasses included
    u = Universe()
    nugget.heap_canonical(u, 600, bound=600)
    assert len(u) == 1193
