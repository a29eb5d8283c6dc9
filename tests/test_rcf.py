import pytest

from goldennugget.dyadic import Dyadic, ONE
from goldennugget.nugget import heap_canonical, subtraction_canonical
from goldennugget.positions import parse_spec
from goldennugget.rcf import eq_inf, reduced_canonical_form
from gametext import read_game


def test_geq_inf_examples(u):
    # the stop computation behind {1|0} >=I 1 failing; the rcf suite checks
    # the relations themselves
    one = u.from_number(ONE)
    g10 = read_game(u, "{1|0}")
    assert u.stops(u.add(g10, u.negate(one)))[1] == Dyadic(-1)


def test_eq_inf_examples(u):
    g4 = heap_canonical(u, 4)
    assert u.to_text(g4) == "{1|{1|0}}"
    assert eq_inf(u, g4, u.from_number(ONE))
    star = read_game(u, "{0|0}")
    assert eq_inf(u, u.zero, star)
    assert not eq_inf(u, u.from_number(Dyadic(1, 1)), u.from_number(ONE))


def test_rcf_examples(u):
    assert reduced_canonical_form(u, heap_canonical(u, 4)) == u.from_number(ONE)
    g10 = read_game(u, "{1|0}")
    assert reduced_canonical_form(u, heap_canonical(u, 7)) == g10
    assert reduced_canonical_form(u, heap_canonical(u, 20)) == g10
    assert reduced_canonical_form(u, g10) == g10


def test_rcf_of_numbers_and_infinitesimals(u):
    half = u.from_number(Dyadic(1, 1))
    assert reduced_canonical_form(u, half) == half
    star = read_game(u, "{0|0}")
    up = read_game(u, "{0|{0|0}}")
    assert reduced_canonical_form(u, star) == u.zero
    assert reduced_canonical_form(u, up) == u.zero
    # number plus infinitesimal reduces to the number
    assert reduced_canonical_form(u, u.add(half, star)) == half


@pytest.mark.parametrize("text, reduced", [
    ("{1,{2|0}|0}", "{1|0}"),
    ("{1|0,{1|-1}}", "{1|0}"),
    ("{2|1/2,{2|0}}", "{2|1/2}"),
    ("{0,{5|-1}|-1}", "{0|-1}"),
])
def test_rcf_bypasses_inf_reversible_options(u, text, reduced):
    # each game is its own canonical form; its reduced form bypasses an
    # Inf-reversible option
    assert u.to_text(reduced_canonical_form(u, read_game(u, text))) == reduced


def test_rcf_keeps_stops_through_inf_bypasses(u):
    # heaps of mod:5:L=1,4 make Inf-bypasses (59 rounds to heap 300), golden none;
    # the reduced form stays Inf-equal to the heap and keeps its stops
    spec = parse_spec("mod:5:L=1,4")
    for h in range(301):
        g = subtraction_canonical(u, spec, h, 300)
        r = reduced_canonical_form(u, g)
        assert eq_inf(u, r, g) and u.stops(r) == u.stops(g), h
        assert reduced_canonical_form(u, r) == r, h
