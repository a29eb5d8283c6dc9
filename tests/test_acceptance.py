"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Each test prints a single pass/fail line (visible with ``pytest -s``); the
stated runtime envelopes are asserted where the criterion gives one.
Criteria whose data appear in no verify suite (1, 2, 4, 10) are checked
here; the others are a table over named checks of the verify suites, which
run once per test session, so each invariant is defined and swept once.
"""

import functools
import time

import pytest

from goldennugget import fibonacci as fw
from goldennugget import nugget
from goldennugget import positions as pos
from goldennugget import verify
from goldennugget.games import Outcome, Universe
from goldennugget.rcf import reduced_canonical_form
from gametext import read_game

# heap -> canonical form; the reduced forms are verify.GOLDEN_RCF_TABLE
VALUE_TABLE = {
    1: "1",
    2: "{1|0}",
    3: "1/2",
    4: "{1||1|0}",
    5: "{1,{1|0}|0}",
    6: "3/4",
    7: "{1||1|0|||0,{1|0}}",
    8: "{1|1/2}",
    9: "{1|{1|0},{1||1|0}}",
    10: "{1,{1|0}|0,{1,{1|0}|0}}",
    11: "5/8",
    12: "{1||1|0||||1||1|0|||0,{1|0}}",
    13: "{1,{1,{1|0}|0}|0}",
    14: "7/8",
    15: "{{1||1|0},{1||1|0|||0,{1|0}}|0,{1|0}}",
    16: "{1,{1|1/2}|1/2}",
    17: "{1|{1|0},{1||1|0}||{1|0},{1||1|0}}",
    18: "{1,{1,{1|0}|0,{1,{1|0}|0}}|0,{1,{1|0}|0}}",
    19: "11/16",
    20: "{{1||1|0||||1||1|0|||0,{1|0}},{1,{1|1/2}|1/2}|0,{1||1|0|||0,{1|0}}}",
}

NUMBER_TABLE = {
    0: ("0", "0", None),
    1: ("1", "1", None),
    3: ("1/2", "0.1", (3, 2)),
    6: ("3/4", "0.11", (3, 5)),
    11: ("5/8", "0.101", (8, 5)),
    14: ("7/8", "0.111", (8, 13)),
    19: ("11/16", "0.1011", (8, 13)),
    27: ("13/16", "0.1101", (21, 13)),
    32: ("21/32", "0.10101", (21, 13)),
    35: ("15/16", "0.1111", (21, 34)),
    40: ("23/32", "0.10111", (21, 34)),
    48: ("27/32", "0.11011", (21, 34)),
    53: ("43/64", "0.101011", (21, 34)),
    61: ("25/32", "0.11001", (55, 34)),
    69: ("29/32", "0.11101", (55, 34)),
    74: ("45/64", "0.101101", (55, 34)),
    82: ("53/64", "0.110101", (55, 34)),
    87: ("85/128", "0.1010101", (55, 34)),
}


# criterion -> (description, [(suite, check name)], runtime envelope in s).
# A check name of None stands for the whole suite, timed as one run. Each
# criterion keeps a test of its own name below, so test ids stay stable.
CRITERIA = {
    3: ("partition table rows", [
        ("nugget", "partition table rows reproduce"),
        ("nugget", "classify matches forward enumeration, h <= 10^5"),
    ], None),
    5: ("full sweep: oracle vs classifier, h <= 60", [
        ("nugget", "oracle vs classifier, h <= 60"),
    ], 300),
    6: ("number ladder anchors", [
        ("nugget", "number ladders: oracle to n=3, xi to n=20"),
    ], None),
    7: ("parity of Zeckendorf tails orders the numbers, up to 10^4", [
        ("nugget", "z1 parity of differences decides value order on Q up to 10^4"),
    ], 60),
    8: ("bit-map round trip and injectivity, up to 10^6", [
        ("nugget", "xi round trip and injectivity on Q up to 10^6"),
    ], 60),
    9: ("number-theory invariant suites", [("fibonacci", None)], 120),
    11: ("outcome sweeps, closed forms, and periodicity probes", [
        ("positions", "Beatty games: heap in A -> L, in B -> N, zero -> P (h <= 2000)"),
        ("positions", "odd/even game matches both closed forms, h <= 30"),
        ("positions", "odd/even outcome sequence has period 2 from h=1"),
        ("positions", "GoldenNugget outcome sequence shows no period up to 5000"),
    ], None),
    12: ("empirical probe: doubled anchors are literal switches", [
        ("nugget", "probe (empirical only): <2F(2n+3)-2> is literally {1|s(n)}, n <= 3"),
    ], None),
}


class SuiteRuns:
    """Each verify suite run at most once, at its default bounds, with its wall time."""

    def __init__(self):
        self._runs = {}

    def get(self, name):
        if name not in self._runs:
            start = time.perf_counter()
            checks = verify.SUITES[name]()
            self._runs[name] = (checks, time.perf_counter() - start)
        return self._runs[name]

    def check(self, suite, name):
        matches = [c for c in self.get(suite)[0] if c.name == name]
        assert len(matches) == 1, f"{len(matches)} checks named {name!r} in suite {suite!r}"
        return matches[0]


@pytest.fixture(scope="session")
def suites():
    return SuiteRuns()


def report(criterion, description):
    def decorate(fn):
        @functools.wraps(fn)  # keeps the signature, so pytest still passes fixtures
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {criterion:2d} ({description}): FAIL")
                raise
            print(f"criterion {criterion:2d} ({description}): PASS")

        return wrapper

    return decorate


def assert_suite(checks):
    bad = [c for c in checks if not c.ok]
    assert not bad, "; ".join(c.line() for c in bad)


def check_criterion(criterion, suites):
    """Assert a table row's checks pass and their time fits its envelope."""
    description, names, envelope = CRITERIA[criterion]

    @report(criterion, description)
    def run():
        elapsed = 0.0
        for suite, name in names:
            if name is None:
                checks, seconds = suites.get(suite)
            else:
                check = suites.check(suite, name)
                checks, seconds = [check], check.elapsed
            assert_suite(checks)
            elapsed += seconds
        if envelope is not None:
            assert elapsed < envelope, f"{elapsed:.1f}s over the {envelope}s envelope"

    run()


@report(1, "heap table values and reduced forms, h <= 20")
def test_criterion_1_value_table():
    start = time.time()
    u = Universe()
    rcf_texts = dict(line.split("\t") for line in verify.GOLDEN_RCF_TABLE.splitlines()[1:])
    assert list(rcf_texts) == [str(h) for h in VALUE_TABLE]
    for h, value_text in VALUE_TABLE.items():
        got = nugget.heap_canonical(u, h)
        assert got == u.canonical_form(read_game(u, value_text)), f"value h={h}"
        want = u.canonical_form(read_game(u, rcf_texts[str(h)]))
        assert reduced_canonical_form(u, got) == want, f"rcf h={h}"
    assert time.time() - start < 10


@report(2, "sequence tables and the word prefix")
def test_criterion_2_sequences():
    start = time.time()
    assert [fw.a_seq(n) for n in range(15)] == [0, 1, 3, 4, 6, 8, 9, 11, 12, 14, 16, 17, 19, 21, 22]
    assert [fw.b_seq(n) for n in range(15)] == [0, 2, 5, 7, 10, 13, 15, 18, 20, 23, 26, 28, 31, 34, 36]
    assert [fw.compose_ab("AB", n) for n in range(15)] == [0, 3, 8, 11, 16, 21, 24, 29, 32, 37, 42, 45, 50, 55, 58]
    assert [fw.compose_ab("BB", n) for n in range(15)] == [0, 5, 13, 18, 26, 34, 39, 47, 52, 60, 68, 73, 81, 89, 94]
    assert fw.word_prefix(15, with_leading_b=True) == "babaababaabaaba"
    assert time.time() - start < 1


def test_criterion_3_partition_rows(suites):
    check_criterion(3, suites)


@report(4, "number table: values, binary forms, optimal moves")
def test_criterion_4_numbers_table():
    for h, (value_text, binary, moves) in NUMBER_TABLE.items():
        value = nugget.xi_inverse(h)
        assert str(value) == value_text, f"value h={h}"
        assert value.binary() == binary, f"binary h={h}"
        if moves is not None:
            evens = [fw.fib(i) for i in range(2, 30, 2) if fw.fib(i) <= h]
            odds = [fw.fib(i) for i in range(3, 30, 2) if fw.fib(i) <= h]
            assert (evens[-1], odds[-1]) == moves, f"moves h={h}"


def test_criterion_5_oracle_classifier_sweep(suites):
    check_criterion(5, suites)


def test_criterion_6_number_anchors(suites):
    check_criterion(6, suites)


def test_criterion_7_parity_sweep(suites):
    check_criterion(7, suites)


def test_criterion_8_xi_round_trip(suites):
    check_criterion(8, suites)


def test_criterion_9_fibonacci_suites(suites):
    check_criterion(9, suites)


@report(10, "worked multi-heap positions")
def test_criterion_10_worked_positions():
    u = Universe()
    first = pos.Position.parse("3b+20b+18r")
    assert pos.position_outcome(u, first) == Outcome.L
    move = pos.winning_move(u, first, "L")
    assert move is not None
    after = first.replace(move.index, first.heaps[move.index][1] - move.amount)
    assert pos.position_outcome(u, after) in (Outcome.L, Outcome.P)

    second = pos.Position.parse("20b+17r")
    assert pos.position_outcome(u, second) == Outcome.N
    assert pos.winning_move(u, second, "R") == pos.Move(0, 20)
    assert pos.winning_move(u, second, "L") is not None
    # Left's documented winning line: remove 16 from the 20 heap
    assert pos.position_outcome(u, second.replace(0, 4)) == Outcome.L


def test_criterion_11_outcome_level(suites):
    check_criterion(11, suites)


def test_criterion_12_conjecture_probe(suites):
    check_criterion(12, suites)


@report(0, "full invariant suites (game-core, rcf, nugget, positions, cli)")
def test_remaining_suites_all_green(suites):
    for name in ("game-core", "rcf", "nugget", "positions", "cli"):
        assert_suite(suites.get(name)[0])


def test_criteria_name_existing_unique_checks(suites):
    # each criterion test's suites.check asserts that its names exist once
    for name in verify.SUITES:
        names = [c.name for c in suites.get(name)[0]]
        assert len(names) == len(set(names)), f"duplicate check names in suite {name!r}"
