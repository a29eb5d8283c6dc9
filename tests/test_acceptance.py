"""Acceptance criteria, exact arithmetic throughout.

Every check of the verify suites is asserted here once.  Each suite runs
once per session; one test asserts that every check of a suite passes
(criterion 9 the fibonacci suite, criterion 11 the positions suite,
``test_remaining_suites_all_green`` the rest), one pins how many checks each
suite has, and the stated runtime envelopes are one table (``ENVELOPES``),
asserted by the criterion that states each.  The paper's tables and worked
positions (criteria 1, 2, 4 and 10) appear in no verify suite; they are read
off the output of the commands that print them.
"""

import functools
import json
import time

from goldennugget import cli, verify
from goldennugget.games import Universe
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

# number heap -> value, binary form, optimal moves (the largest even- and
# odd-indexed Fibonacci numbers up to the heap)
NUMBER_TABLE = {
    0: ("0", "0", ""),
    1: ("1", "1", ""),
    3: ("1/2", "0.1", "3,2"),
    6: ("3/4", "0.11", "3,5"),
    11: ("5/8", "0.101", "8,5"),
    14: ("7/8", "0.111", "8,13"),
    19: ("11/16", "0.1011", "8,13"),
    27: ("13/16", "0.1101", "21,13"),
    32: ("21/32", "0.10101", "21,13"),
    35: ("15/16", "0.1111", "21,34"),
    40: ("23/32", "0.10111", "21,34"),
    48: ("27/32", "0.11011", "21,34"),
    53: ("43/64", "0.101011", "21,34"),
    61: ("25/32", "0.11001", "55,34"),
    69: ("29/32", "0.11101", "55,34"),
    74: ("45/64", "0.101101", "55,34"),
    82: ("53/64", "0.110101", "55,34"),
    87: ("85/128", "0.1010101", "55,34"),
}

CHECK_COUNTS = {"game-core": 8, "rcf": 10, "fibonacci": 23, "nugget": 10, "positions": 7, "cli": 2}

# criterion -> (suite, check name, runtime envelope in s); a name of None times the whole suite
ENVELOPES = {
    5: ("nugget", "oracle vs classifier, h <= 60", 300),
    7: ("nugget", "z1 parity of differences decides value order on Q up to 10^4", 60),
    8: ("nugget", "xi round trip and injectivity on Q up to 10^6", 60),
    9: ("fibonacci", None, 120),
}


@functools.cache
def run_suite(suite):
    """The suite's checks and their times (None: the whole suite), run once per session."""
    start = time.perf_counter()
    checks = list(verify.SUITES[suite]())
    return checks, {None: time.perf_counter() - start, **{c.name: c.elapsed for c in checks}}


def table(kind, top):
    """The rows of ``table --kind KIND --max TOP``, header first, split into cells."""
    out, code = cli.capture(["table", "--kind", kind, "--max", str(top)])
    assert code == 0
    return [line.split("\t") for line in out.splitlines()]


def solve(*argv):
    out, code = cli.capture(["solve", *argv, "--format", "json"])
    assert code == 0
    return json.loads(out)


def assert_passes(*suites):
    assert [c.line() for suite in suites for c in run_suite(suite)[0] if not c.ok] == []


def assert_envelope(criterion):
    suite, name, envelope = ENVELOPES[criterion]
    elapsed = run_suite(suite)[1][name]
    assert elapsed < envelope, f"{name or suite}: {elapsed:.1f}s over {envelope}s"


def test_criterion_1_value_table():
    start = time.perf_counter()
    header, *rows = table("values", 20)
    rcf_texts = dict(line.split("\t") for line in verify.GOLDEN_RCF_TABLE.splitlines()[1:])
    assert header == ["h", "value", "rcf"]
    assert [h for h, _, _ in rows] == list(rcf_texts) == [str(h) for h in VALUE_TABLE]
    u = Universe()
    for h, value, rcf in rows:
        for printed, literal in ((value, VALUE_TABLE[int(h)]), (rcf, rcf_texts[h])):
            got = u.canonical_form(read_game(u, printed))
            assert got == u.canonical_form(read_game(u, literal)), f"h={h}: {printed} is not {literal}"
    assert time.perf_counter() - start < 10


def test_criterion_2_sequences():
    start = time.perf_counter()
    rows = {label: cells for label, *cells in table("sequences", 14)[1:]}
    assert rows == {
        "A": [str(n) for n in [0, 1, 3, 4, 6, 8, 9, 11, 12, 14, 16, 17, 19, 21, 22]],
        "B": [str(n) for n in [0, 2, 5, 7, 10, 13, 15, 18, 20, 23, 26, 28, 31, 34, 36]],
        "AB": [str(n) for n in [0, 3, 8, 11, 16, 21, 24, 29, 32, 37, 42, 45, 50, 55, 58]],
        "B2": [str(n) for n in [0, 5, 13, 18, 26, 34, 39, 47, 52, 60, 68, 73, 81, 89, 94]],
        "W": list("babaababaabaaba"),
    }
    assert time.perf_counter() - start < 1


def test_criterion_4_numbers_table():
    assert table("numbers", 87) == [["heap", "value", "binary", "moves"]] + [
        [str(h), *row] for h, row in NUMBER_TABLE.items()]


def test_criterion_5_oracle_classifier_sweep():
    assert_envelope(5)


def test_criterion_7_parity_sweep():
    assert_envelope(7)


def test_criterion_8_xi_round_trip():
    assert_envelope(8)


def test_criterion_9_fibonacci_suites():
    assert_passes("fibonacci")
    assert_envelope(9)


def test_criterion_10_worked_positions():
    first = solve("3b+20b+18r")
    assert first["outcome"] == "L"
    move = first["moves"]["L"]
    heaps = "3b+20b+18r".split("+")
    heap = heaps[move["heap"]]
    heaps[move["heap"]] = f"{int(heap[:-1]) - move['remove']}{heap[-1]}"
    assert solve("+".join(heaps))["outcome"] in ("L", "P")

    second = solve("20b+17r")
    assert second["outcome"] == "N" and second["moves"]["L"] is not None
    assert solve("20b+17r", "--mover", "R")["moves"] == {"R": {"heap": 0, "remove": 20}}
    # Left's documented winning line: remove 16 from the 20 heap
    assert solve("4b+17r")["outcome"] == "L"


def test_criterion_11_outcome_level():
    assert_passes("positions")


def test_remaining_suites_all_green():
    assert_passes(*(suite for suite in verify.SUITES if suite not in ("fibonacci", "positions")))


def test_criteria_name_existing_unique_checks():
    for suite in verify.SUITES:
        checks, elapsed = run_suite(suite)
        assert len(checks) == len(elapsed) - 1 == CHECK_COUNTS[suite], suite  # names are distinct
    for suite, name, _ in ENVELOPES.values():
        assert name in run_suite(suite)[1]
