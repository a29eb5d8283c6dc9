import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from goldennugget import cli, nugget, verify
from goldennugget import fibonacci as fw
from goldennugget import positions as pos
from goldennugget.games import Universe


def run(argv):
    return cli.capture(argv)


def fresh(code: str, *flags: str) -> str:
    """The stdout of ``code`` run in a fresh interpreter on this checkout's package."""
    src = Path(cli.__file__).parents[1]
    return subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(src)}).stdout


LOADED = "sorted(m for m in sys.modules if m.startswith('goldennugget.'))"


def test_package_import_loads_no_submodule():
    # the modules are the API: importing the package binds only __version__
    out = fresh(f"import sys, goldennugget; print({LOADED}, sorted(n for n in vars(goldennugget) if not n.startswith('__')))")
    assert out == "[] []\n"


def test_commands_load_no_dataclasses_inspect_or_typing():
    # each costs milliseconds at every cold start; whatever the standard-library
    # modules the package imports load on their own (on some Python) is not counted
    code = ("import sys; heavy = {'dataclasses', 'inspect', 'typing'}; "
            "import __future__, argparse, bisect, collections.abc, contextlib, csv, enum, functools, "
            "io, itertools, json, math, random, re, time; "
            "before = heavy & set(sys.modules); "
            "import goldennugget.nugget; import goldennugget.cli; "
            "print(sorted(heavy & set(sys.modules) - before))")
    assert fresh(code, "-S") == "[]\n"


def test_the_classifier_loads_no_game_arena():
    # a classifier stream compiles dyadic, fibonacci and nugget only, also
    # once a form's text is written
    out = fresh(f"import sys, goldennugget.nugget as n; text = str(n.heap_rcf(16)); print({LOADED}, text)")
    assert out == "['goldennugget.dyadic', 'goldennugget.fibonacci', 'goldennugget.nugget'] {1|1/2}\n"


def test_the_cli_loads_every_traced_layer_but_not_verify():
    # perfbench's tracer imports cli to load the layers it wraps; verify loads
    # only for the verify command
    layers = ["cli", "dyadic", "fibonacci", "games", "nugget", "positions", "rcf"]
    assert fresh(f"import sys, goldennugget.cli; print({LOADED})") == f"{[f'goldennugget.{m}' for m in layers]}\n"


def test_rcf_text_of_a_deep_number_heap():
    # text never builds the game tree of s(1000), about 2,000 frames deep
    h = nugget.g_heap(1, 1000)
    out, code = run(["rcf", str(h)])
    assert (code, out) == (0, f"{{1|{nugget.s_val(1000)}}}\n")


def test_a_long_refused_heap_is_named_by_its_last_digits(capsys):
    # g_heap(3, 9000) has 3,763 digits; the refusal does not echo them
    h = nugget.g_heap(3, 9000)
    out, code = run(["number", str(h)])
    assert (code, out) == (2, "")
    line = capsys.readouterr().err
    assert line == f"error: heap ...{h % 10**12:012d} ({h.bit_length()} bits) is not a positive number heap\n"
    assert len(line) == 71


@pytest.fixture
def digit_limit():
    """CPython's int-string limit at its default, 4,300 digits, restored after."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python converts ints of any length")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(before)


def test_an_int_argument_past_the_digit_limit_is_a_resource_limit(capsys, digit_limit):
    heap = "1" + "0" * 4300
    for argv in (["classify", heap], ["repr", heap], ["value", "-" + heap], ["verify", "--suite", "rcf", "--bound", heap]):
        assert run(argv) == ("", 3), argv[0]
        assert capsys.readouterr().err == (
            "resource limit: integer argument of 4301 digits exceeds the int-string limit of 4300 digits\n")
    assert run(["classify", heap[:-1]]) == ("b2-hat\n", 0)
    assert run(["classify", "1x" + heap])[1] == 2  # not an int, whatever its length
    sys.set_int_max_str_digits(0)  # no limit: the argument is read
    assert run(["classify", heap])[1] == 0
    out, code = run(["--help"])
    help_text = " ".join(out.split())  # as argparse wraps it
    assert code == 0 and "3 resource limit" in help_text and "int-string limit" in help_text


def test_a_heap_literal_past_the_digit_limit_is_a_resource_limit(capsys, digit_limit):
    # neither refusal echoes the heap's digits
    heap = "1" + "0" * 4300
    for argv in (["solve", heap + "b"], ["solve", "3b+" + heap + "r", "--mover", "L"]):
        assert run(argv) == ("", 3), argv
        assert capsys.readouterr().err == (
            "resource limit: heap literal of 4301 digits exceeds the int-string limit of 4300 digits\n")
    h = int(heap[:-1])
    assert run(["solve", heap[:-1] + "b"]) == ("", 3)
    assert capsys.readouterr().err == (
        f"resource limit: heap ...000000000000 ({h.bit_length()} bits) exceeds the oracle bound 60\n")


def test_an_answer_past_the_digit_limit_is_a_resource_limit(capsys, digit_limit):
    # s(7200) needs more than 4,300 digits; the 3,011-digit heap does not
    h = nugget.g_heap(3, 7200)
    for argv in (["rcf", str(h)], ["rcf", str(h), "--format", "json"],
                 ["number", str(fw.fib(2 * 7200 + 3) - 2)], ["xi", "0.11" + "0" * 20000 + "1", "--format", "json"]):
        assert run(argv) == ("", 3), argv
        assert capsys.readouterr().err == (
            "resource limit: the answer needs more digits than the int-string limit of 4300 digits\n")
    assert run(["classify", str(h)]) == ("g-switch(n=7200,i=3)\n", 0)


def test_rcf_json_matches_the_game_route():
    heaps = list(range(301))
    for n in [*range(1, 400, 9), 400]:
        heaps += [fw.fib(2 * n + 3) - 2, nugget.g_heap(1, n), nugget.g_heap(7, n)]
    for h in heaps:
        out, code = run(["rcf", str(h), "--format", "json"])
        u = Universe()
        assert code == 0 and json.loads(out)["game"] == u.to_json_obj(nugget.heap_rcf(h).to_game(u)), h


def test_rcf_json_of_deep_heaps():
    # the game trees of these forms are too deep to build: about 2,000 frames
    s = str(nugget.s_val(1000))
    out, code = run(["rcf", str(nugget.g_heap(1, 1000)), "--format", "json"])
    payload = json.loads(out)
    assert code == 0 and payload["kind"] == "switch" and payload["game"] == {"L": ["1"], "R": [s]}
    out, code = run(["rcf", str(fw.fib(2003) - 2), "--format", "json"])
    payload = json.loads(out)
    assert code == 0 and payload["kind"] == "number" and payload["game"] == s


def test_parser_is_built_once_and_each_parse_starts_fresh():
    assert cli.build_parser() is cli.build_parser()
    text = run(["rcf", "19"])
    out, code = run(["rcf", "19", "--format", "json"])
    assert code == 0 and json.loads(out)
    assert run(["rcf", "19"]) == text  # the last parse's --format does not stick


def test_partition_table_is_the_papers():
    out, code = run(["table", "--kind", "partition", "--max", "14"])
    rows = [line.split("\t") for line in out.splitlines()[1:]]
    paper = [[label] + ["." if n is None else str(n) for n in row] for label, row in verify.PARTITION_TABLE.items()]
    assert code == 0 and rows == paper


@pytest.mark.parametrize("argv", [["table", "--kind", kind, "--max", "20"]
                                  for kind in ("values", "rcf", "partition", "numbers", "sequences")]
                         + [["outcomes", "--game", "golden", "--max", "20"]],
                         ids=lambda argv: argv[2] if argv[0] == "table" else argv[0])
def test_csv_rows_are_the_text_rows(argv):
    # fields such as {1,{1|0}|0} or the moves 3,2 hold commas, so they are quoted
    text, _ = run(argv)
    out, code = run(argv + ["--format", "csv"])
    header, *rows = csv.reader(io.StringIO(out))
    assert code == 0 and all(len(row) == len(header) for row in rows)
    assert [header, *rows] == [line.split("\t") for line in text.splitlines()]


def test_verify_command(monkeypatch, capsys):
    # on stub suites: the real ones run once each in test_acceptance.py
    calls = {}

    def bounded(bound=60):
        calls["bounded"] = bound
        return [verify.Check("fine", True)]

    def plain():
        calls["plain"] = ()
        return [verify.Check("broken", False, "h=5")]

    monkeypatch.setattr(verify, "SUITES", {"bounded": bounded, "plain": plain})
    out, code = run(["verify", "--suite", "all", "--bound", "20"])
    assert calls == {"bounded": 20, "plain": ()}  # --bound only where it is taken
    assert (out, code) == ("[bounded] PASS  fine\n[plain] FAIL  broken  (h=5)\nFAILED: 1 failing check(s)\n", 1)
    assert run(["verify", "--suite", "bounded"]) == ("[bounded] PASS  fine\nOK: 0 failing check(s)\n", 0)
    assert calls["bounded"] == 60
    monkeypatch.undo()  # the refusal lists the real suites, which the help no longer does
    out, code = run(["verify", "--suite", "bogus"])
    assert (out, code) == ("", 2)
    assert capsys.readouterr().err == f"error: unknown suite 'bogus'; available: {', '.join(sorted(verify.SUITES))}\n"


@pytest.mark.parametrize("error", [ValueError, AssertionError])
def test_a_suite_that_raises_is_one_failing_check(monkeypatch, capsys, error):
    # the lines of the suites before it are kept, and the suites after it run
    def raising(bound=60):
        yield verify.Check("fine", True)
        raise error(f"broke at {bound}")

    monkeypatch.setattr(verify, "SUITES", {"a": lambda: [verify.Check("first", True)], "b": raising,
                                           "c": lambda: [verify.Check("last", True)]})
    out, code = run(["verify", "--suite", "all", "--bound", "7"])
    assert (out, code) == ("[a] PASS  first\n[b] PASS  fine\n"
                           f"[b] FAIL  suite raised {error.__name__}: broke at 7\n"
                           "[c] PASS  last\nFAILED: 1 failing check(s)\n", 1)
    assert run(["verify", "--suite", "b"])[1] == 1
    assert capsys.readouterr().err == ""


def test_usage_errors_exit_2():
    out, code = run(["no-such-command"])
    assert code == 2
    out, code = run([])
    assert code == 2


def test_a_position_literal_may_start_with_a_minus():
    # tests/transcript.txt pins how solve refuses -3b by name; -h is still help
    out, code = run(["solve", "-h"])
    assert code == 0 and out.startswith("usage: goldennugget solve")


def test_negative_counts_are_usage_errors(capsys):
    for argv in (["verify", "--suite", "rcf", "--bound", "-1"],
                 ["table", "--kind", "values", "--max", "-1"],
                 ["outcomes", "--game", "oddeven", "--max", "-1"],
                 ["probe-period", "--game", "oddeven", "--max", "-1"]):
        out, code = run(argv)
        assert (code, out) == (2, ""), argv
        assert "nonnegative integer required" in capsys.readouterr().err


def test_negative_oracle_bound_is_a_usage_error(capsys):
    for argv in (["solve", "5b"], ["value", "0"]):
        out, code = run(argv + ["--oracle-bound", "-1"])
        assert code == 2 and out == ""
        assert "nonnegative integer required" in capsys.readouterr().err


def test_explicit_spec_beyond_its_range():
    # the failed growth records nothing: the Universe stays as a fresh one
    spec = pos.parse_spec("explicit:L={1,2}")
    u, fresh = Universe(), Universe()
    with pytest.raises(ValueError, match="3 beyond the bounded range 2"):
        pos.position_value(u, pos.Position.parse("5b"), spec)
    two = pos.Position.parse("2b")
    assert u.to_text(pos.position_value(u, two, spec)) == fresh.to_text(pos.position_value(fresh, two, spec))
    with pytest.raises(ValueError, match="3 beyond the bounded range 2"):
        pos.position_value(u, pos.Position.parse("3b"), spec)


def test_out_file(tmp_path):
    target = tmp_path / "table.csv"
    out, code = run(["table", "--kind", "rcf", "--max", "5", "--format", "csv",
                     "--out", str(target)])
    assert code == 0 and out == ""
    assert target.read_text().startswith("h,rcf")


def test_bad_output_path_is_a_usage_error(tmp_path, capsys):
    out, code = run(["rcf", "5", "--out", str(tmp_path / "no-such-dir" / "x")])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err.startswith("error: ")


def test_bad_game_specs_name_the_literal():
    for literal in ("mod:3", "beatty:sqrt", "mod:x:L=1", "explicit:L={a}"):
        with pytest.raises(ValueError, match=f"^bad game spec '{re.escape(literal)}'$"):
            pos.parse_spec(literal)


# The formats each command takes; every other --format value is a usage error.
FORMATS = {
    ("value", "5"): ("text", "json"),
    ("rcf", "19"): ("text", "json"),
    ("classify", "45"): ("text", "json"),
    ("number", "116"): ("text", "json"),
    ("xi", "0.110011"): ("text", "json"),
    ("repr", "117", "--kind", "even"): ("text", "json"),
    ("table", "--kind", "rcf", "--max", "5"): ("text", "json", "csv"),
    ("solve", "20b+17r"): ("text", "json"),
    ("outcomes", "--game", "oddeven", "--max", "6"): ("text", "json", "csv"),
    ("probe-period", "--game", "oddeven", "--max", "50"): ("text", "json"),
    ("verify", "--suite", "stub"): (),
}


@pytest.mark.parametrize("argv", list(FORMATS), ids=lambda argv: argv[0])
def test_format_matrix(argv, tmp_path, monkeypatch):
    monkeypatch.setattr(verify, "SUITES", {"stub": lambda: [verify.Check("stub", True)]})
    argv = list(argv)
    default, code = run(argv)
    assert code == 0 and default
    for fmt in ("text", "json", "csv"):
        out, code = run(argv + ["--format", fmt])
        if fmt not in FORMATS[tuple(argv)]:
            assert (code, out) == (2, ""), fmt
            continue
        assert code == 0 and out, fmt
        if fmt == "text":
            assert out == default
        target = tmp_path / fmt
        assert run(argv + ["--format", fmt, "--out", str(target)]) == ("", 0)
        assert target.read_text() == out
    target = tmp_path / "default"
    assert run(argv + ["--out", str(target)]) == ("", 0)
    assert target.read_text() == default


def test_json_game_round_trip():
    out, code = run(["value", "12", "--format", "json"])
    payload = json.loads(out)
    u = Universe()
    g = u.from_json_obj(payload["game"])
    assert u.to_text(g) + "\n" == run(["value", "12"])[0]
    out, code = run(["rcf", "16", "--format", "json"])
    payload = json.loads(out)
    assert u.as_number(u.from_json_obj(payload["game"])) is None
    assert payload["kind"] == "switch"


def test_a_command_refuses_a_flag_it_does_not_take():
    # no command takes --seed; --oracle-bound belongs to value, table and solve
    assert run(["table", "--kind", "numbers", "--max", "87", "--seed", "9"]) == ("", 2)
    assert run(["verify", "--suite", "cli", "--seed", "3"]) == ("", 2)
    assert run(["rcf", "5", "--oracle-bound", "10"]) == ("", 2)
    assert run(["table", "--kind", "values", "--max", "5", "--oracle-bound", "5"])[1] == 0


# -- fuzz over the command grammar: every input ends with an exit code --------

_JUNK = st.sampled_from(["", "x", "12x", "-5", "1e3", "0x10", "3.5", " 7", "1_000"])
_HEAPS = st.one_of(
    st.integers(0, 300),
    st.integers(0, 10**400),
    st.builds(nugget.g_heap, st.integers(0, 9), st.integers(1, 1000)),
    st.integers(0, 1000).map(lambda n: fw.fib(2 * n + 3) - 2),
).map(str) | _JUNK
_FRACTIONS = st.text("01", min_size=1, max_size=400).map(lambda bits: "0." + bits) | st.sampled_from(
    ["1", "1.0", "0.2", "0.", ".1", "10.1", "-0.1", "x"])
_POSITIONS = st.lists(st.builds("{}{}".format, st.integers(0, 32), st.sampled_from("br")),
                      min_size=1, max_size=3).map("+".join) | st.sampled_from(
    ["", "+", "3b+", "b", "3x", "-3b", "3b+4y", "3b++4r", "3 b"])
_SPECS = st.sampled_from([
    "golden", "oddeven", "beatty:sqrt2", "beatty:sqrt3", "mod:3:L=1", "mod:3:L=1,2", "explicit:L={1,2}",
    "explicit:L={}", "beatty:sqrt4", "beatty:sqrt", "mod:3", "mod:1:L=0", "mod:x:L=1", "mod:3:L=5",
    "explicit:L={a}", "explicit:L={0}", "bogus"])
_BOUND = st.integers(0, 30).map(lambda b: ["--oracle-bound", str(b)])
_MAX = st.integers(0, 300).map(str)
_COMMANDS = st.one_of(
    st.tuples(st.sampled_from(["rcf", "classify", "number"]), _HEAPS).map(list),
    st.builds(lambda h, b: ["value", h, *b], _HEAPS, _BOUND),
    st.builds(lambda f: ["xi", f], _FRACTIONS),
    st.builds(lambda x, k: ["repr", x, "--kind", k], _HEAPS, st.sampled_from(["zeck", "lo", "even", "odd"])),
    st.builds(lambda k, m, b: ["table", "--kind", k, "--max", m, *b],
              st.sampled_from(["values", "rcf", "partition", "numbers", "sequences", "nope"]), _MAX, _BOUND),
    st.builds(lambda p, g, m, b: ["solve", p, "--game", g, *m, *b], _POSITIONS, _SPECS,
              st.sampled_from([[], ["--mover", "L"], ["--mover", "R"], ["--mover", "X"]]), _BOUND),
    st.builds(lambda c, g, m: [c, "--game", g, "--max", m], st.sampled_from(["outcomes", "probe-period"]),
              _SPECS, _MAX),
    st.just(["verify", "--suite", "cli"]),
)
_FORMATS = st.sampled_from([[], ["--format", "text"], ["--format", "json"], ["--format", "csv"], ["--format", "xml"]])


@settings(max_examples=150, deadline=None)
@given(_COMMANDS, _FORMATS)
# deep heaps in JSON, the family that once crashed, run on every pass
@example(["rcf", str(nugget.g_heap(1, 1000))], ["--format", "json"])
@example(["rcf", str(fw.fib(2003) - 2)], ["--format", "json"])
def test_every_cli_input_ends_with_an_exit_code(argv, fmt):
    out, code = run(argv + fmt)
    assert code in (0, 1, 2, 3), argv + fmt
