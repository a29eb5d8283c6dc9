"""Every pinned command-line output, byte for byte.

The entries live in ``tests/transcript.txt`` and in the console blocks of
README.md, in one format: a command line ``$ goldennugget <args>`` (split
by shlex), its exact stdout, then ``[stderr] <line>`` lines and an
``[exit N]`` line where stderr is not empty or the exit code is not 0. A
blank line or a ``#`` line ends an entry; ``#`` lines give the reasons.
An argv is pinned once across both files.
"""

import contextlib
import io
import shlex
from pathlib import Path

import pytest

from goldennugget import cli

ROOT = Path(__file__).parents[1]
PROMPT = "$ goldennugget "


def read(numbered_lines, source, entries):
    """Add the entries of ``(line number, line)`` pairs to ``entries``, as
    argv -> [where, stdout, stderr, exit code, part], where part is the kind
    of line read last (0 stdout, 1 stderr, 2 exit). A malformed entry
    raises ValueError naming its line."""
    argv = None
    for number, line in numbered_lines:
        where = f"{source}:{number}"
        if not line or line.startswith("#"):
            argv = None
        elif line.startswith("$"):
            if not line.startswith(PROMPT):
                raise ValueError(f"{where}: a command line starts with {PROMPT!r}")
            try:
                argv = tuple(shlex.split(line[len(PROMPT):]))
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            if argv in entries:
                raise ValueError(f"{where}: already pinned at {entries[argv][0]}")
            entries[argv] = [where, "", "", 0, 0]
        elif argv is None:
            raise ValueError(f"{where}: output with no command line above it")
        else:
            entry = entries[argv]
            part = 2 if line.startswith("[exit") else 1 if line.startswith("[stderr] ") else 0
            if part < entry[4] or entry[4] == 2:
                raise ValueError(f"{where}: stdout comes first, then [stderr] lines, then one [exit N]")
            entry[4] = part
            if part == 2:
                code = line[len("[exit "):-1]
                if not (line.endswith("]") and code.isdecimal()):
                    raise ValueError(f"{where}: an exit line is [exit N]")
                entry[3] = int(code)
            else:
                entry[part + 1] += line[len("[stderr] ") if part else 0:] + "\n"


def console_blocks(text):
    """The numbered lines of the ```console blocks, each closed by a blank line."""
    inside = False
    for number, line in enumerate(text.splitlines(), 1):
        if line.startswith("```"):
            if inside:
                yield number, ""
            inside = line == "```console"
        elif inside:
            yield number, line


ENTRIES = {}
read(enumerate((ROOT / "tests" / "transcript.txt").read_text().splitlines(), 1), "tests/transcript.txt", ENTRIES)
read(console_blocks((ROOT / "README.md").read_text()), "README.md", ENTRIES)


@pytest.mark.parametrize("argv", list(ENTRIES), ids=" ".join)
def test_pinned_output(argv):
    where, stdout, stderr, code, _ = ENTRIES[argv]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        out = cli.capture(list(argv))
    assert (out, err.getvalue()) == ((stdout, code), stderr), where


@pytest.mark.parametrize("text, number", [
    ("11/16\n", 1),
    ("$ python rcf 19\n", 1),
    ("$ goldennugget xi '0.1\n", 1),
    ("$ goldennugget xi 2\n[exit 2]\n[stderr] error: no\n", 3),
    ("$ goldennugget xi 2\n[exit two]\n", 2),
    ("$ goldennugget rcf 19\n11/16\n\n$ goldennugget rcf 19\n11/16\n", 4),
])
def test_a_malformed_entry_names_its_line(text, number):
    with pytest.raises(ValueError, match=f"^t:{number}: "):
        read(enumerate(text.splitlines(), 1), "t", {})
