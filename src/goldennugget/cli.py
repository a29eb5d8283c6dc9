"""Batch command-line front end.

Subcommands: single-heap queries (value, rcf, classify, number, xi, repr),
table reproduction, position solving, outcome/periodicity experiments, and
the named verification suites.  Exit codes: 0 ok, 1 verification failure (a
failing check, or a suite that raised), 2 usage or bad input, 3 resource
limit.  CPython's int-string limit (``sys.get_int_max_str_digits()``, 4,300
digits by default) is one: an int argument or a ``solve`` heap of more
digits, or an answer (of ``rcf``, ``number`` or ``xi``) that would print
one, exits 3 with a line naming the limit.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import re
import sys
from collections import namedtuple

# every engine layer is imported here, though a command runs only some of them:
# perfbench/tracer.py imports this module to load each layer it wraps.  verify
# is imported by cmd_verify, the one command that runs it
from . import fibonacci as fw
from . import nugget
from . import positions as pos
from .dyadic import Dyadic
from .games import Universe, game_text
from .nugget import ResourceLimitError
from .rcf import reduced_canonical_form


def _int(text: str) -> int:
    """An int argument, read by ``nugget.read_int``."""
    return nugget.read_int(text, "integer argument")


_int.__name__ = "int"  # argparse's "invalid int value" names the type by it


def _printed(answer):
    """``answer()``, a (payload, text) pair of an exact value: an int in it of
    more digits than the limit, which str() refuses, is a resource limit."""
    try:
        return answer()
    except ValueError:
        raise ResourceLimitError(f"the answer needs more digits than the int-string limit of {nugget.digit_limit()} digits") from None


def _nonnegative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"nonnegative integer required, got {text!r}")
    return _int(text)


class Table(namedtuple("Table", "header rows key")):
    """Rows of strings under a header; ``key`` names the rows in JSON."""

    __slots__ = ()


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: each parse starts from fresh defaults."""
    parser = argparse.ArgumentParser(
        prog="goldennugget",
        description="Exact values and number theory for complementary subtraction games.",
        epilog="exit codes: 0 ok, 1 verification failure, 2 usage or bad input, 3 resource limit: "
               "a heap over the oracle bound, or an int of more digits than CPython's int-string "
               "limit (sys.get_int_max_str_digits(), 4300 by default) in an argument or an answer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, formats=("text", "json"), oracle=False):
        """A subcommand with the output flags it honours: --format (when it
        has a choice of formats), --out, and --oracle-bound if it searches."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler, format="text")
        if len(formats) > 1:
            p.add_argument("--format", choices=formats)
        p.add_argument("--out", metavar="FILE", help="write output to FILE instead of stdout")
        if oracle:
            p.add_argument("--oracle-bound", type=_nonnegative_int, default=nugget.ORACLE_BOUND, metavar="N")
        return p

    command("value", cmd_value, "oracle canonical form of a heap", oracle=True).add_argument("heap", type=_int)
    command("rcf", cmd_rcf, "reduced canonical form of a heap").add_argument("heap", type=_int)
    command("classify", cmd_classify, "partition class of a heap").add_argument("heap", type=_int)
    command("number", cmd_number, "heap value via the bit map, with binary expansion").add_argument("heap", type=_int)
    command("xi", cmd_xi, "heap whose value is a binary fraction: 0, 1, s(n) or in (2/3, 1)").add_argument("fraction")

    p = command("repr", cmd_repr, "Fibonacci representation of an integer")
    p.add_argument("x", type=_int)
    p.add_argument("--kind", choices=("zeck", "lo", "even"), default="zeck")

    p = command("table", cmd_table, "reproduce the reference tables", ("text", "json", "csv"), oracle=True)
    p.add_argument("--kind", choices=("values", "rcf", "partition", "numbers", "sequences"),
                   required=True)
    p.add_argument("--max", type=_nonnegative_int, default=None)

    p = command("solve", cmd_solve, "outcome and winning moves of a position", oracle=True)
    p.add_argument("position", help="literal like 3b+20b+18r")
    # argparse takes a word starting with "-" for an option unless it looks like
    # a negative number; "-3b" is a position literal, which Position.parse names
    p._negative_number_matcher = re.compile(r"-\d")
    p.add_argument("--mover", choices=("L", "R"), default=None)
    p.add_argument("--game", default="golden")

    p = command("outcomes", cmd_outcomes, "single-heap outcomes of a CS game", ("text", "json", "csv"))
    p.add_argument("--game", required=True)
    p.add_argument("--max", type=_nonnegative_int, required=True)

    p = command("probe-period", cmd_probe_period, "look for outcome periodicity")
    p.add_argument("--game", required=True)
    p.add_argument("--max", type=_nonnegative_int, required=True)

    p = command("verify", cmd_verify, "run a named invariant suite", ("text",))
    p.add_argument("--suite", required=True, help="a suite name, or all; an unknown name lists the suites")
    p.add_argument("--bound", type=_nonnegative_int, default=None)

    return parser


# -- subcommand handlers --------------------------------------------------------
# Each returns a Table, or a pair (JSON payload, text); main renders it.


def cmd_value(args):
    u = Universe()
    game = u.to_json_obj(nugget.heap_canonical(u, args.heap, bound=args.oracle_bound))
    return {"h": args.heap, "game": game}, game_text(game)


def cmd_rcf(args):
    value = nugget.heap_rcf(args.heap)
    return _printed(lambda: ({"h": args.heap, "kind": value.kind, "game": value.to_json_obj()}, str(value)))


def cmd_classify(args):
    cls = nugget.classify(args.heap)
    indices = {key: v for key, v in (("n", cls.n), ("i", cls.i)) if v is not None}
    return {"h": args.heap, "class": cls.kind, **indices}, str(cls)


def cmd_number(args):
    value = nugget.xi_inverse(args.heap)
    return _printed(lambda: ({"h": args.heap, "value": str(value), "binary": value.binary()},
                             f"{value} = {value.binary()}"))


def cmd_xi(args):
    d = Dyadic.from_binary(args.fraction)
    h = nugget.xi(d)
    return _printed(lambda: ({"fraction": str(d), "heap": h}, str(h)))


_REPRS = {"zeck": fw.zeckendorf, "lo": fw.least_odd, "even": fw.even_repr}


def cmd_repr(args):
    r = _REPRS[args.kind](args.x)
    payload = {"x": args.x, "kind": r.kind, "terms": r.to_text(), "value": r.value()}
    text = r.to_text()
    if r.kind == fw.EVEN:
        payload["ternary"] = r.to_ternary()
        text += f"  [{r.to_ternary()}]"
    return payload, text


_TABLE_TOPS = {"sequences": 14, "partition": 14, "rcf": 20, "values": 20, "numbers": 87}


def cmd_table(args) -> Table:
    kind = args.kind
    top = _TABLE_TOPS[kind] if args.max is None else args.max
    if kind == "sequences":
        header = ["n"] + [str(n) for n in range(top + 1)]
        rows = [
            ["A"] + [str(fw.a_seq(n)) for n in range(top + 1)],
            ["B"] + [str(fw.b_seq(n)) for n in range(top + 1)],
            ["AB"] + [str(fw.compose_ab("AB", n)) for n in range(top + 1)],
            ["B2"] + [str(fw.compose_ab("BB", n)) for n in range(top + 1)],
            ["W"] + list(fw.word_prefix(top + 1, with_leading_b=True)),
        ]
        return Table(header, rows, "sequences")
    if kind == "rcf":
        return Table(["h", "rcf"], [[str(h), str(nugget.heap_rcf(h))] for h in range(1, top + 1)], "rcf")
    if kind == "values":
        u = Universe()
        rows = []
        for h in range(1, top + 1):
            g = nugget.heap_canonical(u, h, bound=args.oracle_bound)
            rows.append([str(h), u.to_text(g), u.to_text(reduced_canonical_form(u, g))])
        return Table(["h", "value", "rcf"], rows, "values")
    if kind == "partition":
        rows = [[label] + ["." if n is None else str(n) for n in row]
                for label, row in nugget.partition_table(top).items()]
        return Table([""] + [str(n) for n in range(top + 1)], rows, "partition")
    rows = []  # numbers
    for h in [0, 1][: top + 1] + nugget.q_members(top):
        value = nugget.xi_inverse(h)
        moves = ""
        if h >= 2:
            # the largest even- and odd-indexed Fibonacci numbers <= h
            t = fw.zeckendorf(h).terms[0][0]
            moves = f"{fw.fib(t - t % 2)},{fw.fib(t - 1 + t % 2)}"
        rows.append([str(h), str(value), value.binary(), moves])
    return Table(["heap", "value", "binary", "moves"], rows, "numbers")


def cmd_solve(args):
    u = Universe()
    spec = pos.parse_spec(args.game)
    p = pos.Position.parse(args.position)
    outcome = pos.position_outcome(u, p, spec, bound=args.oracle_bound)
    movers = [args.mover] if args.mover else ["L", "R"]
    moves = {mover: pos.winning_move(u, p, mover, spec, bound=args.oracle_bound) for mover in movers}
    payload = {
        "position": str(p),
        "outcome": outcome.value,
        "moves": {
            mover: None if move is None else {"heap": move.index, "remove": move.amount}
            for mover, move in moves.items()
        },
    }
    lines = [f"outcome={outcome.value}"]
    for mover, move in moves.items():
        lines.append(f"{mover}: no winning first move" if move is None else f"{mover}: {move.describe(p)}")
    return payload, "\n".join(lines)


def cmd_outcomes(args) -> Table:
    outcomes = pos.cs_outcomes(pos.parse_spec(args.game), args.max)
    return Table(["h", "outcome"], [[str(h), o.value] for h, o in enumerate(outcomes)], "outcomes")


def cmd_probe_period(args):
    report = pos.periodicity_probe(pos.parse_spec(args.game), args.max)
    payload = {"game": args.game, "max": args.max, "period": report.period, "preperiod": report.preperiod}
    return payload, str(report) + ("" if report.found() else f" <= {args.max}")


def cmd_verify(args):
    """Text only; the payload is the number of failing checks, which sets the exit code.
    --bound goes only to the suites that take it; a single suite refuses it.  A
    suite that raises counts as one failing check."""
    from . import verify as verify_mod  # the dearest module to compile; no other command runs it

    suites = verify_mod.SUITES
    takes_bound = {name: "bound" in f.__code__.co_varnames[:f.__code__.co_argcount] for name, f in suites.items()}
    if args.suite != "all" and args.suite not in suites:
        raise ValueError(f"unknown suite {args.suite!r}; available: {', '.join(sorted(suites))}")
    if args.suite != "all" and args.bound is not None and not takes_bound[args.suite]:
        raise ValueError(f"suite {args.suite!r} takes no --bound")
    failed = 0
    lines = []
    for name in sorted(suites) if args.suite == "all" else [args.suite]:
        given = {"bound": args.bound} if args.bound is not None and takes_bound[name] else {}
        try:
            for check in suites[name](**given):
                lines.append(f"[{name}] {check.line()}")
                failed += 0 if check.ok else 1
        except Exception as exc:  # a suite that raises fails, and the rest still run
            lines.append(f"[{name}] FAIL  suite raised {type(exc).__name__}: {exc}")
            failed += 1
    lines.append(f"{'OK' if not failed else 'FAILED'}: {failed} failing check(s)")
    return failed, "\n".join(lines)


def _render(result, fmt: str) -> str:
    """A handler's result as the text of one output format."""
    if isinstance(result, Table):
        if fmt == "json":
            rows = [dict(zip(result.header, row)) for row in result.rows]
            return json.dumps({result.key: rows}, indent=2) + "\n"
        if fmt == "csv":
            buffer = io.StringIO()
            csv.writer(buffer, lineterminator="\n").writerows([result.header, *result.rows])
            return buffer.getvalue()
        return "\n".join("\t".join(row) for row in [result.header, *result.rows]) + "\n"
    payload, text = result
    if fmt != "json":
        return text + "\n"
    return json.dumps(payload) + "\n"


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)  # an int argument's resource limit escapes argparse
        result = args.handler(args)
        text = _render(result, args.format)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 1 if args.command == "verify" and result[0] else 0


def capture(argv) -> tuple[str, int]:
    """Run the CLI in-process, returning (stdout text, exit code)."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return buffer.getvalue(), code


if __name__ == "__main__":
    sys.exit(main())
