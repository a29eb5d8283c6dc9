"""Batch command-line front end.

Subcommands: single-heap queries (value, rcf, classify, number, xi, repr),
table reproduction, position solving, outcome/periodicity experiments, and
the named verification suites.  Exit codes: 0 ok, 1 verification failure,
2 usage or bad input, 3 resource limit.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import sys

from . import fibonacci as fw
from . import nugget
from . import positions as pos
from . import verify as verify_mod
from .dyadic import Dyadic
from .games import ResourceLimitError, Universe
from .rcf import reduced_canonical_form


def _nonnegative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"nonnegative integer required, got {text!r}")
    return int(text)


def _common() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--out", metavar="FILE", help="write output to FILE instead of stdout")
    return p


def _oracle() -> argparse.ArgumentParser:
    """The flag of the commands that run the full-search oracle."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--oracle-bound", type=_nonnegative_int, default=nugget.ORACLE_BOUND, metavar="N")
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: each parse starts from fresh defaults."""
    common = _common()
    with_oracle = [common, _oracle()]
    parser = argparse.ArgumentParser(
        prog="goldennugget",
        description="Exact values and number theory for complementary subtraction games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("value", parents=with_oracle, help="oracle canonical form of a heap")
    p.add_argument("heap", type=int)

    p = sub.add_parser("rcf", parents=[common], help="reduced canonical form of a heap")
    p.add_argument("heap", type=int)

    p = sub.add_parser("classify", parents=[common], help="partition class of a heap")
    p.add_argument("heap", type=int)

    p = sub.add_parser("number", parents=[common], help="heap value via the bit map, with binary expansion")
    p.add_argument("heap", type=int)

    p = sub.add_parser("xi", parents=[common], help="heap size for a binary fraction in [1/2, 1]")
    p.add_argument("fraction")

    p = sub.add_parser("repr", parents=[common], help="Fibonacci representation of an integer")
    p.add_argument("x", type=int)
    p.add_argument("--kind", choices=("zeck", "lo", "even"), default="zeck")

    p = sub.add_parser("table", parents=with_oracle, help="reproduce the reference tables")
    p.add_argument("--kind", choices=("values", "rcf", "partition", "numbers", "sequences"),
                   required=True)
    p.add_argument("--max", type=_nonnegative_int, default=None)

    p = sub.add_parser("solve", parents=with_oracle, help="outcome and winning moves of a position")
    p.add_argument("position", help="literal like 3b+20b+18r")
    p.add_argument("--mover", choices=("L", "R"), default=None)
    p.add_argument("--game", default="golden")

    p = sub.add_parser("outcomes", parents=[common], help="single-heap outcomes of a CS game")
    p.add_argument("--game", required=True)
    p.add_argument("--max", type=_nonnegative_int, required=True)

    p = sub.add_parser("probe-period", parents=[common], help="look for outcome periodicity")
    p.add_argument("--game", required=True)
    p.add_argument("--max", type=_nonnegative_int, required=True)

    p = sub.add_parser("verify", parents=[common], help="run a named invariant suite")
    p.add_argument("--suite", required=True,
                   help="one of: " + ", ".join(sorted(verify_mod.SUITES)) + ", all")
    p.add_argument("--bound", type=_nonnegative_int, default=None)
    p.add_argument("--seed", type=int, default=0, metavar="N")

    return parser


# -- emit helpers -------------------------------------------------------------


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_rows(args, header: list[str], rows: list[list[str]], json_key: str) -> None:
    if args.format == "json":
        payload = [dict(zip(header, row)) for row in rows]
        _emit(args, json.dumps({json_key: payload}, indent=2) + "\n")
    elif args.format == "csv":
        lines = [",".join(header)] + [",".join(row) for row in rows]
        _emit(args, "\n".join(lines) + "\n")
    else:
        lines = ["\t".join(header)] + ["\t".join(row) for row in rows]
        _emit(args, "\n".join(lines) + "\n")


# -- subcommand handlers --------------------------------------------------------


def cmd_value(args) -> int:
    u = Universe()
    g = nugget.heap_canonical(u, args.heap, bound=args.oracle_bound)
    if args.format == "json":
        _emit(args, json.dumps({"h": args.heap, "game": u.to_json_obj(g)}) + "\n")
    else:
        _emit(args, u.to_text(g) + "\n")
    return 0


def cmd_rcf(args) -> int:
    value = nugget.heap_rcf(args.heap)
    if args.format == "json":
        u = Universe()
        payload = {"h": args.heap, "kind": value.kind, "game": u.to_json_obj(value.to_game(u))}
        _emit(args, json.dumps(payload) + "\n")
    else:
        _emit(args, str(value) + "\n")
    return 0


def cmd_classify(args) -> int:
    cls = nugget.classify(args.heap)
    if args.format == "json":
        payload = {"h": args.heap, "class": cls.kind}
        if cls.n is not None:
            payload["n"] = cls.n
        if cls.i is not None:
            payload["i"] = cls.i
        _emit(args, json.dumps(payload) + "\n")
    else:
        _emit(args, str(cls) + "\n")
    return 0


def _number_value(h: int) -> Dyadic:
    """Value of a number heap: 0 and 1 directly, the rest by the bit map."""
    return Dyadic(h) if h in (0, 1) else nugget.xi_inverse(h)  # raises for heaps outside Q


def cmd_number(args) -> int:
    h = args.heap
    value = _number_value(h)
    if args.format == "json":
        _emit(args, json.dumps({"h": h, "value": str(value), "binary": value.binary()}) + "\n")
    else:
        _emit(args, f"{value} = {value.binary()}\n")
    return 0


def cmd_xi(args) -> int:
    d = Dyadic.from_binary(args.fraction)
    h = nugget.xi(d)
    if args.format == "json":
        _emit(args, json.dumps({"fraction": str(d), "heap": h}) + "\n")
    else:
        _emit(args, f"{h}\n")
    return 0


_REPRS = {"zeck": fw.zeckendorf, "lo": fw.least_odd, "even": fw.even_repr}


def cmd_repr(args) -> int:
    r = _REPRS[args.kind](args.x)
    if args.format == "json":
        payload = {"x": args.x, "kind": r.kind, "terms": r.to_text(), "value": r.value()}
        if r.kind == fw.EVEN:
            payload["ternary"] = r.to_ternary()
        _emit(args, json.dumps(payload) + "\n")
    else:
        tail = f"  [{r.to_ternary()}]" if r.kind == fw.EVEN else ""
        _emit(args, r.to_text() + tail + "\n")
    return 0


def cmd_table(args) -> int:
    kind = args.kind
    if kind == "sequences":
        top = 14 if args.max is None else args.max
        header = ["n"] + [str(n) for n in range(top + 1)]
        rows = [
            ["A"] + [str(fw.a_seq(n)) for n in range(top + 1)],
            ["B"] + [str(fw.b_seq(n)) for n in range(top + 1)],
            ["AB"] + [str(fw.compose_ab("AB", n)) for n in range(top + 1)],
            ["B2"] + [str(fw.compose_ab("BB", n)) for n in range(top + 1)],
            ["W"] + list(fw.word_prefix(top + 1, with_leading_b=True)),
        ]
        _emit_rows(args, header, rows, "sequences")
    elif kind == "rcf":
        top = 20 if args.max is None else args.max
        rows = [[str(h), str(nugget.heap_rcf(h))] for h in range(1, top + 1)]
        _emit_rows(args, ["h", "rcf"], rows, "rcf")
    elif kind == "values":
        top = 20 if args.max is None else args.max
        u = Universe()
        rows = []
        for h in range(1, top + 1):
            g = nugget.heap_canonical(u, h, bound=args.oracle_bound)
            rows.append([str(h), u.to_text(g), u.to_text(reduced_canonical_form(u, g))])
        _emit_rows(args, ["h", "value", "rcf"], rows, "values")
    elif kind == "partition":
        top = 14 if args.max is None else args.max
        header = [""] + [str(n) for n in range(top + 1)]
        rows = [
            ["B"] + ["." if n == 0 else str(fw.b_seq(n)) for n in range(top + 1)],
            ["AB0"] + [str(fw.compose_ab("AB", n)) for n in range(top + 1)],
            ["AB0+1"] + [str(fw.compose_ab("AB", n) + 1) for n in range(top + 1)],
            ["B2+1"] + ["." if n == 0 else str(fw.compose_ab("BB", n) + 1) for n in range(top + 1)],
            ["G(1)"] + [str(nugget.g_heap(n, 1)) for n in range(top + 1)],
            ["G(2)"] + [str(nugget.g_heap(n, 2)) for n in range(top + 1)],
            ["G(3)"] + [str(nugget.g_heap(n, 3)) for n in range(top + 1)],
        ]
        _emit_rows(args, header, rows, "partition")
    else:  # numbers
        top = 87 if args.max is None else args.max
        rows = []
        for h in [0, 1] + verify_mod.q_members(top):
            value = _number_value(h)
            moves = ""
            if h >= 2:
                # the largest even- and odd-indexed Fibonacci numbers <= h
                t = fw.zeckendorf(h).terms[0][0]
                moves = f"{fw.fib(t - t % 2)},{fw.fib(t - 1 + t % 2)}"
            rows.append([str(h), str(value), value.binary(), moves])
        _emit_rows(args, ["heap", "value", "binary", "moves"], rows, "numbers")
    return 0


def cmd_solve(args) -> int:
    u = Universe()
    spec = pos.parse_spec(args.game)
    p = pos.Position.parse(args.position)
    outcome = pos.position_outcome(u, p, spec, bound=args.oracle_bound)
    movers = [args.mover] if args.mover else ["L", "R"]
    moves = {}
    for mover in movers:
        move = pos.winning_move(u, p, mover, spec, bound=args.oracle_bound)
        moves[mover] = move
    if args.format == "json":
        payload = {
            "position": str(p),
            "outcome": outcome.value,
            "moves": {
                mover: (None if move is None
                        else {"heap": move.index, "remove": move.amount})
                for mover, move in moves.items()
            },
        }
        _emit(args, json.dumps(payload) + "\n")
    else:
        lines = [f"outcome={outcome.value}"]
        for mover, move in moves.items():
            if move is None:
                lines.append(f"{mover}: no winning first move")
            else:
                lines.append(f"{mover}: {move.describe(p)}")
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_outcomes(args) -> int:
    spec = pos.parse_spec(args.game)
    outcomes = pos.cs_outcomes(spec, args.max)
    rows = [[str(h), o.value] for h, o in enumerate(outcomes)]
    _emit_rows(args, ["h", "outcome"], rows, "outcomes")
    return 0


def cmd_probe_period(args) -> int:
    spec = pos.parse_spec(args.game)
    report = pos.periodicity_probe(spec, args.max)
    if args.format == "json":
        payload = {"game": args.game, "max": args.max,
                   "period": report.period, "preperiod": report.preperiod}
        _emit(args, json.dumps(payload) + "\n")
    else:
        tail = "" if report.found() else f" <= {args.max}"
        _emit(args, f"{report}{tail}\n")
    return 0


def cmd_verify(args) -> int:
    names = sorted(verify_mod.SUITES) if args.suite == "all" else [args.suite]
    failed = 0
    lines = []
    for name in names:
        checks = verify_mod.run_suite(name, bound=args.bound, seed=args.seed)
        for check in checks:
            lines.append(f"[{name}] {check.line()}")
            failed += 0 if check.ok else 1
    lines.append(f"{'OK' if not failed else 'FAILED'}: {failed} failing check(s)")
    _emit(args, "\n".join(lines) + "\n")
    return 1 if failed else 0


_HANDLERS = {
    "value": cmd_value,
    "rcf": cmd_rcf,
    "classify": cmd_classify,
    "number": cmd_number,
    "xi": cmd_xi,
    "repr": cmd_repr,
    "table": cmd_table,
    "solve": cmd_solve,
    "outcomes": cmd_outcomes,
    "probe-period": cmd_probe_period,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


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
