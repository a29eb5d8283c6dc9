"""The benchmark's workloads: seeded inputs, one operation each, and answer checks.

A workload is a closed loop with one client: ``inputs(seed)`` yields the
operation inputs, the callable from ``bind()`` runs one operation against the
public API, and ``check`` judges its answer outside the timed region.  Input
generation uses only the standard library, so a set-up probe can make its
first input before it imports the package.
"""

from __future__ import annotations

import itertools
import math
import random

DEFAULT_SEED = 0

# Largest heap of the oracle sweep: one sweep takes a few seconds on a 2-core
# box (2.4-4.9 s measured) and builds a 7,015-record arena.
ORACLE_H = 600

# A solve is cross-checked by direct alternating search when its position has
# at most this many heap-size combinations; the search then takes < 0.1 s.
BRUTE_STATES = 2000


class Workload:
    name = ""
    why = ""
    batch = 1  # a run ends only after a whole batch of operations
    replayed = False  # every batch repeats the same operations
    min_ops = 1  # a run makes at least this many operations
    digest_ops = 0  # operations covered by the recorded output digest
    digest = ""  # their sha256 at DEFAULT_SEED, recorded when the benchmark was added
    trace_batches = 4  # batches a traced run traces, whatever the run's length

    def inputs(self, seed: int):
        raise NotImplementedError

    def bind(self):
        """Import the program and return the one-operation callable."""
        raise NotImplementedError

    def check(self, x, result) -> bool:
        raise NotImplementedError

    def text(self, x, result) -> str:
        """The operation's output as a user would see it, for the digest."""
        raise NotImplementedError


class ClassifierStream(Workload):
    """Heap sizes through ``nugget.heap_rcf``, in one of two size bands."""

    digest_ops = 1000
    trace_batches = 20

    def __init__(self, band: str, why: str, digest: str):
        # about 0.1-0.2 s of work, so a batch's cost hardly depends on its draw
        self.batch = 5000 if band == "small" else 1000
        self.band = band
        self.name = f"classifier_stream.{band}"
        self.why = why
        self.digest = digest

    def inputs(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            if self.band == "small":
                yield rng.randint(1, 10**6)
            else:
                # 20 to 200 decimal digits, log-uniform in the digit count
                digits = round(10 ** rng.uniform(math.log10(20), math.log10(200)))
                yield rng.randrange(10 ** (digits - 1), 10**digits)

    def bind(self):
        from goldennugget import dyadic, fibonacci, nugget

        self._fw, self._nugget = fibonacci, nugget
        self._half, self._one = dyadic.HALF, dyadic.ONE
        return lambda h: nugget.heap_rcf(h)

    def check(self, h, value) -> bool:
        # every heap is in B exactly when its form is the switch {1|0}
        in_b_switch = value.kind == "switch" and value.value.sign() == 0
        if in_b_switch != self._fw.in_b(h):
            return False
        if value.kind == "number" and value.value != self._one:
            # a number heap other than the 1-valued ones round-trips through xi
            return self._half <= value.value < self._one and self._nugget.xi(value.value) == h
        return True

    def text(self, h, value) -> str:
        return f"{h}:{value}"


class OracleSweep(Workload):
    """Canonical forms of heaps 0..ORACLE_H by brute force, each reduced and
    compared with the classifier's form (the paper's main theorem)."""

    name = "oracle_sweep"
    why = ("brute-force oracle 0..600 in one fresh, growing arena, reduced and "
           "checked against the classifier; the build-heavy games path")
    batch = ORACLE_H + 1
    replayed = True
    trace_batches = 2  # 5M geq calls a sweep; a traced sweep takes ~2.5x as long
    digest_ops = ORACLE_H + 1
    digest = "c003d1cc11117a3ca2a3b3f06847f8157d8fb29a91f186a533d6da3c4e9e8a64"

    def inputs(self, seed: int):
        # the sweep has no random input: every seed runs the same heaps
        return itertools.cycle(range(ORACLE_H + 1))

    def bind(self):
        from goldennugget import games, nugget, rcf

        state = {}

        def op(h):
            if h == 0:
                state["u"] = games.Universe()
            u = state["u"]
            g = nugget.heap_canonical(u, h, bound=ORACLE_H)
            reduced = rcf.reduced_canonical_form(u, g)
            return u, g, reduced, u.canonical_form(nugget.heap_rcf(h).to_game(u))

        return op

    def check(self, h, result) -> bool:
        _, _, reduced, classified = result
        return reduced == classified

    def text(self, h, result) -> str:
        u, g, reduced, _ = result
        return f"{h}:{u.to_text(g)}:{u.to_text(reduced)}"


class SolveCli(Workload):
    """``solve <position>`` commands through ``cli.capture``, in process.

    Each command builds its own Universe, as the CLI does.  Positions have
    one or two heaps of size <= 60 (the default oracle bound) or three of
    size <= 30, blue and red mixed; four-heap positions are left out for run
    length (one took 18 s).

    One solve takes from 3 ms to 330 ms depending on the position, so a
    seed-drawn set of a hundred positions varies in total cost by 10-20%
    from seed to seed.  The positions are therefore one fixed deck, drawn
    once: forty of each heap count, with each heap's size falling four
    times in each tenth of its range.  The seed orders the deck (shapes in
    turn, one heap first) and picks the commands that ask for JSON; every
    batch replays that same sequence.
    """

    name = "solve_cli"
    why = ("solve commands on many small cold arenas: sum-heavy games work "
           "(add, outcome on sums) plus positions and argparse")
    shapes = ((1, 60), (2, 60), (3, 30))  # (heap count, largest heap)
    strata = 10
    rounds = 4
    batch = rounds * strata * len(shapes)  # 120 latencies, 12 beyond p90
    replayed = True
    min_ops = 4 * batch  # so each latency is the best of four passes or more
    digest_ops = 100
    digest = "4d0e4f967696a60ff3fd2c0742e18d3e42b259a61134677ee5acb5988e8e7dc4"

    def deck(self) -> list[list[str]]:
        """The positions, one list per heap count."""
        rng = random.Random(f"{self.name}:deck")
        decks = []
        for count, top in self.shapes:
            width = top // self.strata
            positions = []
            for _ in range(self.rounds):
                columns = [rng.sample(range(self.strata), self.strata) for _ in range(count)]
                positions += [
                    "+".join(f"{rng.randint(k * width + 1, (k + 1) * width)}{rng.choice('br')}" for k in row)
                    for row in zip(*columns)
                ]
            decks.append(positions)
        return decks

    def inputs(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        commands = []
        for turn in zip(*(rng.sample(d, len(d)) for d in self.deck())):
            for position in turn:
                json_out = rng.random() < 0.3
                commands.append(["solve", position] + (["--format", "json"] if json_out else []))
        return itertools.cycle(commands)

    def bind(self):
        import json

        from goldennugget import cli, positions, verify

        self._json, self._positions, self._verify = json, positions, verify
        return lambda argv: cli.capture(argv)

    def check(self, argv, result) -> bool:
        out, code = result
        if code != 0:
            return False
        p = self._positions.Position.parse(argv[1])
        if math.prod(size + 1 for _, size in p.heaps) > BRUTE_STATES:
            return True
        if "--format" in argv:
            reported = self._json.loads(out)["outcome"]
        else:
            reported = out.splitlines()[0].removeprefix("outcome=")
        return reported == self._verify.brute_position_outcome(self._positions.GoldenSpec(), p).value

    def text(self, argv, result) -> str:
        out, code = result
        return f"{' '.join(argv)}:{code}:{out}"


WORKLOADS = {
    w.name: w
    for w in (
        ClassifierStream(
            "small",
            "heaps uniform in 1..10^6 through heap_rcf: per-call overhead of the "
            "classifier route (fibonacci, nugget, dyadic), no games calls",
            "5a5e605226b87f176aefd68d9f2758136098b60380571c6dce017cf726bdfb27",
        ),
        ClassifierStream(
            "big",
            "heaps of 20-200 digits through heap_rcf: big-integer work of the "
            "classifier route (fibonacci, nugget, dyadic), no games calls",
            "7bf385d31c326f6ba661812d19574d001c84bfe790b4f25deae894b28eeb6c79",
        ),
        OracleSweep(),
        SolveCli(),
    )
}
