"""Exact short partizan game values over a hash-consed arena.

Games are immutable records ``(left options, right options)`` interned in a
:class:`Universe`; equal records always receive the same integer id, so
structural equality is id equality.  All comparisons, canonical forms,
stops and arithmetic are computed exactly and memoized on ids.

The Universe is single-threaded by design: callers that want parallelism
must give each thread its own Universe (each CLI command builds its own).
"""

from __future__ import annotations

import enum

from .dyadic import Dyadic, ZERO, simplest_number

GameId = int


class ResourceLimitError(RuntimeError):
    """A configured size bound (e.g. the oracle bound) was exceeded."""


class Outcome(enum.Enum):
    L = "L"
    R = "R"
    N = "N"
    P = "P"

    @classmethod
    def from_wins(cls, left_first: bool, right_first: bool) -> "Outcome":
        """N when both players win moving first, L or R when only that one does, else P."""
        if left_first:
            return cls.N if right_first else cls.L
        return cls.R if right_first else cls.P


class Universe:
    """Append-only arena of game records plus memo tables.

    Insertions are idempotent: ``make_game`` returns the same id for the
    same option sets forever, and every cached answer equals what an
    uncached recomputation would produce.
    """

    def __init__(self):
        self._records: list[tuple[tuple[GameId, ...], tuple[GameId, ...]]] = []
        self._ids: dict[tuple[tuple[GameId, ...], tuple[GameId, ...]], GameId] = {}
        self._neg: dict[GameId, GameId] = {}
        self._sum: dict[tuple[GameId, GameId], GameId] = {}
        self._geq: dict[tuple[GameId, GameId], bool] = {}
        self._numval: dict[GameId, Dyadic | None] = {}
        self._stops: dict[GameId, tuple[Dyadic, Dyadic]] = {}
        self._numbers: dict[Dyadic, GameId] = {}
        self._caches: dict[str, dict] = {}
        self._canon: dict[GameId, GameId] = self.cache("canonical")
        self.zero: GameId = self.from_number(ZERO)

    def cache(self, name: str) -> dict:
        """A named memo table, with get-or-insert use: each order's tables
        of :meth:`reduce`, and client modules' own."""
        return self._caches.setdefault(name, {})

    # -- arena -------------------------------------------------------

    def make_game(self, left, right) -> GameId:
        """Intern the game with the given option ids (deduplicated, sorted)."""
        rec = (tuple(sorted(set(left))), tuple(sorted(set(right))))
        for side in rec:
            for g in side[:1] + side[-1:]:  # the least and the greatest id
                if not 0 <= g < len(self._records):
                    raise ValueError(f"unknown game id {g}")
        return self._intern(rec)

    def _intern(self, rec: tuple[tuple[GameId, ...], tuple[GameId, ...]]) -> GameId:
        """The id of a record of sorted, distinct, known ids, appended when new."""
        known = self._ids.get(rec)
        if known is None:
            known = self._ids[rec] = len(self._records)
            self._records.append(rec)
        return known

    def options(self, g: GameId) -> tuple[tuple[GameId, ...], tuple[GameId, ...]]:
        return self._records[g]

    def __len__(self) -> int:
        return len(self._records)

    # -- group structure ----------------------------------------------

    def negate(self, g: GameId) -> GameId:
        done = self._neg.get(g)
        if done is not None:
            return done
        left, right = self._records[g]
        result = self.make_game([self.negate(x) for x in right], [self.negate(x) for x in left])
        self._neg[g] = result
        self._neg[result] = g
        if self._canon.get(g) == g:  # the negative of a canonical form is canonical (Siegel, ch. II)
            self._canon[result] = result
        return result

    def add(self, g: GameId, h: GameId) -> GameId:
        """Disjunctive sum: a move is a move in exactly one summand."""
        if g > h:
            g, h = h, g
        if g == self.zero:
            return h
        done = self._sum.get((g, h))
        if done is not None:
            return done
        gl, gr = self._records[g]
        hl, hr = self._records[h]
        left = [self.add(x, h) for x in gl] + [self.add(g, x) for x in hl]
        right = [self.add(x, h) for x in gr] + [self.add(g, x) for x in hr]
        result = self.make_game(left, right)
        self._sum[(g, h)] = result
        return result

    # -- order ---------------------------------------------------------

    def geq(self, g: GameId, h: GameId) -> bool:
        """g >= h: Left wins g - h moving second."""
        if g == h:
            return True
        memo = self._geq
        done = memo.get((g, h))
        if done is not None:
            return done
        # fails iff some right option of g is <= h or some left option of h is >= g
        result = True
        for gr in self._records[g][1]:
            worse = memo.get((h, gr))
            if worse is None:
                worse = self.geq(h, gr)
            if worse:
                result = False
                break
        else:
            for hl in self._records[h][0]:
                better = memo.get((hl, g))
                if better is None:
                    better = self.geq(hl, g)
                if better:
                    result = False
                    break
        memo[(g, h)] = result
        return result

    def outcome(self, g: GameId, h: GameId | None = None) -> Outcome:
        """Outcome of g - h (of g when h is omitted): Left wins it moving first
        unless g <= h, and Right unless g >= h."""
        if h is None:
            h = self.zero
        return Outcome.from_wins(not self.geq(h, g), not self.geq(g, h))

    # -- canonical form --------------------------------------------------

    def canonical_form(self, g: GameId) -> GameId:
        """The unique simplest game equal to g: children are simplified first,
        then :meth:`reduce` runs under ``>=``."""
        done = self._canon.get(g)
        if done is not None:
            return done
        left, right = self._records[g]
        ls = {self.canonical_form(x) for x in left}
        rs = {self.canonical_form(x) for x in right}
        result = self._canon[g] = self.reduce(ls, rs, "canonical", self.geq)
        return result

    def reduce(self, ls: set[GameId], rs: set[GameId], order: str, geq) -> GameId:
        """The fixed point of trimming and bypassing ``{ls | rs}`` under an order:
        a trim, at most one bypass pass, and a trim.

        ``ls`` and ``rs`` are sets of forms of the order: canonical forms
        under ``geq`` = ``>=``, reduced canonical forms under ``>=_Inf``.
        ``order`` names the order's tables in :meth:`cache`: the table
        ``order``, where each fixed point maps to itself, and the Left and
        Right "beaten by" tables of :meth:`_undominated`.
        Dominated options are removed and every reversible option is bypassed.

        Trimming first is exact: the trimmed game equals the untrimmed one
        under the order, so an option reverses through the one as through
        the other, and the bypass test sees only the few surviving options.

        One bypass pass reaches the fixed point.  :meth:`_bypass` tests every
        option it holds, those it brings in too, against the first trimmed
        game, and ends holding only options it found not reversible through
        that game.  Removing a dominated option and bypassing a reversible
        one leave a game equal to it under the order (Siegel,
        *Combinatorial Game Theory*, ch. II), and an option's reversibility
        depends only on the option's own options and on the game's value.
        The second trim only removes options.  So no option of the result is
        dominated and none reverses through the result: a second bypass pass
        would test the same options against a game equal to the first and
        find nothing.  The argument uses only that the order is a preorder
        under which these moves keep the game's value, so it holds under
        ``>=`` and ``>=_Inf`` alike.

        The antichain scan of :meth:`_undominated` is exact when no two
        options are equal under the order.  Every scan is over a set of
        forms: the callers' sets, and after a bypass the sets it returns,
        whose new options are subpositions of forms and so forms themselves.
        Distinct forms are never equal under their order, by the uniqueness
        of each form (for reduced forms, Grossman and Siegel, "Reductions of
        partizan games"; Siegel, ch. II).  So an option that beats another is
        strictly better than it, which is what lets the scan drop an option
        whose recorded beater is present: that option is not maximal, and
        since the strict order is transitive, removing it leaves the maximal
        set as it was.

        An Inf-bypass never makes a number, so it takes no guard: the
        reduced form runs this reduction only on games with unequal stops,
        each game made here equals that game under ``>=_Inf`` and so has its
        stops (an infinitesimal moves neither), and a number's stops are equal.
        """
        beaten = (self.cache(order + ":beaten-left"), self.cache(order + ":beaten-right"))
        game = self._trim(ls, rs, geq, beaten)
        done = self.cache(order)
        result = done.get(game)
        if result is not None:
            return result
        bypassed = self._bypass(game, geq)
        result = game if bypassed is None else self._trim(*bypassed, geq, beaten)
        return done.setdefault(result, result)

    def _trim(self, ls: set[GameId], rs: set[GameId], geq, beaten) -> GameId:
        """The game of the undominated options of ``{ls | rs}``."""
        return self._intern((tuple(sorted(self._undominated(ls, 0, geq, beaten[0]))),
                             tuple(sorted(self._undominated(rs, 1, geq, beaten[1])))))

    def _undominated(self, options: set[GameId], side: int, geq, beaten: dict) -> list[GameId]:
        """The options no other is at least as good as for ``side`` (0 Left:
        greater, 1 Right: smaller), by an antichain scan in the set's order.

        Exact when no two options are equal under ``geq``: dominance is then
        a strict order with a unique maximal set.  Each win the scan sees is
        recorded in ``beaten``, the order's table for ``side``, as option ->
        its beater, and a scan first drops every option whose recorded
        beater is among its options.
        """
        by = beaten.get
        survivors: list[GameId] = []
        for x in options:
            if by(x) in options:
                continue
            for s in survivors:
                if geq(x, s) if side else geq(s, x):  # s is at least as good as x
                    beaten[x] = s
                    break
            else:
                kept = []
                for s in survivors:
                    if geq(s, x) if side else geq(x, s):  # x is at least as good as s
                        beaten[s] = x
                    else:
                        kept.append(s)
                kept.append(x)
                survivors = kept
        return survivors

    def _bypass(self, game: GameId, geq):
        # one pass over each side of game's record, in its order: an option on
        # `side` (0 Left, 1 Right) is reversible through any of its
        # opposite-side options `back` with back <= game (Left) or
        # back >= game (Right); each one found is replaced by back's options,
        # which are tested next.  A side is copied into a set only when its
        # first reversible option turns up.  The new (ls, rs) as sets, or
        # None when nothing was bypassed.
        records = self._records
        found = []
        for side, options in enumerate(records[game]):
            kept, work = None, []
            for x in options:
                work.append(x)
                while work:
                    a = work.pop()
                    for back in records[a][1 - side]:
                        if geq(back, game) if side else geq(game, back):
                            if kept is None:
                                kept = set(options)
                            fresh = [y for y in records[back][side] if y not in kept]
                            kept.discard(a)
                            kept.update(fresh)
                            work += fresh
                            break
            found.append(kept)
        if found == [None, None]:
            return None
        return [set(options) if kept is None else kept for options, kept in zip(records[game], found)]

    # -- numbers -----------------------------------------------------------

    def from_number(self, d: Dyadic) -> GameId:
        """The canonical-form game of a dyadic number: ``{n-1|}`` above zero,
        ``{|n+1}`` below it, ``{|}`` at zero, and ``{d-e|d+e}`` between
        integers, e being the unit of d's last binary place.

        The numbers it rests on are built first from an explicit stack, in
        the order a recursion would build them (the left option's numbers
        before the right's), so an integer of any size builds without deep
        recursion and the arena's ids are those the recursion gave.
        """
        stack = [d]
        while stack:
            x = stack[-1]
            if x in self._numbers:
                stack.pop()
                continue
            if x.is_integer():
                left = [Dyadic(x.num - 1)] if x.num > 0 else []
                right = [Dyadic(x.num + 1)] if x.num < 0 else []
            else:
                step = Dyadic(1, x.exp)
                left, right = [x - step], [x + step]
            missing = [y for y in left + right if y not in self._numbers]
            if missing:
                stack += reversed(missing)
                continue
            stack.pop()
            result = self.make_game([self._numbers[y] for y in left], [self._numbers[y] for y in right])
            self._numbers[x] = result
            self._canon[result] = result
            self._numval[result] = x
        return self._numbers[d]

    def _read_number(self, g: GameId) -> Dyadic | None:
        """Structural number reading, sound on any record by simplicity.

        Reads integer chains ``{n|}`` / ``{|n}`` and ``{a|b}`` with number
        options a < b (the simplest number between); the zero record ``{|}``
        is known from :meth:`from_number`, which built it first.  Returns
        None for records not of those shapes.
        """
        done = self._numval.get(g, _MISSING)
        if done is not _MISSING:
            return done
        left, right = self._records[g]
        value: Dyadic | None = None
        if not right and len(left) == 1:
            v = self._read_number(left[0])
            if v is not None and v.is_integer() and v.num >= 0:
                value = v + Dyadic(1)
        elif not left and len(right) == 1:
            v = self._read_number(right[0])
            if v is not None and v.is_integer() and v.num <= 0:
                value = v - Dyadic(1)
        elif len(left) == 1 and len(right) == 1:
            a = self._read_number(left[0])
            b = self._read_number(right[0])
            if a is not None and b is not None and a < b:
                value = simplest_number(a, b)
        self._numval[g] = value
        return value

    def as_number(self, g: GameId) -> Dyadic | None:
        """The exact dyadic value when g equals a number, else None."""
        return self._read_number(self.canonical_form(g))

    # -- stops --------------------------------------------------------------

    def stops(self, g: GameId) -> tuple[Dyadic, Dyadic]:
        """(Left stop, Right stop): best numbers under alternating play."""
        done = self._stops.get(g)
        if done is not None:
            return done
        x = self.as_number(g)
        if x is not None:
            pair = (x, x)
        else:  # both option sets are nonempty: a one-sided game equals an integer
            left, right = self._records[g]
            pair = (
                max(self.stops(gl)[1] for gl in left),
                min(self.stops(gr)[0] for gr in right),
            )
        self._stops[g] = pair
        return pair

    # -- text format --------------------------------------------------------

    def to_text(self, g: GameId) -> str:
        """Fully braced game text: the JSON form written out by :func:`game_text`."""
        return game_text(self.to_json_obj(g))

    # -- JSON form ------------------------------------------------------------

    def to_json_obj(self, g: GameId):
        """Nested ``{"L": [...], "R": [...]}`` with numbers as strings."""
        value = self._read_number(g)
        if value is not None:
            return str(value)
        left, right = self._records[g]
        return {
            "L": [self.to_json_obj(x) for x in left],
            "R": [self.to_json_obj(x) for x in right],
        }

    def from_json_obj(self, obj) -> GameId:
        if isinstance(obj, str):
            return self.from_number(Dyadic.from_str(obj))
        return self.make_game(
            [self.from_json_obj(x) for x in obj["L"]],
            [self.from_json_obj(x) for x in obj["R"]],
        )


def game_text(obj) -> str:
    """A JSON form (a number string, or ``{"L": [...], "R": [...]}``) as
    fully braced game text."""
    if isinstance(obj, str):
        return obj
    return "{" + ",".join(map(game_text, obj["L"])) + "|" + ",".join(map(game_text, obj["R"])) + "}"


_MISSING = object()
