"""The GoldenNugget subtraction game: classification, values, and the oracle.

In GoldenNugget, Left removes a member of Wythoff's A sequence from the
heap and Right removes a member of the B sequence.  Heap sizes partition
into four classes (plus zero) that determine the reduced canonical form:

* ``b``        -- heaps in B:             reduced form {1|0};
* ``ab-hat``   -- heaps in AB0 + 1:       reduced form 1;
* ``b2-hat``   -- heaps in B^2 + 1:       a number in [1/2, 1);
* ``g0``       -- heaps F(2n+3) - 2:      the number s(n);
* ``g-switch`` -- other heaps in AB:      reduced form {1|s(n)}.

The classifier takes one root per heap, s = isqrt(5 h^2), and derives
every other root it needs from s by exact square comparisons: a heap costs
one isqrt in B and for g0, and two in AA and for g-switch, the second in
reading off the row's index.
The numbers of b2-hat heaps are read off bitwise from the even Fibonacci
representation (the xi map), and the bits read decide whether a heap is a
number heap.  The classifier and the xi map run in time polynomial in
log(heap size); the brute-force oracle is guarded by a bound.
"""

from __future__ import annotations

import re
import sys
from collections import namedtuple
from collections.abc import Callable
from math import isqrt

from . import fibonacci as fw
from .dyadic import Dyadic, ZERO, ONE
from .games import GameId, ResourceLimitError, Universe, game_text

ORACLE_BOUND = 60


def s_val(n: int) -> Dyadic:
    """s(n) = (2/3)(4^n - 1)/4^n, the increasing number ladder below 2/3."""
    if n < 0:
        raise ValueError(f"nonnegative integer required, got {n}")
    if n == 0:
        return ZERO
    return Dyadic((4**n - 1) // 3, 2 * n - 1)


def q_val(n: int) -> Dyadic:
    """q(n) = (2/3)(4^n + 1/2)/4^n, the decreasing number ladder above 2/3."""
    if n < 0:
        raise ValueError(f"nonnegative integer required, got {n}")
    return Dyadic((2 * 4**n + 1) // 3, 2 * n)


def g_heap(i: int, n: int) -> int:
    """The i-th heap in the switch family G(n).

    G_i(n) = A(i) F(2n+2) + i F(2n+1) + F(2n+3) - 2, which also equals
    B^{n+1}(i) + F(2n+3) - 2.
    """
    if i < 0 or n < 1:
        raise ValueError(f"need i >= 0 and n >= 1, got i={i}, n={n}")
    return fw.a_seq(i) * fw.fib(2 * n + 2) + i * fw.fib(2 * n + 1) + fw.fib(2 * n + 3) - 2


def partition_table(top: int) -> dict[str, list[int | None]]:
    """The paper's partition table, columns 0 to top, keyed by row label;
    None where B(0) = 0 and B(B(0)) + 1 = 1 fall outside their classes."""
    cols = range(top + 1)
    return {
        "B": [None] + [fw.b_seq(n) for n in cols[1:]],
        "AB0": [fw.compose_ab("AB", n) for n in cols],
        "AB0+1": [fw.compose_ab("AB", n) + 1 for n in cols],
        "B2+1": [None] + [fw.compose_ab("BB", n) + 1 for n in cols[1:]],
        **{f"G({n})": [g_heap(i, n) for i in cols] for n in (1, 2, 3)},
    }


class HeapClass(namedtuple("HeapClass", "kind n i", defaults=(None, None))):
    """Where a heap size falls in the partition; n and i parametrize G.

    ``kind`` is one of 'zero', 'b', 'ab-hat', 'b2-hat', 'g0' and 'g-switch'.
    """

    __slots__ = ()

    def __str__(self) -> str:
        if self.kind == "g0":
            return f"g0(n={self.n})"
        if self.kind == "g-switch":
            return f"g-switch(n={self.n},i={self.i})"
        return self.kind


# the classes with no parameters, built once: a heap of one of them costs no construction
_ZERO_CLASS, _B_CLASS, _AB_HAT_CLASS, _B2_HAT_CLASS = map(HeapClass, ("zero", "b", "ab-hat", "b2-hat"))


def classify(h: int) -> HeapClass:
    """Total, single-valued classification of a heap size.

    Every test is membership in a composition of A and B.  A heap outside B
    is in A, and it is in AA exactly when h + 1 is in B, because
    A(A(n)) = B(n) - 1; otherwise it is in AB.

    The heap's one root s = isqrt(5 h^2) gives the roots of h + 1, h - 1 and
    of h - c for the start c of each row G(n), by one exact square
    comparison each (``fw.shifted_root``), and a root gives membership in B
    and the index in A or B (``fw.wythoff_index``).  So a heap in B costs
    one isqrt; a heap in AA two, the second in ``fw.b_inverse`` on the
    index of h - 1; and a heap in AB one for g0 and two for g-switch, the
    second reading off its index in the row (``_g_row``).
    """
    if h < 0:
        raise ValueError(f"nonnegative integer required, got {h}")
    if h == 0:
        return _ZERO_CLASS
    if h == 1:
        return _AB_HAT_CLASS
    s = isqrt(5 * h * h)
    if fw.wythoff_index(h, s)[0]:
        return _B_CLASS
    if not fw.wythoff_index(h + 1, fw.shifted_root(h, s, -1, -3))[0]:
        return _g_row(h, s)
    # h is in AA, so h - 1 is A(B(j)) or B(B(j)): its index in A or B must be in B.
    # The check stays because perfbench's tracer expects b_inverse to fire on
    # classifier_stream.small (ROADMAP item 1).
    below_in_b, j = fw.wythoff_index(h - 1, fw.shifted_root(h, s, 1, 2))
    try:
        fw.b_inverse(j)
    except ValueError:
        raise AssertionError(f"heap {h} escaped the partition") from None
    return _B2_HAT_CLASS if below_in_b else _AB_HAT_CLASS


def _g_row(h: int, s: int) -> HeapClass:
    """The row of a heap h in AB, given s = isqrt(5 h^2).

    h = B^p(i) + c for exactly one n >= 1, where p = n + 1 and c = F(2n+3) - 2
    is where the row G(n) starts.  The rest h - c is then 0 (g0) or in B,
    which its root decides with no isqrt: c's root is
    t = isqrt(5 c^2) = L(2n+3) - 5 = F(2n+2) + F(2n+4) - 5, so the rest's
    is s - t or s - t - 1 (``fw.shifted_root``).  Proof of t: for odd k,
    sqrt5 F(k) = phi^k + phi^-k and L(k) = phi^k - phi^-k, so
    sqrt5 (F(k) - 2) = L(k) - 5 + (5 - 2 sqrt5 + 2 phi^-k); the bracket is
    positive, and below 1 when phi^k > 1 / (sqrt5 - 2) = sqrt5 + 2, which
    holds from k = 4 on; here k = 2n + 3 >= 5.

    The rows are tried from n = 1 up, and the first whose rest is 0 or in B
    is the heap's row, by the row lemma: if h = G_i(n) and 1 <= m < n, the
    rest h - c(m) has an even least Zeckendorf index, so it is in A, not in
    B.  Proof.  F(2n+3) - F(2m+3) telescopes over F(2k+3) - F(2k+1) = F(2k+2),
    so h - c(m) = B^p(i) + F(2m+4) + F(2m+6) + ... + F(2n+2).  A least-odd
    representation is unique (folding its trailing run F(2j+1) + ... + F(1)
    into F(2j+2) gives back the Zeckendorf one).  B(x) is the left shift by 2
    of x's least-odd representation (a property the tests check), which is
    again non-adjacent with an odd least index, so it is B(x)'s own least-odd
    representation; hence B^p(i) is the left shift by 2p of i's, a Zeckendorf
    representation whose least index l, if i > 0, is odd and at least
    2p + 1 = 2n + 3.  Add F(2n+2) to it.  If i = 0 or l > 2n + 3 nothing
    carries.  If l = 2n + 3, F(2n+2) + F(2n+3) = F(2n+4); a carry
    into an even index 2k, which the form leaves unused as 2k - 1 is a term,
    merges with F(2k+1) when that is a term, so it stops at an even index
    with no term beside it.  Either way the sum is in Zeckendorf form with an
    even least index >= 2n + 2.  For n - m = 1 that sum is the rest; for
    n - m >= 2 the terms F(2m+4), ..., F(2n) sit below it with gaps of 2, and
    the least index is 2m + 4.

    The row's i is then read off in one step.  B^p(i) is the 2p-fold left
    shift of i's least-odd representation, so by
    F(k + 2p) = F(k+1) F(2p) + F(k) F(2p-1) it is A(i) F(2p) + i F(2p-1);
    with A(i) = i phi - frac(i phi) and phi^2p = F(2p) phi + F(2p-1) that is
    i phi^2p - frac(i phi) F(2p).  As F(2p+1) - F(2p) phi = phi^-2p,
    rest F(2p+1) - A(rest F(2p)) = rest phi^-2p + frac(rest F(2p) phi), an
    integer in (i - F(2p) phi^-2p, i + 1) with F(2p) phi^-2p < 1: it is i.

    The closing AssertionError is unreachable by the paper's partition
    theorem (every heap in AB lies in one row), which the nugget suite's
    forward enumeration checks to 10^5; its oracle comparison, run to 9000 in
    CI, also covers it.
    """
    n, f2, f3 = 1, 3, 5  # F(2n+2), F(2n+3)
    while f3 - 2 <= h:
        rest = h - f3 + 2
        if rest == 0:
            return HeapClass("g0", n=n)
        f4 = f2 + f3
        if fw.wythoff_index(rest, fw.shifted_root(h, s, f3 - 2, f2 + f4 - 5))[0]:
            return HeapClass("g-switch", n=n, i=rest * f3 - fw.a_seq(rest * f2))
        n, f2, f3 = n + 1, f4, f3 + f4
    raise AssertionError(f"heap {h} in AB matched no G(n)")


# -- the xi bijection ------------------------------------------------------


def _is_q_value(d: Dyadic) -> bool:
    """Whether d is the value of a heap in Q: s(n) for n >= 1, or a dyadic strictly between 2/3 and 1."""
    return 2 << d.exp < 3 * d.num < 3 << d.exp or d.exp % 2 == 1 and d == s_val((d.exp + 1) // 2)


def xi(d: Dyadic) -> int:
    """Map a heap's number value to the least heap of that value.

    xi takes 0, 1, s(n) for n >= 1 (the g0 heaps) and each dyadic strictly
    between 2/3 and 1 (the b2-hat heaps); no other dyadic is a heap's value.
    Digit i contributes F(e(i)) when set, where e(0) = 2, e(1) = 4, and
    e(i) repeats e(i-1) exactly after a 01 digit pair, else advances by 2.
    The resulting multiset is the even Fibonacci representation.
    """
    if not (d in (ZERO, ONE) or _is_q_value(d)):
        raise ValueError(f"xi takes 0, 1, s(n) for n >= 1, or a dyadic in (2/3, 1), got {d}")
    bits = d.binary().replace(".", "")  # digits d0 d1 ... dk
    total = 0
    e = 2
    for i, bit in enumerate(bits):
        if i == 1:
            e = 4
        elif i >= 2 and bits[i - 2:i] != "01":
            e += 2
        if bit == "1":
            total += fw.fib(e)
    return total


def xi_inverse(h: int) -> Dyadic:
    """The value of a number heap, inverting ``xi``: h for 0 and 1, else
    the d in [1/2, 1) with xi(d) = h.  Any other heap is refused.

    The bits are read off the even representation of h, one even index at a
    time from index 0 up (so F2 gives digit 0), in one pass over its terms.
    An index gives 0 when it is unused; when it is used once, 1 after a 1
    and 10 after a 0; when it is used twice, 11 after a 0.  Trailing zeros
    are dropped.

    The walk is the membership test.  It runs xi's digit schedule backwards
    (the digit after a 01 pair repeats the index of the 1, and for d < 1 the
    start at index 0 puts digit 1 at F4), so a d < 1 that it reads has
    xi(d) = h; and when xi(d) = h for a value d of Q, xi's terms are the
    even representation of h, which is unique, so the walk reads d back.
    Hence the d read is a value of Q exactly when h is in Q.  The even
    representation leaves an index unused between two doubled ones, so a
    doubled index never follows a 1 and the last branch cannot fire.
    """
    if h in (0, 1):
        return Dyadic(h)
    if h > 1:
        digits = []
        after_zero = True  # the last digit written is 0
        e = 0
        for index, mult in reversed(fw.even_repr(h).terms):  # index ascending
            if index > e + 2:
                digits.append("0" * ((index - e) // 2 - 1))
                after_zero = True
            if after_zero:
                digits.append("10" if mult == 1 else "11")
                after_zero = mult == 1
            elif mult == 1:
                digits.append("1")
            else:
                raise AssertionError(f"level F{index} left unsatisfied for heap {h}")
            e = index
        bits = "".join(digits).rstrip("0")
        d = Dyadic(int(bits, 2), len(bits) - 1)
        if _is_q_value(d):
            return d
    raise ValueError(f"heap {_heap_text(h)} is not a positive number heap")


def _heap_text(h: int) -> str:
    """A heap as a refusal names it: in full up to 40 digits, else by its
    last 12 digits and its bit length, with no conversion of the whole int,
    which CPython refuses past 4,300 digits."""
    if abs(h) < 10**40:
        return str(h)
    return f"{'-' if h < 0 else ''}...{abs(h) % 10**12:012d} ({h.bit_length()} bits)"


# what int() reads in base 10; re compiles it at the first read, not at import
_INT = r"\s*[+-]?(\d+(?:_\d+)*)\s*"


def digit_limit() -> int:
    """CPython's int-string limit; 0, no limit, where the Python has none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def read_int(text: str, what: str) -> int:
    """``int(text)``, but a literal of more digits than the limit is refused
    as a resource limit naming ``what``, its digit count and the limit, not
    as bad input, and its digits are not echoed."""
    match, limit = re.fullmatch(_INT, text), digit_limit()
    digits = len(match[1].replace("_", "")) if match else 0
    if limit and digits > limit:
        raise ResourceLimitError(f"{what} of {digits} digits exceeds the int-string limit of {limit} digits")
    return int(text)


def q_members(limit: int) -> list[int]:
    """All positive heaps in Q = (B^2 + 1) union {F(2n+3) - 2} up to limit."""
    b2_hat = fw.values_upto(lambda n: fw.compose_ab("BB", n) + 1, limit)
    return sorted({*b2_hat, *fw.values_upto(lambda n: g_heap(0, n), limit)})


# -- values ------------------------------------------------------------------


class RcfValue(namedtuple("RcfValue", "kind value")):
    """A heap's reduced canonical form: a number, or the switch {1 | right}.

    ``kind`` is 'number' or 'switch'; ``value`` is the number or the right option.
    """

    __slots__ = ()

    def __str__(self) -> str:
        return game_text(self.to_json_obj())

    def to_json_obj(self):
        """The game's JSON form (see :meth:`Universe.to_json_obj`), built without a game."""
        if self.kind == "number":
            return str(self.value)
        return {"L": [str(ONE)], "R": [str(self.value)]}

    def to_game(self, u: Universe) -> GameId:
        if self.kind == "number":
            return u.from_number(self.value)
        return u.make_game([u.from_number(ONE)], [u.from_number(self.value)])


# the forms that do not depend on the heap, built once like the classes above
_FIXED_RCF = {"zero": RcfValue("number", ZERO), "b": RcfValue("switch", ZERO), "ab-hat": RcfValue("number", ONE)}


def heap_rcf(h: int) -> RcfValue:
    """Reduced canonical form of a heap, by classification (no game search).

    A g0 heap's value s(n) and a g-switch heap's right option s(n) are read
    off the class; only a b2-hat heap's value is read off its bits.
    """
    cls = classify(h)
    fixed = _FIXED_RCF.get(cls.kind)
    if fixed is not None:
        return fixed
    if cls.kind == "b2-hat":
        return RcfValue("number", xi_inverse(h))
    return RcfValue("number" if cls.kind == "g0" else "switch", s_val(cls.n))


def sum_stops(terms) -> tuple[Dyadic, Dyadic]:
    """(Left stop, Right stop) of a signed sum of reduced forms, building no game.

    ``terms`` holds (sign, RcfValue) pairs, sign 1 or -1.  A switch {1|s}
    is its mean (1+s)/2 plus the switch +-t of temperature t = (1-s)/2 > 0,
    and its negative {-s|-1} has the negated mean and the same t.  With m
    the sum of the means and t1 >= t2 >= ... the temperatures, the stops are
    m + f and m - f for f = t1 - t2 + t3 - ... (hottest switch first;
    Berlekamp, Conway and Guy, *Winning Ways*; Siegel, *Combinatorial Game
    Theory*, ch. II).

    Proof, by induction on the number of switches.  f >= 0, and f = 0
    exactly when the temperatures pair off; then the sum is the number m,
    as +-t + +-t = 0.  Otherwise the sum G is no number.  Left's move in the
    hottest switch leaves m + t1 plus the other switches, whose right stop
    is, by induction, m + t1 - f(T - t1) = m + f.  If G equalled a number x,
    then G^L < x or G^L || x, so R(G^L) <= x and m + f <= x; by symmetry
    x <= m - f, against f > 0.  So L(G) is the best R(G^L), and a move in
    the number part is never better (number avoidance).  A move in the
    switch of temperature t_i gives m + t_i - f(T - t_i), and
    t_i - f(T - t_i) <= f(T) reduces to P >= 0 for odd i and P >= t_i for
    even i, where P = t1 - t2 + ... +- t_(i-1).  Both hold: P pairs its
    terms into nonnegative differences, with t_(i-1) >= t_i left over when
    i is even.  The right stop is the mirror image.

    The sum runs in integers: every value is counted in units of 2^-top,
    top the largest exponent among the terms' numbers, so each term is an
    exact integer count and no sum rounds.  The stops are halves, so the two
    ``Dyadic`` stops are built once at the end with exponent top + 1, and
    ``Dyadic`` brings them to lowest terms: the same values as a sum of
    ``Dyadic`` terms.
    """
    top = max((value.value.exp for _, value in terms), default=0)
    one = 1 << top
    twice_mean = 0
    heats = []  # the temperatures, doubled
    for sign, (kind, value) in terms:
        units = value.num << (top - value.exp)
        if kind == "number":
            part = units + units
        else:
            part = one + units
            heats.append(one - units)
        twice_mean += part if sign > 0 else -part
    heats.sort(reverse=True)
    swing = sum(heats[0::2]) - sum(heats[1::2])
    return Dyadic(twice_mean + swing, top + 1), Dyadic(twice_mean - swing, top + 1)


# -- the oracle ----------------------------------------------------------------


class CSGameSpec:
    """A complementary subtraction game: Left removes members of the set A,
    Right removes the positive integers not in A.

    The name is the spec's identity within one class (equality and hash), so
    it must be the normalized literal of ``member``, A's membership test, as
    ``positions.parse_spec`` builds it.  Specs of different classes are never
    equal, so the oracle keys its memo by the spec itself.
    """

    def __init__(self, name: str, member: Callable[[int], bool]):
        self.name = name
        self.member = member

    def __eq__(self, other):
        return self.name == other.name if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self.name)

    def left_ok(self, k: int) -> bool:
        return self.member(k)

    def right_ok(self, k: int) -> bool:
        return not self.member(k)


class GoldenSpec(CSGameSpec):
    """GoldenNugget: Left removes members of A, Right members of B."""

    def __init__(self):
        # in_a is looked up per call and Right tests in_b, so perfbench's tracer sees both fire
        super().__init__("golden", lambda k: fw.in_a(k))

    def right_ok(self, k: int) -> bool:
        return fw.in_b(k)


GOLDEN = GoldenSpec()


def check_bound(h: int, bound: int) -> None:
    """Refuse a heap the oracle may not expand: one over ``bound``."""
    if h > bound:
        raise ResourceLimitError(f"heap {_heap_text(h)} exceeds the oracle bound {bound}")


def heap_canonical(u: Universe, h: int, bound: int = ORACLE_BOUND) -> GameId:
    """Brute-force oracle: the canonical form of a heap, by full expansion.

    Memoized bottom-up on the universe; guarded by `bound` because canonical
    forms grow quickly with the heap size.
    """
    return subtraction_canonical(u, GOLDEN, h, bound)


def subtraction_canonical(u: Universe, spec: CSGameSpec, h: int, bound: int) -> GameId:
    """The oracle for any subtraction game: heap h's canonical form in ``spec``.

    The forms of heaps 0, 1, 2, ... and both subtraction lists grow together
    in one entry of the universe's "oracle" table, under the spec, so equal
    specs share one memo and each predicate runs once per k; a k whose
    predicate raised is not recorded.
    Heap k's distinct option forms go straight to the canonical-form
    reduction: no record of every move is built.
    """
    if h < 0:
        raise ValueError(f"nonnegative integer required, got {h}")
    check_bound(h, bound)
    forms, left, right = u.cache("oracle").setdefault(spec, ([], [], []))
    for k in range(len(forms), h + 1):
        if k:
            to_left, to_right = spec.left_ok(k), spec.right_ok(k)
            left += [k] * to_left
            right += [k] * to_right
        forms.append(u.reduce({forms[k - s] for s in left}, {forms[k - s] for s in right}, "canonical", u.geq))
    return forms[h]
