"""Fibonacci numeration systems, the Wythoff sequences, and Fibonacci words.

Three representations of a positive integer as a multiset of Fibonacci
indices are provided:

* ``zeckendorf`` -- distinct non-consecutive indices, least index >= 2;
* ``least-odd``  -- distinct non-consecutive indices, least index odd;
* ``even``       -- even indices only, multiplicity up to 2, with an unused
  even index between any two doubled ones.

The Wythoff sequences A(n) = floor(n*phi) and B(n) = A(n) + n are computed
exactly in integers, with no floating point: A(n) = (n + isqrt(5 n^2)) // 2.
With s = isqrt(5 y^2), y is in B exactly when y + s is even and
5 (y+1)^2 < (s+3)^2 (the proof is in ``b_inverse``), and y's index in A or
B is read off s (``wythoff_index``).  The root of y - c follows from s and
c's root by one square comparison (``shifted_root``), which is how the heap
classifier gets by with one or two isqrts per heap.  That A(n) is also the
left shift of the least-odd representation of n, and B(n) the double left
shift, is a property the tests check.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter, namedtuple
from collections.abc import Callable, Iterator
from math import isqrt

ZECKENDORF = "zeckendorf"
LEAST_ODD = "least-odd"
EVEN = "even"

_fib_cache = [1, 0, 1, 1]  # F(-1), F(0), F(1), F(2)


def fib(n: int) -> int:
    """Exact Fibonacci number, defined for n >= -1 with F(-1) = 1, F(0) = 0."""
    if n < -1:
        raise ValueError(f"fib undefined for n={n}")
    while len(_fib_cache) <= n + 1:
        _fib_cache.append(_fib_cache[-1] + _fib_cache[-2])
    return _fib_cache[n + 1]


def _fibs_past(x: int) -> list[int]:
    """The table of Fibonacci numbers, grown until its last entry exceeds x.

    Entry j is F(j - 1); from entry 3 on (F2, F3, ...) it strictly increases.
    """
    while _fib_cache[-1] <= x:
        _fib_cache.append(_fib_cache[-1] + _fib_cache[-2])
    return _fib_cache


class FibRepr(namedtuple("FibRepr", "kind terms")):
    """A multiset of Fibonacci indices with a kind tag.

    ``terms`` maps index -> multiplicity and is stored as a sorted tuple of
    (index, multiplicity) pairs, largest index first.
    """

    __slots__ = ()

    @classmethod
    def from_counts(cls, kind: str, counts: dict[int, int]) -> "FibRepr":
        items = tuple(sorted(((i, m) for i, m in counts.items() if m), reverse=True))
        return cls(kind, items)

    def value(self) -> int:
        return sum(m * fib(i) for i, m in self.terms)

    def indices(self) -> list[int]:
        """All indices, repeated according to multiplicity, descending."""
        out: list[int] = []
        for i, m in self.terms:
            out.extend([i] * m)
        return out

    def least_index(self) -> int:
        return self.terms[-1][0]

    def validate(self) -> None:
        """Check the normal form (indices strictly descending, each used at
        least once) and the invariants of this representation's kind."""
        idx = [i for i, _ in self.terms]
        mults = dict(self.terms)
        if not idx:
            raise ValueError("empty representation")
        if any(a <= b for a, b in zip(idx, idx[1:])):
            raise ValueError(f"{self.kind}: indices not strictly descending")
        if self.kind in (ZECKENDORF, LEAST_ODD):
            if any(m != 1 for m in mults.values()):
                raise ValueError(f"{self.kind}: repeated index")
            if any(a - b == 1 for a, b in zip(idx, idx[1:])):
                raise ValueError(f"{self.kind}: consecutive indices")
            least = idx[-1]
            if self.kind == ZECKENDORF and least < 2:
                raise ValueError("zeckendorf: least index below 2")
            if self.kind == LEAST_ODD and least % 2 == 0:
                raise ValueError("least-odd: least index is even")
        elif self.kind == EVEN:
            if any(i % 2 for i in mults):
                raise ValueError("even: odd index present")
            if any(m not in (1, 2) for m in mults.values()):
                raise ValueError("even: multiplicity not 1 or 2")
            # doubled indices a > b with every even index between them used
            # have exactly (a - b) / 2 - 1 terms between them
            doubled = [(i, pos) for pos, (i, m) in enumerate(self.terms) if m == 2]
            for (a, pa), (b, pb) in zip(doubled, doubled[1:]):
                if a - b == 2 * (pb - pa):
                    raise ValueError("even: no unused index between doubled terms")
        else:
            raise ValueError(f"unknown kind {self.kind!r}")

    # -- text forms ------------------------------------------------------

    def to_text(self) -> str:
        """Sum notation, e.g. ``F11+F8+F5+F3``; doubled terms repeat."""
        return "+".join(f"F{i}" for i in self.indices())

    def to_ternary(self) -> str:
        """Digit string for even representations, most significant first.

        One digit per index from the largest down to 1, so odd positions
        are always 0 (e.g. 2*F2+F4+2*F8+F10 -> ``1020001020``).
        """
        if self.kind != EVEN:
            raise ValueError("ternary coding applies to even representations")
        mults = dict(self.terms)
        top = self.terms[0][0]
        return "".join(str(mults.get(i, 0)) for i in range(top, 0, -1))


def parse_repr(text: str, kind: str = ZECKENDORF) -> FibRepr:
    """Parse sum notation ``F11+F8+F5+F3``, as ``FibRepr.to_text`` writes it."""
    counts: Counter[int] = Counter()
    for part in text.strip().split("+"):
        part = part.strip()
        if not part.startswith("F"):
            raise ValueError(f"bad term {part!r}")
        counts[int(part[1:])] += 1
    r = FibRepr.from_counts(kind, counts)
    r.validate()
    return r


def _zeckendorf_indices(x: int) -> list[int]:
    """Indices of the greedy Zeckendorf representation of x, largest first."""
    if x <= 0:
        raise ValueError(f"positive integer required, got {x}")
    fibs = _fibs_past(x)
    j = bisect_right(fibs, x, lo=3) - 1
    out = []
    rest = x
    while True:
        rest -= fibs[j]
        out.append(j - 1)
        if not rest:
            return out
        j -= 2  # rest < F(i - 1), so the next term is at most F(i - 2)
        while fibs[j] > rest:
            j -= 1


def zeckendorf(x: int) -> FibRepr:
    """Greedy Zeckendorf representation of a positive integer."""
    return FibRepr(ZECKENDORF, tuple((i, 1) for i in _zeckendorf_indices(x)))


def z1(x: int) -> int:
    """Least index in the Zeckendorf representation of x."""
    return _zeckendorf_indices(x)[-1]


def least_odd(x: int) -> FibRepr:
    """Least-odd representation: Zeckendorf with a trailing even term expanded.

    A least term F(2k) unfolds into F(2k-1) + F(2k-3) + ... + F(1).
    """
    indices = _zeckendorf_indices(x)
    least = indices[-1]
    if least % 2 == 0:
        indices[-1:] = range(least - 1, 0, -2)
    return FibRepr(LEAST_ODD, tuple((i, 1) for i in indices))


def even_repr(x: int) -> FibRepr:
    """Even representation by greedy descent on even-indexed Fibonacci numbers.

    Each index is used at most twice: before F(2k) is first taken the rest
    is below F(2k+2) = 2 F(2k) + F(2k-1) <= 3 F(2k).  So the terms come out
    in descending order, one (index, multiplicity) pair per index used.
    """
    if x <= 0:
        raise ValueError(f"positive integer required, got {x}")
    fibs = _fibs_past(x)
    j = bisect_right(fibs, x, lo=3) - 1
    j -= 1 - j % 2  # entry j is F(j - 1): odd entries hold the even indices
    terms = []
    rest = x
    while rest:
        while fibs[j] > rest:
            j -= 2
        rest -= fibs[j]
        if rest >= fibs[j]:
            rest -= fibs[j]
            terms.append((j - 1, 2))
        else:
            terms.append((j - 1, 1))
        j -= 2
    return FibRepr(EVEN, tuple(terms))


def ze_transform(r: FibRepr) -> FibRepr:
    """Rewrite a Zeckendorf representation into the even representation.

    Repeatedly takes the least odd index n and applies F3 -> 2*F2, or
    F(n) + F(n-3) -> 2*F(n-1), or F(n) -> F(n-1) + F(n-2); the value is
    preserved at every step.
    """
    if r.kind != ZECKENDORF:
        raise ValueError("ze_transform expects a zeckendorf representation")
    target = r.value()
    counts = Counter(dict(r.terms))
    while True:
        odd = [i for i in counts if i % 2]
        if not odd:
            break
        n = min(odd)
        counts[n] -= 1
        if n == 3:
            counts[2] += 2
        elif counts.get(n - 3, 0) > 0:
            counts[n - 3] -= 1
            counts[n - 1] += 2
        else:
            counts[n - 1] += 1
            counts[n - 2] += 1
        counts = +counts  # drop zeros
        assert sum(m * fib(i) for i, m in counts.items()) == target
    return FibRepr.from_counts(EVEN, counts)


# -- Wythoff sequences ---------------------------------------------------


def a_seq(n: int) -> int:
    """A(n) = floor(n*phi) = floor((n + sqrt(5 n^2)) / 2), exactly."""
    if n < 0:
        raise ValueError(f"nonnegative integer required, got {n}")
    return (n + isqrt(5 * n * n)) // 2


def b_seq(n: int) -> int:
    """B(n) = floor(n*phi^2) = A(n) + n; A refuses a negative n."""
    return a_seq(n) + n


def in_a(x: int) -> bool:
    """Membership in the A sequence: the least Zeckendorf index is even."""
    return z1(x) % 2 == 0


def in_b(x: int) -> bool:
    """Membership in the B sequence: the least Zeckendorf index is odd."""
    return z1(x) % 2 == 1


def wythoff_index(y: int, s: int) -> tuple[bool, int]:
    """Whether the positive y is in B, and its index, read off s = isqrt(5 y^2):
    (True, n) with B(n) = y, or (False, n) with A(n) = y.

    The membership test and B's index are proved in ``b_inverse``.  A and B
    partition the positive integers, so a y outside B is in A, and then
    n = floor(y/phi) + 1 = (s - y) // 2 + 1, since y/phi = (y sqrt5 - y)/2
    and y sqrt5 lies strictly between s and s + 1.
    """
    if (y + s) % 2 == 0 and 5 * (y + 1) ** 2 < (s + 3) ** 2:
        return True, (3 * y - s) // 2
    return False, (s - y) // 2 + 1


def shifted_root(y: int, s: int, c: int, t: int) -> int:
    """isqrt(5 (y - c)^2) for integers y > c with c != 0, from s = isqrt(5 y^2)
    and t = floor(c sqrt5), with no isqrt.

    Write y sqrt5 = s + e and c sqrt5 = t + f; e and f lie in (0, 1) since
    sqrt5 is irrational.  Then (y - c) sqrt5 = (s - t) + (e - f) with
    e - f in (-1, 1), so the root is s - t when (y - c) sqrt5 >= s - t and
    s - t - 1 otherwise.  As (y - c) sqrt5 > 0 and e - f < 1, s - t >= 0, so
    the test squares to 5 (y - c)^2 >= (s - t)^2.  For c = -1 (t = -3) the
    root of y + 1 is s + 2 or s + 3, and for c = 1 (t = 2) that of y - 1 is
    s - 3 or s - 2.
    """
    r = s - t
    return r if 5 * (y - c) ** 2 >= r * r else r - 1


def b_inverse(y: int) -> int:
    """The n with B(n) = y, for y in the B sequence: n = round(y/phi^2).

    Let s = isqrt(5 y^2).  Then y is in B exactly when y + s is even and
    5 (y+1)^2 < (s+3)^2, and n = (3y - s) / 2.  Proof: y = floor(n phi^2)
    iff y/phi^2 < n < (y+1)/phi^2, and since y/phi^2 = y - y/phi such an
    integer n exists iff frac(y/phi) < 1/phi^2; it is then n = y - floor(y/phi).
    Write y sqrt5 = s + e with 0 < e < 1 (y sqrt5 is irrational), so that
    y/phi = (s + e - y)/2.  If y + s is odd, frac(y/phi) = (1 + e)/2 > 1/2
    > 1/phi^2, so y is not in B.  If y + s is even, frac(y/phi) = e/2 and
    floor(y/phi) = (s - y)/2; and e/2 < 1/phi^2 = (3 - sqrt5)/2 is
    sqrt5 (y+1) < s + 3, which squares to the integer test.
    """
    if y <= 0:
        raise ValueError(f"positive integer required, got {y}")
    y_in_b, n = wythoff_index(y, isqrt(5 * y * y))
    if not y_in_b:
        raise ValueError(f"{y} is not in the B sequence")
    return n


def values_upto(f: Callable[[int], int], limit: int) -> Iterator[int]:
    """f(1), f(2), ... while each value is at most ``limit``, for an increasing f."""
    n = 1
    while (value := f(n)) <= limit:
        yield value
        n += 1


def compose_ab(word: str, n: int) -> int:
    """Apply a composition of A and B written as a word, e.g. ``AB`` -> A(B(n))."""
    if n < 0:
        raise ValueError(f"nonnegative integer required, got {n}")
    value = n
    for letter in reversed(word):
        if letter == "A":
            value = a_seq(value)
        elif letter == "B":
            value = b_seq(value)
        else:
            raise ValueError(f"bad letter {letter!r} in composition word")
    return value


# -- Fibonacci words -----------------------------------------------------


def apply_morphism(word: str) -> str:
    """One step of the Fibonacci morphism a -> ab, b -> a."""
    return "".join("ab" if ch == "a" else "a" for ch in word)


def morphism_power(n: int) -> str:
    """The word phi^n(a)."""
    if n < 0:
        raise ValueError(f"nonnegative integer required, got {n}")
    word = "a"
    for _ in range(n):
        word = apply_morphism(word)
    return word


def word_prefix(length: int, with_leading_b: bool = False) -> str:
    """Prefix of the infinite Fibonacci word, or of the Wythoff word b*phi^inf."""
    if length < 0:
        raise ValueError(f"nonnegative length required, got {length}")
    if length == 0:
        return ""
    body = length - 1 if with_leading_b else length
    word = "a"
    while len(word) < body:
        word = apply_morphism(word)
    prefix = word[:body]
    return ("b" + prefix) if with_leading_b else prefix


def weighted_count(word: str, nb: int, na: int) -> int:
    """nb * (number of b's) + na * (number of a's)."""
    return nb * word.count("b") + na * word.count("a")
