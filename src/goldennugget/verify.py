"""Named verification suites, one per module's invariant block.

Every suite yields :class:`Check` results computed with exact arithmetic
at the stated bounds; the CLI ``verify`` subcommand prints them and exits
nonzero when anything fails.  Randomized checks draw from a seeded
generator so runs are reproducible.
"""

from __future__ import annotations

import random
import time
from collections import namedtuple

from . import fibonacci as fw
from . import nugget
from . import positions as pos
from .dyadic import Dyadic, HALF, ONE
from .games import Outcome, Universe
from .rcf import eq_inf, geq_inf, reduced_canonical_form


class Check(namedtuple("Check", "name ok detail elapsed", defaults=("", 0.0))):
    """One check's result; ``elapsed`` is the seconds spent in a sweep, 0.0 for single checks."""

    __slots__ = ()

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        tail = f"  ({self.detail})" if self.detail and not self.ok else ""
        return f"{status}  {self.name}{tail}"


def sweep(name: str, pairs) -> Check:
    """One check from (ok, detail) tuples: the first failure, and the time taken.

    The sweep stops at its first ``(False, detail)``: the generator is not
    resumed, so it need not return after yielding a failure.  A sweep that
    yields nothing passes, so a generator need yield only its failures.
    """
    start = time.perf_counter()
    for ok, detail in pairs:
        if not ok:
            break
    else:
        ok, detail = True, ""
    return Check(name, bool(ok), detail, time.perf_counter() - start)


def _random_game(u: Universe, rng: random.Random, depth: int) -> int:
    if depth == 0 or rng.random() < 0.3:
        num = rng.randint(-4, 4)
        exp = rng.randint(0, 2)
        return u.from_number(Dyadic(num, exp))
    left = [_random_game(u, rng, depth - 1) for _ in range(rng.randint(0, 2))]
    right = [_random_game(u, rng, depth - 1) for _ in range(rng.randint(0, 2))]
    return u.make_game(left, right)


# -- game-core ---------------------------------------------------------------


def suite_game_core(bound: int = 60, seed: int = 0):
    u = Universe()
    rng = random.Random(seed)
    games = [_random_game(u, rng, 4) for _ in range(120)]

    def consing():
        for g in games:
            for h in games[:40]:
                same = u.canonical_form(g) == u.canonical_form(h)
                agree = u.geq(g, h) and u.geq(h, g)
                yield same == agree, f"g={u.to_text(g)} h={u.to_text(h)}"

    yield sweep("hash-consing: equal canonical id iff geq both ways", consing())
    yield sweep(
        "group law: g + (-g) is a second-player win",
        ((u.outcome(u.add(g, u.negate(g))) == Outcome.P, u.to_text(g)) for g in games),
    )

    def closure():
        for num in range(-32, 33):
            for exp in range(0, 6):
                d = Dyadic(num, exp)
                yield u.as_number(u.from_number(d)) == d, str(d)
                yield u.negate(u.from_number(d)) == u.from_number(-d), str(d)

    yield sweep("number closure on a dyadic grid", closure())

    def sandwich():
        for h in range(bound + 1):
            left, right = u.stops(nugget.heap_canonical(u, h, bound=bound))
            yield left >= right, f"h={h}"

    yield sweep(f"stop sandwich L >= R on heaps <= {bound}", sandwich())

    def consistency():
        for g in games:
            o = u.outcome(g)
            ge, le = u.geq(g, u.zero), u.geq(u.zero, g)
            want = {(True, True): Outcome.P, (True, False): Outcome.L,
                    (False, True): Outcome.R, (False, False): Outcome.N}[(ge, le)]
            yield o == want, u.to_text(g)

    yield sweep("outcome matches geq against zero", consistency())

    star = u.make_game([u.zero], [u.zero])
    up = u.make_game([u.zero], [star])
    for x in (HALF, ONE):
        switch = u.make_game([u.from_number(x)], [u.zero])
        yield Check(f"{{{x}|0}} plus up is positive", u.outcome(u.add(switch, up)) == Outcome.L)


# -- rcf ----------------------------------------------------------------------


def suite_rcf(bound: int = 60, seed: int = 0):
    u = Universe()
    heaps = [nugget.heap_canonical(u, h, bound=bound) for h in range(bound + 1)]
    reduced = [reduced_canonical_form(u, g) for g in heaps]

    yield sweep(
        "idempotence: rcf(rcf(g)) is the same id",
        ((reduced_canonical_form(u, r) == r, f"h={h}") for h, r in enumerate(reduced)),
    )
    yield sweep(
        "soundness: g infinitesimally equals rcf(g)",
        ((eq_inf(u, g, r), f"h={h}") for h, (g, r) in enumerate(zip(heaps, reduced))),
    )

    def shapes():
        for h, r in enumerate(reduced):
            if u.as_number(r) is not None:
                continue
            left, right = u.options(r)
            ok = (
                len(left) == 1 == len(right)
                and u.as_number(left[0]) == ONE
                and u.as_number(right[0]) is not None
            )
            yield ok, f"h={h}: {u.to_text(r)}"

    yield sweep("minimality: every reduced heap is a number or {1|x}", shapes())
    yield sweep(
        "stops are invariant under reduction",
        ((u.stops(g) == u.stops(r), f"h={h}") for h, (g, r) in enumerate(zip(heaps, reduced))),
    )

    one = u.from_number(ONE)
    g10 = u.make_game([one], [u.zero])
    yield Check("1 >=I {1|0} but not conversely",
                geq_inf(u, one, g10) and not geq_inf(u, g10, one))
    half_switch = u.make_game([u.from_number(HALF)], [u.zero])
    yield Check("{1/2|0} >=I 0 strictly",
                geq_inf(u, half_switch, u.zero) and not geq_inf(u, u.zero, half_switch))

    rng = random.Random(seed)
    games = [_random_game(u, rng, 3) for _ in range(120)]
    results = [reduced_canonical_form(u, g) for g in games]

    def uniqueness():
        for i in range(0, len(games), 2):
            for j in range(i + 1, min(i + 25, len(games))):
                same = results[i] == results[j]
                close = eq_inf(u, games[i], games[j])
                yield same == close, f"{u.to_text(games[i])} vs {u.to_text(games[j])}"

    yield sweep("random games: same reduced id iff infinitesimally close", uniqueness())

    def structure():
        seen: set[int] = set()
        stack = list(results)
        while stack:
            r = stack.pop()
            if r in seen:
                continue
            seen.add(r)
            if u.as_number(r) is not None:
                yield u.canonical_form(r) == r, f"number subposition {u.to_text(r)}"
                continue
            left_stop, right_stop = u.stops(r)
            yield left_stop > right_stop, f"tepid subposition {u.to_text(r)}"
            ls, rs = u.options(r)
            for a in ls:
                yield not any(b != a and geq_inf(u, b, a) for b in ls), \
                    f"Inf-dominated left option in {u.to_text(r)}"
                yield not any(geq_inf(u, r, r1) for r1 in u.options(a)[1]), \
                    f"Inf-reversible left option in {u.to_text(r)}"
            for b in rs:
                yield not any(c != b and geq_inf(u, b, c) for c in rs), \
                    f"Inf-dominated right option in {u.to_text(r)}"
                yield not any(geq_inf(u, l1, r) for l1 in u.options(b)[0]), \
                    f"Inf-reversible right option in {u.to_text(r)}"
            stack.extend(ls + rs)

    yield sweep("random games: outputs carry no Inf-dominated or Inf-reversible options",
                structure())


# -- fibonacci ------------------------------------------------------------------


def suite_fibonacci(seed: int = 0):
    rng = random.Random(seed)

    def kimberling():
        for n in range(1, 10**4 + 1):
            a, b = fw.a_seq(n), fw.b_seq(n)
            yield fw.a_seq(a) == b - 1, f"A2 at {n}"
            yield fw.a_seq(b) == a + b, f"AB at {n}"
            yield fw.b_seq(a) == a + b - 1, f"BA at {n}"
            yield fw.b_seq(b) == a + 2 * b, f"B2 at {n}"

    yield sweep("Kimberling identities, n <= 10^4", kimberling())

    def fibonacci_points():
        for n in range(1, 26):
            yield fw.a_seq(fw.fib(2 * n - 1)) == fw.fib(2 * n), f"A(F{2*n-1})"
            yield fw.b_seq(fw.fib(2 * n - 1)) == fw.fib(2 * n + 1), f"B(F{2*n-1})"
            yield fw.a_seq(fw.fib(2 * n)) == fw.fib(2 * n + 1) - 1, f"A(F{2*n})"
            yield fw.b_seq(fw.fib(2 * n)) == fw.fib(2 * n + 2) - 1, f"B(F{2*n})"

    yield sweep("A and B at Fibonacci points, n <= 25", fibonacci_points())

    def generalized():
        for n in range(1, 13):
            for i in range(501):
                a, b = fw.a_seq(i), fw.b_seq(i)
                yield (fw.fib(2 * n - 3) * a + fw.fib(2 * n - 2) * b
                       == fw.compose_ab("A" + "B" * (n - 1), i)), f"ABn-1 n={n} i={i}"
                yield (fw.fib(2 * n - 2) * a + fw.fib(2 * n - 1) * b
                       == fw.compose_ab("B" * n, i)), f"Bn n={n} i={i}"
                if i >= 1:
                    yield (fw.fib(2 * n) * a + fw.fib(2 * n + 1) * b - fw.fib(2 * n + 1)
                           == fw.compose_ab("A" + "B" * n + "A", i)), f"ABnA n={n} i={i}"

    yield sweep("generalized Kimberling, n <= 12, i <= 500", generalized())

    def gaps():
        # gap pairs per word, keyed by whether i-1 lands in B (small) or A
        # (large); words that permute the same letters share gap positions
        for n in range(0, 9):
            abn = "A" + "B" * n
            bna = "B" * n + "A"
            bn = "B" * n
            for i in range(1, 501):
                small_key = i == 1 or fw.in_b(i - 1)
                d = fw.compose_ab(abn, i) - fw.compose_ab(abn, i - 1)
                yield d == fw.fib(2 * n + 2 + (not small_key)), f"AB^n gap n={n} i={i}"
                if n >= 1:
                    d = fw.compose_ab(bn, i) - fw.compose_ab(bn, i - 1)
                    yield d == fw.fib(2 * n + 1 + (not small_key)), f"B^n gap n={n} i={i}"
                if i >= 2:
                    da = fw.compose_ab(abn, i) - fw.compose_ab(abn, i - 1)
                    db = fw.compose_ab(bna, i) - fw.compose_ab(bna, i - 1)
                    yield da == db, f"permutation alignment n={n} i={i}"

    yield sweep("first-difference gaps keyed to A vs B, n <= 8, i <= 500", gaps())

    def additivity():
        # distinct even indices 2..24
        for mask in range(1, 1 << 12):
            g = sum(fw.fib(2 * (i + 1)) for i in range(12) if mask >> i & 1)
            h = sum(fw.fib(2 * (i + 1) - 1) for i in range(12) if mask >> i & 1)
            yield fw.a_seq(h) == g, f"subset mask={mask}"
        # coefficients in {0,1,2} with no F2 term
        import itertools
        for coeffs in itertools.product((0, 1, 2), repeat=11):
            g = sum(c * fw.fib(2 * (i + 2)) for i, c in enumerate(coeffs))
            h = sum(c * fw.fib(2 * (i + 2) - 1) for i, c in enumerate(coeffs))
            if g:
                yield fw.a_seq(h) == g, f"coeffs={coeffs}"

    yield sweep("additivity over even Fibonacci sums, indices <= 24", additivity())

    def even_runs():
        for m in range(1, 12):
            for n in range(m + 1, 13):
                run = sum(fw.fib(2 * j) for j in range(m, n + 1))
                yield fw.in_a(run), f"run m={m} n={n}"
                if m > 1:
                    yield fw.in_a(run + fw.fib(2 * n)), f"run+double m={m} n={n}"

    yield sweep("consecutive even runs land in A", even_runs())

    def word_counts():
        for _ in range(300):
            w = "".join(rng.choice("ab") for _ in range(rng.randint(0, 40)))
            img = fw.apply_morphism(w)
            yield img.count("b") == w.count("a"), w
            yield img.count("a") == len(w), w

    yield sweep("morphism letter counts on random words", word_counts())

    def prefix_counts():
        for n in range(26):
            w = fw.morphism_power(n)
            yield w.count("b") == fw.fib(n), f"b count n={n}"
            yield w.count("a") == fw.fib(n + 1), f"a count n={n}"
            yield len(w) == fw.fib(n + 2), f"length n={n}"
            yield fw.weighted_count(w, 1, 2) == fw.fib(n + 3), f"S12 n={n}"

    yield sweep("phi^n letter counts and S_{1,2}, n <= 25", prefix_counts())

    def doubling():
        for n in range(2, 21):
            w = fw.morphism_power(n)
            yield fw.word_prefix(2 * fw.fib(n + 2)) == w + w, f"n={n}"

    yield sweep("the word starts with phi^n phi^n, 2 <= n <= 20", doubling())

    def palindromes():
        for n in range(3, 25):
            p = fw.word_prefix(fw.fib(n) - 2)
            yield p == p[::-1], f"n={n}"

    yield sweep("prefixes of length F(n)-2 are palindromes, n <= 24", palindromes())

    def factor_counts():
        for n in range(2, 21):
            w = fw.word_prefix(fw.fib(n + 2) - 2)
            size = fw.fib(n)
            prefix_b = [0]
            for ch in w:
                prefix_b.append(prefix_b[-1] + (ch == "b"))
            for start in range(len(w) - size + 1):
                count = prefix_b[start + size] - prefix_b[start]
                if count != fw.fib(n - 2):
                    yield False, f"n={n} start={start}"

    yield sweep("every length-F(n) factor has F(n-2) b's, n <= 20", factor_counts())

    def letter_link():
        w = fw.word_prefix(10**5)
        for k in range(1, 10**5 + 1):
            yield (w[k - 1] == "a") == fw.in_a(k), f"k={k}"

    yield sweep("k-th letter is a iff k in A, k <= 10^5", letter_link())

    def wythoff_weights():
        for n in range(0, 2001):
            w = fw.word_prefix(n, with_leading_b=True)
            yield fw.weighted_count(w, 1, 2) == fw.a_seq(n), f"S12 n={n}"
            yield fw.weighted_count(w, 2, 3) == fw.b_seq(n), f"S23 n={n}"

    yield sweep("S_{1,2}(W_n) = A(n) and S_{2,3}(W_n) = B(n), n <= 2000", wythoff_weights())

    def shift_membership():
        for n in range(2, 21):
            f = fw.fib(n + 3)
            for k in range(1, f + 2):
                yield (fw.in_a(k + f) == fw.in_a(k)), f"n={n} k={k}"

    yield sweep("A is invariant under shifts by F(n+3), n <= 20", shift_membership())

    def block_shifts():
        for n in range(1, 11):
            for k in range(1, fw.fib(2 * n + 1)):
                yield (fw.compose_ab("BB", k + fw.fib(2 * n)) - fw.compose_ab("BB", k)
                       == fw.fib(2 * n + 4)), f"(i) n={n} k={k}"
                yield (fw.compose_ab("AB", k + fw.fib(2 * n)) - fw.compose_ab("AB", k)
                       == fw.fib(2 * n + 3)), f"(iii) n={n} k={k}"
            for k in range(0, fw.fib(2 * n)):
                yield (fw.compose_ab("BB", k + fw.fib(2 * n - 1)) - fw.compose_ab("BB", k)
                       == fw.fib(2 * n + 3)), f"(ii) n={n} k={k}"
                yield (fw.compose_ab("AB", k + fw.fib(2 * n - 1)) - fw.compose_ab("AB", k)
                       == fw.fib(2 * n + 2)), f"(iv) n={n} k={k}"

    yield sweep("B^2 and AB shift identities, n <= 10", block_shifts())

    def bb_not_ab():
        bs = [fw.b_seq(i) for i in range(2001)]
        ab_values = set(fw.values_upto(lambda n: fw.compose_ab("AB", n), 2 * bs[-1]))
        for i in range(2001):
            for j in range(i, 2001):
                if (i or j) and bs[i] + bs[j] in ab_values:
                    yield False, f"B({i})+B({j})"

    yield sweep("B(i)+B(j) never equals AB(n), i,j,n <= 2000", bb_not_ab())

    def frac_gaps():
        for n in range(1, 10**5 + 1):
            a, b = fw.a_seq(n), fw.b_seq(n)
            yield fw.a_seq(b + 1) == fw.a_seq(b) + 1, f"B side n={n}"
            yield fw.a_seq(a + 1) == fw.a_seq(a) + 2, f"A side n={n}"

    yield sweep("integer form of the fractional-part bounds, n <= 10^5", frac_gaps())

    def even_vs_z1():
        for x in range(1, 10**5 + 1):
            # the ternary digits of F2, F4, ..., read from F2 up: a run of 1s, then a 2
            special = fw.even_repr(x).to_ternary()[-2::-2].lstrip("1").startswith("2")
            yield (fw.z1(x) % 2 == 1) == special, f"x={x}"

    yield sweep("z1 odd iff the even tail is F2+...+F(2i)+2F(2i+2), x <= 10^5", even_vs_z1())

    def least_index_four():
        for n in range(1, 5001):
            h = fw.compose_ab("BB", n) + 1
            yield fw.even_repr(h).least_index() == 4, f"n={n}"

    yield sweep("B^2(n)+1 has least even index 4, n <= 5000", least_index_four())

    yield sweep("B^2(n) - AB(i) avoids A, n,i <= 2000", _not1_first())
    yield sweep("F(2n+1) - AB(i) - 3 avoids A", _not1_second())

    def complementarity():
        # every x is A(n) or B(n) for exactly one n >= 1, and in_a says which
        hits: dict[int, list[bool]] = {}
        for n in range(1, 10**5 + 1):
            hits.setdefault(fw.a_seq(n), []).append(True)
            hits.setdefault(fw.b_seq(n), []).append(False)
        for x in range(1, 10**5 + 1):
            yield hits.get(x) == [fw.in_a(x)], f"x={x}"

    yield sweep("A and B are complementary, x <= 10^5", complementarity())

    def zeck_even_agree():
        for x in range(1, 20001):
            yield fw.ze_transform(fw.zeckendorf(x)).terms == fw.even_repr(x).terms, f"x={x}"

    yield sweep("rewrite path equals greedy even representation, x <= 2*10^4", zeck_even_agree())


def _not1_first():
    bs = [fw.b_seq(i) for i in range(2001)]
    b2 = [fw.b_seq(b) for b in bs]
    ab = [fw.a_seq(b) for b in bs]
    a_values = set(fw.values_upto(fw.a_seq, b2[-1]))
    for n in range(1, 2001):
        for i in range(1, 2001):
            if b2[n] - ab[i] in a_values:
                yield False, f"n={n} i={i}"


def _not1_second():
    # F(2n+1) - AB(i) - 3 not in A; all i <= 2000 for n <= 30, where the
    # Zeckendorf tail has already stabilized (z1(F(2n+1) - c) is constant
    # once F(2n-1) > c), plus spot checks at large n to witness stability
    ab = [fw.compose_ab("AB", i) for i in range(2001)]
    for n, top in [(n, 2000) for n in range(2, 31)] + [(n, 50) for n in (100, 500, 1000, 2000)]:
        f = fw.fib(2 * n + 1)
        for i in range(top + 1):
            diff = f - ab[i] - 3
            if diff > 0 and fw.in_a(diff):
                yield False, f"n={n} i={i}"


# -- nugget ----------------------------------------------------------------------


# The paper's partition table, columns 0-14; None where a row has no column 0
PARTITION_TABLE = {
    "B": [None, 2, 5, 7, 10, 13, 15, 18, 20, 23, 26, 28, 31, 34, 36],
    "AB0": [0, 3, 8, 11, 16, 21, 24, 29, 32, 37, 42, 45, 50, 55, 58],
    "AB0+1": [1, 4, 9, 12, 17, 22, 25, 30, 33, 38, 43, 46, 51, 56, 59],
    "B2+1": [None, 6, 14, 19, 27, 35, 40, 48, 53, 61, 69, 74, 82, 90, 95],
    "G(1)": [3, 8, 16, 21, 29, 37, 42, 50, 55, 63, 71, 76, 84, 92, 97],
    "G(2)": [11, 24, 45, 58, 79, 100, 113, 134, 147, 168, 189, 202, 223, 244, 257],
    "G(3)": [32, 66, 121, 155, 210, 265, 299, 354, 388, 443, 498, 532, 587, 642, 676],
}


def oracle_classifier_agreement(u: Universe, bound: int):
    """(ok, detail) for every heap up to bound: the oracle's reduced form is
    the classifier's, and a number heap's value is its bit-map value."""
    for h in range(bound + 1):
        g = nugget.heap_canonical(u, h, bound=bound)
        fast = u.canonical_form(nugget.heap_rcf(h).to_game(u))
        yield reduced_canonical_form(u, g) == fast, f"h={h}"
        if nugget.classify(h).kind in ("b2-hat", "g0"):
            yield u.as_number(g) == nugget.xi_inverse(h), f"number h={h}"


def suite_nugget(bound: int = 60):
    u = Universe()

    def partition():
        limit = 10**5
        kinds = {0: nugget.HeapClass("zero")}
        for kind, f in (("b", fw.b_seq), ("ab-hat", lambda n: fw.compose_ab("AB", n - 1) + 1),
                        ("b2-hat", lambda n: fw.compose_ab("BB", n) + 1)):
            kinds.update(dict.fromkeys(fw.values_upto(f, limit), nugget.HeapClass(kind)))
        for n, g0 in enumerate(fw.values_upto(lambda n: nugget.g_heap(0, n), limit), 1):
            kinds[g0] = nugget.HeapClass("g0", n=n)
            for i, h in enumerate(fw.values_upto(lambda i: nugget.g_heap(i, n), limit), 1):
                kinds[h] = nugget.HeapClass("g-switch", n=n, i=i)
        if len(kinds) != limit + 1:
            yield False, f"forward enumeration covered {len(kinds)} of {limit + 1}"
        for h in range(limit + 1):
            got = nugget.classify(h)
            yield got == kinds[h], f"h={h}: {got} vs {kinds[h]}"

    yield sweep("classify matches forward enumeration, h <= 10^5", partition())

    def partition_rows():
        table = nugget.partition_table(14)
        yield list(table) == list(PARTITION_TABLE), f"row labels {list(table)}"
        for label, row in table.items():
            yield row == PARTITION_TABLE[label], f"{label}: {row}"

    yield sweep("partition table rows reproduce", partition_rows())

    def xi_round_trip():
        seen: dict[Dyadic, int] = {}
        for h in nugget.q_members(10**6):
            d = nugget.xi_inverse(h)
            if nugget.xi(d) != h:
                yield False, f"xi(xi_inverse({h})) != {h}"
            if d in seen:
                yield False, f"collision {seen[d]} vs {h}"
            seen[d] = h

    yield sweep("xi round trip and injectivity on Q up to 10^6", xi_round_trip())

    yield sweep(f"oracle vs classifier, h <= {bound}", oracle_classifier_agreement(u, bound))

    def anchors():
        for n in range(4):
            hs = fw.fib(2 * n + 3) - 2
            hq = fw.fib(2 * n + 4) - 2
            yield u.as_number(nugget.heap_canonical(u, hs, bound=max(bound, hs))) == nugget.s_val(n), f"s({n})"
            yield u.as_number(nugget.heap_canonical(u, hq, bound=max(bound, hq))) == nugget.q_val(n), f"q({n})"
        for n in range(1, 21):
            yield nugget.xi_inverse(fw.fib(2 * n + 3) - 2) == nugget.s_val(n), f"xi s({n})"
            yield nugget.xi_inverse(fw.fib(2 * n + 4) - 2) == nugget.q_val(n), f"xi q({n})"

    yield sweep("number ladders: oracle to n=3, xi to n=20", anchors())

    def number_range():
        for h in nugget.q_members(10**5):
            d = nugget.xi_inverse(h)
            yield HALF <= d < ONE, f"h={h} -> {d}"

    yield sweep("number heaps evaluate inside [1/2, 1), h <= 10^5", number_range())

    def parity_vs_order():
        members = nugget.q_members(10**4)
        values = {h: nugget.xi_inverse(h) for h in members}
        for pos_i, h2 in enumerate(members):
            for h1 in members[pos_i + 1:]:
                odd = fw.z1(h1 - h2) % 2 == 1
                if odd != (values[h2] > values[h1]):
                    yield False, f"h1={h1} h2={h2}"

    yield sweep("z1 parity of differences decides value order on Q up to 10^4", parity_vs_order())

    def switch_recursion():
        for n in range(1, 7):
            for m in range(0, n):
                base = fw.fib(2 * m + 3) - 2
                xs = [nugget.g_heap(i, n) - base for i in range(101)]
                k = 3
                while fw.fib(k) + 1 <= 100:
                    for j in range(fw.fib(k - 1)):
                        hi = fw.fib(k) + 1 + j
                        if hi > 100:
                            break
                        if xs[hi] != xs[j + 1] + fw.fib(2 * n + k + 2):
                            yield False, f"n={n} m={m} k={k} j={j}"
                    k += 1
                for i in range(501):
                    if not fw.in_a(nugget.g_heap(i, n) - base):
                        yield False, f"membership n={n} m={m} i={i}"

    yield sweep("switch-family differences recurse and stay in A", switch_recursion())

    def half_switch_family():
        for n in range(1, 2001):
            h = 3 * fw.a_seq(n) + 2 * n + 3
            yield fw.in_b(h - 3), f"h-3 n={n}"
            yield not fw.in_b(h), f"h n={n}"
            yield fw.in_a(h - 4), f"h-4 n={n}"

    yield sweep("the {1|1/2} family: moves to heaps 3 and 4, n <= 2000", half_switch_family())

    def conjecture_probe():
        for n in (1, 2, 3):
            h = 2 * fw.fib(2 * n + 3) - 2
            got = nugget.heap_canonical(u, h, bound=max(bound, h))
            want = u.make_game([u.from_number(ONE)], [u.from_number(nugget.s_val(n))])
            yield got == want, f"h={h}"

    yield sweep("probe (empirical only): <2F(2n+3)-2> is literally {1|s(n)}, n <= 3",
                conjecture_probe())


# -- positions ----------------------------------------------------------------------


def brute_position_outcome(spec: nugget.CSGameSpec, p: pos.Position) -> Outcome:
    """Direct alternating-play search, independent of game values."""
    memo: dict[tuple, bool] = {}

    def wins(heaps: tuple[tuple[str, int], ...], mover: str) -> bool:
        key = (tuple(sorted(heaps)), mover)
        if key in memo:
            return memo[key]
        other = "R" if mover == "L" else "L"
        result = False
        for index, (color, size) in enumerate(heaps):
            mover_is_left_here = (mover == "L") == (color == pos.BLUE)
            for amount in range(1, size + 1):
                ok = spec.left_ok(amount) if mover_is_left_here else spec.right_ok(amount)
                if ok:
                    child = heaps[:index] + ((color, size - amount),) + heaps[index + 1:]
                    if not wins(child, other):
                        result = True
                        break
            if result:
                break
        memo[key] = result
        return result

    return Outcome.from_wins(wins(p.heaps, "L"), wins(p.heaps, "R"))


def sum_route_winning_move(u: Universe, p: pos.Position, mover: str, spec: nugget.CSGameSpec,
                           bound: int = nugget.ORACLE_BOUND) -> pos.Move | None:
    """The definition ``pos.winning_move`` must meet: the first legal move
    after which the sum's outcome is a win for the mover, or None."""
    wins = (Outcome.L, Outcome.P) if mover == "L" else (Outcome.R, Outcome.P)
    for move in pos.legal_moves(spec, p, mover):
        after = p.replace(move.index, p.heaps[move.index][1] - move.amount)
        if u.outcome(pos.position_value(u, after, spec, bound)) in wins:
            return move
    return None


def suite_positions(bound: int = 25, seed: int = 0):
    u = Universe()
    rng = random.Random(seed)
    spec = nugget.GOLDEN

    samples = []
    for _ in range(40):
        heaps = tuple(
            (rng.choice((pos.BLUE, pos.RED)), rng.randint(0, bound))
            for _ in range(rng.randint(1, 3))
        )
        samples.append(pos.Position(heaps))

    yield sweep(
        "sum outcome agrees with direct alternating search",
        ((pos.position_outcome(u, p, spec, bound=bound) == brute_position_outcome(spec, p), str(p))
         for p in samples),
    )

    def antisymmetry():
        flip = {Outcome.L: Outcome.R, Outcome.R: Outcome.L, Outcome.N: Outcome.N, Outcome.P: Outcome.P}
        for p in samples:
            mirrored = p.swap_colors()
            yield (pos.position_value(u, mirrored, spec, bound=bound)
                   == u.negate(pos.position_value(u, p, spec, bound=bound))), str(p)
            yield (pos.position_outcome(u, mirrored, spec, bound=bound)
                   == flip[pos.position_outcome(u, p, spec, bound=bound)]), str(p)

    yield sweep("swapping colors negates values and mirrors outcomes", antisymmetry())

    def move_soundness():
        small: list[pos.Position] = []
        for size in range(16):
            for color in (pos.BLUE, pos.RED):
                small.append(pos.Position(((color, size),)))
        for a in range(16):
            for b in range(16):
                for ca in (pos.BLUE, pos.RED):
                    for cb in (pos.BLUE, pos.RED):
                        small.append(pos.Position(((ca, a), (cb, b))))
        for p in small:
            for mover in ("L", "R"):
                move = pos.winning_move(u, p, mover, spec, bound=15)
                want = sum_route_winning_move(u, p, mover, spec, bound=15)
                yield move == want, f"{p} {mover}: {move} vs {want}"

    yield sweep("winning moves win; absent means all moves lose (heaps <= 15)", move_soundness())

    def beatty_outcomes():
        for game_spec in (nugget.GOLDEN, pos.parse_spec("beatty:sqrt2")):
            outcomes = pos.cs_outcomes(game_spec, 2000)
            for h in range(2001):
                want = Outcome.P if h == 0 else (Outcome.L if game_spec.left_ok(h) else Outcome.N)
                yield outcomes[h] == want, f"{game_spec.name} h={h}"

    yield sweep("Beatty games: heap in A -> L, in B -> N, zero -> P (h <= 2000)", beatty_outcomes())

    def odd_even_values():
        for h in range(31):
            value = nugget.subtraction_canonical(u, pos.ODD_EVEN, h, 31)
            if h % 2:
                yield value == u.from_number(Dyadic(1, (h - 1) // 2)), f"h={h}"
            elif h == 0:
                yield value == u.zero, "h=0"
            else:
                prev = nugget.subtraction_canonical(u, pos.ODD_EVEN, h - 2, 31)
                built = u.canonical_form(u.make_game([u.from_number(ONE)], [u.zero, prev]))
                yield value == built, f"h={h}"

    yield sweep("odd/even game matches both closed forms, h <= 30", odd_even_values())

    probe = pos.periodicity_probe(pos.ODD_EVEN, 200)
    yield Check("odd/even outcome sequence has period 2 from h=1",
                probe.period == 2 and probe.preperiod == 1, str(probe))
    probe = pos.periodicity_probe(nugget.GOLDEN, 5000)
    yield Check("GoldenNugget outcome sequence shows no period up to 5000",
                not probe.found(), str(probe))


# -- cli ----------------------------------------------------------------------------


GOLDEN_RCF_TABLE = """h\trcf
1\t1
2\t{1|0}
3\t1/2
4\t1
5\t{1|0}
6\t3/4
7\t{1|0}
8\t{1|1/2}
9\t1
10\t{1|0}
11\t5/8
12\t1
13\t{1|0}
14\t7/8
15\t{1|0}
16\t{1|1/2}
17\t1
18\t{1|0}
19\t11/16
20\t{1|0}
"""


def suite_cli():
    # imported lazily so the engine modules stay CLI-free
    import json

    from . import cli

    table, _ = cli.capture(["table", "--kind", "rcf", "--max", "20"])
    yield Check("rcf table bytes match the golden transcription", table == GOLDEN_RCF_TABLE)

    u = Universe()

    def json_round_trips():
        for argv, reparse in (
            (["value", "12", "--format", "json"], "game"),
            (["rcf", "16", "--format", "json"], "game"),
            (["number", "19", "--format", "json"], "number"),
            (["repr", "117", "--kind", "even", "--format", "json"], "repr"),
        ):
            out, code = cli.capture(argv)
            if code != 0:
                yield False, f"{argv} exited {code}"
                continue
            payload = json.loads(out)
            if reparse == "game":
                game = u.from_json_obj(payload["game"])
                again = json.loads(json.dumps(u.to_json_obj(game)))
                yield u.from_json_obj(again) == game, str(argv)
            elif reparse == "number":
                d = Dyadic.from_str(payload["value"])
                yield Dyadic.from_binary(payload["binary"]) == d, str(argv)
            else:
                r = fw.parse_repr(payload["terms"], payload["kind"])
                yield r.value() == payload["value"], str(argv)

    yield sweep("printed JSON parses back to equal objects", json_round_trips())


SUITES = {
    "game-core": suite_game_core,
    "rcf": suite_rcf,
    "fibonacci": suite_fibonacci,
    "nugget": suite_nugget,
    "positions": suite_positions,
    "cli": suite_cli,
}


def suite_parameters(name: str) -> set[str]:
    """The parameters a suite takes, of ``bound`` and ``seed``, read off its code object."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}")
    code = SUITES[name].__code__
    return set(code.co_varnames[:code.co_argcount])
