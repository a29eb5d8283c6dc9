from math import isqrt

import pytest
from hypothesis import given, strategies as st

from goldennugget import fibonacci as fw


def test_fib_base_cases_and_recurrence():
    assert fw.fib(-1) == 1
    assert fw.fib(0) == 0
    assert fw.fib(1) == 1
    assert fw.fib(2) == 1
    assert fw.fib(10) == 55
    for n in range(1, 40):
        assert fw.fib(n + 1) == fw.fib(n) + fw.fib(n - 1)
    with pytest.raises(ValueError):
        fw.fib(-2)


def test_zeckendorf_examples():
    assert fw.zeckendorf(117).indices() == [11, 8, 5, 3]
    assert fw.zeckendorf(2).indices() == [3]
    assert fw.z1(2) == 3
    assert fw.z1(117) == 3
    assert fw.z1(11) == 4
    with pytest.raises(ValueError):
        fw.zeckendorf(0)


@given(st.integers(1, 10**400))
def test_zeckendorf_is_valid_and_exact(x):
    r = fw.zeckendorf(x)
    r.validate()
    assert r.value() == x
    assert fw.z1(x) == r.least_index()


@given(st.integers(1, 10**400))
def test_least_odd_is_valid_and_exact(x):
    r = fw.least_odd(x)
    r.validate()
    assert r.value() == x


def test_least_odd_example():
    assert fw.least_odd(11).indices() == [6, 3, 1]
    assert fw.least_odd(117).indices() == [11, 8, 5, 3]


@given(st.integers(1, 10**400))
def test_even_repr_is_valid_and_exact(x):
    r = fw.even_repr(x)
    r.validate()
    assert r.value() == x


def test_even_repr_examples():
    assert dict(fw.even_repr(117).terms) == {10: 2, 4: 2, 2: 1}
    assert fw.even_repr(102).to_ternary() == "1020001020"


@pytest.mark.parametrize("k", [3, 4, 30, 700])
def test_even_repr_of_doubled_and_sparse_inputs(k):
    top = fw.fib(2 * k)
    assert dict(fw.even_repr(2 * top).terms) == {2 * k: 2}
    assert dict(fw.even_repr(2 * top + fw.fib(2 * k - 4)).terms) == {2 * k: 2, 2 * k - 4: 1}
    for x in (2 * top, 2 * top + fw.fib(2 * k - 4), top - 1, fw.fib(2 * k + 2) - 2):
        r = fw.even_repr(x)
        assert r == fw.FibRepr.from_counts(fw.EVEN, dict(r.terms)), x
        r.validate()
        assert r.value() == x
        if k <= 30:
            assert fw.ze_transform(fw.zeckendorf(x)).terms == r.terms, x


@given(st.integers(1, 50000))
def test_ze_transform_agrees_with_greedy(x):
    assert fw.ze_transform(fw.zeckendorf(x)).terms == fw.even_repr(x).terms


def test_ze_transform_steps():
    assert dict(fw.ze_transform(fw.zeckendorf(2)).terms) == {2: 2}
    assert dict(fw.ze_transform(fw.zeckendorf(8)).terms) == {6: 1}


def _mex_tables(limit):
    taken = set()
    a, b = [0], [0]
    n = 1
    while len(a) <= limit:
        m = 1
        while m in taken:
            m += 1
        a.append(m)
        b.append(m + n)
        taken.add(m)
        taken.add(m + n)
        n += 1
    return a, b


def test_wythoff_sequences_match_mex_recurrence():
    a, b = _mex_tables(3000)
    for n in range(3000):
        assert fw.a_seq(n) == a[n]
        assert fw.b_seq(n) == b[n]


_F = [fw.fib(i) for i in range(2000)]  # up to 10^417


def _expected(least, shift1, shift2):
    """z1, in_a, in_b, A's inverse and B's inverse as Z(x) defines them, from
    its least index and its right shifts by one index (A) and by two (B)."""
    in_a = least % 2 == 0
    return least, in_a, not in_a, shift1 if in_a else None, None if in_a else shift2


def _inverse_or_none(inverse, x):
    try:
        return inverse(x)
    except ValueError as exc:
        assert "is not in the" in str(exc)
        return None


def _confirmed_candidates(y):
    """A's and B's inverse at y, or None, from one isqrt: each candidate n,
    kept only when the forward step gives y back."""
    s = isqrt(5 * y * y)
    n_a, n_b = (s - y) // 2 + 1, (3 * y - s) // 2
    return n_a if fw.a_seq(n_a) == y else None, n_b if fw.b_seq(n_b) == y else None


def _fast(x):
    """z1, in_a, in_b, A's inverse (the package has none, so the confirmed
    candidate) and b_inverse."""
    return (fw.z1(x), fw.in_a(x), fw.in_b(x),
            _confirmed_candidates(x)[0], _inverse_or_none(fw.b_inverse, x))


def _check_identities(x):
    indices = fw.zeckendorf(x).indices()
    shift1, shift2 = sum(_F[i - 1] for i in indices), sum(_F[i - 2] for i in indices)
    fast = _fast(x)
    assert fast == _expected(indices[-1], shift1, shift2), x
    assert fast[4] == _confirmed_candidates(x)[1], x
    # A is the left shift of the least-odd representation, B the double shift
    lo = fw.least_odd(x).indices()
    assert fw.a_seq(x) == sum(_F[i + 1] for i in lo), x
    assert fw.b_seq(x) == sum(_F[i + 2] for i in lo), x


def test_identities_match_definitions_up_to_2e5():
    # Z(x) is F(t) followed by Z(x - F(t)), for the largest F(t) <= x
    top = 2 * 10**5
    least, shift1, shift2 = [0] * (top + 1), [0] * (top + 1), [0] * (top + 1)
    t = 2
    for x in range(1, top + 1):
        if _F[t + 1] <= x:
            t += 1
        r = x - _F[t]
        least[x] = least[r] if r else t
        shift1[x] = _F[t - 1] + shift1[r]
        shift2[x] = _F[t - 2] + shift2[r]
        assert _fast(x) == _expected(least[x], shift1[x], shift2[x]), x
        if least[x] % 2 == 0:
            assert fw.a_seq(shift1[x]) == x, x
        else:
            assert fw.b_seq(shift2[x]) == x, x


def test_identities_match_definitions_near_fibonacci_numbers():
    for k in range(1500):
        for d in range(-2, 3):
            if fw.fib(k) + d > 0:
                _check_identities(fw.fib(k) + d)


@given(st.integers(1, 10**400))
def test_identities_match_definitions_on_big_integers(x):
    _check_identities(x)


def test_inverses_reject_nonpositive_input():
    for y in (0, -1, -2, -10**400):
        for fn in (fw.b_inverse, fw.z1):
            with pytest.raises(ValueError, match="positive integer required"):
                fn(y)
    for fn in (fw.a_seq, fw.b_seq):
        with pytest.raises(ValueError, match="nonnegative integer required, got -1"):
            fn(-1)


def test_morphism_powers():
    assert fw.morphism_power(3) == "abaab"
    assert fw.morphism_power(4) == fw.morphism_power(3) + fw.morphism_power(2)
    assert fw.word_prefix(5) == "abaab"
    assert fw.word_prefix(0) == ""
    assert fw.word_prefix(1, with_leading_b=True) == "b"


def test_compose_ab():
    with pytest.raises(ValueError):
        fw.compose_ab("AC", 1)


def test_repr_text_round_trip():
    assert fw.zeckendorf(117).to_text() == "F11+F8+F5+F3"
    assert fw.parse_repr("F11+F8+F5+F3").value() == 117
    assert fw.parse_repr("F10+F8+F8+F4+F2+F2", fw.EVEN).value() == 102
    e = fw.even_repr(117)
    assert fw.parse_repr(e.to_text(), fw.EVEN).terms == e.terms


@given(st.dictionaries(st.integers(1, 40).map(lambda k: 2 * k), st.integers(1, 2), min_size=1))
def test_even_gap_rule_matches_its_definition(counts):
    twos = sorted(i for i, m in counts.items() if m == 2)
    valid = not any(all(counts.get(j) for j in range(a + 2, b, 2)) for a, b in zip(twos, twos[1:]))
    r = fw.FibRepr.from_counts(fw.EVEN, counts)
    if valid:
        r.validate()
    else:
        with pytest.raises(ValueError, match="no unused index"):
            r.validate()


def test_validate_requires_the_normal_form():
    for terms in (((4, 1), (10, 2)), ((10, 1), (10, 1)), ((10, 1), (4, 0))):
        with pytest.raises(ValueError, match="strictly descending|multiplicity not 1 or 2"):
            fw.FibRepr(fw.EVEN, terms).validate()
    with pytest.raises(ValueError, match="strictly descending"):
        fw.FibRepr(fw.ZECKENDORF, ((2, 1), (5, 1))).validate()


def test_validate_names_each_kind_rule():
    for kind, terms, message in (
        (fw.ZECKENDORF, ((5, 2),), "zeckendorf: repeated index"),
        (fw.LEAST_ODD, ((6, 1), (5, 1)), "least-odd: consecutive indices"),
        (fw.ZECKENDORF, ((5, 1), (1, 1)), "zeckendorf: least index below 2"),
        (fw.LEAST_ODD, ((5, 1), (2, 1)), "least-odd: least index is even"),
        (fw.EVEN, ((6, 1), (3, 1)), "even: odd index present"),
        (fw.EVEN, ((6, 3),), "even: multiplicity not 1 or 2"),
        (fw.EVEN, (), "empty representation"),
        ("binary", ((5, 1),), "unknown kind 'binary'"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            fw.FibRepr(kind, terms).validate()


def test_argument_guards_name_the_bad_argument():
    for call, message in (
        (lambda: fw.even_repr(0), "positive integer required, got 0"),
        (lambda: fw.ze_transform(fw.even_repr(7)), "ze_transform expects a zeckendorf representation"),
        (lambda: fw.compose_ab("AB", -1), "nonnegative integer required, got -1"),
        (lambda: fw.compose_ab("AC", 1), "bad letter 'C' in composition word"),
        (lambda: fw.morphism_power(-1), "nonnegative integer required, got -1"),
        (lambda: fw.word_prefix(-1), "nonnegative length required, got -1"),
        (lambda: fw.zeckendorf(7).to_ternary(), "ternary coding applies to even representations"),
        (lambda: fw.parse_repr("F5+G2"), "bad term 'G2'"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


def test_even_gap_rule_rejected():
    with pytest.raises(ValueError):
        fw.parse_repr("F4+F4+F2+F2", fw.EVEN)  # doubled terms with no unused index between
    with pytest.raises(ValueError):
        fw.parse_repr("F10+F8+F8+F6+F4+F2+F2", fw.EVEN)
