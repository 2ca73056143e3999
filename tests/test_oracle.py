"""Non-recursive mixed-shuffle oracle against the recursive products."""

import inspect
import itertools
import sys
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from nijalg import (
    LEFT,
    RIGHT,
    MONO_UNIT,
    TensorElement,
    admissible_pairs,
    enumerate_shuffles,
    gen,
    mixed_shuffle,
    mod_quasi_shuffle,
    mod_quasi_shuffle_oracle,
    quasi_shuffle,
    shuffle,
)
from nijalg import oracle
from nijalg.base import exact
from nijalg.oracle import _merge
from nijalg.tensor import Word
from conftest import count_calls, te, words_over

LAMBDAS = (Fraction(0), Fraction(1), Fraction(-1), Fraction(5, 7))


def test_enumerate_shuffles_examples():
    a, b, c = gen("a"), gen("b"), gen("c")
    labeled = enumerate_shuffles((a, b), (c,))
    assert set(labeled) == {
        ((a, LEFT), (b, LEFT), (c, RIGHT)),
        ((a, LEFT), (c, RIGHT), (b, LEFT)),
        ((c, RIGHT), (a, LEFT), (b, LEFT)),
    }
    assert enumerate_shuffles((a,), ()) == [((a, LEFT),)]
    assert len(enumerate_shuffles((a, b), (c, gen("d")))) == 6


def recursive_shuffles(x_word, z_word):
    """The recursive enumeration the position one replaced: the left
    factor's next letter is explored first at every branch."""

    def rec(i, j):
        if i == len(x_word) and j == len(z_word):
            yield ()
            return
        if i < len(x_word):
            for rest in rec(i + 1, j):
                yield ((x_word[i], LEFT),) + rest
        if j < len(z_word):
            for rest in rec(i, j + 1):
                yield ((z_word[j], RIGHT),) + rest

    return list(rec(0, 0))


def test_shuffles_come_in_the_recursive_order():
    # twelve distinct letters, so every interleaving is a distinct tuple
    x_letters = tuple(gen(g) for g in "abcdfg")
    z_letters = tuple(gen(g) for g in "hijklm")
    for m in range(7):
        for n in range(7):
            x, z = x_letters[:m], z_letters[:n]
            assert enumerate_shuffles(x, z) == recursive_shuffles(x, z), (m, n)


def test_the_oracle_does_not_recurse(ab):
    # under a limit 60 frames above the current depth the recursive
    # enumeration fails at about 60 letters; the oracle's depth does not
    # grow with the words.  A 250-letter word against one letter keeps the
    # quasi-shuffle reference, whose grid holds O(m³) letters, fast.
    a, b = ab
    lam = Fraction(2, 3)
    long = (a,) * 250
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 60)
    try:
        mixed = mixed_shuffle(long, (b,), lam)
        mod = mod_quasi_shuffle_oracle((b,), long, lam)
    finally:
        sys.setrecursionlimit(limit)
    assert mixed == quasi_shuffle(te(*long), te(b), lam)
    assert mod == mod_quasi_shuffle(te(b), te(*long), lam)
    assert len(mixed.terms()) == 2 * 250 + 1


def test_shuffle_counts():
    a, b = gen("a"), gen("b")
    for m in range(5):
        for n in range(5):
            x = (a,) * m
            z = (b,) * n
            assert len(enumerate_shuffles(x, z)) == comb(m + n, m)


def test_admissible_pairs_examples():
    a, b, c = gen("a"), gen("b"), gen("c")
    assert admissible_pairs(((a, LEFT), (c, RIGHT), (b, LEFT))) == (1,)
    assert admissible_pairs(((c, RIGHT), (a, LEFT), (b, LEFT))) == ()
    assert admissible_pairs(((a, LEFT), (b, LEFT), (c, RIGHT))) == (2,)


def test_admissible_pairs_never_overlap(ab):
    for x in words_over(ab, 3):
        for z in words_over(ab, 3):
            for labeled in enumerate_shuffles(x, z):
                pairs = admissible_pairs(labeled)
                assert all(k + 1 not in pairs for k in pairs)


def test_mixed_shuffle_examples():
    a, b, c = gen("a"), gen("b"), gen("c")
    lam = Fraction(4, 3)
    expected = (
        te(a, b, c)
        + te(a, c, b)
        + te(c, a, b)
        - lam * te(a, b * c)
        - lam * te(a * c, b)
    )
    assert mixed_shuffle((a, b), (c,), lam) == expected
    assert mixed_shuffle((a,), (), lam) == te(a)


def test_mixed_shuffle_thirteen_words():
    # two length-2 words on distinct generators: 6 unmerged + 6 single + 1 double
    a, b, c, d = (gen(g) for g in "abcd")
    result = mixed_shuffle((a, b), (c, d), 1)
    assert len(result.terms()) == 13
    assert dict(result.iterterms())[(a * c, b * d)] == 1  # the double merge


def test_mod_oracle_examples():
    a, b, c = gen("a"), gen("b"), gen("c")
    lam = Fraction(2)
    assert mod_quasi_shuffle_oracle((a,), (b,), lam) == te(a, b) + te(b, a) - lam * te(
        MONO_UNIT, a * b
    )
    assert mod_quasi_shuffle_oracle((), (a, c), lam) == te(a, c)
    expected = (
        te(a, b, c)
        + te(a, c, b)
        + te(c, a, b)
        - lam * te(a, MONO_UNIT, b * c)
        - lam * te(MONO_UNIT, a * c, b)
    )
    assert mod_quasi_shuffle_oracle((a, b), (c,), lam) == expected


def test_oracle_equality_sweep(ab):
    words = words_over(ab, 3)
    for lam in LAMBDAS:
        for x in words:
            for z in words:
                assert mixed_shuffle(x, z, lam) == quasi_shuffle(te(*x), te(*z), lam)
                assert mod_quasi_shuffle_oracle(x, z, lam) == mod_quasi_shuffle(
                    te(*x), te(*z), lam
                )


def test_the_weight_zero_oracle_forms_no_merged_word(monkeypatch, ab):
    # every merge carries (-λ)^k = 0 at λ = 0, so only the 35 shuffles of
    # abab and bab are built, one _merge call each
    a, b = ab
    x, z = (a, b, a, b), (b, a, b)
    merges = count_calls(monkeypatch, oracle, "_merge")
    shuffles = enumerate_shuffles(x, z)
    for build, product in (
        (mixed_shuffle, shuffle),
        (mod_quasi_shuffle_oracle, lambda u, v: mod_quasi_shuffle(u, v, 0)),
    ):
        merges.clear()
        assert build(x, z, 0) == product(te(*x), te(*z))
        assert len(merges) == len(shuffles) == comb(7, 3)
        assert all(not chosen for _, chosen, _ in merges)


def _fraction_mixed(x_word: Word, z_word: Word, lam, homogeneous: bool) -> TensorElement:
    """The oracle's summation before it ran on integer numerators: every term
    carries its power of -λ as a ``Fraction`` into the coercing constructor."""
    lam = exact(lam)
    powers = [(-lam) ** k for k in range(min(len(x_word), len(z_word)) + 1)]

    def terms():
        for labeled in enumerate_shuffles(x_word, z_word):
            # at λ = 0 every merge has coefficient 0: only the plain shuffle is formed
            pairs = admissible_pairs(labeled) if lam else ()
            for size in range(len(pairs) + 1):
                for chosen in itertools.combinations(pairs, size):
                    word = _merge(labeled, frozenset(chosen), homogeneous)
                    yield word, powers[size]

    return TensorElement(terms())


A, B = gen("a"), gen("b")
ORACLE_LETTERS = (MONO_UNIT, A, B, A * A, A * B)
ORACLE_WEIGHTS = (0, 1, -1, Fraction(2, 3), Fraction(-1, 2), Fraction(5, 7), 7)
oracle_words = st.lists(st.sampled_from(ORACLE_LETTERS), max_size=4).map(tuple)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(oracle_words, oracle_words, st.sampled_from(ORACLE_WEIGHTS), st.booleans())
# at λ = 1 the merge e·[ea] of the modified product cancels the unmerged e.a
@example((MONO_UNIT,), (A,), 1, True)
@example((A, MONO_UNIT), (B, MONO_UNIT, A), 1, True)
@example((MONO_UNIT, A * B), (MONO_UNIT,), Fraction(2, 3), True)
def test_integer_oracle_matches_the_fraction_summation(x, z, lam, homogeneous):
    result = oracle._mixed(x, z, lam, homogeneous)
    assert result == _fraction_mixed(x, z, lam, homogeneous)
    assert gcd(result._den, *result._terms.values()) == 1
    assert all(result._terms.values())


def test_cancelling_merges_leave_no_term():
    # e.a + a.e - λ·e.[ea] at λ = 1: the merged word is e.a, which cancels
    assert mod_quasi_shuffle_oracle((MONO_UNIT,), (A,), 1) == te(A, MONO_UNIT)
    assert mod_quasi_shuffle_oracle((MONO_UNIT,), (A,), 2) == te(A, MONO_UNIT) - te(MONO_UNIT, A)


@pytest.mark.parametrize("lam", [Fraction(2, 3), Fraction(-5, 7), 1, 0])
def test_the_oracle_builds_no_fraction(lam):
    # the coefficients are summed as integer numerators over q^min(m, n)
    x, z = (A, MONO_UNIT, A * B), (B, A)
    original = Fraction.__new__
    built = []

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Fraction, "__new__", counting)
        mixed = mixed_shuffle(x, z, lam)
        mod = mod_quasi_shuffle_oracle(x, z, lam)
    assert built == []
    assert mixed == quasi_shuffle(te(*x), te(*z), lam)
    assert mod == mod_quasi_shuffle(te(*x), te(*z), lam)
