"""Tensor module: words, canonical combinations, and the shift operators."""

from fractions import Fraction

import pytest

from nijalg import (
    EmptyWordTermError,
    MONO_UNIT,
    TensorElement,
    b_minus,
    b_plus,
    gen,
    grade_lengths,
)
from conftest import te, words_over


def test_addition_examples(ab):
    a, b = ab
    c, d = gen("c"), gen("d")
    assert te(a, b) + -1 * te(a, b) == TensorElement.zero()
    assert 2 * te(a, b) + 3 * te(a, b) == 5 * te(a, b)
    total = te(a, b) + te(c, d)
    assert total == te(c, d) + te(a, b)
    assert total.terms() == [((a, b), 1), ((c, d), 1)]


def test_scaling_examples(ab):
    a, b = ab
    x = te(a, b) + te(b, a)
    assert 0 * x == TensorElement.zero()
    assert 1 * x == x
    assert -1 * te(a, b) == -te(a, b)


def test_b_plus(ab):
    a, b = ab
    assert b_plus(te(a, b)) == te(MONO_UNIT, a, b)
    assert b_plus(te()) == te(MONO_UNIT)
    assert b_plus(2 * te(a) - te(b)) == 2 * te(MONO_UNIT, a) - te(MONO_UNIT, b)


def test_b_minus(ab):
    a, b = ab
    c = gen("c")
    assert b_minus(te(a, b, c)) == te(b, c)
    assert b_minus(te(a)) == te()
    with pytest.raises(EmptyWordTermError):
        b_minus(te(a) + te())


def test_grade_lengths(ab):
    a, b = ab
    c, d = gen("c"), gen("d")
    assert grade_lengths(te(a, b) + te(c, d)) == {2}
    assert grade_lengths(te(a) + te(b, c)) == {1, 2}
    assert grade_lengths(TensorElement.zero()) == frozenset()


def test_b_minus_b_plus_is_identity(ab):
    for w in words_over(list(ab) + [MONO_UNIT], 3):
        assert b_minus(b_plus(te(*w))) == te(*w)


def test_b_plus_b_minus_fixes_exactly_e_headed_words(ab):
    for w in words_over(list(ab) + [MONO_UNIT], 3, min_len=1):
        fixed = b_plus(b_minus(te(*w))) == te(*w)
        assert fixed == (w[0] == MONO_UNIT)


def test_b_plus_raises_grade(ab):
    for w in words_over(ab, 4, min_len=1):
        assert grade_lengths(b_plus(te(*w))) == {len(w) + 1}


def test_canonical_text(ab):
    a, b = ab
    assert str(te()) == "1"
    assert str(te(MONO_UNIT, a, a * b)) == "e.a.[a b]"
    assert str(TensorElement.zero()) == "0"
    x = te(a, b) + te(b, a) - te(a * b)
    assert str(x) == "-[a b] + a.b + b.a"
    assert str(2 * te(a)) == "2·a"


def test_equality_and_hash(ab):
    a, b = ab
    x = te(a, b) + te(b, a)
    y = te(b, a) + te(a, b)
    assert x == y and hash(x) == hash(y)
    assert x != x + te(a)


def test_from_word_stores_one_fraction_and_no_zero(ab):
    a, b = ab
    for coeff in (1, 2, "-1/3", Fraction(5, 2)):
        ((word, stored),) = (coeff * TensorElement.from_word([a, b])).iterterms()
        assert word == (a, b) and type(stored) is Fraction and stored == Fraction(coeff)
    assert 0 * TensorElement.from_word((a,)) == TensorElement.zero()
    assert not Fraction(0) * TensorElement.from_word((a,))
    with pytest.raises(TypeError):
        TensorElement.from_word(("a",))
