"""Tensor module: words, canonical combinations, and the shift operators."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nijalg import (
    EmptyWordTermError,
    MONO_UNIT,
    TensorElement,
    VectorAlgebraElement,
    b_minus,
    b_plus,
    gen,
    grade_lengths,
    mixed_shuffle,
    quasi_shuffle,
)
from nijalg.base import exact
from conftest import in_exact_form, te, words_over


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


def test_grade_lengths_builds_no_fraction(ab, monkeypatch):
    # the lengths are read off the words, so the rational coefficients of a
    # λ = 2/3 product are never built as Fractions
    a, b = ab
    product = quasi_shuffle(te(a, b), te(b), Fraction(2, 3))
    built = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    lengths = grade_lengths(product)
    monkeypatch.undo()
    assert built == []
    assert product._den > 1
    assert lengths == {2, 3}


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
    assert repr(x) == "TensorElement(-[a b] + a.b + b.a)"


def test_equality_and_hash(ab):
    a, b = ab
    x = te(a, b) + te(b, a)
    y = te(b, a) + te(a, b)
    assert x == y and hash(x) == hash(y)
    assert x != x + te(a)


def test_from_word_stores_exact_coefficients_and_no_zero(ab):
    a, b = ab
    forms = ((1, int), (2, int), ("4/2", int), ("-1/3", Fraction), (Fraction(5, 2), Fraction))
    for coeff, form in forms:
        ((word, stored),) = (coeff * TensorElement.from_word([a, b])).iterterms()
        assert word == (a, b) and type(stored) is form and stored == Fraction(coeff)
        assert in_exact_form(stored)
    ((_, one),) = TensorElement.from_word([a]).iterterms()
    assert type(one) is int and one == 1
    assert 0 * TensorElement.from_word((a,)) == TensorElement.zero()
    assert not Fraction(0) * TensorElement.from_word((a,))
    with pytest.raises(TypeError):
        TensorElement.from_word(("a",))


def test_exact_puts_integral_scalars_in_int_form():
    for value in (3, Fraction(6, 2), "2/2", "-4", True):
        assert type(exact(value)) is int and exact(value) == Fraction(value)
    for value in (Fraction(1, 3), "-5/2", "0.5"):
        assert type(exact(value)) is Fraction and exact(value) == Fraction(value)


def test_floats_are_refused_and_exact_scalars_pass(ab):
    # a float's binary value is not the decimal it prints as: 0.1 would be
    # stored as 3602879701896397/36028797018963968
    a, _ = ab
    x = te(a)
    for build in (
        lambda: exact(0.1),
        lambda: quasi_shuffle(x, x, 0.1),
        lambda: 0.1 * x,
        lambda: TensorElement({(a,): 0.5}),
        lambda: VectorAlgebraElement([0.5]),
    ):
        with pytest.raises(TypeError, match=r'float.*Fraction\("0\.[15]"\)'):
            build()
    for value in ("2/3", 2, -1, Fraction(2, 3), Fraction(4, 2)):
        q = Fraction(value)
        assert exact(value) == q
        assert value * x == TensorElement({(a,): value}) == q * x
        assert quasi_shuffle(x, x, value) == mixed_shuffle((a,), (a,), q)
        assert VectorAlgebraElement([value, 1]).coords == (q, 1)


def test_sums_that_cancel_to_an_integer_store_an_int(ab):
    a, b = ab
    x = Fraction(1, 3) * te(a) + Fraction(2, 3) * te(a) + Fraction(1, 2) * te(b)
    assert dict(x.iterterms()) == {(a,): 1, (b,): Fraction(1, 2)}
    assert [type(c) for _, c in x.terms()] == [int, Fraction]
    built = TensorElement([((a,), "1/4"), ((a,), Fraction(3, 4)), ((b,), Fraction(1, 2))])
    assert built == x and all(in_exact_form(c) for _, c in built.iterterms())
    assert str(x) == "a + 1/2·b"


def test_scaling_to_an_integer_stores_an_int(ab):
    a, b = ab
    x = Fraction(3, 2) * (Fraction(2, 3) * te(a, b) + Fraction(4, 3) * te(b))
    assert dict(x.iterterms()) == {(a, b): 1, (b,): 2}
    assert all(type(c) is int for _, c in x.iterterms())
    assert -x == -1 * x and all(type(c) is int for _, c in (-x).iterterms())


@pytest.mark.parametrize("other", [1, Fraction(1, 2), VectorAlgebraElement([1, 2]), None])
def test_tensor_sums_refuse_a_non_element_operand(ab, other):
    # a scalar scales an element, but is not added to one: both sides of +
    # and - raise TypeError, not an AttributeError from inside the sum
    x = te(*ab)
    for combine in (
        lambda: x + other,
        lambda: other + x,
        lambda: x - other,
        lambda: other - x,
    ):
        with pytest.raises(TypeError):
            combine()


# coordinates that are zero, negative, integral, or over denominators that
# differ, so the shared denominator leaves some of them reducible
coordinates = st.lists(
    st.one_of(st.integers(-6, 6), st.fractions(min_value=-4, max_value=4, max_denominator=12)),
    max_size=5,
)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(coordinates, coordinates)
def test_vector_text_matches_the_fraction_reference(x, y):
    # the reference is VectorAlgebraElement.__str__ before it read the
    # integer numerators; sums, differences and products are reduced
    # through _reduced rather than the constructor
    v = VectorAlgebraElement(x)
    vectors = [v, -v]
    if len(x) == len(y):
        w = VectorAlgebraElement(y)
        vectors += [v + w, v - w, v * w]
    for u in vectors:
        reference = "(" + ", ".join(str(c) for c in u.coords) + ")"
        assert str(u) == repr(u) == reference


def test_text_writers_build_no_fraction(ab):
    # str and json_terms read the integer numerators over the shared
    # denominator, as a vector's str does
    a, b = ab
    x = quasi_shuffle(Fraction(1, 2) * te(a, b) - te(b), Fraction(-2, 3) * te(a), Fraction(2, 3))
    v = VectorAlgebraElement([Fraction(1, 2), 0, -3, Fraction(-5, 6)])
    assert x._den > 1 and v._den > 1
    original = Fraction.__new__
    built = []

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Fraction, "__new__", counting)
        texts = str(x), x.json_terms(), str(v)
    assert built == []
    assert texts[2] == "(1/2, 0, -3, -5/6)"
