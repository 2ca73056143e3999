"""Property-based differential tests of the recursive products.

Random words mix multi-generator letters, powers and the unit letter e, at
random rational weights.  The references are the non-recursive oracle
(`oracle.py`) and the B⁺ forms that define the dendriform operations.
Every test is derandomized, so a run always draws the same examples.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from nijalg import (
    DendriformContext,
    MONO_UNIT,
    Monomial,
    TensorElement,
    aug_mod_quasi_shuffle,
    aug_quasi_shuffle,
    b_minus,
    b_plus,
    mixed_shuffle,
    mod_quasi_shuffle,
    mod_quasi_shuffle_oracle,
    quasi_shuffle,
)
from nijalg import products
from conftest import in_exact_form, product_memos

SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=150)

letters = st.one_of(
    st.just(MONO_UNIT),
    st.dictionaries(st.sampled_from("abc"), st.integers(1, 2), min_size=1, max_size=2).map(
        Monomial
    ),
)
words = st.lists(letters, max_size=3).map(tuple)
nonempty_words = st.lists(letters, min_size=1, max_size=3).map(tuple)
weights = st.fractions(min_value=-3, max_value=3, max_denominator=5)
coeffs = st.one_of(st.integers(-3, 3), st.fractions(min_value=-2, max_value=2, max_denominator=4))
augmented = st.lists(st.tuples(nonempty_words, coeffs), min_size=1, max_size=3).map(TensorElement)


def te(word):
    return TensorElement.from_word(word)


@SETTINGS
@given(words, words, weights)
def test_quasi_shuffles_match_the_oracle(u, v, lam):
    assert quasi_shuffle(te(u), te(v), lam) == mixed_shuffle(u, v, lam)
    assert mod_quasi_shuffle(te(u), te(v), lam) == mod_quasi_shuffle_oracle(u, v, lam)


@SETTINGS
@given(nonempty_words, nonempty_words, weights)
def test_augmented_products_are_head_merged_oracle_products(u, v, lam):
    head = u[0] * v[0]
    assert aug_quasi_shuffle(te(u), te(v), lam) == mixed_shuffle(u[1:], v[1:], lam).prepend(head)
    assert aug_mod_quasi_shuffle(te(u), te(v)) == mod_quasi_shuffle_oracle(
        u[1:], v[1:], 1
    ).prepend(head)


@SETTINGS
@given(augmented, augmented, weights)
def test_dendriform_operations_match_their_head_forms(x, y, lam):
    # the operations read the recursion's head-letter terms; the B⁺ forms
    # define them
    ctx = DendriformContext(lam)
    assert ctx.prec(x, y) == aug_quasi_shuffle(x, b_plus(y), lam)
    assert ctx.succ(x, y) == aug_quasi_shuffle(b_plus(x), y, lam)
    assert ctx.bullet(x, y) == -ctx.lam * aug_quasi_shuffle(x, y, lam)
    # the quasi-shuffle commutes, so its split mirrors: x ≻ y = y ≺ x
    assert ctx.succ(x, y) == ctx.prec(y, x)


def _naive_sum(terms):
    total = {}
    for key, coeff in terms:
        total[key] = total.get(key, 0) + Fraction(coeff)
    return {key: coeff for key, coeff in total.items() if coeff}


@SETTINGS
@given(st.lists(st.tuples(words, coeffs), max_size=6), st.data())
def test_constructor_drops_cancelled_terms(terms, data):
    cancelling = data.draw(st.lists(st.sampled_from(terms), max_size=len(terms))) if terms else []
    terms = terms + [(word, -Fraction(coeff)) for word, coeff in cancelling]
    terms = data.draw(st.permutations(terms))
    element = TensorElement(terms)
    stored = dict(element.iterterms())
    assert all(in_exact_form(coeff) for coeff in stored.values())
    assert stored == _naive_sum(terms)


elements = st.lists(st.tuples(words, coeffs), min_size=2, max_size=3).map(TensorElement)


def _oracle_sum(x, y, word_product):
    return sum(
        (c1 * c2 * word_product(w1, w2) for w1, c1 in x.iterterms() for w2, c2 in y.iterterms()),
        TensorElement.zero(),
    )


def _head_merged(oracle, lam):
    return lambda w1, w2: oracle(w1[1:], w2[1:], lam).prepend(w1[0] * w2[0])


@SETTINGS
@given(elements, elements, augmented, augmented, weights)
def test_products_of_linear_combinations_match_the_oracle(x, y, xa, ya, lam):
    results = [
        (quasi_shuffle(x, y, lam), _oracle_sum(x, y, lambda u, v: mixed_shuffle(u, v, lam))),
        (
            mod_quasi_shuffle(x, y, lam),
            _oracle_sum(x, y, lambda u, v: mod_quasi_shuffle_oracle(u, v, lam)),
        ),
        (aug_quasi_shuffle(xa, ya, lam), _oracle_sum(xa, ya, _head_merged(mixed_shuffle, lam))),
        (
            aug_mod_quasi_shuffle(xa, ya),
            _oracle_sum(xa, ya, _head_merged(mod_quasi_shuffle_oracle, 1)),
        ),
    ]
    for product, oracle in results:
        assert product == oracle
        # an int exactly where the coefficient is integral
        assert all(in_exact_form(coeff) for _, coeff in product.iterterms())


def assert_canonical(x):
    """Integer numerators, none zero, over a positive denominator in lowest
    terms; the zero element over 1."""
    numerators = list(x._terms.values())
    assert type(x._den) is int and x._den >= 1
    assert all(type(n) is int and n for n in numerators)
    assert gcd(x._den, *numerators) == 1
    assert numerators or x._den == 1


def _reference_products(rx, ry, oracle):
    """The bilinear extension of ``oracle`` to two Fraction-dict elements,
    summed as Fractions."""
    return _naive_sum(
        (w, c1 * c2 * c)
        for w1, c1 in rx.items()
        for w2, c2 in ry.items()
        for w, c in oracle(w1, w2).iterterms()
    )


augmented_terms = st.lists(st.tuples(nonempty_words, coeffs), max_size=4)


@SETTINGS
@given(augmented_terms, augmented_terms, coeffs, weights)
def test_every_operation_keeps_the_canonical_form(xs, ys, c, lam):
    # each result against a reference summed over plain Fraction dicts
    x, y = TensorElement(xs), TensorElement(ys)
    rx, ry = _naive_sum(xs), _naive_sum(ys)
    head = MONO_UNIT
    cases = [
        (x, rx),
        (x + y, _naive_sum([*rx.items(), *ry.items()])),
        (x - y, _naive_sum([*rx.items(), *((w, -v) for w, v in ry.items())])),
        (-x, {w: -v for w, v in rx.items()}),
        (c * x, _naive_sum((w, c * v) for w, v in rx.items())),
        (x.prepend(head), {(head, *w): v for w, v in rx.items()}),
        (b_minus(x), _naive_sum((w[1:], v) for w, v in rx.items())),
        (
            quasi_shuffle(x, y, lam),
            _reference_products(rx, ry, lambda u, v: mixed_shuffle(u, v, lam)),
        ),
        (
            mod_quasi_shuffle(x, y, lam),
            _reference_products(rx, ry, lambda u, v: mod_quasi_shuffle_oracle(u, v, lam)),
        ),
        (
            aug_quasi_shuffle(x, y, lam),
            _reference_products(rx, ry, _head_merged(mixed_shuffle, lam)),
        ),
        (
            aug_mod_quasi_shuffle(x, y),
            _reference_products(rx, ry, _head_merged(mod_quasi_shuffle_oracle, 1)),
        ),
    ]
    for element, reference in cases:
        assert_canonical(element)
        assert dict(element.iterterms()) == reference
        assert all(in_exact_form(coeff) for _, coeff in element.iterterms())
        # built another way, from its Fraction coefficients
        rebuilt = TensorElement(reference)
        assert rebuilt == element and hash(rebuilt) == hash(element)
    assert (x + y) - y == x and hash((x + y) - y) == hash(x)


@SETTINGS
@given(elements, elements, st.booleans())
def test_subtraction_adds_the_negation(x, y, same):
    if same:
        y = TensorElement(x.iterterms())
    difference = x - y
    assert difference == x + (-y)
    assert all(in_exact_form(coeff) for _, coeff in difference.iterterms())
    assert (not difference) == (x == y)


@SETTINGS
@given(words, words, weights)
def test_shared_products_are_never_written(u, v, lam):
    r = quasi_shuffle(te(u), te(v), lam)
    assert quasi_shuffle(te(u), te(v), lam) is r  # the cached element itself
    before = dict(r.iterterms())
    for derived in (r + r, r - r, -r, 2 * r, r * Fraction(1, 3)):
        assert derived is not r
    assert quasi_shuffle(r, 2 * te(()), lam) == 2 * r
    assert dict(r.iterterms()) == before
    assert r == mixed_shuffle(u, v, lam)
    products.clear_caches()
    assert quasi_shuffle(te(u), te(v), lam) == r


def _four_products(u, v, lam):
    x, y = te(u), te(v)
    return [
        quasi_shuffle(x, y, lam),
        mod_quasi_shuffle(x, y, lam),
        aug_quasi_shuffle(x, y, lam),
        aug_mod_quasi_shuffle(x, y),
    ]


def _splits(u, v, lam):
    """≺ and ≻ of two words, which read the memoized terms ⊡ and ⊠ do not."""
    ctx = DendriformContext(lam)
    return [ctx.prec(te(u), te(v)), ctx.succ(te(u), te(v))]


@SETTINGS
@given(st.lists(letters, min_size=1, max_size=5).map(tuple), nonempty_words, weights)
def test_unstored_products_match_the_stored_ones(u, v, lam):
    # the same loop, once filling the memos and once keeping two scratch
    # rows, as it does past MAX_STORED_LETTERS
    stored = _four_products(u, v, lam)
    splits = _splits(u, v, lam)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(products, "MAX_STORED_LETTERS", 0)
        products.clear_caches()
        unstored = _four_products(u, v, lam)
        unstored_splits = _splits(u, v, lam)
        for memo in product_memos():
            assert memo.cache_info().currsize == 0
    assert unstored_splits == splits
    assert unstored == stored
    head = u[0] * v[0]
    assert unstored == [
        mixed_shuffle(u, v, lam),
        mod_quasi_shuffle_oracle(u, v, lam),
        mixed_shuffle(u[1:], v[1:], lam).prepend(head),
        mod_quasi_shuffle_oracle(u[1:], v[1:], 1).prepend(head),
    ]
