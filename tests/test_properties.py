"""Property-based differential tests of the recursive products.

Random words mix multi-generator letters, powers and the unit letter e, at
random rational weights.  The references are the non-recursive oracle
(`oracle.py`) and the dendriform head-letter forms.  Every test is
derandomized, so a run always draws the same examples.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from nijalg import (
    BaseElement,
    DendriformContext,
    MONO_UNIT,
    Monomial,
    TensorElement,
    aug_mod_quasi_shuffle,
    aug_quasi_shuffle,
    mixed_shuffle,
    mod_quasi_shuffle,
    mod_quasi_shuffle_oracle,
    quasi_shuffle,
)
from nijalg.dendriform import LITERAL

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
@given(augmented, augmented, weights, st.booleans())
def test_dendriform_operations_match_their_head_forms(x, y, lam, literal):
    ctx = DendriformContext(lam, LITERAL) if literal else DendriformContext(lam)
    assert ctx.prec(x, y) == ctx.prec_head_form(x, y)
    assert ctx.succ(x, y) == ctx.succ_head_form(x, y)
    assert ctx.bullet(x, y) == ctx.bullet_head_form(x, y)


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
    for cls, items in (
        (TensorElement, terms),
        (BaseElement, [(word[0] if word else MONO_UNIT, coeff) for word, coeff in terms]),
    ):
        element = cls(items)
        stored = dict(element.iterterms())
        assert all(type(coeff) is Fraction and coeff for coeff in stored.values())
        assert stored == _naive_sum(items)
