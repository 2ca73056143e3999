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
    dialgebra_defects,
    mixed_shuffle,
    mod_quasi_shuffle,
    mod_quasi_shuffle_oracle,
    quasi_shuffle,
    trialgebra_defects,
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
    # the B⁺ forms define the operations; ≻ is computed as y ⊡ B⁺(x), so
    # its defining form B⁺(x) ⊡ y checks it
    ctx = DendriformContext(lam)
    assert ctx.prec(x, y) == aug_quasi_shuffle(x, b_plus(y), lam)
    assert ctx.succ(x, y) == aug_quasi_shuffle(b_plus(x), y, lam)
    assert ctx.bullet(x, y) == -ctx.lam * aug_quasi_shuffle(x, y, lam)
    # the quasi-shuffle commutes, so its split mirrors: x ≻ y = y ≺ x
    assert ctx.succ(x, y) == ctx.prec(y, x)


# The axiom defects as written before the shared subterms were computed once,
# copied verbatim: each reads its operations from ``ctx`` and ⋆ from ``ctx.star``.


def literal_dialgebra_defects(ctx: DendriformContext, x, y, z):
    """The three dendriform dialgebra axiom defects (for the λ = 0 split)."""
    p, s = ctx.prec, ctx.succ

    def both(u, v):
        return p(u, v) + s(u, v)

    return (
        p(p(x, y), z) - p(x, both(y, z)),
        p(s(x, y), z) - s(x, p(y, z)),
        s(x, s(y, z)) - s(both(x, y), z),
    )


def literal_trialgebra_defects(ctx: DendriformContext, x, y, z):
    """The seven tridendriform axiom defects with ⋆ = ≺ + ≻ + •."""
    p, s, b, star = ctx.prec, ctx.succ, ctx.bullet, ctx.star
    return (
        p(p(x, y), z) - p(x, star(y, z)),
        p(s(x, y), z) - s(x, p(y, z)),
        s(x, s(y, z)) - s(star(x, y), z),
        b(s(x, y), z) - s(x, b(y, z)),
        b(p(x, y), z) - b(x, s(y, z)),
        p(b(x, y), z) - b(x, p(y, z)),
        b(b(x, y), z) - b(x, b(y, z)),
    )


class SuccIsPrec(DendriformContext):
    """A mutant split whose ≻ is ≺: most axioms fail, and ⋆ changes too."""

    succ = DendriformContext.prec


short_words = st.lists(letters, min_size=1, max_size=2).map(tuple)
multi_term = (
    st.lists(st.tuples(short_words, coeffs), min_size=2, max_size=3)
    .map(TensorElement)
    .filter(lambda x: len(x.terms()) > 1)
)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(
    multi_term,
    multi_term,
    multi_term,
    st.sampled_from([0, 1, -1, Fraction(2, 3)]),
    st.sampled_from([DendriformContext, SuccIsPrec]),
)
def test_axiom_defects_match_the_literal_axioms(x, y, z, lam, split):
    # the defect functions compute each operation of (x, y) and of (y, z)
    # once and sum ⋆ from them; the literal axioms recompute every one
    ctx = split(lam)
    assert trialgebra_defects(ctx, x, y, z) == literal_trialgebra_defects(ctx, x, y, z)
    assert dialgebra_defects(ctx, x, y, z) == literal_dialgebra_defects(ctx, x, y, z)


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
    """≺ and ≻ of two words, which read ⊡'s head memo at pairs ⊡ itself does not."""
    ctx = DendriformContext(lam)
    return [ctx.prec(te(u), te(v)), ctx.succ(te(u), te(v))]


@SETTINGS
@given(st.lists(letters, min_size=1, max_size=5).map(tuple), nonempty_words, weights)
def test_unstored_products_match_the_stored_ones(u, v, lam):
    # the same loop, once filling the memos and once touching no dict, as
    # it does past MAX_STORED_LETTERS
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


def _six_operations(lam):
    """*, ⊛, ⊡, ⊠, ≺ and ≻ at weight λ, each with the oracle form of its
    value on two words."""
    ctx = DendriformContext(lam)
    return [
        (lambda x, y: quasi_shuffle(x, y, lam), lambda u, v: mixed_shuffle(u, v, lam)),
        (
            lambda x, y: mod_quasi_shuffle(x, y, lam),
            lambda u, v: mod_quasi_shuffle_oracle(u, v, lam),
        ),
        (
            lambda x, y: aug_quasi_shuffle(x, y, lam),
            lambda u, v: mixed_shuffle(u[1:], v[1:], lam).prepend(u[0] * v[0]),
        ),
        (
            aug_mod_quasi_shuffle,
            lambda u, v: mod_quasi_shuffle_oracle(u[1:], v[1:], 1).prepend(u[0] * v[0]),
        ),
        (ctx.prec, lambda u, v: mixed_shuffle(u[1:], v, lam).prepend(u[0])),
        (ctx.succ, lambda u, v: mixed_shuffle(u, v[1:], lam).prepend(v[0])),
    ]


@SETTINGS
@given(nonempty_words, nonempty_words, st.sampled_from([0, 1, -1, Fraction(2, 3)]), st.data())
def test_products_do_not_depend_on_what_the_memos_hold(u, v, lam, data):
    # earlier products leave any mix of cells in the memos: unit pairs,
    # prefix and suffix pairs, and the ⊡ and ⊠ head terms, which ≺ and ≻
    # read too and which pass their pairs to the row loop without a
    # top-level read
    operations = _six_operations(lam)
    products.clear_caches()
    cold = [operation(te(u), te(v)) for operation, _ in operations]
    pieces = [w[:k] for w in (u, v) for k in range(len(w) + 1)]
    pieces += [w[k:] for w in (u, v) for k in range(len(w) + 1)]
    nonempty = [w for w in pieces if w]
    earlier = st.one_of(
        st.tuples(st.sampled_from(range(2)), st.sampled_from(pieces), st.sampled_from(pieces)),
        st.tuples(st.sampled_from(range(2, 5)), st.sampled_from(nonempty), st.sampled_from(nonempty)),
    )
    products.clear_caches()
    for k, x, y in data.draw(st.lists(earlier, max_size=8)):
        operations[k][0](te(x), te(y))
    for (operation, oracle), expected in zip(operations, cold):
        misses = sum(memo.cache_info().misses for memo in product_memos())
        assert operation(te(u), te(v)) == expected == oracle(u, v)
        assert sum(memo.cache_info().misses for memo in product_memos()) - misses <= 1


# words with at least one unit letter e, whose merges [ab] can meet the
# letters a and b themselves and cancel against them
words_with_e = st.tuples(st.lists(letters, max_size=3), st.integers(0, 3)).map(
    lambda drawn: tuple(drawn[0][: drawn[1]] + [MONO_UNIT] + drawn[0][drawn[1] :])
)
# λ = p/q with q > 1 and either sign of p: every grid cell has a denominator
proper_fractions = st.tuples(
    st.integers(-4, 4).filter(bool), st.integers(2, 5)
).map(lambda pq: Fraction(*pq)).filter(lambda lam: lam.denominator > 1)


@SETTINGS
@given(words_with_e, words_with_e, proper_fractions)
def test_every_stored_grid_cell_is_canonical_and_matches_the_oracle(u, v, lam):
    # the cells inside each grid, not only its top result: every value the
    # memos hold is in lowest terms and equals the oracle product of its key
    oracles = {id(products._qsh): mixed_shuffle, id(products._mqsh): mod_quasi_shuffle_oracle}
    products.clear_caches()
    quasi_shuffle(te(u), te(v), lam)
    mod_quasi_shuffle(te(u), te(v), lam)
    cells = 0
    for memo in product_memos():
        oracle = oracles.get(id(memo))
        if oracle is None:  # the ⊡ and ⊠ head terms, which neither product reads
            assert not memo
            continue
        for (w1, w2, p, q), cell in memo.items():
            assert (p, q) == (lam.numerator, lam.denominator)
            assert_canonical(cell)
            assert cell == oracle(w1, w2, lam)
            cells += 1
    assert cells == 2 * len(u) * len(v)  # every nonempty suffix pair, once per product
