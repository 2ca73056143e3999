"""The four shuffle-type products and the operator-deformed product."""

import inspect
import sys
import tracemalloc
from fractions import Fraction

import pytest

from nijalg import (
    DendriformContext,
    EmptyWordTermError,
    MONO_UNIT,
    TensorElement,
    aug_mod_quasi_shuffle,
    aug_quasi_shuffle,
    b_plus,
    gen,
    grade_lengths,
    mod_quasi_shuffle,
    mu_product,
    nijenhuis_torsion,
    quasi_shuffle,
    shuffle,
)
from nijalg.expr import eval_expr, parse_expr
from nijalg.oracle import mixed_shuffle, mod_quasi_shuffle_oracle
from nijalg.products import MAX_STORED_LETTERS, _mqsh, _qsh, clear_caches
from conftest import in_exact_form, product_memos, te, words_over

LAMBDAS = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2, 3))


def test_quasi_shuffle_letters(ab):
    a, b = ab
    for lam in LAMBDAS:
        assert quasi_shuffle(te(a), te(b), lam) == te(a, b) + te(b, a) - lam * te(a * b)


def test_quasi_shuffle_unit(ab):
    a, b = ab
    u = te(a, b) + 3 * te(b)
    assert quasi_shuffle(te(), u, 5) == u
    assert quasi_shuffle(u, te(), 5) == u


def test_quasi_shuffle_two_one():
    # hand-unrolled recursion for ab * c; also checked against the oracle
    a, b, c = gen("a"), gen("b"), gen("c")
    lam = Fraction(3, 7)
    expected = (
        te(a, b, c)
        + te(a, c, b)
        + te(c, a, b)
        - lam * te(a, b * c)
        - lam * te(a * c, b)
    )
    assert quasi_shuffle(te(a, b), te(c), lam) == expected


def test_shuffle_is_weight_zero(ab):
    a, b = ab
    assert shuffle(te(a), te(b)) == te(a, b) + te(b, a)
    for x, y in [((a,), (b, a)), ((a, b), (a, b)), ((b,), (a,))]:
        assert shuffle(te(*x), te(*y)) == quasi_shuffle(te(*x), te(*y), 0)


def test_shuffle_term_count_distinct_generators():
    a, b, c, d = (gen(g) for g in "abcd")
    result = shuffle(te(a, b), te(c, d))
    terms = result.terms()
    assert len(terms) == 6
    assert all(coeff == 1 for _, coeff in terms)
    assert shuffle(te(), te()) == te()


def test_aug_quasi_shuffle_examples(ab):
    a, b = ab
    c = gen("c")
    assert aug_quasi_shuffle(te(a), te(b), 1) == te(a * b)
    v = te(a, b, c)
    assert aug_quasi_shuffle(te(MONO_UNIT), v, 1) == v
    assert aug_quasi_shuffle(v, te(MONO_UNIT), 1) == v
    # merge of the heads e and b gives b; the remainder is a * 1 = a
    assert aug_quasi_shuffle(te(MONO_UNIT, a), te(b), 1) == te(b, a)


def test_aug_quasi_shuffle_rejects_empty_word_terms(ab):
    a, _ = ab
    with pytest.raises(EmptyWordTermError):
        aug_quasi_shuffle(te() + te(a), te(a), 1)
    with pytest.raises(EmptyWordTermError):
        aug_mod_quasi_shuffle(te(a), te())


def test_mod_quasi_shuffle_letters(ab):
    a, b = ab
    for lam in LAMBDAS:
        assert mod_quasi_shuffle(te(a), te(b), lam) == te(a, b) + te(b, a) - lam * te(
            MONO_UNIT, a * b
        )
    u = te(a, b)
    assert mod_quasi_shuffle(te(), u, 4) == u
    assert mod_quasi_shuffle(u, te(), 4) == u


def test_mod_quasi_shuffle_associativity_defect_formula():
    # the defect of ((a⊛b)⊛c − a⊛(b⊛c)) is (λ²-λ)·(e.c.[ab] − e.a.[bc]):
    # it vanishes exactly at λ = 0 (plain shuffle) and λ = 1
    a, b, c = gen("a"), gen("b"), gen("c")
    for lam in (Fraction(0), Fraction(1), Fraction(2), Fraction(-1), Fraction(5, 7)):
        lhs = mod_quasi_shuffle(mod_quasi_shuffle(te(a), te(b), lam), te(c), lam)
        rhs = mod_quasi_shuffle(te(a), mod_quasi_shuffle(te(b), te(c), lam), lam)
        expected = (lam * lam - lam) * (te(MONO_UNIT, c, a * b) - te(MONO_UNIT, a, b * c))
        assert lhs - rhs == expected


def test_aug_mod_quasi_shuffle_examples(ab):
    a, b = ab
    c = gen("c")
    assert aug_mod_quasi_shuffle(te(a), te(b)) == te(a * b)
    v = te(a, b, c) - 2 * te(b)
    assert aug_mod_quasi_shuffle(te(MONO_UNIT), v) == v
    assert aug_mod_quasi_shuffle(v, te(MONO_UNIT)) == v
    assert aug_mod_quasi_shuffle(te(a, b), te(c)) == te(a * c, b)


def test_commutativity_all_products(ab):
    for lam in LAMBDAS:
        for x, y in _pairs(ab, 5):
            ex, ey = te(*x), te(*y)
            assert quasi_shuffle(ex, ey, lam) == quasi_shuffle(ey, ex, lam)
            assert mod_quasi_shuffle(ex, ey, lam) == mod_quasi_shuffle(ey, ex, lam)
            if x and y:
                assert aug_quasi_shuffle(ex, ey, lam) == aug_quasi_shuffle(ey, ex, lam)
                assert aug_mod_quasi_shuffle(ex, ey) == aug_mod_quasi_shuffle(ey, ex)


def _pairs(gens, max_total, min_len=0):
    ws = words_over(gens, max_total, min_len)
    return [(x, y) for x in ws for y in ws if len(x) + len(y) <= max_total]


def _triples(gens, max_total, min_len=0):
    ws = words_over(gens, max_total, min_len)
    return [
        (x, y, z)
        for x in ws
        for y in ws
        if len(x) + len(y) <= max_total
        for z in ws
        if len(x) + len(y) + len(z) <= max_total
    ]


def test_associativity_small_sweep(ab):
    for lam in LAMBDAS:
        for x, y, z in _triples(ab, 4):
            ex, ey, ez = te(*x), te(*y), te(*z)
            assert quasi_shuffle(quasi_shuffle(ex, ey, lam), ez, lam) == quasi_shuffle(
                ex, quasi_shuffle(ey, ez, lam), lam
            )
        for x, y, z in _triples(ab, 4, 1):
            ex, ey, ez = te(*x), te(*y), te(*z)
            assert aug_quasi_shuffle(
                aug_quasi_shuffle(ex, ey, lam), ez, lam
            ) == aug_quasi_shuffle(ex, aug_quasi_shuffle(ey, ez, lam), lam)
            assert aug_mod_quasi_shuffle(
                aug_mod_quasi_shuffle(ex, ey), ez
            ) == aug_mod_quasi_shuffle(ex, aug_mod_quasi_shuffle(ey, ez))
    for x, y, z in _triples(ab, 4):
        ex, ey, ez = te(*x), te(*y), te(*z)
        assert mod_quasi_shuffle(mod_quasi_shuffle(ex, ey, 1), ez, 1) == mod_quasi_shuffle(
            ex, mod_quasi_shuffle(ey, ez, 1), 1
        )


def test_homogeneity(ab):
    for x, y in _pairs(ab, 5):
        result = mod_quasi_shuffle(te(*x), te(*y), Fraction(2, 3))
        assert grade_lengths(result) == {len(x) + len(y)}
    for x, y in _pairs(ab, 5, 1):
        result = aug_mod_quasi_shuffle(te(*x), te(*y))
        assert grade_lengths(result) == {len(x) + len(y) - 1}


def test_mu_product_trivial_operators(ab):
    a, b = ab
    x, y = te(a, b), te(b)
    mul = lambda u, v: quasi_shuffle(u, v, 1)
    assert mu_product(x, y, lambda v: v, mul) == mul(x, y)
    assert mu_product(x, y, lambda v: 0 * v, mul) == TensorElement.zero()
    assert nijenhuis_torsion(x, y, lambda v: v, mul) == TensorElement.zero()
    assert nijenhuis_torsion(x, y, lambda v: 0 * v, mul) == TensorElement.zero()


def test_torsion_vanishes_for_shift_operator(ab):
    for x, y in _pairs(ab, 4, 1):
        assert (
            nijenhuis_torsion(te(*x), te(*y), b_plus, aug_mod_quasi_shuffle)
            == TensorElement.zero()
        )


def test_memoized_products_are_stable(ab):
    a, b = ab
    first = quasi_shuffle(te(a, b), te(b, a), Fraction(1, 2))
    second = quasi_shuffle(te(a, b), te(b, a), Fraction(1, 2))
    assert first == second


@pytest.mark.parametrize("lam", [Fraction(2, 3), Fraction(-1, 2), 0, 1, -1])
def test_products_match_the_oracle_in_exact_form(ab, lam):
    # every coefficient is an integer count times a power of -λ, so at an
    # integral λ every one is stored as an int
    letters = list(ab) + [MONO_UNIT, ab[0] * ab[1]]
    for u in words_over(letters, 2):
        for v in words_over(letters, 2):
            for product, oracle in (
                (quasi_shuffle, mixed_shuffle),
                (mod_quasi_shuffle, mod_quasi_shuffle_oracle),
            ):
                result = product(te(*u), te(*v), lam)
                assert result == oracle(u, v, lam)
                coeffs = [coeff for _, coeff in result.iterterms()]
                assert all(in_exact_form(coeff) for coeff in coeffs)
                if Fraction(lam).denominator == 1:
                    assert all(type(coeff) is int for coeff in coeffs)


@pytest.mark.parametrize("lam", [0, 1, -1, Fraction(2, 3), Fraction(-1, 2)])
def test_memoized_terms_match_their_definitions(ab, lam):
    # every pair of nonempty words of total length at most 5 over a, b, [ab], e
    a, b = ab
    words = words_over((a, b, a * b, MONO_UNIT), 4, 1)
    ctx = DendriformContext(lam)
    for u in words:
        for v in words:
            if len(u) + len(v) > 5:
                continue
            x, y = te(*u), te(*v)
            prec, succ, bullet = ctx.prec(x, y), ctx.succ(x, y), ctx.bullet(x, y)
            assert prec == aug_quasi_shuffle(x, b_plus(y), lam)
            assert succ == aug_quasi_shuffle(b_plus(x), y, lam)
            assert prec + succ + bullet == quasi_shuffle(x, y, lam) == mixed_shuffle(u, v, lam)
            if lam == 1:  # ⊠ fixes λ = 1
                head = u[0] * v[0]
                assert aug_mod_quasi_shuffle(x, y) == mod_quasi_shuffle_oracle(
                    u[1:], v[1:], 1
                ).prepend(head)


def test_clear_caches_empties_every_memo(ab):
    # the memos are discovered, not listed, so one that no operation fills
    # or that clear_caches misses fails here
    memos = product_memos()
    assert len(memos) == 5
    assert any(memo is _qsh for memo in memos) and any(memo is _mqsh for memo in memos)
    a, b = ab
    x, y = te(a, b), te(b, a, a)
    ctx = DendriformContext(Fraction(2, 3))
    clear_caches()
    for operation in (ctx.prec, ctx.succ, ctx.bullet, aug_mod_quasi_shuffle):
        operation(x, y)
    assert all(memo.cache_info().currsize for memo in memos)
    clear_caches()
    cleared = {"hits": 0, "misses": 0, "currsize": 0}
    assert [vars(memo.cache_info()) for memo in memos] == [cleared] * len(memos)


def test_bilinear_weights_that_multiply_to_an_integer_store_ints(ab):
    a, b = ab
    c = gen("c")
    # weight 1 on a single word pair: the cached word product itself
    assert quasi_shuffle(Fraction(2, 3) * te(a), Fraction(3, 2) * te(b)) is quasi_shuffle(
        te(a), te(b)
    )
    doubled = mod_quasi_shuffle(Fraction(4, 3) * te(a), Fraction(3, 2) * te(b))
    assert doubled == 2 * mod_quasi_shuffle(te(a), te(b))
    assert all(type(coeff) is int for _, coeff in doubled.iterterms())
    x = Fraction(2, 3) * te(a) + Fraction(3, 4) * te(b)
    mixed = quasi_shuffle(x, Fraction(3, 2) * te(c))
    assert mixed == quasi_shuffle(te(a), te(c)) + Fraction(9, 8) * quasi_shuffle(te(b), te(c))
    assert {word: type(coeff) for word, coeff in mixed.iterterms()} == {
        (a, c): int, (c, a): int, (a * c,): int,
        (b, c): Fraction, (c, b): Fraction, (b * c,): Fraction,
    }


def test_every_form_of_an_integral_lambda_is_one_cache_entry(ab):
    a, b = ab
    x, y = te(a, b), te(b, a)

    def pinned(element):
        return str(element), [(word, repr(coeff)) for word, coeff in element.terms()]

    clear_caches()
    first = quasi_shuffle(x, y, 1)
    evaluated = pinned(eval_expr(parse_expr("a.b * b.a - 1/2 a.b # b.a"), 1))
    entries = _qsh.cache_info().currsize
    for lam in (1, Fraction(1), "1", "2/2"):
        # a word pair of weight 1 returns its cached product itself
        assert quasi_shuffle(x, y, lam) is first
        assert pinned(eval_expr(parse_expr("a.b * b.a - 1/2 a.b # b.a"), lam)) == evaluated
    assert _qsh.cache_info().currsize == entries
    assert all(type(coeff) is int for _, coeff in first.iterterms())


def test_every_form_of_a_rational_lambda_is_one_cache_entry(ab):
    # the memos key a rational λ by its integer pair, whatever form it came in
    a, b = ab
    x, y = te(a, b), te(b, a)
    clear_caches()
    first = quasi_shuffle(x, y, Fraction(2, 3))
    entries = _qsh.cache_info().currsize
    for lam in (Fraction(2, 3), "2/3", "4/6", Fraction(4, 6)):
        assert quasi_shuffle(x, y, lam) is first
    assert _qsh.cache_info().currsize == entries
    assert first == mixed_shuffle((a, b), (b, a), Fraction(2, 3))


def test_products_at_a_rational_lambda_hash_no_fraction(ab, monkeypatch):
    # the word memos key λ = 2/3 by its integer pair and the elements hold
    # integer numerators, so no Fraction is hashed on cleared caches
    a, b = ab
    hashed = []
    original = Fraction.__hash__

    def counting(self):
        hashed.append(self)
        return original(self)

    lam = Fraction(2, 3)
    x = te(a, b) + Fraction(1, 2) * te(b)
    y = te(b, a, a) - Fraction(3, 4) * te(a * b)
    ctx = DendriformContext(lam)
    operations = (
        lambda u, v: quasi_shuffle(u, v, lam),
        lambda u, v: mod_quasi_shuffle(u, v, lam),
        lambda u, v: aug_quasi_shuffle(u, v, lam),
        ctx.prec,
        ctx.succ,
        ctx.bullet,
    )
    clear_caches()
    monkeypatch.setattr(Fraction, "__hash__", counting)
    results = [operation(x, y) for operation in operations]
    monkeypatch.undo()
    assert hashed == []
    assert all(result._den > 1 for result in results)
    assert results[0] == results[3] + results[4] + results[5]


def _traced_peak(fn, *args):
    """``fn(*args)`` and the peak of memory traced while it ran, in bytes."""
    clear_caches()
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_long_products_keep_their_rows_along_the_shorter_word(ab):
    # 151 letters are past MAX_STORED_LETTERS, so the loop keeps two rows;
    # a row along the 150-letter word would hold 151 suffix products of up
    # to 301 long words at once
    a, b = ab
    short, long = te(b), te(*(a,) * 150)
    lam = Fraction(2, 3)
    for product, oracle in (
        (quasi_shuffle, mixed_shuffle),
        (mod_quasi_shuffle, mod_quasi_shuffle_oracle),
    ):
        long_short, long_short_peak = _traced_peak(product, long, short, lam)
        short_long, short_long_peak = _traced_peak(product, short, long, lam)
        assert short_long == long_short == oracle((b,), (a,) * 150, lam)
        assert short_long_peak <= 2 * long_short_peak


def test_no_product_recurses(ab):
    # pairs at the store threshold fill their memo grids, and a longer pair
    # its two scratch rows, in one loop: a few frames whatever the length
    a, b = ab
    lam = Fraction(2, 3)
    at_threshold = (a,) * (MAX_STORED_LETTERS - 1)
    pair = (at_threshold, (b,))
    cases = [
        (quasi_shuffle, pair, mixed_shuffle(*pair, lam)),
        (mod_quasi_shuffle, pair, mod_quasi_shuffle_oracle(*pair, lam)),
        (
            aug_quasi_shuffle,
            (at_threshold, (b, b)),
            mixed_shuffle(at_threshold[1:], (b,), lam).prepend(a * b),
        ),
        (quasi_shuffle, ((a,) * 150, (b,)), mixed_shuffle((a,) * 150, (b,), lam)),
    ]
    clear_caches()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 60)
    try:
        results = [product(te(*u), te(*v), lam) for product, (u, v), _ in cases]
    finally:
        sys.setrecursionlimit(limit)
    assert results == [oracle for _, _, oracle in cases]


@pytest.mark.parametrize("lam", [0, 1, Fraction(2, 3)])
@pytest.mark.parametrize("product, memo", [(quasi_shuffle, _qsh), (mod_quasi_shuffle, _mqsh)])
def test_a_partly_stored_grid_computes_only_its_missing_cells(ab, product, memo, lam):
    a, b = ab
    c = gen("c")
    u, v = (b, c), (a, b, a)
    oracle = mixed_shuffle if product is quasi_shuffle else mod_quasi_shuffle_oracle
    clear_caches()
    product(te(*u), te(*v), lam)
    before = memo.cache_info()
    longer = product(te(a, *u), te(*v), lam)
    after = memo.cache_info()
    # one new row: aU paired with each of the |V| + 1 suffixes of V
    assert after.currsize - before.currsize == len(v) + 1
    assert (after.misses - before.misses, after.hits) == (1, before.hits)
    clear_caches()
    assert longer == product(te(a, *u), te(*v), lam) == oracle((a, *u), v, lam)


def test_a_stored_unit_product_stands_for_no_other_pair(ab):
    # 1 × V is stored alone, without 1 × (each suffix of V); a product whose
    # grid reaches the empty word's row must not take it for that row
    a, b = ab
    v = (b, a, b)
    clear_caches()
    quasi_shuffle(te(), te(*v), 2)
    before = _qsh.cache_info()
    product = quasi_shuffle(te(a), te(*v), 2)
    assert _qsh.cache_info().misses == before.misses + 1
    assert product == mixed_shuffle((a,), v, 2)
