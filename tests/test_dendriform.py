"""Dendriform dialgebra and trialgebra splittings."""

from fractions import Fraction

import pytest

from nijalg import (
    DendriformContext,
    EmptyWordTermError,
    TensorElement,
    aug_quasi_shuffle,
    b_plus,
    dialgebra_defects,
    gen,
    omega_prec,
    omega_succ,
    quasi_shuffle,
    trialgebra_defects,
)
from nijalg import products
from conftest import product_memos, te, words_over

ZERO = TensorElement.zero()


def _aug_pairs(gens, max_total):
    ws = words_over(gens, max_total, 1)
    return [(x, y) for x in ws for y in ws if len(x) + len(y) <= max_total]


def _aug_triples(gens, max_total):
    ws = words_over(gens, max_total, 1)
    return [
        (x, y, z)
        for x in ws
        for y in ws
        if len(x) + len(y) < max_total
        for z in ws
        if len(x) + len(y) + len(z) <= max_total
    ]


def test_prec_examples(ab):
    a, b = ab
    c = gen("c")
    ctx = DendriformContext(Fraction(5, 7))
    assert ctx.prec(te(a), te(b)) == te(a, b)
    lam = ctx.lam
    assert ctx.prec(te(a, b), te(c)) == te(a, b, c) + te(a, c, b) - lam * te(a, b * c)


@pytest.mark.parametrize("lam", [0, 1, -1, Fraction(2, 3)])
def test_succ_examples(ab, lam):
    a, b = ab
    ctx = DendriformContext(lam)
    assert ctx.succ(te(a), te(b)) == te(b, a)
    for x, y in _aug_pairs(ab, 5):
        assert ctx.succ(te(*x), te(*y)) == ctx.prec(te(*y), te(*x))


def _b_plus_forms(ctx, x, y):
    """x ⊡ B⁺(y), B⁺(x) ⊡ y and −λ·(x ⊡ y): the definitions of ≺, ≻ and •."""
    lam = ctx.lam
    return (
        aug_quasi_shuffle(x, b_plus(y), lam),
        aug_quasi_shuffle(b_plus(x), y, lam),
        -lam * aug_quasi_shuffle(x, y, lam),
    )


def test_head_forms_agree(ab):
    # the operations read the recursion's head-letter terms; the B⁺ forms
    # define them
    for lam in (Fraction(0), Fraction(1), Fraction(-1)):
        ctx = DendriformContext(lam)
        for x, y in _aug_pairs(ab, 5):
            ex, ey = te(*x), te(*y)
            operations = (ctx.prec(ex, ey), ctx.succ(ex, ey), ctx.bullet(ex, ey))
            assert operations == _b_plus_forms(ctx, ex, ey)


def test_head_forms_of_long_words_do_not_recurse(ab):
    # ≺ and ≻ multiply the 350-letter word, or its tail, by a short word;
    # a pair past MAX_STORED_LETTERS is computed in two scratch rows and
    # stored in no memo
    a, b = ab
    long = te(*(a,) * 350)
    ctx = DendriformContext(1)
    products.clear_caches()
    prec, succ = ctx.prec(long, te(b)), ctx.succ(long, te(b, b))
    for memo in product_memos():
        assert memo.cache_info().currsize == 0
    assert prec == aug_quasi_shuffle(long, b_plus(te(b)))
    assert succ == aug_quasi_shuffle(b_plus(long), te(b, b))


def test_bullet_conventions(ab):
    a, b = ab
    assert DendriformContext(1).bullet(te(a), te(b)) == -te(a * b)
    assert DendriformContext(0).bullet(te(a), te(b)) == ZERO
    for lam in (Fraction(1), Fraction(-1), Fraction(2, 3)):
        ctx = DendriformContext(lam)
        for x, y in _aug_pairs(ab, 4):
            assert ctx.bullet(te(*x), te(*y)) == -lam * aug_quasi_shuffle(te(*x), te(*y), lam)


def test_splitting_sums_to_quasi_shuffle(ab):
    for lam in (Fraction(0), Fraction(1), Fraction(-1)):
        ctx = DendriformContext(lam)
        for x, y in _aug_pairs(ab, 5):
            assert ctx.star(te(*x), te(*y)) == quasi_shuffle(te(*x), te(*y), lam)


def test_dialgebra_axioms_weight_zero(ab):
    ctx = DendriformContext(0)
    a, b = ab
    c = gen("c")
    assert dialgebra_defects(ctx, te(a), te(b), te(c)) == (ZERO, ZERO, ZERO)
    for x, y, z in _aug_triples(ab, 5):
        assert dialgebra_defects(ctx, te(*x), te(*y), te(*z)) == (ZERO, ZERO, ZERO)


def test_dialgebra_axioms_fail_without_bullet_at_weight_one(ab):
    # dropping • at λ = 1 must break the dialgebra axioms at small length
    ctx = DendriformContext(1)
    found = any(
        any(d for d in dialgebra_defects(ctx, te(*x), te(*y), te(*z)))
        for x, y, z in _aug_triples(ab, 4)
    )
    assert found


def test_trialgebra_axioms(ab):
    a, b = ab
    c = gen("c")
    ctx = DendriformContext(1)
    assert all(
        d == ZERO for d in trialgebra_defects(ctx, te(a), te(b), te(c))
    )
    for lam in (Fraction(1), Fraction(-1), Fraction(2, 3)):
        ctx = DendriformContext(lam)
        for x, y, z in _aug_triples(ab, 5):
            assert all(
                d == ZERO for d in trialgebra_defects(ctx, te(*x), te(*y), te(*z))
            )


def test_trialgebra_reduces_to_dialgebra_at_weight_zero(ab):
    ctx = DendriformContext(0)
    for x, y, z in _aug_triples(ab, 4):
        defects = trialgebra_defects(ctx, te(*x), te(*y), te(*z))
        assert all(d == ZERO for d in defects[3:])  # every bullet term vanishes


def test_omega_identities(ab):
    a, b = ab
    c = gen("c")
    assert omega_prec((a,)) == te(a)
    assert omega_prec((a, b, c)) == te(a, b, c)
    assert omega_succ((a, b, c)) == te(a, b, c)
    for w in words_over(ab, 5, 1):
        assert omega_prec(w) == te(*w)
        assert omega_succ(w) == te(*w)
    with pytest.raises(EmptyWordTermError):
        omega_prec(())


def test_augmentation_guard(ab):
    a, _ = ab
    ctx = DendriformContext(1)
    with pytest.raises(EmptyWordTermError):
        ctx.prec(te() + te(a), te(a))
    with pytest.raises(EmptyWordTermError):
        ctx.bullet(te(a), te())
