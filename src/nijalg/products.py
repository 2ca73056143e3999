"""The four shuffle-type products and the operator-deformed product.

All four products are defined on basis words by recursion and extended
bilinearly.  The quasi-shuffle * and the modified quasi-shuffle ⊛ share one
memoized word recursion, which differs between them only in the letters
written before a merged letter [ab]: none for *, the unit letter e for ⊛.
Each cache is keyed by (word, word, lambda) and never changes results;
λ enters as an ``int`` when it is integral, however it was given (1,
Fraction(1), "2/2"), and otherwise as the int pair (p, q) of λ = p/q in
lowest terms (Fraction(2, 3), "4/6"), so no ``Fraction`` is hashed.  The
elements hold integer numerators over a shared denominator, and the merge
term is scaled by p/q in ints: every product runs on ints.  Three one-step
terms of aU ∘ bV are memoized the same way and read through
``_term_product``: ``head`` [ab](U ∘ V) beside each recursion ∘, read by
⊡, the dendriform • and ⊠, and ``_qsh.lead`` a(U * bV), read by ≺ and,
with its factors swapped, by ≻, since * commutes.
``clear_caches`` empties these five memos, the two recursions included.
A product of two single words whose coefficients multiply to 1 returns the
cached element itself, unscaled and uncopied; elements are immutable.  A
word pair longer than MAX_RECURSION_LETTERS is multiplied bottom-up over its
suffix pairs instead, outside the cache, so no input reaches Python's
recursion limit; its terms are not stored either.

  quasi_shuffle        aU * bV  = a(U*bV) + b(aU*V) - λ·[ab](U*V)
  aug_quasi_shuffle    aU ⊡ bV = [ab](U*V)               (augmented module)
  mod_quasi_shuffle    aU ⊛ bV = a(U⊛bV) + b(aU⊛V) - λ·e[ab](U⊛V)
  aug_mod_quasi_shuffle aU ⊠ bV = [ab](U⊛V) at λ = 1     (augmented module)

The modified product is homogeneous in word length; it is associative only
at λ = 1, which is why ⊠ hard-codes that value.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm
from typing import Callable

from .base import MONO_UNIT, accumulate, exact
from .errors import EmptyWordTermError
from .tensor import TensorElement, Word


def _word_recursion(merge_prefix: Word):
    """Hoffman's quasi-shuffle recursion on words, memoized, with every merged
    letter written behind ``merge_prefix``:

        aU ∘ bV = a(U ∘ bV) + b(aU ∘ V) - λ·merge_prefix[ab](U ∘ V)

    One step of it, ``rec.step(w1, w2, lam, sub)``, reads the three products
    of shorter pairs through ``sub``; the memoized ``rec`` passes itself.
    ``rec.head`` memoizes its merge term of two nonempty words, [ab](U ∘ V),
    which ⊡, • and ⊠ read through ``_term_product``.
    """

    def step(w1: Word, w2: Word, lam, sub) -> TensorElement:
        if not w1:
            return TensorElement._trusted({w2: 1})
        if not w2:
            return TensorElement._trusted({w1: 1})
        a, u = w1[0], w1[1:]
        b, v = w2[0], w2[1:]
        out = sub(u, w2, lam).prepend(a) + sub(w1, v, lam).prepend(b)
        if lam:
            merged = sub(u, v, lam).prepend(*merge_prefix, a * b)
            out = out - (merged._scaled(*lam) if type(lam) is tuple else lam * merged)
        return out

    @lru_cache(maxsize=None)
    def rec(w1: Word, w2: Word, lam) -> TensorElement:
        return step(w1, w2, lam, rec)

    rec.step = step
    rec.head = lru_cache(maxsize=None)(
        lambda w1, w2, lam: _word_product(rec, w1[1:], w2[1:], lam).prepend(w1[0] * w2[0])
    )
    return rec


_qsh = _word_recursion(())
# merged letters are shifted behind a fresh unit letter, preserving length
_mqsh = _word_recursion((MONO_UNIT,))
# a(U * bV), the terms of aU * bV led by the first word's head: ≺ reads it,
# and ≻ reads it with its factors swapped, since * commutes
_qsh.lead = lru_cache(maxsize=None)(
    lambda w1, w2, lam: _word_product(_qsh, w1[1:], w2, lam).prepend(w1[0])
)

# Most letters (m + n) a word pair may carry into the memoized recursion,
# which recurses one level per letter at three frames a level.  This stays
# far inside Python's default recursion limit of 1000, even when called from
# deep in an expression.
MAX_RECURSION_LETTERS = 100


def _word_product(rec, w1: Word, w2: Word, lam) -> TensorElement:
    """``rec(w1, w2, lam)`` for one of the word recursions.

    Past MAX_RECURSION_LETTERS the product is built bottom-up instead, over
    the suffix pairs (u, v) of (w1, w2), shortest first.  Both recursions
    commute at every λ, so the longer word is taken as w1, and each row pairs
    one suffix of it with every suffix of the shorter word.  Only two rows
    are kept, and none enters the cache: for an m-letter word the cached
    recursion would hold O(m³) letters, and so would a row along an m-letter
    word.
    """
    if not w1 or not w2 or len(w1) + len(w2) <= MAX_RECURSION_LETTERS:
        return rec(w1, w2, lam)
    if len(w1) < len(w2):
        w1, w2 = w2, w1
    step = rec.step
    table: dict = {}

    def sub(p: Word, q: Word, _lam) -> TensorElement:
        return table[p, q]

    suffixes = [w2[j:] for j in reversed(range(len(w2) + 1))]
    previous = ()
    for i in reversed(range(len(w1) + 1)):
        row = [(w1[i:], t) for t in suffixes]
        for u, v in row:
            table[u, v] = step(u, v, lam, sub)
        for key in previous:  # a row is read by the next row only
            del table[key]
        previous = row
    return table[w1, w2]


def _weight(lam):
    """λ as the word recursions and their memos take it: an ``int`` when it
    is integral, else its (numerator, denominator) pair of ints."""
    lam = exact(lam)
    return lam if type(lam) is int else (lam.numerator, lam.denominator)


def _bilinear(word_fn, x: TensorElement, y: TensorElement) -> TensorElement:
    """The bilinear extension of ``word_fn`` to x ⊗ y, in integer numerators.

    A product of two single words with coefficient product 1 is the element
    ``word_fn`` returned, which may be a cached recursion result: elements
    are immutable, so it is shared, not copied.  Otherwise the word products
    are summed over the least common multiple of their denominators, which
    changes only when a product's denominator differs from the sum's.
    """
    scale = x._den * y._den
    if len(x._terms) == 1 and len(y._terms) == 1:
        ((w1, c1),) = x._terms.items()
        ((w2, c2),) = y._terms.items()
        weight = c1 * c2
        product = word_fn(w1, w2)
        return product if weight == scale else product._scaled(weight, scale)
    acc: dict = {}
    den = 1
    for w1, c1 in x._terms.items():
        for w2, c2 in y._terms.items():
            product = word_fn(w1, w2)
            weight = c1 * c2
            if product._den != den:
                common = lcm(den, product._den)
                if common != den:
                    grow = common // den
                    for w in acc:
                        acc[w] *= grow
                    den = common
                weight *= den // product._den
            terms = product._terms.items()
            accumulate(acc, terms if weight == 1 else ((w, weight * n) for w, n in terms))
    den *= scale
    return TensorElement._trusted(acc) if den == 1 else TensorElement._reduced(acc, den)


def _term_product(memo, name: str, x: TensorElement, y: TensorElement, lam) -> TensorElement:
    """The bilinear extension to x ⊗ y of ``memo``, one of the memoized
    one-step terms, at weight λ; ``name`` is the operation named when a
    factor is not augmented.  A word pair past MAX_RECURSION_LETTERS letters
    is computed through the memo's ``__wrapped__`` and not stored.
    """
    for factor in (x, y):
        if not factor.is_augmented():
            raise EmptyWordTermError(f"{name} is defined on the augmented module only")
    lam = _weight(lam)

    def term(w1: Word, w2: Word) -> TensorElement:
        if len(w1) + len(w2) > MAX_RECURSION_LETTERS:
            return memo.__wrapped__(w1, w2, lam)
        return memo(w1, w2, lam)

    return _bilinear(term, x, y)


def quasi_shuffle(x: TensorElement, y: TensorElement, lam=1) -> TensorElement:
    """Hoffman's quasi-shuffle product; associative and commutative for any λ."""
    lam = _weight(lam)
    return _bilinear(lambda a, b: _word_product(_qsh, a, b, lam), x, y)


def shuffle(x: TensorElement, y: TensorElement) -> TensorElement:
    """Ordinary shuffle product: the λ = 0 quasi-shuffle."""
    return quasi_shuffle(x, y, 0)


def aug_quasi_shuffle(x: TensorElement, y: TensorElement, lam=1) -> TensorElement:
    """The product aU ⊡ bV = [ab](U*V) on the augmented module; unit is e."""
    return _term_product(_qsh.head, "aug_quasi_shuffle", x, y, lam)


def mod_quasi_shuffle(x: TensorElement, y: TensorElement, lam=1) -> TensorElement:
    """Length-homogeneous quasi-shuffle variant; associative iff the merge
    term is present with λ = 1."""
    lam = _weight(lam)
    return _bilinear(lambda a, b: _word_product(_mqsh, a, b, lam), x, y)


def aug_mod_quasi_shuffle(x: TensorElement, y: TensorElement) -> TensorElement:
    """The product aU ⊠ bV = [ab](U ⊛ V) with λ fixed to 1; unit is e.

    Every term of an (m-word ⊠ n-word) has length m + n - 1.
    """
    return _term_product(_mqsh.head, "aug_mod_quasi_shuffle", x, y, 1)


def mu_product(x, y, operator: Callable, mul: Callable):
    """Deformed product μ_N(x, y) = N(x)·y + x·N(y) − N(x·y)."""
    return mul(operator(x), y) + mul(x, operator(y)) - operator(mul(x, y))


def nijenhuis_torsion(x, y, operator: Callable, mul: Callable):
    """Torsion T(x, y) = N(μ_N(x, y)) − N(x)·N(y); zero when N is Nijenhuis."""
    return operator(mu_product(x, y, operator, mul)) - mul(operator(x), operator(y))


def clear_caches() -> None:
    for memo in (_qsh, _qsh.lead, _qsh.head, _mqsh, _mqsh.head):
        memo.cache_clear()
