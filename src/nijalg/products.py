"""The four shuffle-type products and the operator-deformed product.

All four products are defined on basis words by recursion and extended
bilinearly.  The quasi-shuffle * and the modified quasi-shuffle ⊛ share one
word recursion, which differs between them only in the letters written
before a merged letter [ab]: none for *, the unit letter e for ⊛.  Their
products are kept in memos, dicts keyed by (word, word, λ) that never change
results; λ enters as an ``int`` when it is integral, however it was given
(1, Fraction(1), "2/2"), and otherwise as the int pair (p, q) of λ = p/q in
lowest terms (Fraction(2, 3), "4/6"), so no ``Fraction`` is hashed.  The
elements hold integer numerators over a shared denominator, and the merge
term is scaled by p/q in ints: every product runs on ints.  Three one-step
terms of aU ∘ bV are memoized the same way and read through
``_term_product``: ``head`` [ab](U ∘ V) beside each recursion ∘, read by
⊡, the dendriform • and ⊠, and ``_qsh.lead`` a(U * bV), read by ≺ and,
with its factors swapped, by ≻, since * commutes.
``clear_caches`` empties these five memos, the two recursions included.

One loop, ``_rows``, computes every word product without recursing, over
the grid of suffix pairs, shortest first.  A pair of at most
MAX_STORED_LETTERS letters is stored with every cell of its grid, so stored
pairs are closed under taking suffixes and each row starts at its first
missing cell, stepping down from the row below.  A longer pair keeps only
two rows, along the shorter word, in a scratch dict.

  quasi_shuffle        aU * bV  = a(U*bV) + b(aU*V) - λ·[ab](U*V)
  aug_quasi_shuffle    aU ⊡ bV = [ab](U*V)               (augmented module)
  mod_quasi_shuffle    aU ⊛ bV = a(U⊛bV) + b(aU⊛V) - λ·e[ab](U⊛V)
  aug_mod_quasi_shuffle aU ⊠ bV = [ab](U⊛V) at λ = 1     (augmented module)

The modified product is homogeneous in word length; it is associative only
at λ = 1, which is why ⊠ hard-codes that value.
"""

from __future__ import annotations

from functools import partial
from math import lcm
from types import SimpleNamespace
from typing import Callable

from .base import MONO_UNIT, accumulate, exact
from .errors import EmptyWordTermError
from .tensor import TensorElement, Word

# Most letters (m + n) of a pair a memo stores; an m-letter grid holds O(m³) letters
MAX_STORED_LETTERS = 100


class _Memo(dict):
    """Word products keyed by (w1, w2, λ); ``compute`` makes a missing one, kept if
    the pair has at most MAX_STORED_LETTERS letters.  ``lookups`` counts ``_bilinear``'s reads."""

    # slots: attributes of a dict subclass's instance __dict__ are slow to update
    __slots__ = ("compute", "lookups", "misses", "__dict__")

    def __init__(self, compute: Callable):
        self.compute = compute
        self.lookups = self.misses = 0

    def __missing__(self, key):
        self.misses += 1
        value = self.compute(*key)
        if len(key[0]) + len(key[1]) <= MAX_STORED_LETTERS:
            self[key] = value
        return value

    def cache_info(self) -> SimpleNamespace:
        hits = self.lookups - self.misses
        return SimpleNamespace(hits=hits, misses=self.misses, currsize=len(self))

    def cache_clear(self) -> None:
        self.clear()
        self.lookups = self.misses = 0


def _rows(memo: _Memo, merge_prefix: Word, w1: Word, w2: Word, lam) -> TensorElement:
    """w1 ∘ w2 by Hoffman's recursion, with merged letters behind ``merge_prefix``:

        aU ∘ bV = a(U ∘ bV) + b(aU ∘ V) - λ·merge_prefix[ab](U ∘ V)

    Row i pairs w1[i:] with every suffix of w2, and rows are filled shortest
    first: a stored pair's missing cells straight into ``memo``, a longer
    pair's into a scratch dict that drops each row once the next has read it.
    """
    if not w1 or not w2:
        return TensorElement._trusted({w1 or w2: 1})
    m, n = len(w1), len(w2)
    table = memo if m + n <= MAX_STORED_LETTERS else {}
    if table is not memo and m < n:
        w1, w2, m, n = w2, w1, n, m  # both recursions commute: rows along the shorter word
    top = m  # a stored pair of nonempty words comes with all its suffix pairs
    while top and (w1[top - 1:], w2, lam) in table:
        top -= 1
    stop, u1 = 1, w1[top:]  # cell j of row i is (w1[i:], w2[j:]); cell 0 is missing
    for i in range(top - 1, -1, -1):
        u = w1[i:]
        # a row's stored cells are a prefix, no longer than the row below's
        while stop <= n and (u, w2[stop:], lam) not in table:
            stop += 1
        if not u1:  # 1 × v may be stored without 1 × (v's suffixes): fill what is read
            for j in range(min(stop, n) + 1):
                table[(), w2[j:], lam] = TensorElement._trusted({w2[j:]: 1})
        if stop > n:  # the cell (u, 1)
            table[u, (), lam] = TensorElement._trusted({u: 1})
        for j in range(min(stop, n) - 1, -1, -1):
            v, v1 = w2[j:], w2[j + 1:]
            a, b = u[0], v[0]
            out = table[u1, v, lam].prepend(a) + table[u, v1, lam].prepend(b)
            if lam:
                merged = table[u1, v1, lam].prepend(*merge_prefix, a * b)
                out = out - (merged._scaled(*lam) if type(lam) is tuple else lam * merged)
            table[u, v, lam] = out
        if table is not memo:
            for j in range(n + 1):  # a row is read by the next row only
                del table[u1, w2[j:], lam]
        u1 = u
    return table[w1, w2, lam]


def _word_recursion(merge_prefix: Word) -> _Memo:
    """The memo of one word recursion; its ``head`` memoizes [ab](U ∘ V) for ⊡, • and ⊠."""
    rec = _Memo(None)
    rec.compute = partial(_rows, rec, merge_prefix)
    rec.head = _Memo(
        lambda w1, w2, lam: _rows(rec, merge_prefix, w1[1:], w2[1:], lam).prepend(w1[0] * w2[0])
    )
    return rec


_qsh = _word_recursion(())
# merged letters are shifted behind a fresh unit letter, preserving length
_mqsh = _word_recursion((MONO_UNIT,))
# a(U * bV), the terms of aU * bV led by the first word's head: ≺ reads it,
# and ≻ reads it with its factors swapped, since * commutes
_qsh.lead = _Memo(lambda w1, w2, lam: _rows(_qsh, (), w1[1:], w2, lam).prepend(w1[0]))


def _weight(lam):
    """λ as the memos key it: an ``int`` when integral, else its (p, q) pair of ints."""
    lam = exact(lam)
    return lam if type(lam) is int else (lam.numerator, lam.denominator)


def _bilinear(memo: _Memo, lam, x: TensorElement, y: TensorElement) -> TensorElement:
    """The bilinear extension to x ⊗ y of the word products in ``memo`` at
    weight ``lam``, in integer numerators, one counted read per word pair.

    A product of two single words with coefficient product 1 is the element
    the memo holds: elements are immutable, so it is shared, not copied.
    Otherwise the word products are summed over the least common multiple of
    their denominators, which changes only when a product's denominator
    differs from the sum's.
    """
    scale = x._den * y._den
    if len(x._terms) == 1 and len(y._terms) == 1:
        memo.lookups += 1
        ((w1, c1),) = x._terms.items()
        ((w2, c2),) = y._terms.items()
        weight = c1 * c2
        product = memo[w1, w2, lam]
        return product if weight == scale else product._scaled(weight, scale)
    memo.lookups += len(x._terms) * len(y._terms)
    acc: dict = {}
    den = 1
    for w1, c1 in x._terms.items():
        for w2, c2 in y._terms.items():
            product = memo[w1, w2, lam]
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


def _term_product(memo: _Memo, name: str, x: TensorElement, y: TensorElement, lam) -> TensorElement:
    """The bilinear extension to x ⊗ y of ``memo``, a memoized one-step term,
    at weight λ; ``name`` is the operation named when a factor is not augmented."""
    for factor in (x, y):
        if not factor.is_augmented():
            raise EmptyWordTermError(f"{name} is defined on the augmented module only")
    return _bilinear(memo, _weight(lam), x, y)


def quasi_shuffle(x: TensorElement, y: TensorElement, lam=1) -> TensorElement:
    """Hoffman's quasi-shuffle product; associative and commutative for any λ."""
    return _bilinear(_qsh, _weight(lam), x, y)


def shuffle(x: TensorElement, y: TensorElement) -> TensorElement:
    """Ordinary shuffle product: the λ = 0 quasi-shuffle."""
    return quasi_shuffle(x, y, 0)


def aug_quasi_shuffle(x: TensorElement, y: TensorElement, lam=1) -> TensorElement:
    """The product aU ⊡ bV = [ab](U*V) on the augmented module; unit is e."""
    return _term_product(_qsh.head, "aug_quasi_shuffle", x, y, lam)


def mod_quasi_shuffle(x: TensorElement, y: TensorElement, lam=1) -> TensorElement:
    """Length-homogeneous quasi-shuffle variant; associative iff the merge
    term is present with λ = 1."""
    return _bilinear(_mqsh, _weight(lam), x, y)


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
