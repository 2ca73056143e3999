"""The four shuffle-type products and the operator-deformed product.

All four products are defined on basis words by recursion and extended
bilinearly.  The quasi-shuffle * and the modified quasi-shuffle ⊛ share one
word recursion, which differs between them only in the letters written
before a merged letter [ab]: none for *, the unit letter e for ⊛.  Their
products are kept in memos, dicts keyed by (word, word, p, q) that never
change results: (p, q) is ``base.ratio(λ)``, the ints of λ = p/q in lowest
terms, however λ was given (1, "2/2" and Fraction(1) key as (1, 1), and
Fraction(2, 3) and "4/6" as (2, 3)), so no ``Fraction`` is hashed.  The
elements hold integer numerators over a shared denominator, and every
product runs on ints: each term of u ∘ v carries at most min(|u|, |v|)
merges (Hoffman), so the product is integral over q^min(|u|, |v|), and
each grid cell is summed in one pass over that denominator.  Beside each
recursion ∘ a head memo keeps its one-step term [ab](U ∘ V) the same way:
``_qsh_head`` is ⊡, which the dendriform ≺, ≻ and • read as their B⁺ₑ
forms, and ``_mqsh_head`` is ⊠.  Beside each recursion a merged-letter
table keeps its prefix·[ab] for each pair of head letters it has merged.
``clear_caches`` empties these four memos and the two tables.

One loop, ``_rows``, computes every word product without recursing, over
the grid of suffix pairs, shortest row first, in two lists.  It reads
1 ∘ v = v and u ∘ 1 = u as the words v and u where a cell needs them, and
builds one element per cell it computes, none for those boundary products.
A pair of at most MAX_STORED_LETTERS letters reads each cell its memo holds
and stores each cell it computes: what the memo holds changes the work,
never the product.  A longer pair touches no dict and runs its rows along
the shorter word.

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

from .base import MONO_UNIT, accumulate, ratio
from .tensor import TensorElement, Word, require_augmented

# Most letters (m + n) of a pair a memo stores; an m-letter grid holds O(m³) letters
MAX_STORED_LETTERS = 100


class _Memo(dict):
    """Word products keyed by (w1, w2, p, q) at λ = p/q; ``compute`` makes a
    missing one, kept if the pair has at most MAX_STORED_LETTERS letters.
    ``lookups`` counts ``_bilinear``'s reads."""

    # slots: attributes of a dict subclass's instance __dict__ are slow to update
    __slots__ = ("compute", "lookups", "misses")

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


class _Merges(dict):
    """One word recursion's merged letters: (a, b) -> merge_prefix·[ab], each
    pair's product made once and kept until ``clear_caches``."""

    __slots__ = ("prefix",)

    def __init__(self, prefix: Word):
        self.prefix = prefix

    def __missing__(self, pair):
        merged = self[pair] = (*self.prefix, pair[0] * pair[1])
        return merged


def _rows(memo: _Memo, merges: _Merges, w1: Word, w2: Word, p: int, q: int) -> TensorElement:
    """w1 ∘ w2 at λ = p/q, p and q the ints of ``base.ratio(λ)``, by
    Hoffman's recursion, with merged letters behind the prefix of ``merges``:

        aU ∘ bV = a(U ∘ bV) + b(aU ∘ V) - λ·merge_prefix[ab](U ∘ V)

    Cell j of row i is w1[i:] ∘ w2[j:].  Rows are filled shortest first, in
    two lists; 1 ∘ v = v and u ∘ 1 = u are read as the words v and u where a
    cell needs them, and built as no element.  A stored pair reads each other
    cell from ``memo``, under the key (w1[i:], w2[j:], p, q), if it is there
    and stores the cells it computes, and a longer pair touches no dict and
    runs its rows along the shorter word.

    A cell is integral over D = q^min(m - i, n - j), its most merges, and
    so are its three neighbours.  Its terms are summed in one dict from
    their numerators, each scaled to D: a· the cell below, b· the cell to
    its right, and -p·merge_prefix[ab]· the cell diagonally below, whose
    denominator divides D/q.  The dict is wrapped once, reduced to lowest
    terms when D > 1; at an integral λ, q = D = 1 and no gcd is taken.
    """
    if not w1 or not w2:
        return TensorElement._trusted({w1 or w2: 1})
    m, n = len(w1), len(w2)
    stored = m + n <= MAX_STORED_LETTERS
    if stored:
        known = memo.get((w1, w2, p, q))  # the head memos pass stored pairs too
        if known is not None:
            return known
    elif m < n:
        w1, w2, m, n = w2, w1, n, m  # both recursions commute
    below = None  # row m: 1 ∘ w2[j:] = w2[j:]
    for i in range(m - 1, -1, -1):
        u = w1[i:]
        a = (u[0],)
        row = [None] * n
        right = None  # u ∘ 1 = u
        for j in range(n - 1, -1, -1):
            v = w2[j:]
            out = memo.get((u, v, p, q)) if stored else None
            if out is None:
                den = q ** min(m - i, n - j)
                b = (v[0],)
                if below is None:
                    acc = {a + v: den}
                else:
                    left = below[j]
                    k = den // left._den
                    acc = {a + w: k * c for w, c in left._terms.items()}  # distinct words
                if right is None:
                    accumulate(acc, ((b + u, den),))
                else:
                    k = den // right._den
                    accumulate(acc, [(b + w, k * c) for w, c in right._terms.items()])
                if p:
                    merged = merges[a[0], b[0]]
                    if below is None or right is None:
                        # U ∘ V is the word v[1:] on the last row, else u[1:]
                        diag = v[1:] if below is None else u[1:]
                        accumulate(acc, ((merged + diag, -p * (den // q)),))
                    else:
                        diag = below[j + 1]
                        k = -p * (den // (q * diag._den))
                        accumulate(acc, [(merged + w, k * c) for w, c in diag._terms.items()])
                out = TensorElement._trusted(acc) if den == 1 else TensorElement._reduced(acc, den)
                if stored:
                    memo[u, v, p, q] = out
            row[j] = right = out
        below = row  # frees the row below: a long pair holds two rows at most
    return below[0]


def _word_recursion(merge_prefix: Word) -> tuple:
    """The memo of one word recursion ∘, its head memo of [ab](U ∘ V) and its
    merged-letter table."""
    rec = _Memo(None)
    merges = _Merges(merge_prefix)
    rec.compute = partial(_rows, rec, merges)
    head = _Memo(
        lambda w1, w2, p, q: _rows(rec, merges, w1[1:], w2[1:], p, q).prepend(w1[0] * w2[0])
    )
    return rec, head, merges


_qsh, _qsh_head, _qsh_merges = _word_recursion(())
# merged letters are shifted behind a fresh unit letter, preserving length
_mqsh, _mqsh_head, _mqsh_merges = _word_recursion((MONO_UNIT,))


def _bilinear(memo: _Memo, p: int, q: int, x: TensorElement, y: TensorElement) -> TensorElement:
    """The bilinear extension to x ⊗ y of the word products in ``memo`` at
    weight λ = p/q, p and q the ints of ``base.ratio(λ)``, in integer
    numerators, one counted read per word pair.

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
        product = memo[w1, w2, p, q]
        return product if weight == scale else product._scaled(weight, scale)
    memo.lookups += len(x._terms) * len(y._terms)
    acc: dict = {}
    den = 1
    for w1, c1 in x._terms.items():
        for w2, c2 in y._terms.items():
            product = memo[w1, w2, p, q]
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


def quasi_shuffle(x: TensorElement, y: TensorElement, lam=1) -> TensorElement:
    """Hoffman's quasi-shuffle product; associative and commutative for any λ."""
    return _bilinear(_qsh, *ratio(lam), x, y)


def shuffle(x: TensorElement, y: TensorElement) -> TensorElement:
    """Ordinary shuffle product: the λ = 0 quasi-shuffle."""
    return quasi_shuffle(x, y, 0)


def aug_quasi_shuffle(x: TensorElement, y: TensorElement, lam=1) -> TensorElement:
    """The product aU ⊡ bV = [ab](U*V) on the augmented module; unit is e."""
    require_augmented("aug_quasi_shuffle", x, y)
    return _bilinear(_qsh_head, *ratio(lam), x, y)


def mod_quasi_shuffle(x: TensorElement, y: TensorElement, lam=1) -> TensorElement:
    """Length-homogeneous quasi-shuffle variant; associative iff the merge
    term is present with λ = 1."""
    return _bilinear(_mqsh, *ratio(lam), x, y)


def aug_mod_quasi_shuffle(x: TensorElement, y: TensorElement) -> TensorElement:
    """The product aU ⊠ bV = [ab](U ⊛ V) with λ fixed to 1; unit is e.

    Every term of an (m-word ⊠ n-word) has length m + n - 1.
    """
    require_augmented("aug_mod_quasi_shuffle", x, y)
    return _bilinear(_mqsh_head, 1, 1, x, y)


def mu_product(x, y, operator: Callable, mul: Callable):
    """Deformed product μ_N(x, y) = N(x)·y + x·N(y) − N(x·y)."""
    return mul(operator(x), y) + mul(x, operator(y)) - operator(mul(x, y))


def nijenhuis_torsion(x, y, operator: Callable, mul: Callable):
    """Torsion T(x, y) = N(μ_N(x, y)) − N(x)·N(y); zero when N is Nijenhuis."""
    return operator(mu_product(x, y, operator, mul)) - mul(operator(x), operator(y))


def clear_caches() -> None:
    for memo in (_qsh, _qsh_head, _mqsh, _mqsh_head):
        memo.cache_clear()
    _qsh_merges.clear()
    _mqsh_merges.clear()
