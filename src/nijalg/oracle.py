"""Non-recursive quasi-shuffle via labeled shuffles and admissible pairs.

Serves as an independent differential-testing oracle for the recursive
products: enumerate all interleavings of the two factor words, tag every
letter with its factor of origin, then for every subset of the LEFT→RIGHT
adjacencies merge the paired letters with a factor of -λ per merge.
Summing over all subsets (the empty one contributes the unmerged word)
reproduces the quasi-shuffle exactly.  At λ = p/q a word with k merges
carries (-p)^k·q^(top-k) over q^top, top = min(m, n), so the coefficients
are summed as integers into one dict, wrapped once in lowest terms.

An interleaving of an m-letter and an n-letter word is one choice of the m
positions, out of m + n, that the left factor's letters fill in order; the
right factor's letters fill the rest.  ``itertools.combinations`` yields
these choices in lexicographic order, which puts the left factor's letter
first wherever either factor could supply the next one.  No step recurses,
so the depth does not grow with the words.
"""

from __future__ import annotations

import itertools
from typing import List, Tuple

from .base import MONO_UNIT, Monomial, ratio
from .tensor import TensorElement, Word

LEFT = "L"
RIGHT = "R"

LabeledLetter = Tuple[Monomial, str]
LabeledWord = Tuple[LabeledLetter, ...]


def enumerate_shuffles(x_word: Word, z_word: Word) -> List[LabeledWord]:
    """All C(m+n, m) order-preserving interleavings, one per choice of the
    left factor's positions, in lexicographic order of those choices."""
    lefts = [(a, LEFT) for a in x_word]
    rights = [(b, RIGHT) for b in z_word]
    out = []
    for positions in itertools.combinations(range(len(lefts) + len(rights)), len(lefts)):
        # in increasing order, each insertion lands on its final position
        labeled = rights.copy()
        for k, letter in zip(positions, lefts):
            labeled.insert(k, letter)
        out.append(tuple(labeled))
    return out


def admissible_pairs(labeled: LabeledWord) -> Tuple[int, ...]:
    """1-based positions k where a LEFT letter is followed by a RIGHT letter.

    Pairs can never overlap: position k+1 cannot be both RIGHT and LEFT.
    """
    return tuple(
        k
        for k in range(1, len(labeled))
        if labeled[k - 1][1] == LEFT and labeled[k][1] == RIGHT
    )


def _merge(labeled: LabeledWord, chosen, homogeneous: bool) -> Word:
    out = []
    i = 0
    while i < len(labeled):
        if (i + 1) in chosen:
            if homogeneous:
                out.append(MONO_UNIT)
            out.append(labeled[i][0] * labeled[i + 1][0])
            i += 2
        else:
            out.append(labeled[i][0])
            i += 1
    return tuple(out)


def _mixed(x_word: Word, z_word: Word, lam, homogeneous: bool) -> TensorElement:
    p, q = ratio(lam)
    # a word with k merges has coefficient (-p/q)^k = (-p)^k·q^(top-k) / q^top
    top = min(len(x_word), len(z_word))
    powers = [(-p) ** k * q ** (top - k) for k in range(top + 1)]
    acc: dict = {}
    for labeled in enumerate_shuffles(x_word, z_word):
        # at λ = 0 every merge has coefficient 0: only the plain shuffle is formed
        pairs = admissible_pairs(labeled) if p else ()
        for size in range(len(pairs) + 1):
            coeff = powers[size]
            for chosen in itertools.combinations(pairs, size):
                word = _merge(labeled, frozenset(chosen), homogeneous)
                acc[word] = acc.get(word, 0) + coeff
    return TensorElement._reduced({w: c for w, c in acc.items() if c}, q**top)


def mixed_shuffle(x_word: Word, z_word: Word, lam=1) -> TensorElement:
    """Non-recursive quasi-shuffle: equals quasi_shuffle(X, Z, λ) exactly."""
    return _mixed(x_word, z_word, lam, homogeneous=False)


def mod_quasi_shuffle_oracle(x_word: Word, z_word: Word, lam=1) -> TensorElement:
    """Non-recursive modified quasi-shuffle: every merged pair contributes the
    two-letter segment e·[xz] instead of the single merged letter, preserving
    word length.  Equals mod_quasi_shuffle(X, Z, λ) exactly."""
    return _mixed(x_word, z_word, lam, homogeneous=True)
