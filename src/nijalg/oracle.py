"""Non-recursive quasi-shuffle via labeled shuffles and admissible pairs.

Serves as an independent differential-testing oracle for the recursive
products: enumerate all interleavings of the two factor words, tag every
letter with its factor of origin, then for every subset of the LEFT→RIGHT
adjacencies merge the paired letters with a factor of -λ per merge.
Summing over all subsets (the empty one contributes the unmerged word)
reproduces the quasi-shuffle exactly.
"""

from __future__ import annotations

import itertools
from typing import List, Tuple

from .base import MONO_UNIT, Monomial, exact
from .tensor import TensorElement, Word

LEFT = "L"
RIGHT = "R"

LabeledLetter = Tuple[Monomial, str]
LabeledWord = Tuple[LabeledLetter, ...]


def enumerate_shuffles(x_word: Word, z_word: Word) -> List[LabeledWord]:
    """All C(m+n, m) order-preserving interleavings, deterministically ordered
    (left-factor letter explored first at every branch)."""

    def rec(i: int, j: int):
        if i == len(x_word) and j == len(z_word):
            yield ()
            return
        if i < len(x_word):
            for rest in rec(i + 1, j):
                yield ((x_word[i], LEFT),) + rest
        if j < len(z_word):
            for rest in rec(i, j + 1):
                yield ((z_word[j], RIGHT),) + rest

    return list(rec(0, 0))


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
    lam = exact(lam)
    powers = [(-lam) ** k for k in range(min(len(x_word), len(z_word)) + 1)]

    def terms():
        for labeled in enumerate_shuffles(x_word, z_word):
            # at λ = 0 every merge has coefficient 0: only the plain shuffle is formed
            pairs = admissible_pairs(labeled) if lam else ()
            for size in range(len(pairs) + 1):
                for chosen in itertools.combinations(pairs, size):
                    word = _merge(labeled, frozenset(chosen), homogeneous)
                    yield word, powers[size]

    return TensorElement(terms())


def mixed_shuffle(x_word: Word, z_word: Word, lam=1) -> TensorElement:
    """Non-recursive quasi-shuffle: equals quasi_shuffle(X, Z, λ) exactly."""
    return _mixed(x_word, z_word, lam, homogeneous=False)


def mod_quasi_shuffle_oracle(x_word: Word, z_word: Word, lam=1) -> TensorElement:
    """Non-recursive modified quasi-shuffle: every merged pair contributes the
    two-letter segment e·[xz] instead of the single merged letter, preserving
    word length.  Equals mod_quasi_shuffle(X, Z, λ) exactly."""
    return _mixed(x_word, z_word, lam, homogeneous=True)
