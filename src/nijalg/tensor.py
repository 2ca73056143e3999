"""Words, the graded tensor module T(A), and the shift operators.

A word is a finite tuple of monomials; the empty word ``1`` spans the
length-0 component and is the unit of the shuffle-type products.  A
``TensorElement`` is a canonical rational linear combination of words.
The "augmented" submodule consists of elements with no empty-word term.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence, Tuple, Union

from .base import BaseElement, LinearCombination, MONO_UNIT, Monomial, accumulate
from .errors import EmptyWordTermError

Word = Tuple[Monomial, ...]

EMPTY_WORD: Word = ()


def make_word(letters: Iterable[Monomial]) -> Word:
    w = tuple(letters)
    for letter in w:
        if not isinstance(letter, Monomial):
            raise TypeError(f"word letters must be Monomial, got {letter!r}")
    return w


def word_sort_key(w: Word):
    """Canonical order: length first, then letterwise monomial order."""
    return (len(w), tuple(m.sort_key for m in w))


def word_str(w: Word) -> str:
    if not w:
        return "1"
    return ".".join(str(m) for m in w)


class TensorElement(LinearCombination):
    """A finite linear combination of words with exact rational coefficients.

    Instances are immutable and hashable (products memoize on them); all
    arithmetic returns new canonical elements with no zero coefficients.
    """

    __slots__ = ("_hash",)

    @classmethod
    def from_word(cls, word: Iterable[Monomial], coeff=1) -> "TensorElement":
        word = make_word(word)
        coeff = Fraction(coeff)
        return cls._trusted({word: coeff} if coeff else {})

    def terms(self):
        """Term list in canonical word order."""
        return self._sorted_terms(word_sort_key)

    def __str__(self):
        return self._format(word_str)

    def coeff(self, word: Word) -> Fraction:
        return self._terms.get(word, Fraction(0))

    def is_augmented(self) -> bool:
        return EMPTY_WORD not in self._terms

    def prepend(self, *letters: Monomial) -> "TensorElement":
        """Write ``letters`` in front of every word."""
        return self._trusted({letters + w: c for w, c in self._terms.items()})

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:  # the slot is filled on first use
            self._hash = hash(frozenset(self._terms.items()))
            return self._hash


def b_plus(x: TensorElement) -> TensorElement:
    """Prepend the unit letter e to every word; raises each length by one."""
    return x.prepend(MONO_UNIT)


def b_minus(x: TensorElement) -> TensorElement:
    """Drop the first letter of every word.

    Defined on the augmented module only: an empty-word term is a caller
    bug, not a value, and raises ``EmptyWordTermError``.
    """
    if not x.is_augmented():
        raise EmptyWordTermError("b_minus is defined on the augmented module only")
    return TensorElement._trusted(accumulate({}, ((w[1:], c) for w, c in x.iterterms())))


def grade_lengths(x: TensorElement) -> frozenset:
    """Set of word lengths carrying a nonzero coefficient."""
    return frozenset(len(w) for w, _ in x.iterterms())


def expand_letters(letters: Sequence[Union[BaseElement, Monomial]]) -> TensorElement:
    """Multilinear expansion of a word with general base-algebra letters.

    Each slot distributes over its terms: the result sums, over all choices
    of one monomial per slot, the chosen word weighted by the product of the
    chosen coefficients.
    """
    slots = []
    for letter in letters:
        if isinstance(letter, Monomial):
            letter = BaseElement.from_monomial(letter)
        slots.append(list(letter.iterterms()))
    return TensorElement(
        (tuple(mono for mono, _ in choice), math.prod(c for _, c in choice))
        for choice in itertools.product(*slots)
    )
