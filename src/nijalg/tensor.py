"""Words, the graded tensor module T(A), and the shift operators.

A word is a finite tuple of monomials; the empty word ``1`` spans the
length-0 component and is the unit of the shuffle-type products.  A
``TensorElement`` is a canonical rational linear combination of words, and
the only element class of the package: its arithmetic is the module
structure that every product, check and report works in.  The "augmented"
submodule consists of elements with no empty-word term.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Tuple, Union

from .base import MONO_UNIT, Monomial, accumulate, exact
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


class TensorElement:
    """A finite linear combination of words with exact rational coefficients.

    Canonical form stores no zero coefficient, and every coefficient in
    ``base.exact`` form: an ``int`` when it is integral, else a ``Fraction``
    with denominator > 1.  So equality of elements is equality of their
    term maps, and elements with integral coefficients (every product at
    an integral λ) carry no ``Fraction`` at all.
    Instances are immutable and hashable, equal elements hashing equal; all
    arithmetic returns new canonical elements.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Union[Mapping, Iterable] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        self._terms = accumulate({}, ((word, exact(coeff)) for word, coeff in items))

    @classmethod
    def _trusted(cls, terms: dict) -> "TensorElement":
        """Wrap a term map that is already canonical, without copying it."""
        out = cls.__new__(cls)
        out._terms = terms
        return out

    @classmethod
    def zero(cls) -> "TensorElement":
        return cls._trusted({})

    @classmethod
    def from_word(cls, word: Iterable[Monomial]) -> "TensorElement":
        return cls._trusted({make_word(word): 1})

    def terms(self):
        """Term list in canonical word order."""
        return sorted(self._terms.items(), key=lambda kv: word_sort_key(kv[0]))

    def iterterms(self):
        return self._terms.items()

    def is_augmented(self) -> bool:
        return EMPTY_WORD not in self._terms

    def prepend(self, *letters: Monomial) -> "TensorElement":
        """Write ``letters`` in front of every word."""
        return self._trusted({letters + w: c for w, c in self._terms.items()})

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        return type(other) is type(self) and self._terms == other._terms

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:  # the slot is filled on first use
            self._hash = hash(frozenset(self._terms.items()))
            return self._hash

    def __add__(self, other):
        return self._trusted(accumulate(dict(self._terms), other._terms.items()))

    def __neg__(self):
        return self._trusted({word: -c for word, c in self._terms.items()})

    def __sub__(self, other):
        if self._terms == other._terms:  # the common outcome of an identity check
            return self._trusted({})
        return self + (-other)

    def _scale(self, coeff):
        c = exact(coeff)
        return self._trusted({word: exact(k * c) for word, k in self._terms.items()} if c else {})

    __mul__ = __rmul__ = _scale

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for word, coeff in self.terms():
            mag = abs(coeff)
            body = word_str(word) if mag == 1 else f"{mag}·{word_str(word)}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(("+ " if coeff > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"{type(self).__name__}({self})"


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


def fold_letters(w: Word, combine, name: str) -> TensorElement:
    """combine(a₁, combine(a₂, … combine(aₙ₋₁, aₙ)…)) for the word a₁…aₙ,
    each letter taken as a one-letter element: the right fold that rebuilds a
    word from its letters.  ``name`` labels the error an empty word raises.
    """
    if not w:
        raise EmptyWordTermError(f"{name} is defined for nonempty words only")
    acc = TensorElement.from_word(w[-1:])
    for mono in w[-2::-1]:
        acc = combine(TensorElement.from_word((mono,)), acc)
    return acc


def grade_lengths(x: TensorElement) -> frozenset:
    """Set of word lengths carrying a nonzero coefficient."""
    return frozenset(len(w) for w, _ in x.iterterms())
