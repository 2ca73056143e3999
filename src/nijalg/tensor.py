"""Words, the graded tensor module T(A), and the shift operators.

A word is a finite tuple of monomials; the empty word ``1`` spans the
length-0 component and is the unit of the shuffle-type products.  A
``TensorElement`` is a canonical rational linear combination of words, kept
as integer numerators over one shared denominator, and the only element
class of the package: its arithmetic is the module structure that every
product, check and report works in.  The "augmented" submodule consists of
elements with no empty-word term.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Tuple, Union

from .base import MONO_UNIT, Monomial, accumulate, exact, ratio, rational_text
from .errors import EmptyWordTermError

Word = Tuple[Monomial, ...]

EMPTY_WORD: Word = ()


def word_sort_key(w: Word):
    """Canonical order: length first, then letterwise monomial order."""
    return (len(w), tuple([m._key for m in w]))


def word_str(w: Word) -> str:
    if not w:
        return "1"
    return ".".join(str(m) for m in w)


class TensorElement:
    """A finite linear combination of words with exact rational coefficients.

    The coefficients are stored as integer numerators over one shared
    positive denominator: ``_terms`` maps each word to a nonzero ``int``
    and ``_den`` is an ``int`` ≥ 1, in lowest terms, so
    gcd(_den, *numerators) = 1 and the zero element has ``_den == 1``.
    Equality of elements is therefore equality of (terms, denominator).
    All arithmetic runs on these ints, and where every coefficient is
    integral (every product at an integral λ of such elements) ``_den``
    stays 1 and no gcd is taken.  ``iterterms`` and ``terms`` read each
    coefficient in ``base.exact`` form: an ``int`` when it is integral, else
    a ``Fraction`` with denominator > 1, built only when ``_den > 1``.
    Instances are immutable and hashable, equal elements hashing equal; all
    arithmetic returns new canonical elements.
    """

    __slots__ = ("_terms", "_den", "_hash")

    def __init__(self, terms: Union[Mapping, Iterable] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        coeffs = accumulate({}, ((word, exact(coeff)) for word, coeff in items))
        fractions = [c.denominator for c in coeffs.values() if type(c) is not int]
        den = 1
        if fractions:
            # the lcm of the nonzero sums' reduced denominators shares no
            # factor with every numerator over it: no gcd is needed
            den = lcm(*fractions)
            coeffs = {word: c.numerator * (den // c.denominator) for word, c in coeffs.items()}
        self._terms, self._den = coeffs, den

    @classmethod
    def _trusted(cls, terms: dict, den: int = 1) -> "TensorElement":
        """Wrap integer numerators over ``den`` that are already canonical,
        without copying them."""
        out = cls.__new__(cls)
        out._terms = terms
        out._den = den
        return out

    @classmethod
    def _reduced(cls, terms: dict, den: int) -> "TensorElement":
        """Nonzero integer numerators over ``den`` ≥ 1, put in lowest terms."""
        if den > 1:
            g = gcd(den, *terms.values())
            if g > 1:
                den //= g
                terms = {word: n // g for word, n in terms.items()}
        return cls._trusted(terms, den)

    @classmethod
    def zero(cls) -> "TensorElement":
        return cls._trusted({})

    @classmethod
    def from_word(cls, word: Iterable[Monomial]) -> "TensorElement":
        word = tuple(word)
        for letter in word:
            if not isinstance(letter, Monomial):
                raise TypeError(f"word letters must be Monomial, got {letter!r}")
        return cls._trusted({word: 1})

    def terms(self):
        """Term list in canonical word order."""
        return sorted(self.iterterms(), key=lambda kv: word_sort_key(kv[0]))

    def iterterms(self):
        """The (word, coefficient) pairs, each coefficient in ``exact`` form."""
        den = self._den
        if den == 1:
            return self._terms.items()
        return [(word, exact(Fraction(n, den))) for word, n in self._terms.items()]

    def prepend(self, *letters: Monomial) -> "TensorElement":
        """Write ``letters`` in front of every word."""
        return self._trusted({letters + w: n for w, n in self._terms.items()}, self._den)

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self._den == other._den
            and self._terms == other._terms
        )

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:  # the slot is filled on first use
            self._hash = hash((frozenset(self._terms.items()), self._den))
            return self._hash

    def __add__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        den = self._den
        if den == other._den:
            acc = accumulate(dict(self._terms), other._terms.items())
        else:
            den = lcm(den, other._den)
            mine, theirs = den // self._den, den // other._den
            acc = accumulate(
                {w: n * mine for w, n in self._terms.items()},
                ((w, n * theirs) for w, n in other._terms.items()),
            )
        return self._trusted(acc) if den == 1 else self._reduced(acc, den)

    def __neg__(self):
        return self._trusted({word: -n for word, n in self._terms.items()}, self._den)

    def __sub__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        if self._terms == other._terms and self._den == other._den:
            # the common outcome of an identity check
            return self._trusted({})
        return self + (-other)

    def _scale(self, coeff):
        p, q = ratio(coeff)
        if not p:
            return self._trusted({})
        if q == 1 and self._den == 1:
            return self._trusted({word: n * p for word, n in self._terms.items()})
        return self._scaled(p, q)

    __mul__ = __rmul__ = _scale

    def _scaled(self, p: int, q: int) -> "TensorElement":
        """This element times p/q, for ints p ≠ 0 and q ≥ 1."""
        terms = {word: n * p for word, n in self._terms.items()}
        return self._reduced(terms, self._den * q)

    def __str__(self):
        terms, den = self._terms, self._den
        parts = []
        for word in sorted(terms, key=word_sort_key):
            n = terms[word]
            mag = abs(n)
            body = word_str(word) if mag == den else f"{rational_text(mag, den)}·{word_str(word)}"
            sign = ("+ " if n > 0 else "- ") if parts else ("" if n > 0 else "-")
            parts.append(sign + body)
        return " ".join(parts) or "0"

    def json_terms(self) -> str:
        """The term list as JSON text, byte for byte what ``json.dumps``
        writes for ``[{"coeff": str(c), "word": [m.exponents for m in w]}
        for w, c in self.terms()]``: canonical word order, each coefficient
        in lowest terms, a word a list of letters and a letter a list of
        [generator, exponent] pairs.  Generator names match
        ``[a-z][a-z0-9_]*``, so no text needs escaping."""
        terms, den = self._terms, self._den
        letters = {}  # monomial -> its JSON text, for this call only
        parts = []
        for word in sorted(terms, key=word_sort_key):
            coeff = terms[word]
            if den != 1:
                coeff = rational_text(coeff, den)
            texts = []
            for mono in word:
                text = letters.get(mono)
                if text is None:
                    pairs = ", ".join([f'["{name}", {exp}]' for name, exp in mono._pairs])
                    text = letters[mono] = f"[{pairs}]"
                texts.append(text)
            parts.append(f'{{"coeff": "{coeff}", "word": [{", ".join(texts)}]}}')
        return f"[{', '.join(parts)}]"

    def __repr__(self):
        return f"{type(self).__name__}({self})"


def b_plus(x: TensorElement) -> TensorElement:
    """Prepend the unit letter e to every word; raises each length by one."""
    return x.prepend(MONO_UNIT)


def require_augmented(name: str, *elements: TensorElement) -> None:
    """Refuse elements outside the augmented module: an empty-word term is a
    caller bug, not a value, and raises ``EmptyWordTermError`` naming the
    operation ``name``."""
    for x in elements:
        if EMPTY_WORD in x._terms:
            raise EmptyWordTermError(f"{name} is defined on the augmented module only")


def b_minus(x: TensorElement) -> TensorElement:
    """Drop the first letter of every word; defined on the augmented module only."""
    require_augmented("b_minus", x)
    terms = accumulate({}, ((w[1:], n) for w, n in x._terms.items()))
    return TensorElement._reduced(terms, x._den)


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
    return frozenset(map(len, x._terms))
