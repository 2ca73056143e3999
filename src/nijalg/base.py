"""Exact scalars and the free commutative unital base algebra K[S].

Scalars are arbitrary-precision rationals (``fractions.Fraction``), which are
always stored reduced with a positive denominator.  The base algebra is the
polynomial algebra over a set of named generators; its basis consists of
commutative monomials, with the empty monomial acting as the unit ``e``.
Monomials are interned, so equal monomials are one object.
"""

from __future__ import annotations

import re
import weakref
from fractions import Fraction
from typing import Iterable, Mapping, Tuple, Union

from .errors import ReservedSymbolError

Scalar = Fraction

_GEN_RE = re.compile(r"[a-z][a-z0-9_]*\Z")


def check_generator(name: str) -> str:
    """Validate a generator name; 'e' is reserved for the unit monomial."""
    if name == "e":
        raise ReservedSymbolError("'e' names the unit monomial and cannot be a generator")
    if not isinstance(name, str) or not _GEN_RE.match(name):
        raise ValueError(f"invalid generator name {name!r}")
    return name


class Monomial:
    """A commutative monomial: a finite map generator -> positive exponent.

    The empty monomial is the unit ``e``.  Instances are immutable and
    totally ordered by total degree first, then lexicographically on the
    fully expanded letter sequence (so e < a < a^2 < ab < b^2).  The sort
    key holds that sequence run-length encoded, as (generator, -exponent)
    pairs: at equal degree neither run list is a proper prefix of the
    other, so the runs order monomials as the letters do, in space that
    does not grow with the exponents.

    Monomials are interned: there is one live instance per exponent map, so
    equality is identity and hashing is the default identity hash, and a
    word (a tuple of monomials) hashes and compares without calling back
    into Python.  The intern table holds its monomials weakly.
    """

    __slots__ = ("_pairs", "_key", "_text", "__weakref__")

    def __new__(cls, exponents: Union[Mapping[str, int], Iterable[Tuple[str, int]]] = ()):
        items = exponents.items() if isinstance(exponents, Mapping) else exponents
        acc: dict = {}
        for name, exp in items:
            check_generator(name)
            exp = int(exp)
            if exp < 0:
                raise ValueError(f"negative exponent for generator {name!r}")
            if exp:
                acc[name] = acc.get(name, 0) + exp
        return cls._from_pairs(tuple(sorted(acc.items())))

    @classmethod
    def _from_pairs(cls, pairs: Tuple[Tuple[str, int], ...]) -> "Monomial":
        """The interned monomial of ``pairs``, which must already be sorted
        by generator, with valid names and positive exponents."""
        mono = _INTERNED.get(pairs)
        if mono is None:
            mono = object.__new__(cls)
            mono._pairs = pairs
            mono._key = (sum(n for _, n in pairs), tuple((g, -n) for g, n in pairs))
            mono._text = None
            _INTERNED[pairs] = mono
        return mono

    def __reduce__(self):
        # copy, deepcopy and unpickling go back through the checked constructor,
        # which returns the interned instance
        return (Monomial, (self._pairs,))

    @classmethod
    def unit(cls) -> "Monomial":
        return _MONO_UNIT

    @classmethod
    def gen(cls, name: str, exp: int = 1) -> "Monomial":
        return cls(((name, exp),))

    @property
    def exponents(self) -> Tuple[Tuple[str, int], ...]:
        return self._pairs

    @property
    def degree(self) -> int:
        return self._key[0]

    @property
    def sort_key(self):
        return self._key

    def is_unit(self) -> bool:
        return not self._pairs

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not isinstance(other, Monomial):
            return NotImplemented
        if not self._pairs:
            return other
        if not other._pairs:
            return self
        merged = dict(self._pairs)
        for name, exp in other._pairs:
            merged[name] = merged.get(name, 0) + exp
        return Monomial._from_pairs(tuple(sorted(merged.items())))

    def __pow__(self, exp: int) -> "Monomial":
        exp = int(exp)
        if exp < 0:
            raise ValueError("negative monomial power")
        return Monomial({g: n * exp for g, n in self._pairs})

    def __lt__(self, other):
        return self._key < other._key

    def __le__(self, other):
        return self._key <= other._key

    def __gt__(self, other):
        return self._key > other._key

    def __ge__(self, other):
        return self._key >= other._key

    def __str__(self):
        text = self._text
        if text is None:
            pieces = [g if n == 1 else f"{g}^{n}" for g, n in self._pairs]
            if not pieces:
                text = "e"
            elif len(pieces) == 1:
                text = pieces[0]
            else:
                text = "[" + " ".join(pieces) + "]"
            self._text = text
        return text

    def __repr__(self):
        return f"Monomial({self})"


# exponent pairs -> the one live Monomial with those exponents
_INTERNED = weakref.WeakValueDictionary()

_MONO_UNIT = Monomial()

MONO_UNIT = _MONO_UNIT


def gen(name: str) -> Monomial:
    """Degree-1 monomial for a single generator."""
    return Monomial.gen(name)


def accumulate(acc: dict, items: Iterable) -> dict:
    """Add each (key, coeff) of ``items`` into the term map ``acc`` and drop
    every key whose coefficient cancels to zero; returns ``acc``."""
    for key, coeff in items:
        if key in acc:
            coeff += acc[key]
            if not coeff:
                del acc[key]
                continue
        elif not coeff:
            continue
        acc[key] = coeff
    return acc


class LinearCombination:
    """A finite rational linear combination of basis keys in canonical form.

    Canonical form stores every coefficient as a ``Fraction`` and no zero
    coefficient, so equality of elements of one type is equality of their
    term maps.  Subclasses name their basis: ``_check_key`` validates a key,
    and ``terms`` and ``__str__`` fix the print order and the key printer.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Union[Mapping, Iterable] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        check = self._check_key
        self._terms = accumulate({}, ((check(key), Fraction(coeff)) for key, coeff in items))

    @staticmethod
    def _check_key(key):
        return key

    @classmethod
    def _trusted(cls, terms: dict):
        """Wrap a term map that is already canonical, without copying it."""
        out = cls.__new__(cls)
        out._terms = terms
        return out

    @classmethod
    def zero(cls):
        return cls._trusted({})

    def _sorted_terms(self, sort_key):
        return sorted(self._terms.items(), key=lambda kv: sort_key(kv[0]))

    def iterterms(self):
        return self._terms.items()

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        return type(other) is type(self) and self._terms == other._terms

    def __add__(self, other):
        return self._trusted(accumulate(dict(self._terms), other._terms.items()))

    def __neg__(self):
        return self._trusted({key: -c for key, c in self._terms.items()})

    def __sub__(self, other):
        if self._terms == other._terms:  # the common outcome of an identity check
            return self._trusted({})
        return self + (-other)

    def _scale(self, coeff):
        c = Fraction(coeff)
        return self._trusted({key: k * c for key, k in self._terms.items()} if c else {})

    __mul__ = __rmul__ = _scale

    def _format(self, key_str) -> str:
        if not self._terms:
            return "0"
        parts = []
        for key, coeff in self.terms():
            mag = abs(coeff)
            body = key_str(key) if mag == 1 else f"{mag}·{key_str(key)}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(("+ " if coeff > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class BaseElement(LinearCombination):
    """A finite K-linear combination of monomials, kept in canonical form.

    Forms a commutative unital ring.
    """

    __slots__ = ()

    @staticmethod
    def _check_key(mono):
        if not isinstance(mono, Monomial):
            raise TypeError(f"expected Monomial key, got {mono!r}")
        return mono

    @classmethod
    def unit(cls) -> "BaseElement":
        return cls(((MONO_UNIT, 1),))

    @classmethod
    def from_monomial(cls, mono: Monomial, coeff=1) -> "BaseElement":
        return cls(((mono, coeff),))

    def terms(self):
        """Term list in canonical monomial order."""
        return self._sorted_terms(lambda mono: mono.sort_key)

    def __str__(self):
        return self._format(str)

    def __mul__(self, other):
        if isinstance(other, BaseElement):
            products = (
                (m1 * m2, c1 * c2)
                for m1, c1 in self._terms.items()
                for m2, c2 in other._terms.items()
            )
            return BaseElement._trusted(accumulate({}, products))
        return self._scale(other)
