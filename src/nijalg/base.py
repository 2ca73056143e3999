"""Monomials: the basis of the free commutative unital base algebra K[S].

The base algebra is the polynomial algebra over a set of named generators;
its basis consists of commutative monomials, with the empty monomial
``MONO_UNIT`` acting as the unit ``e``.  A word letter is always a single
monomial, so the algebra itself needs no element class.  Monomials are
interned, so equal monomials are one object.  ``exact``, ``ratio`` and
``rational_text`` give a scalar's canonical form, its ints p/q and its text,
and ``accumulate`` is the one loop that adds terms into a term map and drops
the zeros.
"""

from __future__ import annotations

import operator
import re
import sys
import weakref
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Tuple, Union

from .errors import ReservedSymbolError

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
            exp = operator.index(exp)  # an int, never a truncated float or string
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

    @property
    def exponents(self) -> Tuple[Tuple[str, int], ...]:
        return self._pairs

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
        exp = operator.index(exp)
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

MONO_UNIT = Monomial()


def gen(name: str) -> Monomial:
    """Degree-1 monomial for a single generator."""
    return Monomial(((name, 1),))


def exact(c):
    """The canonical form of the rational scalar ``c``: an ``int`` when it is
    integral, else a ``Fraction`` with denominator > 1.

    Every scalar enters the tensor module through here, and is then kept as
    integer numerators over a shared denominator.
    A float raises ``TypeError``: its binary value is not the decimal it shows.
    """
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        if isinstance(c, float):
            raise TypeError(f"{c!r} is a float, not an exact rational; pass Fraction(\"{c!r}\")")
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def ratio(c) -> Tuple[int, int]:
    """The ints (p, q) of the rational scalar ``c`` = p/q in lowest terms, q ≥ 1:
    the one place a scalar is split.  A float raises ``TypeError``, as in ``exact``."""
    if type(c) is int:
        return c, 1
    if type(c) is not Fraction:
        c = Fraction(exact(c))
    return c.numerator, c.denominator


def rational_text(n: int, d: int) -> str:
    """n/d as text, for ints n and d ≥ 1: in lowest terms, the sign on the
    numerator and no ``/1``, as ``str(Fraction(n, d))`` prints it."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


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


class Record(tuple):
    """An immutable tuple of named ``_fields``, equal only to records of its type."""

    __slots__ = ()

    def __new__(cls, *fields):
        return tuple.__new__(cls, fields)

    def __getnewargs__(self):  # copy and unpickling call the constructor
        return tuple(self)

    def __eq__(self, other):
        return type(self) is type(other) and tuple.__eq__(self, other)

    __ne__ = object.__ne__  # the inverse of __eq__, where tuple's compares items alone
    __hash__ = tuple.__hash__

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__name__}({fields})"


def record_class(name: str, *fields: str) -> type:
    """A slotted ``Record`` subclass, in the caller's module, with these fields."""
    namespace = {field: property(operator.itemgetter(i)) for i, field in enumerate(fields)}
    module = sys._getframe(1).f_globals["__name__"]
    namespace.update(__slots__=(), _fields=fields, __module__=module)
    return type(name, (Record,), namespace)
