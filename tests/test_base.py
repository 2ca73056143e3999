"""Base algebra: monomials, ordering, and the polynomial ring."""

import copy
import gc
import itertools
import pickle
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nijalg import BaseElement, MONO_UNIT, Monomial, ReservedSymbolError, gen


def monomials_up_to_degree(max_deg, gens=("a", "b")):
    out = []
    for exps in itertools.product(range(max_deg + 1), repeat=len(gens)):
        if sum(exps) <= max_deg:
            out.append(Monomial(zip(gens, exps)))
    return out


def test_unit_monomial():
    e = Monomial.unit()
    a = gen("a")
    assert e.is_unit()
    assert e * a == a
    assert e * e == e
    assert str(e) == "e"


def test_mono_mul_examples():
    a, b, c = gen("a"), gen("b"), gen("c")
    assert a * b == Monomial({"a": 1, "b": 1})
    assert a * a == Monomial({"a": 2})
    assert (a * b) * c == a * (b * c)


def test_mono_mul_commutative_associative_exhaustive():
    monos = monomials_up_to_degree(3)
    for x, y in itertools.product(monos, repeat=2):
        assert x * y == y * x
    for x, y, z in itertools.product(monos, repeat=3):
        assert (x * y) * z == x * (y * z)


def test_mono_order_examples():
    a, b = gen("a"), gen("b")
    assert MONO_UNIT < a
    assert a * a < a * b  # equal degree, lex tie-break on expanded letters
    assert b < a * a  # degree 1 < 2


def test_mono_order_is_total():
    monos = monomials_up_to_degree(3)
    for x, y in itertools.product(monos, repeat=2):
        assert (x < y) + (y < x) + (x == y) == 1
        if x < y:
            assert not y < x
    for x, y, z in itertools.product(monos, repeat=3):
        if x < y and y < z:
            assert x < z
    assert min(monos) == MONO_UNIT


def expanded_key(mono):
    """The documented order: degree, then the fully expanded letter sequence."""
    return (mono.degree, tuple(g for g, n in mono.exponents for _ in range(n)))


monomials = st.dictionaries(
    st.sampled_from(["a", "b", "c", "x_1"]), st.integers(1, 4), max_size=3
).map(Monomial)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(monomials, monomials)
def test_order_matches_the_expanded_letter_sequence(x, y):
    kx, ky = expanded_key(x), expanded_key(y)
    assert (x < y, x <= y, x > y, x >= y) == (kx < ky, kx <= ky, kx > ky, kx >= ky)


def test_sort_key_does_not_grow_with_the_exponents():
    huge = Monomial({"a": 10**20, "b": 3})
    assert huge.degree == 10**20 + 3
    assert huge.sort_key == (10**20 + 3, (("a", -(10**20)), ("b", -3)))
    assert gen("b") < Monomial({"a": 10**20 + 3}) < huge < Monomial({"b": 10**20 + 3})
    assert str(huge) == "[a^100000000000000000000 b^3]"


def test_reserved_and_invalid_generator_names():
    with pytest.raises(ReservedSymbolError):
        gen("e")
    for bad in ("", "A", "1a", "a-b"):
        with pytest.raises(ValueError):
            gen(bad)
    # 'e1' is an ordinary generator, only the bare 'e' is reserved
    assert gen("e1") == Monomial({"e1": 1})


def test_monomial_rejects_negative_exponent():
    with pytest.raises(ValueError):
        Monomial({"a": -1})


def test_base_mul_examples():
    a, b = gen("a"), gen("b")
    pa = BaseElement.from_monomial(a, 2)
    pb = BaseElement.from_monomial(b, 3)
    assert pa * pb == BaseElement.from_monomial(a * b, 6)
    p = BaseElement([(a, 1), (b, 1)])
    q = BaseElement([(a, 1), (b, -1)])
    assert p * q == BaseElement([(a * a, 1), (b * b, -1)])
    assert p * BaseElement.unit() == p


def _random_base_element(rng, monos):
    return BaseElement(
        (rng.choice(monos), Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
        for _ in range(rng.randint(0, 3))
    )


def test_base_ring_axioms_random():
    rng = random.Random(20240817)
    monos = monomials_up_to_degree(2)
    one = BaseElement.unit()
    zero = BaseElement.zero()
    for _ in range(1000):
        p = _random_base_element(rng, monos)
        q = _random_base_element(rng, monos)
        r = _random_base_element(rng, monos)
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p + zero == p
        assert p - p == zero
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p * one == p


def test_normalization_idempotent():
    a = gen("a")
    p = BaseElement([(a, 1), (a, 2), (a, -3)])
    assert p == BaseElement.zero()
    assert not p


def test_monomial_str_forms():
    a, b = gen("a"), gen("b")
    assert str(a) == "a"
    assert str(a * a) == "a^2"
    assert str(a * b) == "[a b]"
    assert str(a * a * b) == "[a^2 b]"


def test_monomials_are_interned():
    a, b = gen("a"), gen("b")
    assert Monomial({"a": 1, "b": 1}) is a * b
    assert Monomial([("a", 1), ("a", 1)]) is a**2 is a * a
    assert Monomial({"a": 0}) is MONO_UNIT is a**0
    assert Monomial.__hash__ is object.__hash__
    assert Monomial.__eq__ is object.__eq__


def test_copy_and_pickle_return_the_interned_monomial():
    mono = Monomial({"a": 2, "b": 1})
    assert copy.copy(mono) is mono
    assert copy.deepcopy(mono) is mono
    assert pickle.loads(pickle.dumps(mono)) is mono
    word = (MONO_UNIT, mono, gen("c"))
    assert all(x is y for x, y in zip(pickle.loads(pickle.dumps(word)), word))
    # unpickled exponents are checked like any other constructor input
    rebuild, _ = mono.__reduce__()
    with pytest.raises(ValueError):
        rebuild((("a", -1),))


def test_intern_table_holds_only_live_monomials():
    from nijalg import base

    mono = Monomial({"unreferenced": 7})
    ref = weakref.ref(mono)
    assert (("unreferenced", 7),) in base._INTERNED
    del mono
    gc.collect()
    assert ref() is None
    assert (("unreferenced", 7),) not in base._INTERNED
    # a new instance is built, checked and interned again
    assert Monomial({"unreferenced": 7}).exponents == (("unreferenced", 7),)
    with pytest.raises(ValueError):
        Monomial({"unreferenced": -7})
