"""Differential tests of the closed-form φ̃ and the diagonal target operators.

The reference is the letter-by-letter Horner evaluation
φ(a₁)·N(φ(a₂)·N(…·N(φ(aₙ))…)) with the operators written as their defining
formulas (R keeps the masked coordinates, N_τ = R − τ(1 − R), λR), on plain
tuples of Fractions, so it shares no arithmetic with the code under test.
"""

import random
from fractions import Fraction

import pytest

from nijalg import (
    MONO_UNIT,
    Monomial,
    NijenhuisTarget,
    TensorElement,
    VectorAlgebraElement,
    left_multiplication,
    make_n_tau,
    phi_extend,
)
from nijalg.suites import MASKS, RB_LAMBDAS, TAUS

GENERATORS = ("a", "b", "c")


def ref_projection(mask):
    return lambda v: tuple(c if i in mask else Fraction(0) for i, c in enumerate(v))


def ref_n_tau(mask, tau):
    proj = ref_projection(mask)

    def n_tau(v):
        rv = proj(v)
        return tuple(r - tau * (c - r) for r, c in zip(rv, v))

    return n_tau


def ref_scaled_projection(mask, lam):
    proj = ref_projection(mask)
    return lambda v: tuple(lam * c for c in proj(v))


def _mul(u, v):
    return tuple(a * b for a, b in zip(u, v))


def ref_phi_monomial(target, mono):
    acc = (Fraction(1),) * target.dim
    for name, exp in mono.exponents:
        acc = _mul(acc, tuple(c ** exp for c in target.images[name].coords))
    return acc


def ref_phi_extend(target, x, op):
    total = (Fraction(0),) * target.dim
    for word, coeff in x.iterterms():
        acc = ref_phi_monomial(target, word[-1])
        for mono in word[-2::-1]:
            acc = _mul(ref_phi_monomial(target, mono), op(acc))
        total = tuple(t + coeff * a for t, a in zip(total, acc))
    return VectorAlgebraElement(total)


def _rational(rng, zero_share=0.2):
    if rng.random() < zero_share:
        return Fraction(0)
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


def _vector(rng, dim):
    return VectorAlgebraElement(_rational(rng) for _ in range(dim))


def _images(rng, dim):
    return {g: _vector(rng, dim) for g in GENERATORS}


def _letter(rng):
    """A monomial on up to three generators, sometimes the unit letter e."""
    if rng.random() < 0.2:
        return MONO_UNIT
    exps = {g: rng.randint(0, 2) for g in rng.sample(GENERATORS, rng.randint(1, 3))}
    return Monomial(exps) if any(exps.values()) else MONO_UNIT


def _augmented(rng, max_len=6):
    terms = []
    for _ in range(rng.randint(1, 5)):
        word = tuple(_letter(rng) for _ in range(rng.randint(1, max_len)))
        coeff = _rational(rng, zero_share=0) or Fraction(1)
        terms.append((word, coeff))
    return TensorElement(terms)


def _elements(rng, count):
    return [x for x in (_augmented(rng) for _ in range(count)) if x]


def test_phi_extend_matches_horner_on_k4_targets():
    rng = random.Random(20261017)
    for mask in MASKS:
        images = _images(rng, 4)
        xs = _elements(rng, 12)
        for tau in TAUS:
            target = NijenhuisTarget(dim=4, mask=mask, tau=tau, images=images)
            ref = ref_n_tau(mask, tau)
            for x in xs:
                want = ref_phi_extend(target, x, ref)
                assert phi_extend(target, x) == want
                assert phi_extend(target, x, make_n_tau(target)) == want
        target = NijenhuisTarget(dim=4, mask=mask, tau=0, images=images)
        for x in xs:
            assert phi_extend(target, x, target.projection()) == ref_phi_extend(
                target, x, ref_projection(mask)
            )
            for lam in RB_LAMBDAS:
                op = target.scaled_projection(lam)
                assert phi_extend(target, x, op) == ref_phi_extend(
                    target, x, ref_scaled_projection(mask, lam)
                )


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 7])
def test_phi_extend_matches_horner_in_other_dimensions(dim):
    rng = random.Random(dim)
    for _ in range(6):
        mask = frozenset(i for i in range(dim) if rng.random() < 0.5)
        tau = _rational(rng)
        lam = _rational(rng)
        target = NijenhuisTarget(dim=dim, mask=mask, tau=tau, images=_images(rng, dim))
        for x in _elements(rng, 8):
            assert phi_extend(target, x) == ref_phi_extend(target, x, ref_n_tau(mask, tau))
            assert phi_extend(target, x, target.scaled_projection(lam)) == ref_phi_extend(
                target, x, ref_scaled_projection(mask, lam)
            )


def test_phi_extend_result_has_fraction_coordinates():
    rng = random.Random(4)
    mask = frozenset({1})
    target = NijenhuisTarget(dim=4, mask=mask, tau=Fraction(-2), images=_images(rng, 4))
    for x in _elements(rng, 10):
        value = phi_extend(target, x)
        assert all(type(c) is Fraction for c in value.coords)
        assert str(value) == str(ref_phi_extend(target, x, ref_n_tau(mask, Fraction(-2))))


def test_phi_extend_rejects_operators_without_a_diagonal():
    rng = random.Random(6)
    target = NijenhuisTarget(dim=4, mask=frozenset({0}), tau=1, images=_images(rng, 4))
    x = TensorElement.from_word((Monomial({"a": 1}), Monomial({"b": 1})))
    for op in (left_multiplication(target.images["a"]), lambda v: v):
        with pytest.raises(TypeError):
            phi_extend(target, x, op)
    other = NijenhuisTarget(dim=3, mask=frozenset({0}), tau=1, images=_images(rng, 3))
    with pytest.raises(TypeError):
        phi_extend(target, x, make_n_tau(other))


def test_diagonal_operators_match_their_formulas():
    rng = random.Random(11)
    for mask in MASKS:
        images = _images(rng, 4)
        vectors = [_vector(rng, 4) for _ in range(20)]
        for tau in TAUS + (Fraction(-1), Fraction(2, 7)):
            target = NijenhuisTarget(dim=4, mask=mask, tau=tau, images=images)
            n_tau, proj = make_n_tau(target), target.projection()
            for v in vectors:
                rv = proj(v)
                assert rv == VectorAlgebraElement(ref_projection(mask)(v.coords))
                assert n_tau(v) == rv - tau * (v - rv)
                assert n_tau(v) == VectorAlgebraElement(ref_n_tau(mask, tau)(v.coords))
        for lam in RB_LAMBDAS + (Fraction(-3, 2),):
            op = target.scaled_projection(lam)
            for v in vectors:
                assert op(v) == lam * target.projection()(v)
                ref = ref_scaled_projection(mask, lam)
                assert op(v) == VectorAlgebraElement(ref(v.coords))


def test_vector_arithmetic_matches_coercing_constructor():
    rng = random.Random(13)
    for dim in (1, 4, 6):
        for _ in range(50):
            u, v = _vector(rng, dim), _vector(rng, dim)
            s = rng.choice((0, 3, -2, 0.5, Fraction(2, 3), _rational(rng)))
            cases = [
                (u + v, [a + b for a, b in zip(u.coords, v.coords)]),
                (u - v, [a - b for a, b in zip(u.coords, v.coords)]),
                (-u, [-a for a in u.coords]),
                (u * v, [a * b for a, b in zip(u.coords, v.coords)]),
                (u * s, [a * Fraction(s) for a in u.coords]),
                (s * u, [Fraction(s) * a for a in u.coords]),
            ]
            for exp in (0, 1, 2, 3):
                cases.append((u ** exp, [a ** exp for a in u.coords]))
            if all(u.coords):
                cases.append((u ** -1, [1 / a for a in u.coords]))
            for got, coords in cases:
                want = VectorAlgebraElement(coords)
                assert got == want and hash(got) == hash(want) and str(got) == str(want)
                assert all(type(c) is Fraction for c in got.coords)
