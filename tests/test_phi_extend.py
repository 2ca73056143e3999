"""Differential tests of the closed-form φ̃, its integer core (an integer
numerator over a positive denominator per coordinate, from the letter stage
and the per-point evaluator), and the diagonal target operators.

The reference is the letter-by-letter Horner evaluation
φ(a₁)·N(φ(a₂)·N(…·N(φ(aₙ))…)) with the operators written as their defining
formulas (R keeps the masked coordinates, N_τ = R − τ(1 − R), λR), on plain
tuples of Fractions, so it shares no arithmetic with the code under test.
"""

import random
from fractions import Fraction

import pytest

from nijalg import (
    EmptyWordTermError,
    MONO_UNIT,
    Monomial,
    NijenhuisTarget,
    TensorElement,
    UnmappedGeneratorError,
    VectorAlgebraElement,
    aug_mod_quasi_shuffle,
    gen,
    make_n_tau,
    phi_extend,
    universal_property_check,
)
from nijalg import operators
from nijalg.operators import DiagonalOperator, _at_points, _letter_stage
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
            assert phi_extend(target, x, target.scaled_projection(1)) == ref_phi_extend(
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


def test_phi_extend_matches_horner_on_any_diagonal():
    # a diagonal whose entries have coprime denominators: each coordinate's
    # value has its own denominator, and the vector is over their lcm
    rng = random.Random(17)
    for _ in range(10):
        entries = [Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 5, 7))) for _ in range(4)]
        target = NijenhuisTarget(dim=4, mask=frozenset(), tau=0, images=_images(rng, 4))
        operator = DiagonalOperator("drawn", VectorAlgebraElement(entries))
        ref = lambda v: tuple(d * c for d, c in zip(entries, v))
        for x in _elements(rng, 8):
            assert phi_extend(target, x, operator) == ref_phi_extend(target, x, ref)


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
    v = target.images["a"]
    for op in (lambda x: v * x, lambda x: x):
        with pytest.raises(TypeError):
            phi_extend(target, x, op)
    other = NijenhuisTarget(dim=3, mask=frozenset({0}), tau=1, images=_images(rng, 3))
    with pytest.raises(TypeError):
        phi_extend(target, x, make_n_tau(other))


def _integer_core(target, operator):
    """φ̃ in exact integers: the letter stage and ``_at_points`` at the
    (coordinate, numerator, denominator) point of each diagonal entry,
    composed as ``phi_extend`` composes them, keeping the letter stage's
    memos across calls."""
    letters = _letter_stage(target)
    points = [(i, d.numerator, d.denominator) for i, d in enumerate(operator.diagonal.coords)]
    return lambda x: _at_points(letters(x), points)


def _core_value(phi, x):
    """The integer core's value as a vector, after checking its form."""
    values = phi(x)
    assert all(type(n) is int and type(d) is int and d > 0 for n, d in values)
    return VectorAlgebraElement(Fraction(n, d) for n, d in values)


def _core_cases(mask, tau, lam):
    """(operator, Horner reference operator) for N_τ, R and λR on ``mask``."""
    return (
        (make_n_tau, ref_n_tau(mask, tau)),
        (lambda t: t.scaled_projection(1), ref_projection(mask)),
        (lambda t: t.scaled_projection(lam), ref_scaled_projection(mask, lam)),
    )


@pytest.mark.parametrize(
    "mask, tau, lam",
    [
        # fractional diagonals
        (frozenset({0, 1}), Fraction(5, 3), Fraction(2, 3)),
        (frozenset({0}), Fraction(-2), Fraction(2, 3)),
        # zero diagonal entries: N_0 and R vanish off the mask, λR everywhere
        # at λ = 0, and with the empty mask every diagonal is zero
        (frozenset(), Fraction(0), Fraction(0)),
        (frozenset(range(4)), Fraction(0), Fraction(0)),
        (frozenset({1, 3}), Fraction(0), Fraction(0)),
    ],
)
def test_integer_core_matches_horner(mask, tau, lam):
    rng = random.Random(f"{sorted(mask)} {tau} {lam}")
    target = NijenhuisTarget(dim=4, mask=mask, tau=tau, images=_images(rng, 4))
    # multi-term elements with non-unit rational coefficients, and zero
    xs = _elements(rng, 20) + [TensorElement.zero()]
    assert any(len(x.iterterms()) > 1 for x in xs)
    assert any(c.denominator > 1 for x in xs for _, c in x.iterterms())
    for make_op, ref in _core_cases(mask, tau, lam):
        op = make_op(target)
        phi = _integer_core(target, op)
        for x in xs:
            want = ref_phi_extend(target, x, ref)
            assert _core_value(phi, x) == want
            assert phi_extend(target, x, op) == want
        assert _core_value(phi, TensorElement.zero()) == VectorAlgebraElement([0] * 4)


def test_integer_core_errors():
    rng = random.Random(9)
    target = NijenhuisTarget(dim=4, mask=frozenset({0}), tau=1, images=_images(rng, 4))
    phi = _integer_core(target, make_n_tau(target))
    a = Monomial({"a": 1})
    with pytest.raises(EmptyWordTermError):
        phi(TensorElement([((a,), 1), ((), 2)]))
    with pytest.raises(UnmappedGeneratorError):
        phi(TensorElement.from_word((a, gen("zz"))))
    # a failed call leaves the memo usable
    x = _augmented(rng)
    assert _core_value(phi, x) == ref_phi_extend(target, x, ref_n_tau(target.mask, 1))


def test_each_target_gets_its_own_values(monkeypatch):
    rng = random.Random(15)
    mask, tau = frozenset({0, 1}), Fraction(5, 3)
    first, second = (
        NijenhuisTarget(dim=4, mask=mask, tau=tau, images=_images(rng, 4)) for _ in range(2)
    )
    assert first.images != second.images
    xs = _elements(rng, 10)
    ref = ref_n_tau(mask, tau)
    phis = [(t, _integer_core(t, make_n_tau(t))) for t in (first, second, first)]
    for target, phi in phis:
        for x in xs:
            assert _core_value(phi, x) == ref_phi_extend(target, x, ref)
    # checked one after the other: under a doubled product each
    # multiplicative defect is the target's own φ̃(x)·φ̃(y), or None when
    # that is zero
    monkeypatch.setattr(
        operators, "aug_mod_quasi_shuffle", lambda x, y: 2 * aug_mod_quasi_shuffle(x, y)
    )
    pairs = list(zip(xs, reversed(xs)))
    for target in (first, second):
        defects = [mult for mult, _ in universal_property_check([target], pairs)[0]]
        assert defects == [
            ref_phi_extend(target, x, ref) * ref_phi_extend(target, y, ref) or None
            for x, y in pairs
        ]


def test_diagonal_operators_match_their_formulas():
    rng = random.Random(11)
    for mask in MASKS:
        images = _images(rng, 4)
        vectors = [_vector(rng, 4) for _ in range(20)]
        for tau in TAUS + (Fraction(-1), Fraction(2, 7)):
            target = NijenhuisTarget(dim=4, mask=mask, tau=tau, images=images)
            n_tau, proj = make_n_tau(target), target.scaled_projection(1)
            for v in vectors:
                rv = proj(v)
                assert rv == VectorAlgebraElement(ref_projection(mask)(v.coords))
                assert n_tau(v) == rv - tau * (v - rv)
                assert n_tau(v) == VectorAlgebraElement(ref_n_tau(mask, tau)(v.coords))
        for lam in RB_LAMBDAS + (Fraction(-3, 2),):
            op = target.scaled_projection(lam)
            for v in vectors:
                assert op(v) == lam * target.scaled_projection(1)(v)
                ref = ref_scaled_projection(mask, lam)
                assert op(v) == VectorAlgebraElement(ref(v.coords))


def test_vector_arithmetic_matches_coercing_constructor():
    rng = random.Random(13)
    for dim in (1, 4, 6):
        for _ in range(50):
            u, v = _vector(rng, dim), _vector(rng, dim)
            s = rng.choice((0, 3, -2, "1/2", Fraction(2, 3), _rational(rng)))
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


def test_vector_power_refuses_a_non_integer_exponent():
    # a float exponent would give float coordinates, (2.0, 0.5) here
    u = VectorAlgebraElement([4, Fraction(1, 4)])
    for exp in (0.5, 2.0, "2"):
        with pytest.raises(TypeError):
            u ** exp
    assert u ** 2 == VectorAlgebraElement([16, Fraction(1, 16)])


@pytest.mark.parametrize(
    "combine",
    [lambda u, v: u + v, lambda u, v: u - v, lambda u, v: u * v],
    ids=["add", "sub", "mul"],
)
def test_vector_arithmetic_refuses_mismatched_dimensions(combine):
    # zip alone would truncate: (1, 2, 3) + (1, 2) read (2, 4), and
    # (1, 2, 3) * (5) read (5)
    for u, v in (
        (VectorAlgebraElement([1, 2, 3]), VectorAlgebraElement([1, 2])),
        (VectorAlgebraElement([1, 2, 3]), VectorAlgebraElement([5])),
        (VectorAlgebraElement([1]), VectorAlgebraElement.unit(4)),
    ):
        for left, right in ((u, v), (v, u)):
            with pytest.raises(ValueError, match="dimension mismatch"):
                combine(left, right)
    u = VectorAlgebraElement([1, 2, 3])
    assert combine(u, u) == VectorAlgebraElement([combine(a, a) for a in (1, 2, 3)])


@pytest.mark.parametrize("other", [1, Fraction(1, 2), None, (1, 2, 3)])
def test_vector_sums_refuse_a_non_vector_operand(other):
    # a scalar scales a vector, but is not added to one: both sides of + and
    # - raise TypeError, not an AttributeError from inside the sum
    u = VectorAlgebraElement([1, 2, 3])
    for combine in (
        lambda: u + other,
        lambda: other + u,
        lambda: u - other,
        lambda: other - u,
    ):
        with pytest.raises(TypeError):
            combine()
