"""Relation checkers, concrete operators, and the universal property."""

import random
from fractions import Fraction
from operator import mul as vec_mul

import pytest
from hypothesis import example, given, settings, strategies as st

from nijalg import (
    EmptyWordTermError,
    MONO_UNIT,
    NijenhuisTarget,
    TensorElement,
    UnmappedGeneratorError,
    VectorAlgebraElement,
    aug_mod_quasi_shuffle,
    aug_quasi_shuffle,
    b_plus,
    factorization_check,
    gen,
    hochschild_coboundary,
    make_n_tau,
    mod_quasi_shuffle,
    nijenhuis_defect,
    nijenhuis_torsion,
    phi_extend,
    quasi_shuffle,
    rb_universal_check,
    rota_baxter_defect,
    universal_property_check,
)
from nijalg import operators
from nijalg.operators import DiagonalOperator
from conftest import te, words_over

ZERO4 = VectorAlgebraElement([0] * 4)


def _vec(rng, dim=4):
    return VectorAlgebraElement(
        Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim)
    )


def _target(mask, tau, images=None):
    if images is None:
        images = {
            "a": VectorAlgebraElement([1, 2, Fraction(-1, 2), 3]),
            "b": VectorAlgebraElement([0, 1, Fraction(5, 3), -2]),
        }
    return NijenhuisTarget(dim=4, mask=frozenset(mask), tau=Fraction(tau), images=images)


def _aug_pairs(gens, max_total):
    ws = words_over(gens, max_total, 1)
    return [(x, y) for x in ws for y in ws if len(x) + len(y) <= max_total]


def test_nijenhuis_defect_shift_operator(ab):
    a, b = ab
    assert (
        nijenhuis_defect(b_plus, aug_mod_quasi_shuffle, te(a), te(b))
        == TensorElement.zero()
    )
    for x, y in _aug_pairs(ab, 4):
        assert (
            nijenhuis_defect(b_plus, aug_mod_quasi_shuffle, te(*x), te(*y))
            == TensorElement.zero()
        )


def test_nijenhuis_defect_identity_and_multiplications():
    rng = random.Random(7)
    assert nijenhuis_defect(lambda v: v, vec_mul, _vec(rng), _vec(rng)) == ZERO4
    for _ in range(500):
        v, x, y = _vec(rng), _vec(rng), _vec(rng)
        assert nijenhuis_defect(lambda u: v * u, vec_mul, x, y) == ZERO4
        assert nijenhuis_defect(lambda u: u * v, vec_mul, x, y) == ZERO4


def test_rota_baxter_defect_examples(ab):
    a, b = ab
    mul = lambda u, v: aug_quasi_shuffle(u, v, Fraction(2, 3))
    assert (
        rota_baxter_defect(b_plus, mul, Fraction(2, 3), te(a), te(b))
        == TensorElement.zero()
    )
    rng = random.Random(11)
    zero_op = lambda v: 0 * v
    assert rota_baxter_defect(zero_op, vec_mul, 7, _vec(rng), _vec(rng)) == ZERO4
    proj = _target({0, 2}, 0).scaled_projection(1)
    for _ in range(200):
        assert rota_baxter_defect(proj, vec_mul, 1, _vec(rng), _vec(rng)) == ZERO4


def test_rota_baxter_shift_operator_sweep(ab):
    for lam in (Fraction(0), Fraction(1), Fraction(-1), Fraction(2, 3)):
        mul = lambda u, v: aug_quasi_shuffle(u, v, lam)
        for x, y in _aug_pairs(ab, 4):
            assert rota_baxter_defect(b_plus, mul, lam, te(*x), te(*y)) == TensorElement.zero()


def test_n_tau_special_cases():
    rng = random.Random(3)
    v = _vec(rng)
    target = _target({0, 1}, 0)
    assert make_n_tau(target)(v) == target.scaled_projection(1)(v)
    assert make_n_tau(_target({0, 1}, -1))(v) == v
    for tau in (0, 1, Fraction(5, 3)):
        assert make_n_tau(_target(range(4), tau))(v) == v


def test_n_tau_is_nijenhuis():
    rng = random.Random(99)
    masks = [set(), {0}, {0, 1}, set(range(4))]
    taus = [Fraction(0), Fraction(1), Fraction(-2), Fraction(5, 3)]
    for mask in masks:
        for tau in taus:
            op = make_n_tau(_target(mask, tau))
            for _ in range(32):
                assert nijenhuis_defect(op, vec_mul, _vec(rng), _vec(rng)) == ZERO4


def test_scaled_projection_has_its_weight():
    rng = random.Random(5)
    target = _target({1, 3}, 0)
    for lam in (Fraction(0), Fraction(1), Fraction(2, 3)):
        op = target.scaled_projection(lam)
        for _ in range(100):
            assert rota_baxter_defect(op, vec_mul, lam, _vec(rng), _vec(rng)) == ZERO4


def test_operator_linearity_spot_check(ab):
    rng = random.Random(42)
    target = _target({0, 2}, Fraction(3, 2))
    for op in (target.scaled_projection(1), make_n_tau(target), target.scaled_projection(2)):
        for _ in range(50):
            x, y = _vec(rng), _vec(rng)
            assert op(2 * x - 3 * y) == 2 * op(x) - 3 * op(y)
    for op in (b_plus,):
        for _ in range(50):
            x = te(*rng.choice(words_over(ab, 3, 1)))
            y = te(*rng.choice(words_over(ab, 3, 1)))
            assert op(2 * x - 3 * y) == 2 * op(x) - 3 * op(y)


def test_hochschild_coboundary_trivial(ab):
    a, b = ab
    x, y, z = te(a), te(b), te(a, b)
    mul = lambda u, v: quasi_shuffle(u, v, 1)
    zero_map = lambda u, v: TensorElement.zero()
    assert hochschild_coboundary(zero_map, mul, x, y, z) == TensorElement.zero()
    assert hochschild_coboundary(mul, mul, x, y, z) == TensorElement.zero()


def test_torsion_is_a_cocycle(ab):
    torsion = lambda u, v: nijenhuis_torsion(u, v, b_plus, aug_mod_quasi_shuffle)
    ws = words_over(ab, 4, 1)
    for x in ws:
        for y in ws:
            if len(x) + len(y) > 3:
                continue
            for z in ws:
                if len(x) + len(y) + len(z) <= 4:
                    assert (
                        hochschild_coboundary(
                            torsion, aug_mod_quasi_shuffle, te(*x), te(*y), te(*z)
                        )
                        == TensorElement.zero()
                    )


def test_mixed_product_operator_consistency(ab):
    # B+ is also Nijenhuis for ⊛ and Rota-Baxter for * on the full module
    for x, y in _aug_pairs(ab, 4):
        mul = lambda u, v: mod_quasi_shuffle(u, v, 1)
        assert nijenhuis_defect(b_plus, mul, te(*x), te(*y)) == TensorElement.zero()
        for lam in (Fraction(1), Fraction(-1)):
            qmul = lambda u, v: quasi_shuffle(u, v, lam)
            assert rota_baxter_defect(b_plus, qmul, lam, te(*x), te(*y)) == TensorElement.zero()


def test_phi_monomial_and_extend_examples(ab):
    a, b = ab
    target = _target({0, 1}, Fraction(3, 2))
    op = make_n_tau(target)
    phi_a = target.images["a"]
    phi_b = target.images["b"]
    assert phi_extend(target, te(a)) == phi_a
    assert phi_extend(target, te(MONO_UNIT, a)) == op(phi_a)
    assert phi_extend(target, te(a, b)) == phi_a * op(phi_b)
    assert phi_extend(target, te(a * a)) == phi_a * phi_a


def test_phi_extend_errors(ab):
    a, _ = ab
    target = _target({0}, 1)
    with pytest.raises(EmptyWordTermError):
        phi_extend(target, te())
    with pytest.raises(UnmappedGeneratorError):
        phi_extend(target, te(gen("zz")))


def test_factorization_examples():
    a, b, c = gen("a"), gen("b"), gen("c")
    assert factorization_check((a,)) == te(a)
    assert factorization_check((a, b)) == te(a, b)
    assert factorization_check((a, b, c)) == te(a, b, c)
    with pytest.raises(EmptyWordTermError):
        factorization_check(())


def test_factorization_sweep(ab):
    for w in words_over(list(ab) + [MONO_UNIT], 4, 1):
        assert factorization_check(w) == te(*w)


def test_universal_property_small(ab):
    a, b = ab
    target = _target({0, 1}, Fraction(3, 2))
    pairs = [(te(a), te(b)), (te(a, b), te(b)), (te(a, b), te(b, a))]
    assert universal_property_check([target], pairs)[0] == [(None, None)] * len(pairs)
    # unit law: X ⊠ e maps to φ̃(X)
    op = make_n_tau(target)
    x = te(a, b, a)
    assert phi_extend(target, aug_mod_quasi_shuffle(x, te(MONO_UNIT))) == phi_extend(
        target, x
    )


def test_rb_universal_small(ab):
    a, b = ab
    pairs = [(te(a), te(b)), (te(a, b), te(b, a)), (te(b, b), te(a))]
    for lam in (Fraction(0), Fraction(1), Fraction(2, 3)):
        target = _target({0, 1}, 0)
        assert rb_universal_check([lam], [target], pairs)[0] == [(None, None)] * len(pairs)
    # λ = 1 with the full mask makes the operator the identity
    target = _target(range(4), 0)
    op = target.scaled_projection(1)
    x = te(a, b)
    assert phi_extend(target, b_plus(x), op) == phi_extend(target, x, op)


def test_operator_scalars_refuse_floats(ab):
    a, b = ab
    target = _target({0, 1}, 0)
    pairs = [(te(a), te(b))]
    for build in (
        lambda: VectorAlgebraElement.unit(4) * 0.5,
        lambda: NijenhuisTarget(4, frozenset(), 0.5, target.images),
        lambda: target.scaled_projection(0.5),
        lambda: rb_universal_check([0.5], [target], pairs),
        lambda: rota_baxter_defect(b_plus, aug_quasi_shuffle, 0.5, te(a), te(b)),
    ):
        with pytest.raises(TypeError, match="float"):
            build()
    for lam in ("2/3", 1, Fraction(2, 3)):
        assert target.scaled_projection(lam).diagonal == target.scaled_projection(
            Fraction(lam)
        ).diagonal
        assert rb_universal_check([lam], [target], pairs)[0] == [(None, None)]


def test_target_mask_entries_are_coordinate_indices():
    images = _target({0}, 0).images
    for mask in ({4}, {-1}, {0, 7}):
        with pytest.raises(ValueError, match="projection mask out of range"):
            NijenhuisTarget(4, frozenset(mask), 0, images)
    # a non-integer entry would select no coordinate: the zero projection
    for mask in ({0.5}, {0, 1.0}, {"1"}):
        with pytest.raises(TypeError):
            NijenhuisTarget(4, frozenset(mask), 0, images)
    # the dimension is an int ≥ 0, and every image a vector: a float or a
    # string dimension would fail only inside a later check, at range()
    for dim in (2.0, "4"):
        with pytest.raises(TypeError):
            NijenhuisTarget(dim, frozenset(), 1, {})
    with pytest.raises(TypeError):
        NijenhuisTarget(2.0, {0}, 1, {"a": VectorAlgebraElement([1, 2])})
    with pytest.raises(ValueError, match="negative dimension"):
        NijenhuisTarget(-1, frozenset(), 1, {})
    with pytest.raises(TypeError, match="not a VectorAlgebraElement"):
        NijenhuisTarget(4, {0}, 1, {"a": [1, 2, 3, 4]})
    with pytest.raises(ValueError, match="image of 'a' has wrong dimension"):
        NijenhuisTarget(4, {0}, 1, {"a": VectorAlgebraElement([1, 2, 3])})
    assert NijenhuisTarget(0, frozenset(), 1, {}).dim == 0


def test_target_keeps_checked_copies_of_its_inputs(ab):
    a, _ = ab
    images, mask = {"a": VectorAlgebraElement([1, 2, 3, 4])}, {0, 1}
    target = NijenhuisTarget(4, mask, 1, images)
    # the caller's containers change after the checks; the target must not
    images["a"] = VectorAlgebraElement([1, 2])
    mask.add(7)
    assert target.images == {"a": VectorAlgebraElement([1, 2, 3, 4])} and target.mask == {0, 1}
    assert universal_property_check([target], [(te(a), te(a, a))])[0] == [(None, None)]


def test_target_is_an_unhashable_immutable_value():
    target = _target({0}, 1)
    assert target == NijenhuisTarget(4, frozenset({0}), Fraction(1), dict(target.images))
    assert target != _target({0}, 2)
    with pytest.raises(AttributeError):
        target.tau = Fraction(2)
    with pytest.raises(TypeError, match="unhashable type: 'NijenhuisTarget'"):
        hash(target)


def test_universal_check_refuses_an_operator_that_fails_its_relation(ab, monkeypatch):
    # 2 is neither 0 nor λ = 1, so this diagonal operator is not a weight-1
    # Rota-Baxter operator, and the sanity check must refuse it before any pair
    a, b = ab
    bad = DiagonalOperator("bad", VectorAlgebraElement([1, 2, 0, 0]))
    monkeypatch.setattr(NijenhuisTarget, "scaled_projection", lambda self, lam: bad)
    target = _target({0, 1}, 0)
    with pytest.raises(ValueError, match=r"target operator bad fails its relation"):
        rb_universal_check([1], [target], [(te(a), te(b))])


@pytest.mark.parametrize("lam, bad", [(1, 2), (Fraction(2, 3), Fraction(1, 3))])
def test_sanity_check_refuses_a_bad_entry_in_any_coordinate(lam, bad, ab, monkeypatch):
    # a weight-λ Rota-Baxter diagonal has every entry in {0, λ}; the check
    # must see a single entry outside that set, wherever it is
    a, b = ab
    target, pairs = _target({0, 1}, 0), [(te(a), te(b))]
    good = [lam, 0, lam, 0]
    for i in range(4):
        diagonal = good[:i] + [bad] + good[i + 1 :]
        operator = DiagonalOperator("bad", VectorAlgebraElement(diagonal))
        monkeypatch.setattr(NijenhuisTarget, "scaled_projection", lambda self, lam: operator)
        with pytest.raises(ValueError, match=r"target operator bad fails its relation"):
            rb_universal_check([lam], [target], pairs)
    operator = DiagonalOperator("good", VectorAlgebraElement(good))
    monkeypatch.setattr(NijenhuisTarget, "scaled_projection", lambda self, lam: operator)
    assert rb_universal_check([lam], [target], pairs)[0] == [(None, None)]


ENTRIES = (0, 1, -1, 2, Fraction(2, 3), Fraction(1, 3), Fraction(-5, 3))


def _refusal(check):
    """The message of the ValueError that ``check()`` raises, or None."""
    try:
        check()
    except ValueError as error:
        return str(error)
    return None


@settings(derandomize=True, deadline=None, database=None, max_examples=80)
@given(
    lam=st.sampled_from((0, 1, -1, Fraction(2, 3))),
    on=st.lists(st.booleans(), min_size=4, max_size=4),
    drawn=st.dictionaries(st.integers(0, 3), st.sampled_from(ENTRIES), max_size=4),
)
@example(lam=Fraction(2, 3), on=[True, False, False, True], drawn={})
@example(lam=-1, on=[True, False, True, False], drawn={3: 2})
def test_closed_form_relation_check_matches_the_all_ones_check(lam, on, drawn):
    # a diagonal d is refused exactly when the relation's defect on the
    # all-ones pair, c(dᵢ) per coordinate, is nonzero: never as a Nijenhuis
    # operator, and at weight λ wherever some dᵢ(λ − dᵢ) ≠ 0.  Entries are
    # λ or 0 where ``on`` says so, unless ``drawn`` replaces them
    diagonal = [drawn.get(i, lam if on[i] else 0) for i in range(4)]
    operator = DiagonalOperator("drawn", VectorAlgebraElement(diagonal))
    ones = VectorAlgebraElement.unit(4)
    target = _target({0, 1}, 0)
    pairs = [(TensorElement.from_word((gen("a"),)), TensorElement.from_word((gen("b"),)))]
    fails = "target operator drawn fails its relation"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(NijenhuisTarget, "scaled_projection", lambda self, lam: operator)
        mp.setattr(operators, "make_n_tau", lambda target: operator)
        defect = rota_baxter_defect(operator, vec_mul, lam, ones, ones)
        got = _refusal(lambda: rb_universal_check([lam], [target], pairs))
        assert got == (fails if defect else None)
        defect = nijenhuis_defect(operator, vec_mul, ones, ones)
        got = _refusal(lambda: universal_property_check([target], pairs))
        assert got == (fails if defect else None)


def test_mu_assoc_for_shift_operator(ab):
    from nijalg import mu_product

    mu = lambda u, v: mu_product(u, v, b_plus, aug_mod_quasi_shuffle)
    ws = words_over(ab, 4, 1)
    for x in ws:
        for y in ws:
            if len(x) + len(y) > 3:
                continue
            for z in ws:
                if len(x) + len(y) + len(z) <= 4:
                    assert mu(mu(te(*x), te(*y)), te(*z)) == mu(te(*x), mu(te(*y), te(*z)))
