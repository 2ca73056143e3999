"""Differential tests of the universal-property checks and their records.

The reference is the Fraction-vector check that the integer cross-multiplying
``_universal_check`` replaced, kept here verbatim with the ``phi_extend`` it
called: every φ̃ value is a vector of Fractions, both defects are always
computed by Fraction arithmetic, and every check gets a record.  The defect
pairs that the checks return must agree with those records check by check,
and the failure records that ``suites`` builds from them must equal the
reference's failing records in order and text.  Both are compared for the
real products and for product mutants that the K^4 targets catch, so the
failure path is exercised too.
"""

import random
from fractions import Fraction

import pytest

from nijalg import (
    EmptyWordTermError,
    NijenhuisTarget,
    TensorElement,
    VectorAlgebraElement,
    aug_mod_quasi_shuffle,
    aug_quasi_shuffle,
    b_plus,
    make_n_tau,
    mod_quasi_shuffle,
    nijenhuis_defect,
    phi_monomial,
    quasi_shuffle,
    rb_universal_check,
    rota_baxter_defect,
    universal_property_check,
    vec_mul,
)
from nijalg import operators
from nijalg.operators import DiagonalOperator, _operator_sanity
from nijalg.suites import (
    MASKS,
    RB_LAMBDAS,
    TAUS,
    _universal_results,
    random_augmented_pairs,
    random_images,
)


def ref_phi_extend(target, x, operator=None):
    if operator is None:
        operator = make_n_tau(target)
    if not isinstance(operator, DiagonalOperator) or operator.diagonal.dim != target.dim:
        raise TypeError(
            f"phi_extend needs a diagonal operator on K^{target.dim}, got {operator!r}"
        )
    diagonal = ref_pairs(operator.diagonal)
    powers = [((1, 1),) * target.dim]  # powers[k] = d^k
    images = {}  # letter -> φ(letter) as pairs
    sums = [{} for _ in range(target.dim)]  # per coordinate: denominator -> numerator
    for word, coeff in x.iterterms():
        if not word:
            raise EmptyWordTermError("phi_extend is defined on the augmented module only")
        while len(powers) < len(word):
            powers.append(
                tuple([(p * q, r * s) for (p, r), (q, s) in zip(powers[-1], diagonal)])
            )
        factors = [powers[len(word) - 1]]
        for mono in word:
            image = images.get(mono)
            if image is None:
                image = images[mono] = ref_pairs(phi_monomial(target, mono))
            factors.append(image)
        for i, by_den in enumerate(sums):
            num, den = coeff.numerator, coeff.denominator
            for image in factors:
                p, q = image[i]
                num *= p
                den *= q
            if num:
                by_den[den] = by_den.get(den, 0) + num
    return VectorAlgebraElement._trusted(
        tuple(
            sum((Fraction(num, den) for den, num in by_den.items()), Fraction(0))
            for by_den in sums
        )
    )


def ref_pairs(v):
    return tuple([(c.numerator, c.denominator) for c in v.coords])


def ref_universal_check(target, pairs, product, operator, label, relation):
    _operator_sanity(operator, relation, target.dim)
    records = []
    for x, y in pairs:
        inputs = f"X={x}; Y={y}; {label}; mask={sorted(target.mask)}"
        phix = ref_phi_extend(target, x, operator)
        phiy = ref_phi_extend(target, y, operator)
        mult = ref_phi_extend(target, product(x, y), operator) - phix * phiy
        twine = ref_phi_extend(target, b_plus(x), operator) - operator(phix)
        for check, defect in (("multiplicative", mult), ("intertwine", twine)):
            records.append(
                {"inputs": inputs, "check": check, "defect": str(defect), "pass": not defect}
            )
    return records


def ref_nijenhuis_records(target, pairs, product):
    operator = make_n_tau(target)
    return ref_universal_check(
        target,
        pairs,
        product,
        operator,
        f"tau={target.tau}",
        lambda x, y: nijenhuis_defect(operator, vec_mul, x, y),
    )


def ref_rota_baxter_records(lam, target, pairs, product):
    operator = target.scaled_projection(lam)
    return ref_universal_check(
        target,
        pairs,
        lambda x, y: product(x, y, lam),
        operator,
        f"lambda={lam}",
        lambda x, y: rota_baxter_defect(operator, vec_mul, lam, x, y),
    )


def head_merged(tail_product, head=lambda a, b: a * b):
    """The bilinear product aU ∘ bV = head(a, b)·tail_product(U, V)."""

    def product(x, y):
        acc = TensorElement.zero()
        for w1, c1 in x.iterterms():
            for w2, c2 in y.iterterms():
                u, v = TensorElement.from_word(w1[1:]), TensorElement.from_word(w2[1:])
                acc = acc + c1 * c2 * tail_product(u, v).prepend(head(w1[0], w2[0]))
        return acc

    return product


# name -> (⊠ mutant (x, y), ⊡ mutant (x, y, λ)); "real" is the products
# themselves, the others each break one part of them
PRODUCTS = {
    "real": (aug_mod_quasi_shuffle, aug_quasi_shuffle),
    "scaled by 2": (
        lambda x, y: 2 * aug_mod_quasi_shuffle(x, y),
        lambda x, y, lam: 2 * aug_quasi_shuffle(x, y, lam),
    ),
    "merge term dropped": (
        head_merged(lambda u, v: mod_quasi_shuffle(u, v, 0)),
        lambda x, y, lam: head_merged(lambda u, v: quasi_shuffle(u, v, 0))(x, y),
    ),
    "merge sign flipped": (
        head_merged(lambda u, v: mod_quasi_shuffle(u, v, -1)),
        lambda x, y, lam: head_merged(lambda u, v: quasi_shuffle(u, v, -lam))(x, y),
    ),
    "wrong head letter": (
        head_merged(lambda u, v: mod_quasi_shuffle(u, v, 1), head=lambda a, b: a),
        lambda x, y, lam: head_merged(
            lambda u, v: quasi_shuffle(u, v, lam), head=lambda a, b: a
        )(x, y),
    ),
}


def test_the_real_products_are_their_head_merged_forms():
    rng = random.Random(3)
    amq, aqs = PRODUCTS["real"]
    for x, y in _pairs(rng):
        assert head_merged(lambda u, v: mod_quasi_shuffle(u, v, 1))(x, y) == amq(x, y)
        for lam in RB_LAMBDAS:
            assert head_merged(lambda u, v: quasi_shuffle(u, v, lam))(x, y) == aqs(x, y, lam)


def _pairs(rng):
    """Single-word pairs as the sweeps draw them, and sums of them with
    non-unit rational coefficients."""
    pairs = random_augmented_pairs(rng, 8, 6)
    return pairs + [(x - Fraction(2, 3) * y, Fraction(5, 2) * y + x) for x, y in pairs[:4]]


def _agree(target, pairs, parameter, defects, reference) -> int:
    """Assert that the defect pairs, and the failure records that suites
    builds from them, agree with the reference records; the failure count."""
    flat = [defect for pair in defects for defect in pair]
    assert [defect is None for defect in flat] == [r["pass"] for r in reference]
    failing = [r for r in reference if not r["pass"]]
    assert [str(defect) for defect in flat if defect is not None] == [
        r["defect"] for r in failing
    ]
    label = f"{parameter}; mask={sorted(target.mask)}"
    records = [r for r in _universal_results(pairs, defects, label) if r]
    assert records == failing
    return len(records)


@pytest.mark.parametrize("name", PRODUCTS)
def test_records_match_the_fraction_reference(name, monkeypatch):
    amq, aqs = PRODUCTS[name]
    monkeypatch.setattr(operators, "aug_mod_quasi_shuffle", amq)
    monkeypatch.setattr(operators, "aug_quasi_shuffle", aqs)
    rng = random.Random(20261018)
    images, pairs = random_images(rng), _pairs(rng)
    failing = 0
    for mask in MASKS:
        for tau in TAUS:
            target = NijenhuisTarget(4, mask, tau, images)
            failing += _agree(
                target,
                pairs,
                f"tau={target.tau}",
                universal_property_check(target, pairs),
                ref_nijenhuis_records(target, pairs, amq),
            )
        target = NijenhuisTarget(4, mask, Fraction(0), images)
        for lam in RB_LAMBDAS:
            failing += _agree(
                target,
                pairs,
                f"lambda={lam}",
                rb_universal_check(lam, target, pairs),
                ref_rota_baxter_records(lam, target, pairs, aqs),
            )
    # the mutants reach the failure path; the real products never do
    assert (failing == 0) == (name == "real")
