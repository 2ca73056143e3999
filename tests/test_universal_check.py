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

The sweeps check every target of a sample against one shared letter stage
of φ̃; their failure records are compared with the per-target reference
over the same sample, the letter stage's evaluations are counted, and no
state of it may outlive a sweep.
"""

import copy
import gc
import json
import random
import weakref
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
from nijalg import operators, suites
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
    return VectorAlgebraElement(
        sum((Fraction(num, den) for den, num in by_den.items()), Fraction(0))
        for by_den in sums
    )


def ref_pairs(v):
    return tuple([(c.numerator, c.denominator) for c in v.coords])


def ref_universal_check(target, pairs, product, operator, label, relation):
    _operator_sanity(operator, relation)
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


def _reference_sweep(sample, records):
    """The failing records of a sweep over ``sample`` = (images, pairs), in
    order, from one per-target Fraction reference per (mask, parameter)."""
    images, pairs = sample
    failing = []
    for target_records in records(images, pairs):
        failing.extend(r for r in target_records if not r["pass"])
    return failing


def _reference_nijenhuis(amq):
    def records(images, pairs):
        for mask in MASKS:
            for tau in TAUS:
                yield ref_nijenhuis_records(NijenhuisTarget(4, mask, tau, images), pairs, amq)

    return records


def _reference_rota_baxter(aqs):
    def records(images, pairs):
        for mask in (frozenset({0, 1}), frozenset(range(4))):
            target = NijenhuisTarget(4, mask, Fraction(0), images)
            for lam in RB_LAMBDAS:
                yield ref_rota_baxter_records(lam, target, pairs, aqs)

    return records


@pytest.mark.parametrize("seed", [5, 20261018])
@pytest.mark.parametrize("name", PRODUCTS)
def test_sweeps_match_the_per_target_fraction_reference(name, seed, monkeypatch):
    # the sweeps check every target of a sample against one shared letter
    # stage; under each mutant their failure records must be the per-target
    # reference's, in the same order and with the same bytes
    amq, aqs = PRODUCTS[name]
    monkeypatch.setattr(operators, "aug_mod_quasi_shuffle", amq)
    monkeypatch.setattr(operators, "aug_quasi_shuffle", aqs)
    max_len, samples = 6, 6
    sample = suites._sample(max_len, seed, samples)
    failing = 0
    for sweep, records, per_pair in (
        (suites.universal_sweep, _reference_nijenhuis(amq), 2 * len(MASKS) * len(TAUS)),
        (suites.rb_universal_sweep, _reference_rota_baxter(aqs), 2 * 2 * len(RB_LAMBDAS)),
    ):
        checked, failures = sweep(max_len, seed, samples)
        want = _reference_sweep(sample, records)
        assert checked == per_pair * samples
        assert failures == want
        assert json.dumps(failures) == json.dumps(want)
        failing += len(failures)
    assert (failing == 0) == (name == "real")


def _counting_letter_stage(monkeypatch):
    """Rebind ``operators._letter_stage`` so that each stage it makes counts
    its evaluations; returns (the count, weak references to the stages)."""
    original = operators._letter_stage
    count = [0]
    stages = []

    def letter_stage(target):
        sums = original(target)

        def counted(x):
            count[0] += 1
            return sums(x)

        stages.append(weakref.ref(counted))
        return counted

    monkeypatch.setattr(operators, "_letter_stage", letter_stage)
    return count, stages


@pytest.mark.parametrize(
    "masks, taus",
    [(MASKS, TAUS), (MASKS[:1], TAUS[:1]), (MASKS[:2], TAUS + (Fraction(-1, 2),))],
)
def test_the_letter_stage_runs_once_per_element(masks, taus, monkeypatch):
    # per pair: x, y, B+x, and the product once per weight, however many
    # (mask, τ) targets share them
    monkeypatch.setattr(suites, "MASKS", masks)
    monkeypatch.setattr(suites, "TAUS", taus)
    count, stages = _counting_letter_stage(monkeypatch)
    samples = 7
    checked, _ = suites.universal_sweep(6, 3, samples)
    assert checked == 2 * len(masks) * len(taus) * samples
    assert count[0] == (3 + 1) * samples and len(stages) == 1
    count[0] = 0
    checked, _ = suites.rb_universal_sweep(6, 3, samples)
    assert checked == 2 * 2 * len(RB_LAMBDAS) * samples
    assert count[0] == (3 + len(RB_LAMBDAS)) * samples and len(stages) == 2


@pytest.mark.parametrize("sweep", [suites.universal_sweep, suites.rb_universal_sweep])
def test_a_passing_sweep_builds_no_fraction_per_sample(sweep, monkeypatch):
    # φ̃ runs on integer numerators over one denominator, letter images
    # included, so the Fractions a sweep builds (its images and targets) do
    # not grow with its samples
    original = Fraction.__new__
    built = []

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    counts = []
    for samples in (1, 32):
        built.clear()
        monkeypatch.setattr(Fraction, "__new__", counting)
        checked, failures = sweep(6, 5, samples)
        monkeypatch.undo()
        assert checked > 0 and failures == []
        counts.append(len(built))
    assert counts[0] == counts[1]


def _module_state(module):
    """What a call could leave behind in ``module``: its names, a copy of
    each mutable container it holds, and the attributes and cache sizes of
    everything else."""
    state = {}
    for name, value in vars(module).items():
        if name.startswith("__"):
            continue
        if isinstance(value, (dict, list, set)):
            state[name] = copy.copy(value)
        else:
            info = getattr(value, "cache_info", None)
            attrs = dict(getattr(value, "__dict__", {}))
            state[name] = (value, attrs, info and info().currsize)
    return state


def test_no_state_survives_a_sweep(monkeypatch):
    count, stages = _counting_letter_stage(monkeypatch)
    before = _module_state(operators)
    suites.universal_sweep(6, 1, 5)
    suites.rb_universal_sweep(6, 1, 5)
    assert _module_state(operators) == before
    # each sweep's letter stage, and its memo of letter images, is dropped
    # with the sweep
    gc.collect()
    assert count[0] > 0 and len(stages) == 2
    assert [stage() for stage in stages] == [None, None]


def test_targets_checked_together_share_one_image_map():
    rng = random.Random(8)
    images, other = random_images(rng), random_images(rng)
    pairs = random_augmented_pairs(rng, 6, 6)
    first = NijenhuisTarget(4, frozenset({0}), Fraction(1), images)
    # equal image maps in distinct dicts share a letter stage, and each
    # target gets the defects it gets alone
    same = NijenhuisTarget(4, frozenset({0, 1}), Fraction(5, 3), dict(images))
    targets = [first, same]
    assert universal_property_check(targets, pairs) == [
        universal_property_check(t, pairs) for t in targets
    ]
    assert rb_universal_check(RB_LAMBDAS, targets, pairs) == [
        rb_universal_check(lam, t, pairs) for t in targets for lam in RB_LAMBDAS
    ]
    # a different image map, or dimension, is refused before any check
    mixed = NijenhuisTarget(4, frozenset({0}), Fraction(1), other)
    smaller = NijenhuisTarget(3, frozenset({0}), Fraction(1), {})
    bare = NijenhuisTarget(4, frozenset({0}), Fraction(1), {})
    for targets in ([first, mixed], [mixed, first, first], [bare, smaller]):
        with pytest.raises(ValueError, match="share one image map"):
            universal_property_check(targets, pairs)
        with pytest.raises(ValueError, match="share one image map"):
            rb_universal_check(RB_LAMBDAS, targets, pairs)
        with pytest.raises(ValueError, match="share one image map"):
            rb_universal_check(1, targets, pairs)
    with pytest.raises(ValueError, match="no target"):
        universal_property_check([], pairs)
