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

Every target is diagonal, so a check is decided at its (coordinate,
diagonal entry) points, which targets share.  Drawn families whose entries
repeat are compared with the reference record by record, under mutants
that hold at some entries and fail at others, and the points at which each
element is evaluated are counted.
"""

import copy
import gc
import json
import random
import weakref
from collections import Counter
from fractions import Fraction
from operator import mul as vec_mul

import pytest
from hypothesis import example, given, settings, strategies as st

from nijalg import (
    EmptyWordTermError,
    NijenhuisTarget,
    TensorElement,
    VectorAlgebraElement,
    aug_mod_quasi_shuffle,
    aug_quasi_shuffle,
    b_plus,
    gen,
    make_n_tau,
    mod_quasi_shuffle,
    nijenhuis_defect,
    phi_monomial,
    quasi_shuffle,
    rb_universal_check,
    rota_baxter_defect,
    universal_property_check,
)
from nijalg import operators, suites
from nijalg.operators import DiagonalOperator
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


def ref_universal_check(target, pairs, product, operator, label, relation, bplus=b_plus):
    ones = VectorAlgebraElement.unit(operator.diagonal.dim)
    if relation(ones, ones):
        raise ValueError(f"target operator {operator.name} fails its relation")
    records = []
    for x, y in pairs:
        inputs = f"X={x}; Y={y}; {label}; mask={sorted(target.mask)}"
        phix = ref_phi_extend(target, x, operator)
        phiy = ref_phi_extend(target, y, operator)
        mult = ref_phi_extend(target, product(x, y), operator) - phix * phiy
        twine = ref_phi_extend(target, bplus(x), operator) - operator(phix)
        for check, defect in (("multiplicative", mult), ("intertwine", twine)):
            records.append(
                {"inputs": inputs, "check": check, "defect": str(defect), "pass": not defect}
            )
    return records


def ref_nijenhuis_records(target, pairs, product, bplus=b_plus):
    operator = make_n_tau(target)
    return ref_universal_check(
        target,
        pairs,
        product,
        operator,
        f"tau={target.tau}",
        lambda x, y: nijenhuis_defect(operator, vec_mul, x, y),
        bplus,
    )


def ref_rota_baxter_records(lam, target, pairs, product, bplus=b_plus):
    operator = target.scaled_projection(lam)
    return ref_universal_check(
        target,
        pairs,
        lambda x, y: product(x, y, lam),
        operator,
        f"lambda={lam}",
        lambda x, y: rota_baxter_defect(operator, vec_mul, lam, x, y),
        bplus,
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
                universal_property_check([target], pairs)[0],
                ref_nijenhuis_records(target, pairs, amq),
            )
        target = NijenhuisTarget(4, mask, Fraction(0), images)
        for lam in RB_LAMBDAS:
            failing += _agree(
                target,
                pairs,
                f"lambda={lam}",
                rb_universal_check([lam], [target], pairs)[0],
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
        universal_property_check([t], pairs)[0] for t in targets
    ]
    assert rb_universal_check(RB_LAMBDAS, targets, pairs) == [
        rb_universal_check([lam], [t], pairs)[0] for t in targets for lam in RB_LAMBDAS
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
            rb_universal_check([1], targets, pairs)
    with pytest.raises(ValueError, match="no target"):
        universal_property_check([], pairs)


def _counting_points(mp, calls):
    """Rebind ``operators._at_points`` so that each call records the points
    it evaluates, each as (coordinate, diagonal entry)."""
    original = operators._at_points

    def at_points(sums, points):
        calls.append([(i, Fraction(p, q)) for i, p, q in points])
        return original(sums, points)

    mp.setattr(operators, "_at_points", at_points)


def _points(operator):
    """The (coordinate, entry) points of a diagonal operator."""
    return frozenset(enumerate(operator.diagonal.coords))


def _evaluations(calls):
    """The evaluations, one multiset entry per call; no call repeats a point."""
    for points in calls:
        assert len(set(points)) == len(points)
    return Counter(frozenset(points) for points in calls)


def plus_b_plus_terms(product):
    """product + B⁺ₑ(product + B⁺ₑ(product)): φ̃ᵢ of it is
    (1 + dᵢ + dᵢ²)·φ̃ᵢ(product), so the mutant holds only where dᵢ is 0 or
    −1 (at dᵢ = 0 only length-1 words count, and B⁺ₑ makes none).  Its
    B⁺ₑ counterpart, B⁺ₑx + B⁺ₑB⁺ₑx, holds only where dᵢ is 0."""
    return lambda *args: (lambda z: z + b_plus(z + b_plus(z)))(product(*args))


# name -> (⊠, ⊡, B⁺ₑ) as the checks see them: the real ones, and mutants
# that fail at some diagonal entries and hold at others
ENTRY_MUTANTS = {
    "real": (aug_mod_quasi_shuffle, aug_quasi_shuffle, b_plus),
    "product plus B+ terms": (
        plus_b_plus_terms(aug_mod_quasi_shuffle),
        plus_b_plus_terms(aug_quasi_shuffle),
        b_plus,
    ),
    "B+ plus B+B+": (
        aug_mod_quasi_shuffle,
        aug_quasi_shuffle,
        lambda x: b_plus(x) + b_plus(b_plus(x)),
    ),
}
# N_τ has entries 1 on the mask and −τ off it, λ·R has λ on the mask and 0
# off it, so the entries repeat across coordinates and targets
ENTRY_MASKS = (frozenset(), frozenset({0}), frozenset({1, 3}), frozenset(range(4)))
ENTRY_TAUS = (Fraction(0), Fraction(1), Fraction(-2), Fraction(5, 3))
ENTRY_LAMBDAS = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2, 3))


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(
    name=st.sampled_from(sorted(ENTRY_MUTANTS)),
    seed=st.integers(0, 2**16),
    family=st.lists(
        st.tuples(st.sampled_from(ENTRY_MASKS), st.sampled_from(ENTRY_TAUS)),
        min_size=1,
        max_size=5,
    ),
    lams=st.lists(st.sampled_from(ENTRY_LAMBDAS), min_size=1, max_size=4),
)
# targets whose entries all lie where a mutant holds, beside targets with
# one entry where it fails: per-point verdicts and fallbacks both run
@example(
    name="product plus B+ terms",
    seed=4,
    family=[(frozenset(), 0), (frozenset(), 1), (frozenset({1, 3}), 1), (frozenset(), 0)],
    lams=[0, -1, 1, 0],
)
@example(
    name="B+ plus B+B+",
    seed=4,
    family=[(frozenset(), 0), (frozenset({0}), 0), (frozenset({1, 3}), 1), (frozenset(), 0)],
    lams=[0, 2, 0],
)
def test_targets_sharing_diagonal_entries_match_the_fraction_reference(
    name, seed, family, lams
):
    # duplicate targets and weights included: every record is the
    # per-target reference's, and each point is evaluated once per pair
    amq, aqs, bplus = ENTRY_MUTANTS[name]
    rng = random.Random(seed)
    images, pairs = random_images(rng), _pairs(rng)
    targets = [NijenhuisTarget(4, mask, tau, images) for mask, tau in family]
    calls, defected, built = [], [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "aug_mod_quasi_shuffle", amq)
        mp.setattr(operators, "aug_quasi_shuffle", aqs)
        mp.setattr(operators, "b_plus", bplus)
        _counting_points(mp, calls)
        for name, log in (("_defect", defected), ("_vector", built)):
            original = getattr(operators, name)
            mp.setattr(
                operators, name, lambda arg, log=log, f=original: log.append(arg) or f(arg)
            )
        nijenhuis = universal_property_check(targets, pairs)
        nijenhuis_calls = calls[:]
        calls.clear()
        rota_baxter = rb_universal_check(lams, targets, pairs)
    # only a failing check, one with a defect, computes its two defects, and
    # it builds a vector for each that is nonzero
    flat = [pair for defects in nijenhuis + rota_baxter for pair in defects]
    assert len(defected) == 2 * sum(pair != (None, None) for pair in flat)
    assert len(built) == sum(defect is not None for pair in flat for defect in pair)
    for target, defects in zip(targets, nijenhuis, strict=True):
        reference = ref_nijenhuis_records(target, pairs, amq, bplus)
        _agree(target, pairs, f"tau={target.tau}", defects, reference)
    params = [(target, lam) for target in targets for lam in lams]
    for (target, lam), defects in zip(params, rota_baxter, strict=True):
        reference = ref_rota_baxter_records(lam, target, pairs, aqs, bplus)
        _agree(target, pairs, f"lambda={lam}", defects, reference)
    # per pair: x, y and B+x once at each distinct (coordinate, entry), and
    # product(x, y) once at each of its product's
    shared = frozenset().union(*[_points(make_n_tau(t)) for t in targets])
    assert _evaluations(nijenhuis_calls) == Counter({shared: 4 * len(pairs)})
    by_lam = {
        lam: frozenset().union(*[_points(t.scaled_projection(lam)) for t in targets])
        for lam in lams
    }
    shared = frozenset().union(*by_lam.values())
    want = Counter({shared: 3 * len(pairs)})
    for points in by_lam.values():
        want[points] += len(pairs)
    assert _evaluations(calls) == want


def test_the_sweeps_evaluate_each_point_once(monkeypatch):
    # the 16 N_τ targets have 20 distinct (coordinate, entry) points, and
    # the 6 λ·R targets 12, of which the three products use 4, 6 and 6
    calls = []
    _counting_points(monkeypatch, calls)
    samples = 5
    suites.universal_sweep(6, 2, samples)
    assert sorted(map(len, calls)) == [20] * 4 * samples
    calls.clear()
    suites.rb_universal_sweep(6, 2, samples)
    assert sorted(map(len, calls)) == sorted([12] * 3 * samples + [4, 6, 6] * samples)


def ref_at_points(sums, points):
    """The fold over word lengths that ``_at_points`` ran for every element
    before its one-length closed form, kept verbatim."""
    terms = [(n - 1, nums, den) for n, (nums, den) in sums.items()]
    values = []
    for i, p, q in points:
        num, den = 0, 1
        for k, nums, d in terms:
            a, b = nums[i] * p ** k, d * q ** k
            num, den = num * b + a * den, den * b
        values.append((num, den))
    return values


# name -> (the element made from a coefficient and two words, its number of
# word lengths): one length, including n = 1 where dᵢ = 0 gives 0**0, two
# lengths, and the zero element, whose sums are empty
CLOSED_FORM_ELEMENTS = {
    "word": (lambda c, x, y: c * x, 1),
    "⊠ product": (lambda c, x, y: c * aug_mod_quasi_shuffle(x, y), 1),
    "x + B+x": (lambda c, x, y: c * x + b_plus(x), 2),
    "zero": (lambda c, x, y: c * x - c * x, 0),
}
DIAGONAL_ENTRIES = tuple(map(Fraction, (0, 1, -1, 2, "-5/3", "2/3")))


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(
    kind=st.sampled_from(sorted(CLOSED_FORM_ELEMENTS)),
    seed=st.integers(0, 2**16),
    coeff=st.sampled_from((Fraction(1), Fraction(-2), Fraction(3, 4))),
    words=st.tuples(*[st.lists(st.sampled_from(suites.GENERATORS), min_size=1, max_size=4)] * 2),
    entries=st.lists(
        st.tuples(st.integers(0, 3), st.sampled_from(DIAGONAL_ENTRIES)), min_size=1, max_size=8
    ),
)
@example(kind="word", seed=0, coeff=Fraction(1), words=(["a"], ["b"]), entries=[(0, Fraction(0))])
@example(
    kind="x + B+x", seed=0, coeff=Fraction(1), words=(["a"], ["b"]), entries=[(2, Fraction(0))]
)
def test_the_closed_form_matches_the_fold(kind, seed, coeff, words, entries):
    make, lengths = CLOSED_FORM_ELEMENTS[kind]
    target = NijenhuisTarget(4, frozenset(), 0, random_images(random.Random(seed)))
    x, y = [TensorElement.from_word([gen(g) for g in word]) for word in words]
    sums = operators._letter_stage(target)(make(coeff, x, y))
    assert len(sums) == lengths
    points = [(i, d.numerator, d.denominator) for i, d in entries]
    assert operators._at_points(sums, points) == ref_at_points(sums, points)
