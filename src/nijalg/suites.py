"""Identity-check sweeps driving the CLI `check` command and the acceptance
tests.

Every suite runs an exhaustive (or seeded-random) sweep over small words on
two generators and returns a deterministic report: a failure record per
violated instance plus total counts.  All comparisons are exact.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Iterable, List, Tuple

from .base import gen
from .dendriform import (
    DendriformContext,
    LITERAL,
    dialgebra_defects,
    omega_prec,
    omega_succ,
    trialgebra_defects,
)
from .errors import UnknownSuiteError
from .operators import (
    NijenhuisTarget,
    VectorAlgebraElement,
    hochschild_coboundary,
    factorization_check,
    nijenhuis_defect,
    rb_universal_check,
    rota_baxter_defect,
    universal_property_check,
)
from .oracle import mixed_shuffle, mod_quasi_shuffle_oracle
from .products import (
    aug_mod_quasi_shuffle,
    aug_quasi_shuffle,
    mod_quasi_shuffle,
    mu_product,
    nijenhuis_torsion,
    quasi_shuffle,
)
from .tensor import TensorElement, Word, b_plus, word_str

GENERATORS = ("a", "b")

SUITES = (
    "assoc-qsh",
    "assoc-aqs",
    "assoc-mqs",
    "assoc-amq",
    "nijenhuis",
    "rota-baxter",
    "mixed-oracle",
    "factorization",
    "dendriform-di",
    "dendriform-tri",
    "omega",
    "universal",
    "torsion-cocycle",
)


def words_up_to(max_len: int, min_len: int = 0, gens=GENERATORS) -> List[Word]:
    """All words with single-generator letters, in canonical order."""
    letters = tuple(gen(g) for g in gens)
    out: List[Word] = []
    for n in range(min_len, max_len + 1):
        out.extend(itertools.product(letters, repeat=n))
    return out


def word_pairs(max_total: int, min_len: int = 0, gens=GENERATORS):
    ws = words_up_to(max_total, min_len, gens)
    for x in ws:
        for y in ws:
            if len(x) + len(y) <= max_total:
                yield x, y


def word_triples(max_total: int, min_len: int = 0, gens=GENERATORS):
    ws = words_up_to(max_total, min_len, gens)
    for x in ws:
        for y in ws:
            if len(x) + len(y) > max_total:
                continue
            for z in ws:
                if len(x) + len(y) + len(z) <= max_total:
                    yield x, y, z


def elt(w: Word) -> TensorElement:
    return TensorElement.from_word(w)


def _fail(records, inputs: str, defect) -> None:
    records.append({"inputs": inputs, "defect": str(defect), "pass": False})


def _parse_lambdas(lambdas) -> Tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in lambdas)


# ---- individual sweeps ----


def _assoc_sweep(product, max_len, lambdas, min_len, records) -> int:
    checked = 0
    for lam in lambdas:
        for x, y in word_pairs(max_len, min_len):
            checked += 1
            defect = product(elt(x), elt(y), lam) - product(elt(y), elt(x), lam)
            if defect:
                _fail(records, f"comm lambda={lam} x={word_str(x)} y={word_str(y)}", defect)
        for x, y, z in word_triples(max_len, min_len):
            checked += 1
            ex, ey, ez = elt(x), elt(y), elt(z)
            defect = product(product(ex, ey, lam), ez, lam) - product(
                ex, product(ey, ez, lam), lam
            )
            if defect:
                _fail(
                    records,
                    f"assoc lambda={lam} x={word_str(x)} y={word_str(y)} z={word_str(z)}",
                    defect,
                )
    return checked


def suite_assoc_qsh(max_len, lambdas, seed, records) -> int:
    return _assoc_sweep(quasi_shuffle, max_len, lambdas, 0, records)


def suite_assoc_aqs(max_len, lambdas, seed, records) -> int:
    return _assoc_sweep(aug_quasi_shuffle, max_len, lambdas, 1, records)


def suite_assoc_mqs(max_len, lambdas, seed, records) -> int:
    return _assoc_sweep(mod_quasi_shuffle, max_len, lambdas, 0, records)


def suite_assoc_amq(max_len, lambdas, seed, records) -> int:
    return _assoc_sweep(lambda x, y, lam: aug_mod_quasi_shuffle(x, y), max_len, lambdas, 1, records)


def suite_nijenhuis(max_len, lambdas, seed, records) -> int:
    checked = 0
    for x, y in word_pairs(max_len, 1):
        checked += 1
        defect = nijenhuis_defect(b_plus, aug_mod_quasi_shuffle, elt(x), elt(y))
        if defect:
            _fail(records, f"x={word_str(x)} y={word_str(y)}", defect)
    return checked


def suite_rota_baxter(max_len, lambdas, seed, records) -> int:
    checked = 0
    for lam in lambdas:
        mul = lambda u, v: aug_quasi_shuffle(u, v, lam)
        for x, y in word_pairs(max_len, 1):
            checked += 1
            defect = rota_baxter_defect(b_plus, mul, lam, elt(x), elt(y))
            if defect:
                _fail(records, f"lambda={lam} x={word_str(x)} y={word_str(y)}", defect)
    return checked


def suite_mixed_oracle(max_len, lambdas, seed, records) -> int:
    checked = 0
    for lam in lambdas:
        for x, y in word_pairs(max_len):
            checked += 2
            defect = mixed_shuffle(x, y, lam) - quasi_shuffle(elt(x), elt(y), lam)
            if defect:
                _fail(records, f"mixed lambda={lam} x={word_str(x)} y={word_str(y)}", defect)
            defect = mod_quasi_shuffle_oracle(x, y, lam) - mod_quasi_shuffle(
                elt(x), elt(y), lam
            )
            if defect:
                _fail(records, f"mod lambda={lam} x={word_str(x)} y={word_str(y)}", defect)
    return checked


def suite_factorization(max_len, lambdas, seed, records) -> int:
    checked = 0
    for w in words_up_to(max_len, 1):
        checked += 1
        defect = factorization_check(w) - elt(w)
        if defect:
            _fail(records, f"w={word_str(w)}", defect)
    return checked


def suite_dendriform_di(max_len, lambdas, seed, records) -> int:
    ctx = DendriformContext(0)
    checked = 0
    for x, y in word_pairs(max_len, 1):
        checked += 1
        defect = ctx.star(elt(x), elt(y)) - quasi_shuffle(elt(x), elt(y), 0)
        if defect:
            _fail(records, f"split x={word_str(x)} y={word_str(y)}", defect)
    for x, y, z in word_triples(max_len, 1):
        for i, defect in enumerate(dialgebra_defects(ctx, elt(x), elt(y), elt(z)), 1):
            checked += 1
            if defect:
                _fail(
                    records,
                    f"axiom{i} x={word_str(x)} y={word_str(y)} z={word_str(z)}",
                    defect,
                )
    return checked


def suite_dendriform_tri(max_len, lambdas, seed, records) -> int:
    checked = 0
    for lam in lambdas:
        ctx = DendriformContext(lam)
        lit = DendriformContext(lam, LITERAL)
        for x, y in word_pairs(max_len, 1):
            ex, ey = elt(x), elt(y)
            checked += 2
            defect = ctx.star(ex, ey) - quasi_shuffle(ex, ey, lam)
            if defect:
                _fail(records, f"split lambda={lam} x={word_str(x)} y={word_str(y)}", defect)
            defect = ctx.bullet(ex, ey) - (-lam) * lit.bullet(ex, ey)
            if defect:
                _fail(
                    records,
                    f"convention lambda={lam} x={word_str(x)} y={word_str(y)}",
                    defect,
                )
        for x, y, z in word_triples(max_len, 1):
            for i, defect in enumerate(trialgebra_defects(ctx, elt(x), elt(y), elt(z)), 1):
                checked += 1
                if defect:
                    _fail(
                        records,
                        f"axiom{i} lambda={lam} x={word_str(x)} y={word_str(y)} z={word_str(z)}",
                        defect,
                    )
    return checked


def suite_omega(max_len, lambdas, seed, records) -> int:
    checked = 0
    for w in words_up_to(max_len, 1):
        checked += 2
        defect = omega_prec(w) - elt(w)
        if defect:
            _fail(records, f"omega_prec w={word_str(w)}", defect)
        defect = omega_succ(w) - elt(w)
        if defect:
            _fail(records, f"omega_succ w={word_str(w)}", defect)
    return checked


def suite_torsion_cocycle(max_len, lambdas, seed, records) -> int:
    mul = aug_mod_quasi_shuffle
    torsion = lambda u, v: nijenhuis_torsion(u, v, b_plus, mul)
    checked = 0
    for x, y in word_pairs(max_len, 1):
        checked += 1
        defect = torsion(elt(x), elt(y))
        if defect:
            _fail(records, f"torsion x={word_str(x)} y={word_str(y)}", defect)
    for x, y, z in word_triples(max_len, 1):
        ex, ey, ez = elt(x), elt(y), elt(z)
        checked += 2
        mu = lambda u, v: mu_product(u, v, b_plus, mul)
        defect = mu(mu(ex, ey), ez) - mu(ex, mu(ey, ez))
        if defect:
            _fail(records, f"mu-assoc x={word_str(x)} y={word_str(y)} z={word_str(z)}", defect)
        defect = hochschild_coboundary(torsion, mul, ex, ey, ez)
        if defect:
            _fail(records, f"cocycle x={word_str(x)} y={word_str(y)} z={word_str(z)}", defect)
    return checked


# ---- universal property sweep ----

MASKS = (frozenset(), frozenset({0}), frozenset({0, 1}), frozenset(range(4)))
TAUS = (Fraction(0), Fraction(1), Fraction(-2), Fraction(5, 3))
RB_LAMBDAS = (Fraction(0), Fraction(1), Fraction(2, 3))


def random_images(rng: random.Random, dim: int = 4) -> dict:
    return {
        g: VectorAlgebraElement(
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim)
        )
        for g in GENERATORS
    }


def random_augmented_pairs(rng: random.Random, count: int, max_total: int = 6):
    letters = tuple(gen(g) for g in GENERATORS)
    pairs = []
    for _ in range(count):
        n1 = rng.randint(1, max_total - 1)
        n2 = rng.randint(1, max_total - n1)
        x = tuple(rng.choice(letters) for _ in range(n1))
        y = tuple(rng.choice(letters) for _ in range(n2))
        pairs.append((TensorElement.from_word(x), TensorElement.from_word(y)))
    return pairs


def _universal_sweep(max_len, seed, samples, check) -> Tuple[int, list]:
    """Draw one seeded sample of images and pairs and run ``check(images,
    pairs)``, which yields one record list per target; returns (records
    checked, failing records)."""
    rng = random.Random(seed)
    images = random_images(rng)
    pairs = random_augmented_pairs(rng, samples, max_len)
    checked = 0
    failures = []
    for records in check(images, pairs):
        for record in records:
            checked += 1
            if not record["pass"]:
                failures.append(record)
    return checked, failures


def universal_sweep(max_len=6, seed=0, samples=500) -> Tuple[int, list]:
    """Nijenhuis universal property over the K^4 target family."""
    return _universal_sweep(
        max_len,
        seed,
        samples,
        lambda images, pairs: (
            universal_property_check(NijenhuisTarget(4, mask, tau, images), pairs)
            for mask in MASKS
            for tau in TAUS
        ),
    )


def rb_universal_sweep(max_len=6, seed=0, samples=500) -> Tuple[int, list]:
    """Rota-Baxter analog with the weight-λ operator λ·projection."""
    return _universal_sweep(
        max_len,
        seed,
        samples,
        lambda images, pairs: (
            rb_universal_check(lam, NijenhuisTarget(4, mask, Fraction(0), images), pairs)
            for mask in (frozenset({0, 1}), frozenset(range(4)))
            for lam in RB_LAMBDAS
        ),
    )


def suite_universal(max_len, lambdas, seed, records) -> int:
    checked, failures = universal_sweep(max_len, seed, samples=32)
    records.extend(failures)
    rb_checked, rb_failures = rb_universal_sweep(max_len, seed, samples=32)
    records.extend(rb_failures)
    return checked + rb_checked


# Suites whose identities hold at fixed weights: they check these, whatever
# weights the caller asks for, and their reports list these.  The other
# suites check every requested λ.
FIXED_LAMBDAS = {
    "assoc-amq": (1,),
    "nijenhuis": (1,),
    "factorization": (1,),
    "omega": (1,),
    "torsion-cocycle": (1,),
    "dendriform-di": (0,),
    "universal": RB_LAMBDAS,
}

_SUITE_FNS = {
    "assoc-qsh": suite_assoc_qsh,
    "assoc-aqs": suite_assoc_aqs,
    "assoc-mqs": suite_assoc_mqs,
    "assoc-amq": suite_assoc_amq,
    "nijenhuis": suite_nijenhuis,
    "rota-baxter": suite_rota_baxter,
    "mixed-oracle": suite_mixed_oracle,
    "factorization": suite_factorization,
    "dendriform-di": suite_dendriform_di,
    "dendriform-tri": suite_dendriform_tri,
    "omega": suite_omega,
    "universal": suite_universal,
    "torsion-cocycle": suite_torsion_cocycle,
}


def run_suite(name: str, max_len: int = 4, lambdas: Iterable = ("1",), seed: int = 0) -> dict:
    """Run one sweep; the report lists each failing instance with its defect."""
    if name not in _SUITE_FNS:
        raise UnknownSuiteError(
            f"unknown suite {name!r}; choose from: {', '.join(SUITES)}"
        )
    lams = _parse_lambdas(FIXED_LAMBDAS.get(name, lambdas))
    records: list = []
    checked = _SUITE_FNS[name](max_len, lams, seed, records)
    return {
        "suite": name,
        "max_len": max_len,
        "lambdas": [str(lam) for lam in lams],
        "seed": seed,
        "checked": checked,
        "failures": records,
    }
