"""Identity-check sweeps driving the CLI `check` command and the acceptance
tests.

Every suite runs an exhaustive (or seeded-random) sweep over small words on
two generators.  A suite is a generator that yields one result per check, in
a fixed order: a falsy result when the check passes, and its failure record
when it fails.  Every check, ``universal``'s too, is written ``yield defect
and _failure(text, defect)``, so its inputs are named only when it fails.
``_failure`` builds every record, and ``_tally`` counts every check and keeps
the failures; the report holds both.  All comparisons are exact.
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


def _inputs(*words: Word) -> str:
    """``x=… y=… z=…``: the words of one check, in order."""
    return " ".join(f"{name}={word_str(w)}" for name, w in zip("xyz", words))


def _failure(inputs: str, defect, **check) -> dict:
    return {"inputs": inputs, **check, "defect": str(defect), "pass": False}


def _tally(results) -> Tuple[int, list]:
    """(checks, failure records) of a stream with one result per check."""
    checked = 0
    failures = []
    for result in results:
        checked += 1
        if result:
            failures.append(result)
    return checked, failures


# ---- individual sweeps ----


def _assoc_sweep(product, max_len, lambdas, min_len):
    for lam in lambdas:
        for x, y in word_pairs(max_len, min_len):
            defect = product(elt(x), elt(y), lam) - product(elt(y), elt(x), lam)
            yield defect and _failure(f"comm lambda={lam} {_inputs(x, y)}", defect)
        for x, y, z in word_triples(max_len, min_len):
            ex, ey, ez = elt(x), elt(y), elt(z)
            defect = product(product(ex, ey, lam), ez, lam) - product(
                ex, product(ey, ez, lam), lam
            )
            yield defect and _failure(f"assoc lambda={lam} {_inputs(x, y, z)}", defect)


def suite_assoc_qsh(max_len, lambdas, seed):
    return _assoc_sweep(quasi_shuffle, max_len, lambdas, 0)


def suite_assoc_aqs(max_len, lambdas, seed):
    return _assoc_sweep(aug_quasi_shuffle, max_len, lambdas, 1)


def suite_assoc_mqs(max_len, lambdas, seed):
    return _assoc_sweep(mod_quasi_shuffle, max_len, lambdas, 0)


def suite_assoc_amq(max_len, lambdas, seed):
    return _assoc_sweep(lambda x, y, lam: aug_mod_quasi_shuffle(x, y), max_len, lambdas, 1)


def suite_nijenhuis(max_len, lambdas, seed):
    for x, y in word_pairs(max_len, 1):
        defect = nijenhuis_defect(b_plus, aug_mod_quasi_shuffle, elt(x), elt(y))
        yield defect and _failure(_inputs(x, y), defect)


def suite_rota_baxter(max_len, lambdas, seed):
    for lam in lambdas:
        mul = lambda u, v: aug_quasi_shuffle(u, v, lam)
        for x, y in word_pairs(max_len, 1):
            defect = rota_baxter_defect(b_plus, mul, lam, elt(x), elt(y))
            yield defect and _failure(f"lambda={lam} {_inputs(x, y)}", defect)


def suite_mixed_oracle(max_len, lambdas, seed):
    for lam in lambdas:
        for x, y in word_pairs(max_len):
            defect = mixed_shuffle(x, y, lam) - quasi_shuffle(elt(x), elt(y), lam)
            yield defect and _failure(f"mixed lambda={lam} {_inputs(x, y)}", defect)
            defect = mod_quasi_shuffle_oracle(x, y, lam) - mod_quasi_shuffle(
                elt(x), elt(y), lam
            )
            yield defect and _failure(f"mod lambda={lam} {_inputs(x, y)}", defect)


def suite_factorization(max_len, lambdas, seed):
    for w in words_up_to(max_len, 1):
        defect = factorization_check(w) - elt(w)
        yield defect and _failure(f"w={word_str(w)}", defect)


def suite_dendriform_di(max_len, lambdas, seed):
    ctx = DendriformContext(0)
    for x, y in word_pairs(max_len, 1):
        defect = ctx.star(elt(x), elt(y)) - quasi_shuffle(elt(x), elt(y), 0)
        yield defect and _failure(f"split {_inputs(x, y)}", defect)
    for x, y, z in word_triples(max_len, 1):
        for i, defect in enumerate(dialgebra_defects(ctx, elt(x), elt(y), elt(z)), 1):
            yield defect and _failure(f"axiom{i} {_inputs(x, y, z)}", defect)


def suite_dendriform_tri(max_len, lambdas, seed):
    for lam in lambdas:
        ctx = DendriformContext(lam)
        lit = DendriformContext(lam, LITERAL)
        for x, y in word_pairs(max_len, 1):
            ex, ey = elt(x), elt(y)
            defect = ctx.star(ex, ey) - quasi_shuffle(ex, ey, lam)
            yield defect and _failure(f"split lambda={lam} {_inputs(x, y)}", defect)
            defect = ctx.bullet(ex, ey) - (-lam) * lit.bullet(ex, ey)
            yield defect and _failure(f"convention lambda={lam} {_inputs(x, y)}", defect)
        for x, y, z in word_triples(max_len, 1):
            for i, defect in enumerate(trialgebra_defects(ctx, elt(x), elt(y), elt(z)), 1):
                yield defect and _failure(f"axiom{i} lambda={lam} {_inputs(x, y, z)}", defect)


def suite_omega(max_len, lambdas, seed):
    for w in words_up_to(max_len, 1):
        defect = omega_prec(w) - elt(w)
        yield defect and _failure(f"omega_prec w={word_str(w)}", defect)
        defect = omega_succ(w) - elt(w)
        yield defect and _failure(f"omega_succ w={word_str(w)}", defect)


def suite_torsion_cocycle(max_len, lambdas, seed):
    mul = aug_mod_quasi_shuffle
    torsion = lambda u, v: nijenhuis_torsion(u, v, b_plus, mul)
    mu = lambda u, v: mu_product(u, v, b_plus, mul)
    for x, y in word_pairs(max_len, 1):
        defect = torsion(elt(x), elt(y))
        yield defect and _failure(f"torsion {_inputs(x, y)}", defect)
    for x, y, z in word_triples(max_len, 1):
        ex, ey, ez = elt(x), elt(y), elt(z)
        defect = mu(mu(ex, ey), ez) - mu(ex, mu(ey, ez))
        yield defect and _failure(f"mu-assoc {_inputs(x, y, z)}", defect)
        defect = hochschild_coboundary(torsion, mul, ex, ey, ez)
        yield defect and _failure(f"cocycle {_inputs(x, y, z)}", defect)


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
    """``count`` random pairs of nonempty words of total length at most
    ``max_total``; none, and no draw, when ``max_total`` < 2 leaves no pair."""
    if max_total < 2:
        return []
    letters = tuple(gen(g) for g in GENERATORS)
    pairs = []
    for _ in range(count):
        n1 = rng.randint(1, max_total - 1)
        n2 = rng.randint(1, max_total - n1)
        x = tuple(rng.choice(letters) for _ in range(n1))
        y = tuple(rng.choice(letters) for _ in range(n2))
        pairs.append((TensorElement.from_word(x), TensorElement.from_word(y)))
    return pairs


def _sample(max_len, seed, samples):
    """One seeded draw: generator images, then augmented pairs."""
    rng = random.Random(seed)
    return random_images(rng), random_augmented_pairs(rng, samples, max_len)


def _universal_results(pairs, defects, label):
    """One result per check of the (multiplicative, intertwining) ``defects``
    of each pair; ``label`` names the target's τ or λ and its mask."""
    for (x, y), pair in zip(pairs, defects):
        for check, defect in zip(("multiplicative", "intertwine"), pair):
            yield defect and _failure(f"X={x}; Y={y}; {label}", defect, check=check)


def _nijenhuis_results(max_len, seed, samples):
    images, pairs = _sample(max_len, seed, samples)
    for mask in MASKS:
        for tau in TAUS:
            defects = universal_property_check(NijenhuisTarget(4, mask, tau, images), pairs)
            yield from _universal_results(pairs, defects, f"tau={tau}; mask={sorted(mask)}")


def _rota_baxter_results(max_len, seed, samples):
    images, pairs = _sample(max_len, seed, samples)
    for mask in (frozenset({0, 1}), frozenset(range(4))):
        target = NijenhuisTarget(4, mask, Fraction(0), images)
        for lam in RB_LAMBDAS:
            defects = rb_universal_check(lam, target, pairs)
            yield from _universal_results(pairs, defects, f"lambda={lam}; mask={sorted(mask)}")


def universal_sweep(max_len=6, seed=0, samples=500) -> Tuple[int, list]:
    """Nijenhuis universal property over the K^4 target family."""
    return _tally(_nijenhuis_results(max_len, seed, samples))


def rb_universal_sweep(max_len=6, seed=0, samples=500) -> Tuple[int, list]:
    """Rota-Baxter analog with the weight-λ operator λ·projection."""
    return _tally(_rota_baxter_results(max_len, seed, samples))


def suite_universal(max_len, lambdas, seed):
    yield from _nijenhuis_results(max_len, seed, 32)
    yield from _rota_baxter_results(max_len, seed, 32)


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

SUITES = tuple(_SUITE_FNS)


def run_suite(name: str, max_len: int = 4, lambdas: Iterable = ("1",), seed: int = 0) -> dict:
    """Run one sweep; the report lists each failing instance with its defect."""
    if name not in _SUITE_FNS:
        raise UnknownSuiteError(
            f"unknown suite {name!r}; choose from: {', '.join(SUITES)}"
        )
    lams = tuple(Fraction(v) for v in FIXED_LAMBDAS.get(name, lambdas))
    checked, failures = _tally(_SUITE_FNS[name](max_len, lams, seed))
    return {
        "suite": name,
        "max_len": max_len,
        "lambdas": [str(lam) for lam in lams],
        "seed": seed,
        "checked": checked,
        "failures": failures,
    }
