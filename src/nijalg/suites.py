"""Identity-check sweeps driving the CLI `check` command and the acceptance
tests.

Every suite runs an exhaustive (or seeded-random) sweep over small words on
two generators.  A suite is a generator that yields one result per check, in
a fixed order: a falsy result when the check passes, and its failure record
when it fails.  Every check, ``universal``'s too, is written ``yield defect
and _failure(text, defect)``, so its inputs are named only when it fails.
``_failure`` builds every record, and ``_tally`` counts every check and keeps
the failures; the report holds both.  All comparisons are exact.

A triple sweep (``_assoc_sweep``, both dendriform suites and
``suite_torsion_cocycle``) memoizes its element operations with
``functools.cache``, keyed by the values of their arguments: elements hash
and compare on their canonical form, so a hit is the value a recomputation
would give, and the (x, y) products that many triples share, (x * y) * z
and (y * x) * z among them, are each computed once.  The dendriform suites'
pair checks read the same memo.  A memo serves one λ of one sweep; it is a
local of the generator and is freed when its tally ends.

Each suite is registered once, in the ordered table ``_SUITES``, with its
sweep and the weights it fixes; ``SUITES``, ``run_suite`` and the CLI's
suite list all read that table, so a new suite is one entry.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import cache
from types import SimpleNamespace
from typing import Iterable, List, Tuple

from .base import exact, gen
from .dendriform import (
    DendriformContext,
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


def words_up_to(max_len: int, min_len: int = 0) -> List[Word]:
    """All words with single-generator letters, in canonical order."""
    letters = tuple(gen(g) for g in GENERATORS)
    out: List[Word] = []
    for n in range(min_len, max_len + 1):
        out.extend(itertools.product(letters, repeat=n))
    return out


def word_pairs(max_total: int, min_len: int = 0):
    """Each pair of ``words_up_to`` words with at most ``max_total`` letters,
    in canonical order.  The words are sorted by length, so each inner loop
    stops at the first word that is too long."""
    ws = words_up_to(max_total, min_len)
    for x in ws:
        for y in ws:
            if len(x) + len(y) > max_total:
                break
            yield x, y


def word_triples(max_total: int, min_len: int = 0):
    """Each ``word_pairs`` pair followed by a third word, within ``max_total``
    letters in all, in canonical order."""
    ws = words_up_to(max_total, min_len)
    for x, y in word_pairs(max_total, min_len):
        for z in ws:
            if len(x) + len(y) + len(z) > max_total:
                break
            yield x, y, z


def _elements(max_len: int, min_len: int = 0) -> dict:
    """Each word of ``words_up_to`` with its one-word element, built once per sweep."""
    return {w: TensorElement.from_word(w) for w in words_up_to(max_len, min_len)}


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


def _at(product, lam):
    """``product`` at weight ``lam``, memoized by the values of its two
    factors: one memo for one λ of one sweep."""
    return cache(lambda x, y: product(x, y, lam))


def _dendriform_memo(ctx: DendriformContext) -> SimpleNamespace:
    """``ctx``'s ≺, ≻ and •, each memoized by the values of its two factors:
    one memo for one λ of one sweep.  A miss calls ``ctx``'s bound method."""
    return SimpleNamespace(prec=cache(ctx.prec), succ=cache(ctx.succ), bullet=cache(ctx.bullet))


def _assoc_sweep(product, max_len, lambdas, min_len):
    e = _elements(max_len, min_len)
    for lam in lambdas:
        mul = _at(product, lam)
        for x, y in word_pairs(max_len, min_len):
            defect = mul(e[x], e[y]) - mul(e[y], e[x])
            yield defect and _failure(f"comm lambda={lam} {_inputs(x, y)}", defect)
        for x, y, z in word_triples(max_len, min_len):
            ex, ey, ez = e[x], e[y], e[z]
            defect = mul(mul(ex, ey), ez) - mul(ex, mul(ey, ez))
            yield defect and _failure(f"assoc lambda={lam} {_inputs(x, y, z)}", defect)


def suite_nijenhuis(max_len, lambdas, seed):
    e = _elements(max_len, 1)
    for x, y in word_pairs(max_len, 1):
        defect = nijenhuis_defect(b_plus, aug_mod_quasi_shuffle, e[x], e[y])
        yield defect and _failure(_inputs(x, y), defect)


def suite_rota_baxter(max_len, lambdas, seed):
    e = _elements(max_len, 1)
    for lam in lambdas:
        mul = lambda u, v: aug_quasi_shuffle(u, v, lam)
        for x, y in word_pairs(max_len, 1):
            defect = rota_baxter_defect(b_plus, mul, lam, e[x], e[y])
            yield defect and _failure(f"lambda={lam} {_inputs(x, y)}", defect)


def suite_mixed_oracle(max_len, lambdas, seed):
    e = _elements(max_len)
    for lam in lambdas:
        for x, y in word_pairs(max_len):
            defect = mixed_shuffle(x, y, lam) - quasi_shuffle(e[x], e[y], lam)
            yield defect and _failure(f"mixed lambda={lam} {_inputs(x, y)}", defect)
            defect = mod_quasi_shuffle_oracle(x, y, lam) - mod_quasi_shuffle(e[x], e[y], lam)
            yield defect and _failure(f"mod lambda={lam} {_inputs(x, y)}", defect)


def suite_factorization(max_len, lambdas, seed):
    for w in words_up_to(max_len, 1):
        defect = factorization_check(w) - TensorElement.from_word(w)
        yield defect and _failure(f"w={word_str(w)}", defect)


def _split_defect(ops, x, y, lam):
    """x ≺ y + x ≻ y + x • y − x * y, from the memoized operations ``ops``."""
    return ops.prec(x, y) + ops.succ(x, y) + ops.bullet(x, y) - quasi_shuffle(x, y, lam)


def suite_dendriform_di(max_len, lambdas, seed):
    ops = _dendriform_memo(DendriformContext(0))
    e = _elements(max_len, 1)
    for x, y in word_pairs(max_len, 1):
        defect = _split_defect(ops, e[x], e[y], 0)
        yield defect and _failure(f"split {_inputs(x, y)}", defect)
    for x, y, z in word_triples(max_len, 1):
        for i, defect in enumerate(dialgebra_defects(ops, e[x], e[y], e[z]), 1):
            yield defect and _failure(f"axiom{i} {_inputs(x, y, z)}", defect)


def suite_dendriform_tri(max_len, lambdas, seed):
    e = _elements(max_len, 1)
    for lam in lambdas:
        ops = _dendriform_memo(DendriformContext(lam))
        for x, y in word_pairs(max_len, 1):
            ex, ey = e[x], e[y]
            defect = _split_defect(ops, ex, ey, lam)
            yield defect and _failure(f"split lambda={lam} {_inputs(x, y)}", defect)
            defect = ops.bullet(ex, ey) - (-lam) * aug_quasi_shuffle(ex, ey, lam)
            yield defect and _failure(f"convention lambda={lam} {_inputs(x, y)}", defect)
        for x, y, z in word_triples(max_len, 1):
            for i, defect in enumerate(trialgebra_defects(ops, e[x], e[y], e[z]), 1):
                yield defect and _failure(f"axiom{i} lambda={lam} {_inputs(x, y, z)}", defect)


def suite_omega(max_len, lambdas, seed):
    for w in words_up_to(max_len, 1):
        defect = omega_prec(w) - TensorElement.from_word(w)
        yield defect and _failure(f"omega_prec w={word_str(w)}", defect)
        defect = omega_succ(w) - TensorElement.from_word(w)
        yield defect and _failure(f"omega_succ w={word_str(w)}", defect)


def suite_torsion_cocycle(max_len, lambdas, seed):
    mul = aug_mod_quasi_shuffle
    torsion = cache(lambda u, v: nijenhuis_torsion(u, v, b_plus, mul))
    mu = cache(lambda u, v: mu_product(u, v, b_plus, mul))
    e = _elements(max_len, 1)
    for x, y in word_pairs(max_len, 1):
        defect = torsion(e[x], e[y])
        yield defect and _failure(f"torsion {_inputs(x, y)}", defect)
    for x, y, z in word_triples(max_len, 1):
        ex, ey, ez = e[x], e[y], e[z]
        defect = mu(mu(ex, ey), ez) - mu(ex, mu(ey, ez))
        yield defect and _failure(f"mu-assoc {_inputs(x, y, z)}", defect)
        defect = hochschild_coboundary(torsion, mul, ex, ey, ez)
        yield defect and _failure(f"cocycle {_inputs(x, y, z)}", defect)


# ---- universal property sweep ----

MASKS = (frozenset(), frozenset({0}), frozenset({0, 1}), frozenset(range(4)))
TAUS = (Fraction(0), Fraction(1), Fraction(-2), Fraction(5, 3))
RB_LAMBDAS = (Fraction(0), Fraction(1), Fraction(2, 3))


def random_images(rng: random.Random) -> dict:
    """A random image in K^4 of each generator."""
    return {
        g: VectorAlgebraElement(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4))
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
    params = [(mask, tau) for mask in MASKS for tau in TAUS]
    targets = [NijenhuisTarget(4, mask, tau, images) for mask, tau in params]
    for (mask, tau), defects in zip(params, universal_property_check(targets, pairs)):
        yield from _universal_results(pairs, defects, f"tau={tau}; mask={sorted(mask)}")


def _rota_baxter_results(max_len, seed, samples):
    images, pairs = _sample(max_len, seed, samples)
    masks = (frozenset({0, 1}), frozenset(range(4)))
    targets = [NijenhuisTarget(4, mask, Fraction(0), images) for mask in masks]
    params = [(mask, lam) for mask in masks for lam in RB_LAMBDAS]
    for (mask, lam), defects in zip(params, rb_universal_check(RB_LAMBDAS, targets, pairs)):
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


# Every suite, in the order the CLI lists them: its name -> (its sweep, the
# weights it fixes).  A suite whose identities hold at fixed weights checks
# these, whatever weights the caller asks for, and its report lists them;
# None checks every requested λ.  An entry names its product inside a
# lambda, so the product is looked up each time the suite runs.
_SUITES = {
    "assoc-qsh": (lambda n, lams, seed: _assoc_sweep(quasi_shuffle, n, lams, 0), None),
    "assoc-aqs": (lambda n, lams, seed: _assoc_sweep(aug_quasi_shuffle, n, lams, 1), None),
    "assoc-mqs": (lambda n, lams, seed: _assoc_sweep(mod_quasi_shuffle, n, lams, 0), None),
    "assoc-amq": (
        lambda n, lams, seed: _assoc_sweep(
            lambda x, y, lam: aug_mod_quasi_shuffle(x, y), n, lams, 1
        ),
        (1,),
    ),
    "nijenhuis": (suite_nijenhuis, (1,)),
    "rota-baxter": (suite_rota_baxter, None),
    "mixed-oracle": (suite_mixed_oracle, None),
    "factorization": (suite_factorization, (1,)),
    "dendriform-di": (suite_dendriform_di, (0,)),
    "dendriform-tri": (suite_dendriform_tri, None),
    "omega": (suite_omega, (1,)),
    "universal": (suite_universal, RB_LAMBDAS),
    "torsion-cocycle": (suite_torsion_cocycle, (1,)),
}

SUITES = tuple(_SUITES)


def run_suite(name: str, max_len: int = 4, lambdas: Iterable = ("1",), seed: int = 0) -> dict:
    """Run one sweep; the report lists each failing instance with its defect."""
    if name not in _SUITES:
        raise UnknownSuiteError(
            f"unknown suite {name!r}; choose from: {', '.join(SUITES)}"
        )
    sweep, fixed = _SUITES[name]
    lams = tuple(exact(v) for v in (lambdas if fixed is None else fixed))
    checked, failures = _tally(sweep(max_len, lams, seed))
    return {
        "suite": name,
        "max_len": max_len,
        "lambdas": [str(lam) for lam in lams],
        "seed": seed,
        "checked": checked,
        "failures": failures,
    }
