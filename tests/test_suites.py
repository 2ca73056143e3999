"""The check driver: every report is pinned, and inputs are named only on failure."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from nijalg import (
    DendriformContext,
    NijenhuisTarget,
    TensorElement,
    aug_mod_quasi_shuffle,
    aug_quasi_shuffle,
    b_plus,
    gen,
    hochschild_coboundary,
    mod_quasi_shuffle,
    mu_product,
    nijenhuis_torsion,
    operators,
    rb_universal_check,
    suites,
    universal_property_check,
)
from nijalg.suites import (
    SUITES,
    _elements,
    _failure,
    _inputs,
    _tally,
    run_suite,
    word_pairs,
    word_triples,
    words_up_to,
)
from nijalg.tensor import word_str
from conftest import count_calls

# sha256 of json.dumps(run_suite(suite, 3, lambdas, 0)).  Every byte of a
# report is part of the CLI's output; these were taken from the reports of
# the per-suite counter implementation that the generators replaced.
REPORT_DIGESTS = {
    ("assoc-qsh", "1"): "b13134f999ec0272afc6729d16d36e5bb2086fc696db04fc0d919a36d9cfc59f",
    ("assoc-qsh", "2,-1"): "e37e09aa585e7e2475aa3354765fe3b0487dd2b2740b90e2d907a773853f3895",
    ("assoc-aqs", "1"): "0bfbf7e6c5a01bf65c957eecc8c46dd2c22e44e50ad951e1ca4760651da42dc0",
    ("assoc-aqs", "2,-1"): "38245411b97d7d7683d77ef5bf8f4c66c3181c293018514e29bc9b0711f155a2",
    ("assoc-mqs", "1"): "8dd129f4ee8fb4a996b5f1b68b952f4b9a118d7aa233020c9bcac9f274027106",
    ("assoc-mqs", "2,-1"): "3e033c53b90fbd010b478f4d4ef3631af491aac23f984655e7817d6429e43310",
    ("assoc-amq", "1"): "94041a0457aa6beb72a31ee27ac1a1cb5674c6d394a2d1d6890f7c6f78e5bc02",
    ("assoc-amq", "2,-1"): "94041a0457aa6beb72a31ee27ac1a1cb5674c6d394a2d1d6890f7c6f78e5bc02",
    ("nijenhuis", "1"): "8d7b64962a41bf7ec3f622a5949010b690abad9be0bd00b2d27b03eb33802adf",
    ("nijenhuis", "2,-1"): "8d7b64962a41bf7ec3f622a5949010b690abad9be0bd00b2d27b03eb33802adf",
    ("rota-baxter", "1"): "2ba6f5ebcffd515d8e05375b99325406fcc3556ebe6243f4796ac82f3f02ab7e",
    ("rota-baxter", "2,-1"): "9e794631f61c2d6be252ff7f9c01de5cf3ab8e8c70ea9c395214f52d2f7c59b3",
    ("mixed-oracle", "1"): "b07d6ecf1616a1cdcb4d1bca764c37c9788ae6ec4a9acc9be05cd640be06d42e",
    ("mixed-oracle", "2,-1"): "74e7337c6649b0337066eeba3336f77d78ec37648b3c171cfd0146ccb0ee6ccf",
    ("factorization", "1"): "62d86ef03c601d968b736989620096c704a9adc4e0787b22ac86bb3d43282a3f",
    ("factorization", "2,-1"): "62d86ef03c601d968b736989620096c704a9adc4e0787b22ac86bb3d43282a3f",
    ("dendriform-di", "1"): "bcf0e2f558d4f707bac6565a2106457e7029a399370ef88560e36235536be38d",
    ("dendriform-di", "2,-1"): "bcf0e2f558d4f707bac6565a2106457e7029a399370ef88560e36235536be38d",
    ("dendriform-tri", "1"): "99eff028246e578dfeb7fd16659078cba24843e3541d9dfba15960b12e302282",
    ("dendriform-tri", "2,-1"): "9c022bdc721e37790c09100fd5a5844256abba33d17df6a5f2fb0a77b7df4eac",
    ("omega", "1"): "6f8ed0c585e26e0f65a0e87414b335af1425143551c64c7b7b9cd8d1fab61d48",
    ("omega", "2,-1"): "6f8ed0c585e26e0f65a0e87414b335af1425143551c64c7b7b9cd8d1fab61d48",
    ("universal", "1"): "ee7d316a82092131bce6decd2534068f6eecba18d58b5b645fa9a53b76eb40e2",
    ("universal", "2,-1"): "ee7d316a82092131bce6decd2534068f6eecba18d58b5b645fa9a53b76eb40e2",
    ("torsion-cocycle", "1"): "e639aa99a5d8ff1e49c160dc80a0d1a3d2ec3ef24fe62d75d193edec0e82764a",
    ("torsion-cocycle", "2,-1"): "e639aa99a5d8ff1e49c160dc80a0d1a3d2ec3ef24fe62d75d193edec0e82764a",
}


def test_every_suite_is_pinned():
    assert {suite for suite, _ in REPORT_DIGESTS} == set(SUITES)


@pytest.mark.parametrize(
    "suite, lambdas", list(REPORT_DIGESTS), ids=[f"{s}@{lams}" for s, lams in REPORT_DIGESTS]
)
def test_reports_match_their_pinned_digests(suite, lambdas):
    report = run_suite(suite, 3, lambdas.split(","), 0)
    if (suite, lambdas) == ("assoc-mqs", "2,-1"):
        assert report["failures"]  # the pinned set holds a failing report
    digest = hashlib.sha256(json.dumps(report).encode()).hexdigest()
    assert digest == REPORT_DIGESTS[suite, lambdas]


@pytest.mark.parametrize(
    "suite, product",
    [
        ("assoc-qsh", "quasi_shuffle"),
        ("assoc-aqs", "aug_quasi_shuffle"),
        ("assoc-mqs", "mod_quasi_shuffle"),
        ("assoc-amq", "aug_mod_quasi_shuffle"),
        ("nijenhuis", "b_plus"),
    ],
)
def test_suites_look_their_products_up_when_they_run(monkeypatch, suite, product):
    # a suite that kept the product it found at import would escape every
    # later rebinding of it, such as a tracer's wrapper or a mutant
    calls = count_calls(monkeypatch, suites, product)
    report = run_suite(suite, 3, ["1"], 0)
    assert report["checked"] > 0 and report["failures"] == []
    assert calls


@pytest.mark.parametrize("min_len", [0, 1])
def test_word_sweeps_match_the_filtered_cross_product(min_len):
    for max_total in range(7):
        ws = words_up_to(max_total, min_len)
        pairs = [(x, y) for x in ws for y in ws if len(x) + len(y) <= max_total]
        triples = [
            (x, y, z)
            for x, y in pairs
            for z in ws
            if len(x) + len(y) + len(z) <= max_total
        ]
        assert list(word_pairs(max_total, min_len)) == pairs
        assert list(word_triples(max_total, min_len)) == triples


def test_passing_checks_never_name_their_inputs(monkeypatch):
    # the word suites name their inputs with word_str, the universal suite
    # with the text of its two elements
    def refuse(*args):
        raise AssertionError("inputs named for a passing check")

    monkeypatch.setattr(suites, "word_str", refuse)
    monkeypatch.setattr(TensorElement, "__str__", refuse)
    for suite in SUITES:
        report = run_suite(suite, 3, ["1"], 0)
        assert report["checked"] > 0 and report["failures"] == [], suite
    with pytest.raises(AssertionError, match="inputs named"):
        run_suite("assoc-mqs", 3, ["2"], 0)
    doubled = lambda x, y: 2 * aug_mod_quasi_shuffle(x, y)
    monkeypatch.setattr(operators, "aug_mod_quasi_shuffle", doubled)
    with pytest.raises(AssertionError, match="inputs named"):
        run_suite("universal", 3, ["1"], 0)


def test_universal_records_keep_their_order_and_keys(monkeypatch):
    # under a doubled product and a doubled B+ both checks of every pair
    # fail here, so the failure records show the order of the checks
    monkeypatch.setattr(
        operators, "aug_mod_quasi_shuffle", lambda x, y: 2 * aug_mod_quasi_shuffle(x, y)
    )
    monkeypatch.setattr(
        operators, "aug_quasi_shuffle", lambda x, y, lam: 2 * aug_quasi_shuffle(x, y, lam)
    )
    monkeypatch.setattr(operators, "b_plus", lambda x: 2 * b_plus(x))
    rng = random.Random(0)
    images = suites.random_images(rng)
    pairs = suites.random_augmented_pairs(rng, 3, 4)
    # the full mask keeps every coordinate of φ̃ nonzero for these images
    target = NijenhuisTarget(4, frozenset(range(4)), Fraction(1), images)
    for label, defects in (
        ("tau=1; mask=[0, 1, 2, 3]", universal_property_check([target], pairs)[0]),
        ("lambda=2/3; mask=[0, 1, 2, 3]", rb_universal_check([Fraction(2, 3)], [target], pairs)[0]),
    ):
        results = list(suites._universal_results(pairs, defects, label))
        assert len(results) == 2 * len(pairs) and all(results)
        assert [r["check"] for r in results] == ["multiplicative", "intertwine"] * 3
        assert [r["inputs"] for r in results] == [
            f"X={x}; Y={y}; {label}" for x, y in pairs for _ in range(2)
        ]
        assert all(list(r) == ["inputs", "check", "defect", "pass"] for r in results)
        assert not any(r["pass"] for r in results)


def test_convention_check_sees_a_bullet_of_the_wrong_sign(monkeypatch):
    # with • = +λ·(x ⊡ y) the convention check compares λ·(x ⊡ y) with
    # −λ·(x ⊡ y), so every pair fails with the defect 2λ·(x ⊡ y)
    def plus_bullet(self, x, y):
        return self.lam * aug_quasi_shuffle(x, y, self.lam)

    monkeypatch.setattr(DendriformContext, "bullet", plus_bullet)
    lam = Fraction(2, 3)
    report = run_suite("dendriform-tri", 3, ["2/3"], 0)
    convention = [r for r in report["failures"] if r["inputs"].startswith("convention ")]
    assert convention == [
        {
            "inputs": f"convention lambda=2/3 x={word_str(x)} y={word_str(y)}",
            "defect": str(
                2 * lam * aug_quasi_shuffle(
                    TensorElement.from_word(x), TensorElement.from_word(y), lam
                )
            ),
            "pass": False,
        }
        for x, y in word_pairs(3, 1)
    ]


# The two triple sweeps as they were before each kept a memo of its element
# operations, copied verbatim: every product is recomputed.


def unmemoized_assoc_sweep(product, max_len, lambdas, min_len):
    e = _elements(max_len, min_len)
    for lam in lambdas:
        for x, y in word_pairs(max_len, min_len):
            defect = product(e[x], e[y], lam) - product(e[y], e[x], lam)
            yield defect and _failure(f"comm lambda={lam} {_inputs(x, y)}", defect)
        for x, y, z in word_triples(max_len, min_len):
            ex, ey, ez = e[x], e[y], e[z]
            defect = product(product(ex, ey, lam), ez, lam) - product(
                ex, product(ey, ez, lam), lam
            )
            yield defect and _failure(f"assoc lambda={lam} {_inputs(x, y, z)}", defect)


def unmemoized_suite_torsion_cocycle(max_len, lambdas, seed):
    mul = aug_mod_quasi_shuffle
    torsion = lambda u, v: nijenhuis_torsion(u, v, b_plus, mul)
    mu = lambda u, v: mu_product(u, v, b_plus, mul)
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


def failing_kinds(failures):
    return {record["inputs"].split()[0] for record in failures}


LAMBDAS = (Fraction(0), 1, -1, Fraction(2, 3))


@pytest.mark.parametrize(
    "product, lambdas, min_len, kinds",
    [
        # ≺ neither commutes nor associates, at any λ
        (lambda x, y, lam: DendriformContext(lam).prec(x, y), LAMBDAS, 1, {"comm", "assoc"}),
        # ⊛ commutes, and associates only at λ = 1
        (mod_quasi_shuffle, (2,), 0, {"assoc"}),
    ],
    ids=["prec", "mod-at-2"],
)
def test_the_assoc_memo_never_changes_a_tally(product, lambdas, min_len, kinds):
    tally = _tally(suites._assoc_sweep(product, 4, lambdas, min_len))
    assert tally == _tally(unmemoized_assoc_sweep(product, 4, lambdas, min_len))
    assert failing_kinds(tally[1]) == kinds


def test_the_torsion_memos_never_change_a_tally(monkeypatch):
    # prepending the generator a, not e, is not a Nijenhuis operator for ⊠:
    # every kind of check fails somewhere
    a = gen("a")
    monkeypatch.setattr(suites, "b_plus", lambda x: x.prepend(a))
    monkeypatch.setitem(globals(), "b_plus", lambda x: x.prepend(a))
    tally = _tally(suites.suite_torsion_cocycle(4, (1,), 0))
    assert tally == _tally(unmemoized_suite_torsion_cocycle(4, (1,), 0))
    assert failing_kinds(tally[1]) == {"torsion", "mu-assoc", "cocycle"}
