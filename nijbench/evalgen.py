"""Seeded `nijalg eval` inputs and an independent reference for their output.

Each input is (expression text, lambda text, AST or None).  Expressions are
built as small ASTs, rendered to the CLI grammar and evaluated here by a
separate implementation of the product recursions, so the expected JSON
bytes never come from the code under test.  One input in INVALID_EVERY is
one the CLI contract says must exit 2; those with no AST fail to parse.

Words are tuples of monomials; a monomial is a sorted tuple of
(generator, exponent) pairs and the unit letter e is the empty tuple.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

LAMBDAS = ("0", "1", "-1", "2/3")
GENERATORS = ("a", "b", "c")
AUGMENTED_OPS = ("#", "%", "<", ">", "&")
BINOPS = ("*", "sh", "@") + AUGMENTED_OPS
INVALID_EVERY = 25  # one input in 25 is invalid by construction
INVALID_KINDS = ("syntax", "reserved", "aug-empty", "bminus-empty", "deep")
DEEP_NESTING = (3000, 4000)
UNIT = ()


class EmptyWordTerm(Exception):
    """The reference hit an operation restricted to the augmented module."""


# ---- reference algebra ----


def mono_mul(m1, m2):
    acc = dict(m1)
    for g, n in m2:
        acc[g] = acc.get(g, 0) + n
    return tuple(sorted(acc.items()))


def _accumulate(acc, prefix, terms, weight):
    for word, coeff in terms.items():
        key = prefix + word
        c = acc.get(key, 0) + weight * coeff
        if c:
            acc[key] = c
        else:
            acc.pop(key, None)


class Reference:
    """Quasi-shuffle family on word dictionaries, memoized per instance."""

    def __init__(self):
        self._memo = {}

    def word_product(self, u, v, lam, homogeneous):
        key = (u, v, lam, homogeneous)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if not u or not v:
            out = {u + v: Fraction(1)}
        else:
            out = {}
            _accumulate(out, u[:1], self.word_product(u[1:], v, lam, homogeneous), 1)
            _accumulate(out, v[:1], self.word_product(u, v[1:], lam, homogeneous), 1)
            if lam:
                merged = (UNIT, mono_mul(u[0], v[0])) if homogeneous else (mono_mul(u[0], v[0]),)
                _accumulate(out, merged, self.word_product(u[1:], v[1:], lam, homogeneous), -lam)
        self._memo[key] = out
        return out

    def binop(self, op, x, y, lam):
        if op in AUGMENTED_OPS and (() in x or () in y):
            raise EmptyWordTerm(op)
        qsh = lambda u, v, w=lam: self.word_product(u, v, w, False)
        if op == "*":
            fn = qsh
        elif op == "sh":
            fn = lambda u, v: qsh(u, v, Fraction(0))
        elif op == "@":
            fn = lambda u, v: self.word_product(u, v, lam, True)
        elif op == "#" or op == "&":
            fn = lambda u, v: _prefixed((mono_mul(u[0], v[0]),), qsh(u[1:], v[1:]))
        elif op == "%":
            fn = lambda u, v: _prefixed(
                (mono_mul(u[0], v[0]),), self.word_product(u[1:], v[1:], Fraction(1), True)
            )
        elif op == "<":
            fn = lambda u, v: _prefixed(u[:1], qsh(u[1:], v))
        else:  # ">"
            fn = lambda u, v: _prefixed(v[:1], qsh(u, v[1:]))
        acc = {}
        for w1, c1 in x.items():
            for w2, c2 in y.items():
                _accumulate(acc, (), fn(w1, w2), c1 * c2)
        if op == "&":
            return scale(-lam, acc)
        return acc

    def evaluate(self, node, lam):
        kind = node[0]
        if kind == "word":
            return {node[1]: Fraction(1)}
        if kind == "sum":
            acc = {}
            for coeff, child in node[1]:
                _accumulate(acc, (), self.evaluate(child, lam), coeff)
            return acc
        if kind == "bplus":
            return _prefixed((UNIT,), self.evaluate(node[1], lam))
        if kind == "bminus":
            inner = self.evaluate(node[1], lam)
            if () in inner:
                raise EmptyWordTerm("B-")
            acc = {}
            for word, coeff in inner.items():
                _accumulate(acc, (), {word[1:]: coeff}, 1)
            return acc
        _, op, left, right = node
        return self.binop(op, self.evaluate(left, lam), self.evaluate(right, lam), lam)


def _prefixed(prefix, terms):
    return {prefix + w: c for w, c in terms.items()}


def scale(coeff, terms):
    return {w: coeff * c for w, c in terms.items()} if coeff else {}


def _word_key(word):
    return (
        len(word),
        tuple((sum(n for _, n in m), tuple(g for g, n in m for _ in range(n))) for m in word),
    )


def render_json(terms, lam_text) -> str:
    """The bytes `nijalg eval --format json` prints, without the newline."""
    ordered = sorted(terms.items(), key=lambda kv: _word_key(kv[0]))
    return json.dumps(
        {
            "lambda": str(Fraction(lam_text)),
            "terms": [
                {"coeff": str(c), "word": [[[g, n] for g, n in m] for m in w]}
                for w, c in ordered
            ],
        }
    )


# ---- rendering ASTs in the CLI grammar ----


def letter_text(m) -> str:
    if not m:
        return "e"
    pieces = [g if n == 1 else f"{g}^{n}" for g, n in m]
    return pieces[0] if len(pieces) == 1 else "[" + " ".join(pieces) + "]"


def word_text(w) -> str:
    return ".".join(letter_text(m) for m in w) if w else "1"


def _scalar_text(coeff: Fraction, rng) -> str:
    if coeff == 1:
        return ""
    if coeff.denominator != 1:
        return f"{coeff}*"
    return f"{coeff}*" if rng.random() < 0.5 else f"{coeff} "


def to_text(node, rng) -> str:
    kind = node[0]
    if kind == "word":
        return word_text(node[1])
    if kind == "sum":
        parts = []
        for i, (coeff, child) in enumerate(node[1]):
            body = _scalar_text(abs(coeff), rng) + operand_text(child, rng)
            if i == 0:
                parts.append(body)
            else:
                parts.append(("+ " if coeff > 0 else "- ") + body)
        return " ".join(parts)
    if kind in ("bplus", "bminus"):
        return ("B+(" if kind == "bplus" else "B-(") + to_text(node[1], rng) + ")"
    _, op, left, right = node
    return f"{operand_text(left, rng)} {op} {operand_text(right, rng)}"


def operand_text(node, rng) -> str:
    if node[0] in ("word", "bplus", "bminus"):
        return to_text(node, rng)
    return "(" + to_text(node, rng) + ")"


# ---- seeded generation ----

# Operand specs: wL one word of length L; sKxL a sum of K scaled words of
# length L; pL B+ of a word of length L; mL B- of a word of length L; uL the
# empty word plus a scaled word of length L (a sum of words under an
# augmented product instead).  A pair (left, right) is one product; a tuple
# in either slot is an inner product, so the expression has two.
SHAPES = (
    ("w1", "w1"), ("w2", "w1"), ("w2", "w2"), ("w3", "w2"),
    ("w3", "w3"), ("s2x1", "w2"), ("s2x2", "s2x1"), ("s3x2", "w2"),
    ("s2x2", "s2x2"), ("p2", "w2"), ("m3", "s2x1"), ("u2", "w2"),
    (("w2", "w1"), "w2"), ("w1", ("w2", "w2")), (("s2x1", "w1"), "s2x1"),
    (("w1", "u1"), "w1"),
)
BATCH_SIZE = 2 * len(BINOPS) * len(LAMBDAS) * len(SHAPES)


def random_letter(rng):
    r = rng.random()
    if r < 0.05:
        return UNIT
    g = rng.choice(GENERATORS)
    if r < 0.75:
        return ((g, 1),)
    if r < 0.85:
        return ((g, 2),)
    h = rng.choice([x for x in GENERATORS if x != g])
    return tuple(sorted(((g, rng.randint(1, 2)), (h, 1))))


def random_word(rng, length):
    return tuple(random_letter(rng) for _ in range(length))


def random_coeff(rng) -> Fraction:
    return Fraction(rng.randint(1, 4), rng.choice((1, 1, 2, 3)))


def _scaled_sum(rng, children):
    terms = []
    for i, child in enumerate(children):
        coeff = random_coeff(rng)
        terms.append((coeff if i == 0 or rng.random() < 0.6 else -coeff, child))
    return ("sum", tuple(terms))


def operand(rng, spec, op, inner_op):
    """The operand of `op` named by spec; a tuple spec is an inner `inner_op`."""
    if isinstance(spec, tuple):
        return ("bin", inner_op, operand(rng, spec[0], inner_op, inner_op),
                operand(rng, spec[1], inner_op, inner_op))
    kind, length = spec[0], int(spec[-1])
    if kind == "w":
        return ("word", random_word(rng, length))
    if kind == "s":
        return _scaled_sum(rng, [("word", random_word(rng, length)) for _ in range(int(spec[1]))])
    if kind == "p":
        return ("bplus", ("word", random_word(rng, length)))
    if kind == "m":
        return ("bminus", ("word", random_word(rng, length)))
    first = ("word", random_word(rng, 1) if op in AUGMENTED_OPS else ())
    return _scaled_sum(rng, [first, ("word", random_word(rng, length))])


def shaped_valid(rng, i):
    """Input i's product, weight and shape come from i; letters from rng."""
    op = BINOPS[i % len(BINOPS)]
    inner_op = BINOPS[(i + i // len(BINOPS)) % len(BINOPS)]
    lam = LAMBDAS[(i // len(BINOPS)) % len(LAMBDAS)]
    left, right = SHAPES[(i // (len(BINOPS) * len(LAMBDAS))) % len(SHAPES)]
    node = ("bin", op, operand(rng, left, op, inner_op), operand(rng, right, op, inner_op))
    if i % 7 == 0:
        node = ("bplus", node)
    elif i % 7 == 1:
        node = ("sum", ((random_coeff(rng), node),))
    return node, lam


def random_invalid(rng, kind):
    """(text, AST or None): the AST is given when the reference decides."""
    w1 = word_text(random_word(rng, rng.randint(1, 3)))
    w2 = word_text(random_word(rng, rng.randint(1, 3)))
    g = rng.choice(GENERATORS)
    if kind == "syntax":
        template = rng.choice((
            "{w1} * * {w2}", "{w1} +", "[{g} {w2}", "{w1}..{w2}", "2/0*{w1}",
            "{g}^0", "({w1} * {w2}", "{w1} $ {w2}", "B+{w1}", "{w1} {w2}",
        ))
        return template.format(w1=w1, w2=w2, g=g), None
    if kind == "reserved":
        return rng.choice((f"[e {g}]", f"{w1}.[{g} e] * {w2}")), None
    if kind == "deep":
        depth = rng.randint(*DEEP_NESTING)
        return "(" * depth + f"{w1} * {w2}" + ")" * depth, None
    op = rng.choice(AUGMENTED_OPS)
    if kind == "aug-empty":
        bad = _scaled_sum(rng, [("word", ()), ("word", random_word(rng, 2))])
        right = ("word", random_word(rng, 2))
        return None, ("bin", op, bad, right) if rng.random() < 0.5 else ("bin", op, right, bad)
    # bminus-empty: B- of the empty word, directly or as B-(a) under op
    if rng.random() < 0.5:
        return None, ("bminus", _scaled_sum(rng, [("word", ())]))
    return None, ("bin", op, ("bminus", ("word", random_word(rng, 1))), ("word", random_word(rng, 2)))


def generate(seed: int, batch: int):
    """The (text, lambda, AST or None) inputs of one batch, in seeded order.

    Every INVALID_EVERY-th input is invalid, cycling through INVALID_KINDS.
    The multiset of shapes is the same for every seed, so the seed moves
    letters, scalars and order but not the amount of work.
    """
    rng = random.Random(f"eval-mixed:{seed}:{batch}")
    out = []
    for i in range(BATCH_SIZE):
        if i % INVALID_EVERY == INVALID_EVERY - 1:
            kind = INVALID_KINDS[(i // INVALID_EVERY) % len(INVALID_KINDS)]
            text, node = random_invalid(rng, kind)
            lam = LAMBDAS[i % len(LAMBDAS)]
        else:
            node, lam = shaped_valid(rng, i)
            text = None
        if text is None:
            text = to_text(node, rng)
        out.append((text, lam, node))
    rng.shuffle(out)
    return out


def expected(inputs):
    """(exit code, stdout) per input, from the reference evaluator."""
    ref = Reference()
    out = []
    for _, lam, node in inputs:
        if node is None:
            out.append((2, ""))
            continue
        try:
            terms = ref.evaluate(node, Fraction(lam))
        except EmptyWordTerm:
            out.append((2, ""))
        else:
            out.append((0, render_json(terms, lam) + "\n"))
    return out
