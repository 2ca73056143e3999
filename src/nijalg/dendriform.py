"""Dendriform dialgebra and trialgebra splittings of the quasi-shuffle.

The three operations split the quasi-shuffle product of two augmented
elements by the origin of the leading letter:

  X ≺ Z = x₁(B⁻(X) * Z) = X ⊡ B⁺ₑ(Z)
  X ≻ Z = z₁(X * B⁻(Z)) = B⁺ₑ(X) ⊡ Z
  X • Z = −λ·[x₁z₁](B⁻(X) * B⁻(Z)) = −λ·(X ⊡ Z)

so the three sum exactly to the quasi-shuffle product.  At λ = 0 • vanishes
and (≺, ≻) is the weight-0 dendriform dialgebra split of the shuffle.

The B⁺ₑ forms are the definitions and the tests' references.  On two words
the code reads the quasi-shuffle's memos of one-step terms, through
``products._term_product``: ≺ reads ``lead`` a(U * bV), ≻ reads it with its
factors swapped, since the quasi-shuffle commutes (x ≻ y = y ≺ x), and • is
−λ·⊡, which reads ``head`` [ab](U * V) through the same reader.
"""

from __future__ import annotations

from .base import exact
from .products import _qsh, _term_product
# unused here, but nijbench's tracing test checks that its wrappers reach
# this binding
from .products import quasi_shuffle  # noqa: F401
from .tensor import TensorElement, Word, fold_letters


class DendriformContext:
    """λ together with the splitting operations ≺, ≻, • at that weight."""

    def __init__(self, lam=1):
        self.lam = exact(lam)

    def prec(self, x: TensorElement, y: TensorElement) -> TensorElement:
        """x ≺ y: the quasi-shuffle terms led by the first factor's head."""
        return _term_product(_qsh.lead, "prec", x, y, self.lam)

    def succ(self, x: TensorElement, y: TensorElement) -> TensorElement:
        """x ≻ y = y ≺ x: the quasi-shuffle terms led by the second factor's head."""
        return _term_product(_qsh.lead, "succ", y, x, self.lam)

    def bullet(self, x: TensorElement, y: TensorElement) -> TensorElement:
        """x • y = −λ·(x ⊡ y): the quasi-shuffle terms that merge both heads."""
        return -self.lam * _term_product(_qsh.head, "bullet", x, y, self.lam)

    def star(self, x: TensorElement, y: TensorElement) -> TensorElement:
        """≺ + ≻ + •, which equals the quasi-shuffle product."""
        return self.prec(x, y) + self.succ(x, y) + self.bullet(x, y)


def dialgebra_defects(ctx: DendriformContext, x, y, z):
    """The three dendriform dialgebra axiom defects (for the λ = 0 split)."""
    p, s = ctx.prec, ctx.succ

    def both(u, v):
        return p(u, v) + s(u, v)

    return (
        p(p(x, y), z) - p(x, both(y, z)),
        p(s(x, y), z) - s(x, p(y, z)),
        s(x, s(y, z)) - s(both(x, y), z),
    )


def trialgebra_defects(ctx: DendriformContext, x, y, z):
    """The seven tridendriform axiom defects with ⋆ = ≺ + ≻ + •."""
    p, s, b, star = ctx.prec, ctx.succ, ctx.bullet, ctx.star
    return (
        p(p(x, y), z) - p(x, star(y, z)),
        p(s(x, y), z) - s(x, p(y, z)),
        s(x, s(y, z)) - s(star(x, y), z),
        b(s(x, y), z) - s(x, b(y, z)),
        b(p(x, y), z) - b(x, s(y, z)),
        p(b(x, y), z) - b(x, p(y, z)),
        b(b(x, y), z) - b(x, b(y, z)),
    )


def omega_prec(w: Word) -> TensorElement:
    """Right-nested ≺ over the letters at λ = 1: a₁ ≺ (a₂ ≺ (… ≺ aₙ)), one
    ``fold_letters``.

    Acts as the identity on monomial-letter words (at any λ).
    """
    return fold_letters(w, DendriformContext().prec, "omega_prec")


def omega_succ(w: Word) -> TensorElement:
    """Mirror left-nested ≻ over the reversed letters at λ = 1:
    (…(aₙ ≻ aₙ₋₁) ≻ …) ≻ a₁, one ``fold_letters``.

    Also the identity on monomial-letter words.
    """
    ctx = DendriformContext()
    return fold_letters(w, lambda letter, acc: ctx.succ(acc, letter), "omega_succ")
