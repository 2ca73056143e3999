"""Dendriform dialgebra and trialgebra splittings of the quasi-shuffle.

The three operations split the quasi-shuffle product of two augmented
elements by the origin of the leading letter:

  X ≺ Z = x₁(B⁻(X) * Z) = X ⊡ B⁺ₑ(Z)
  X ≻ Z = z₁(X * B⁻(Z)) = B⁺ₑ(X) ⊡ Z
  X • Z = −λ·[x₁z₁](B⁻(X) * B⁻(Z)) = −λ·(X ⊡ Z)

so the three sum exactly to the quasi-shuffle product.  At λ = 0 • vanishes
and (≺, ≻) is the weight-0 dendriform dialgebra split of the shuffle.

The code computes the B⁺ₑ forms, through ⊡ and so through its head memo.
Since * commutes, X ≻ Z is computed as Z ⊡ B⁺ₑ(X) = Z ≺ X, and reads the
memo entry that Z ≺ X writes.
"""

from __future__ import annotations

from .base import exact, ratio
from .products import aug_quasi_shuffle
# unused here, but nijbench's tracing test checks that its wrappers reach
# this binding
from .products import quasi_shuffle  # noqa: F401
from .tensor import TensorElement, Word, b_plus, fold_letters, require_augmented


class DendriformContext:
    """λ together with the splitting operations ≺, ≻, • at that weight."""

    def __init__(self, lam=1):
        self.lam = exact(lam)
        p, q = ratio(self.lam)
        self._neg_lam = -p, q  # −λ as ints, which • scales by without a Fraction

    def prec(self, x: TensorElement, y: TensorElement) -> TensorElement:
        """x ≺ y = x ⊡ B⁺ₑ(y): the quasi-shuffle terms led by the first factor's head."""
        require_augmented("prec", x, y)
        return aug_quasi_shuffle(x, b_plus(y), self.lam)

    def succ(self, x: TensorElement, y: TensorElement) -> TensorElement:
        """x ≻ y = y ⊡ B⁺ₑ(x) = y ≺ x, since * commutes: the quasi-shuffle
        terms led by the second factor's head."""
        require_augmented("succ", x, y)
        return aug_quasi_shuffle(y, b_plus(x), self.lam)

    def bullet(self, x: TensorElement, y: TensorElement) -> TensorElement:
        """x • y = −λ·(x ⊡ y): the quasi-shuffle terms that merge both heads."""
        require_augmented("bullet", x, y)
        p, q = self._neg_lam
        if not p:
            return TensorElement._trusted({})
        return aug_quasi_shuffle(x, y, self.lam)._scaled(p, q)

    def star(self, x: TensorElement, y: TensorElement) -> TensorElement:
        """≺ + ≻ + •, which equals the quasi-shuffle product."""
        return self.prec(x, y) + self.succ(x, y) + self.bullet(x, y)


def dialgebra_defects(ctx, x, y, z):
    """The three dendriform dialgebra axiom defects (for the λ = 0 split).

    ``ctx`` needs only ``prec`` and ``succ``; each of x ≺ y, x ≻ y, y ≺ z
    and y ≻ z is computed once."""
    p, s = ctx.prec, ctx.succ
    p_xy, s_xy, p_yz, s_yz = p(x, y), s(x, y), p(y, z), s(y, z)
    return (
        p(p_xy, z) - p(x, p_yz + s_yz),
        p(s_xy, z) - s(x, p_yz),
        s(x, s_yz) - s(p_xy + s_xy, z),
    )


def trialgebra_defects(ctx, x, y, z):
    """The seven tridendriform axiom defects with ⋆ = ≺ + ≻ + •.

    ``ctx`` needs only ``prec``, ``succ`` and ``bullet``; each of ≺, ≻ and •
    of (x, y) and of (y, z) is computed once, and ⋆ is their sum."""
    p, s, b = ctx.prec, ctx.succ, ctx.bullet
    p_xy, s_xy, b_xy = p(x, y), s(x, y), b(x, y)
    p_yz, s_yz, b_yz = p(y, z), s(y, z), b(y, z)
    return (
        p(p_xy, z) - p(x, p_yz + s_yz + b_yz),
        p(s_xy, z) - s(x, p_yz),
        s(x, s_yz) - s(p_xy + s_xy + b_xy, z),
        b(s_xy, z) - s(x, b_yz),
        b(p_xy, z) - b(x, s_yz),
        p(b_xy, z) - b(x, p_yz),
        b(b_xy, z) - b(x, b_yz),
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
