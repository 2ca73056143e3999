"""Relation checkers, concrete operators, and the universal-property machinery.

The generic checkers return the *defect element* of a relation rather than a
boolean, so counterexamples stay inspectable and printable; the universal
checks return defects too, ``None`` where a check holds, and build no report.
The concrete target family for universal-property tests is K^d with the
componentwise product, a coordinate-projection Rota-Baxter operator R, and
the Nijenhuis operator N_τ = R - τ(1 - R).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Tuple

from .base import Monomial, check_generator
from .errors import EmptyWordTermError, UnmappedGeneratorError
from .products import aug_mod_quasi_shuffle, aug_quasi_shuffle
from .tensor import TensorElement, Word, b_plus


class DiagonalOperator:
    """Coordinatewise multiplication by the vector ``diagonal`` on K^d; the
    name labels reports."""

    __slots__ = ("name", "diagonal")

    def __init__(self, name: str, diagonal: "VectorAlgebraElement"):
        self.name = name
        self.diagonal = diagonal

    def __call__(self, x):
        return self.diagonal * x

    def __repr__(self):
        return f"DiagonalOperator({self.name})"


class VectorAlgebraElement:
    """An element of K^d with the componentwise (Hadamard) product."""

    __slots__ = ("_coords",)

    def __init__(self, coords: Iterable):
        self._coords = tuple(Fraction(c) for c in coords)

    @classmethod
    def _trusted(cls, coords: Tuple[Fraction, ...]) -> "VectorAlgebraElement":
        """Wrap a tuple whose entries are already Fractions, without coercing.

        Arithmetic results come through here: Fraction operands give
        Fraction results, so re-wrapping them would only repeat the work.
        """
        self = object.__new__(cls)
        self._coords = coords
        return self

    @classmethod
    def unit(cls, dim: int) -> "VectorAlgebraElement":
        return cls([1] * dim)

    @property
    def coords(self) -> Tuple[Fraction, ...]:
        return self._coords

    @property
    def dim(self) -> int:
        return len(self._coords)

    def __add__(self, other: "VectorAlgebraElement") -> "VectorAlgebraElement":
        return self._trusted(tuple([a + b for a, b in zip(self._coords, other._coords)]))

    def __sub__(self, other: "VectorAlgebraElement") -> "VectorAlgebraElement":
        return self._trusted(tuple([a - b for a, b in zip(self._coords, other._coords)]))

    def __neg__(self) -> "VectorAlgebraElement":
        return self._trusted(tuple([-a for a in self._coords]))

    def __mul__(self, other):
        if isinstance(other, VectorAlgebraElement):
            return self._trusted(tuple([a * b for a, b in zip(self._coords, other._coords)]))
        other = Fraction(other)
        return self._trusted(tuple([a * other for a in self._coords]))

    __rmul__ = __mul__  # a scalar on the left; the product is commutative

    def __pow__(self, exp: int) -> "VectorAlgebraElement":
        return self._trusted(tuple([a ** exp for a in self._coords]))

    def __bool__(self):
        return any(self._coords)

    def __eq__(self, other):
        return isinstance(other, VectorAlgebraElement) and self._coords == other._coords

    def __hash__(self):
        return hash(self._coords)

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self._coords) + ")"

    __repr__ = __str__


def vec_mul(x: VectorAlgebraElement, y: VectorAlgebraElement) -> VectorAlgebraElement:
    return x * y


@dataclass(frozen=True)
class NijenhuisTarget:
    """A concrete commutative target algebra K^dim for universal-property tests.

    ``mask`` selects the coordinates kept by the projection R (0-based); R is
    an idempotent Rota-Baxter operator of weight 1, so N_τ = R - τ(1-R) is an
    associative Nijenhuis operator.  ``images`` maps generator names to their
    values under the homomorphism φ, which extends multiplicatively to
    monomials with φ(e) the unit vector.
    """

    dim: int
    mask: frozenset
    tau: Fraction
    images: Mapping[str, VectorAlgebraElement]

    def __post_init__(self):
        if not all(0 <= i < self.dim for i in self.mask):
            raise ValueError("projection mask out of range")
        for name, vec in self.images.items():
            check_generator(name)
            if vec.dim != self.dim:
                raise ValueError(f"image of {name!r} has wrong dimension")
        object.__setattr__(self, "tau", Fraction(self.tau))

    def masked_diagonal(self, on, off) -> VectorAlgebraElement:
        """The vector that is ``on`` at the mask's coordinates, ``off`` elsewhere."""
        return VectorAlgebraElement(on if i in self.mask else off for i in range(self.dim))

    def scaled_projection(self, lam) -> DiagonalOperator:
        """λ·R: a Rota-Baxter operator of weight λ on this algebra; the
        projection R itself is ``scaled_projection(1)``."""
        lam = Fraction(lam)
        return DiagonalOperator(
            f"{lam}*proj{sorted(self.mask)}", self.masked_diagonal(lam, 0)
        )


def make_n_tau(target: NijenhuisTarget) -> DiagonalOperator:
    """N_τ = R - τ(1 - R) for the target's projection R: diagonal 1 on the
    mask and -τ off it."""
    return DiagonalOperator(
        f"N_tau[{target.tau},proj{sorted(target.mask)}]",
        target.masked_diagonal(1, -target.tau),
    )


def nijenhuis_defect(operator: Callable, mul: Callable, x, y):
    """N(x)N(y) + N²(xy) − N(N(x)y + xN(y)); zero iff the relation holds here."""
    nx, ny = operator(x), operator(y)
    return mul(nx, ny) + operator(operator(mul(x, y))) - operator(mul(nx, y) + mul(x, ny))


def rota_baxter_defect(operator: Callable, mul: Callable, lam, x, y):
    """R(x)R(y) + λR(xy) − R(R(x)y + xR(y)); zero iff the weight-λ relation holds."""
    rx, ry = operator(x), operator(y)
    return mul(rx, ry) + Fraction(lam) * operator(mul(x, y)) - operator(mul(rx, y) + mul(x, ry))


def hochschild_coboundary(tmap: Callable, mul: Callable, a, b, c):
    """a·T(b,c) − T(ab,c) + T(a,bc) − T(a,b)·c; zero for all triples iff T is a
    2-cocycle."""
    return mul(a, tmap(b, c)) - tmap(mul(a, b), c) + tmap(a, mul(b, c)) - mul(tmap(a, b), c)


def phi_monomial(target: NijenhuisTarget, mono: Monomial) -> VectorAlgebraElement:
    """φ extended multiplicatively from generators to monomials; φ(e) = 1."""
    acc = None
    for name, exp in mono.exponents:
        try:
            img = target.images[name]
        except KeyError:
            raise UnmappedGeneratorError(f"generator {name!r} has no image") from None
        if exp != 1:
            img = img ** exp
        acc = img if acc is None else acc * img
    return VectorAlgebraElement.unit(target.dim) if acc is None else acc


def phi_extend(
    target: NijenhuisTarget, x: TensorElement, operator: DiagonalOperator = None
) -> VectorAlgebraElement:
    """The unique operator-compatible extension of φ to augmented elements.

    On a word a₁…aₙ, φ̃ is φ(a₁)·N(φ(a₂)·N(…·N(φ(aₙ))…)); sums extend
    linearly.  ``operator`` must be one of the target's diagonal operators
    (``make_n_tau``, ``scaled_projection``): N multiplies
    coordinatewise by a vector d, and K^d is commutative, so the word
    evaluates in closed form to d^(n-1)·φ(a₁)⋯φ(aₙ), coordinate by
    coordinate.  ``operator`` defaults to the target's N_τ; pass
    ``target.scaled_projection(λ)`` for the Rota-Baxter variant.

    The value is computed in exact integers by ``_phi_core`` and turned into
    one Fraction per coordinate at the end.
    """
    if operator is None:
        operator = make_n_tau(target)
    return _vector(_phi_core(target, operator)(x))


def _phi_core(target: NijenhuisTarget, operator: DiagonalOperator):
    """φ̃ for ``operator`` in exact integers: the returned function maps an
    augmented element to one (numerator, positive denominator) pair per
    coordinate, not necessarily in lowest terms.

    The function keeps a memo of φ(letter) and of the powers d^k of the
    operator's diagonal d, as pairs too.  The memo belongs to the function,
    so it serves one target and operator and lives as long as the caller
    keeps the function: one universal check, or one ``phi_extend`` call.
    """
    if not isinstance(operator, DiagonalOperator) or operator.diagonal.dim != target.dim:
        raise TypeError(
            f"phi_extend needs a diagonal operator on K^{target.dim}, got {operator!r}"
        )
    diagonal = _pairs(operator.diagonal)
    powers = [((1, 1),) * target.dim]  # powers[k] = d^k
    letters = {}  # letter -> φ(letter)

    def phi(x: TensorElement) -> Tuple[Tuple[int, int], ...]:
        # each coordinate sums its terms per denominator, then folds the sums
        sums = [{} for _ in range(target.dim)]  # denominator -> numerator
        for word, coeff in x.iterterms():
            if not word:
                raise EmptyWordTermError("phi_extend is defined on the augmented module only")
            while len(powers) < len(word):
                powers.append(
                    tuple([(p * q, r * s) for (p, r), (q, s) in zip(powers[-1], diagonal)])
                )
            factors = [powers[len(word) - 1]]
            for mono in word:
                image = letters.get(mono)
                if image is None:
                    image = letters[mono] = _pairs(phi_monomial(target, mono))
                factors.append(image)
            numerator, denominator = coeff.numerator, coeff.denominator
            for by_den, column in zip(sums, zip(*factors)):
                num, den = numerator, denominator
                for p, q in column:
                    num *= p
                    den *= q
                if num:
                    by_den[den] = by_den.get(den, 0) + num
        value = []
        for by_den in sums:
            num, den = 0, 1
            for q, p in by_den.items():
                num, den = num * q + p * den, den * q
            value.append((num, den))
        return tuple(value)

    return phi


def _pairs(v: VectorAlgebraElement) -> Tuple[Tuple[int, int], ...]:
    return tuple([(c.numerator, c.denominator) for c in v.coords])


def _vector(pairs: Tuple[Tuple[int, int], ...]) -> VectorAlgebraElement:
    return VectorAlgebraElement._trusted(tuple([Fraction(p, q) for p, q in pairs]))


def factorization_check(w: Word) -> TensorElement:
    """Rebuild the word a₁…aₙ as a₁ ⊠ B⁺ₑ(a₂ ⊠ B⁺ₑ(… ⊠ B⁺ₑ(aₙ)…)).

    The contract is that the result equals the single word with coefficient 1.
    """
    if not w:
        raise EmptyWordTermError("factorization is defined for nonempty words only")
    acc = TensorElement.from_word(w[-1:])
    for mono in w[-2::-1]:
        acc = aug_mod_quasi_shuffle(TensorElement.from_word((mono,)), b_plus(acc))
    return acc


def _operator_sanity(operator: DiagonalOperator, relation: Callable, dim: int) -> None:
    # cheap defect check on a deterministic sample before trusting the target
    samples = [
        VectorAlgebraElement(range(1, dim + 1)),
        VectorAlgebraElement(Fraction(i, 2) - 1 for i in range(dim)),
    ]
    for x in samples:
        for y in samples:
            if relation(x, y):
                raise ValueError(f"target operator {operator.name} fails its relation")


def _universal_check(target, pairs, product, operator, relation) -> list:
    """One (multiplicative, intertwining) defect pair per input pair, ``None``
    for a check that holds, once ``relation`` (the operator's defect on two
    vectors) passes a sanity check.  One ``_phi_core`` memo serves every pair;
    φ̃(product(x, y)) is compared with φ̃(x)·φ̃(y), and φ̃(B⁺ₑx) with d·φ̃(x),
    by integer cross-multiplication (``_is_product``), and only a failing
    check builds its Fraction defect, from the same integers."""
    _operator_sanity(operator, relation, target.dim)
    phi = _phi_core(target, operator)
    diagonal = _pairs(operator.diagonal)
    defects = []
    for x, y in pairs:
        phix, phiy = phi(x), phi(y)
        phixy, phibx = phi(product(x, y)), phi(b_plus(x))
        mult = twine = None
        if not _is_product(phixy, phix, phiy):
            mult = _vector(phixy) - _vector(phix) * _vector(phiy)
        if not _is_product(phibx, diagonal, phix):
            twine = _vector(phibx) - operator(_vector(phix))
        defects.append((mult, twine))
    return defects


def _is_product(w, u, v) -> bool:
    """Whether w = u·v coordinatewise, for vectors of (numerator, positive
    denominator) pairs: p/q = (p₁/q₁)(p₂/q₂) iff p·q₁·q₂ = p₁·p₂·q."""
    return all(p * q1 * q2 == p1 * p2 * q for (p, q), (p1, q1), (p2, q2) in zip(w, u, v))


def universal_property_check(target: NijenhuisTarget, pairs) -> list:
    """Check multiplicativity and operator intertwining of φ̃ for ⊠ and B⁺ₑ:
    one (multiplicative, intertwining) pair per input pair, ``None`` for a
    check that holds, else its nonzero defect vector."""
    operator = make_n_tau(target)
    relation = lambda x, y: nijenhuis_defect(operator, vec_mul, x, y)
    return _universal_check(target, pairs, aug_mod_quasi_shuffle, operator, relation)


def rb_universal_check(lam, target: NijenhuisTarget, pairs) -> list:
    """Rota-Baxter analog: ⊡ at weight λ against the operator λ·projection,
    with the same defect pairs as ``universal_property_check``."""
    lam = Fraction(lam)
    operator = target.scaled_projection(lam)
    product = lambda x, y: aug_quasi_shuffle(x, y, lam)
    relation = lambda x, y: rota_baxter_defect(operator, vec_mul, lam, x, y)
    return _universal_check(target, pairs, product, operator, relation)
