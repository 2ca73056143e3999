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

from .base import Monomial, check_generator, exact
from .errors import EmptyWordTermError, UnmappedGeneratorError
from .products import aug_mod_quasi_shuffle, aug_quasi_shuffle
from .tensor import TensorElement, Word, b_plus, fold_letters


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
        self._coords = tuple(Fraction(exact(c)) for c in coords)

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

    def _zip(self, other: "VectorAlgebraElement"):
        """The coordinate pairs of two vectors, refused unless they have one
        dimension: ``zip`` alone would drop the longer one's tail."""
        if len(other._coords) != len(self._coords):
            raise ValueError(f"dimension mismatch: K^{self.dim} and K^{other.dim}")
        return zip(self._coords, other._coords)

    def __add__(self, other: "VectorAlgebraElement") -> "VectorAlgebraElement":
        return self._trusted(tuple([a + b for a, b in self._zip(other)]))

    def __sub__(self, other: "VectorAlgebraElement") -> "VectorAlgebraElement":
        return self._trusted(tuple([a - b for a, b in self._zip(other)]))

    def __neg__(self) -> "VectorAlgebraElement":
        return self._trusted(tuple([-a for a in self._coords]))

    def __mul__(self, other):
        if isinstance(other, VectorAlgebraElement):
            return self._trusted(tuple([a * b for a, b in self._zip(other)]))
        other = Fraction(exact(other))
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
        object.__setattr__(self, "tau", Fraction(exact(self.tau)))

    def masked_diagonal(self, on, off) -> VectorAlgebraElement:
        """The vector that is ``on`` at the mask's coordinates, ``off`` elsewhere."""
        return VectorAlgebraElement(on if i in self.mask else off for i in range(self.dim))

    def scaled_projection(self, lam) -> DiagonalOperator:
        """λ·R: a Rota-Baxter operator of weight λ on this algebra; the
        projection R itself is ``scaled_projection(1)``."""
        lam = Fraction(exact(lam))
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
    return mul(rx, ry) + exact(lam) * operator(mul(x, y)) - operator(mul(rx, y) + mul(x, ry))


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

    The value is computed in exact integers by ``_phi_core``, in its two
    stages: the letter stage sums c_w·φ(a₁)⋯φ(aₙ) over the words w of each
    length n, and the operator stage folds those sums with d^(n-1).  It is
    turned into one Fraction per coordinate at the end.
    """
    if operator is None:
        operator = make_n_tau(target)
    return _vector(_phi_core(target, operator)(x))


def _phi_core(target: NijenhuisTarget, operator: DiagonalOperator):
    """φ̃ for ``operator`` in exact integers: the returned function maps an
    augmented element to one (numerator, positive denominator) pair per
    coordinate, not necessarily in lowest terms.

    It is the target's ``_letter_stage`` followed by the operator's
    ``_operator_stage``, and keeps their memos as long as the caller keeps
    the function: one ``phi_extend`` call.  A universal check runs the two
    stages itself, so that one letter stage serves all its targets.
    """
    fold = _operator_stage(target, operator)
    letters = _letter_stage(target)
    return lambda x: fold(letters(x))


def _letter_stage(target: NijenhuisTarget):
    """φ̃'s first stage, which depends on the images φ alone.

    The returned function maps an augmented element x = Σ c_w·w to a dict
    from each word length n of x to the sums Σ_{|w|=n} c_w·φ(a₁)⋯φ(aₙ), one
    (numerator, positive denominator) pair per coordinate, not necessarily in
    lowest terms.  It keeps a memo of φ(letter), as pairs too, which lives
    as long as the caller keeps the function.
    """
    dim = target.dim
    letters = {}  # letter -> φ(letter)

    def sums(x: TensorElement) -> dict:
        # x's integer numerators share the denominator x._den, so each length
        # and coordinate sums its terms per denominator of the letter
        # factors, then folds the sums and divides by x._den once
        by_len = {}  # n -> per coordinate: denominator -> numerator
        for word, numerator in x._terms.items():
            if not word:
                raise EmptyWordTermError("phi_extend is defined on the augmented module only")
            factors = []
            for mono in word:
                image = letters.get(mono)
                if image is None:
                    image = letters[mono] = _pairs(phi_monomial(target, mono))
                factors.append(image)
            by_coord = by_len.get(len(word))
            if by_coord is None:
                by_coord = by_len[len(word)] = [{} for _ in range(dim)]
            for by_den, column in zip(by_coord, zip(*factors)):
                num, den = numerator, 1
                for p, q in column:
                    num *= p
                    den *= q
                if num:
                    by_den[den] = by_den.get(den, 0) + num
        out = {}
        for n, by_coord in by_len.items():
            value = []
            for by_den in by_coord:
                num, den = 0, 1
                for q, p in by_den.items():
                    num, den = num * q + p * den, den * q
                value.append((num, den * x._den))
            out[n] = tuple(value)
        return out

    return sums


def _operator_stage(target: NijenhuisTarget, operator: DiagonalOperator):
    """φ̃'s second stage, for a diagonal ``operator`` d on the target's K^d.

    The returned function folds the letter stage's sums S_n of an element
    into φ̃ of it, Σ_n d^(n-1)·S_n, one (numerator, positive denominator)
    pair per coordinate.  It keeps the powers d^k it has needed, as pairs.
    """
    if not isinstance(operator, DiagonalOperator) or operator.diagonal.dim != target.dim:
        raise TypeError(
            f"phi_extend needs a diagonal operator on K^{target.dim}, got {operator!r}"
        )
    diagonal = _pairs(operator.diagonal)
    powers = [((1, 1),) * target.dim]  # powers[k] = d^k
    zero_vector = ((0, 1),) * target.dim

    def fold(sums: dict) -> Tuple[Tuple[int, int], ...]:
        value = None
        for n, column in sums.items():
            while len(powers) < n:
                powers.append(
                    tuple([(p * q, r * s) for (p, r), (q, s) in zip(powers[-1], diagonal)])
                )
            term = [(p * dp, q * dq) for (p, q), (dp, dq) in zip(column, powers[n - 1])]
            value = term if value is None else [
                (p * s + r * q, q * s) for (p, q), (r, s) in zip(value, term)
            ]
        return zero_vector if value is None else tuple(value)

    return fold


def _pairs(v: VectorAlgebraElement) -> Tuple[Tuple[int, int], ...]:
    return tuple([(c.numerator, c.denominator) for c in v.coords])


def _vector(pairs: Tuple[Tuple[int, int], ...]) -> VectorAlgebraElement:
    return VectorAlgebraElement._trusted(tuple([Fraction(p, q) for p, q in pairs]))


def factorization_check(w: Word) -> TensorElement:
    """Rebuild the word a₁…aₙ as a₁ ⊠ B⁺ₑ(a₂ ⊠ B⁺ₑ(… ⊠ B⁺ₑ(aₙ)…)), one
    ``fold_letters``.

    The contract is that the result equals the single word with coefficient 1.
    """
    return fold_letters(
        w, lambda letter, acc: aug_mod_quasi_shuffle(letter, b_plus(acc)), "factorization"
    )


def _operator_sanity(operator: DiagonalOperator, relation: Callable) -> None:
    """Refuse ``operator`` unless ``relation`` holds for it on the all-ones pair.

    The operator is diagonal, d, and the product coordinatewise, so the
    relation's defect at (x, y) is c(dᵢ)·xᵢ·yᵢ in coordinate i, with c = 0 for
    Nijenhuis and c(d) = d(λ − d) for weight-λ Rota-Baxter: x = y = 1 decides
    the relation exactly.  A non-diagonal operator would need every pair of
    basis vectors.
    """
    ones = VectorAlgebraElement.unit(operator.diagonal.dim)
    if relation(ones, ones):
        raise ValueError(f"target operator {operator.name} fails its relation")


def _universal_check(target, pairs, checks) -> list:
    """The universal checks of one image map on ``pairs``.

    ``target`` stands for the image map and dimension that every checked
    operator shares, and ``checks`` holds one (product, [(operator, relation),
    …]) entry per product, ``relation`` being the operator's defect on two
    vectors.  The result is one defect list per operator, in the order of
    ``checks``; a defect list has one (multiplicative, intertwining) pair per
    input pair, ``None`` for a check that holds.  Every operator must first
    pass its sanity check.

    φ̃ runs in its two stages.  One ``_letter_stage``, made here and dropped
    on return, serves every operator: it runs once per element of each pair,
    on x, y and B⁺ₑx, and on product(x, y) once per product.  Each operator's
    ``_operator_stage`` then folds those sums with its own diagonal, which is
    exact because every operator is diagonal on the commutative K^d.
    φ̃(product(x, y)) is compared with φ̃(x)·φ̃(y), and φ̃(B⁺ₑx) with d·φ̃(x),
    by integer cross-multiplication (``_is_product``), and only a failing
    check builds its Fraction defect, from the same integers."""
    stages = []
    for product, operators in checks:
        folds = []
        for operator, relation in operators:
            _operator_sanity(operator, relation)
            fold = _operator_stage(target, operator)
            folds.append((operator, fold, _pairs(operator.diagonal)))
        stages.append((product, folds))
    letters = _letter_stage(target)
    results = [[] for _, operators in stages for _ in operators]
    for x, y in pairs:
        sx, sy, sbx = letters(x), letters(y), letters(b_plus(x))
        out = iter(results)
        for product, operators in stages:
            sxy = letters(product(x, y))
            for operator, fold, diagonal in operators:
                phix, phiy, phixy, phibx = fold(sx), fold(sy), fold(sxy), fold(sbx)
                mult = twine = None
                if not _is_product(phixy, phix, phiy):
                    mult = _vector(phixy) - _vector(phix) * _vector(phiy)
                if not _is_product(phibx, diagonal, phix):
                    twine = _vector(phibx) - operator(_vector(phix))
                next(out).append((mult, twine))
    return results


def _is_product(w, u, v) -> bool:
    """Whether w = u·v coordinatewise, for vectors of (numerator, positive
    denominator) pairs: p/q = (p₁/q₁)(p₂/q₂) iff p·q₁·q₂ = p₁·p₂·q."""
    return all(p * q1 * q2 == p1 * p2 * q for (p, q), (p1, q1), (p2, q2) in zip(w, u, v))


def _sharing_images(targets) -> list:
    """``targets``, one target or a sequence of them, as a nonempty list;
    refused unless all share one dimension and image map, and so one letter
    stage."""
    targets = [targets] if isinstance(targets, NijenhuisTarget) else list(targets)
    if not targets:
        raise ValueError("no target to check")
    first = targets[0]
    for target in targets[1:]:
        if target.dim != first.dim or target.images != first.images:
            raise ValueError("targets checked together must share one image map")
    return targets


def universal_property_check(targets, pairs) -> list:
    """Check multiplicativity and operator intertwining of φ̃ for ⊠ and B⁺ₑ:
    one (multiplicative, intertwining) pair per input pair, ``None`` for a
    check that holds, else its nonzero defect vector.

    ``targets`` is one target, or a sequence of targets that share one image
    map; for a sequence the result is one such list per target, in order,
    and each element's letter stage serves every target."""
    many = not isinstance(targets, NijenhuisTarget)
    targets = _sharing_images(targets)
    checks = []
    for target in targets:
        operator = make_n_tau(target)
        relation = lambda x, y, operator=operator: nijenhuis_defect(operator, vec_mul, x, y)
        checks.append((operator, relation))
    defects = _universal_check(targets[0], pairs, [(aug_mod_quasi_shuffle, checks)])
    return defects if many else defects[0]


def rb_universal_check(lams, targets, pairs) -> list:
    """Rota-Baxter analog: ⊡ at weight λ against the operator λ·projection,
    with the same defect pairs as ``universal_property_check``.

    ``lams`` is one weight, or a list or tuple of them, and ``targets`` one
    target or a sequence sharing one image map.  If either is a sequence,
    the result is one defect list per (target, λ), targets outer, and the
    letter stage of x ⊡ y at each weight serves every target."""
    one_weight = not isinstance(lams, (list, tuple))
    many = not one_weight or not isinstance(targets, NijenhuisTarget)
    lams = [Fraction(exact(lam)) for lam in ((lams,) if one_weight else lams)]
    targets = _sharing_images(targets)
    checks = []
    for lam in lams:
        operators = []
        for target in targets:
            operator = target.scaled_projection(lam)
            relation = lambda x, y, operator=operator, lam=lam: rota_baxter_defect(
                operator, vec_mul, lam, x, y
            )
            operators.append((operator, relation))
        product = lambda x, y, lam=lam: aug_quasi_shuffle(x, y, lam)
        checks.append((product, operators))
    by_lam = _universal_check(targets[0], pairs, checks)
    defects = [by_lam[j * len(targets) + i] for i in range(len(targets)) for j in range(len(lams))]
    return defects if many else defects[0]
