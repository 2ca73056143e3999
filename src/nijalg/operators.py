"""Relation checkers, concrete operators, and the universal-property machinery.

The generic checkers return the *defect element* of a relation rather than a
boolean, so counterexamples stay inspectable and printable; the universal
checks return defects too, ``None`` where a check holds, and build no report.
The concrete target family for universal-property tests is K^d with the
componentwise product, a coordinate-projection Rota-Baxter operator R, and
the Nijenhuis operator N_τ = R - τ(1 - R).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import index, mul
from typing import Callable, Iterable, Mapping, Tuple

from .base import Monomial, check_generator, exact, ratio, rational_text, record_class
from .errors import UnmappedGeneratorError
from .products import aug_mod_quasi_shuffle, aug_quasi_shuffle
from .tensor import TensorElement, Word, b_plus, fold_letters, require_augmented


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
    """An element of K^d with the componentwise (Hadamard) product.

    The coordinates are stored as ``TensorElement`` stores its coefficients:
    ``_nums``, a tuple of ``int`` numerators, over ``_den``, one ``int``
    denominator ≥ 1, in lowest terms, so gcd(_den, *_nums) = 1 and zero has
    ``_den == 1``.  ``coords`` reads each coordinate back as a ``Fraction``.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, coords: Iterable):
        pairs = [ratio(c) for c in coords]
        # the lcm of the reduced denominators shares no factor with every
        # numerator over it: no gcd is needed
        den = lcm(*[q for _, q in pairs])
        self._nums = tuple([p * (den // q) for p, q in pairs])
        self._den = den

    @classmethod
    def _reduced(cls, nums: Tuple[int, ...], den: int) -> "VectorAlgebraElement":
        """Integer numerators over ``den`` ≥ 1, put in lowest terms."""
        g = gcd(den, *nums)
        if g > 1:
            den //= g
            nums = tuple([n // g for n in nums])
        self = object.__new__(cls)
        self._nums, self._den = nums, den
        return self

    @classmethod
    def unit(cls, dim: int) -> "VectorAlgebraElement":
        return cls([1] * dim)

    @property
    def coords(self) -> Tuple[Fraction, ...]:
        return tuple([Fraction(n, self._den) for n in self._nums])

    @property
    def dim(self) -> int:
        return len(self._nums)

    def _zip(self, other: "VectorAlgebraElement"):
        """The numerator pairs of two vectors, refused unless they have one
        dimension: ``zip`` alone would drop the longer one's tail."""
        if len(other._nums) != len(self._nums):
            raise ValueError(f"dimension mismatch: K^{self.dim} and K^{other.dim}")
        return zip(self._nums, other._nums)

    def __add__(self, other: "VectorAlgebraElement") -> "VectorAlgebraElement":
        if not isinstance(other, VectorAlgebraElement):
            return NotImplemented
        p, q = self._den, other._den
        return self._reduced(tuple([a * q + b * p for a, b in self._zip(other)]), p * q)

    def __sub__(self, other: "VectorAlgebraElement") -> "VectorAlgebraElement":
        if not isinstance(other, VectorAlgebraElement):
            return NotImplemented
        p, q = self._den, other._den
        return self._reduced(tuple([a * q - b * p for a, b in self._zip(other)]), p * q)

    def __neg__(self) -> "VectorAlgebraElement":
        return self._reduced(tuple([-a for a in self._nums]), self._den)

    def __mul__(self, other):
        if isinstance(other, VectorAlgebraElement):
            return self._reduced(
                tuple([a * b for a, b in self._zip(other)]), self._den * other._den
            )
        p, q = ratio(other)
        return self._reduced(tuple([a * p for a in self._nums]), self._den * q)

    __rmul__ = __mul__  # a scalar on the left; the product is commutative

    def __pow__(self, exp: int) -> "VectorAlgebraElement":
        exp = index(exp)  # an int, never a float or string
        if exp < 0:
            return VectorAlgebraElement([c ** exp for c in self.coords])
        return self._reduced(tuple([a ** exp for a in self._nums]), self._den ** exp)

    def __bool__(self):
        return any(self._nums)

    def __eq__(self, other):
        return (
            isinstance(other, VectorAlgebraElement)
            and self._den == other._den
            and self._nums == other._nums
        )

    def __hash__(self):
        return hash((self._nums, self._den))

    def __str__(self):
        return "(" + ", ".join([rational_text(n, self._den) for n in self._nums]) + ")"

    __repr__ = __str__


class NijenhuisTarget(record_class("NijenhuisTarget", "dim", "mask", "tau", "images")):
    """A concrete commutative target algebra K^dim for universal-property tests.

    ``mask`` selects the coordinates kept by the projection R (0-based); R is
    an idempotent Rota-Baxter operator of weight 1, so N_τ = R - τ(1-R) is an
    associative Nijenhuis operator.  ``images`` maps generator names to their
    values under the homomorphism φ, which extends multiplicatively to
    monomials with φ(e) the unit vector.  A target keeps checked copies of both.
    """

    __slots__ = ()
    __hash__ = None  # images is a dict

    def __new__(cls, dim: int, mask: frozenset, tau: Fraction, images: Mapping):
        dim = index(dim)  # an int, never a float or string
        if dim < 0:
            raise ValueError("negative dimension")
        if not all(0 <= index(i) < dim for i in mask):
            raise ValueError("projection mask out of range")
        images = dict(images)
        for name, vec in images.items():
            check_generator(name)
            if not isinstance(vec, VectorAlgebraElement):
                raise TypeError(f"image of {name!r} is not a VectorAlgebraElement")
            if vec.dim != dim:
                raise ValueError(f"image of {name!r} has wrong dimension")
        return super().__new__(cls, dim, frozenset(mask), Fraction(exact(tau)), images)

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

    The value is computed in exact integers: the letter stage sums
    c_w·φ(a₁)⋯φ(aₙ) over the words w of each length n, and ``_at_points``
    weights those sums with dᵢ^(n-1) in each coordinate i.
    """
    if operator is None:
        operator = make_n_tau(target)
    if not isinstance(operator, DiagonalOperator) or operator.diagonal.dim != target.dim:
        raise TypeError(
            f"phi_extend needs a diagonal operator on K^{target.dim}, got {operator!r}"
        )
    return _vector(_at_points(_letter_stage(target)(x), _points(operator.diagonal)))


def _letter_stage(target: NijenhuisTarget):
    """φ̃'s first stage, which depends on the images φ alone.

    The returned function maps an augmented element x = Σ c_w·w to a dict
    from each word length n of x to the sum Σ_{|w|=n} c_w·φ(a₁)⋯φ(aₙ), as
    (integer numerators, positive denominator), not necessarily in lowest
    terms.  It keeps a memo of φ(letter) and one of φ(a₁)⋯φ(aₙ) per word,
    which live as long as the caller keeps the function.  A new word's image
    is built letter by letter, not from a stored suffix: words of one
    product share suffixes, but keying the memo by suffix measured no
    resolvable gain.
    """
    letters = {}  # letter -> φ(letter)
    words = {}  # word -> φ(a₁)⋯φ(aₙ) as (integer numerators, positive denominator)

    def sums(x: TensorElement) -> dict:
        require_augmented("phi_extend", x)
        by_len = {}  # n -> the sum over x's words of length n
        for word, numerator in x._terms.items():
            value = words.get(word)
            if value is None:
                nums, den = (1,) * target.dim, 1
                for mono in word:
                    image = letters.get(mono)
                    if image is None:
                        image = letters[mono] = phi_monomial(target, mono)
                    nums = list(map(mul, nums, image._nums))
                    den *= image._den
                value = words[word] = nums, den
            nums, den = value
            if numerator != 1:
                nums = [numerator * a for a in nums]
            term = nums, den * x._den
            n = len(word)
            by_len[n] = _sum(by_len[n], term) if n in by_len else term
        return by_len

    return sums


def _sum(u, v):
    """u + v for (integer numerators, positive denominator) vectors, over
    the lcm of the two denominators."""
    (p, q), (r, s) = u, v
    if q == s:
        return [a + b for a, b in zip(p, r)], q
    m = lcm(q, s)
    i, j = m // q, m // s
    return [a * i + b * j for a, b in zip(p, r)], m


def factorization_check(w: Word) -> TensorElement:
    """Rebuild the word a₁…aₙ as a₁ ⊠ B⁺ₑ(a₂ ⊠ B⁺ₑ(… ⊠ B⁺ₑ(aₙ)…)), one
    ``fold_letters``.

    The contract is that the result equals the single word with coefficient 1.
    """
    return fold_letters(
        w, lambda letter, acc: aug_mod_quasi_shuffle(letter, b_plus(acc)), "factorization"
    )


def _universal_check(target, pairs, checks) -> list:
    """The universal checks of one image map on ``pairs``.

    ``target`` stands for the image map and dimension that every checked
    operator shares, and ``checks`` holds (product, operator, weight)
    triples, ``weight`` being λ for a Rota-Baxter operator and ``None`` for
    a Nijenhuis one.  The result is one defect list per triple, in order; a
    defect list has one (multiplicative, intertwining) pair per input pair,
    ``None`` for a check that holds.

    Every operator is a diagonal d on the commutative K^d, so coordinate i
    of a check depends only on its product, i and the entry dᵢ.  Such an
    operator is always Nijenhuis, and it is Rota-Baxter of weight λ exactly
    when every dᵢ(λ − dᵢ) = 0; an operator that fails its relation is
    refused before any pair.  Each diagonal then becomes (i, p, q) points,
    dᵢ = p/q in lowest terms, numbered once across all checks, and the
    checks are grouped by their product, each group holding the points of
    its checks.  One ``_letter_stage``, made here and dropped on return,
    runs once per element of each pair: on x, y and B⁺ₑx, and on
    product(x, y) once per group.  ``_at_points`` evaluates φ̃ᵢ of x, y and
    B⁺ₑx once per point, and φ̃ᵢ(product(x, y)) once per point of its group.
    At each point of a group, φ̃ᵢ(product(x, y)) is compared with
    φ̃ᵢ(x)·φ̃ᵢ(y) and φ̃ᵢ(B⁺ₑx) with dᵢ·φ̃ᵢ(x), in integers, and a check
    holds when none of its points fails either.  Only a failing check
    builds its defect vectors, from the same values at its own points."""
    numbers = {}  # each distinct point (i, p, q) -> its number, in order
    groups = {}  # product -> its checks: (result index, points' bits, their numbers)
    for index, (product, operator, lam) in enumerate(checks):
        points = _points(operator.diagonal)
        if lam is not None:
            lp, lq = ratio(lam)
            if any(p * (lp * q - lq * p) for _, p, q in points):
                raise ValueError(f"target operator {operator.name} fails its relation")
        ks = [numbers.setdefault(point, len(numbers)) for point in points]
        groups.setdefault(product, []).append((index, sum(1 << k for k in ks), ks))
    points = list(numbers)
    plan = []  # per product: the numbers of its group's points, the points, its checks
    for product, group in groups.items():
        numbered = sorted({k for _, _, ks in group for k in ks})
        plan.append((product, numbered, [points[k] for k in numbered], group))
    letters = _letter_stage(target)
    results = [[] for _ in checks]
    for x, y in pairs:
        vx, vy = _at_points(letters(x), points), _at_points(letters(y), points)
        vbx = _at_points(letters(b_plus(x)), points)
        for product, numbered, its_points, group in plan:
            vxy = _at_points(letters(product(x, y)), its_points)
            bad = 0  # the bits of the points that fail either check
            for k, (_, p, q), (a, b) in zip(numbered, its_points, vxy):
                (c, e), (f, g), (r, s) = vx[k], vy[k], vbx[k]
                if a * e * g != c * f * b or r * q * e != p * c * s:
                    bad |= 1 << k
            for index, bits, ks in group:
                defects = None, None
                if bad & bits:
                    at = dict(zip(numbered, vxy))
                    mult = _defect([(at[k], vx[k], vy[k]) for k in ks])
                    defects = mult, _defect([(vbx[k], vx[k], points[k][1:]) for k in ks])
                results[index].append(defects)
    return results


def _at_points(sums: dict, points) -> list:
    """φ̃ᵢ of an element at each (i, p, q) of ``points``, for an operator
    whose diagonal entry dᵢ is p/q, q > 0, from the element's letter-stage
    ``sums``: φ̃ᵢ = Σ_n dᵢ^(n-1)·S_n[i], one (integer numerator, positive
    denominator) pair per point, not necessarily in lowest terms.

    An element whose words all have one length n (a word, B⁺ₑ of a word,
    x ⊠ y and the shuffle x ⊡ y at λ = 0 of two words) has the one sum S_n
    over D, and its pairs are (S_n[i]·p^(n-1), D·q^(n-1)) in closed form,
    the pairs the fold over lengths returns for a one-term sum.  Elements
    of several lengths, such as x ⊡ y at λ ≠ 0, whose merges shorten
    words, and the zero element, with no sums, keep the fold."""
    if len(sums) == 1:
        ((n, (nums, den)),) = sums.items()
        k = n - 1
        return [(nums[i] * p ** k, den * q ** k) for i, p, q in points]
    terms = [(n - 1, nums, den) for n, (nums, den) in sums.items()]
    values = []
    for i, p, q in points:
        num, den = 0, 1
        for k, nums, d in terms:
            a, b = nums[i] * p ** k, d * q ** k
            num, den = num * b + a * den, den * b
        values.append((num, den))
    return values


def _points(diagonal: VectorAlgebraElement) -> list:
    """The (i, p, q) point of each coordinate i of ``diagonal``, its entry
    dᵢ = p/q in lowest terms."""
    den = diagonal._den
    return [(i, p // gcd(p, den), den // gcd(p, den)) for i, p in enumerate(diagonal._nums)]


def _vector(entries) -> VectorAlgebraElement:
    """The vector whose coordinates are the (integer numerator, positive
    denominator) pairs ``entries``."""
    den = lcm(*[d for _, d in entries])
    return VectorAlgebraElement._reduced(tuple([n * (den // d) for n, d in entries]), den)


def _defect(triples):
    """w − u·v coordinatewise, from one (w, u, v) triple of (integer
    numerator, positive denominator) pairs per coordinate: ``None`` where it
    is zero, else the defect vector."""
    entries = [(a * e * g - c * f * b, b * e * g) for (a, b), (c, e), (f, g) in triples]
    return _vector(entries) if any(n for n, _ in entries) else None


def _sharing_images(targets) -> list:
    """``targets`` as a nonempty list; refused unless all share one dimension
    and image map, and so one letter stage."""
    targets = list(targets)
    if not targets:
        raise ValueError("no target to check")
    first = targets[0]
    for target in targets[1:]:
        if target.dim != first.dim or target.images != first.images:
            raise ValueError("targets checked together must share one image map")
    return targets


def universal_property_check(targets, pairs) -> list:
    """Check multiplicativity and operator intertwining of φ̃ for ⊠ and B⁺ₑ
    on every target of ``targets``, a sequence that shares one image map.

    The result is one list per target, in order, holding one (multiplicative,
    intertwining) pair per input pair, ``None`` for a check that holds, else
    its nonzero defect vector; each element's letter stage serves every
    target."""
    targets = _sharing_images(targets)
    checks = [(aug_mod_quasi_shuffle, make_n_tau(target), None) for target in targets]
    return _universal_check(targets[0], pairs, checks)


def rb_universal_check(lams, targets, pairs) -> list:
    """Rota-Baxter analog: ⊡ at weight λ against the operator λ·projection,
    with the same defect pairs as ``universal_property_check``.

    ``lams`` is a sequence of weights and ``targets`` a sequence sharing one
    image map.  The result is one defect list per (target, λ), targets
    outer, and the letter stage of x ⊡ y at each distinct weight serves
    every target."""
    lams = [Fraction(exact(lam)) for lam in lams]
    targets = _sharing_images(targets)
    products = {lam: lambda x, y, lam=lam: aug_quasi_shuffle(x, y, lam) for lam in lams}
    checks = [
        (products[lam], target.scaled_projection(lam), lam)
        for target in targets
        for lam in lams
    ]
    return _universal_check(targets[0], pairs, checks)
