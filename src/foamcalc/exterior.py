"""Values of the invariants.

WedgeValue lives in the exterior square over Q of the span of the declared
basis: a sparse strictly-upper-triangular rational matrix indexed by
generator pairs.  Because the generators are declared Q-independent, the
pairs (i, j) with i < j form a basis of the relevant subspace, so zero is
structural.

TensorH1Value is a vector of Weights, one per free generator of a finitely
generated abelian group; torsion parts contribute nothing.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BasisMismatch
from .weights import GeneratorBasis, Weight, _frac_str, _merge, _negated, _scaled


class WedgeValue:
    """Sparse map (i, j) with i < j -> rational coefficient.  Immutable."""

    __slots__ = ("basis", "terms", "_hash")

    def __init__(self, basis: GeneratorBasis, terms=None):
        clean: dict = {}
        for (i, j), c in (terms or {}).items():
            if i != j:
                key, c = ((i, j), Fraction(c)) if i < j else ((j, i), -Fraction(c))
                clean[key] = clean.get(key, 0) + c
        self.basis = basis
        self.terms: tuple = tuple(sorted((k, c) for k, c in clean.items() if c))
        self._hash = None

    @classmethod
    def _of(cls, basis: GeneratorBasis, terms: tuple) -> "WedgeValue":
        """Trusted constructor: ``terms`` is already sorted and sparse, with
        i < j in every key."""
        v = object.__new__(cls)
        v.basis = basis
        v.terms = terms
        v._hash = None
        return v

    @classmethod
    def zero(cls, basis: GeneratorBasis) -> "WedgeValue":
        return cls._of(basis, ())

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WedgeValue)
            and self.basis == other.basis
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.basis, self.terms))
        return h

    def _check_basis(self, other: "WedgeValue") -> None:
        if self.basis != other.basis:
            raise BasisMismatch("wedge values over different bases")

    def __add__(self, other: "WedgeValue") -> "WedgeValue":
        self._check_basis(other)
        return WedgeValue._of(self.basis, _merge(self.terms, other.terms))

    def __sub__(self, other: "WedgeValue") -> "WedgeValue":
        self._check_basis(other)
        return WedgeValue._of(self.basis, _merge(self.terms, other.terms, True))

    def __neg__(self) -> "WedgeValue":
        return WedgeValue._of(self.basis, _negated(self.terms))

    def scale(self, q) -> "WedgeValue":
        return WedgeValue._of(self.basis, _scaled(self.terms, q))

    def __repr__(self) -> str:
        if not self.terms:
            return "WedgeValue(0)"
        bits = [
            f"{c}*({self.basis.name(i)}^{self.basis.name(j)})"
            for (i, j), c in self.terms
        ]
        return "WedgeValue(" + " + ".join(bits) + ")"

    def to_json(self) -> list:
        """Sorted array of {left, right, coeff} with left < right in basis order."""
        return [
            {
                "left": self.basis.name(i),
                "right": self.basis.name(j),
                "coeff": _frac_str(c),
            }
            for (i, j), c in self.terms
        ]


def wedge(a: Weight, b: Weight) -> WedgeValue:
    """Bilinear expansion of a ^ b over generator pairs."""
    if a.basis != b.basis:
        raise BasisMismatch("wedge of weights over different bases")
    terms: dict = {}
    for i, ca in a.coeffs:
        for j, cb in b.coeffs:
            if i == j:
                continue
            c = ca * cb
            if i > j:
                key, c = (j, i), -c
            else:
                key = (i, j)
            terms[key] = terms.get(key, Fraction(0)) + c
    return WedgeValue._of(a.basis, tuple(sorted((k, c) for k, c in terms.items() if c)))


class TensorH1Value:
    """Vector of Weights, one per free generator of the target group."""

    __slots__ = ("components",)

    def __init__(self, components):
        self.components: tuple[Weight, ...] = tuple(components)

    @classmethod
    def zero(cls, basis: GeneratorBasis, rank: int) -> "TensorH1Value":
        return cls([Weight(basis, {}) for _ in range(rank)])

    def __eq__(self, other) -> bool:
        return isinstance(other, TensorH1Value) and self.components == other.components

    def __hash__(self) -> int:
        return hash(self.components)

    def __add__(self, other: "TensorH1Value") -> "TensorH1Value":
        if len(self.components) != len(other.components):
            raise BasisMismatch("tensor values of different ranks")
        return TensorH1Value(
            [a + b for a, b in zip(self.components, other.components)]
        )

    def is_zero(self) -> bool:
        return all(w.is_zero() for w in self.components)

    def __repr__(self) -> str:
        return f"TensorH1Value({list(self.components)})"

    def to_json(self) -> list:
        return [w.to_json() for w in self.components]
