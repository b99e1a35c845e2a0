"""Values of the invariants.

WedgeValue lives in the exterior square over Q of the span of the declared
basis: a sparse strictly-upper-triangular rational matrix indexed by
generator pairs.  Because the generators are declared Q-independent, the
pairs (i, j) with i < j form a basis of the relevant subspace, so zero is
structural.  Like a Weight, a WedgeValue keeps integer numerators over one
positive denominator (see ``weights``) and shares its arithmetic; ``wedge``
multiplies numerators and never builds a Fraction.

TensorH1Value is a vector of Weights, one per free generator of a finitely
generated abelian group; torsion parts contribute nothing.
"""

from __future__ import annotations

from math import lcm

from .errors import BasisMismatch
from .weights import GeneratorBasis, Weight, _from_rationals, _normalised, _rational, _ratio, _Sparse


class WedgeValue(_Sparse):
    """Sparse map (i, j) with i < j -> rational coefficient.  Immutable."""

    __slots__ = ()
    _noun = "wedge values"

    def __init__(self, basis: GeneratorBasis, terms=None):
        clean: dict = {}
        for (i, j), c in (terms or {}).items():
            if i != j:
                key, c = ((i, j), _rational(c)) if i < j else ((j, i), -_rational(c))
                clean[key] = clean.get(key, 0) + c
        self.basis = basis
        self.den, self.nums = _from_rationals(sorted((k, c) for k, c in clean.items() if c))
        self._fractions = self._hash = None

    @classmethod
    def zero(cls, basis: GeneratorBasis) -> "WedgeValue":
        return cls._of(basis, 1, ())

    terms = property(_Sparse._as_fractions, doc="The sorted ``((i, j), Fraction)`` pairs.")
    # An attribute of this class, so that perfbench's tracer can wrap it here.
    __add__ = _Sparse.__add__

    def __repr__(self) -> str:
        if not self.nums:
            return "WedgeValue(0)"
        bits = [
            f"{c}*({self.basis.name(i)}^{self.basis.name(j)})"
            for (i, j), c in self.terms
        ]
        return "WedgeValue(" + " + ".join(bits) + ")"

    def to_json(self) -> list:
        """Sorted array of {left, right, coeff} with left < right in basis order."""
        name, den = self.basis.name, self.den
        return [
            {"left": name(i), "right": name(j), "coeff": "%d/%d" % _ratio(n, den)}
            for (i, j), n in self.nums
        ]


def _expand(terms: dict, a: tuple, b: tuple, m: int) -> None:
    """Add m times the numerators of a ^ b into ``terms``, for the weight
    numerators ``a`` and ``b``."""
    get = terms.get
    for i, na in a:
        na *= m
        for j, nb in b:
            if i < j:
                key, n = (i, j), na * nb
            elif i > j:
                key, n = (j, i), -na * nb
            else:
                continue
            terms[key] = get(key, 0) + n


def wedge(a: Weight, b: Weight) -> WedgeValue:
    """Bilinear expansion of a ^ b over generator pairs: the numerators
    multiply, over the denominator ``a.den * b.den``."""
    if a.basis != b.basis:
        raise BasisMismatch("wedge of weights over different bases")
    terms: dict = {}
    _expand(terms, a.nums, b.nums, 1)
    return WedgeValue._of(a.basis, *_normalised(a.den * b.den, terms))


def wedge_starts(basis: GeneratorBasis, lengths: list) -> WedgeValue:
    """The sum of lam_k ^ s_k over the weights lam_k, where s_k is the sum
    of the weights before lam_k.  One pass keeps s_k as integers over the
    lcm of the denominators, and the sum is normalised once."""
    den = lcm(*[lam.den for lam in lengths])
    terms: dict = {}
    start: dict = {}
    for lam in lengths:
        m = den // lam.den
        _expand(terms, lam.nums, start.items(), m)
        for k, n in lam.nums:
            start[k] = start.get(k, 0) + n * m
    return WedgeValue._of(basis, *_normalised(den * den, terms))


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
