"""Exact arithmetic for real-valued weights.

A weight is a finite Q-linear combination over a declared generator basis.
Generator 0 is always the rational unit "1".  The non-unit generators are
declared with a decimal enclosure (midpoint string plus a precision in
digits) and are assumed Q-linearly independent together with 1.  Under that
contract the zero test is structural: a weight is zero iff its coefficient
vector is empty.

Signs of nonzero weights are decided by exact interval arithmetic over the
enclosures.  When the interval straddles zero the oracle raises
:class:`PrecisionExhausted` instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import BasisMismatch, DslSemanticError, PrecisionExhausted

NEGATIVE = -1
ZERO = 0
POSITIVE = 1


def _parse_decimal(text: str) -> Fraction:
    """Exact value of a plain decimal literal like '1.4142' or '-3'."""
    text = text.strip()
    if not text:
        raise ValueError("empty decimal literal")
    sign = 1
    if text[0] in "+-":
        if text[0] == "-":
            sign = -1
        text = text[1:]
    if not text or text.count(".") > 1:
        raise ValueError(f"bad decimal literal {text!r}")
    whole, _, frac = text.partition(".")
    if not (whole or frac) or not (whole + frac).isdigit():
        raise ValueError(f"bad decimal literal {text!r}")
    num = int((whole or "0") + (frac or ""))
    return Fraction(sign * num, 10 ** len(frac))


@dataclass(frozen=True)
class Generator:
    """One basis entry: a name plus a decimal enclosure of its value."""

    name: str
    enclosure: str
    digits: int

    def midpoint(self) -> Fraction:
        return _parse_decimal(self.enclosure)

    def radius(self) -> Fraction:
        # The unit has an exact value; everything else is mid +/- 10^-digits.
        if self.name == "1":
            return Fraction(0)
        return Fraction(1, 10 ** self.digits)


UNIT = Generator("1", "1", 0)


class GeneratorBasis:
    """Ordered list of generators; entry 0 is always the unit.  ``bounds[i]``
    is the exact enclosure (lo, hi) of generator i, parsed once here."""

    def __init__(self, entries: Iterable[Generator] = ()):
        entries = list(entries)
        if not entries or entries[0].name != "1":
            entries = [UNIT] + entries
        names = [g.name for g in entries]
        if len(set(names)) != len(names):
            raise DslSemanticError("duplicate generator names in basis")
        bounds = []
        for i, g in enumerate(entries):
            if i and g.digits <= 0:
                raise DslSemanticError(f"generator {g.name}: digits must be positive")
            mid, rad = g.midpoint(), g.radius()  # midpoint validates the enclosure
            bounds.append((mid - rad, mid + rad))
        self.bounds: tuple[tuple[Fraction, Fraction], ...] = tuple(bounds)
        self.entries: tuple[Generator, ...] = tuple(entries)
        self._index = {g.name: i for i, g in enumerate(self.entries)}

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, GeneratorBasis) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"GeneratorBasis({[g.name for g in self.entries]})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise DslSemanticError(f"unknown generator {name!r}") from None

    def name(self, i: int) -> str:
        return self.entries[i].name

    def with_precision_cap(self, digits: int) -> "GeneratorBasis":
        """Copy of the basis with every enclosure capped at ``digits`` digits.

        Used by the CLI --precision override.  Capping can only widen the
        intervals; it never invents precision the declaration does not have.
        """
        if digits <= 0:
            raise DslSemanticError("precision override must be positive")
        capped = [
            Generator(g.name, g.enclosure, min(g.digits, digits))
            for g in self.entries[1:]
        ]
        return GeneratorBasis(capped)


def _check_same_basis(a: "Weight", b: "Weight") -> None:
    if a.basis != b.basis:
        raise BasisMismatch("weights over different bases")


class Weight:
    """Sparse Q-linear combination over a basis.  Immutable and hashable."""

    __slots__ = ("basis", "coeffs", "_hash")

    def __init__(self, basis: GeneratorBasis, coeffs: Mapping[int, Fraction]):
        clean = {}
        for i, c in coeffs.items():
            c = Fraction(c)
            if c != 0:
                if not 0 <= i < len(basis):
                    raise BasisMismatch(f"generator index {i} outside basis")
                clean[i] = c
        self.basis = basis
        self.coeffs: tuple[tuple[int, Fraction], ...] = tuple(sorted(clean.items()))
        self._hash = hash((basis, self.coeffs))

    @classmethod
    def rational(cls, basis: GeneratorBasis, q) -> "Weight":
        return cls(basis, {0: Fraction(q)})

    @classmethod
    def generator(cls, basis: GeneratorBasis, name: str) -> "Weight":
        return cls(basis, {basis.index(name): Fraction(1)})

    def coeff(self, i: int) -> Fraction:
        for j, c in self.coeffs:
            if j == i:
                return c
        return Fraction(0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Weight)
            and self.basis == other.basis
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return self._hash

    def __add__(self, other: "Weight") -> "Weight":
        _check_same_basis(self, other)
        acc = dict(self.coeffs)
        for i, c in other.coeffs:
            acc[i] = acc.get(i, Fraction(0)) + c
        return Weight(self.basis, acc)

    def __sub__(self, other: "Weight") -> "Weight":
        return self + (-other)

    def __neg__(self) -> "Weight":
        return Weight(self.basis, {i: -c for i, c in self.coeffs})

    def scale(self, q) -> "Weight":
        q = Fraction(q)
        return Weight(self.basis, {i: c * q for i, c in self.coeffs})

    def lex_key(self) -> tuple[Fraction, ...]:
        """Dense coefficient vector; the total preorder used for brackets."""
        return tuple(self.coeff(i) for i in range(len(self.basis)))

    def as_rational(self) -> Fraction | None:
        """The value as a Fraction when supported on the unit alone."""
        if not self.coeffs:
            return Fraction(0)
        if len(self.coeffs) == 1 and self.coeffs[0][0] == 0:
            return self.coeffs[0][1]
        return None

    def interval(self) -> tuple[Fraction, Fraction]:
        """Exact enclosure [lo, hi] of the real value."""
        lo = hi = Fraction(0)
        bounds = self.basis.bounds
        for i, c in self.coeffs:
            g_lo, g_hi = bounds[i]
            if c >= 0:
                lo += c * g_lo
                hi += c * g_hi
            else:
                lo += c * g_hi
                hi += c * g_lo
        return lo, hi

    def sign(self) -> int:
        """NEGATIVE, ZERO or POSITIVE; raises PrecisionExhausted if undecided.

        Zero is structural (declared independence); otherwise the interval
        evaluation must exclude 0.
        """
        if not self.coeffs:
            return ZERO
        q = self.as_rational()
        if q is not None:
            return POSITIVE if q > 0 else NEGATIVE
        lo, hi = self.interval()
        if lo > 0:
            return POSITIVE
        if hi < 0:
            return NEGATIVE
        raise PrecisionExhausted(
            f"sign of {self} straddles 0 in [{lo}, {hi}] at declared precision"
        )

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Weight(0)"
        parts = []
        for i, c in self.coeffs:
            name = self.basis.name(i)
            parts.append(str(c) if i == 0 else f"{c}*{name}")
        return "Weight(" + " + ".join(parts) + ")"

    def to_json(self) -> dict:
        """Object mapping generator name -> "p/q", keys in basis order."""
        return {self.basis.name(i): _frac_str(c) for i, c in self.coeffs}


def _frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def weight_from_json(basis: GeneratorBasis, obj: Mapping[str, str]) -> Weight:
    """Inverse of Weight.to_json against a declared basis."""
    try:
        items = obj.items()
    except AttributeError:
        raise DslSemanticError(f"weight must be an object, got {obj!r}") from None
    coeffs = {}
    for name, text in items:
        try:
            coeffs[basis.index(str(name))] = Fraction(str(text))
        except (ValueError, ZeroDivisionError):
            raise DslSemanticError(f"bad rational {text!r} for generator {name!r}") from None
    return Weight(basis, coeffs)


def weight_cmp(x: Weight, y: Weight) -> int:
    """Numeric comparison via the sign oracle: -1, 0 or +1."""
    return (x - y).sign()
