"""Exact arithmetic for real-valued weights.

A weight is a finite Q-linear combination over a declared generator basis.
Generator 0 is always the rational unit "1".  The non-unit generators are
declared with a decimal enclosure (midpoint string plus a precision in
digits, at most ``MAX_DIGITS``) and are assumed Q-linearly independent
together with 1.  Under that contract the zero test is structural: a weight
is zero iff its coefficient vector is empty.

The basis parses each enclosure once, into integers over one shared
denominator ``10**D``: the midpoint ``mid_i / 10**D`` and the radius
``rad_i / 10**D``, where D is the largest digit count or midpoint decimal
count of the basis.  The sign of a nonzero weight ``sum c_i x_i`` is then
decided without building a Fraction: with the coefficients brought to one
denominator as integers ``n_i``, the enclosure of the weight is
``center +/- spread`` over a positive denominator, where
``center = sum n_i mid_i`` and ``spread = sum |n_i| rad_i``.  When the
enclosure straddles zero the oracle raises :class:`PrecisionExhausted`
instead of guessing; its message gives the exact Fraction bounds of
:meth:`Weight.interval`.

Weights and wedge values (``exterior.WedgeValue``) are sparse vectors: sorted
tuples of ``(key, Fraction)`` with no zero entries.  Their arithmetic goes
through one linear merge, ``_merge``, and their hashes are computed on first
use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping

from .errors import BasisMismatch, DslSemanticError, PrecisionExhausted

NEGATIVE = -1
ZERO = 0
POSITIVE = 1

# Largest accepted digit count of an enclosure.  It is the bound CPython puts
# on the digits of a decimal literal; a larger count would only make the
# basis build ever larger powers of ten.
MAX_DIGITS = 4300


def _parse_decimal(text: str) -> tuple[int, int]:
    """``(n, e)`` with ``n / 10**e`` the exact value of a plain decimal
    literal like '1.4142' or '-3'; e is the number of decimals."""
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
    return sign * int((whole or "0") + frac), len(frac)


@dataclass(frozen=True)
class Generator:
    """One basis entry: a name plus a decimal enclosure of its value."""

    name: str
    enclosure: str
    digits: int

    def midpoint(self) -> Fraction:
        n, e = _parse_decimal(self.enclosure)
        return Fraction(n, 10 ** e)

    def radius(self) -> Fraction:
        # The unit has an exact value; everything else is mid +/- 10^-digits.
        if self.name == "1":
            return Fraction(0)
        return Fraction(1, 10 ** self.digits)


UNIT = Generator("1", "1", 0)


class GeneratorBasis:
    """Ordered list of generators; entry 0 is always the unit.  ``bounds[i]``
    is the exact enclosure (lo, hi) of generator i, parsed once here; the
    sign oracle reads the same enclosures as integers over ``10**D``."""

    def __init__(self, entries: Iterable[Generator] = ()):
        entries = list(entries)
        if not entries or entries[0].name != "1":
            entries = [UNIT] + entries
        names = [g.name for g in entries]
        if len(set(names)) != len(names):
            raise DslSemanticError("duplicate generator names in basis")
        mids, D = [], 0
        for i, g in enumerate(entries):
            if i:
                if g.digits <= 0:
                    raise DslSemanticError(f"generator {g.name}: digits must be positive")
                if g.digits > MAX_DIGITS:
                    raise DslSemanticError(
                        f"generator {g.name}: digit count must be at most {MAX_DIGITS}"
                    )
                D = max(D, g.digits)
            n, e = _parse_decimal(g.enclosure)  # validates the enclosure
            mids.append((n, e))
            D = max(D, e)
        scale = 10 ** D
        # Entry 0 is the unit, the only entry named "1": its radius is 0.
        self._mid = tuple(n * 10 ** (D - e) for n, e in mids)
        self._rad = (0,) + tuple(10 ** (D - g.digits) for g in entries[1:])
        self.bounds: tuple[tuple[Fraction, Fraction], ...] = tuple(
            (Fraction(m - r, scale), Fraction(m + r, scale))
            for m, r in zip(self._mid, self._rad)
        )
        self.entries: tuple[Generator, ...] = tuple(entries)
        self._index = {g.name: i for i, g in enumerate(self.entries)}
        self._hash = hash(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, GeneratorBasis) and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return self._hash

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


def _merge(a: tuple, b: tuple, negate: bool = False) -> tuple:
    """``a + b`` (``a - b`` when ``negate``) of two sparse vectors: sorted
    tuples of ``(key, Fraction)`` without zeros.  The result is one too."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        ka, ca = a[i]
        kb, cb = b[j]
        if ka < kb:
            out.append(a[i])
            i += 1
        elif kb < ka:
            out.append((kb, -cb) if negate else b[j])
            j += 1
        else:
            c = ca - cb if negate else ca + cb
            if c:
                out.append((ka, c))
            i += 1
            j += 1
    rest = b[j:]
    return tuple(out) + a[i:] + (_negated(rest) if negate else rest)


def _negated(v: tuple) -> tuple:
    return tuple([(k, -c) for k, c in v])


def _scaled(v: tuple, q) -> tuple:
    """The sparse vector ``v`` times the rational ``q``."""
    q = Fraction(q)
    if not q:
        return ()
    return tuple([(k, c * q) for k, c in v])


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
        self._hash = None

    @classmethod
    def _of(cls, basis: GeneratorBasis, coeffs: tuple) -> "Weight":
        """Trusted constructor: ``coeffs`` is already sorted, sparse and in
        range."""
        w = object.__new__(cls)
        w.basis = basis
        w.coeffs = coeffs
        w._hash = None
        return w

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
        h = self._hash
        if h is None:
            h = self._hash = hash((self.basis, self.coeffs))
        return h

    def __add__(self, other: "Weight") -> "Weight":
        _check_same_basis(self, other)
        return Weight._of(self.basis, _merge(self.coeffs, other.coeffs))

    def __sub__(self, other: "Weight") -> "Weight":
        _check_same_basis(self, other)
        return Weight._of(self.basis, _merge(self.coeffs, other.coeffs, True))

    def __neg__(self) -> "Weight":
        return Weight._of(self.basis, _negated(self.coeffs))

    def scale(self, q) -> "Weight":
        return Weight._of(self.basis, _scaled(self.coeffs, q))

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

        Zero is structural (declared independence); otherwise the enclosure
        ``center +/- spread`` (see the module docstring) must exclude 0.
        """
        coeffs = self.coeffs
        if not coeffs:
            return ZERO
        if len(coeffs) == 1 and coeffs[0][0] == 0:  # a rational
            return POSITIVE if coeffs[0][1] > 0 else NEGATIVE
        basis = self.basis
        mid, rad = basis._mid, basis._rad
        den = lcm(*[c.denominator for _, c in coeffs])
        center = spread = 0
        for i, c in coeffs:
            n = c.numerator * (den // c.denominator)
            center += n * mid[i]
            spread += abs(n) * rad[i]
        if center > spread:
            return POSITIVE
        if center < -spread:
            return NEGATIVE
        lo, hi = self.interval()
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
